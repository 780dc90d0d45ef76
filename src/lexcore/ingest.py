"""Shard parsing and cleaning: lexical filter, POS handling, yearly totals.

A shard is an (optionally gzip-compressed) TSV file with one record per
line: ``token<TAB>year<TAB>match_count<TAB>volume_count``, UTF-8.  Tokens
may carry a trailing ``_TAG`` part-of-speech suffix.

Cleaning applies three rules:

* only lexical tokens are kept (alphabet letters plus at most one
  apostrophe, see :mod:`lexcore.alphabets`);
* POS-only wildcard rows (``_NOUN_``) are discarded;
* for every word, POS variants whose corpus-wide count does not exceed
  1% of the word's total are dropped (the largest variant always stays).

Ingestion never aborts on a single bad line; malformed lines are counted
and skipped.  Shards may be processed in any order or partition: partial
tables merge by plain addition, so the result is deterministic.
"""

from __future__ import annotations

import functools
import gzip
import logging
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .alphabets import APOSTROPHE, APOSTROPHE_VARIANTS, AlphabetSpec
from .config import RunConfig
from .errors import LexcoreError, WildcardToken
from .postags import POS_COUNT, SUFFIX_TAGS, PosTag
from .store import CorpusStore, dominant_variant, group_sum, index_sum, read_volume_sidecar

log = logging.getLogger(__name__)

__all__ = [
    "IngestStats",
    "split_pos",
    "is_lexical",
    "build_store",
]


@dataclass
class IngestStats:
    """Counters accumulated while building a store."""

    lines: int = 0
    malformed: int = 0
    out_of_range: int = 0
    invalid_counts: int = 0
    duplicate_rows: int = 0
    wildcard_rows: int = 0
    nonlexical_rows: int = 0
    dropped_pos_variants: int = 0
    empty_years: set[int] = field(default_factory=set)

    def to_dict(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if k != "empty_years"}
        out["empty_years"] = sorted(self.empty_years)
        return out


def split_pos(token: str) -> tuple[str, PosTag]:
    """Split a ``word_TAG`` token into its word and POS tag.

    Tokens without a recognized suffix come back as ``UNTAGGED``.  Pure
    wildcard rows such as ``_NOUN_`` or ``_NOUN`` carry no word content
    and raise :class:`WildcardToken`.
    """
    if not token:
        raise ValueError("empty token")
    if token[0] == "_":
        inner = token[1:-1] if len(token) > 2 and token[-1] == "_" else token[1:]
        if inner in SUFFIX_TAGS:
            raise WildcardToken(token)
    base, sep, tag = token.rpartition("_")
    if sep and tag in SUFFIX_TAGS:
        if not base:
            raise WildcardToken(token)
        return base, SUFFIX_TAGS[tag]
    return token, PosTag.UNTAGGED


def is_lexical(word: str, alphabet: AlphabetSpec) -> bool:
    """True iff ``word`` is made of alphabet letters plus allowed apostrophes.

    At least one character must be a letter, and the apostrophe count may
    not exceed ``alphabet.max_apostrophes``.
    """
    if not word:
        return False
    letters = 0
    apostrophes = 0
    allowed = alphabet.letters
    for ch in word:
        if ch in allowed:
            letters += 1
        elif ch in APOSTROPHE_VARIANTS:
            apostrophes += 1
            if not alphabet.apostrophe_allowed or apostrophes > alphabet.max_apostrophes:
                return False
        else:
            return False
    return letters >= 1


_CHUNK_BYTES = 1 << 20
_TOKEN_BYTES = 32  # longest token the kernel groups; longer ones take the per-line path
_DIGITS = 18  # longest numeric field the kernel parses: 10**18 - 1 < 2**63
_COUNT_LIMIT = 1 << 63
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier that mixes the words of a token
# _LOW_BYTES[r] keeps the first r bytes of a little-endian uint64 word.
_LOW_BYTES = np.array([(1 << (8 * r)) - 1 for r in range(9)], dtype=np.uint64)


def _number(field: bytes) -> int:
    """Value of an ASCII-digit field, capped at 2**63 (anything larger)."""
    digits = field.lstrip(b"0")
    return int(digits or b"0") if len(digits) <= 19 else _COUNT_LIMIT


def _fields(line: bytes) -> tuple[bytes, int, int, int] | None:
    """Split one line into (token, year, match, volumes); None if malformed.

    A line is well formed iff it has four tab-separated fields, a
    non-empty token, numeric fields made of ASCII digits only and counts
    below 2**63.  Whether the token is UTF-8 is left to the caller.  A
    year past int64 comes back as 2**63 - 1, outside any year range.
    """
    parts = line.split(b"\t")
    if len(parts) != 4:
        return None
    token, year_s, match_s, vol_s = parts
    if not token or not (year_s.isdigit() and match_s.isdigit() and vol_s.isdigit()):
        return None
    match, vol = _number(match_s), _number(vol_s)
    if match >= _COUNT_LIMIT or vol >= _COUNT_LIMIT:
        return None
    return token, min(_number(year_s), _COUNT_LIMIT - 1), match, vol


@dataclass
class _ShardPartial:
    tokens: list[str]
    tid: np.ndarray  # int32 index into tokens, one per kept row
    year: np.ndarray  # int32
    match: np.ndarray  # int64
    volume: np.ndarray  # int64
    stats: IngestStats


class _ShardParser:
    """Accumulates the kept rows of one shard, chunk by chunk.

    Both line paths feed :meth:`keep`, which applies the counters in a
    fixed order: malformed (including tokens that are not UTF-8), then
    out_of_range, then invalid_counts.
    """

    def __init__(self, year_start: int, year_end: int) -> None:
        self.year_start = year_start
        self.year_end = year_end
        self.ids: dict[bytes, int] = {}  # token bytes -> local id, -1 if not UTF-8
        self.tokens: list[str] = []
        self.stats = IngestStats()
        self.rows: list[tuple[np.ndarray, ...]] = []

    def token_ids(self, raw_tokens: Sequence[bytes]) -> list[int]:
        """Local id of each token; -1 for a token that is not UTF-8."""
        ids, tokens = self.ids, self.tokens
        for raw in raw_tokens:
            if raw not in ids:
                try:
                    tokens.append(raw.decode("utf-8"))
                    ids[raw] = len(tokens) - 1
                except UnicodeDecodeError:
                    ids[raw] = -1
        return list(map(ids.__getitem__, raw_tokens))

    def keep(self, tid: np.ndarray, year: np.ndarray, match: np.ndarray, vol: np.ndarray) -> None:
        """Count and drop the rejected rows of well-formed lines; keep the rest."""
        stats = self.stats
        valid = tid >= 0
        stats.malformed += len(tid) - int(np.count_nonzero(valid))
        in_range = valid & (year >= self.year_start) & (year <= self.year_end)
        stats.out_of_range += int(np.count_nonzero(valid)) - int(np.count_nonzero(in_range))
        kept = in_range & ((match < 1) | (vol >= 1))
        stats.invalid_counts += int(np.count_nonzero(in_range)) - int(np.count_nonzero(kept))
        self.rows.append(
            (tid[kept].astype(np.int32), year[kept].astype(np.int32), match[kept], vol[kept])
        )

    def exact(self, lines: Sequence[bytes]) -> None:
        """The per-line path: every line the kernel does not take."""
        self.stats.lines += len(lines)
        parsed = [_fields(line) for line in lines]
        good = [f for f in parsed if f is not None]
        self.stats.malformed += len(parsed) - len(good)
        if good:
            tokens, years, matches, vols = zip(*good)
            self.keep(
                np.array(self.token_ids(tokens), dtype=np.int64),
                np.array(years, dtype=np.int64),
                np.array(matches, dtype=np.int64),
                np.array(vols, dtype=np.int64),
            )

    def finish(self) -> _ShardPartial:
        """Concatenate the kept rows; tokens without a kept row are left out."""
        if self.rows:
            tid, year, match, vol = (np.concatenate(c) for c in zip(*self.rows))
        else:
            tid = year = np.zeros(0, dtype=np.int32)
            match = vol = np.zeros(0, dtype=np.int64)
        used = np.bincount(tid, minlength=len(self.tokens)) > 0
        tokens = self.tokens
        if not used.all():
            tokens = [t for t, u in zip(tokens, used.tolist()) if u]
            tid = (np.cumsum(used, dtype=np.int32) - 1)[tid]
        return _ShardPartial(tokens, tid, year, match, vol, self.stats)


def _digits(buf: np.ndarray, begin: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parse the fields ``buf[begin:end]``, one vectorised pass per digit.

    Returns (values, ok); ok is False for empty fields and for any byte
    outside ``0``-``9``.  Fields are at most :data:`_DIGITS` long.
    """
    length = end - begin
    value = np.zeros(len(end), dtype=np.int64)
    ok = length > 0
    shortest = int(length.min(initial=0))
    for k in range(int(length.max(initial=0))):
        digit = buf.take(end - 1 - k, mode="clip").astype(np.int64) - 48
        if k >= shortest:
            digit[length <= k] = 0
        ok &= (digit >= 0) & (digit <= 9)
        value += digit * 10**k
    return value, ok


def _group_tokens(padded: bytes, start: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group rows with equal tokens: (group of each row, first row of each group).

    Each token of at most :data:`_TOKEN_BYTES` bytes is read as uint64
    words straight from the buffer (``padded`` carries that many spare
    bytes at its end) and masked to its length; the words plus the
    length are the token's keys.  Rows are sorted on a mix of the keys
    and a new group starts wherever a key changes, so a group never
    holds two different tokens.  Tokens whose mixes collide may be split
    over several groups, which the token lookup merges again.
    """
    words = np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))
    keys = [length.astype(np.uint64)]
    for w in range(0, int(length.max()), 8):
        keys.append(words[start + w] & _LOW_BYTES[np.clip(length - w, 0, 8)])
    mixed = keys[0]
    for key in keys[1:]:
        mixed = mixed * _MIX ^ key
    order = np.argsort(mixed)
    new_group = np.zeros(len(order), dtype=bool)
    new_group[0] = True
    for key in keys:
        ordered = key[order]
        new_group[1:] |= ordered[1:] != ordered[:-1]
    group = np.empty(len(order), dtype=np.int64)
    group[order] = np.cumsum(new_group) - 1
    return group, order[new_group]


def _parse_chunk(parser: _ShardParser, chunk: bytes) -> None:
    """The byte-level kernel for one chunk of whole lines, split at LF only.

    Lines with a token longer than :data:`_TOKEN_BYTES` or a numeric
    field longer than :data:`_DIGITS` go to :meth:`_ShardParser.exact`.
    """
    buf = np.frombuffer(chunk, dtype=np.uint8)
    ends = np.flatnonzero(buf == 10)
    if buf[-1] != 10:
        ends = np.append(ends, len(buf))
    starts = np.concatenate(([0], ends[:-1] + 1))
    tabs = np.flatnonzero(buf == 9)
    tabs_before_end = np.searchsorted(tabs, ends)
    first_tab = np.concatenate(([0], tabs_before_end[:-1]))
    four_fields = tabs_before_end - first_tab == 3
    first_tab = first_tab[four_fields]
    t0, t1, t2 = tabs[first_tab], tabs[first_tab + 1], tabs[first_tab + 2]
    start, end = starts[four_fields], ends[four_fields]
    long = (t0 - start > _TOKEN_BYTES) | (np.maximum(np.maximum(t1 - t0, t2 - t1), end - t2) > _DIGITS + 1)
    if long.any():
        parser.exact([chunk[s:e] for s, e in zip(start[long].tolist(), end[long].tolist())])
        start, t0, t1, t2, end = (a[~long] for a in (start, t0, t1, t2, end))
    year, ok = _digits(buf, t0 + 1, t1)
    match, ok_match = _digits(buf, t1 + 1, t2)
    vol, ok_vol = _digits(buf, t2 + 1, end)
    ok &= ok_match & ok_vol & (t0 > start)
    stats = parser.stats
    stats.lines += len(ends) - int(np.count_nonzero(long))
    stats.malformed += len(ends) - len(long) + len(ok) - int(np.count_nonzero(ok))
    start, tok_len, year, match, vol = start[ok], (t0 - start)[ok], year[ok], match[ok], vol[ok]
    if len(start):
        group, first = _group_tokens(chunk + bytes(_TOKEN_BYTES), start, tok_len)
        raw = [chunk[s : s + n] for s, n in zip(start[first].tolist(), tok_len[first].tolist())]
        tid = np.array(parser.token_ids(raw), dtype=np.int64)[group]
        parser.keep(tid, year, match, vol)


def _parse_shard(path: Path, year_start: int, year_end: int) -> _ShardPartial:
    """Parse one shard into its kept rows and counters.

    The shard is read in binary chunks of whole lines.  A chunk holding a
    CR takes the per-line path, which splits at LF, CRLF and CR as text
    mode would; all others go to the numpy kernel.
    """
    parser = _ShardParser(year_start, year_end)
    opener = gzip.open if path.suffix == ".gz" else open
    try:
        with opener(path, "rb") as fh:
            while chunk := fh.read(_CHUNK_BYTES):
                if chunk[-1:] != b"\n":
                    chunk += fh.readline()
                if b"\r" in chunk:
                    parser.exact(chunk.splitlines())
                else:
                    _parse_chunk(parser, chunk)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        # A truncated or corrupt gzip stream.
        raise LexcoreError(f"{path}: unreadable shard: {exc}") from None
    return parser.finish()


def _classify_tokens(
    tokens: Sequence[str], config: RunConfig, rows_per_token: np.ndarray, stats: IngestStats
) -> tuple[list[str], np.ndarray]:
    """Map each distinct token to a (word, pos) pair id or drop it.

    Returns the sorted word dictionary plus each token's pair id,
    ``word id * POS_COUNT + pos id`` (-1 marks a dropped token).
    ``rows_per_token`` attributes dropped rows to the wildcard/non-lexical
    counters precisely.
    """
    n = len(tokens)
    word_pos: list[tuple[str, int] | None] = [None] * n
    alphabet = config.alphabet
    fold = config.fold_case
    for i, token in enumerate(tokens):
        try:
            word, pos = split_pos(token)
        except WildcardToken:
            stats.wildcard_rows += int(rows_per_token[i])
            continue
        # Typographic apostrophes (U+2019) map to the ASCII form.
        word = word.replace("’", APOSTROPHE)
        if fold:
            word = word.lower()
        if not is_lexical(word, alphabet):
            stats.nonlexical_rows += int(rows_per_token[i])
            continue
        word_pos[i] = (word, int(pos))

    vocabulary = sorted({wp[0] for wp in word_pos if wp is not None})
    word_index = {w: i for i, w in enumerate(vocabulary)}
    pair_ids = np.fromiter(
        (-1 if wp is None else word_index[wp[0]] * POS_COUNT + wp[1] for wp in word_pos),
        dtype=np.int64,
        count=n,
    )
    return vocabulary, pair_ids


@functools.cache
def _malloc_trim():
    """The C library's ``malloc_trim``, or None where it has none (it is glibc's)."""
    import ctypes

    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None


def _release_freed_memory() -> None:
    """Hand the heap pages freed so far back to the OS.

    glibc keeps freed blocks below its adaptive mmap threshold (which
    grows up to 32 MiB as large blocks are freed) in the heap.  Without
    this, the next phase's arrays land in whichever of those holes fit,
    and the peak RSS of an ingest depends on where earlier temporaries
    happened to fall rather than on the data: 140 to 161 MB on one
    corpus for the same code run from differently named checkouts.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def build_store(
    shard_paths: Sequence[str | Path],
    config: RunConfig,
    volume_sidecar: str | Path | None = None,
    threads: int = 1,
) -> tuple[CorpusStore, IngestStats]:
    """Parse, clean and aggregate shards into a queryable corpus store.

    Shards are parsed independently (``threads`` workers) and merged by
    commutative addition, so any order or partition of the input yields
    an identical store.
    """
    paths = [Path(p) for p in shard_paths]
    if not paths:
        raise ValueError("no shard paths given")
    stats = IngestStats()

    parse = lambda p: _parse_shard(p, config.year_start, config.year_end)
    if threads > 1 and len(paths) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(parse, paths))
    else:
        partials = [parse(p) for p in paths]

    # Merge shard-local token ids into one global map; ids are remapped,
    # so the shard order never changes the result.
    global_tokens: dict[str, int] = {}
    tid_chunks = []
    for part in partials:
        for k in ("lines", "malformed", "out_of_range", "invalid_counts"):
            setattr(stats, k, getattr(stats, k) + getattr(part.stats, k))
        remap = np.array(
            [global_tokens.setdefault(t, len(global_tokens)) for t in part.tokens], dtype=np.int64
        )
        tid_chunks.append(remap[part.tid])
    tid = np.concatenate(tid_chunks)
    year = np.concatenate([p.year for p in partials]).astype(np.int64)
    match = np.concatenate([p.match for p in partials])
    vol = np.concatenate([p.volume for p in partials])
    del partials, tid_chunks
    _release_freed_memory()

    # Re-ingested (token, year) rows are summed but worth a warning count.
    span = config.year_end - config.year_start + 1
    raw_key = np.sort(tid * span + (year - config.year_start))
    stats.duplicate_rows = int(np.count_nonzero(raw_key[1:] == raw_key[:-1]))
    del raw_key

    token_list = list(global_tokens)
    rows_per_token = np.bincount(tid, minlength=len(token_list))
    vocabulary, pair_of_token = _classify_tokens(token_list, config, rows_per_token, stats)
    if stats.duplicate_rows:
        log.warning("%d duplicate (token, year) rows merged by addition", stats.duplicate_rows)

    pair = pair_of_token[tid]
    del tid
    kept = pair >= 0
    pair, year, match, vol = pair[kept], year[kept], match[kept], vol[kept]

    # The store's row order, (word id, year, pos id), lives in this one
    # key: collapsing duplicates (same word, pos, year) from shard
    # overlap, case folding or apostrophe normalization also sorts the
    # rows into it, and every later step keeps that order.
    key = ((pair // POS_COUNT) * span + (year - config.year_start)) * POS_COUNT + pair % POS_COUNT
    del pair, year
    key, match, vol = group_sum(key, match, vol)
    _release_freed_memory()

    # POS-variant 1% rule on corpus-wide counts per (word, pos).  Spent
    # row-length temporaries are dropped at once, so the later phases
    # stay under the merge phase's peak RSS.
    row_pair = key // (span * POS_COUNT) * POS_COUNT + key % POS_COUNT
    pair_ids, pair_totals = group_sum(row_pair, match)
    n_words = len(vocabulary)
    pair_words = pair_ids // POS_COUNT
    word_totals = index_sum(pair_words, pair_totals, n_words)
    # pair > word / 100, in a form that cannot wrap.
    retain = pair_totals > word_totals[pair_words] // 100
    # Always retain each word's dominant variant.
    retain[dominant_variant(pair_words, pair_ids % POS_COUNT, pair_totals)] = True
    stats.dropped_pos_variants = int(len(pair_ids) - int(retain.sum()))

    retain_lookup = np.zeros(n_words * POS_COUNT, dtype=bool)
    retain_lookup[pair_ids[retain]] = True
    row_keep = retain_lookup[row_pair]
    del row_pair
    key, match, vol = key[row_keep], match[row_keep], vol[row_keep]
    del row_keep
    _release_freed_memory()

    wid = key // (span * POS_COUNT)
    year = key // POS_COUNT % span + config.year_start
    pid = key % POS_COUNT
    del key

    lexical_totals = index_sum(year - config.year_start, match, span)
    stats.empty_years = {
        config.year_start + i for i in range(span) if lexical_totals[i] == 0
    }

    volume_totals = np.zeros(span, dtype=np.int64)
    if volume_sidecar is not None:
        for y, total in read_volume_sidecar(volume_sidecar).items():
            if config.year_start <= y <= config.year_end:
                volume_totals[y - config.year_start] = total

    store = CorpusStore.from_rows(
        language=config.language,
        year_start=config.year_start,
        year_end=config.year_end,
        words=vocabulary,
        word_id=wid,
        pos_id=pid,
        year=year,
        match_count=match,
        volume_count=vol,
        lexical_totals=lexical_totals,
        volume_totals=volume_totals,
    )
    log.info(
        "ingested %d lines from %d shard(s): %d rows, %d words, %d malformed",
        stats.lines,
        len(paths),
        len(store.pos_id),
        len(vocabulary),
        stats.malformed,
    )
    return store, stats
