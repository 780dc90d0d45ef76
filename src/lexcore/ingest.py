"""Shard parsing and cleaning: lexical filter, POS handling, yearly totals.

A shard is an (optionally gzip-compressed) TSV file with one record per
line: ``token<TAB>year<TAB>match_count<TAB>volume_count``, UTF-8.  Tokens
may carry a trailing ``_TAG`` part-of-speech suffix.

Cleaning applies two rules:

* the token rule, whose one home is :meth:`_TokenTable._key_base`:
  POS-only wildcard rows (``_NOUN_``) are discarded, and a token is kept
  when, its ``_TAG`` suffix split off, it is a word of the config's
  alphabet (see :class:`lexcore.alphabets.AlphabetSpec`);
* for every word, POS variants whose corpus-wide count does not exceed
  1% of the word's total are dropped (the largest variant always stays).

Ingestion never aborts on a single bad line; malformed lines are counted
and skipped.  The shard workers share one token table, which decodes and
classifies each distinct token once, and key each kept row by (word,
year, pos) as they parse.  The merge ranks the words and sums rows with
equal keys, so any shard order, partition or thread count yields the
same store.

Memory: the parse keeps 8 bytes per line for its (token, year) key plus
24 per lexical row; at one thread the traced peak is about 59 bytes per
input line, set in the parse (the tests hold it under 64).  Each later
stage works in place on the three row columns with at most one spare
row-length column.  Only the collapse sorts, and it also holds its sort
order, 16 bytes per row in all; the POS 1% rule sums into dense slots,
12 int64 slots plus a 12-byte mask per word.  Freed heap pages go back
to the OS at each stage boundary and after each shard's columns are
merged.  At one thread the collapse sets the process's RSS peak, just
above the parse's; at two threads the parse sets it, or the merge that
copies its buffers.  :attr:`IngestStats.stage_peak_rss_mb` shows which
stage it was.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import logging
import resource
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import RunConfig
from .errors import LexcoreError
from .postags import POS_COUNT, SUFFIX_TAGS, PosTag
from .store import CorpusStore, check_count_total, group_sum, index_sum, pos_totals, read_volume_sidecar, run_rows

log = logging.getLogger(__name__)

__all__ = ["IngestStats", "build_store"]


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
    # Telemetry, not counters: runs of one input differ in these.
    timings: dict[str, float] = field(default_factory=dict, compare=False)  # seconds per stage
    stage_peak_rss_mb: dict[str, float] = field(default_factory=dict, compare=False)  # process peak at each stage's end
    peak_rss_mb: float = field(default=0.0, compare=False)

    def record(self, stage: str, seconds: float) -> None:
        """Telemetry of a finished stage: its seconds and the process's peak RSS so far."""
        self.timings[stage] = seconds
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB
        self.stage_peak_rss_mb[stage] = self.peak_rss_mb

    def to_dict(self) -> dict:
        return {**self.__dict__, "empty_years": sorted(self.empty_years)}


_CHUNK_BYTES = 1 << 20
_TOKEN_BYTES = 32  # longest token grouped by its uint64 words; a longer one gets a group of its own
_DIGITS = 19  # trailing digits of a numeric field parsed in uint64: 10**19 - 1 < 2**64
_TOO_BIG = np.iinfo(np.int64).min  # a parsed value of 2**63 or more: below any count or year range
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier that mixes the words of a token
# _LOW_BYTES[r] keeps the first r bytes of a little-endian uint64 word.
_LOW_BYTES = np.array([(1 << (8 * r)) - 1 for r in range(9)], dtype=np.uint64)


_NOT_UTF8, _WILDCARD, _NONLEXICAL = -1, -2, -3  # key bases of tokens that yield no store row
_Rows = tuple[np.ndarray, np.ndarray, np.ndarray]  # the (key, match, volume) columns of the kept rows
_Columns = tuple[list[np.ndarray], ...]  # one shard's (raw key, key, match, volume) rows, an array per chunk


class _TokenTable:
    """Every distinct token of one ingest, shared by all its shard workers.

    Each token's bytes are decoded and classified once, by the worker
    that meets them first; a lock guards only that miss path.  A token
    maps to a token id, which only tells repeated (token, year) rows
    apart, and a key base: ``word id * span * POS_COUNT + pos id`` for a
    lexical token, so that a row's store key is its base plus ``year
    offset * POS_COUNT``, else one of the negative codes above.  Word ids
    are provisional, numbered as words are first met, so they depend on
    thread timing; :func:`build_store` replaces them by each word's rank.
    """

    def __init__(self, config: RunConfig) -> None:
        self.config, self.span = config, config.year_end - config.year_start + 1
        alphabet = config.alphabet
        self.allowed = alphabet.letters | {"'"}
        self.max_apostrophes = alphabet.max_apostrophes if alphabet.apostrophe_allowed else 0
        self.ids: dict[bytes, int] = {}  # token bytes -> token id
        self.bases = np.empty(1024, dtype=np.int64)  # key base by token id, grown by doubling
        self.word_ids: dict[str, int] = {}
        self.lock = threading.Lock()

    def lookup(self, raw_tokens: Sequence[bytes]) -> tuple[np.ndarray, np.ndarray]:
        """Token id and key base of each token, as two int64 arrays."""
        ids = self.ids
        tid = np.fromiter(map(ids.get, raw_tokens, itertools.repeat(-1)), dtype=np.int64, count=len(raw_tokens))
        for i in np.flatnonzero(tid < 0).tolist():
            with self.lock:
                raw = raw_tokens[i]
                if raw not in ids:  # another worker may have added it meanwhile
                    if len(ids) == len(self.bases):
                        self.bases = np.resize(self.bases, 2 * len(ids))
                    self.bases[len(ids)] = self._key_base(raw)  # stored before its id is published
                    ids[raw] = len(ids)
                tid[i] = ids[raw]
        # Read after the ids: every base they name is in this array.
        return tid, self.bases[tid]

    def _key_base(self, raw: bytes) -> int:
        """The token rule: a token's key base, or the code that drops its rows.

        The token is decoded as UTF-8; a POS-only wildcard (``_NOUN_``,
        ``_NOUN``) is refused; a known ``_TAG`` suffix is split off as the
        pos, else the token is untagged; U+2019 becomes ``'``; the case is
        folded under ``fold_case``.  The word is lexical iff it holds at
        least one alphabet letter, nothing but letters besides, and at
        most ``max_apostrophes`` apostrophes (none unless
        ``apostrophe_allowed``).
        """
        try:
            token = raw.decode("utf-8")
        except UnicodeDecodeError:
            return _NOT_UTF8
        if token[:1] == "_" and token[1:].removesuffix("_") in SUFFIX_TAGS:
            return _WILDCARD
        word, sep, tag = token.rpartition("_")
        pos = SUFFIX_TAGS.get(tag) if sep else None
        if pos is None:
            word, pos = token, PosTag.UNTAGGED
        word = word.replace("\u2019", "'")
        if self.config.fold_case:
            word = word.lower()
        apostrophes = word.count("'")
        if apostrophes > self.max_apostrophes or apostrophes == len(word) or not self.allowed.issuperset(word):
            return _NONLEXICAL
        return self.word_ids.setdefault(word, len(self.word_ids)) * self.span * POS_COUNT + int(pos)


def _digits(buf: np.ndarray, begin: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parse the fields ``buf[begin:end]``, one vectorised pass per digit.

    Returns (values, ok); ok is False for empty fields and for any byte
    outside ``0``-``9``.  A value of 2**63 or more comes back as
    :data:`_TOO_BIG`.  Digits before the last :data:`_DIGITS` are checked
    in one gather, so a long field costs its length, once.
    """
    length = end - begin
    value = np.zeros(len(end), dtype=np.uint64)
    ok = length > 0
    shortest, longest = int(length.min(initial=0)), int(length.max(initial=0))
    for k in range(min(longest, _DIGITS)):
        digit = buf.take(end - 1 - k, mode="clip") - np.uint8(48)  # bytes below "0" wrap past 9
        if k >= shortest:
            digit[length <= k] = 0
        ok &= digit <= 9
        value += digit.astype(np.uint64) * np.uint64(10**k)
    value = value.view(np.int64)  # values of 2**63 or more turn negative
    if longest >= _DIGITS:
        # The leading digits of the wider fields, end to end: all must be
        # digits, and any nonzero one puts the value past 2**63.
        big, wide = value < 0, np.flatnonzero(length > _DIGITS)
        lead = length[wide] - _DIGITS
        top = np.maximum.reduceat(buf[run_rows(begin[wide], lead)] - np.uint8(48), np.cumsum(lead) - lead)
        ok[wide] &= top <= 9
        big[wide] |= top > 0
        value[big] = _TOO_BIG
    return value, ok


def _group_tokens(padded: bytes, start: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group rows with equal tokens: (group of each row, first row of each group).

    Each token of at most :data:`_TOKEN_BYTES` bytes is read as uint64
    words straight from the buffer (``padded`` carries that many spare
    bytes at its end) and masked to its length; the words plus the
    length are the token's keys; a longer token gets a length key of its
    own.  Rows are sorted on a mix of the keys and a new group starts
    wherever a key changes, so a group never holds two different tokens.
    Equal tokens may be split over groups, which the lookup merges.
    """
    words = np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))
    keys = [length.astype(np.uint64)]
    longest = int(length.max())
    if longest > _TOKEN_BYTES:
        wide = np.flatnonzero(length > _TOKEN_BYTES)
        keys[0][wide] = _TOKEN_BYTES + 1 + wide
    for w in range(0, min(longest, _TOKEN_BYTES), 8):
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


def _parse_chunk(table: _TokenTable, stats: IngestStats, columns: _Columns, chunk: bytes) -> None:
    """Split one chunk of whole lines at LF, validate, count and key every line.

    A line is well formed iff it has four tab-separated fields, a
    non-empty token and numeric fields of ASCII digits, with counts below
    2**63, and its token is UTF-8.  A year of 2**63 or more is out of
    range.  The counters apply in a fixed order: malformed, then
    out_of_range, then invalid_counts, then wildcard_rows and
    nonlexical_rows.  ``columns`` gathers, one array per chunk, the raw
    key ``token id * span + year offset`` of every row that passes the
    line rules, then the store key ``(word id * span + year offset) *
    POS_COUNT + pos id``, match and volume of each lexical row.
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
    year, ok = _digits(buf, t0 + 1, t1)
    match, ok_match = _digits(buf, t1 + 1, t2)
    vol, ok_vol = _digits(buf, t2 + 1, end)
    # (match | vol) is negative iff a count is 2**63 or more.
    ok &= ok_match & ok_vol & ((match | vol) >= 0) & (t0 > start)
    stats.lines += len(ends)
    stats.malformed += len(ends) - int(np.count_nonzero(ok))
    if not ok.any():
        return
    start, tok_len, year, match, vol = start[ok], (t0 - start)[ok], year[ok], match[ok], vol[ok]
    group, first = _group_tokens(chunk + bytes(_TOKEN_BYTES), start, tok_len)
    # Each distinct token and the tab after it, gathered in one array and split.
    tid, base = table.lookup(buf[run_rows(start[first], tok_len[first] + 1)].tobytes().split(b"\t")[:-1])
    tid, base = tid[group], base[group]
    valid = base != _NOT_UTF8
    stats.malformed += len(base) - int(np.count_nonzero(valid))
    in_range = valid & (year >= table.config.year_start) & (year <= table.config.year_end)
    stats.out_of_range += int(np.count_nonzero(valid)) - int(np.count_nonzero(in_range))
    kept = in_range & ((match < 1) | (vol >= 1))
    stats.invalid_counts += int(np.count_nonzero(in_range)) - int(np.count_nonzero(kept))
    offset, kept_base = year - table.config.year_start, base[kept]
    stats.wildcard_rows += int(np.count_nonzero(kept_base == _WILDCARD))
    stats.nonlexical_rows += int(np.count_nonzero(kept_base == _NONLEXICAL))
    lexical = kept & (base >= 0)
    rows = (tid[kept] * table.span + offset[kept], base[lexical] + offset[lexical] * POS_COUNT,
            match[lexical], vol[lexical])
    for column, rows_of_chunk in zip(columns, rows):
        column.append(rows_of_chunk)


def _parse_shard(path: Path, table: _TokenTable) -> tuple[IngestStats, _Columns]:
    """Parse one shard into its counters and keyed rows.

    The shard is read in binary chunks of whole lines, each ending at an
    LF, so no CRLF straddles two chunks.  In a chunk that holds a CR,
    CRLF and lone CR become LF, which splits lines as text mode would.
    """
    stats, columns = IngestStats(), ([], [], [], [])
    opener = gzip.open if path.suffix == ".gz" else open
    try:
        with opener(path, "rb") as fh:
            while chunk := fh.read(_CHUNK_BYTES):
                if chunk[-1:] != b"\n":
                    chunk += fh.readline()
                if b"\r" in chunk:
                    chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                _parse_chunk(table, stats, columns, chunk)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        # A truncated or corrupt gzip stream.
        raise LexcoreError(f"{path}: unreadable shard: {exc}") from None
    return stats, columns


def _merged(shards: Sequence[_Columns], column: int) -> np.ndarray:
    """One column of every shard's rows, in one array.

    Each shard's chunks are freed, and their pages handed back, as soon
    as they are copied.
    """
    out = np.empty(sum(len(chunk) for columns in shards for chunk in columns[column]), dtype=np.int64)
    at = 0
    for columns in shards:
        for chunk in columns[column]:
            out[at : at + len(chunk)] = chunk
            at += len(chunk)
        columns[column].clear()
        _release_freed_memory()
    return out


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


def _parse(paths: Sequence[Path], table: _TokenTable, threads: int, stats: IngestStats) -> list[_Columns]:
    """Parse every shard, ``threads`` at a time, add up their counters and return their rows."""
    parse = lambda p: _parse_shard(p, table)
    if threads > 1 and len(paths) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            shards = list(pool.map(parse, paths))
    else:
        shards = [parse(p) for p in paths]
    for shard_stats, _ in shards:
        for f in fields(IngestStats):
            if f.compare and f.type == "int":
                setattr(stats, f.name, getattr(stats, f.name) + getattr(shard_stats, f.name))
    return [columns for _, columns in shards]


def _merge(shards: Sequence[_Columns], table: _TokenTable, stats: IngestStats) -> tuple[_Rows, list[str]]:
    """Every shard's kept rows, and the vocabulary.

    Provisional word ids become ranks in the sorted vocabulary, which
    holds only the words with a kept row, so key order is the store's
    row order, (word id, year, pos id).  The keys are re-ranked chunk by
    chunk before they are merged, so the re-ranking holds no row-length
    temporary.
    """
    # Re-ingested (token, year) rows are summed but worth a warning count.
    raw_key = _merged(shards, 0)
    raw_key.sort()
    stats.duplicate_rows = int(np.count_nonzero(raw_key[1:] == raw_key[:-1]))
    del raw_key
    if stats.duplicate_rows:
        log.warning("%d duplicate (token, year) rows merged by addition", stats.duplicate_rows)
    stride = table.span * POS_COUNT
    keys = [chunk for columns in shards for chunk in columns[1]]
    used = np.zeros(len(table.word_ids), dtype=bool)
    for chunk in keys:
        used[chunk // stride] = True
    vocabulary = sorted(w for w, u in zip(table.word_ids, used.tolist()) if u)
    shift = -np.arange(len(used), dtype=np.int64)
    shift[[table.word_ids[w] for w in vocabulary]] += np.arange(len(vocabulary))
    shift *= stride
    for chunk in keys:
        chunk += shift[chunk // stride]
    del keys
    return tuple(_merged(shards, column) for column in (1, 2, 3)), vocabulary


def _compacted(column: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``column[keep]`` written over the first rows of ``column``; returns a view of them."""
    kept = column[keep]
    column[: len(kept)] = kept
    return column[: len(kept)]


def _pos_rule(rows: _Rows, n_words: int, span: int, stats: IngestStats) -> _Rows:
    """Drop the POS variants at or below 1% of their word's corpus-wide count.

    Each (word, pos) pair's count is summed into one of ``n_words *
    POS_COUNT`` slots, without a sort, and each word's dominant variant
    is one argmax over its slots.  So beside the rows the rule holds one
    row-length column (each row's pair), 12 int64 slots and a 12-byte
    presence mask per word, and arrays of a few slots per word.  The
    kept rows are compacted in place, one column at a time.
    """
    key, match, _ = rows
    pair = np.floor_divide(key, span * POS_COUNT)
    pair *= POS_COUNT
    pos = np.empty(len(key), dtype=np.uint8)
    np.remainder(key, POS_COUNT, out=pos, casting="unsafe")
    pair += pos
    del pos
    # Every word has a row, so each has a dominant variant.
    totals, lookup, dominant = pos_totals(pair, match, n_words)
    dominant += np.arange(0, n_words * POS_COUNT, POS_COUNT)
    pair_ids = np.flatnonzero(lookup)
    pair_totals, pair_words = totals[pair_ids], pair_ids // POS_COUNT
    word_totals = index_sum(pair_words, pair_totals, n_words)
    # Drop pair <= word / 100, in a form that cannot wrap.
    lookup[pair_ids[pair_totals <= word_totals[pair_words] // 100]] = False
    # Always retain each word's dominant variant.
    lookup[dominant] = True
    stats.dropped_pos_variants = len(pair_ids) - int(np.count_nonzero(lookup))
    keep = lookup[pair]
    del pair
    if not keep.all():
        rows = tuple(_compacted(column, keep) for column in rows)
    return rows


def build_store(
    shard_paths: Sequence[str | Path],
    config: RunConfig,
    volume_sidecar: str | Path | None = None,
    threads: int = 1,
) -> tuple[CorpusStore, IngestStats]:
    """Parse, clean and aggregate shards into a queryable corpus store.

    Shards are parsed independently (``threads`` workers) through one
    shared token table, and rows are merged by their key and summed, so
    any order or partition of the input yields an identical store.  The
    shard parses overlap in most runs but not in every one: on a 2-core
    VM, two threads used a median of 1.36 CPU seconds per wall second
    (0.99 at the lowest, over 22 runs) and beat one thread in 20 of 22
    alternating pairs.  The stages after the parse run on one thread.
    Each stage's freed heap pages go back to the OS before the next starts.
    """
    paths = [Path(p) for p in shard_paths]
    if not paths:
        raise ValueError("no shard paths given")
    span = config.year_end - config.year_start + 1
    # Read first, so that a bad sidecar fails before any shard is parsed.
    volume_totals = np.zeros(span, dtype=np.int64)
    if volume_sidecar is not None:
        for y, total in read_volume_sidecar(volume_sidecar).items():
            if config.year_start <= y <= config.year_end:
                volume_totals[y - config.year_start] = total
    stats = IngestStats()
    clock = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal clock
        _release_freed_memory()  # so the next stage's arrays do not land in this one's holes
        now = time.perf_counter()
        stats.record(stage, now - clock)
        clock = now

    table = _TokenTable(config)
    shards = _parse(paths, table, threads, stats)
    lap("parse")
    rows, vocabulary = _merge(shards, table, stats)
    del shards
    lap("merge")
    for count, counts in zip(("match", "volume"), rows[1:]):  # so that every sum from here on is exact
        check_count_total(count, counts)
    # Sums rows with equal keys (after shard overlap, case folding or
    # apostrophe normalization) in place, which also sorts them.
    rows = group_sum(*rows)
    lap("collapse")
    rows = _pos_rule(rows, len(vocabulary), span, stats)
    lap("pos_rule")
    store = CorpusStore.from_rows(config.language, config.year_start, config.year_end, vocabulary, *rows, volume_totals)
    del rows
    stats.empty_years = {year for year, total in zip(store.years, store.lexical_totals.tolist()) if total == 0}
    lap("layout")
    log.info("ingested %d lines from %d shard(s): %d rows, %d words, %d malformed",
             stats.lines, len(paths), len(store.pos_id), len(vocabulary), stats.malformed)
    return store, stats
