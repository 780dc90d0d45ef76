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

import gzip
import logging
import zlib
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .alphabets import APOSTROPHE, APOSTROPHE_VARIANTS, AlphabetSpec
from .config import RunConfig
from .errors import LexcoreError, MalformedLine, WildcardToken
from .postags import POS_COUNT, SUFFIX_TAGS, PosTag
from .store import CorpusStore, group_sum, read_volume_sidecar

log = logging.getLogger(__name__)

__all__ = [
    "RawRecord",
    "CleanRecord",
    "IngestStats",
    "parse_ngram_line",
    "split_pos",
    "is_lexical",
    "normalize_apostrophes",
    "pos_variant_filter",
    "yearly_totals",
    "build_store",
]


@dataclass(frozen=True)
class RawRecord:
    """One parsed shard line, before any cleaning."""

    token: str
    year: int
    match_count: int
    volume_count: int


@dataclass(frozen=True)
class CleanRecord:
    """A record that passed the lexical and POS-variant filters."""

    word: str
    pos: PosTag
    year: int
    match_count: int
    volume_count: int


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


def parse_ngram_line(line: str) -> RawRecord:
    """Parse one physical shard line into a :class:`RawRecord`.

    Raises :class:`MalformedLine` on wrong arity, a non-integer numeric
    field, an empty token, or a record claiming occurrences in zero books.
    """
    parts = line.rstrip("\r\n").split("\t")
    if len(parts) != 4:
        raise MalformedLine(f"expected 4 tab-separated fields, got {len(parts)}")
    token, year_s, match_s, vol_s = parts
    if not token:
        raise MalformedLine("empty token field")
    if not (year_s.isdigit() and match_s.isdigit() and vol_s.isdigit()):
        raise MalformedLine(f"non-integer numeric field in {parts[1:]!r}")
    match = int(match_s)
    volumes = int(vol_s)
    if match >= 1 and volumes < 1:
        raise MalformedLine("match_count >= 1 requires volume_count >= 1")
    return RawRecord(token=token, year=int(year_s), match_count=match, volume_count=volumes)


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


def normalize_apostrophes(word: str) -> str:
    """Map typographic apostrophes (U+2019) to the ASCII form."""
    if "’" in word:
        return word.replace("’", APOSTROPHE)
    return word


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


def pos_variant_filter(variants: Mapping[PosTag, int]) -> set[PosTag]:
    """Return the POS tags of one word that survive the 1% rule.

    A tag is dropped iff its corpus-wide count does not exceed 1% of the
    word's total across all tags.  The largest tag is always retained, so
    the result is never empty.
    """
    if not variants:
        raise ValueError("variants must be non-empty")
    total = sum(variants.values())
    # 100*c > total avoids float boundary artifacts at exactly 1%.
    retained = {tag for tag, count in variants.items() if 100 * count > total}
    if not retained:
        retained = {max(variants, key=lambda t: (variants[t], -t))}
    return retained


def yearly_totals(
    records: Iterable[CleanRecord], years: Iterable[int] | None = None
) -> tuple[dict[int, int], set[int]]:
    """Sum lexical match counts per year.

    Returns ``(totals, empty_years)`` where ``empty_years`` holds every
    year of the configured range (when given) that has no lexical tokens.
    Duplicate records for the same word/pos/year sum, like shard merging.
    """
    totals: dict[int, int] = {}
    for rec in records:
        totals[rec.year] = totals.get(rec.year, 0) + rec.match_count
    if years is not None:
        empty = {y for y in years if totals.get(y, 0) == 0}
    else:
        empty = {y for y, t in totals.items() if t == 0}
    return totals, empty


def _open_text(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "rt", encoding="utf-8")


@dataclass
class _ShardPartial:
    tokens: dict[str, int]
    tids: array
    years: array
    matches: array
    volumes: array
    stats: IngestStats


def _parse_shard(path: Path, year_start: int, year_end: int) -> _ShardPartial:
    """Aggregate one shard into raw (token, year, match, volume) rows.

    Mirrors :func:`parse_ngram_line` semantics but avoids per-line object
    construction; shards routinely run to millions of lines.
    """
    tokens: dict[str, int] = {}
    tids = array("i")
    years = array("i")
    matches = array("q")
    volumes = array("q")
    stats = IngestStats()
    get = tokens.get
    try:
        with _open_text(path) as fh:
            for line in fh:
                stats.lines += 1
                parts = line.rstrip("\r\n").split("\t")
                if len(parts) != 4:
                    stats.malformed += 1
                    continue
                token, year_s, match_s, vol_s = parts
                if not token or not (year_s.isdigit() and match_s.isdigit() and vol_s.isdigit()):
                    stats.malformed += 1
                    continue
                year = int(year_s)
                if year < year_start or year > year_end:
                    stats.out_of_range += 1
                    continue
                match = int(match_s)
                vol = int(vol_s)
                if match >= 1 and vol < 1:
                    stats.invalid_counts += 1
                    continue
                tid = get(token)
                if tid is None:
                    tokens[token] = tid = len(tokens)
                tids.append(tid)
                years.append(year)
                matches.append(match)
                volumes.append(vol)
    except (EOFError, OverflowError, zlib.error) as exc:
        # A truncated or corrupt gzip stream, or a count beyond int64.
        raise LexcoreError(f"{path}: unreadable shard: {exc}") from None
    return _ShardPartial(tokens, tids, years, matches, volumes, stats)


def _classify_tokens(
    tokens: Sequence[str], config: RunConfig, rows_per_token: np.ndarray, stats: IngestStats
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Map each distinct token to a (word id, pos id) pair or drop it.

    Returns the sorted word dictionary plus per-token word/pos id arrays
    (word id -1 marks a dropped token).  ``rows_per_token`` attributes
    dropped rows to the wildcard/non-lexical counters precisely.
    """
    n = len(tokens)
    word_of_token: list[str | None] = [None] * n
    pos_of_token = np.zeros(n, dtype=np.uint8)
    alphabet = config.alphabet
    fold = config.fold_case
    for i, token in enumerate(tokens):
        try:
            word, pos = split_pos(token)
        except WildcardToken:
            stats.wildcard_rows += int(rows_per_token[i])
            continue
        word = normalize_apostrophes(word)
        if fold:
            word = word.lower()
        if not is_lexical(word, alphabet):
            stats.nonlexical_rows += int(rows_per_token[i])
            continue
        word_of_token[i] = word
        pos_of_token[i] = int(pos)

    vocabulary = sorted({w for w in word_of_token if w is not None})
    word_index = {w: i for i, w in enumerate(vocabulary)}
    wid_of_token = np.fromiter(
        (word_index[w] if w is not None else -1 for w in word_of_token),
        dtype=np.int64,
        count=n,
    )
    return vocabulary, wid_of_token, pos_of_token


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
        remap = np.empty(max(len(part.tokens), 1), dtype=np.int64)
        for token, local_id in part.tokens.items():
            gid = global_tokens.get(token)
            if gid is None:
                global_tokens[token] = gid = len(global_tokens)
            remap[local_id] = gid
        tid_chunks.append(remap[np.frombuffer(part.tids, dtype=np.int32)])

    span = config.year_end - config.year_start + 1
    if global_tokens:
        tid = np.concatenate(tid_chunks)
        year = np.concatenate(
            [np.frombuffer(p.years, dtype=np.int32) for p in partials]
        ).astype(np.int64)
        match = np.concatenate([np.frombuffer(p.matches, dtype=np.int64) for p in partials])
        vol = np.concatenate([np.frombuffer(p.volumes, dtype=np.int64) for p in partials])
    else:
        tid = np.zeros(0, dtype=np.int64)
        year = np.zeros(0, dtype=np.int64)
        match = np.zeros(0, dtype=np.int64)
        vol = np.zeros(0, dtype=np.int64)

    # Re-ingested (token, year) rows are summed but worth a warning count.
    raw_key = tid * span + (year - config.year_start)
    stats.duplicate_rows = int(len(raw_key) - np.unique(raw_key).size)

    token_list = list(global_tokens)
    rows_per_token = np.bincount(tid, minlength=len(token_list))
    vocabulary, wid_of_token, pos_of_token = _classify_tokens(
        token_list, config, rows_per_token, stats
    )
    if stats.duplicate_rows:
        log.warning("%d duplicate (token, year) rows merged by addition", stats.duplicate_rows)

    wid = wid_of_token[tid]
    kept = wid >= 0
    wid = wid[kept]
    pid = pos_of_token[tid[kept]].astype(np.int64)
    year = year[kept]
    match = match[kept]
    vol = vol[kept]

    # Collapse duplicates (same word, pos, year) from shard overlap,
    # case folding or apostrophe normalization.
    key = (wid * POS_COUNT + pid) * span + (year - config.year_start)
    key, match, vol = group_sum(key, match, vol)
    pair_key = key // span
    year = key % span + config.year_start
    wid = pair_key // POS_COUNT
    pid = pair_key % POS_COUNT

    # POS-variant 1% rule on corpus-wide counts per (word, pos).
    pair_ids, pair_totals = group_sum(pair_key, match)
    n_words = len(vocabulary)
    word_totals = np.zeros(n_words, dtype=np.int64)
    pair_words = pair_ids // POS_COUNT
    np.add.at(word_totals, pair_words, pair_totals)
    retain = 100 * pair_totals > word_totals[pair_words]
    # Always retain each word's largest variant (smallest pos id on ties).
    best_idx: dict[int, int] = {}
    for idx, (w, t) in enumerate(zip(pair_words.tolist(), pair_totals.tolist())):
        cur = best_idx.get(w)
        if cur is None or t > pair_totals[cur]:
            best_idx[w] = idx
    retain[list(best_idx.values())] = True
    stats.dropped_pos_variants = int(len(pair_ids) - int(retain.sum()))

    retain_lookup = np.zeros(n_words * POS_COUNT, dtype=bool)
    retain_lookup[pair_ids[retain]] = True
    row_keep = retain_lookup[pair_key]
    wid, pid, year, match, vol = (
        wid[row_keep],
        pid[row_keep],
        year[row_keep],
        match[row_keep],
        vol[row_keep],
    )

    # Final word-major layout: (word id, year, pos id).
    final_order = np.lexsort((pid, year, wid))
    wid = wid[final_order].astype(np.int32)
    pid = pid[final_order].astype(np.uint8)
    year = year[final_order].astype(np.int32)
    match = match[final_order]
    vol = vol[final_order]

    lexical_totals = np.zeros(span, dtype=np.int64)
    if len(year):
        lexical_totals = np.bincount(
            (year.astype(np.int64) - config.year_start), weights=match, minlength=span
        ).astype(np.int64)
    stats.empty_years = {
        config.year_start + i for i in range(span) if lexical_totals[i] == 0
    }

    volume_totals = np.zeros(span, dtype=np.int64)
    if volume_sidecar is not None:
        for y, total in read_volume_sidecar(volume_sidecar).items():
            if config.year_start <= y <= config.year_end:
                volume_totals[y - config.year_start] = total

    store = CorpusStore(
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
        len(store.word_id),
        len(vocabulary),
        stats.malformed,
    )
    return store, stats
