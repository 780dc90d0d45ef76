"""Store building: shard parsing and cleaning, the row collapse, yearly volume totals, heap trims.

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

Memory: the parse keeps 16 bytes per lexical row, its int64 key and its
counts as uint32 (int64 in a chunk whose largest count does not fit),
and one bit per (token, year) cell for the duplicate count, span / 8
bytes per distinct token; at one thread the traced peak is about 45
bytes per input line, set in the parse (the tests hold it under 50).
Every later stage holds the three row columns at those widths, plus one
block of about 65,536 rows (or words) of temporaries and at most one
spare column: the merge keeps a count column uint32 where every chunk
of it is, and frees each chunk as it is copied; the collapse sorts the
key column itself, each key packed with its row index, so it holds no
sort order (a stable argsort's, where a key packed with its row index
does not fit in an int64), gathers into one spare column of the
gathered column's width and finds and sums groups a block at a time,
widening a uint32 column only where a sum does not fit; the POS 1% rule
runs a block of rows at a time; the layout adds the store's own columns,
decoded a block at a time.  Freed heap pages go back to the OS (glibc's
``malloc_trim``) at each stage boundary and during the merge.  So the
parse sets the process's RSS peak on both benchmark corpora at one
thread and at two; on the 1M-word scale corpus
(``scripts/scale_check.py``), where the store's own columns outweigh
the parse's per-chunk temporaries, the layout sets it.
:attr:`IngestStats.stage_peak_rss_mb` shows which stage it was.
"""

from __future__ import annotations

import gzip
import itertools
import logging
import resource
import sys
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .config import RunConfig
from .errors import ConfigInvalid, LexcoreError
from .postags import POS_COUNT, SUFFIX_TAGS, PosTag
from .store import CorpusStore, check_count_total, pos_totals, row_blocks, run_rows

log = logging.getLogger(__name__)

__all__ = ["IngestStats", "build_store", "read_volume_sidecar"]


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
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, KiB on Linux and the BSDs
        self.peak_rss_mb = maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)
        self.stage_peak_rss_mb[stage] = self.peak_rss_mb

    def to_dict(self) -> dict:
        return {**self.__dict__, "empty_years": sorted(self.empty_years)}


_CHUNK_BYTES = 1 << 20
_TRIM_ROWS = 1 << 20  # rows merged between two hand-backs of freed pages
_TOKEN_BYTES = 32  # longest token grouped by its uint64 words; a longer one gets a group of its own
_DIGITS = 19  # trailing digits of a numeric field parsed in uint64: 10**19 - 1 < 2**64
_TOO_BIG = np.iinfo(np.int64).min  # a parsed value of 2**63 or more: below any count or year range
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier that mixes the words of a token
# _LOW_BYTES[r] keeps the first r bytes of a little-endian uint64 word.
_LOW_BYTES = np.array([(1 << (8 * r)) - 1 for r in range(9)], dtype=np.uint64)


_NOT_UTF8, _WILDCARD, _NONLEXICAL = -1, -2, -3  # key bases of tokens that yield no store row
_Rows = tuple[np.ndarray, np.ndarray, np.ndarray]  # the (key, match, volume) columns of the kept rows
_Columns = tuple[list[np.ndarray], ...]  # one shard's (key, match, volume) rows, an array per chunk
_BITS = np.array([1 << k for k in range(8)], dtype=np.uint8)  # _BITS[k] sets bit k of a byte


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

    Repeated rows are counted with one bit for each (token id, year
    offset) cell, ``token id * span + year offset``: each chunk marks its
    rows' cells, under the lock, and adds its row count, so
    :meth:`duplicate_rows`, the rows marked less the bits set, does not
    depend on thread timing or shard order.  The bits cost span / 8
    bytes per distinct token, in an array of a power of two bytes.
    """

    def __init__(self, config: RunConfig) -> None:
        self.config, self.span = config, config.year_end - config.year_start + 1
        alphabet = config.alphabet
        self.allowed = alphabet.letters | {"'"}
        self.max_apostrophes = alphabet.max_apostrophes if alphabet.apostrophe_allowed else 0
        self.ids: dict[bytes, int] = {}  # token bytes -> token id
        self.bases = np.empty(1024, dtype=np.int64)  # key base by token id, grown by doubling
        self.word_ids: dict[str, int] = {}
        self.cells = np.zeros(64, dtype=np.uint8)  # a bit per (token, year) cell, a power of two bytes
        self.marked = 0  # rows marked
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

    def mark(self, cells: np.ndarray) -> None:
        """Set the bits of rows' (token, year) cells, and count the rows."""
        byte, bit = cells >> 3, _BITS[cells & 7]
        top = int(byte.max(initial=0))
        with self.lock:
            if top >= len(self.cells):
                grown = np.zeros(1 << top.bit_length(), dtype=np.uint8)
                grown[: len(self.cells)] = self.cells
                self.cells = grown
            np.bitwise_or.at(self.cells, byte, bit)
            self.marked += len(cells)

    def duplicate_rows(self) -> int:
        """Rows marked beyond the first of their (token, year) cell."""
        bits_set = sum(int(np.count_nonzero(np.unpackbits(self.cells[block]))) for block in row_blocks(len(self.cells)))
        return self.marked - bits_set

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
    nonlexical_rows.  Every row that passes the line rules has its (token,
    year) cell marked in the table, and ``columns`` gathers, one array
    per chunk, the store key ``(word id * span + year offset) *
    POS_COUNT + pos id``, match and volume of each lexical row: 16 bytes
    a row, as the counts are held as uint32 wherever a chunk's largest
    fits, else as int64.
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
    table.mark(tid[kept] * table.span + offset[kept])
    lexical = kept & (base >= 0)
    rows = (base[lexical] + offset[lexical] * POS_COUNT, _narrow(match[lexical]), _narrow(vol[lexical]))
    for column, rows_of_chunk in zip(columns, rows):
        column.append(rows_of_chunk)


def _narrow(counts: np.ndarray) -> np.ndarray:
    """Non-negative int64 counts as uint32 where the largest fits, else as they are."""
    return counts.astype(np.uint32) if counts.max(initial=0) <= np.iinfo(np.uint32).max else counts


def _parse_shard(path: Path, table: _TokenTable) -> tuple[IngestStats, _Columns]:
    """Parse one shard into its counters and keyed rows.

    The shard is read in binary chunks of whole lines, each ending at an
    LF, so no CRLF straddles two chunks.  In a chunk that holds a CR,
    CRLF and lone CR become LF, which splits lines as text mode would.
    """
    stats, columns = IngestStats(), ([], [], [])
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


@cache
def _malloc_trim():
    """The C library's ``malloc_trim``, or None where it has none (it is glibc's)."""
    import ctypes

    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None


def release_freed_memory() -> None:
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


def _merged(shards: Sequence[_Columns], column: int) -> np.ndarray:
    """One column of every shard's rows, in one array.

    The keys are int64; a count column is uint32 where every chunk of it
    is, else int64.  Each chunk is freed once it is copied, and the freed
    pages are handed back after each shard and every :data:`_TRIM_ROWS`
    rows, so a large shard's chunks and the merged column are never
    both held whole.
    """
    narrow = column and all(chunk.dtype == np.uint32 for columns in shards for chunk in columns[column])
    n_rows = sum(len(chunk) for columns in shards for chunk in columns[column])
    out = np.empty(n_rows, dtype=np.uint32 if narrow else np.int64)
    at = trimmed = 0
    for columns in shards:
        chunks = columns[column]
        for i, chunk in enumerate(chunks):
            out[at : at + len(chunk)] = chunk
            at += len(chunk)
            chunks[i] = None
            if at - trimmed >= _TRIM_ROWS:
                release_freed_memory()
                trimmed = at
        chunks.clear()
        release_freed_memory()
    return out


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
    stats.duplicate_rows = table.duplicate_rows()
    if stats.duplicate_rows:
        log.warning("%d duplicate (token, year) rows merged by addition", stats.duplicate_rows)
    stride = table.span * POS_COUNT
    keys = [chunk for columns in shards for chunk in columns[0]]
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
    return tuple(_merged(shards, column) for column in range(3)), vocabulary


def group_sum(key: np.ndarray, *values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sum parallel count columns over equal keys; returns (unique_keys, sums...).

    Works in place: ``key`` (a writable int64 column) and each of
    ``values`` (writable columns of counts of one length, uint32 or
    int64) are reordered as a stable sort on ``key`` would order them,
    then the unique keys and each column's sums overwrite their first
    rows and come back as views of them.  Where ``key << b | row`` fits
    in an int64 for every row, ``b`` the width of a row index, the key
    column itself is packed so and sorted, and each block's rows are
    masked back out of it as the other columns are gathered; otherwise a
    stable argsort gives the order.  Groups are found and summed a block
    of rows at a time, in int64; a uint32 column takes an int64 copy the
    first time a sum does not fit in it, and that copy comes back.
    Beside its arguments it holds one spare column, of the dtype of the
    column being gathered, the argsort's order where that runs, and one
    block's temporaries.  Sums are exact where each column totals below
    2**63.
    """
    columns = [key, *values]
    n = len(key)
    b = max(n - 1, 1).bit_length()
    blocks = row_blocks(n)
    packed = n > 0 and -(1 << (63 - b)) <= int(key.min()) and int(key.max()) < 1 << (63 - b)
    if packed:
        key <<= b
        for block in blocks:
            key[block] |= np.arange(block.start, block.stop)
        key.sort()  # packed rows are distinct, so any sort orders them by key, then row
        order = None
    else:
        order = np.argsort(key, kind="stable")
    for column in values if packed else columns:
        spare = np.empty(n, dtype=column.dtype)
        for block in blocks:
            rows = key[block] & ((1 << b) - 1) if packed else order[block]
            # mode="clip" gathers straight into the spare, where "raise" would buffer a copy.
            np.take(column, rows, out=spare[block], mode="clip")
        column[...] = spare
        del spare
    del order
    if packed:
        key >>= b  # the keys, sorted
    # Group g is written to row g, at or before its first row, so no row
    # is overwritten before it is read.  A group that runs on from the
    # block before adds its rows here to the sum written there.
    groups = 0
    for block in blocks:
        keys = key[block]
        first = np.empty(len(keys), dtype=bool)
        first[0] = block.start == 0 or keys[0] != key[block.start - 1]
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        if groups == block.start and first.all():
            groups = block.stop  # no key has repeated yet: each sum is its one count
            continue
        starts = np.flatnonzero(first)
        at, edges = (groups, starts) if first[0] else (groups - 1, np.append(0, starts))
        key[groups : groups + len(starts)] = keys[starts]
        for i, column in enumerate(columns[1:], 1):
            sums = np.add.reduceat(column[block].astype(np.int64, copy=False), edges)
            if not first[0]:
                sums[0] += column[at]
            if sums.max() > np.iinfo(column.dtype).max:
                column = columns[i] = column.astype(np.int64)
            column[at : at + len(sums)] = sums
        groups += len(starts)
    return tuple(column[:groups] for column in columns)


def _compacted(rows: _Rows, blocks: Sequence[slice], keep: Callable[[slice], np.ndarray]) -> _Rows:
    """The rows that ``keep(block)`` marks, moved forward in place a block at a time; views of the first rows.

    ``blocks`` cover the rows in order.  A block's kept rows are written
    at or before its first row, after its mask is taken, so no row is
    overwritten before it is read.
    """
    kept = 0
    for block in blocks:
        mask = keep(block)
        n_kept = int(np.count_nonzero(mask))
        if kept == block.start and n_kept == len(mask):
            kept = block.stop  # no row dropped yet: the rows stay where they are
            continue
        for column in rows:
            column[kept : kept + n_kept] = column[block][mask]
        kept += n_kept
    return tuple(column[:kept] for column in rows)


def _pos_rule(rows: _Rows, span: int, stats: IngestStats) -> _Rows:
    """Drop the POS variants at or below 1% of their word's corpus-wide count.

    The rows are unique and sorted by key, so each word's rows are
    contiguous, and the rule runs over blocks of whole words, each from
    the first row of the word that holds a multiple of 65,536 rows.  In a
    block, each (word, pos) pair's count is summed into one of
    ``POS_COUNT`` slots per word, without a sort, each word's dominant
    variant is one argmax over its slots, and the kept rows are moved
    forward in place.  So beside the rows the rule holds one block's
    temporaries.
    """
    key, match, _ = rows
    stride = span * POS_COUNT
    starts = [block.start for block in row_blocks(len(key))]
    edges = sorted({*np.searchsorted(key, key[starts] // stride * stride).tolist(), len(key)})

    def keep(block: slice) -> np.ndarray:
        keys = key[block]
        word = keys // stride
        slot = (word - word[0]) * POS_COUNT + keys % POS_COUNT
        n_words = int(word[-1] - word[0]) + 1
        # Every word has a row, so each has a dominant variant.
        totals, lookup, dominant = pos_totals(slot, match[block].astype(np.int64), n_words)
        pairs = int(np.count_nonzero(lookup))
        totals, kept = totals.reshape(n_words, POS_COUNT), lookup.reshape(n_words, POS_COUNT)
        # Drop pair <= word / 100, in a form that cannot wrap.
        kept &= totals > totals.sum(axis=1, keepdims=True) // 100
        # Always retain each word's dominant variant.
        kept[np.arange(n_words), dominant] = True
        stats.dropped_pos_variants += pairs - int(np.count_nonzero(lookup))
        return lookup[slot]

    return _compacted(rows, [slice(a, b) for a, b in zip(edges, edges[1:])], keep)


def read_volume_sidecar(path: str | Path) -> dict[int, int]:
    """Read per-year total volume counts from a metadata sidecar.

    Two layouts are accepted: plain ``year<TAB>total_volumes`` rows, and
    the total-counts layout of tab-separated ``year,match,page,volume``
    entries (possibly all on one line).  Totals are integers in [0, 2**63),
    and each year is given once.
    """
    out: dict[int, int] = {}
    line_of: dict[int, int] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        chunks = [c for c in line.split("\t") if c.strip()]
        if "," in line:
            pairs = []
            for chunk in chunks:
                fields = chunk.strip().split(",")
                if len(fields) != 4:
                    raise ConfigInvalid(f"{path}:{lineno}: expected year,match,page,volume entries")
                pairs.append((fields[0], fields[3]))
        elif len(chunks) == 2:
            pairs = [(chunks[0], chunks[1])]
        else:
            raise ConfigInvalid(f"{path}:{lineno}: expected 'year<TAB>total_volumes'")
        for year_s, vol_s in pairs:
            try:
                year, total = int(year_s), int(vol_s)
            except ValueError:
                raise ConfigInvalid(f"{path}:{lineno}: non-integer field {year_s!r}/{vol_s!r}") from None
            if not 0 <= total < 2**63:
                raise ConfigInvalid(f"{path}:{lineno}: volume total {vol_s!r} outside [0, 2**63)")
            if year in line_of:
                raise ConfigInvalid(f"{path}:{lineno}: year {year} already given on line {line_of[year]}")
            out[year], line_of[year] = total, lineno
    return out


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
        release_freed_memory()  # so the next stage's arrays do not land in this one's holes
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
    rows = _pos_rule(rows, span, stats)
    lap("pos_rule")
    store = CorpusStore.from_rows(config.language, config.year_start, config.year_end, vocabulary, *rows, volume_totals)
    del rows
    stats.empty_years = {year for year, total in zip(store.years, store.lexical_totals.tolist()) if total == 0}
    lap("layout")
    log.info("ingested %d lines from %d shard(s): %d rows, %d words, %d malformed",
             stats.lines, len(paths), len(store.pos_id), len(vocabulary), stats.malformed)
    return store, stats
