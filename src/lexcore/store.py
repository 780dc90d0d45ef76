"""Compact year-by-word count store with checksummed persistence.

The store is immutable after construction and safe for unrestricted
concurrent reads.  Its words are strictly ascending, so word id order
is word order.  Rows are sorted by (word id, year, pos id), so all
rows of one word are a contiguous slice, ``word_offsets[i]`` to
``word_offsets[i + 1]``, and a per-word query costs O(years),
independent of vocabulary size.  Each row holds a pos id, its year as
an offset from ``year_start`` (at the narrowest width that fits the
span), and its match and volume counts.

Counts are Zipf-shaped, so a count column is held narrow and its rare
large values apart (patched frame of reference).  The width rule: a
column whose largest count is at most 255 is u1 and has no exceptions;
any other is u2, and there the slot value 65,535 is a sentinel.  A row
whose slot holds the sentinel takes its count from the column's
exception list, which holds those counts (each at least 65,535) in row
order, at the narrowest width that holds the largest.  The exception
rows are not stored: they are the sentinel slots, found when the store
is checked and kept (8 bytes an exception).  :meth:`CorpusStore.counts`
is the one reader of counts: it gathers slots, widens them to int64 and
patches the exceptions among them, and every sum starts from it.

On-disk layout, format version 3 (little-endian)::

    magic "LXST" | u32 version | u32 header_len | header JSON
    | words blob (utf-8, newline-joined)
    | for each column: zero padding to a 4096-byte boundary, the column
    | sha256 digest

The columns, in file order: ``word_offsets`` (i8, words + 1),
``pos_id`` (u1), ``year_offset`` (u1 under 256 years of span, u2 under
65,536, else u4), ``match_slots`` (u1 or u2, one per row),
``match_exceptions`` (u2, u4 or i8), ``volume_slots`` and
``volume_exceptions`` likewise, then ``lexical_totals`` and
``volume_totals`` (i8, one per year).  The header records each column's
dtype and offset, and each exception list's length
(``n_match_exceptions``, ``n_volume_exceptions``).

:func:`load_store` maps the file and returns read-only views of it, with
no copy.  The whole file except the trailing digest is checksummed;
truncation or corruption raises :class:`ChecksumMismatch`, and an unknown
magic or version, such as a version-1 or version-2 file, or a header any
field of which disagrees with the file raises
:class:`FormatVersionMismatch`: the word list holds no NUL and only zero
padding follows it, so ``words_bytes`` is its length.  That trailing
SHA-256 digest is the store's identity: :func:`save_store` returns it
and :func:`load_store` records it as :attr:`CorpusStore.digest` (hex).

One contract holds for every store, built or loaded, and
:class:`CorpusStore` checks it when constructed: the language is a
string; words strictly ascend and none is empty; ``word_offsets`` holds
one entry more than the words, each row column ``word_offsets[-1]``
values and each year column one per year of the span; each column is at
one of its widths above; word offsets ascend from 0 to the row count;
pos ids are below ``POS_COUNT`` and year offsets below the span; totals
are non-negative; a u1 count column has no exceptions, a u2 one has as
many sentinel slots as exceptions, and every exception is at least
65,535; within each word, rows strictly ascend by (year offset, pos
id); and each year's lexical total is the sum of its rows' match
counts.  A built store that breaks it is a ValueError, and a file that
verifies but breaks it, as one edited and signed anew might, is a
:class:`FormatVersionMismatch` naming the file.
Files are replaced, never rewritten in place, so a mapped file never
changes under its reader.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import mmap
import operator
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ChecksumMismatch, ConfigInvalid, CountOverflow, FormatVersionMismatch
from .postags import POS_COUNT
from .serialize import replacing

MAGIC = b"LXST"
FORMAT_VERSION = 3
_PREAMBLE = len(MAGIC) + 8  # magic, version, header length
_DIGEST = 32
_PAGE = 4096
_BLOCK_ROWS = 1 << 16  # rows summed and order-checked at a time
_OVERFLOW = "a sum of counts reaches 2**63, beyond the int64 counts a store holds"
_SENTINEL = 0xFFFF  # a u2 count slot holding this takes its count from the exception list

# Narrow widths, narrowest first; each dtype is its little-endian ``str``.
_WIDTHS = ("|u1", "<u2", "<u4", "<i8")
_COUNTS = ("match", "volume")
# Every column in file order, with the dtypes it may be stored at.
_COLUMNS = {
    "word_offsets": ("<i8",),
    "pos_id": ("|u1",),
    "year_offset": _WIDTHS[:3],
    "match_slots": _WIDTHS[:2],
    "match_exceptions": _WIDTHS[1:],
    "volume_slots": _WIDTHS[:2],
    "volume_exceptions": _WIDTHS[1:],
    "lexical_totals": ("<i8",),
    "volume_totals": ("<i8",),
}

__all__ = [
    "CorpusStore",
    "save_store",
    "load_store",
    "read_volume_sidecar",
]


def _narrowest(bound: int) -> np.dtype:
    """The first of u1, u2, u4 and i8 that holds ``bound`` (at most 2**63 - 1)."""
    return next(np.dtype(width) for width in _WIDTHS if bound <= np.iinfo(width).max)


@dataclass(eq=False)
class CorpusStore:
    """Word-major rows in narrow columns; build one with :meth:`from_rows`.

    Construction checks the store contract (see the module docstring)
    and raises ValueError where it fails, or :class:`CountOverflow` where
    a year's lexical total reaches 2**63.  ``lexical_totals`` of None are
    summed from the rows.  ``word_id``, the absolute ``year`` and the
    exact ``match_count`` and ``volume_count`` of each row are derived on
    first use, for callers outside the query path; queries read counts
    through :meth:`counts`.
    """

    language: str
    year_start: int
    year_end: int
    words: list[str]
    word_offsets: np.ndarray
    pos_id: np.ndarray
    year_offset: np.ndarray
    match_slots: np.ndarray
    match_exceptions: np.ndarray
    volume_slots: np.ndarray
    volume_exceptions: np.ndarray
    lexical_totals: np.ndarray | None
    volume_totals: np.ndarray
    digest: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.language, str):
            raise ValueError(f"store language {self.language!r} is not a string")
        if not all(map(operator.lt, self.words, itertools.islice(self.words, 1, None))):
            raise ValueError("store words are not strictly ascending")
        if self.words[:1] == [""]:  # words ascend, so an empty one is first
            raise ValueError("a store word is empty")
        offsets, n_rows, span = self.word_offsets, len(self.pos_id), self.year_end - self.year_start + 1
        n_exceptions = (len(self.match_exceptions), len(self.volume_exceptions))
        for name, length in _column_lengths(n_rows, len(self.words), span, *n_exceptions).items():
            if (column := getattr(self, name)) is None:
                continue
            if len(column) != length:
                raise ValueError(f"column {name} holds {len(column)} values, not {length}")
            if column.dtype.newbyteorder("<").str not in _COLUMNS[name]:
                raise ValueError(f"column {name} is stored as {column.dtype.str}, not one of {_COLUMNS[name]}")
        # Every value a query indexes with or sums is bounded here, once.
        if offsets[0] != 0 or offsets[-1] != n_rows or np.any(offsets[1:] < offsets[:-1]):
            raise ValueError("word_offsets do not ascend from 0 to the row count")
        for name, bound in (("pos_id", POS_COUNT), ("year_offset", span)):  # one total a year
            if getattr(self, name).max(initial=0) >= bound:
                raise ValueError(f"column {name} holds a value of {bound} or more")
        for name in ("lexical_totals", "volume_totals"):
            if getattr(self, name) is not None and getattr(self, name).min(initial=0) < 0:
                raise ValueError(f"column {name} holds a negative count")
        # The exception rows are the sentinel slots of a u2 column, found a block at a time.
        self._exception_rows = {}
        for count in _COUNTS:
            slots, exceptions = getattr(self, f"{count}_slots"), getattr(self, f"{count}_exceptions")
            if slots.itemsize == 1 and len(exceptions):
                raise ValueError(f"column {count}_slots is u1, but {count}_exceptions holds {len(exceptions)} values")
            rows = [np.empty(0, dtype=np.int64)]
            for start in range(0, n_rows if slots.itemsize == 2 else 0, _BLOCK_ROWS):
                rows.append(np.flatnonzero(slots[start : start + _BLOCK_ROWS] == _SENTINEL) + start)
            rows = self._exception_rows[count] = np.concatenate(rows)
            if len(rows) != len(exceptions):
                raise ValueError(
                    f"column {count}_slots holds {len(rows)} sentinels, but {count}_exceptions {len(exceptions)} values"
                )
            if exceptions.min(initial=_SENTINEL) < _SENTINEL:
                raise ValueError(f"column {count}_exceptions holds a value below {_SENTINEL}")
        # A block of rows at a time, so no whole column is widened: sum each year's match counts, check row order.
        totals = np.zeros(span, dtype=np.int64)
        for start in range(0, n_rows, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            totals += index_sum(self.year_offset[block], self.counts("match", block), span)
            if totals.min() < 0:  # a sum of non-negative counts wraps negative once it reaches 2**63
                raise CountOverflow(_OVERFLOW)
            first = max(start - 1, 0)  # the row before the block, to compare across blocks
            key = self.year_offset[first : block.stop].astype(np.int64) * POS_COUNT + self.pos_id[first : block.stop]
            later = np.flatnonzero(key[1:] <= key[:-1]) + first + 1
            if np.any(offsets[np.searchsorted(offsets, later)] != later):
                raise ValueError("store rows do not ascend by (year, pos id) within a word")
        if self.lexical_totals is None:
            self.lexical_totals = totals
        elif np.any(totals != self.lexical_totals):
            raise ValueError("column lexical_totals disagrees with the rows' match counts")

    @classmethod
    def from_rows(
        cls,
        language: str,
        year_start: int,
        year_end: int,
        words: list[str],
        key: np.ndarray,
        match_count: np.ndarray,
        volume_count: np.ndarray,
        volume_totals: np.ndarray,
    ) -> CorpusStore:
        """A store of the rows that ``key`` gives, in key order, with their counts.

        A row's key is ``(word id * span + year offset) * POS_COUNT + pos
        id``, so key order is the store's row order; keys that do not
        strictly ascend are a ValueError.  The narrow columns are decoded
        from the keys at their own widths, through one int64 scratch
        column.  Each count column is split by the width rule (see the
        module docstring) with no int64 scratch column; a u1 column that
        is already u1 is kept, not copied.  A negative count is a
        ValueError, and the store checks itself (see
        :class:`CorpusStore`), so a key past the vocabulary is one too;
        it sums each year's lexical total from the rows.
        """
        key = np.asarray(key, dtype=np.int64)
        if np.any(key[1:] <= key[:-1]):
            raise ValueError("row keys do not strictly ascend")
        span = year_end - year_start + 1
        offsets = np.searchsorted(key, np.arange(len(words) + 1, dtype=np.int64) * (span * POS_COUNT))
        pos_id = np.empty(len(key), dtype="|u1")
        np.remainder(key, POS_COUNT, out=pos_id, casting="unsafe")
        # A width that holds the span also holds every window bound, 0..span.
        year_offset = np.empty(len(key), dtype=_narrowest(span))
        np.remainder(key // POS_COUNT, span, out=year_offset, casting="unsafe")

        def narrow(count: str, counts: np.ndarray) -> dict[str, np.ndarray]:
            counts = np.asarray(counts)
            if np.min(counts, initial=0) < 0:
                raise ValueError(f"column {count}_count holds a negative count")
            top = int(np.max(counts, initial=0))
            if top <= 0xFF:
                return {f"{count}_slots": counts.astype("|u1", copy=False), f"{count}_exceptions": np.empty(0, dtype="<u2")}
            rows = np.flatnonzero(counts >= _SENTINEL)
            slots = counts.astype("<u2")  # a count past u2 wraps here, and its slot is overwritten next
            slots[rows] = _SENTINEL
            return {f"{count}_slots": slots, f"{count}_exceptions": counts[rows].astype(_narrowest(top))}

        return cls(
            language=language,
            year_start=year_start,
            year_end=year_end,
            words=words,
            word_offsets=offsets.astype("<i8", copy=False),
            pos_id=pos_id,
            year_offset=year_offset,
            **narrow("match", match_count),
            **narrow("volume", volume_count),
            lexical_totals=None,
            volume_totals=np.asarray(volume_totals, dtype="<i8"),
        )

    def counts(self, count: str, rows: np.ndarray | slice) -> np.ndarray:
        """The exact int64 ``"match"`` or ``"volume"`` counts of ``rows``.

        ``rows`` are row indices in any order, or a slice with a start.
        The slots are gathered and widened, and each sentinel among them
        takes its row's exception.  Every read of a count goes through here.
        """
        slots = getattr(self, f"{count}_slots")[rows]
        counts = slots.astype(np.int64)
        exception_rows = self._exception_rows[count]
        if len(exception_rows):
            hits = np.flatnonzero(slots == _SENTINEL)
            at = hits + rows.start if isinstance(rows, slice) else rows[hits]
            counts[hits] = getattr(self, f"{count}_exceptions")[np.searchsorted(exception_rows, at)]
        return counts

    @cached_property
    def match_count(self) -> np.ndarray:
        """Exact match count of each row (int64)."""
        return self.counts("match", slice(0, len(self.pos_id)))

    @cached_property
    def volume_count(self) -> np.ndarray:
        """Exact volume count of each row (int64)."""
        return self.counts("volume", slice(0, len(self.pos_id)))

    @cached_property
    def word_id(self) -> np.ndarray:
        """Word id of each row (int32)."""
        return np.repeat(np.arange(len(self.words), dtype=np.int32), np.diff(self.word_offsets))

    @cached_property
    def year(self) -> np.ndarray:
        """Absolute year of each row (int32)."""
        return self.year_offset.astype(np.int32) + np.int32(self.year_start)

    @property
    def years(self) -> range:
        return range(self.year_start, self.year_end + 1)


def _column_lengths(n_rows: int, n_words: int, span: int, n_match_exceptions: int, n_volume_exceptions: int) -> dict[str, int]:
    """Each column's length: a word offset per word and one more, a row value per row, a total per year, and the exceptions."""
    lengths = dict.fromkeys(_COLUMNS, n_rows)
    lengths.update(word_offsets=n_words + 1, lexical_totals=span, volume_totals=span,
                   match_exceptions=n_match_exceptions, volume_exceptions=n_volume_exceptions)
    return lengths


def _layout(start: int, dtypes: dict[str, str], lengths: dict[str, int]) -> tuple[dict, int]:
    """Each column's dtype and page-aligned offset after byte ``start``, and the end of the last."""
    layout, pos = {}, start
    for name, allowed in _COLUMNS.items():
        if dtypes[name] not in allowed:
            raise ValueError(f"column {name}: dtype {dtypes[name]!r} is not one of {allowed}")
        pos = -(-pos // _PAGE) * _PAGE
        layout[name] = {"dtype": dtypes[name], "offset": pos}
        pos += np.dtype(dtypes[name]).itemsize * lengths[name]
    return layout, pos


def save_store(store: CorpusStore, path: str | Path) -> str:
    """Write the store atomically with a whole-file checksum; returns its digest.

    The file is written beside ``path`` and then renamed over it, so a
    reader that has the old file mapped keeps seeing the old bytes.
    """
    words_blob = "\n".join(store.words)
    if words_blob.count("\n") > max(len(store.words) - 1, 0):  # the blob is split at newlines on load
        raise ValueError("a store word holds a newline")
    if "\0" in words_blob:  # the load tells the blob's end from the zero padding after it
        raise ValueError("a store word holds a NUL")
    words_blob = words_blob.encode("utf-8")
    columns = {}
    for name in _COLUMNS:
        column = np.asarray(getattr(store, name))
        columns[name] = np.ascontiguousarray(column, dtype=column.dtype.newbyteorder("<"))
    header = {
        "language": store.language,
        "year_start": store.year_start,
        "year_end": store.year_end,
        "n_rows": int(len(store.pos_id)),
        "n_words": len(store.words),
        "words_bytes": len(words_blob),
        "n_match_exceptions": len(store.match_exceptions),
        "n_volume_exceptions": len(store.volume_exceptions),
        "columns": {},
    }
    dtypes = {name: column.dtype.str for name, column in columns.items()}
    lengths = {name: len(column) for name, column in columns.items()}
    # The offsets depend on the header's length, which depends on the
    # offsets; both only grow, so this settles within a few rounds.
    while True:
        header_blob = json.dumps(header, sort_keys=True).encode("utf-8")
        layout, _ = _layout(_PREAMBLE + len(header_blob) + len(words_blob), dtypes, lengths)
        if layout == header["columns"]:
            break
        header["columns"] = layout
    parts = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(header_blob)), header_blob, words_blob]
    pos = sum(len(p) for p in parts)
    for name, column in columns.items():
        parts.append(bytes(layout[name]["offset"] - pos))
        parts.append(column)
        pos = layout[name]["offset"] + column.nbytes
    # Stream each part to disk and into the checksum; no joined copy.
    sha = hashlib.sha256()
    with replacing(path) as fh:
        for part in parts:
            data = memoryview(part).cast("B")
            sha.update(data)
            fh.write(data)
        digest = sha.digest()
        fh.write(digest)
    return digest.hex()


def load_store(path: str | Path) -> CorpusStore:
    """Map a store written by :func:`save_store`, verifying its checksum.

    The columns are read-only views of the mapped file; the mapping is
    released when the last of them is.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _PREAMBLE + _DIGEST:
            raise ChecksumMismatch(f"{path}: file truncated")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    if mapped[:4] != MAGIC:
        raise FormatVersionMismatch(f"{path}: not a store file (bad magic)")
    version, header_len = struct.unpack_from("<II", mapped, 4)
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"{path}: store format version {version}, this lexcore reads version {FORMAT_VERSION}; "
            "rebuild it with `lexcore ingest`"
        )
    end = size - _DIGEST
    digest = mapped[end:]
    if hashlib.sha256(memoryview(mapped)[:end]).digest() != digest:
        raise ChecksumMismatch(f"{path}: checksum does not verify (truncated or corrupt)")
    pos = _PREAMBLE + header_len
    try:
        header = json.loads(mapped[_PREAMBLE:pos])
        sizes = ("n_rows", "n_words", "words_bytes", "n_match_exceptions", "n_volume_exceptions")
        if any(type(header[key]) is not int for key in ("year_start", "year_end", *sizes)):
            raise ValueError("a year or count of the header is not an integer")
        if min(header[key] for key in sizes) < 0:
            raise ValueError("a count of the header is negative")
        words_end = pos + header["words_bytes"]
        words_blob = mapped[pos:words_end]
        span = header["year_end"] - header["year_start"] + 1
        exceptions = header["n_match_exceptions"], header["n_volume_exceptions"]
        lengths = _column_lengths(header["n_rows"], header["n_words"], span, *exceptions)
        recorded = header["columns"]
        layout, stop = _layout(words_end, {name: recorded[name]["dtype"] for name in _COLUMNS}, lengths)
        # The word list holds no NUL, and only zero padding follows it, so
        # words_bytes is its true length.
        padding = mapped[words_end : layout["word_offsets"]["offset"]]
        if len(words_blob) != header["words_bytes"] or b"\0" in words_blob or padding.count(0) != len(padding):
            raise ValueError(f"words_bytes {header['words_bytes']} is not the length of the word list")
        words = str(words_blob, "utf-8").split("\n") if words_blob else []
        if len(words) != header["n_words"]:
            raise ValueError(f"the word list holds {len(words)} words, not n_words {header['n_words']}")
        if layout != recorded or stop != end:
            raise ValueError("the column layout does not match the header")
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing header key {exc}" if isinstance(exc, KeyError) else exc
        raise FormatVersionMismatch(f"{path}: header does not describe a version-{FORMAT_VERSION} store ({detail})") from None
    columns = {
        name: np.frombuffer(mapped, dtype=spec["dtype"], count=lengths[name], offset=spec["offset"])
        for name, spec in layout.items()
    }
    try:
        return CorpusStore(
            language=header["language"],
            year_start=header["year_start"],
            year_end=header["year_end"],
            words=words,
            digest=digest.hex(),
            **columns,
        )
    except (ValueError, CountOverflow) as exc:
        raise FormatVersionMismatch(f"{path}: {exc}") from None


def _exact(sum_groups, counts: np.ndarray) -> np.ndarray:
    """``sum_groups(counts)``, raising :class:`CountOverflow` where a sum reaches 2**63.

    ``counts`` are non-negative integers of any width; they are widened to
    int64 here, before any sum, so a narrow column cannot wrap.
    ``sum_groups`` adds int64 counts per group.  No sum can wrap when
    ``max(counts) * len(counts) < 2**63``; otherwise the groups are summed
    again over each count's 32-bit halves, which cannot wrap, to find any
    sum of 2**63 or more.
    """
    counts = counts.astype(np.int64, copy=False)
    sums = sum_groups(counts)
    if len(counts) and int(counts.max()) * len(counts) >= 2**63:
        high = sum_groups(counts >> 32) + (sum_groups(counts & 0xFFFFFFFF) >> 32)
        if np.any(high >= 2**31):
            raise CountOverflow(_OVERFLOW)
    return sums


def group_sum(key: np.ndarray, *values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sum parallel int64 count columns over equal keys; returns (unique_keys, sums...).

    Works in place, holding only its arguments, the sort order and one
    spare column: ``key`` and each of ``values`` (writable int64 columns
    of one length) are reordered by a stable sort on ``key``, then the
    unique keys and each column's sums overwrite their first rows and
    come back as views of them.  Sums are exact: one that reaches 2**63
    raises :class:`CountOverflow`.  Where a column's largest count times
    its length reaches 2**63, that check (see :func:`_exact`) holds one
    more row-length column.
    """
    columns = (key, *values)
    order = np.argsort(key, kind="stable")
    spare = np.empty(len(key), dtype=np.int64)
    for column in columns:
        # mode="clip" gathers straight into the spare, where "raise" would buffer a copy.
        column[...] = np.take(column, order, out=spare, mode="clip")
    del order, spare
    first = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    if first.all():
        # No key repeats: each sum is its one count.
        return columns
    starts = np.flatnonzero(first)
    del first
    key[: len(starts)] = key[starts]
    for column in values:
        column[: len(starts)] = _exact(lambda c: np.add.reduceat(c, starts), column)
    return tuple(column[: len(starts)] for column in columns)


def run_rows(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The row indices of runs of rows, each ``count`` rows from ``first``, run after run."""
    return np.arange(int(count.sum())) + np.repeat(first - (np.cumsum(count) - count), count)


def index_sum(index: np.ndarray, counts: np.ndarray, length: int) -> np.ndarray:
    """Sum counts per index in ``range(length)`` without sorting; exact as :func:`group_sum`."""

    def sum_groups(c: np.ndarray) -> np.ndarray:
        sums = np.zeros(length, dtype=np.int64)
        np.add.at(sums, index, c)
        return sums

    return _exact(sum_groups, counts)


def pos_totals(slot: np.ndarray, counts: np.ndarray, n_words: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum counts into ``n_words * POS_COUNT`` slots, ``word * POS_COUNT + pos id``.

    Returns the slot totals (exact as :func:`index_sum`), which slots
    occur, and each word's dominant pos id: the present slot with the
    largest total wins, ties go to the smallest pos id.  A present slot
    may total 0, so an absent one counts as -1.
    """
    totals = index_sum(slot, counts, n_words * POS_COUNT)
    present = np.zeros(n_words * POS_COUNT, dtype=bool)
    present[slot] = True
    dominant = np.where(present, totals, -1).reshape(n_words, POS_COUNT).argmax(axis=1)
    return totals, present, dominant


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
