"""Compact year-by-word count store: its format, its contract and its checksummed save and load.

The store is immutable after construction and safe for unrestricted
concurrent reads.  Its words are strictly ascending, so word id order
is word order.  Rows are sorted by (word id, year, pos id), so all
rows of one word are a contiguous slice, ``word_offsets[i]`` to
``word_offsets[i + 1]``, and a per-word query costs O(years),
independent of vocabulary size.  Each row holds a pos id, its year as
an offset from ``year_start`` (at the narrowest width that fits the
span), and its match and volume counts.

Counts are Zipf-shaped, so a count column is held narrow and its rare
large values apart (patched frame of reference).  Each count column
holds one u2 slot a row, and the slot value 65,535 is a sentinel.  A
row whose slot holds the sentinel takes its count from the column's
exception list, which holds those counts (each at least 65,535, at i8)
in row order.  The exception rows are not stored: they are the sentinel
slots, found when the store is checked and kept (8 bytes an exception).
:meth:`CorpusStore.counts` is the one reader of counts: it gathers
slots, widens them to int64 and patches the exceptions among them, and
every sum starts from it.  Nor are the yearly lexical totals stored:
the check sums each year's match counts into ``lexical_totals``.

The rows fall into word-aligned blocks of about 65,536 rows, each from
a word's first row (:attr:`CorpusStore.blocks`).  The store's check
and its queries walk the rows a block at a time, so none of them holds
a temporary as long as a column: a query holds its outputs plus one
block's temporaries.  The helpers at the end of this module, shared by
ingest and the queries, walk blocks and runs of rows and sum counts.

On-disk layout, format version 4 (little-endian)::

    magic "LXST" | u32 version | u32 header_len | header JSON
    | words blob (utf-8, newline-joined)
    | for each column: zero padding to a 4096-byte boundary, the column
    | sha256 digest

The header records the language, ``year_start`` and ``year_end``, the
row count ``n_rows``, the blob's length ``words_bytes`` and each
exception list's length (``n_match_exceptions``,
``n_volume_exceptions``).  The layout follows from those counts and
the number of words.  The columns, in file order: ``word_offsets`` (i8,
words + 1), ``pos_id`` (u1), ``year_offset`` (u1 under 256 years of
span, u2 under 65,536, else u4), ``match_slots`` (u2, one per row),
``match_exceptions`` (i8), ``volume_slots`` and ``volume_exceptions``
likewise, then ``volume_totals`` (i8, one per year).

:func:`load_store` maps the file and returns read-only views of it, with
no copy.  The whole file except the trailing digest is checksummed;
truncation or corruption raises :class:`ChecksumMismatch`, and an unknown
magic or version, such as a file of version 1, 2 or 3, or a header that
does not describe the file raises :class:`FormatVersionMismatch`: the
word list holds no NUL and only zero padding follows it, so
``words_bytes`` is its length, and the file ends where the layout ends.
That trailing SHA-256 digest is the store's identity: :func:`save_store`
returns it and :func:`load_store` records it as :attr:`CorpusStore.digest`
(hex).

One contract holds for every store, built or loaded, and
:class:`CorpusStore` checks it when constructed: the language is a
string; words strictly ascend and none is empty; each column has the
dtype and length of the layout above; word offsets ascend from 0 to the
row count; pos ids are below ``POS_COUNT`` and year offsets below the
span; volume totals are non-negative; a count column has as many
sentinel slots as exceptions, and every exception is at least 65,535;
within each word, rows strictly ascend by (year offset, pos id); and
each count column totals below 2**63, so no int64 sum of its counts
wraps (see :func:`check_count_total`).  A built store that breaks it is
a ValueError (:class:`CountOverflow` for a total), and a file that
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
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ChecksumMismatch, CountOverflow, FormatVersionMismatch
from .postags import POS_COUNT
from .serialize import replacing

MAGIC = b"LXST"
FORMAT_VERSION = 4
_PREAMBLE = len(MAGIC) + 8  # magic, version, header length
_DIGEST = 32
_PAGE = 4096
_BLOCK_ROWS = 1 << 16  # rows a block holds, about: see block_edges
_SENTINEL = 0xFFFF  # a count slot holding this takes its count from the exception list
_COUNTS = ("match", "volume")

__all__ = [
    "CorpusStore",
    "save_store",
    "load_store",
]


def _narrowest(bound: int) -> np.dtype:
    """The first of u1, u2 and u4 that holds ``bound``; ValueError if none does."""
    for width in ("|u1", "<u2", "<u4"):
        if bound <= np.iinfo(width).max:
            return np.dtype(width)
    raise ValueError(f"no year offset width holds a span of {bound} years")


def _columns(n_rows: int, n_words: int, span: int, n_match_exceptions: int, n_volume_exceptions: int) -> dict:
    """Each stored column's (dtype, length), in file order."""
    return {
        "word_offsets": ("<i8", n_words + 1),
        "pos_id": ("|u1", n_rows),
        "year_offset": (_narrowest(span).str, n_rows),
        "match_slots": ("<u2", n_rows),
        "match_exceptions": ("<i8", n_match_exceptions),
        "volume_slots": ("<u2", n_rows),
        "volume_exceptions": ("<i8", n_volume_exceptions),
        "volume_totals": ("<i8", span),
    }


@dataclass(eq=False)
class CorpusStore:
    """Word-major rows in narrow columns; build one with :meth:`from_rows`.

    Construction checks the store contract (see the module docstring)
    and raises ValueError where it fails, or :class:`CountOverflow` where
    a count column totals 2**63 or more; it sums ``lexical_totals`` from
    the rows.  ``blocks`` holds each block's words and rows as a pair of
    slices, in row order (see :func:`block_edges`); the check and the
    queries walk the rows by them.  ``word_id``, the absolute ``year``
    and the exact ``match_count`` and ``volume_count`` of each row are
    derived on first use, for callers outside the query path; queries
    read counts through :meth:`counts`.
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
    volume_totals: np.ndarray
    digest: str | None = None
    lexical_totals: np.ndarray = field(init=False)
    blocks: tuple[tuple[slice, slice], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.language, str):
            raise ValueError(f"store language {self.language!r} is not a string")
        if not all(map(operator.lt, self.words, itertools.islice(self.words, 1, None))):
            raise ValueError("store words are not strictly ascending")
        if self.words[:1] == [""]:  # words ascend, so an empty one is first
            raise ValueError("a store word is empty")
        offsets, n_rows, span = self.word_offsets, len(self.pos_id), self.year_end - self.year_start + 1
        n_exceptions = (len(self.match_exceptions), len(self.volume_exceptions))
        for name, (dtype, length) in _columns(n_rows, len(self.words), span, *n_exceptions).items():
            column = getattr(self, name)
            if len(column) != length:
                raise ValueError(f"column {name} holds {len(column)} values, not {length}")
            if column.dtype.newbyteorder("<").str != dtype:
                raise ValueError(f"column {name} is stored as {column.dtype.str}, not {dtype}")
        # Every value a query indexes with or sums is bounded here, once.
        if offsets[0] != 0 or offsets[-1] != n_rows or np.any(offsets[1:] < offsets[:-1]):
            raise ValueError("word_offsets do not ascend from 0 to the row count")
        for name, bound in (("pos_id", POS_COUNT), ("year_offset", span)):  # one total a year
            if getattr(self, name).max(initial=0) >= bound:
                raise ValueError(f"column {name} holds a value of {bound} or more")
        if self.volume_totals.min(initial=0) < 0:
            raise ValueError("column volume_totals holds a negative count")
        # Word-aligned blocks: every pass over the rows, here and in queries, takes one block at a time.
        edges = block_edges(offsets).tolist()
        starts = offsets[edges].tolist()
        self.blocks = tuple(
            (slice(w0, w1), slice(r0, r1)) for w0, w1, r0, r1 in zip(edges, edges[1:], starts, starts[1:])
        )
        # The exception rows are the sentinel slots.
        self._exception_rows = {}
        for count in _COUNTS:
            slots, exceptions = getattr(self, f"{count}_slots"), getattr(self, f"{count}_exceptions")
            rows = [np.flatnonzero(slots[block] == _SENTINEL) + block.start for _, block in self.blocks]
            rows = self._exception_rows[count] = np.concatenate([np.empty(0, dtype=np.int64), *rows])
            if len(rows) != len(exceptions):
                raise ValueError(
                    f"column {count}_slots holds {len(rows)} sentinels, but {count}_exceptions {len(exceptions)} values"
                )
            if exceptions.min(initial=_SENTINEL) < _SENTINEL:
                raise ValueError(f"column {count}_exceptions holds a value below {_SENTINEL}")
            check_count_total(count, exceptions, slots)
        # Sum each year's match counts and check row order, so no whole column is widened.  A block
        # starts at a word start, and within it rows may descend only where a word starts.
        key_type = np.int32 if span * POS_COUNT <= np.iinfo(np.int32).max else np.int64
        totals = np.zeros(span, dtype=np.int64)
        for words, block in self.blocks:
            year_offset = self.year_offset[block]
            totals += index_sum(year_offset, self.counts("match", block), span)
            key = np.multiply(year_offset, POS_COUNT, dtype=key_type)
            key += self.pos_id[block]
            word_start = np.zeros(len(key) + 1, dtype=bool)  # a word with no rows may start at the block's end
            word_start[offsets[words] - block.start] = True
            ascends = key[1:] > key[:-1]
            ascends |= word_start[1:-1]
            if not ascends.all():
                raise ValueError("store rows do not ascend by (year, pos id) within a word")
        self.lexical_totals = totals

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
        strictly ascend are a ValueError.  The counts may be uint32 or
        int64.  The narrow columns are decoded from the keys, and each
        count column is split into slots and exceptions (see the module
        docstring), a block of rows at a time, so the temporaries are one
        block's.  A count below 0 or of 2**63 or more is a ValueError,
        and the store checks itself (see :class:`CorpusStore`), so a key
        past the vocabulary is one too; it sums each year's lexical total
        from the rows.
        """
        key = np.asarray(key, dtype=np.int64)
        span = year_end - year_start + 1
        pos_id = np.empty(len(key), dtype="|u1")
        # A width that holds the span also holds every window bound, 0..span.
        year_offset = np.empty(len(key), dtype=_narrowest(span))
        for block in row_blocks(len(key)):
            keys = key[block]
            if np.any(keys[1:] <= keys[:-1]) or (block.start and keys[0] <= key[block.start - 1]):
                raise ValueError("row keys do not strictly ascend")
            np.remainder(keys, POS_COUNT, out=pos_id[block], casting="unsafe")
            np.remainder(keys // POS_COUNT, span, out=year_offset[block], casting="unsafe")
        offsets = np.searchsorted(key, np.arange(len(words) + 1, dtype=np.int64) * (span * POS_COUNT))

        def narrow(count: str, counts: np.ndarray) -> dict[str, np.ndarray]:
            counts = np.asarray(counts)
            if np.min(counts, initial=0) < 0:
                raise ValueError(f"column {count}_count holds a negative count")
            if int(np.max(counts, initial=0)) >= 2**63:
                raise ValueError(f"column {count}_count holds a count of 2**63 or more")
            slots = np.empty(len(counts), dtype="<u2")
            exceptions = [np.empty(0, dtype="<i8")]
            for block in row_blocks(len(counts)):
                rows = np.flatnonzero(counts[block] >= _SENTINEL)
                # A count past u2 wraps here, and its slot is overwritten next.
                np.copyto(slots[block], counts[block], casting="unsafe")
                slots[block][rows] = _SENTINEL
                exceptions.append(counts[block][rows].astype("<i8"))
            return {f"{count}_slots": slots, f"{count}_exceptions": np.concatenate(exceptions)}

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
            volume_totals=np.asarray(volume_totals, dtype="<i8"),
        )

    def counts(self, count: str, rows: np.ndarray | slice, block: slice | None = None) -> np.ndarray:
        """The exact int64 ``"match"`` or ``"volume"`` counts of ``rows``.

        ``rows`` are row indices in any order, or a slice with a start and
        a stop.  The slots are gathered and widened, and each sentinel
        among them takes its row's exception; the slots are scanned for
        sentinels only where an exception row falls in the slice, or in
        ``block``, a slice of rows that holds every index.  Every read of
        a count goes through here.
        """
        slots = getattr(self, f"{count}_slots")[rows]
        counts = slots.astype(np.int64)
        exception_rows = self._exception_rows[count]
        within = rows if isinstance(rows, slice) else block
        if len(exception_rows) and (
            within is None or exception_rows.searchsorted(within.start) < exception_rows.searchsorted(within.stop)
        ):
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
    header = {
        "language": store.language,
        "year_start": store.year_start,
        "year_end": store.year_end,
        "n_rows": int(len(store.pos_id)),
        "words_bytes": len(words_blob),
        "n_match_exceptions": len(store.match_exceptions),
        "n_volume_exceptions": len(store.volume_exceptions),
    }
    header_blob = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(header_blob)), header_blob, words_blob]
    pos = sum(len(p) for p in parts)
    exceptions = header["n_match_exceptions"], header["n_volume_exceptions"]
    for name, (dtype, _) in _columns(header["n_rows"], len(store.words), len(store.years), *exceptions).items():
        column = np.ascontiguousarray(getattr(store, name), dtype=dtype)
        parts += [bytes(-pos % _PAGE), column]
        pos += -pos % _PAGE + column.nbytes
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
        language = header["language"]
        sizes = ("n_rows", "words_bytes", "n_match_exceptions", "n_volume_exceptions")
        if any(type(header[key]) is not int for key in ("year_start", "year_end", *sizes)):
            raise ValueError("a year or count of the header is not an integer")
        unknown = set(header) - {"language", "year_start", "year_end", *sizes}
        if unknown:
            raise ValueError(f"unknown header key {min(unknown)!r}")
        if min(header[key] for key in sizes) < 0:
            raise ValueError("a count of the header is negative")
        words_blob = mapped[pos : pos + header["words_bytes"]]
        pos += header["words_bytes"]
        # The word list holds no NUL, and only zero padding follows it, so
        # words_bytes is its true length.
        padding = mapped[pos : min(pos + -pos % _PAGE, end)]
        if len(words_blob) != header["words_bytes"] or b"\0" in words_blob or padding.count(0) != len(padding):
            raise ValueError(f"words_bytes {header['words_bytes']} is not the length of the word list")
        words = str(words_blob, "utf-8").split("\n") if words_blob else []
        span = header["year_end"] - header["year_start"] + 1
        exceptions = header["n_match_exceptions"], header["n_volume_exceptions"]
        layout = {}
        for name, (dtype, length) in _columns(header["n_rows"], len(words), span, *exceptions).items():
            pos += -pos % _PAGE
            layout[name] = (dtype, length, pos)
            pos += np.dtype(dtype).itemsize * length
        if pos != end:
            raise ValueError(f"the header's counts give a file of {pos + _DIGEST} bytes, not {size}")
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing header key {exc}" if isinstance(exc, KeyError) else exc
        raise FormatVersionMismatch(f"{path}: header does not describe a version-{FORMAT_VERSION} store ({detail})") from None
    columns = {
        name: np.frombuffer(mapped, dtype=dtype, count=length, offset=offset)
        for name, (dtype, length, offset) in layout.items()
    }
    try:
        return CorpusStore(
            language=language,
            year_start=header["year_start"],
            year_end=header["year_end"],
            words=words,
            digest=digest.hex(),
            **columns,
        )
    except (ValueError, CountOverflow) as exc:
        raise FormatVersionMismatch(f"{path}: {exc}") from None


def check_count_total(count: str, counts: np.ndarray, slots: np.ndarray | None = None) -> None:
    """Raise :class:`CountOverflow` unless the ``count`` counts total below 2**63: the one bound on counts.

    ``counts`` are non-negative uint32 or int64 counts or, with ``slots``, the
    exception list of those u2 slots.  The exact total is summed as a
    Python int: the slots in uint64, less 65,535 for each exception, and
    the counts over their 32-bit halves a block at a time, so no whole
    column is widened.
    """
    total = 0 if slots is None else int(np.sum(slots, dtype=np.uint64)) - _SENTINEL * len(counts)
    for block in row_blocks(len(counts)):
        block = counts[block]
        total += (int(np.sum(block >> 32)) << 32) + int(np.sum(block & 0xFFFFFFFF))
    if total >= 2**63:
        raise CountOverflow(f"the {count} counts total {total}, 2**63 or more: lexcore sums counts in int64")


def block_edges(offsets: np.ndarray) -> np.ndarray:
    """The edges of word-aligned blocks of about ``_BLOCK_ROWS`` rows, as word ids.

    ``offsets`` ascend from 0 to the row count, one more than the words,
    as ``word_offsets`` do.  Block ``i`` holds words ``edges[i]`` to
    ``edges[i + 1]``: a block starts at the first word that starts at or
    after a multiple of ``_BLOCK_ROWS`` rows, so it holds fewer than
    ``_BLOCK_ROWS`` rows beyond its last word's.  Without rows there is
    no block.
    """
    edges = np.append(np.searchsorted(offsets, np.arange(0, offsets[-1], _BLOCK_ROWS)), len(offsets) - 1)
    return edges[np.diff(edges, prepend=-1) != 0]


def row_blocks(n: int) -> list[slice]:
    """``range(n)`` in slices of ``_BLOCK_ROWS`` rows; the last may be shorter."""
    return [slice(at, min(at + _BLOCK_ROWS, n)) for at in range(0, n, _BLOCK_ROWS)]


def run_rows(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The row indices of runs of rows, each ``count`` rows from ``first``, run after run."""
    return np.arange(int(count.sum())) + np.repeat(first - (np.cumsum(count) - count), count)


def run_blocks(first: np.ndarray, count: np.ndarray, extra: int = 0) -> Iterator[tuple[slice, np.ndarray]]:
    """Runs of rows, each ``count`` rows from ``first``, in blocks of about ``_BLOCK_ROWS`` rows.

    Yields each block's slice of the runs and its runs' row indices (see
    :func:`run_rows`); a run is never split.  Each run weighs ``extra``
    rows more, for a caller that holds ``extra`` values a run.
    """
    edges = block_edges(np.concatenate(([0], np.cumsum(count + extra)))).tolist()
    for start, stop in zip(edges, edges[1:]):
        yield slice(start, stop), run_rows(first[start:stop], count[start:stop])


def index_sum(index: np.ndarray, counts: np.ndarray, length: int) -> np.ndarray:
    """Sum counts per index in ``range(length)`` into int64, without sorting: exact where they total below 2**63."""
    sums = np.zeros(length, dtype=np.int64)
    np.add.at(sums, index, counts)
    return sums


def pos_totals(slot: np.ndarray, counts: np.ndarray, n_words: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum counts into ``n_words * POS_COUNT`` slots, ``word * POS_COUNT + pos id``.

    Returns the slot totals (exact where ``counts`` total below 2**63),
    which slots occur, and each word's dominant pos id: the present slot
    with the largest total wins, ties go to the smallest pos id.  A
    present slot may total 0, so an absent one counts as -1.
    """
    totals = index_sum(slot, counts, n_words * POS_COUNT)
    present = np.zeros(n_words * POS_COUNT, dtype=bool)
    present[slot] = True
    dominant = np.where(present, totals, -1).reshape(n_words, POS_COUNT).argmax(axis=1)
    return totals, present, dominant
