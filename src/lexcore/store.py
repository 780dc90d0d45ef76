"""Compact year-by-word count store with checksummed persistence.

The store is immutable after construction and safe for unrestricted
concurrent reads.  Rows are sorted by (word id, year, pos id), so all
rows of one word are a contiguous slice, ``word_offsets[i]`` to
``word_offsets[i + 1]``, and a per-word query costs O(years),
independent of vocabulary size.  Each row holds a pos id, its year as
an offset from ``year_start``, and its match and volume counts; the
year and count columns are held at the narrowest width that fits them,
and every sum widens them to int64 first.

On-disk layout, format version 2 (little-endian)::

    magic "LXST" | u32 version | u32 header_len | header JSON
    | words blob (utf-8, newline-joined)
    | for each column: zero padding to a 4096-byte boundary, the column
    | sha256 digest

The columns, in file order: ``word_offsets`` (i8, words + 1),
``pos_id`` (u1), ``year_offset`` (u1 under 256 years of span, u2 under
65,536, else u4), ``match_count`` and ``volume_count`` (the narrowest of
u1, u2, u4 and i8 that holds the column's maximum), then
``lexical_totals`` and ``volume_totals`` (i8, one per year).  The header
records each column's dtype and offset.

:func:`load_store` maps the file and returns read-only views of it, with
no copy.  The whole file except the trailing digest is checksummed;
truncation or corruption raises :class:`ChecksumMismatch`, and an unknown
magic or version, such as a version-1 file, raises
:class:`FormatVersionMismatch`.  That trailing SHA-256 digest is the
store's identity: :func:`save_store` returns it and :func:`load_store`
records it as :attr:`CorpusStore.digest` (hex).  Files are replaced, never
rewritten in place, so a mapped file never changes under its reader.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ChecksumMismatch, ConfigInvalid, CountOverflow, FormatVersionMismatch

MAGIC = b"LXST"
FORMAT_VERSION = 2
_PREAMBLE = len(MAGIC) + 8  # magic, version, header length
_DIGEST = 32
_PAGE = 4096

# Narrow widths, narrowest first; each dtype is its little-endian ``str``.
_WIDTHS = ("|u1", "<u2", "<u4", "<i8")
# Every column in file order, with the dtypes it may be stored at.
_COLUMNS = {
    "word_offsets": ("<i8",),
    "pos_id": ("|u1",),
    "year_offset": _WIDTHS[:3],
    "match_count": _WIDTHS,
    "volume_count": _WIDTHS,
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

    ``word_id`` and the absolute ``year`` of each row are derived on
    first use, for callers outside the query path.
    """

    language: str
    year_start: int
    year_end: int
    words: list[str]
    word_offsets: np.ndarray
    pos_id: np.ndarray
    year_offset: np.ndarray
    match_count: np.ndarray
    volume_count: np.ndarray
    lexical_totals: np.ndarray
    volume_totals: np.ndarray
    digest: str | None = None
    word_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.word_index = {w: i for i, w in enumerate(self.words)}

    @classmethod
    def from_rows(
        cls,
        language: str,
        year_start: int,
        year_end: int,
        words: list[str],
        word_id: np.ndarray,
        pos_id: np.ndarray,
        year: np.ndarray,
        match_count: np.ndarray,
        volume_count: np.ndarray,
        lexical_totals: np.ndarray,
        volume_totals: np.ndarray,
    ) -> CorpusStore:
        """A store of rows given in (word id, year, pos id) order, with non-negative counts."""
        offsets = np.zeros(len(words) + 1, dtype="<i8")
        np.cumsum(np.bincount(np.asarray(word_id, dtype=np.intp), minlength=len(words)), out=offsets[1:])

        def narrow(counts: np.ndarray) -> np.ndarray:
            counts = np.asarray(counts)
            return counts.astype(_narrowest(int(counts.max()) if len(counts) else 0))

        # A width that holds the span also holds every window bound, 0..span.
        span = year_end - year_start + 1
        return cls(
            language=language,
            year_start=year_start,
            year_end=year_end,
            words=words,
            word_offsets=offsets,
            pos_id=np.asarray(pos_id).astype("|u1"),
            year_offset=(np.asarray(year) - year_start).astype(_narrowest(span)),
            match_count=narrow(match_count),
            volume_count=narrow(volume_count),
            lexical_totals=np.asarray(lexical_totals, dtype="<i8"),
            volume_totals=np.asarray(volume_totals, dtype="<i8"),
        )

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


def _column_lengths(header: dict) -> dict[str, int]:
    n_rows, span = header["n_rows"], header["year_end"] - header["year_start"] + 1
    lengths = dict.fromkeys(_COLUMNS, n_rows)
    lengths.update(word_offsets=header["n_words"] + 1, lexical_totals=span, volume_totals=span)
    return lengths


def _layout(start: int, dtypes: dict[str, str], lengths: dict[str, int]) -> tuple[dict, int]:
    """Each column's dtype and page-aligned offset after byte ``start``, and the end of the last."""
    layout, pos = {}, start
    for name, allowed in _COLUMNS.items():
        if dtypes[name] not in allowed:
            raise FormatVersionMismatch(f"column {name}: dtype {dtypes[name]!r} is not one of {allowed}")
        pos = -(-pos // _PAGE) * _PAGE
        layout[name] = {"dtype": dtypes[name], "offset": pos}
        pos += np.dtype(dtypes[name]).itemsize * lengths[name]
    return layout, pos


def save_store(store: CorpusStore, path: str | Path) -> str:
    """Write the store atomically with a whole-file checksum; returns its digest.

    The file is written beside ``path`` and then renamed over it, so a
    reader that has the old file mapped keeps seeing the old bytes.
    """
    path = Path(path)
    words_blob = "\n".join(store.words).encode("utf-8")
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
        "columns": {},
    }
    dtypes = {name: column.dtype.str for name, column in columns.items()}
    # The offsets depend on the header's length, which depends on the
    # offsets; both only grow, so this settles within a few rounds.
    while True:
        header_blob = json.dumps(header, sort_keys=True).encode("utf-8")
        layout, _ = _layout(_PREAMBLE + len(header_blob) + len(words_blob), dtypes, _column_lengths(header))
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
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        for part in parts:
            data = memoryview(part).cast("B")
            sha.update(data)
            fh.write(data)
        digest = sha.digest()
        fh.write(digest)
    os.replace(tmp, path)
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
        words_blob = mapped[pos : pos + header["words_bytes"]]
        lengths = _column_lengths(header)
        recorded = header["columns"]
        layout, stop = _layout(pos + len(words_blob), {name: recorded[name]["dtype"] for name in _COLUMNS}, lengths)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatVersionMismatch(f"{path}: header does not describe a version-{FORMAT_VERSION} store ({exc!r})") from None
    words = str(words_blob, "utf-8").split("\n") if words_blob else []
    if len(words) != header["n_words"]:
        raise ChecksumMismatch(f"{path}: dictionary size mismatch")
    if layout != recorded or stop != end:
        raise ChecksumMismatch(f"{path}: column layout does not match the header")
    columns = {
        name: np.frombuffer(mapped, dtype=spec["dtype"], count=lengths[name], offset=spec["offset"])
        for name, spec in layout.items()
    }
    return CorpusStore(
        language=header["language"],
        year_start=header["year_start"],
        year_end=header["year_end"],
        words=words,
        digest=digest.hex(),
        **columns,
    )


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
            raise CountOverflow("a sum of counts reaches 2**63, beyond the int64 counts a store holds")
    return sums


def group_sum(key: np.ndarray, *values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sum parallel count arrays over equal keys; returns (unique_keys, int64 sums...).

    Sums are exact: one that reaches 2**63 raises :class:`CountOverflow`.
    """
    if len(key) == 0:
        return (key,) + tuple(np.zeros(0, dtype=np.int64) for _ in values)
    order = np.argsort(key, kind="stable")
    skey = key[order]
    boundary = np.empty(len(skey), dtype=bool)
    boundary[0] = True
    np.not_equal(skey[1:], skey[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    return (skey[starts],) + tuple(_exact(lambda c: np.add.reduceat(c, starts), v[order]) for v in values)


def index_sum(index: np.ndarray, counts: np.ndarray, length: int) -> np.ndarray:
    """Sum counts per index in ``range(length)`` without sorting; exact as :func:`group_sum`."""

    def sum_groups(c: np.ndarray) -> np.ndarray:
        sums = np.zeros(length, dtype=np.int64)
        np.add.at(sums, index, c)
        return sums

    return _exact(sum_groups, counts)


def dominant_variant(word: np.ndarray, pos: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Index of each word's dominant (word, pos) pair, one per distinct word in ascending order.

    ``count`` holds int64 counts.  The largest count wins; ties go to the
    smallest pos id.
    """
    order = np.lexsort((pos, -count, word))
    sorted_word = word[order]
    first = np.ones(len(order), dtype=bool)
    np.not_equal(sorted_word[1:], sorted_word[:-1], out=first[1:])
    return order[first]


def read_volume_sidecar(path: str | Path) -> dict[int, int]:
    """Read per-year total volume counts from a metadata sidecar.

    Two layouts are accepted: plain ``year<TAB>total_volumes`` rows, and
    the total-counts layout of tab-separated ``year,match,page,volume``
    entries (possibly all on one line).
    """
    out: dict[int, int] = {}
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
                out[int(year_s)] = int(vol_s)
            except ValueError:
                raise ConfigInvalid(f"{path}:{lineno}: non-integer field {year_s!r}/{vol_s!r}") from None
    return out
