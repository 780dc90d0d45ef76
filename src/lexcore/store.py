"""Compact year-by-word count store with checksummed persistence.

The store is immutable after construction and safe for unrestricted
concurrent reads.  Rows are kept in five parallel columns sorted by
(word id, year, pos id), so all rows of one word are a contiguous slice
and a per-word query costs O(years), independent of vocabulary size.

On-disk layout (little-endian)::

    magic "LXST" | u32 version | u32 header_len | header JSON
    | words blob (utf-8, newline-joined) | column blobs | sha256 digest

The whole file except the trailing digest is checksummed; truncation or
corruption raises :class:`ChecksumMismatch`, an unknown magic/version
raises :class:`FormatVersionMismatch`.  That trailing SHA-256 digest is
the store's identity: :func:`save_store` returns it and
:func:`load_store` records it as :attr:`CorpusStore.digest` (hex).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ChecksumMismatch, ConfigInvalid, CountOverflow, EmptyYearError, FormatVersionMismatch
from .postags import PosTag

MAGIC = b"LXST"
FORMAT_VERSION = 1

_COLUMNS = (
    ("word_id", "<i4"),
    ("pos_id", "u1"),
    ("year", "<i4"),
    ("match_count", "<i8"),
    ("volume_count", "<i8"),
)

__all__ = [
    "YearSlice",
    "CorpusStore",
    "relative_frequency",
    "save_store",
    "load_store",
    "read_volume_sidecar",
]


@dataclass(frozen=True)
class YearSlice:
    """One year's cleaned counts: (word, pos) -> (match, volumes)."""

    year: int
    entries: dict[tuple[str, PosTag], tuple[int, int]]
    lexical_total: int
    volume_total: int


@dataclass(eq=False)
class CorpusStore:
    language: str
    year_start: int
    year_end: int
    words: list[str]
    word_id: np.ndarray
    pos_id: np.ndarray
    year: np.ndarray
    match_count: np.ndarray
    volume_count: np.ndarray
    lexical_totals: np.ndarray
    volume_totals: np.ndarray
    digest: str | None = None
    word_index: dict[str, int] = field(init=False, repr=False)
    word_offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.word_index = {w: i for i, w in enumerate(self.words)}
        counts = np.bincount(self.word_id, minlength=len(self.words)) if len(self.word_id) else np.zeros(len(self.words), dtype=np.int64)
        offsets = np.zeros(len(self.words) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self.word_offsets = offsets

    @property
    def years(self) -> range:
        return range(self.year_start, self.year_end + 1)

    def empty_years(self) -> set[int]:
        span = self.year_end - self.year_start + 1
        return {self.year_start + i for i in range(span) if self.lexical_totals[i] == 0}

    def lexical_total(self, year: int) -> int:
        self._check_year(year)
        return int(self.lexical_totals[year - self.year_start])

    def volume_total(self, year: int) -> int:
        self._check_year(year)
        return int(self.volume_totals[year - self.year_start])

    def word_rows(self, word: str) -> slice | None:
        """Row slice for one word, or None when absent from the dictionary."""
        idx = self.word_index.get(word)
        if idx is None:
            return None
        return slice(int(self.word_offsets[idx]), int(self.word_offsets[idx + 1]))

    def year_slice(self, year: int) -> YearSlice:
        self._check_year(year)
        mask = self.year == year
        entries = {
            (self.words[int(w)], PosTag(int(p))): (int(m), int(v))
            for w, p, m, v in zip(
                self.word_id[mask], self.pos_id[mask], self.match_count[mask], self.volume_count[mask]
            )
        }
        return YearSlice(
            year=year,
            entries=entries,
            lexical_total=self.lexical_total(year),
            volume_total=self.volume_total(year),
        )

    def iter_clean_records(self) -> Iterator[tuple[str, PosTag, int, int, int]]:
        """Yield (word, pos, year, match, volumes) rows in store order."""
        for w, p, y, m, v in zip(self.word_id, self.pos_id, self.year, self.match_count, self.volume_count):
            yield self.words[int(w)], PosTag(int(p)), int(y), int(m), int(v)

    def _check_year(self, year: int) -> None:
        if year < self.year_start or year > self.year_end:
            raise ValueError(f"year {year} outside store range {self.year_start}..{self.year_end}")


def relative_frequency(store: CorpusStore, word: str, year: int) -> float:
    """Relative frequency of ``word`` in ``year``: count / lexical total.

    Counts sum over the word's retained POS tags; an absent word gives 0.
    Raises :class:`EmptyYearError` when the year has no lexical tokens.
    """
    store._check_year(year)
    total = int(store.lexical_totals[year - store.year_start])
    if total == 0:
        raise EmptyYearError(f"year {year} has no lexical tokens")
    rows = store.word_rows(word)
    if rows is None:
        return 0.0
    years = store.year[rows]
    count = int(store.match_count[rows][years == year].sum())
    return count / total


def save_store(store: CorpusStore, path: str | Path) -> str:
    """Write the store atomically with a whole-file checksum; returns its digest."""
    path = Path(path)
    words_blob = "\n".join(store.words).encode("utf-8")
    header = {
        "language": store.language,
        "year_start": store.year_start,
        "year_end": store.year_end,
        "n_rows": int(len(store.word_id)),
        "n_words": len(store.words),
        "words_bytes": len(words_blob),
        "columns": [name for name, _ in _COLUMNS],
    }
    header_blob = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<I", len(header_blob)), header_blob, words_blob]
    for name, dtype in _COLUMNS:
        parts.append(np.ascontiguousarray(getattr(store, name), dtype=dtype))
    parts.append(np.ascontiguousarray(store.lexical_totals, dtype="<i8"))
    parts.append(np.ascontiguousarray(store.volume_totals, dtype="<i8"))
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
    """Load a store written by :func:`save_store`, verifying its checksum."""
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 8 + 32:
        raise ChecksumMismatch(f"{path}: file truncated")
    # Hash and parse a view of the file: no copy of the payload.
    payload, digest = memoryview(blob)[:-32], blob[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise ChecksumMismatch(f"{path}: checksum does not verify (truncated or corrupt)")
    if payload[:4] != MAGIC:
        raise FormatVersionMismatch(f"{path}: not a store file (bad magic)")
    (version,) = struct.unpack_from("<I", payload, 4)
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    (header_len,) = struct.unpack_from("<I", payload, 8)
    pos = 12
    header = json.loads(str(payload[pos : pos + header_len], "utf-8"))
    pos += header_len
    words_blob = payload[pos : pos + header["words_bytes"]]
    pos += header["words_bytes"]
    words = str(words_blob, "utf-8").split("\n") if words_blob else []
    n_rows = header["n_rows"]
    if len(words) != header["n_words"]:
        raise ChecksumMismatch(f"{path}: dictionary size mismatch")

    columns = {}
    for name, dtype in _COLUMNS:
        nbytes = np.dtype(dtype).itemsize * n_rows
        columns[name] = np.frombuffer(payload, dtype=dtype, count=n_rows, offset=pos).copy()
        pos += nbytes
    span = header["year_end"] - header["year_start"] + 1
    lexical_totals = np.frombuffer(payload, dtype="<i8", count=span, offset=pos).copy()
    pos += span * 8
    volume_totals = np.frombuffer(payload, dtype="<i8", count=span, offset=pos).copy()
    pos += span * 8
    if pos != len(payload):
        raise ChecksumMismatch(f"{path}: trailing bytes after columns")

    return CorpusStore(
        language=header["language"],
        year_start=header["year_start"],
        year_end=header["year_end"],
        words=words,
        word_id=columns["word_id"],
        pos_id=columns["pos_id"],
        year=columns["year"],
        match_count=columns["match_count"],
        volume_count=columns["volume_count"],
        lexical_totals=lexical_totals,
        volume_totals=volume_totals,
        digest=digest.hex(),
    )


def _exact(sum_groups, counts: np.ndarray) -> np.ndarray:
    """``sum_groups(counts)``, raising :class:`CountOverflow` where a sum reaches 2**63.

    ``sum_groups`` adds non-negative int64 counts per group.  No sum can
    wrap when ``max(counts) * len(counts) < 2**63``; otherwise the groups
    are summed again over each count's 32-bit halves, which cannot wrap,
    to find any sum of 2**63 or more.
    """
    sums = sum_groups(counts)
    if len(counts) and int(counts.max()) * len(counts) >= 2**63:
        high = sum_groups(counts >> 32) + (sum_groups(counts & 0xFFFFFFFF) >> 32)
        if np.any(high >= 2**31):
            raise CountOverflow("a sum of counts reaches 2**63, beyond the int64 counts a store holds")
    return sums


def group_sum(key: np.ndarray, *values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sum parallel count arrays over equal keys; returns (unique_keys, sums...).

    Sums are exact: one that reaches 2**63 raises :class:`CountOverflow`.
    """
    if len(key) == 0:
        return (key,) + tuple(v[:0] for v in values)
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
