"""Year-window aggregation and vocabulary-core extraction.

A window aggregates the store over a contiguous year range; a core is
the window's top-K words by aggregate frequency, or all words whose
book share clears a threshold.  Core extraction is a pure function of
the window table, with deterministic lexicographic tie-breaking, so
identical inputs always produce bit-identical cores.

A window table lives in word-id space.  Store words are ascending, so
id order is word order: a table holds the ascending ids of the words
present in the window, and for each word its sums and its window rows
as one run of store rows (first row, row count).  It is summed without
a sort, one block of store rows at a time (see ``CorpusStore.blocks``):
each block's per-word sums are written straight into the table's
columns, so aggregation holds the table plus one block's temporaries,
whatever the window or store.  Its rank orders are stable sorts of one
numeric column.  A core decodes only its own words, and keeps their
runs (16 bytes a word) and the store, not the table; each word's
dominant POS tag is computed from those runs, a block of rows at a
time, when the core's ``pos`` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import EmptyWindow, SpanTooShort
from .postags import POS_COUNT, PosTag
from .serialize import write_text_atomic
from .store import CorpusStore, pos_totals, run_blocks

# PosTag by value: tag values run 0..POS_COUNT-1.
_POS_TAGS = tuple(PosTag)

RANK_K = "rank_k"
BOOK_SHARE = "book_share"

__all__ = [
    "WindowSpec",
    "WindowTable",
    "Core",
    "RANK_K",
    "BOOK_SHARE",
    "CORE_1800_WINDOW",
    "CORE_2000_WINDOW",
    "standard_windows",
    "aggregate_window",
    "frequency_core",
    "bookshare_core",
    "write_core",
]


@dataclass(frozen=True, order=True)
class WindowSpec:
    """Inclusive year range over which counts are aggregated."""

    start_year: int
    end_year: int

    def __post_init__(self) -> None:
        if self.start_year > self.end_year:
            raise ValueError(f"window inverted: {self.start_year}..{self.end_year}")

    @property
    def label(self) -> str:
        return f"{self.start_year}-{self.end_year}"


# Anchor windows for the century cores: the "1800 core" is extracted
# from 1795-1805 and the "2000 core" from 2000-2008.
CORE_1800_WINDOW = WindowSpec(1795, 1805)
CORE_2000_WINDOW = WindowSpec(2000, 2008)


def standard_windows(year_start: int, year_end: int, width: int = 50) -> list[WindowSpec]:
    """Consecutive non-overlapping windows covering the year span.

    Windows are ``width`` years from ``year_start``; the final window is
    truncated at ``year_end`` when the span is not a multiple of the
    width.  Raises :class:`SpanTooShort` when fewer than two windows fit.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if year_start > year_end:
        raise ValueError(f"span inverted: {year_start}..{year_end}")
    specs = [WindowSpec(start, min(start + width - 1, year_end)) for start in range(year_start, year_end + 1, width)]
    if len(specs) < 2:
        raise SpanTooShort(
            f"span {year_start}..{year_end} yields {len(specs)} window(s) of width {width}"
        )
    return specs


@dataclass(eq=False)
class WindowTable:
    """Per-word aggregates over one window, in word-id space.

    ``word_ids`` are the ascending store ids of the words present in the
    window, and the parallel arrays hold each word's sums and, as one run
    of store rows, its window rows: ``row_count`` rows from ``first_row``.
    Relative frequencies sum to 1 over all words.
    """

    spec: WindowSpec
    store: CorpusStore = field(repr=False)
    word_ids: np.ndarray
    first_row: np.ndarray
    row_count: np.ndarray
    match_count: np.ndarray
    volume_count: np.ndarray
    rel_freq: np.ndarray
    volume_share: np.ndarray
    lexical_total: int
    volume_total: int

    def __len__(self) -> int:
        return len(self.word_ids)

    @cached_property
    def rank_order(self) -> np.ndarray:
        """Indices sorted by descending count, ties by ascending word (id order is word order)."""
        return np.argsort(-self.match_count, kind="stable")


def aggregate_window(store: CorpusStore, spec: WindowSpec) -> WindowTable:
    """Sum store counts over the window's years into a per-word table.

    Relative frequency divides by the window's lexical total and the
    volume share by the window's summed volume total (0 when no volume
    metadata is present).  Raises :class:`EmptyWindow` when the window
    holds no lexical tokens.
    """
    if spec.start_year < store.year_start or spec.end_year > store.year_end:
        raise ValueError(f"window {spec.label} outside store range {store.year_start}..{store.year_end}")
    lo = spec.start_year - store.year_start
    hi = spec.end_year - store.year_start + 1
    # Python-int sums, exact at any size: the sidecar's volume totals are bounded only year by year.
    lexical_total = sum(store.lexical_totals[lo:hi].tolist())
    if lexical_total == 0:
        raise EmptyWindow(f"window {spec.label} has no lexical tokens")
    volume_total = sum(store.volume_totals[lo:hi].tolist())

    width = hi - lo
    # Sized for every store word and cut to the words present at the end,
    # so each block's per-word results go straight into place.
    columns = word_ids, first_row, row_count, word_match, word_vol = [np.empty(len(store.words), dtype=np.int64) for _ in range(5)]
    n = 0
    for words, block in store.blocks:
        year_offset = store.year_offset[block]
        # An offset below lo wraps past the width: its dtype holds the span.
        rows = np.flatnonzero(np.subtract(year_offset, lo, dtype=year_offset.dtype) < width)
        rows += block.start
        # Rows are word-major and year-sorted within a word, so the window
        # rows of each word are one run, and the runs tile ``rows``.
        bounds = np.searchsorted(rows, store.word_offsets[words.start : words.stop + 1])
        run_lengths = np.diff(bounds)
        present = np.flatnonzero(run_lengths)
        starts = bounds[present]
        out = slice(n, n + len(present))
        n = out.stop
        np.add(present, words.start, out=word_ids[out])
        np.take(rows, starts, out=first_row[out])
        np.take(run_lengths, present, out=row_count[out])
        np.add.reduceat(store.counts("match", rows, block), starts, out=word_match[out])
        np.add.reduceat(store.counts("volume", rows, block), starts, out=word_vol[out])
    for column in columns:
        column.resize(n, refcheck=False)  # in place: no view of these columns is left
    volume_share = (
        word_vol / volume_total if volume_total > 0 else np.zeros(len(word_ids), dtype=np.float64)
    )
    return WindowTable(
        spec=spec,
        store=store,
        word_ids=word_ids,
        first_row=first_row,
        row_count=row_count,
        match_count=word_match,
        volume_count=word_vol,
        rel_freq=word_match / lexical_total,
        volume_share=volume_share,
        lexical_total=lexical_total,
        volume_total=volume_total,
    )


@dataclass(frozen=True, eq=False)
class Core:
    """An ordered vocabulary core extracted from one window.

    ``word_ids`` are the words' store ids.  ``runs`` holds each word's
    window rows in ``store`` as (first row, row count); ``pos``, each
    word's tag with the largest window count (ties to the smallest pos
    id), is computed from them on first read.  A core keeps the store,
    not the table it came from.
    """

    source: WindowSpec
    method: str
    param: float
    words: tuple[str, ...]
    word_ids: np.ndarray
    rel_freq: tuple[float, ...]
    volume_share: tuple[float, ...]
    store: CorpusStore = field(repr=False)
    runs: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.words)

    @cached_property
    def word_set(self) -> frozenset[str]:
        return frozenset(self.words)

    @cached_property
    def pos(self) -> tuple[PosTag, ...]:
        first, count = self.runs.T
        dominant = np.empty(len(self.words), dtype=np.int64)
        # Each word holds POS_COUNT slot totals, so they weigh in the blocks too.
        for words, rows in run_blocks(first, count, extra=POS_COUNT):
            n = words.stop - words.start
            slot = np.repeat(np.arange(0, n * POS_COUNT, POS_COUNT), count[words]) + self.store.pos_id[rows]
            dominant[words] = pos_totals(slot, self.store.counts("match", rows), n)[2]
        return tuple(map(_POS_TAGS.__getitem__, dominant.tolist()))


def _build_core(table: WindowTable, idx: np.ndarray, method: str, param: float) -> Core:
    word_ids = table.word_ids[idx]
    return Core(
        source=table.spec,
        method=method,
        param=param,
        words=tuple(map(table.store.words.__getitem__, word_ids.tolist())),
        word_ids=word_ids,
        rel_freq=tuple(table.rel_freq[idx].tolist()),
        volume_share=tuple(table.volume_share[idx].tolist()),
        store=table.store,
        runs=np.stack((table.first_row[idx], table.row_count[idx]), axis=1),
    )


def frequency_core(table: WindowTable, k: int) -> Core:
    """The K most frequent words of the window, in rank order.

    Ties at the rank boundary break lexicographically; asking for more
    words than the window holds returns the full vocabulary.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    idx = table.rank_order[: min(k, len(table))]
    return _build_core(table, idx, RANK_K, float(k))


def bookshare_core(table: WindowTable, threshold: float) -> Core:
    """All words found in at least ``threshold`` of the window's books.

    Ordered by descending book share (ties lexicographic).  Raises
    :class:`EmptyWindow` when the window has no volume metadata.
    """
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    if table.volume_total <= 0:
        raise EmptyWindow(f"window {table.spec.label} has no volume total")
    order = np.argsort(-table.volume_share, kind="stable")
    share = table.volume_share[order]
    idx = order[share >= threshold]
    return _build_core(table, idx, BOOK_SHARE, float(threshold))


def write_core(core: Core, path: str | Path) -> None:
    """Export a core as ``rank<TAB>word<TAB>rel_freq<TAB>volume_share`` rows, replacing ``path`` atomically."""
    lines = [
        f"{rank}\t{word}\t{freq!r}\t{share!r}"
        for rank, (word, freq, share) in enumerate(
            zip(core.words, core.rel_freq, core.volume_share), start=1
        )
    ]
    write_text_atomic(path, "\n".join(lines) + "\n")
