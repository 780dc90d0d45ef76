"""Year-window aggregation and vocabulary-core extraction.

A window aggregates the store over a contiguous year range; a core is
the window's top-K words by aggregate frequency, or all words whose
book share clears a threshold.  Core extraction is a pure function of
the window table, with deterministic lexicographic tie-breaking, so
identical inputs always produce bit-identical cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import EmptyWindow, SpanTooShort
from .postags import POS_COUNT, PosTag
from .store import CorpusStore, dominant_variant, group_sum, index_sum

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
    specs = []
    start = year_start
    while start <= year_end:
        specs.append(WindowSpec(start, min(start + width - 1, year_end)))
        start += width
    if len(specs) < 2:
        raise SpanTooShort(
            f"span {year_start}..{year_end} yields {len(specs)} window(s) of width {width}"
        )
    return specs


@dataclass(eq=False)
class WindowTable:
    """Per-word aggregates over one window.

    ``words`` and the parallel arrays cover every word present in the
    window; relative frequencies sum to 1 over all words.
    """

    spec: WindowSpec
    words: list[str]
    match_count: np.ndarray
    volume_count: np.ndarray
    rel_freq: np.ndarray
    volume_share: np.ndarray
    dominant_pos: np.ndarray
    lexical_total: int
    volume_total: int
    _word_array: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._word_array = np.asarray(self.words, dtype=object)

    def __len__(self) -> int:
        return len(self.words)

    @cached_property
    def rank_order(self) -> np.ndarray:
        """Indices sorted by descending count, ties by ascending word."""
        return np.lexsort((self._word_array, -self.match_count))


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
    one_group = np.zeros(hi - lo, dtype=np.intp)
    lexical_total = int(index_sum(one_group, store.lexical_totals[lo:hi], 1)[0])
    if lexical_total == 0:
        raise EmptyWindow(f"window {spec.label} has no lexical tokens")
    volume_total = int(index_sum(one_group, store.volume_totals[lo:hi], 1)[0])

    rows = np.flatnonzero((store.year_offset >= lo) & (store.year_offset < hi))
    # Rows are word-major, so the selected rows of each word are one run.
    row_word = np.repeat(np.arange(len(store.words), dtype=np.int64), np.diff(np.searchsorted(rows, store.word_offsets)))

    # Per-(word, pos) sums first, for the dominant-tag assignment.
    pair_ids, pair_match, pair_vol = group_sum(
        row_word * POS_COUNT + store.pos_id[rows], store.match_count[rows], store.volume_count[rows]
    )
    pair_wid = pair_ids // POS_COUNT
    pair_pid = pair_ids % POS_COUNT

    # Collapse to word level and take each word's dominant tag.
    word_ids, word_match, word_vol = group_sum(pair_wid, pair_match, pair_vol)
    n = len(word_ids)
    dominant = pair_pid[dominant_variant(pair_wid, pair_pid, pair_match)].astype(np.uint8)

    words = [store.words[i] for i in word_ids.tolist()]
    rel_freq = word_match / lexical_total
    volume_share = (
        word_vol / volume_total if volume_total > 0 else np.zeros(n, dtype=np.float64)
    )
    return WindowTable(
        spec=spec,
        words=words,
        match_count=word_match,
        volume_count=word_vol,
        rel_freq=rel_freq,
        volume_share=volume_share,
        dominant_pos=dominant,
        lexical_total=lexical_total,
        volume_total=volume_total,
    )


@dataclass(frozen=True, eq=False)
class Core:
    """An ordered vocabulary core extracted from one window."""

    source: WindowSpec
    method: str
    param: float
    words: tuple[str, ...]
    rel_freq: tuple[float, ...]
    volume_share: tuple[float, ...]
    pos: tuple[PosTag, ...]

    def __len__(self) -> int:
        return len(self.words)

    @cached_property
    def word_set(self) -> frozenset[str]:
        return frozenset(self.words)


def _build_core(table: WindowTable, idx: np.ndarray, method: str, param: float) -> Core:
    return Core(
        source=table.spec,
        method=method,
        param=param,
        words=tuple(table._word_array[idx].tolist()),
        rel_freq=tuple(table.rel_freq[idx].tolist()),
        volume_share=tuple(table.volume_share[idx].tolist()),
        pos=tuple(map(_POS_TAGS.__getitem__, table.dominant_pos[idx].tolist())),
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
    order = np.lexsort((table._word_array, -table.volume_share))
    share = table.volume_share[order]
    idx = order[share >= threshold]
    return _build_core(table, idx, BOOK_SHARE, float(threshold))


def write_core(core: Core, path: str | Path) -> None:
    """Export a core as ``rank<TAB>word<TAB>rel_freq<TAB>volume_share`` rows."""
    lines = [
        f"{rank}\t{word}\t{freq!r}\t{share!r}"
        for rank, (word, freq, share) in enumerate(
            zip(core.words, core.rel_freq, core.volume_share), start=1
        )
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
