"""Turnover, coverage, overlap, correlation and POS structure of cores.

Every function here is pure: identical inputs give bit-identical
outputs regardless of thread count, so callers may evaluate them
concurrently without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateVariance,
    EmptyGroup,
    EmptyYearError,
    MixedCoreMethods,
    TargetUnreachable,
)
from .postags import PosTag
from .store import CorpusStore, index_sum
from .windows import Core, WindowTable

__all__ = [
    "MetricSeries",
    "OverlapReport",
    "TransitionPartition",
    "dropout_share",
    "turnover_series",
    "coverage_series",
    "group_frequency_series",
    "partition_core_transition",
    "overlap_report",
    "pearson_correlation",
    "pos_composition",
    "pos_dropout",
    "core_size_for_coverage",
]


@dataclass(frozen=True)
class MetricSeries:
    """A named sequence of (year, value) points with increasing years."""

    name: str
    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        xs = [x for x, _ in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError(f"series {self.name!r}: x values must strictly increase")
        if any(not math.isfinite(y) for _, y in self.points):
            raise ValueError(f"series {self.name!r}: non-finite value")

    @property
    def ys(self) -> tuple[float, ...]:
        return tuple(y for _, y in self.points)


@dataclass(frozen=True)
class OverlapReport:
    """Set comparison of two cores; percentages use the larger size."""

    size_a: int
    size_b: int
    shared: int
    only_a: tuple[str, ...]
    only_b: tuple[str, ...]
    overlap_pct: float
    jaccard: float


@dataclass(frozen=True)
class TransitionPartition:
    """Words kept, lost and gained between an old and a new core."""

    both: frozenset[str]
    only_old: frozenset[str]
    only_new: frozenset[str]


def dropout_share(old: Core, new: Core) -> float:
    """Fraction of the old core's words absent from the new core."""
    if len(old) == 0 or len(new) == 0:
        raise ValueError("cores must be non-empty")
    return len(old.word_set - new.word_set) / len(old)


def turnover_series(cores: Sequence[Core]) -> MetricSeries:
    """Dropout between each consecutive core pair.

    Cores must share method and size parameter and be chronological;
    point i is labeled with the end year of the earlier window.
    """
    if len(cores) < 2:
        raise ValueError("need at least two cores")
    method, param = cores[0].method, cores[0].param
    for core in cores[1:]:
        if core.method != method or core.param != param:
            raise MixedCoreMethods(
                f"{core.method}({core.param}) does not match {method}({param})"
            )
    starts = [c.source.start_year for c in cores]
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise ValueError("cores must be in chronological order")
    points = tuple(
        (old.source.end_year, dropout_share(old, new))
        for old, new in zip(cores, cores[1:])
    )
    return MetricSeries(name=f"turnover_{method}_{param:g}", points=points)


def _frequency_sum_series(
    store: CorpusStore, words: Iterable[str], years: Iterable[int], name: str
) -> MetricSeries:
    """Summed relative frequency of a word set for each requested year."""
    year_list = sorted(set(int(y) for y in years))
    if not year_list:
        raise ValueError("no years requested")
    for y in year_list:
        if y not in store.years:
            raise ValueError(f"year {y} outside store range {store.year_start}..{store.year_end}")
        if store.lexical_totals[y - store.year_start] == 0:
            raise EmptyYearError(f"year {y} has no lexical tokens")

    index = store.word_index
    ids = np.array([index[w] for w in set(words) if w in index], dtype=np.int64)
    # Row index of the whole word set: each word's rows are one slice.
    starts = store.word_offsets[ids]
    lengths = store.word_offsets[ids + 1] - starts
    rows = np.arange(int(lengths.sum())) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    sums = index_sum(store.year_offset[rows], store.match_count[rows], len(store.lexical_totals))
    points = tuple(
        (y, int(sums[y - store.year_start]) / int(store.lexical_totals[y - store.year_start]))
        for y in year_list
    )
    return MetricSeries(name=name, points=points)


def coverage_series(
    core: Core | Iterable[str], store: CorpusStore, years: Iterable[int], name: str | None = None
) -> MetricSeries:
    """Share of running text covered by a core's words, per year.

    Accepts a :class:`Core` or any word collection; words absent from
    the store dictionary contribute 0.
    """
    if isinstance(core, Core):
        words: Iterable[str] = core.words
        default = f"coverage_{core.method}_{core.param:g}_{core.source.label}"
    else:
        words = core
        default = "coverage"
    return _frequency_sum_series(store, words, years, name or default)


def group_frequency_series(
    words: Iterable[str], store: CorpusStore, years: Iterable[int], name: str = "group"
) -> MetricSeries:
    """Total relative frequency of an arbitrary word list, per year.

    Raises :class:`EmptyGroup` when no list word exists in the store
    dictionary.
    """
    word_list = list(words)
    if not any(w in store.word_index for w in word_list):
        raise EmptyGroup("no group word found in the store dictionary")
    return _frequency_sum_series(store, word_list, years, name)


def partition_core_transition(old: Core, new: Core) -> TransitionPartition:
    """Split two cores into kept, lost and gained word sets."""
    a, b = old.word_set, new.word_set
    return TransitionPartition(both=a & b, only_old=a - b, only_new=b - a)


def overlap_report(a: Core, b: Core) -> OverlapReport:
    """Set overlap of two cores; ``overlap_pct`` = shared / max size."""
    sa, sb = a.word_set, b.word_set
    shared = len(sa & sb)
    union = len(sa | sb)
    denom = max(len(sa), len(sb))
    return OverlapReport(
        size_a=len(sa),
        size_b=len(sb),
        shared=shared,
        only_a=tuple(sorted(sa - sb)),
        only_b=tuple(sorted(sb - sa)),
        overlap_pct=shared / denom if denom else 0.0,
        jaccard=shared / union if union else 0.0,
    )


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson coefficient, one pass over the data.

    Uses running-mean co-moment updates, which keep the accumulation
    numerically stable without a second pass.  Raises
    :class:`DegenerateVariance` when either argument has zero variance.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    mean_x = mean_y = 0.0
    m2x = m2y = cxy = 0.0
    for i, (x, y) in enumerate(zip(xs, ys), start=1):
        dx = x - mean_x
        dy = y - mean_y
        mean_x += dx / i
        mean_y += dy / i
        m2x += dx * (x - mean_x)
        m2y += dy * (y - mean_y)
        cxy += dx * (y - mean_y)
    if m2x <= 0.0 or m2y <= 0.0:
        raise DegenerateVariance("zero variance in correlation input")
    r = cxy / math.sqrt(m2x * m2y)
    return max(-1.0, min(1.0, r))


def pos_composition(core: Core) -> dict[PosTag, float]:
    """Share of each POS tag among the core's words (sums to 1)."""
    if len(core) == 0:
        return {}
    counts: dict[PosTag, int] = {}
    for tag in core.pos:
        counts[tag] = counts.get(tag, 0) + 1
    n = len(core)
    return {tag: counts[tag] / n for tag in sorted(counts)}


def pos_dropout(old: Core, new: Core) -> dict[PosTag, float]:
    """Per-tag dropout: the share of each tag's old-core words lost.

    Tags absent from the old core are omitted.
    """
    new_words = new.word_set
    totals: dict[PosTag, int] = {}
    lost: dict[PosTag, int] = {}
    for word, tag in zip(old.words, old.pos):
        totals[tag] = totals.get(tag, 0) + 1
        if word not in new_words:
            lost[tag] = lost.get(tag, 0) + 1
    return {tag: lost.get(tag, 0) / totals[tag] for tag in sorted(totals)}


def core_size_for_coverage(table: WindowTable, target: float) -> int:
    """Smallest K whose top-K rank prefix reaches the coverage target.

    Raises :class:`TargetUnreachable` when the table's total frequency
    mass falls short of the target.
    """
    if not 0 < target < 1:
        raise ValueError("target must be in (0, 1)")
    ranked = table.rel_freq[table.rank_order]
    cumulative = np.cumsum(ranked)
    if len(cumulative) == 0 or cumulative[-1] < target:
        total = float(cumulative[-1]) if len(cumulative) else 0.0
        raise TargetUnreachable(f"target {target} exceeds total mass {total}")
    return int(np.searchsorted(cumulative, target, side="left")) + 1
