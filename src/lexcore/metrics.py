"""Turnover, coverage, overlap, correlation and POS structure of cores.

Every function here is pure: identical inputs give bit-identical
outputs regardless of thread count, so callers may evaluate them
concurrently without coordination.  Coverage and group series sum their
words' store rows a block of about 65,536 rows at a time, so besides
the series they hold one block's temporaries, however many rows the
words have.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from collections import Counter
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
from .store import CorpusStore, index_sum, run_blocks
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


def _word_ids(store: CorpusStore, words: Iterable[str]) -> np.ndarray:
    """Store ids of the distinct ``words`` the store holds, by binary search over its ascending words."""
    vocabulary = store.words
    ids = []
    for word in set(words):
        i = bisect.bisect_left(vocabulary, word)
        if i < len(vocabulary) and vocabulary[i] == word:
            ids.append(i)
    return np.array(ids, dtype=np.int64)


def _frequency_sum_series(store: CorpusStore, ids: np.ndarray, years: Iterable[int], name: str) -> MetricSeries:
    """Summed relative frequency of the words with distinct store ``ids`` for each requested year."""
    totals = store.lexical_totals.tolist()
    wanted = set()
    for y in map(int, years):  # checked as they come: a huge range fails at its first year outside the store
        if y not in store.years:
            raise ValueError(f"year {y} outside store range {store.year_start}..{store.year_end}")
        if totals[y - store.year_start] == 0:
            raise EmptyYearError(f"year {y} has no lexical tokens")
        wanted.add(y)
    if not wanted:
        raise ValueError("no years requested")

    # Each word's rows are one slice of the store, summed a block of rows at a time.
    starts = store.word_offsets[ids]
    sums = np.zeros(len(totals), dtype=np.int64)
    for _, rows in run_blocks(starts, store.word_offsets[ids + 1] - starts):
        sums += index_sum(store.year_offset[rows], store.counts("match", rows), len(totals))
    sums = sums.tolist()
    points = tuple((y, sums[y - store.year_start] / totals[y - store.year_start]) for y in sorted(wanted))
    return MetricSeries(name=name, points=points)


def coverage_series(
    core: Core | Iterable[str], store: CorpusStore, years: Iterable[int], name: str | None = None
) -> MetricSeries:
    """Share of running text covered by a core's words, per year.

    Accepts a :class:`Core` or any word collection; words absent from
    the store dictionary contribute 0.  A core of this store is summed
    by its word ids, with no string lookup.
    """
    if isinstance(core, Core):
        ids = core.word_ids if core.store is store else _word_ids(store, core.words)
        default = f"coverage_{core.method}_{core.param:g}_{core.source.label}"
    else:
        ids = _word_ids(store, core)
        default = "coverage"
    return _frequency_sum_series(store, ids, years, name or default)


def group_frequency_series(
    words: Iterable[str], store: CorpusStore, years: Iterable[int], name: str = "group"
) -> MetricSeries:
    """Total relative frequency of an arbitrary word list, per year.

    Raises :class:`EmptyGroup` when no list word exists in the store
    dictionary.
    """
    ids = _word_ids(store, words)
    if not len(ids):
        raise EmptyGroup("no group word found in the store dictionary")
    return _frequency_sum_series(store, ids, years, name)


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


def _co_moments(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """The co-moments (m2x, m2y, cxy), by running-mean updates: one pass, numerically stable."""
    mean_x = mean_y = 0.0
    m2x = m2y = cxy = 0.0
    for i, x, y in zip(itertools.count(1), xs, ys):
        dx = x - mean_x
        dy = y - mean_y
        mean_x += dx / i
        mean_y += dy / i
        m2x += dx * (x - mean_x)
        ry = y - mean_y
        m2y += dy * ry
        cxy += dx * ry
    return m2x, m2y, cxy


def _scaled(values: Sequence[float]) -> Sequence[float]:
    """``values`` times the power of two that brings their largest magnitude into [0.5, 1)."""
    peak = max(map(abs, values))
    if not 0.0 < peak < math.inf:
        return values
    exponent = math.frexp(peak)[1]
    return [math.ldexp(v, -exponent) for v in values]


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson coefficient, one pass over the data.

    When a co-moment, or the product of the two variances, leaves the
    normal float range, the pass is repeated on the data scaled by powers
    of two, which leaves r unchanged.  Scaled data's largest value lies in
    [0.5, 1) and distinct values differ by at least its ulp, so there the
    product of nonzero variances is normal.  Raises
    :class:`DegenerateVariance` when either argument has zero variance.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    normal = lambda c: sys.float_info.min <= abs(c) < math.inf
    m2x, m2y, cxy = _co_moments(xs, ys)
    if not (normal(m2x) and normal(m2y) and normal(m2x * m2y) and (cxy == 0.0 or normal(cxy))):
        m2x, m2y, cxy = _co_moments(_scaled(xs), _scaled(ys))
    if m2x <= 0.0 or m2y <= 0.0:
        raise DegenerateVariance("zero variance in correlation input")
    return max(-1.0, min(1.0, cxy / math.sqrt(m2x * m2y)))


def pos_composition(core: Core) -> dict[PosTag, float]:
    """Share of each POS tag among the core's words (sums to 1)."""
    counts = Counter(core.pos)
    return {tag: counts[tag] / len(core) for tag in sorted(counts)}


def pos_dropout(old: Core, new: Core) -> dict[PosTag, float]:
    """Per-tag dropout: the share of each tag's old-core words lost.

    Tags absent from the old core are omitted.
    """
    new_words = new.word_set
    totals = Counter(old.pos)
    lost = Counter(tag for word, tag in zip(old.words, old.pos) if word not in new_words)
    return {tag: lost[tag] / totals[tag] for tag in sorted(totals)}


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
