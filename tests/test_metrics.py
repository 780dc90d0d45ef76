"""Metric-level tests: turnover, coverage, overlap, correlation, POS, inversion."""

from __future__ import annotations

import math
import struct
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexcore.errors import (
    DegenerateVariance,
    EmptyGroup,
    EmptyYearError,
    MixedCoreMethods,
    TargetUnreachable,
)
from lexcore.ingest import build_store
from lexcore.metrics import (
    MetricSeries,
    _co_moments,
    core_size_for_coverage,
    coverage_series,
    dropout_share,
    group_frequency_series,
    overlap_report,
    partition_core_transition,
    pearson_correlation,
    pos_composition,
    pos_dropout,
    turnover_series,
)
from lexcore.postags import PosTag
from lexcore.synth import PRESETS, generate_corpus
from lexcore.windows import WindowSpec, aggregate_window, frequency_core

from conftest import english_config, make_core, one_row_store, relative_frequency


def make_table(words, rel_freq, counts=None):
    """The table of a one-year store holding ``words`` with ``counts``, with ``rel_freq`` put in place of its own."""
    n = len(words)
    counts = counts if counts is not None else [n - i for i in range(n)]
    table = aggregate_window(one_row_store(words, 1900, counts), WindowSpec(1900, 1900))
    return replace(table, rel_freq=np.asarray(rel_freq, dtype=np.float64))


@pytest.fixture(scope="module")
def decay_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("decay")
    result = generate_corpus(PRESETS["decay"], out)
    store, _ = build_store(result.shard_paths, english_config(1800, 1999))
    import json

    truth = json.loads(result.truth_path.read_text(encoding="utf-8"))
    return store, truth


@pytest.fixture(scope="module")
def poschurn_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("poschurn")
    result = generate_corpus(PRESETS["poschurn"], out)
    store, _ = build_store(result.shard_paths, english_config(1800, 1999))
    return store


class TestDropoutShare:
    def test_identical(self):
        core = make_core(["a", "b", "c"])
        assert dropout_share(core, core) == 0.0

    def test_disjoint(self):
        assert dropout_share(make_core(["a", "b"]), make_core(["c", "d"])) == 1.0

    def test_cross_check_with_partition(self):
        old = make_core(["a", "b", "c", "d", "e"])
        new = make_core(["c", "d", "e", "f", "g"])
        part = partition_core_transition(old, new)
        assert dropout_share(old, new) == len(part.only_old) / len(old)
        assert dropout_share(old, new) == 1 - len(old.word_set & new.word_set) / len(old)

    def test_empty_core_rejected(self):
        with pytest.raises(ValueError):
            dropout_share(make_core([]), make_core(["a"]))


class TestTurnoverSeries:
    def test_identical_cores(self):
        a = make_core(["x", "y"], window=(1800, 1849))
        b = make_core(["x", "y"], window=(1850, 1899))
        series = turnover_series([a, b])
        assert series.points == ((1849, 0.0),)

    def test_x_is_end_year_of_earlier_window(self):
        a = make_core(["x", "y"], window=(1776, 1825))
        b = make_core(["x", "z"], window=(1826, 1875))
        c = make_core(["x", "w"], window=(1876, 1925))
        series = turnover_series([a, b, c])
        assert series.points == ((1825, 0.5), (1875, 0.5))

    def test_mixed_methods_rejected(self):
        a = make_core(["x", "y"], window=(1800, 1849), param=2)
        b = make_core(["x", "y"], window=(1850, 1899), param=3)
        with pytest.raises(MixedCoreMethods):
            turnover_series([a, b])

    def test_chronology_enforced(self):
        a = make_core(["x"], window=(1850, 1899))
        b = make_core(["x"], window=(1800, 1849))
        with pytest.raises(ValueError):
            turnover_series([a, b])

    def test_planted_churn_matches_truth_exactly_at_rank_level(self, small_synth, small_store):
        """Measured dropout tracks the exact planted replacement history."""
        _, truth = small_synth
        k = 200
        specs = [WindowSpec(s, e) for s, e in truth["eras"]]
        cores = [frequency_core(aggregate_window(small_store, s), k) for s in specs]
        measured = turnover_series(cores).ys
        planted = [
            sum(1 for r in boundary["replaced_ranks"] if r <= k) / k
            for boundary in truth["boundaries"]
        ]
        # Planted churn dominates; the empirical rank boundary adds noise.
        for got, want in zip(measured, planted):
            assert got == pytest.approx(want, abs=0.04)


class TestCoverage:
    def test_full_vocabulary_covers_everything(self, hand_store):
        store, _ = hand_store
        series = coverage_series(["the", "time", "cat", "dog"], store, [1900])
        assert series.points == ((1900, 1.0),)

    def test_monotone_in_k(self, small_store):
        table = aggregate_window(small_store, WindowSpec(1800, 1849))
        years = range(1800, 2000, 25)
        small = coverage_series(frequency_core(table, 100), small_store, years)
        large = coverage_series(frequency_core(table, 400), small_store, years)
        assert all(a <= b for a, b in zip(small.ys, large.ys))

    def test_decomposition_identity(self, small_store):
        """coverage(old) == coverage(both) + coverage(only_old), pointwise."""
        old = frequency_core(aggregate_window(small_store, WindowSpec(1800, 1849)), 200)
        new = frequency_core(aggregate_window(small_store, WindowSpec(1950, 1999)), 200)
        part = partition_core_transition(old, new)
        years = small_store.years
        whole = coverage_series(old, small_store, years)
        both = coverage_series(part.both, small_store, years)
        lost = coverage_series(part.only_old, small_store, years)
        for (y, w), b, l in zip(whole.points, both.ys, lost.ys):
            assert w == pytest.approx(b + l, abs=1e-9), f"year {y}"

    def test_absent_words_contribute_zero(self, hand_store):
        store, _ = hand_store
        series = coverage_series(["the", "notaword"], store, [1900])
        assert series.ys[0] == pytest.approx(0.40, abs=1e-12)

    def test_core_of_another_store_counts_by_word(self, hand_store):
        """A core's store ids hold in its own store only; elsewhere its words are looked up."""
        store, _ = hand_store
        other = one_row_store(["ant", "cat", "the", "zzz"], 1900, [1, 2, 3, 4])
        core = frequency_core(aggregate_window(other, WindowSpec(1900, 1900)), 4)
        years = [1900, 1901, 1902]
        assert coverage_series(core, store, years).ys == coverage_series(["cat", "the"], store, years).ys
        assert coverage_series(core, other, [1900]).ys == (1.0,)

    def test_empty_year_propagates(self, hand_store):
        store, _ = hand_store
        with pytest.raises(EmptyYearError):
            coverage_series(["the"], store, range(1900, 1905))

    @pytest.mark.parametrize("years", [[1899], [1900, 1905], range(1700, 1851)], ids=["before", "after", "spanning"])
    def test_year_outside_store_rejected(self, hand_store, years):
        store, _ = hand_store
        with pytest.raises(ValueError, match=r"outside store range 1900\.\.1904"):
            coverage_series(["the"], store, years)


class TestGroupSeries:
    def test_singleton_equals_word_series(self, hand_store):
        store, _ = hand_store
        series = group_frequency_series(["cat"], store, [1900, 1901, 1902])
        for (year, y) in series.points:
            assert y == relative_frequency(store, "cat", year)

    def test_union_additivity(self, hand_store):
        store, _ = hand_store
        years = [1900, 1901]
        a = group_frequency_series(["the", "cat"], store, years)
        b = group_frequency_series(["dog", "time"], store, years)
        ab = group_frequency_series(["the", "cat", "dog", "time"], store, years)
        for ya, yb, yab in zip(a.ys, b.ys, ab.ys):
            assert yab == pytest.approx(ya + yb, abs=1e-12)

    def test_empty_group(self, hand_store):
        store, _ = hand_store
        with pytest.raises(EmptyGroup):
            group_frequency_series(["zilch", "nada"], store, [1900])

    def test_year_outside_store_rejected(self, hand_store):
        store, _ = hand_store
        with pytest.raises(ValueError, match=r"year 1905 outside store range 1900\.\.1904"):
            group_frequency_series(["cat"], store, [1901, 1905])

    def test_planted_decay_recovered(self, decay_corpus):
        """The planted group's series follows the programmed decay law."""
        store, truth = decay_corpus
        cfg = truth["config"]
        words = truth["decay_words"]
        lo, hi = cfg["decay_group"]
        ranks = np.arange(1, cfg["vocabulary"] + 1, dtype=np.float64)
        weights = 1.0 / ranks
        group_mass = weights[lo - 1 : hi].sum()
        other_mass = weights.sum() - group_mass
        span = cfg["year_end"] - cfg["year_start"]

        def planted_share(year: int) -> float:
            g = 1.0 + (cfg["decay_factor"] - 1.0) * (year - cfg["year_start"]) / span
            return g * group_mass / (other_mass + g * group_mass)

        sample_years = list(range(1800, 2000, 20)) + [1999]
        series = group_frequency_series(words, store, sample_years)
        for year, y in series.points:
            assert y == pytest.approx(planted_share(year), rel=0.03), f"year {year}"

        first = np.mean(series.ys[:1])
        last = series.ys[-1]
        expected_ratio = planted_share(1999) / planted_share(1800)
        assert last / first == pytest.approx(expected_ratio, rel=0.03)
        assert 0.47 < last / first < 0.53  # the group's frequency halves


class TestPartition:
    def test_identity(self):
        core = make_core(["a", "b"])
        part = partition_core_transition(core, core)
        assert part.only_old == part.only_new == frozenset()
        assert part.both == {"a", "b"}

    def test_disjoint(self):
        part = partition_core_transition(make_core(["a"]), make_core(["b"]))
        assert part.both == frozenset()

    def test_invariants(self):
        old = make_core(["a", "b", "c"])
        new = make_core(["b", "c", "d"])
        part = partition_core_transition(old, new)
        assert part.both | part.only_old == old.word_set
        assert part.both | part.only_new == new.word_set
        assert not (part.both & part.only_old)
        assert not (part.both & part.only_new)
        assert not (part.only_old & part.only_new)


class TestOverlapReport:
    def test_identical(self):
        core = make_core(["a", "b", "c"])
        rep = overlap_report(core, core)
        assert rep.overlap_pct == 1.0
        assert rep.only_a == rep.only_b == ()

    def test_hand_fixture(self):
        a = make_core(["w1", "w2", "w3", "w4", "w5", "w6"])
        b = make_core(["w3", "w4", "w5", "w6", "x1", "x2"])
        rep = overlap_report(a, b)
        assert rep.shared == 4
        assert rep.overlap_pct == pytest.approx(4 / 6, abs=1e-12)
        assert len(rep.only_a) + len(rep.only_b) == 4
        assert rep.jaccard == pytest.approx(4 / 8, abs=1e-12)

    def test_size_identities(self):
        a = make_core(["a", "b", "c", "d"])
        b = make_core(["c", "d", "e"])
        rep = overlap_report(a, b)
        assert rep.shared + len(rep.only_a) == rep.size_a
        assert rep.shared + len(rep.only_b) == rep.size_b


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == 1.0

    def test_perfect_anticorrelation(self):
        assert pearson_correlation([1, 2, 3], [-1, -2, -3]) == -1.0

    def test_two_pass_oracle(self):
        """One-pass result matches a two-pass fsum implementation to 1e-10."""
        rng = np.random.default_rng(7)
        xs = rng.normal(size=5000).tolist()
        ys = (0.3 * np.asarray(xs) + rng.normal(size=5000)).tolist()

        mx = math.fsum(xs) / len(xs)
        my = math.fsum(ys) / len(ys)
        num = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
        dx = math.fsum((x - mx) ** 2 for x in xs)
        dy = math.fsum((y - my) ** 2 for y in ys)
        expected = num / math.sqrt(dx * dy)

        assert pearson_correlation(xs, ys) == pytest.approx(expected, abs=1e-10)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=50),
        st.floats(0.001, 1e3),
        st.floats(-1e3, 1e3),
    )
    @settings(max_examples=60)
    @example(ys=[6.23854055968502e-156, 0.0, 0.0], scale=0.00390625, shift=0)
    def test_affine_invariance(self, ys, scale, shift):
        xs = list(range(len(ys)))
        try:
            base = pearson_correlation(xs, ys)
        except DegenerateVariance:
            return
        transformed = pearson_correlation([scale * x + shift for x in xs], ys)
        assert transformed == pytest.approx(base, abs=1e-9)

    @given(
        st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)), min_size=3, max_size=20),
        st.integers(-330, 300),
        st.integers(-330, 300),
    )
    @settings(max_examples=100)
    @example(pairs=[(0, 1), (1, 0), (2, 0)], ex=0, ey=-160)  # the y variance falls below the normal range
    @example(pairs=[(0, 1), (1, 0), (2, 0)], ex=0, ey=-170)  # ... and underflows to zero
    @example(pairs=[(0, 1), (1, 0), (2, 0)], ex=0, ey=200)  # ... or overflows
    @example(pairs=[(0, 0), (1, 2), (3, 1)], ex=-100, ey=-100)  # only the variances' product leaves it
    def test_exact_oracle_at_any_magnitude(self, pairs, ex, ey):
        """The coefficient of integers scaled by 10**ex and 10**ey matches exact rationals."""
        xs, ys = [k * 10.0**ex for k, _ in pairs], [k * 10.0**ey for _, k in pairs]
        fx, fy = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
        mx, my = sum(fx) / len(fx), sum(fy) / len(fy)
        sxy = sum((x - mx) * (y - my) for x, y in zip(fx, fy))
        sxx, syy = sum((x - mx) ** 2 for x in fx), sum((y - my) ** 2 for y in fy)
        if sxx == 0 or syy == 0:
            with pytest.raises(DegenerateVariance):
                pearson_correlation(xs, ys)
            return
        expected = math.sqrt(sxy**2 / (sxx * syy)) * (1 if sxy >= 0 else -1)
        assert pearson_correlation(xs, ys) == pytest.approx(expected, abs=1e-9)

    @given(st.lists(st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)), max_size=40))
    @settings(max_examples=200)
    @example(pairs=[(1.0, 3.0), (2.0, -1e308), (0.1, 1e308)])
    def test_co_moments_equal_the_textbook_loop_bit_for_bit(self, pairs):
        """The running-mean pass gives the floats of the textbook loop, so r never moves."""

        def textbook(xs, ys):
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
            return m2x, m2y, cxy

        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        bits = lambda values: [struct.pack("<d", v) for v in values]
        assert bits(_co_moments(xs, ys)) == bits(textbook(xs, ys))

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            pearson_correlation([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson_correlation([1, 2], [1, 2, 3])


class TestPosComposition:
    def test_single_class(self):
        core = make_core(["a", "b"], pos=[PosTag.NOUN, PosTag.NOUN])
        assert pos_composition(core) == {PosTag.NOUN: 1.0}

    def test_hand_counted_fixture(self):
        tags = [PosTag.NOUN] * 8 + [PosTag.VERB] * 5 + [PosTag.ADJ] * 4 + [PosTag.DET] * 2 + [PosTag.X]
        core = make_core([f"w{i}" for i in range(20)], pos=tags)
        comp = pos_composition(core)
        assert comp == {
            PosTag.NOUN: 0.40,
            PosTag.VERB: 0.25,
            PosTag.ADJ: 0.20,
            PosTag.DET: 0.10,
            PosTag.X: 0.05,
        }

    @given(st.lists(st.sampled_from(list(PosTag)), min_size=1, max_size=200))
    @settings(max_examples=60)
    def test_shares_sum_to_one(self, tags):
        core = make_core([f"w{i}" for i in range(len(tags))], pos=tags)
        assert sum(pos_composition(core).values()) == pytest.approx(1.0, abs=1e-9)


class TestPosDropout:
    def test_identical_cores(self):
        core = make_core(["a", "b"], pos=[PosTag.NOUN, PosTag.VERB])
        assert pos_dropout(core, core) == {PosTag.NOUN: 0.0, PosTag.VERB: 0.0}

    def test_hand_fixture(self):
        old = make_core(
            ["n1", "n2", "n3", "n4", "v1", "v2", "d1"],
            pos=[PosTag.NOUN] * 4 + [PosTag.VERB] * 2 + [PosTag.DET],
        )
        new = make_core(["n1", "v1", "v2", "d1", "x9"], pos=[PosTag.NOUN] * 5)
        drop = pos_dropout(old, new)
        assert drop == {PosTag.NOUN: 0.75, PosTag.VERB: 0.0, PosTag.DET: 0.0}

    def test_weighted_average_equals_dropout_share(self):
        rng = np.random.default_rng(3)
        universe = [f"w{i}" for i in range(300)]
        for _ in range(50):
            tags = rng.choice(len(PosTag), size=120)
            old_words = rng.choice(universe, size=120, replace=False)
            new_words = rng.choice(universe, size=150, replace=False)
            old = make_core(old_words, pos=[PosTag(int(t)) for t in tags])
            new = make_core(new_words)
            comp = pos_composition(old)
            drop = pos_dropout(old, new)
            weighted = sum(comp[t] * drop[t] for t in comp)
            assert weighted == pytest.approx(dropout_share(old, new), abs=1e-12)

    def test_planted_per_tag_churn(self, poschurn_corpus):
        """Per-tag dropout recovers the planted NOUN/DET replacement rates."""
        store = poschurn_corpus
        k = 1500
        old = frequency_core(aggregate_window(store, WindowSpec(1800, 1849)), k)
        new = frequency_core(aggregate_window(store, WindowSpec(1850, 1899)), k)
        drop = pos_dropout(old, new)
        assert drop[PosTag.NOUN] == pytest.approx(0.40, abs=0.03)
        assert drop[PosTag.DET] == pytest.approx(0.10, abs=0.03)


class TestCoreSizeForCoverage:
    def test_target_below_top_word(self):
        table = make_table(["a", "b"], [0.7, 0.3], counts=[7, 3])
        assert core_size_for_coverage(table, 0.5) == 1

    def test_monotone_in_target(self, small_store):
        table = aggregate_window(small_store, WindowSpec(1800, 1849))
        ks = [core_size_for_coverage(table, t) for t in (0.3, 0.5, 0.7, 0.9)]
        assert ks == sorted(ks)

    def test_unreachable_target(self):
        table = make_table(["a", "b"], [0.3, 0.2], counts=[3, 2])
        with pytest.raises(TargetUnreachable):
            core_size_for_coverage(table, 0.9)

    def test_zipf_inversion_small(self):
        """Matches a harmonic-sum scan oracle on an analytic Zipf table."""
        v = 1000
        harmonic = [0.0]
        for r in range(1, v + 1):
            harmonic.append(harmonic[-1] + 1.0 / r)
        total = math.fsum(1.0 / r for r in range(1, v + 1))
        rel = np.array([1.0 / r for r in range(1, v + 1)]) / total
        table = make_table(
            [f"w{i:05d}" for i in range(v)],
            rel,
            counts=[10**12 // r for r in range(1, v + 1)],
        )
        for target in (0.5, 0.75, 0.9):
            oracle = next(k for k in range(1, v + 1) if harmonic[k] >= target * total)
            assert abs(core_size_for_coverage(table, target) - oracle) <= 1


class TestMetricSeries:
    def test_x_must_increase(self):
        with pytest.raises(ValueError):
            MetricSeries("bad", ((1900, 0.1), (1900, 0.2)))

    def test_y_must_be_finite(self):
        with pytest.raises(ValueError):
            MetricSeries("bad", ((1900, float("nan")),))
