"""Window schedules, aggregation and core extraction."""

from __future__ import annotations

import tracemalloc
import weakref
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexcore.errors import EmptyWindow, EmptyYearError, SpanTooShort
from lexcore.ingest import build_store
from lexcore.metrics import coverage_series, group_frequency_series
from lexcore.postags import POS_COUNT, PosTag
from lexcore.store import CorpusStore
from lexcore.windows import (
    CORE_1800_WINDOW,
    CORE_2000_WINDOW,
    WindowSpec,
    aggregate_window,
    bookshare_core,
    frequency_core,
    standard_windows,
    write_core,
)

from conftest import classify_token, english_config, read_shard, relative_frequency, row_keys, store_from_lines, table_words


class TestStandardWindows:
    def test_english_span(self):
        specs = standard_windows(1676, 2008)
        assert [((s.start_year, s.end_year)) for s in specs] == [
            (1676, 1725),
            (1726, 1775),
            (1776, 1825),
            (1826, 1875),
            (1876, 1925),
            (1926, 1975),
            (1976, 2008),
        ]

    def test_single_window_is_too_short(self):
        with pytest.raises(SpanTooShort):
            standard_windows(1800, 1849)

    def test_custom_width(self):
        specs = standard_windows(1800, 1829, width=10)
        assert [s.label for s in specs] == ["1800-1809", "1810-1819", "1820-1829"]

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec(1900, 1800)

    @given(
        st.integers(min_value=1500, max_value=2000),
        st.integers(min_value=2, max_value=400),
        st.integers(min_value=1, max_value=120),
    )
    @settings(max_examples=80)
    def test_windows_tile_the_span(self, start, span, width):
        end = start + span - 1
        try:
            specs = standard_windows(start, end, width=width)
        except SpanTooShort:
            assert span <= width
            return
        covered = [y for s in specs for y in range(s.start_year, s.end_year + 1)]
        assert covered == list(range(start, end + 1))
        assert all(s.end_year - s.start_year + 1 == width for s in specs[:-1])

    def test_anchor_windows(self):
        assert CORE_1800_WINDOW == WindowSpec(1795, 1805)
        assert CORE_2000_WINDOW == WindowSpec(2000, 2008)


class TestAggregateWindow:
    def test_degenerate_window_equals_year_slice(self, hand_store):
        store, _ = hand_store
        table = aggregate_window(store, WindowSpec(1900, 1900))
        for i, word in enumerate(table_words(table)):
            assert table.rel_freq[i] == relative_frequency(store, word, 1900)

    def test_disjoint_vocabularies_union(self, tmp_path):
        lines = ["aa_NOUN\t1900\t5\t2", "bb_NOUN\t1901\t7\t3"]
        store = store_from_lines(tmp_path, lines, 1900, 1901)
        table = aggregate_window(store, WindowSpec(1900, 1901))
        counts = dict(zip(table_words(table), table.match_count.tolist()))
        assert counts == {"aa": 5, "bb": 7}

    def test_rel_freq_sums_to_one(self, hand_store):
        store, _ = hand_store
        table = aggregate_window(store, WindowSpec(1900, 1904))
        assert table.rel_freq.sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_window(self, hand_store):
        store, _ = hand_store
        with pytest.raises(EmptyWindow):
            aggregate_window(store, WindowSpec(1903, 1903))

    def test_window_outside_range(self, hand_store):
        store, _ = hand_store
        with pytest.raises(ValueError):
            aggregate_window(store, WindowSpec(1880, 1905))

    def test_dominant_pos(self, hand_store):
        store, _ = hand_store
        table = aggregate_window(store, WindowSpec(1900, 1904))
        core = frequency_core(table, len(table))
        pos = dict(zip(core.words, core.pos))
        assert pos["time"] is PosTag.NOUN
        assert pos["the"] is PosTag.DET

    def test_split_merge_additivity(self, small_store):
        spec = WindowSpec(1800, 1849)
        whole = aggregate_window(small_store, spec)
        left = aggregate_window(small_store, WindowSpec(1800, 1824))
        right = aggregate_window(small_store, WindowSpec(1825, 1849))
        merged: dict[str, int] = {}
        for table in (left, right):
            for word, count in zip(table_words(table), table.match_count.tolist()):
                merged[word] = merged.get(word, 0) + count
        assert merged == dict(zip(table_words(whole), whole.match_count.tolist()))
        assert whole.lexical_total == left.lexical_total + right.lexical_total

    def test_fifty_year_window_brute_force(self, small_synth):
        """Window counts equal a dict re-aggregation of the raw shard lines."""
        result, _ = small_synth
        expected: dict[str, int] = {}
        total = 0
        config = english_config(1800, 1999)
        for path in result.shard_paths:
            for token, _, match, _ in read_shard(path.read_bytes(), 1800, 1849)[0]:
                if not isinstance(kept := classify_token(token, config), tuple):
                    continue
                word = kept[0]
                expected[word] = expected.get(word, 0) + match
                total += match
        store, _ = build_store(result.shard_paths, config)
        table = aggregate_window(store, WindowSpec(1800, 1849))
        assert dict(zip(table_words(table), table.match_count.tolist())) == expected
        assert table.lexical_total == total


class TestFrequencyCore:
    def test_tie_broken_lexicographically(self, tmp_path):
        lines = ["b_NOUN\t1900\t5\t2", "a_NOUN\t1900\t5\t2", "c_NOUN\t1900\t4\t2"]
        store = store_from_lines(tmp_path, lines, 1900, 1900)
        table = aggregate_window(store, WindowSpec(1900, 1900))
        assert frequency_core(table, 1).words == ("a",)
        assert frequency_core(table, 3).words == ("a", "b", "c")

    def test_k_beyond_vocabulary(self, hand_store):
        store, _ = hand_store
        table = aggregate_window(store, WindowSpec(1900, 1904))
        core = frequency_core(table, 10_000)
        assert sorted(core.words) == table_words(table)

    def test_full_sort_oracle(self, small_store):
        """Top-K set and order match a naive full sort of the table."""
        table = aggregate_window(small_store, WindowSpec(1800, 1849))
        naive = sorted(
            zip(table_words(table), table.match_count.tolist()), key=lambda wc: (-wc[1], wc[0])
        )
        core = frequency_core(table, 200)
        assert list(core.words) == [w for w, _ in naive[:200]]

    def test_nesting(self, small_store):
        table = aggregate_window(small_store, WindowSpec(1850, 1899))
        small = frequency_core(table, 100)
        large = frequency_core(table, 500)
        assert large.words[:100] == small.words
        assert small.word_set < large.word_set

    def test_rank_consistency(self, small_store):
        table = aggregate_window(small_store, WindowSpec(1850, 1899))
        freqs = frequency_core(table, 500).rel_freq
        assert all(a >= b for a, b in zip(freqs, freqs[1:]))

    def test_determinism(self, small_store):
        table1 = aggregate_window(small_store, WindowSpec(1900, 1949))
        table2 = aggregate_window(small_store, WindowSpec(1900, 1949))
        c1 = frequency_core(table1, 300)
        c2 = frequency_core(table2, 300)
        assert c1.words == c2.words
        assert c1.rel_freq == c2.rel_freq
        assert c1.volume_share == c2.volume_share

    def test_k_must_be_positive(self, hand_store):
        store, _ = hand_store
        table = aggregate_window(store, WindowSpec(1900, 1900))
        with pytest.raises(ValueError):
            frequency_core(table, 0)


class TestBookshareCore:
    FIXTURE = [
        "a_NOUN\t1950\t50\t5",
        "b_NOUN\t1950\t30\t4",
        "c_NOUN\t1950\t20\t3",
        "d_NOUN\t1950\t10\t2",
        "e_NOUN\t1950\t5\t1",
    ]

    def test_hand_enumeration(self, tmp_path):
        store = store_from_lines(tmp_path, self.FIXTURE, 1950, 1950, volumes=5)
        table = aggregate_window(store, WindowSpec(1950, 1950))
        core = bookshare_core(table, 0.5)
        assert core.words == ("a", "b", "c")
        assert core.volume_share == (1.0, 0.8, 0.6)

    def test_tiny_threshold_keeps_everything(self, tmp_path):
        store = store_from_lines(tmp_path, self.FIXTURE, 1950, 1950, volumes=5)
        table = aggregate_window(store, WindowSpec(1950, 1950))
        core = bookshare_core(table, 1e-9)
        assert sorted(core.words) == ["a", "b", "c", "d", "e"]

    def test_antitone_in_threshold(self, tmp_path):
        store = store_from_lines(tmp_path, self.FIXTURE, 1950, 1950, volumes=5)
        table = aggregate_window(store, WindowSpec(1950, 1950))
        lo = bookshare_core(table, 0.3)
        hi = bookshare_core(table, 0.7)
        assert hi.word_set <= lo.word_set

    def test_no_volume_metadata(self, tmp_path):
        store = store_from_lines(tmp_path, self.FIXTURE, 1950, 1950)
        table = aggregate_window(store, WindowSpec(1950, 1950))
        with pytest.raises(EmptyWindow):
            bookshare_core(table, 0.5)


class TestRankOrders:
    """The stable sorts of a numeric column against the string ``lexsort`` they replace."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_equal_the_string_lexsort_on_ties(self, data):
        # Few distinct counts make ties common; non-ASCII words check that
        # word order is code-point order.
        letters = st.characters(min_codepoint=0x61, max_codepoint=0x3A9, blacklist_categories=("Cs",))
        words = sorted(data.draw(st.sets(st.text(letters, min_size=1, max_size=3), min_size=1, max_size=40)))
        n = len(words)
        counts = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
        volumes = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        store = CorpusStore.from_rows(
            "english", Y0, Y0, words,
            key=row_keys(range(n), [0] * n, [0] * n, 1),
            match_count=np.array(counts), volume_count=np.array(volumes), volume_totals=[3],
        )
        table = aggregate_window(store, WindowSpec(Y0, Y0))
        present = np.array(table_words(table), dtype=object)
        assert table.rank_order.tolist() == np.lexsort((present, -table.match_count)).tolist()
        by_share = np.lexsort((present, -table.volume_share))
        kept = by_share[table.volume_share[by_share] >= 1 / 3]
        assert bookshare_core(table, 1 / 3).words == tuple(present[kept])


class TestQueryMemory:
    def test_core_does_not_keep_its_table(self, small_store):
        """A core holds its own words' runs and the store, so its table can go."""
        table = aggregate_window(small_store, WindowSpec(1800, 1849))
        cores = [frequency_core(table, 100), bookshare_core(table, 0.2)]
        table_ref = weakref.ref(table)
        del table
        assert table_ref() is None
        assert all(len(core.pos) == len(core) for core in cores)

    def test_aggregate_peak_per_window_row(self, small_store):
        """The traced peak of one window table, per row in the window.

        The window is a quarter of the store's span.  The table's seven
        8-byte columns a word and one block's temporaries make the peak:
        5.0 bytes a window row, so the bound has 20% headroom.  A year
        mask over the whole store, a row index and int64 counts as long
        as the window took 18.9 bytes, and a table with 12 POS slots per
        word and a string array 28.9.
        """
        spec = WindowSpec(1800, 1849)
        window_rows = np.count_nonzero(small_store.year_offset < 50)
        assert window_rows * 4 == len(small_store.pos_id)
        aggregate_window(small_store, spec)
        tracemalloc.start()
        try:
            table = aggregate_window(small_store, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) > 0
        assert peak / window_rows <= 6


def repeated_span(store: CorpusStore, times: int) -> CorpusStore:
    """``store`` with its span repeated ``times`` times, each copy of a word's rows a span later: ``times`` times the rows."""
    span, rows = len(store.years), slice(0, len(store.pos_id))
    word_id = np.repeat(np.arange(len(store.words)), np.diff(store.word_offsets))
    keys = (word_id * (span * times) + store.year_offset) * POS_COUNT + store.pos_id
    keys = (keys + (np.arange(times) * (span * POS_COUNT))[:, None]).ravel()
    order = np.argsort(keys, kind="stable")
    match, volume = (np.tile(store.counts(count, rows), times)[order] for count in ("match", "volume"))
    return CorpusStore.from_rows(
        store.language, store.year_start, store.year_start + span * times - 1, store.words, keys[order],
        match, volume, np.tile(store.volume_totals, times),
    )


def peak_beyond_result(call) -> int:
    """The traced peak of ``call()`` beyond what it still holds on return, its result, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result is not None
    return peak - current


# A query holds its result and the temporaries of one block of about 65,536
# store rows at a time, whatever its window or store.  The bound is the
# largest peak measured beyond the result, 2.07 MB (a core's POS on the
# store of four spans), with 25% headroom.  With whole-store temporaries a
# whole-span table of that store peaked 28.8 MB beyond its result.
QUERY_PEAK_BEYOND_RESULT = 2_600_000


class TestQueryBound:
    @pytest.fixture(scope="class", params=[1, 4], ids=["churn15-small", "four-spans"])
    def store(self, request, small_store):
        return small_store if request.param == 1 else repeated_span(small_store, request.param)

    @pytest.mark.parametrize("years", [1, 50, None], ids=["one-year", "fifty-years", "whole-span"])
    def test_window_table(self, store, years):
        spec = WindowSpec(store.year_start, store.year_end if years is None else store.year_start + years - 1)
        aggregate_window(store, spec)
        assert peak_beyond_result(lambda: aggregate_window(store, spec)) <= QUERY_PEAK_BEYOND_RESULT

    def test_coverage_and_pos_of_a_core(self, store):
        """A core of 1000 words from the whole span, so its runs hold 200 or 800 rows a word."""
        table = aggregate_window(store, WindowSpec(store.year_start, store.year_end))
        warm, core = frequency_core(table, 1000), frequency_core(table, 1000)
        assert len(core) == 1000 and len(warm.pos) == 1000
        assert peak_beyond_result(lambda: coverage_series(core, store, store.years)) <= QUERY_PEAK_BEYOND_RESULT
        assert peak_beyond_result(lambda: core.pos) <= QUERY_PEAK_BEYOND_RESULT


class TestCoreExport:
    def test_row_format(self, tmp_path, hand_store):
        store, _ = hand_store
        table = aggregate_window(store, WindowSpec(1900, 1904))
        core = frequency_core(table, 3)
        path = tmp_path / "core.tsv"
        write_core(core, path)
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        assert [r[1] for r in rows] == list(core.words)
        for row, freq, share in zip(rows, core.rel_freq, core.volume_share):
            assert float(row[2]) == freq
            assert float(row[3]) == share


    def test_failed_write_keeps_the_old_file(self, tmp_path, hand_store):
        """The core is written beside the file and renamed over it; a failed rename leaves the old bytes."""
        store, _ = hand_store
        core = frequency_core(aggregate_window(store, WindowSpec(1900, 1904)), 3)
        path = tmp_path / "core.tsv"
        path.write_bytes(b"old core\n")
        with mock.patch("os.replace", side_effect=OSError("rename failed")), pytest.raises(OSError):
            write_core(core, path)
        assert path.read_bytes() == b"old core\n"


# ---------------------------------------------------------------- oracle
# Rows are {(word, pos, year): (match, volumes)}; every sum below is over
# Python ints, so the oracle cannot wrap or round a count.

Y0 = 1900
STORE_WORDS = ("ant", "bee", "cat", "cow", "dog", "eel", "elk")
ABSENT_WORDS = ("yak", "zebu")  # never in any store dictionary


def store_of(rows, vocabulary, volume_totals) -> CorpusStore:
    """A store holding exactly ``rows``, in the (word id, year, pos id) row order, one year per volume total."""
    wid = {w: i for i, w in enumerate(vocabulary)}
    keys = sorted(rows, key=lambda k: (wid[k[0]], k[2], k[1]))
    return CorpusStore.from_rows(
        language="english",
        year_start=Y0,
        year_end=Y0 + len(volume_totals) - 1,
        words=list(vocabulary),
        key=row_keys([wid[w] for w, _, _ in keys], [y - Y0 for _, _, y in keys], [p for _, p, _ in keys],
                     len(volume_totals)),
        match_count=np.array([rows[k][0] for k in keys], dtype=np.int64),
        volume_count=np.array([rows[k][1] for k in keys], dtype=np.int64),
        volume_totals=np.array(volume_totals, dtype=np.int64),
    )


def oracle_window(rows, lexical_totals, volume_totals, lo, hi):
    match, vol = defaultdict(int), defaultdict(int)
    by_pos = defaultdict(lambda: defaultdict(int))
    for (w, p, y), (m, v) in rows.items():
        if lo <= y <= hi:
            match[w] += m
            vol[w] += v
            by_pos[w][p] += m
    lexical = sum(lexical_totals[lo - Y0 : hi - Y0 + 1])
    volume = sum(volume_totals[lo - Y0 : hi - Y0 + 1])
    if lexical == 0:
        return {}, lexical, volume  # the library raises EmptyWindow
    return {
        w: {
            "match": match[w],
            "volume": vol[w],
            "rel_freq": match[w] / lexical,
            "volume_share": vol[w] / volume if volume > 0 else 0.0,
            # Largest window count; ties go to the smaller pos id.
            "pos": min(by_pos[w], key=lambda p: (-by_pos[w][p], p)),
        }
        for w in match
    }, lexical, volume


def oracle_coverage(rows, lexical_totals, words, years):
    points = []
    for y in sorted(set(years)):
        total = lexical_totals[y - Y0]
        if total == 0:
            return None  # the library raises EmptyYearError
        covered = sum(m for (w, _, yy), (m, _) in rows.items() if yy == y and w in words)
        points.append((y, covered / total))
    return tuple(points)


@st.composite
def window_stores(draw):
    """Small stores rich in ties: shared counts, multi-POS words, gaps, and counts at the width rule's edges."""
    span = draw(st.integers(1, 6))
    # Counts near 255 and 65,535 mix u1, u2 and exception rows within a window.
    count = st.integers(0, 4) | st.integers(0, 2**40) | st.integers(250, 260) | st.integers(2**16 - 4, 2**16 + 4)
    rows = draw(
        st.dictionaries(
            st.tuples(
                st.sampled_from(STORE_WORDS),
                st.sampled_from([0, 1, 2, int(PosTag.UNTAGGED)]),
                st.integers(Y0, Y0 + span - 1),
            ),
            st.tuples(count, count),
            min_size=1,
            max_size=30,
        )
    )
    # Store words ascend; a store word may have no rows.
    vocabulary = sorted({w for w, _, _ in rows} | draw(st.sets(st.sampled_from(STORE_WORDS))))
    lexical_totals = [sum(m for (_, _, y), (m, _) in rows.items() if y == Y0 + i) for i in range(span)]
    volume_totals = draw(st.lists(st.integers(0, 2**41), min_size=span, max_size=span))
    lo = draw(st.integers(Y0, Y0 + span - 1))
    hi = draw(st.integers(lo, Y0 + span - 1))
    k = draw(st.integers(1, len(STORE_WORDS) + 2))  # may exceed the vocabulary
    threshold = draw(st.sampled_from([1e-12, 0.1, 0.25, 0.5, 1.0]))
    extra = draw(st.lists(st.sampled_from(STORE_WORDS + ABSENT_WORDS), max_size=4))
    years = draw(st.lists(st.integers(Y0, Y0 + span - 1), min_size=1, max_size=span + 1))
    return rows, vocabulary, lexical_totals, volume_totals, lo, hi, k, threshold, extra, years


def check_window_oracle(case) -> None:
    """One drawn case against the dict oracles: aggregate_window, both cores
    with their POS, and coverage_series and group_frequency_series."""
    rows, vocabulary, lexical_totals, volume_totals, lo, hi, k, threshold, extra, years = case
    store = store_of(rows, vocabulary, volume_totals)
    expected, lexical, volume = oracle_window(rows, lexical_totals, volume_totals, lo, hi)
    spec = WindowSpec(lo, hi)
    if lexical == 0:
        with pytest.raises(EmptyWindow):
            aggregate_window(store, spec)
        return
    table = aggregate_window(store, spec)
    assert (table.lexical_total, table.volume_total) == (lexical, volume)
    everything = frequency_core(table, len(table))
    pos = dict(zip(everything.words, everything.pos))
    got = {
        w: {"match": m, "volume": v, "rel_freq": f, "volume_share": s, "pos": pos[w]}
        for w, m, v, f, s in zip(
            table_words(table),
            table.match_count.tolist(),
            table.volume_count.tolist(),
            table.rel_freq.tolist(),
            table.volume_share.tolist(),
        )
    }
    assert got == expected

    def check_core(core, words):
        assert core.words == tuple(words)
        assert core.rel_freq == tuple(expected[w]["rel_freq"] for w in words)
        assert core.volume_share == tuple(expected[w]["volume_share"] for w in words)
        assert core.pos == tuple(PosTag(expected[w]["pos"]) for w in words)
        assert all(type(t) is PosTag for t in core.pos)

    by_count = sorted(expected, key=lambda w: (-expected[w]["match"], w))
    check_core(frequency_core(table, k), by_count[:k])
    if volume <= 0:
        with pytest.raises(EmptyWindow):
            bookshare_core(table, threshold)
    else:
        by_share = sorted(expected, key=lambda w: (-expected[w]["volume_share"], w))
        check_core(
            bookshare_core(table, threshold),
            [w for w in by_share if expected[w]["volume_share"] >= threshold],
        )

    core = frequency_core(table, k)
    words = set(core.words) | set(extra)
    want = oracle_coverage(rows, lexical_totals, words, years)
    if want is None:
        with pytest.raises(EmptyYearError):
            coverage_series(words, store, years)
        with pytest.raises(EmptyYearError):
            group_frequency_series(words, store, years)
    else:
        assert coverage_series(words, store, years).points == want
        assert group_frequency_series(words, store, years).points == want
        assert coverage_series(core, store, years).points == oracle_coverage(rows, lexical_totals, set(core.words), years)


class TestWindowOracle:
    """aggregate_window, both cores and coverage_series against dict-of-int sums."""

    @given(window_stores())
    @settings(max_examples=300, deadline=None)
    # "bee" has one row in the window, a match of 0 under pos 2: an
    # argmax that does not mask absent pairs would give it pos 0.
    @example(({("ant", 0, Y0): (3, 1), ("bee", 2, Y0): (0, 1)}, ["ant", "bee"], [3], [5], Y0, Y0, 2, 0.25, [], [Y0]))
    def test_matches_dict_oracle(self, case):
        check_window_oracle(case)

    @given(window_stores(), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_matches_dict_oracle_in_blocks_of_a_few_rows(self, case, block_rows):
        """Blocks of 1 to 3 rows, so nearly every word is a block of its own: the window
        table, both cores' POS, coverage and group sums cross a block edge at almost every word."""
        with mock.patch("lexcore.store._BLOCK_ROWS", block_rows):
            check_window_oracle(case)

    def test_coverage_sums_beyond_float_precision(self):
        """Per-year sums above 2**53 are exact: one big count then 1001 ones."""
        ones = [f"w{i:04d}" for i in range(1001)]
        rows = {("a", 0, Y0): (2**54, 1), ("zz", 0, Y0): (2**54, 1)}
        rows.update({(w, 0, Y0): (1, 1) for w in ones})
        lexical_totals = [sum(m for m, _ in rows.values())]
        store = store_of(rows, ["a", *ones, "zz"], [10])
        words = {"a", *ones}
        series = coverage_series(words, store, [Y0])
        assert series.points == ((Y0, (2**54 + 1001) / lexical_totals[0]),)
        assert series.points == oracle_coverage(rows, lexical_totals, words, [Y0])
        table = aggregate_window(store, WindowSpec(Y0, Y0))
        assert table.lexical_total == lexical_totals[0]
        assert dict(zip(table_words(table), table.match_count.tolist()))["a"] == 2**54
