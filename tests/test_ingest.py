"""Parsing, filtering and aggregation tests for the ingest stage."""

from __future__ import annotations

import gzip
import sys
import tempfile
import threading
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcore import ingest

from lexcore.alphabets import PRESETS, AlphabetSpec, alphabet_preset
from lexcore.config import RunConfig
from lexcore.errors import CountOverflow
from lexcore.ingest import IngestStats, build_store, group_sum
from lexcore.postags import POS_COUNT, SUFFIX_TAGS, PosTag
from lexcore.store import save_store

from conftest import (
    HAND_LINES,
    TAG_NAMES,
    UNTAGGED,
    classify_token,
    english_config,
    iter_clean_records,
    one_percent_rule,
    read_shard,
    write_shards,
)

def _config(alphabet: str | AlphabetSpec = "english", fold_case: bool = False) -> RunConfig:
    """A config of the one year 1900 over a preset alphabet, by name, or a custom one."""
    spec = alphabet_preset(alphabet) if isinstance(alphabet, str) else alphabet
    return RunConfig(spec.language, spec, 1900, 1900, fold_case)


_OUTCOMES = ("malformed", "wildcard_rows", "nonlexical_rows")


def _token_outcome(directory: Path, token: str | bytes, config) -> tuple[str, int] | str:
    """What build_store makes of a one-line shard of ``token``: its row's (word, pos id), or the counter that drops it."""
    path = directory / "token.tsv"
    path.write_bytes((token.encode("utf-8") if isinstance(token, str) else token) + b"\t1900\t1\t1\n")
    store, stats = build_store([path], config)
    if store.words:
        return store.words[0], int(store.pos_id[0])
    (counter,) = [name for name in _OUTCOMES if getattr(stats, name)]
    return counter


def _token_rule(*cases):
    """A test of the token rule: each (token, config, expected) case is built into a store of its one line.

    ``expected`` is the (word, pos id) of the row, or the counter that drops it.
    """

    def test(self, tmp_path):
        assert [_token_outcome(tmp_path, token, config) for token, config, _ in cases] == [c[2] for c in cases]

    return test


EN, FR, RU = _config(), _config("french"), _config("russian")
_ABC = AlphabetSpec("abc", frozenset("abc"))
NONLEXICAL = "nonlexical_rows"


class TestSplitPos:
    """The token rule's table, first half: the token is decoded, wildcards go and a known ``_TAG`` suffix is split off."""

    test_suffix_stripped = _token_rule(("time_NOUN", EN, ("time", PosTag.NOUN)))
    test_no_suffix = _token_rule(("time", EN, ("time", UNTAGGED)))
    test_wildcard = _token_rule(("_NOUN_", EN, "wildcard_rows"))
    test_wildcard_without_trailing_underscore = _token_rule(("_VERB", EN, "wildcard_rows"))
    # An untagged word that keeps its underscore, which is no letter.
    test_unknown_suffix_is_untagged = _token_rule(("time_XYZ", EN, NONLEXICAL), ("time_noun", EN, NONLEXICAL))
    test_inner_underscore_kept = _token_rule(("foo_bar_NOUN", EN, NONLEXICAL), ("_NOUN__", EN, NONLEXICAL))
    test_tag_alone_is_a_word = _token_rule(("NOUN", EN, ("NOUN", UNTAGGED)), ("X_X", EN, ("X", PosTag.X)))
    test_not_utf8_is_malformed = _token_rule((b"caf\xe9", EN, "malformed"), (b"\xe2\x80_NOUN", EN, "malformed"))
    test_cyrillic_tagged = _token_rule(("время_NOUN", RU, ("время", PosTag.NOUN)), ("время_NOUN", EN, NONLEXICAL))


class TestIsLexical:
    """The token rule's table, second half: U+2019 becomes ``'``, the case folds and the word is checked against the alphabet."""

    test_apostrophe_word = _token_rule(("don't", EN, ("don't", UNTAGGED)))
    test_period_rejected = _token_rule(("vol.", EN, NONLEXICAL))
    test_two_apostrophes_rejected = _token_rule(("it''s", EN, NONLEXICAL))
    test_digits_rejected = _token_rule(("a1", EN, NONLEXICAL))
    test_typographic_apostrophe_counts = _token_rule(("don’t", EN, ("don't", UNTAGGED)), ("don’t'", EN, NONLEXICAL))
    test_apostrophe_only_rejected = _token_rule(("'", EN, NONLEXICAL), ("'_NOUN", EN, NONLEXICAL))
    test_accented_french = _token_rule(("écœurés", FR, ("écœurés", UNTAGGED)), ("écœurés", EN, NONLEXICAL))
    test_case_folds_before_the_check = _token_rule(
        ("CAB_VERB", _config(_ABC, fold_case=True), ("cab", PosTag.VERB)), ("CAB", _config(_ABC), NONLEXICAL)
    )
    test_apostrophe_limits = _token_rule(
        ("a'b", _config(AlphabetSpec("abc", _ABC.letters, apostrophe_allowed=False)), NONLEXICAL),
        ("a'b", _config(AlphabetSpec("abc", _ABC.letters, max_apostrophes=0)), NONLEXICAL),
        ("a'b’c", _config(AlphabetSpec("abc", _ABC.letters, max_apostrophes=2)), ("a'b'c", UNTAGGED)),
        ("''a'", _config(AlphabetSpec("abc", _ABC.letters, max_apostrophes=2)), NONLEXICAL),
    )

    @settings(deadline=None)
    @given(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1, max_size=12),
        st.integers(min_value=0, max_value=12),
    )
    def test_letters_plus_one_apostrophe_pass(self, letters, pos):
        at = pos % (len(letters) + 1)
        with_apostrophe = letters[:at] + "'" + letters[at:]
        expected = {
            letters: (letters, UNTAGGED),
            with_apostrophe: (with_apostrophe, UNTAGGED),
            with_apostrophe + "'": NONLEXICAL,
            letters + "7": NONLEXICAL,
            letters + "-": NONLEXICAL,
        }
        with tempfile.TemporaryDirectory() as tmp:
            assert {token: _token_outcome(Path(tmp), token, EN) for token in expected} == expected


_CUSTOM_ALPHABETS = st.builds(
    AlphabetSpec,
    st.just("custom"),
    st.sampled_from([frozenset("aqéжё"), frozenset("aZqß")]),
    st.booleans(),
    st.sampled_from([0, 1, 2]),
)
_RULE_CONFIGS = st.builds(_config, st.one_of(st.sampled_from(sorted(PRESETS)), _CUSTOM_ALPHABETS), st.booleans())
# Letters of several scripts; U+212A, the Kelvin sign, folds to "k".
_SOME_LETTERS = st.sampled_from([*"aZqéÉœßñüÿàìжЯёЁİ", "\u212a"])
_NOT_LETTERS = st.sampled_from(["'", "’", "_", *TAG_NAMES, "noun", "0", "7", ".", "-", " ", "\x00"])


@st.composite
def _rule_shard(draw) -> tuple[list[bytes], RunConfig]:
    """A config, and tokens drawn mostly from its alphabet's letters and apostrophes.

    Tokens hold tag suffixes and wildcards, other scripts, digits and
    punctuation; some pass 32 bytes and some hold bytes that are not UTF-8.
    """
    config = draw(_RULE_CONFIGS)
    own = st.sampled_from(sorted(config.alphabet.letters))
    pieces = st.one_of(own, own, own, st.sampled_from(["'", "’"]), _SOME_LETTERS, _NOT_LETTERS)
    words = st.lists(pieces, min_size=1, max_size=8).map("".join)
    tokens = st.one_of(
        st.builds(str.__add__, words, st.sampled_from(["", "", "_NOUN", "_X", "_noun", "_"])),
        st.lists(st.sampled_from(["'", "’", "_", "_NOUN"]), min_size=1, max_size=3).map("".join),
        st.builds(lambda tag, end: f"_{tag}{end}", st.sampled_from(TAG_NAMES), st.sampled_from(["", "_", "__"])),
        st.builds(str.__mul__, words, st.integers(9, 20)),
    ).map(lambda token: token.encode("utf-8"))
    not_utf8 = st.builds(
        lambda token, bad: token[: len(token) // 2] + bad + token[len(token) // 2 :],
        tokens,
        st.sampled_from([b"\xff", b"\xe9", b"\xe2\x80", b"\xc3", b"\xed\xa0\x80"]),
    )
    return draw(st.lists(st.one_of(tokens, tokens, tokens, not_utf8), min_size=4, max_size=40)), config


@settings(max_examples=300, deadline=None)
@given(_rule_shard())
def test_token_rule_matches_oracle(shard):
    """A shard of one line per token: the store's words, pos ids and counts and the counters are the reference's.

    Every row counts 1, so no word totals 100 and the 1% rule drops nothing.
    """
    tokens, config = shard
    rows, counters = Counter(), dict.fromkeys(_OUTCOMES, 0)
    for token in tokens:
        outcome = classify_token(token, config)
        if isinstance(outcome, str):
            counters[outcome] += 1
        else:
            rows[outcome] += 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "shard.tsv"
        path.write_bytes(b"".join(token + b"\t1900\t1\t1\n" for token in tokens))
        store, stats = build_store([path], config)
    assert store.words == sorted({word for word, _ in rows})
    kept = zip(store.word_id.tolist(), store.pos_id.tolist(), store.match_count.tolist())
    assert Counter({(store.words[w], p): m for w, p, m in kept}) == rows
    assert {name: getattr(stats, name) for name in _OUTCOMES} == counters


class TestPosVariantFilter:
    """The 1% rule as build_store applies it to one word's variants."""

    @staticmethod
    def _retained(directory: Path, variants: dict[PosTag, int]) -> set[PosTag]:
        """The tags build_store keeps from one shard of one word's variants, all in 1900."""
        lines = [
            f"word{'' if tag is PosTag.UNTAGGED else '_' + tag.name}\t1900\t{count}\t1"
            for tag, count in variants.items()
        ]
        store, stats = build_store(write_shards(directory, lines), english_config(1900, 1900))
        retained = {PosTag(p) for p in store.pos_id.tolist()}
        assert stats.dropped_pos_variants == len(variants) - len(retained)
        assert int(store.lexical_totals[0]) == sum(variants[t] for t in retained)
        return retained

    def test_exactly_one_percent_dropped(self, tmp_path):
        assert self._retained(tmp_path, {PosTag.NOUN: 990, PosTag.VERB: 10}) == {PosTag.NOUN}

    def test_above_one_percent_kept(self, tmp_path):
        assert self._retained(tmp_path, {PosTag.NOUN: 989, PosTag.VERB: 11}) == {PosTag.NOUN, PosTag.VERB}

    def test_single_variant(self, tmp_path):
        assert self._retained(tmp_path, {PosTag.NOUN: 100}) == {PosTag.NOUN}

    @settings(deadline=None)
    @given(
        st.one_of(
            st.dictionaries(
                st.sampled_from(list(PosTag)),
                st.integers(min_value=0, max_value=10**9),
                min_size=1,
            ).filter(lambda d: sum(d.values()) > 0),
            # A variant exactly at 1% of its word's total, and one just above.
            st.integers(1, 10**7).map(lambda c: {PosTag.NOUN: 99 * c, PosTag.VERB: c}),
            st.integers(1, 10**7).map(lambda c: {PosTag.NOUN: 99 * c - 1, PosTag.VERB: c + 1}),
        )
    )
    def test_never_empty_and_threshold_respected(self, variants):
        with tempfile.TemporaryDirectory() as tmp:
            retained = self._retained(Path(tmp), variants)
        assert retained
        assert retained <= set(variants)
        total = sum(variants.values())
        for tag in set(variants) - retained:
            assert 100 * variants[tag] <= total
        # The largest variant always survives.
        top = max(variants.values())
        assert any(variants[t] == top for t in retained)
        rows = [("word", tag, 1900, count, 1) for tag, count in variants.items()]
        assert retained == {pos for _, pos, *_ in one_percent_rule(rows)}


class TestYearlyTotals:
    def test_summation(self, tmp_path):
        lines = ["a\t1800\t5\t1", "b\t1800\t3\t1", "a\t1801\t2\t1"]
        store, stats = build_store(write_shards(tmp_path, lines), english_config(1800, 1801))
        assert store.lexical_totals.tolist() == [8, 2]
        assert stats.empty_years == set()

    def test_empty_stream_flags_all_years(self, tmp_path):
        shard = tmp_path / "empty.tsv"
        shard.write_bytes(b"")
        store, stats = build_store([shard], english_config(1900, 1902))
        assert store.words == [] and stats.lines == 0
        assert store.lexical_totals.tolist() == [0, 0, 0]
        assert stats.empty_years == {1900, 1901, 1902}

    def test_three_shard_brute_force(self, tmp_path):
        """Store totals equal a dict-based re-aggregation of all shards."""
        shards = write_shards(tmp_path, HAND_LINES, n_shards=3)
        config = english_config(1900, 1904)
        store, stats = build_store(shards, config)

        # Brute force: read every line, filter by the reference token rule.
        lexical = []
        for p in shards:
            for token, year, match, volumes in read_shard(p.read_bytes(), 1900, 1904)[0]:
                if isinstance(kept := classify_token(token, config), tuple):
                    lexical.append((*kept, year, match, volumes))
        totals = dict.fromkeys(range(1900, 1905), 0)
        for _, _, year, match, _ in one_percent_rule(lexical):
            totals[year] += match
        assert store.lexical_totals.tolist() == list(totals.values())
        assert stats.empty_years == {y for y, t in totals.items() if t == 0} == {1903}


_ORACLE_TOKENS = st.one_of(
    st.builds(
        str.__add__,
        st.sampled_from(["cat", "Cat", "CAT", "don't", "don’t", "DON’T", "the", "x1"]),
        st.sampled_from(["", "_NOUN", "_VERB", "_ADJ"]),
    ),
    st.sampled_from(["_NOUN_", "_VERB"]),
)
_ORACLE_COUNTS = st.one_of(st.integers(0, 3), st.integers(10**12, 10**15))


def _store_oracle(shards: list[Path], config) -> tuple[list[str], dict, dict]:
    """The words, row columns and cleaning counters of ``shards``: dict sums, rows sorted by (word, year, pos)."""
    years = range(config.year_start, config.year_end + 1)
    raw = [row for p in shards for row in read_shard(p.read_bytes(), years[0], years[-1])[0]]
    stats = {"wildcard_rows": 0, "nonlexical_rows": 0}
    stats["duplicate_rows"] = len(raw) - len({(token, year) for token, year, _, _ in raw})
    sums: dict[tuple[str, int, int], list[int]] = {}
    for token, year, match, volumes in raw:
        pair = classify_token(token, config)
        if isinstance(pair, str):
            stats[pair] += 1
            continue
        word, pos = pair
        total = sums.setdefault((word, pos, year), [0, 0])
        total[0] += match
        total[1] += volumes
    rows = one_percent_rule([(w, p, y, m, v) for (w, p, y), (m, v) in sums.items()])
    stats["dropped_pos_variants"] = len({(w, p) for w, p, _ in sums}) - len({(w, p) for w, p, *_ in rows})
    rows.sort(key=lambda r: (r[0], r[2], r[1]))
    words = sorted({w for w, *_ in rows})
    columns = {
        "word_id": [words.index(w) for w, *_ in rows],
        "year": [y for _, _, y, _, _ in rows],
        "pos_id": [int(p) for _, p, *_ in rows],
        "match_count": [m for *_, m, _ in rows],
        "volume_count": [v for *_, v in rows],
        "lexical_totals": [sum(m for _, _, y, m, _ in rows if y == year) for year in years],
    }
    return words, columns, stats


class TestBuildStore:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(_ORACLE_TOKENS, st.integers(1900, 1904), _ORACLE_COUNTS, _ORACLE_COUNTS), max_size=40),
        st.integers(1, 3),
        st.booleans(),
        st.sampled_from([1, 3, 1 << 16]),
    )
    def test_whole_store_matches_dict_oracle(self, records, n_shards, fold_case, block_rows):
        """Every column and cleaning counter equals a dict re-aggregation of the shards.

        Blocks of a few rows split groups of repeated rows and runs of a
        word's rows over blocks, in the collapse, the POS rule and the layout.
        """
        config = english_config(1900, 1904, fold_case=fold_case)
        lines = [f"{token}\t{year}\t{match}\t{volumes}" for token, year, match, volumes in records]
        with tempfile.TemporaryDirectory() as tmp, mock.patch("lexcore.store._BLOCK_ROWS", block_rows):
            shards = write_shards(Path(tmp), lines, n_shards)
            store, stats = build_store(shards, config)
            words, columns, counters = _store_oracle(shards, config)
        assert store.words == words
        assert {name: getattr(store, name).tolist() for name in columns} == columns
        assert {name: getattr(stats, name) for name in counters} == counters

    def test_hand_fixture_stats(self, hand_store):
        store, stats = hand_store
        assert stats.malformed == 0
        assert stats.wildcard_rows == 1
        assert stats.nonlexical_rows == 1
        assert stats.dropped_pos_variants == 1
        assert stats.empty_years == {1903}
        assert sorted(store.words) == ["cat", "dog", "don't", "new", "press", "the", "time"]

    def test_shard_order_independence(self, tmp_path):
        """Forward, reversed and single-shard input, at 1, 2 and 4 threads: one store, one set of counters."""
        config = english_config(1900, 1904)
        sidecar = _sidecar(tmp_path, range(1900, 1905))
        shards = write_shards(tmp_path / "a", HAND_LINES, n_shards=3)
        one = write_shards(tmp_path / "b", HAND_LINES, n_shards=1)
        expected = _whole(*build_store(shards, config, volume_sidecar=sidecar))
        for paths in (shards, list(reversed(shards)), one):
            for threads in (1, 2, 4):
                built = build_store(paths, config, volume_sidecar=sidecar, threads=threads)
                assert _whole(*built) == expected, (paths, threads)

    def test_thread_count_does_not_change_store(self, tmp_path):
        """Shards that share tokens, so the workers meet each word in a different order."""
        config = english_config(1900, 1904, fold_case=True)
        sidecar = _sidecar(tmp_path, range(1900, 1905))
        lines = HAND_LINES * 3 + [line.upper() for line in HAND_LINES]
        shards = write_shards(tmp_path / "shards", lines, n_shards=4)
        expected = _whole(*build_store(shards, config, volume_sidecar=sidecar))
        assert expected[2].duplicate_rows and expected[2].nonlexical_rows and expected[2].wildcard_rows
        for paths in (shards, list(reversed(shards))):
            for threads in (1, 2, 4):
                built = build_store(paths, config, volume_sidecar=sidecar, threads=threads)
                assert _whole(*built) == expected, (paths, threads)

    def test_word_with_only_rejected_rows_is_not_a_word(self, tmp_path):
        """A lexical token met only in zero-volume or out-of-range rows gets no word id."""
        lines = ["cat\t1900\t5\t2", "dog\t1900\t4\t0", "emu\t1850\t3\t1", "emu_NOUN\t1950\t1\t1", "ant\t1900\t0\t0"]
        for threads in (1, 2):
            shards = write_shards(tmp_path / str(threads), lines, n_shards=2)
            store, stats = build_store(shards, english_config(1900, 1900), threads=threads)
            assert store.words == ["ant", "cat"]
            assert store.word_offsets.tolist() == [0, 1, 2]
            assert (stats.invalid_counts, stats.out_of_range) == (1, 2)

    def test_store_same_without_malloc_trim(self, tmp_path):
        """Handing freed pages back is skipped where the C library has no malloc_trim."""
        config = english_config(1900, 1904)
        shards = write_shards(tmp_path, HAND_LINES, n_shards=2)
        calls = []
        with mock.patch("lexcore.ingest._malloc_trim", return_value=lambda pad: calls.append(pad)):
            s1, _ = build_store(shards, config)
        with mock.patch("lexcore.ingest._malloc_trim", return_value=None):
            s2, _ = build_store(shards, config)
        # Once per shard for each of the three merged columns, then at the
        # end of each of the five stages.
        assert calls == [0] * (3 * len(shards) + 5)
        assert _same_store(s1, s2)

    @pytest.mark.parametrize("platform, maxrss", [("linux", 300 << 10), ("darwin", 300 << 20), ("freebsd14", 300 << 10)])
    def test_peak_rss_in_mb_on_each_platform(self, platform, maxrss):
        """ru_maxrss is in KiB on Linux and the BSDs but in bytes on macOS; the stats read MB on each."""
        stats = IngestStats()
        with mock.patch("resource.getrusage", return_value=mock.Mock(ru_maxrss=maxrss)), mock.patch("sys.platform", platform):
            stats.record("parse", 1.5)
        assert (stats.peak_rss_mb, stats.stage_peak_rss_mb, stats.timings) == (300.0, {"parse": 300.0}, {"parse": 1.5})

    def test_conservation_per_year(self, hand_store):
        store, _ = hand_store
        for year in store.years:
            rows = store.year == year
            assert int(store.match_count[rows].sum()) == store.lexical_totals[year - store.year_start]

    def test_filter_idempotence(self, hand_store):
        """Re-filtering the cleaned output changes nothing."""
        store, _ = hand_store
        rows = list(iter_clean_records(store))
        assert all(classify_token(word, EN) == (word, UNTAGGED) for word, *_ in rows)
        assert one_percent_rule(rows) == rows

    def test_duplicate_rows_are_summed_and_counted(self, tmp_path):
        (tmp_path / "s1.tsv").write_text("cat_NOUN\t1900\t5\t2\n", encoding="utf-8")
        (tmp_path / "s2.tsv").write_text("cat_NOUN\t1900\t7\t3\n", encoding="utf-8")
        store, stats = build_store(
            [tmp_path / "s1.tsv", tmp_path / "s2.tsv"], english_config(1900, 1900)
        )
        assert stats.duplicate_rows == 1
        assert store.lexical_totals[0] == 12

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4),  # few tokens, so rows repeat
                st.sampled_from(["", "_NOUN", "1", "_NOUN_"]),  # lexical, tagged, non-lexical, wildcard
                st.one_of(st.sampled_from([0, 7, 8, 15]), st.integers(-1, 16)),
                st.booleans(),
            ),
            max_size=60,
        ),
        st.integers(0, 300),
        st.integers(1, 4),
        st.sampled_from([256, 1 << 20]),
    )
    def test_duplicate_rows_match_a_set_oracle_at_any_thread_count_and_order(self, rows, fill, n_shards, chunk_bytes):
        """Repeated (token, year) rows within a chunk, across chunks and across shards, against a Python set.

        Over a 16-year span, year offsets 0, 7, 8 and 15 put a token's
        cells on the edges of the bit table's bytes; up to 300 filler
        tokens grow its 64 bytes as many as four times.  A row out of the
        year range, or of matches in zero volumes, is not counted.
        """
        config = english_config(1900, 1915)
        records = [("abcde"[t] + kind, 1900 + offset, int(volumes)) for t, kind, offset, volumes in rows]
        records += [(f"fill{i}", 1900, 1) for i in range(fill)]
        kept = [(token, year) for token, year, volumes in records if 1900 <= year <= 1915 and volumes]
        expected = len(kept) - len(set(kept))
        lines = [f"{token}\t{year}\t1\t{volumes}" for token, year, volumes in records]
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "_CHUNK_BYTES", chunk_bytes):
            shards = write_shards(Path(tmp), lines, n_shards)
            for paths in (shards, shards[::-1]):
                for threads in (1, 2, 4):
                    assert build_store(paths, config, threads=threads)[1].duplicate_rows == expected, (paths, threads)

    @pytest.mark.parametrize("chunk_bytes", [16, 1 << 20], ids=["chunk-per-line", "one-chunk"])
    def test_counts_either_side_of_uint32_are_exact(self, tmp_path, chunk_bytes):
        """A chunk holds its counts as uint32 only where its largest fits; every count reaches the store whole."""
        counts = [2**32 - 1, 2**32, 1, 2**32 + 1]
        lines = [f"w{'abcd'[i]}\t1900\t{c}\t{c}" for i, c in enumerate(counts)]
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk_bytes):
            store, _ = build_store(write_shards(tmp_path, lines), english_config(1900, 1900))
        assert store.match_count.tolist() == counts and store.volume_count.tolist() == counts

    @pytest.mark.parametrize("block_rows", [1, 1 << 16], ids=["row-blocks", "one-block"])
    def test_sums_past_uint32_are_exact_at_any_thread_count_and_order(self, tmp_path, block_rows):
        """Repeated rows whose counts fit in uint32 but whose sums do not: the store holds the sums.

        Each chunk holds its counts as uint32, so the collapse sums them
        in int64 and widens only the column whose sums pass 2**32 - 1.
        Blocks of one row split every group over two blocks.  The store is
        the bytes of one built from single lines that hold the sums.
        """
        config = english_config(1900, 1901)
        lines = [
            "the\t1900\t3000000000\t3000000000", "the\t1900\t3000000000\t3000000000",  # both sums pass 2**32 - 1
            "cat\t1900\t4294967294\t1", "cat\t1900\t1\t1",  # a match sum of exactly 2**32 - 1
            "dog\t1901\t2\t4294967295", "dog\t1901\t1\t2",  # a volume sum past it
            "emu\t1900\t7\t3", "emu_NOUN\t1901\t5\t4",
        ]
        summed = [
            "the\t1900\t6000000000\t6000000000", "cat\t1900\t4294967295\t2", "dog\t1901\t3\t4294967297",
            "emu\t1900\t7\t3", "emu_NOUN\t1901\t5\t4",
        ]
        save_store(build_store(write_shards(tmp_path / "summed", summed), config)[0], tmp_path / "summed.lxst")
        expected = (tmp_path / "summed.lxst").read_bytes()
        shards = write_shards(tmp_path / "shards", lines, n_shards=2)
        with mock.patch("lexcore.store._BLOCK_ROWS", block_rows):
            for paths in (shards, shards[::-1]):
                for threads in (1, 2):
                    store, stats = build_store(paths, config, threads=threads)
                    save_store(store, tmp_path / "built.lxst")
                    assert (tmp_path / "built.lxst").read_bytes() == expected, (paths, threads)
                    assert stats.duplicate_rows == 3

    @pytest.mark.parametrize("verb, kept", [(2**57, True), (2**62 // 100, False)])
    def test_one_percent_rule_on_counts_near_int64(self, tmp_path, verb, kept):
        """100 x a variant's count passes 2**63; the rule must still hold."""
        lines = [f"word_NOUN\t1900\t{2**62}\t1", f"word_VERB\t1900\t{verb}\t1"]
        store, stats = build_store(write_shards(tmp_path, lines), english_config(1900, 1900))
        assert stats.dropped_pos_variants == (0 if kept else 1)
        assert store.lexical_totals[0] == 2**62 + (verb if kept else 0)

    def test_out_of_range_years_skipped(self, tmp_path):
        lines = ["a\t1900\t5\t2", "a\t1880\t9\t3", "a\t1950\t9\t3"]
        shards = write_shards(tmp_path, lines)
        store, stats = build_store(shards, english_config(1900, 1910))
        assert stats.out_of_range == 2
        assert store.lexical_totals[0] == 5

    def test_malformed_lines_counted_not_fatal(self, tmp_path):
        lines = ["a\t1900\t5\t2", "broken line", "b\t1900\tx\t2", "c\t1900\t3\t1"]
        shards = write_shards(tmp_path, lines)
        store, stats = build_store(shards, english_config(1900, 1900))
        assert stats.malformed == 2
        assert store.lexical_totals[0] == 8

    def test_case_folding_merges_counts(self, tmp_path):
        lines = ["Time_NOUN\t1900\t5\t2", "time_NOUN\t1900\t7\t3"]
        shards = write_shards(tmp_path, lines)
        folded, _ = build_store(shards, english_config(1900, 1900, fold_case=True))
        assert folded.words == ["time"]
        assert int(folded.match_count.sum()) == 12
        unfolded, _ = build_store(shards, english_config(1900, 1900))
        assert unfolded.words == ["Time", "time"]

    def test_typographic_apostrophe_normalized(self, tmp_path):
        lines = ["don’t\t1900\t5\t2", "don't\t1900\t7\t3"]
        shards = write_shards(tmp_path, lines)
        store, _ = build_store(shards, english_config(1900, 1900))
        assert store.words == ["don't"]
        assert int(store.match_count.sum()) == 12

    def test_gzip_shards(self, tmp_path):
        gz = tmp_path / "shard.tsv.gz"
        with gzip.open(gz, "wt", encoding="utf-8") as fh:
            fh.write("cat_NOUN\t1900\t5\t2\n")
        store, stats = build_store([gz], english_config(1900, 1900))
        assert stats.malformed == 0
        assert store.lexical_totals[0] == 5

    def test_all_lines_rejected_gives_empty_store(self, tmp_path):
        lines = ["not a record", "123\t1900\t5\t2", "_NOUN_\t1900\t5\t2"]
        shards = write_shards(tmp_path, lines)
        store, stats = build_store(shards, english_config(1900, 1901))
        assert store.words == []
        assert stats.empty_years == {1900, 1901}
        assert stats.malformed == 1
        assert stats.nonlexical_rows == 1
        assert stats.wildcard_rows == 1


class TestMemoryContract:
    # The traced peak is 44.7 bytes per input line, set in the parse,
    # which holds 16 bytes per lexical row; a parse that also keeps an
    # int64 (token, year) key per line and int64 counts reaches 58.5.
    PEAK_BYTES_PER_LINE = 50

    def test_traced_peak_per_input_line(self, small_synth):
        """build_store's traced peak stays under a fixed number of bytes per input line.

        numpy reports its buffers to tracemalloc, so at one thread the
        peak is the same on every run.
        """
        result, _ = small_synth
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            _, stats = build_store(result.shard_paths, english_config(1800, 1999), volume_sidecar=result.volumes_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert (stats.lines, len(result.shard_paths)) == (400_000, 8)
        assert peak / stats.lines < self.PEAK_BYTES_PER_LINE

    def test_no_stage_after_the_parse_passes_its_traced_peak(self, small_synth, tmp_path):
        """At one thread, the traced peak from the merge on stays below the parse's.

        The shards are given twice, so every row repeats and the collapse
        sums groups; one more shard tags rows of the first with a rare
        variant, which the 1% rule drops, so the kept rows are compacted.
        The rows stay at their parsed widths (an int64 key and uint32
        counts), and each later stage holds one spare column at most
        beside them, and one block's temporaries.
        """
        result, _ = small_synth
        variants = tmp_path / "variants.tsv"
        with open(result.shard_paths[0], encoding="utf-8") as fh:
            rows = [line.split("\t") for line in fh]
        variants.write_text("".join(f"{token}_ADJ\t{year}\t1\t1\n" for token, year, *_ in rows), encoding="utf-8")
        peaks = {}
        merge = ingest._merge

        def traced_merge(*args):
            peaks["parse"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            return merge(*args)

        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            with mock.patch.object(ingest, "_merge", traced_merge):
                _, stats = build_store([*result.shard_paths, variants, *result.shard_paths], english_config(1800, 1999))
            peaks["after"] = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert stats.duplicate_rows >= 400_000 and stats.dropped_pos_variants > 0
        assert peaks["after"] < peaks["parse"], peaks

    def test_collapse_holds_the_order_and_one_spare_column(self):
        """Beyond its three input columns, the collapse's traced peak is one spare column and a few blocks.

        Each key packs with its row index into an int64, so the packed
        sort runs, and the stable argsort does not.  Almost every key is
        distinct, so group starts held for the whole column would take
        about as much again as the spare; found a block of rows at a
        time, they take one block's worth.
        """
        n, block_rows = 1_000_000, 1 << 13
        rng = np.random.default_rng(5)
        key, match, vol = rng.permutation(n), rng.integers(0, 1000, n), rng.integers(0, 100, n)
        key[1::100] = key[::100]
        unique = np.unique(key)
        expected = (unique, np.bincount(key, match)[unique], int(vol.sum()))
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            with mock.patch("lexcore.store._BLOCK_ROWS", block_rows):
                with mock.patch.object(np, "argsort", side_effect=AssertionError("the stable argsort ran")):
                    key, match, vol = group_sum(key, match, vol)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            if not tracing:
                tracemalloc.stop()
        assert (key == expected[0]).all() and (match == expected[1]).all() and int(vol.sum()) == expected[2]
        assert peak <= 8 * n + 4 * 8 * block_rows


# ------------------------------------------------- byte-level shard parser

_TAGS = sorted(SUFFIX_TAGS)
_LETTERS = st.text(alphabet="abcdeéß", min_size=1, max_size=10)
_GRAMMAR_TOKENS = st.one_of(
    _LETTERS,
    st.builds(lambda w, t: f"{w}_{t}", _LETTERS, st.sampled_from(_TAGS)),
    st.sampled_from(_TAGS).map(lambda t: f"_{t}_"),
    st.builds(lambda a, b: f"{a}’{b}", _LETTERS, _LETTERS),
).map(lambda t: t.encode("utf-8"))
_HOSTILE_TOKENS = st.one_of(
    st.builds(lambda w, n: w * n, _GRAMMAR_TOKENS, st.integers(3, 12)),  # often > 32 bytes
    st.sampled_from([b"", b"\x00", b"caf\xe9", b"\xff\xfe", b"\xe2\x80", b"x" * 32, b"y" * 33]),
    st.binary(max_size=6),
)
# Variants of a pooled token: equal up to a trailing NUL, the first
# 8-byte word, a shared prefix, or 32 bytes.
_VARIANTS = [
    lambda t: t,
    lambda t: t + b"\x00",
    lambda t: t + b"_NOUN",
    lambda t: t + b"_VERB",
    lambda t: b"prefix__" + t,
    lambda t: t[:-1] or t,
    lambda t: (t * 33)[:32],
    lambda t: (t * 33)[:33],
]
_HOSTILE_NUMBERS = st.one_of(
    st.builds(lambda z, v: "0" * z + str(v), st.integers(0, 24), st.integers(0, 2**65)),
    st.sampled_from(
        [str(2**63 - 1), str(2**63), "0" * 5 + str(2**63), "", "-4", "x", "1.0", " 12", "1_0",
         "190²", "١٩٠٠", "19:0", "1/0", "9" * 18, "9" * 19, "0" * 30]
    ),
).map(lambda n: n.encode("utf-8"))


@st.composite
def _shards(draw) -> bytes:
    """A shard from the token grammar, with hostile tokens, fields and line ends.

    Most lines are well formed, with tokens drawn from a small pool and
    varied, so that near-equal tokens meet in one chunk.  Half the
    shards have no CR, so the chunks that the parser rewrites to LF
    line ends are a minority.
    """
    pool = draw(st.lists(st.one_of(_GRAMMAR_TOKENS, _GRAMMAR_TOKENS, _HOSTILE_TOKENS), min_size=1, max_size=4))
    with_cr = draw(st.booleans())

    def mostly(good, bad=_HOSTILE_NUMBERS):
        return draw(bad) if draw(st.integers(0, 7)) == 0 else draw(good)

    lines = []
    for _ in range(draw(st.integers(0, 60))):
        kind = draw(st.integers(0, 9))
        if kind < 7:
            token = draw(st.sampled_from(_VARIANTS))(draw(st.sampled_from(pool)))
            year = mostly(st.integers(1896, 1904).map(lambda y: str(y).encode()))
            counts = [mostly(st.integers(0, 30).map(lambda c: str(c).encode())) for _ in "mv"]
            line = b"\t".join([token, year, *counts])
        elif kind == 7:
            line = b"\t".join(draw(st.lists(st.sampled_from(pool) | _HOSTILE_NUMBERS, max_size=6)))
        elif kind == 8:
            line = b""
        else:
            line = draw(st.binary(max_size=12))
        end = draw(st.sampled_from([b"\n"] * 18 + [b"\r\n", b"\r"])) if with_cr else b"\n"
        lines.append(line + end)
    data = b"".join(lines)
    return data[:-1] if draw(st.booleans()) else data


def _parsed(path: Path, config) -> tuple[list, list, IngestStats]:
    """One shard parsed alone, decoded through its token table.

    Returns the sorted (token, year) of every row that passes the line
    rules, from the cells handed to the table's mark method, so a
    repeated row is there twice; the sorted (word, pos, year, match,
    volumes) of the lexical ones; and the shard's counters.
    """
    table = ingest._TokenTable(config)
    with mock.patch.object(table, "mark", wraps=table.mark) as mark:
        stats, columns = ingest._parse_shard(path, table)
    span = config.year_end - config.year_start + 1
    tokens = {tid: raw.decode("utf-8") for raw, tid in table.ids.items() if table.bases[tid] != ingest._NOT_UTF8}
    words = list(table.word_ids)
    cells = [cell for (chunk_cells,), _ in mark.call_args_list for cell in chunk_cells.tolist()]
    keys = sorted((tokens[c // span], config.year_start + c % span) for c in cells)
    key, match, vol = (np.concatenate(c).tolist() if c else [] for c in columns)
    rows = sorted(
        (words[k // span // POS_COUNT], PosTag(k % POS_COUNT), config.year_start + k // POS_COUNT % span, m, v)
        for k, m, v in zip(key, match, vol)
    )
    return keys, rows, stats


def _whole(store, stats) -> tuple:
    """Everything a build yields: words, each column's dtype and values, and the counters."""
    columns = (
        "word_offsets", "pos_id", "year_offset", "match_slots", "match_exceptions", "volume_slots", "volume_exceptions",
        "lexical_totals", "volume_totals",
    )
    return store.words, {c: (getattr(store, c).dtype.str, getattr(store, c).tolist()) for c in columns}, stats


def _sidecar(directory: Path, years) -> Path:
    path = directory / "volumes.tsv"
    path.write_text("".join(f"{y}\t{y % 7 + 1}\n" for y in years), encoding="utf-8")
    return path


def _build_or_overflow(paths, config):
    """build_store's (store, stats), or None when its lexical counts total 2**63 or more."""
    try:
        return build_store(paths, config)
    except CountOverflow:
        return None


def _same_store(a, b) -> bool:
    columns = ("word_id", "pos_id", "year", "match_count", "volume_count", "lexical_totals")
    return a.words == b.words and all(np.array_equal(getattr(a, c), getattr(b, c)) for c in columns)


def _assert_parsed_like_read_shard(parsed, data: bytes, config) -> list:
    """Check a shard's :func:`_parsed` result against :func:`read_shard`; return read_shard's rows."""
    keys, lexical, stats = parsed
    rows, counters = read_shard(data, config.year_start, config.year_end)
    assert keys == sorted((token, year) for token, year, _, _ in rows)
    counters.update(wildcard_rows=0, nonlexical_rows=0)
    oracle_lexical = []
    for token, year, match, volumes in rows:
        pair = classify_token(token, config)
        if isinstance(pair, str):
            counters[pair] += 1
        else:
            oracle_lexical.append((*pair, year, match, volumes))
    assert lexical == sorted(oracle_lexical)
    assert {k: getattr(stats, k) for k in counters} == counters
    return rows


class TestShardParser:
    @settings(max_examples=300, deadline=None)
    @given(_shards(), st.sampled_from([1, 7, 64, 256, 1 << 20]), st.sampled_from([ingest._MIX, np.uint64(0)]))
    def test_kernel_matches_oracle(self, data, chunk_bytes, mix):
        """A zero mix makes tokens that share their last word collide."""
        config = english_config(1898, 1902)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "shard.tsv"
            path.write_bytes(data)
            with mock.patch.object(ingest, "_CHUNK_BYTES", chunk_bytes), mock.patch.object(ingest, "_MIX", mix):
                parsed = _parsed(path, config)
                built = _build_or_overflow([path], config)
            words, columns, counters = _store_oracle([path], config)
        rows = _assert_parsed_like_read_shard(parsed, data, config)
        # A build overflows exactly when the lexical rows' match or volume counts total 2**63 or more.
        lexical = [r for r in rows if not isinstance(classify_token(r[0], config), str)]
        assert (built is None) == any(sum(r[i] for r in lexical) >= 2**63 for i in (2, 3))
        if built is not None:
            store, stats = built
            assert store.words == words
            assert {name: getattr(store, name).tolist() for name in columns} == columns
            assert {name: getattr(stats, name) for name in counters} == counters

    def test_pathological_lengths_match_oracle(self, tmp_path):
        """One chunk: thousands of short lines, tokens of a MiB, numeric fields of 100,000 digits.

        A parse that costs rows x the longest field takes minutes here.
        """
        token, zeros = "a" * (1 << 20), "0" * 100_000
        short = ["cat", "dog_NOUN", "dog_VERB", "vol.", "_NOUN_"]
        lines = [f"{short[i % 5]}\t{1897 + i % 7}\t{i}\t{i % 3}" for i in range(5000)] + [
            f"{token}\t1900\t3\t1",
            f"{token}\t1901\t4\t1",
            f"{token}\t1901\t5\t1",  # a duplicate row of a long token
            f"{token}b\t1900\t5\t1",
            f"{token}c\t1900\t5\t1",  # equal to the last in length and in its first 32 bytes
            f"{token}_VERB\t1900\t6\t1",
            f"{token}\xe9\t1900\t6\t1",
            f"word\t{zeros}1900\t7\t1",
            f"word\t1{zeros}\t7\t1",  # years past 2**63: out of range
            f"word\t{2**63}\t7\t1",
            f"word\t1901\t{zeros}8\t{zeros}1",
            f"word\t1901\t{'9' * 100_000}\t1",  # a count past 2**63: malformed
            f"word\t1902\t1\t{zeros}",  # matches in zero volumes
            f"word\tx{zeros}1902\t9\t1",
            f"word\t1902\t{zeros}{2**63 - 1}\t1",
            f"word\t1902\t1\t{zeros}{2**63}",
            f"word\t1902\t{10**18}\t{2**64 - 1}",
        ]
        data = "\n".join(lines).encode("utf-8")
        path = tmp_path / "shard.tsv"
        path.write_bytes(data)
        config = english_config(1898, 1902)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # read_shard parses each field with int()
        try:
            with mock.patch.object(ingest, "_CHUNK_BYTES", 2 * len(data)):
                _assert_parsed_like_read_shard(_parsed(path, config), data, config)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_hostile_lines_are_malformed(self, tmp_path):
        lines = [
            b"good\t1900\t5\t2",
            b"caf\xe9\t1900\t3\t1",
            "word\t190²\t5\t2".encode(),
            "word\t١٩٠٠\t5\t2".encode(),
            f"word\t1900\t{2 ** 63}\t1".encode(),
            f"word\t1900\t1\t{2 ** 63}".encode(),
            f"word\t{'0' * 30}1900\t{2 ** 62}\t1".encode(),
            b"time_NOUN\t1900\t420",  # wrong arity
            b"time\t1900\tx\t5",
            b"time\t1900\t-4\t5",
            b"\t1900\t4\t5",  # empty token
            b"time\t1900\t4\t0",  # matches in zero volumes: invalid_counts
        ]
        path = tmp_path / "shard.tsv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        store, stats = build_store([path], english_config(1900, 1900))
        assert (stats.lines, stats.malformed, stats.invalid_counts) == (12, 9, 1)
        assert store.words == ["good", "word"]
        assert store.lexical_totals[0] == 5 + 2**62

    def test_universal_newlines_kept(self, tmp_path):
        path = tmp_path / "shard.tsv"
        path.write_bytes(b"a\t1900\t1\t1\rb\t1900\t2\t1\r\nc\t1900\t4\t1\r\r\nd\t1900\t8\t1")
        store, stats = build_store([path], english_config(1900, 1900))
        assert (stats.lines, stats.malformed) == (5, 1)
        assert store.words == ["a", "b", "c", "d"]
        assert store.lexical_totals[0] == 15

    def test_yearly_totals_are_exact_int64(self, tmp_path):
        lines = [f"a\t1900\t{2 ** 53 + 1}\t1", "b\t1900\t1\t1"]
        store, _ = build_store(write_shards(tmp_path, lines), english_config(1900, 1900))
        assert int(store.match_count.sum()) == 2**53 + 2
        assert store.lexical_totals[0] == 2**53 + 2

    def test_gzip_shard_matches_plain(self, tmp_path):
        lines = [f"w{i % 97}_NOUN\t{1900 + i % 3}\t{i + 1}\t1" for i in range(5000)]
        plain = write_shards(tmp_path, lines)
        gz = tmp_path / "shard.tsv.gz"
        gz.write_bytes(gzip.compress(plain[0].read_bytes(), mtime=0))
        with mock.patch.object(ingest, "_CHUNK_BYTES", 1000):
            a, sa = build_store(plain, english_config(1900, 1902))
            b, sb = build_store([gz], english_config(1900, 1902))
        assert sa == sb and _same_store(a, b)

    def test_eight_threads_give_the_single_thread_store(self, tmp_path):
        rng = np.random.default_rng(11)
        tokens = [f"w{i}" + ("_NOUN" if i % 3 else "") for i in range(400)] + ["_VERB_", "vol.", "caf\xe9"]
        paths = []
        for s in range(16):
            n = 4000
            tid, year = rng.integers(0, len(tokens), n), rng.integers(1895, 1906, n)
            match, vol = rng.integers(0, 10**6, n), rng.integers(0, 50, n)
            text = "".join(f"{tokens[t]}\t{y}\t{m}\t{v}\n" for t, y, m, v in zip(tid, year, match, vol))
            path = tmp_path / f"shard-{s:02d}.tsv"
            path.write_bytes(text.encode("utf-8") + b"bad\xff\t1900\t1\t1\n" + (b"x\r\n" if s % 4 == 0 else b""))
            paths.append(path)
        config = english_config(1898, 1903)
        built = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(ingest, "_CHUNK_BYTES", 4096):
                for threads in (1, 8):
                    worker = threading.Thread(
                        target=lambda n=threads: built.setdefault(n, build_store(paths, config, threads=n))
                    )
                    worker.start()
                    worker.join(timeout=120)
                    assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        (one, one_stats), (eight, eight_stats) = built[1], built[8]
        assert one_stats == eight_stats
        assert save_store(one, tmp_path / "one.lxst") == save_store(eight, tmp_path / "eight.lxst")
        assert (tmp_path / "one.lxst").read_bytes() == (tmp_path / "eight.lxst").read_bytes()
