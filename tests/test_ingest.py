"""Parsing, filtering and aggregation tests for the ingest stage."""

from __future__ import annotations

import gzip
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcore import ingest

from lexcore.alphabets import alphabet_preset
from lexcore.errors import CountOverflow, WildcardToken
from lexcore.ingest import build_store, is_lexical, split_pos
from lexcore.postags import SUFFIX_TAGS, PosTag
from lexcore.store import save_store

from conftest import (
    HAND_LINES,
    english_config,
    iter_clean_records,
    one_percent_rule,
    read_shard,
    write_shards,
)

EN = alphabet_preset("english")


class TestSplitPos:
    def test_suffix_stripped(self):
        assert split_pos("time_NOUN") == ("time", PosTag.NOUN)

    def test_no_suffix(self):
        assert split_pos("time") == ("time", PosTag.UNTAGGED)

    def test_wildcard(self):
        with pytest.raises(WildcardToken):
            split_pos("_NOUN_")

    def test_wildcard_without_trailing_underscore(self):
        with pytest.raises(WildcardToken):
            split_pos("_VERB")

    def test_unknown_suffix_is_untagged(self):
        assert split_pos("time_XYZ") == ("time_XYZ", PosTag.UNTAGGED)

    def test_inner_underscore_kept(self):
        word, pos = split_pos("foo_bar_NOUN")
        assert (word, pos) == ("foo_bar", PosTag.NOUN)


class TestIsLexical:
    def test_apostrophe_word(self):
        assert is_lexical("don't", EN)

    def test_period_rejected(self):
        assert not is_lexical("vol.", EN)

    def test_two_apostrophes_rejected(self):
        assert not is_lexical("it''s", EN)

    def test_digits_rejected(self):
        assert not is_lexical("a1", EN)

    def test_typographic_apostrophe_counts(self):
        assert is_lexical("don’t", EN)
        assert not is_lexical("don’t'", EN)

    def test_apostrophe_only_rejected(self):
        assert not is_lexical("'", EN)

    def test_accented_french(self):
        fr = alphabet_preset("french")
        assert is_lexical("écœurés", fr)
        assert not is_lexical("écœurés", EN)

    @given(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1, max_size=12),
        st.integers(min_value=0, max_value=12),
    )
    def test_letters_plus_one_apostrophe_pass(self, letters, pos):
        assert is_lexical(letters, EN)
        with_apostrophe = letters[: pos % (len(letters) + 1)] + "'" + letters[pos % (len(letters) + 1) :]
        assert is_lexical(with_apostrophe, EN)
        assert not is_lexical(with_apostrophe + "'", EN)
        assert not is_lexical(letters + "7", EN)
        assert not is_lexical(letters + "-", EN)


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
        st.dictionaries(
            st.sampled_from(list(PosTag)),
            st.integers(min_value=0, max_value=10**9),
            min_size=1,
        ).filter(lambda d: sum(d.values()) > 0)
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

        # Brute force: read every line, filter by the public predicates.
        lexical = []
        for p in shards:
            for token, year, match, volumes in read_shard(p.read_bytes(), 1900, 1904)[0]:
                try:
                    word, pos = split_pos(token)
                except WildcardToken:
                    continue
                if is_lexical(word, config.alphabet):
                    lexical.append((word, pos, year, match, volumes))
        totals = dict.fromkeys(range(1900, 1905), 0)
        for _, _, year, match, _ in one_percent_rule(lexical):
            totals[year] += match
        assert store.lexical_totals.tolist() == list(totals.values())
        assert stats.empty_years == {y for y, t in totals.items() if t == 0} == {1903}


class TestBuildStore:
    def test_hand_fixture_stats(self, hand_store):
        store, stats = hand_store
        assert stats.malformed == 0
        assert stats.wildcard_rows == 1
        assert stats.nonlexical_rows == 1
        assert stats.dropped_pos_variants == 1
        assert stats.empty_years == {1903}
        assert sorted(store.words) == ["cat", "dog", "don't", "new", "press", "the", "time"]

    def test_shard_order_independence(self, tmp_path):
        config = english_config(1900, 1904)
        shards = write_shards(tmp_path / "a", HAND_LINES, n_shards=3)
        one = write_shards(tmp_path / "b", HAND_LINES, n_shards=1)
        s1, _ = build_store(shards, config)
        s2, _ = build_store(list(reversed(shards)), config)
        s3, _ = build_store(one, config)
        for other in (s2, s3):
            assert s1.words == other.words
            assert (s1.word_id == other.word_id).all()
            assert (s1.pos_id == other.pos_id).all()
            assert (s1.year == other.year).all()
            assert (s1.match_count == other.match_count).all()
            assert (s1.volume_count == other.volume_count).all()
            assert (s1.lexical_totals == other.lexical_totals).all()

    def test_thread_count_does_not_change_store(self, tmp_path):
        config = english_config(1900, 1904)
        shards = write_shards(tmp_path, HAND_LINES, n_shards=4)
        s1, _ = build_store(shards, config, threads=1)
        s2, _ = build_store(shards, config, threads=4)
        assert s1.words == s2.words
        assert (s1.match_count == s2.match_count).all()

    def test_store_same_without_malloc_trim(self, tmp_path):
        """Handing freed pages back is skipped where the C library has no malloc_trim."""
        config = english_config(1900, 1904)
        shards = write_shards(tmp_path, HAND_LINES, n_shards=2)
        calls = []
        with mock.patch.object(ingest, "_malloc_trim", return_value=lambda pad: calls.append(pad)):
            s1, _ = build_store(shards, config)
        with mock.patch.object(ingest, "_malloc_trim", return_value=None):
            s2, _ = build_store(shards, config)
        assert calls == [0, 0, 0]
        assert _same_store(s1, s2)

    def test_conservation_per_year(self, hand_store):
        store, _ = hand_store
        for year in store.years:
            rows = store.year == year
            assert int(store.match_count[rows].sum()) == store.lexical_totals[year - store.year_start]

    def test_filter_idempotence(self, hand_store):
        """Re-filtering the cleaned output changes nothing."""
        store, _ = hand_store
        rows = list(iter_clean_records(store))
        assert all(is_lexical(word, EN) for word, *_ in rows)
        assert one_percent_rule(rows) == rows

    def test_duplicate_rows_are_summed_and_counted(self, tmp_path):
        (tmp_path / "s1.tsv").write_text("cat_NOUN\t1900\t5\t2\n", encoding="utf-8")
        (tmp_path / "s2.tsv").write_text("cat_NOUN\t1900\t7\t3\n", encoding="utf-8")
        store, stats = build_store(
            [tmp_path / "s1.tsv", tmp_path / "s2.tsv"], english_config(1900, 1900)
        )
        assert stats.duplicate_rows == 1
        assert store.lexical_totals[0] == 12

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
    shards have no CR: any CR sends its chunk to the per-line path.
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


def _rows(part) -> list:
    tokens = [part.tokens[i] for i in part.tid.tolist()]
    return sorted(zip(tokens, part.year.tolist(), part.match.tolist(), part.volume.tolist()))


def _build_or_overflow(paths, config):
    """build_store's (store, stats), or None when a sum of counts reaches 2**63."""
    try:
        return build_store(paths, config)
    except CountOverflow:
        return None


def _exact_only(parser, chunk):
    parser.exact(chunk.splitlines())


def _same_store(a, b) -> bool:
    columns = ("word_id", "pos_id", "year", "match_count", "volume_count", "lexical_totals")
    return a.words == b.words and all(np.array_equal(getattr(a, c), getattr(b, c)) for c in columns)


class TestShardParser:
    @settings(max_examples=300, deadline=None)
    @given(_shards(), st.sampled_from([1, 7, 64, 256, 1 << 20]), st.sampled_from([ingest._MIX, np.uint64(0)]))
    def test_kernel_matches_per_line_path_and_oracle(self, data, chunk_bytes, mix):
        """A zero mix makes tokens that share their last word collide."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "shard.tsv"
            path.write_bytes(data)
            config = english_config(1898, 1902)
            with mock.patch.object(ingest, "_CHUNK_BYTES", chunk_bytes), mock.patch.object(ingest, "_MIX", mix):
                kernel = ingest._parse_shard(path, 1898, 1902)
                built = _build_or_overflow([path], config)
                with mock.patch.object(ingest, "_parse_chunk", _exact_only):
                    exact = ingest._parse_shard(path, 1898, 1902)
                    exact_built = _build_or_overflow([path], config)
        assert _rows(kernel) == _rows(exact)
        assert kernel.stats == exact.stats
        rows, counters = read_shard(data, 1898, 1902)
        # Both paths overflow alike, and only when the kept counts can.
        assert (built is None) == (exact_built is None)
        if built is None:
            assert sum(r[2] for r in rows) >= 2**63 or sum(r[3] for r in rows) >= 2**63
        else:
            (store, stats), (exact_store, exact_stats) = built, exact_built
            assert stats == exact_stats
            assert _same_store(store, exact_store)
        assert _rows(kernel) == rows
        assert {k: getattr(kernel.stats, k) for k in counters} == counters
        assert set(kernel.tokens) == {row[0] for row in rows}

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
