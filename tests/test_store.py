"""Store queries, persistence round-trips and corruption detection."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import re
import stat
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from lexcore.cli import main
from lexcore.errors import (
    ChecksumMismatch,
    CountOverflow,
    EmptyWindow,
    EmptyYearError,
    FormatVersionMismatch,
    LexcoreError,
)
from lexcore.ingest import build_store, group_sum, read_volume_sidecar
from lexcore.metrics import (
    core_size_for_coverage,
    coverage_series,
    group_frequency_series,
    pearson_correlation,
    turnover_series,
)
from lexcore.postags import POS_COUNT, PosTag
from lexcore.serialize import replacing, write_text_atomic
from lexcore.store import (
    FORMAT_VERSION,
    CorpusStore,
    check_count_total,
    index_sum,
    load_store,
    pos_totals,
    save_store,
)
from lexcore.windows import WindowSpec, aggregate_window, bookshare_core, frequency_core, standard_windows

from conftest import (
    HEADER_EDITS,
    english_config,
    relative_frequency,
    rewrite_column,
    rewrite_store,
    row_keys,
    store_layout,
    table_words,
    tiny_store,
    wide_store,
    write_shards,
    year_slice,
)

# Hand-computed relative frequencies of the conftest fixture.
HAND_FREQS = {
    (1900, "the"): 0.40,
    (1900, "time"): 0.30,
    (1900, "cat"): 0.20,
    (1900, "dog"): 0.10,
    (1901, "the"): 0.30,
    (1901, "cat"): 0.25,
    (1901, "time"): 0.20,
    (1901, "dog"): 0.15,
    (1901, "don't"): 0.10,
    (1902, "press"): 0.99,
    (1902, "the"): 0.01,
    (1904, "the"): 0.50,
    (1904, "cat"): 0.30,
    (1904, "new"): 0.20,
}


class TestRelativeFrequency:
    def test_hand_table(self, hand_store):
        store, _ = hand_store
        for (year, word), expected in HAND_FREQS.items():
            assert relative_frequency(store, word, year) == pytest.approx(expected, abs=1e-12)

    def test_absent_word_is_zero(self, hand_store):
        store, _ = hand_store
        assert relative_frequency(store, "zebra", 1900) == 0.0

    def test_single_word_corpus(self, tmp_path):
        shards = write_shards(tmp_path, ["x_NOUN\t1900\t7\t2"])
        store, _ = build_store(shards, english_config(1900, 1900))
        assert relative_frequency(store, "x", 1900) == 1.0

    def test_empty_year_raises(self, hand_store):
        store, _ = hand_store
        with pytest.raises(EmptyYearError):
            relative_frequency(store, "the", 1903)

    def test_year_outside_range(self, hand_store):
        store, _ = hand_store
        with pytest.raises(ValueError):
            relative_frequency(store, "the", 1880)
        with pytest.raises(ValueError):
            coverage_series(["the"], store, [1880])

    def test_pos_variants_sum_at_word_level(self, hand_store):
        # time = time_NOUN(24) + time_VERB(6) in 1900.
        store, _ = hand_store
        assert relative_frequency(store, "time", 1900) == pytest.approx(0.30, abs=1e-12)


class TestYearSlice:
    def test_entries_and_totals(self, hand_store):
        store, _ = hand_store
        sl = year_slice(store, 1900)
        assert sl.lexical_total == 100
        assert sl.volume_total == 10
        assert sl.entries[("time", PosTag.NOUN)] == (24, 7)
        assert sl.entries[("time", PosTag.VERB)] == (6, 3)
        assert sl.lexical_total == sum(m for m, _ in sl.entries.values())

    def test_string_keyed_view_matches_indexed_query(self, hand_store):
        """Dictionary compaction must not change any relative frequency."""
        store, _ = hand_store
        for year in (1900, 1901, 1902, 1904):
            sl = year_slice(store, year)
            by_word: dict[str, int] = {}
            for (word, _), (match, _) in sl.entries.items():
                by_word[word] = by_word.get(word, 0) + match
            for word, match in by_word.items():
                assert relative_frequency(store, word, year) == match / sl.lexical_total


# Every stored column, in file order.
COLUMNS = [
    "word_offsets", "pos_id", "year_offset", "match_slots", "match_exceptions", "volume_slots", "volume_exceptions",
    "volume_totals",
]


class TestPersistence:
    def test_round_trip_queries_identical(self, hand_store, tmp_path):
        store, _ = hand_store
        path = tmp_path / "fixture.lxst"
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.words == store.words
        assert loaded.language == store.language
        assert (loaded.lexical_totals == store.lexical_totals).all()
        assert (loaded.volume_totals == store.volume_totals).all()
        for year in store.years:
            if store.lexical_totals[year - store.year_start] == 0:
                continue
            for word in store.words:
                assert relative_frequency(loaded, word, year) == relative_frequency(
                    store, word, year
                )

    def test_digest_is_the_store_identity(self, hand_store, tmp_path):
        store, _ = hand_store
        path = tmp_path / "fixture.lxst"
        digest = save_store(store, path)
        assert digest == path.read_bytes()[-32:].hex()
        assert load_store(path).digest == digest
        assert store.digest is None

    def test_file_layout_is_payload_then_its_digest(self, hand_store, tmp_path):
        """The streamed file is byte for byte the documented version-4 layout, for the hand
        fixture (no exceptions) and for ``wide_store`` (both exception lists non-empty)."""
        assert FORMAT_VERSION == 4
        # hand: spans under 256 years take u1 offsets; no count reaches
        # 65,535, so both exception lists are empty. Rows per word: cat 3,
        # dog 2, don't 1, new 1, press 1, the 4, time 3.
        hand = hand_store[0]
        assert hand.words == ["cat", "dog", "don't", "new", "press", "the", "time"]
        hand_columns = [
            [0, 3, 5, 6, 7, 8, 12, 15], hand.pos_id, hand.year - 1900, hand.match_count, [],
            hand.volume_count, [], [10] * 5,
        ]
        # wide: a sentinel slot for each count of 65,535 or more, whose count is its column's next exception.
        wide = wide_store()
        wide_columns = [
            [0, 2, 3, 5], [PosTag.NOUN, PosTag.NOUN, PosTag.VERB, PosTag.ADJ, PosTag.ADJ], [0, 1, 0, 0, 1],
            [65_535, 5, 65_535, 65_535, 300], [70_000, 2**40, 65_535],
            [65_535, 3, 300, 65_535, 1], [65_535, 2**20], [2**21, 2**20],
        ]
        dtypes = ["<i8", "|u1", "|u1", "<u2", "<i8", "<u2", "<i8", "<i8"]
        for name, store, values, exceptions in (("hand", hand, hand_columns, (0, 0)), ("wide", wide, wide_columns, (3, 2))):
            path = tmp_path / f"{name}.lxst"
            save_store(store, path)
            blob = path.read_bytes()
            magic, version, header_len = struct.unpack_from("<4sII", blob)
            words = "\n".join(store.words).encode("utf-8")
            assert (magic, version) == (b"LXST", 4)
            assert json.loads(blob[12 : 12 + header_len]) == {
                "language": "english", "year_start": store.year_start, "year_end": store.year_end,
                "n_rows": len(store.pos_id), "words_bytes": len(words),
                "n_match_exceptions": exceptions[0], "n_volume_exceptions": exceptions[1],
            }
            payload = blob[: 12 + header_len] + words
            for column, dtype, column_values in zip(COLUMNS, dtypes, values, strict=True):
                assert getattr(store, column).tolist() == np.asarray(column_values).tolist(), (name, column)
                payload += bytes(-len(payload) % 4096) + np.asarray(column_values).astype(dtype).tobytes()
            assert blob == payload + hashlib.sha256(payload).digest(), name
        assert not list(tmp_path.glob("*.tmp"))

    def test_empty_store_round_trip(self, tmp_path):
        shards = write_shards(tmp_path, ["not a record"])
        store, _ = build_store(shards, english_config(1900, 1901))
        path = tmp_path / "empty.lxst"
        digest = save_store(store, path)
        loaded = load_store(path)
        assert loaded.digest == digest
        assert loaded.words == [] and len(loaded.word_id) == 0

    def test_truncated_file(self, hand_store, tmp_path):
        store, _ = hand_store
        path = tmp_path / "fixture.lxst"
        save_store(store, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ChecksumMismatch):
            load_store(path)

    @pytest.mark.parametrize("size", [0, 1, 43])
    def test_empty_or_cut_file_is_refused_before_mapping(self, tmp_path, size):
        path = tmp_path / "short.lxst"
        path.write_bytes(b"LXST\x04\x00\x00\x00".ljust(size, b"\x00")[:size])
        with mock.patch("lexcore.store.mmap.mmap", side_effect=AssertionError("mapped")):
            with pytest.raises(ChecksumMismatch):
                load_store(path)

    def test_flipped_byte(self, hand_store, tmp_path):
        store, _ = hand_store
        path = tmp_path / "fixture.lxst"
        save_store(store, path)
        blob = bytearray(path.read_bytes())
        blob[60] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            load_store(path)

    def test_version_mismatch(self, hand_store, tmp_path):
        import hashlib

        store, _ = hand_store
        path = tmp_path / "fixture.lxst"
        save_store(store, path)
        blob = bytearray(path.read_bytes())[:-32]
        struct.pack_into("<I", blob, 4, 999)
        payload = bytes(blob)
        path.write_bytes(payload + hashlib.sha256(payload).digest())
        with pytest.raises(FormatVersionMismatch, match="rebuild it with `lexcore ingest`"):
            load_store(path)

    @pytest.mark.parametrize(
        "header",
        [b"not json", b"[]", b"{}", b'{"columns": [], "n_rows": 0, "n_words": 0, "words_bytes": 0, "year_start": 1, "year_end": 1}'],
    )
    def test_header_of_another_layout(self, tmp_path, header):
        """A file that verifies but whose header does not describe the version-4 columns."""
        payload = b"LXST" + struct.pack("<II", FORMAT_VERSION, len(header)) + header
        path = tmp_path / "odd.lxst"
        path.write_bytes(payload + hashlib.sha256(payload).digest())
        with pytest.raises(FormatVersionMismatch):
            load_store(path)

    def test_bad_magic(self, hand_store, tmp_path):
        import hashlib

        store, _ = hand_store
        path = tmp_path / "fixture.lxst"
        save_store(store, path)
        blob = bytearray(path.read_bytes())[:-32]
        blob[0:4] = b"NOPE"
        payload = bytes(blob)
        path.write_bytes(payload + hashlib.sha256(payload).digest())
        with pytest.raises(FormatVersionMismatch):
            load_store(path)

    @pytest.mark.parametrize("words", [["bb", "aa"], ["aa", "aa"]], ids=["unsorted", "duplicated"])
    def test_from_rows_refuses_words_not_ascending(self, words):
        """Store word ids follow word order, so the words must strictly ascend."""
        with pytest.raises(ValueError, match="not strictly ascending"):
            CorpusStore.from_rows(
                "english", 1900, 1900, words,
                key=row_keys([0, 1], [0, 0], [0, 0], 1),
                match_count=np.array([1, 1]), volume_count=np.array([1, 1]), volume_totals=[2],
            )

    @pytest.mark.parametrize(
        "key, match_count, volume_count, message, changes",
        [
            (row_keys([0, 0], [1, 0], [0, 0], 2), [1, 1], [1, 1], "row keys do not strictly ascend", {}),
            (row_keys([0, 0], [0, 0], [3, 3], 2), [1, 1], [1, 1], "row keys do not strictly ascend", {}),
            # bb's row before aa's: filed by a search of the keys, it would land under aa.
            (row_keys([1, 0], [0, 0], [0, 5], 2), [1, 1], [1, 1], "row keys do not strictly ascend", {}),
            (row_keys([0, 2], [0, 0], [0, 0], 2), [1, 1], [1, 1], "word_offsets do not ascend", {}),
            ([-1, 0], [1, 1], [1, 1], "word_offsets do not ascend", {}),
            (row_keys([0, 1], [0, 0], [0, 0], 2), [-1, 1], [1, 1], "column match_count holds a negative count", {}),
            (row_keys([0, 1], [0, 0], [0, 0], 2), [1, 1], [1, -(2**40)], "column volume_count holds a negative count", {}),
            # An unsigned count no i8 exception holds.
            (row_keys([0, 1], [0, 0], [0, 0], 2), [2**63, 1], [1, 1], "column match_count holds a count of 2**63 or more", {}),
            # A store file cannot hold these: page padding would hide the extra value, or the load would refuse it.
            (row_keys([0, 1], [0, 0], [0, 0], 2), [1, 1], [1, 1, 1], "column volume_slots holds 3 values, not 2", {}),
            (row_keys([0, 1], [0, 0], [0, 0], 1), [1, 1], [1, 1], "column volume_totals holds 2 values, not 1", {"year_end": 1900}),
            (row_keys([0], [0], [0], 2), [1], [1], "a store word is empty", {"words": [""]}),
            (row_keys([0, 1], [0, 0], [0, 0], 2), [1, 1], [1, 1], "a store word holds a newline", {"words": ["a\nb", "bb"]}),
            (row_keys([0, 1], [0, 0], [0, 0], 2), [1, 1], [1, 1], "a store word holds a NUL", {"words": ["a\0b", "bb"]}),
            (row_keys([0, 1], [0, 0], [0, 0], 2), [1, 1], [1, 1], "store language ['x'] is not a string", {"language": ["x"]}),
        ],
        ids=[
            "descending-in-word",
            "repeated",
            "descending-across-words",
            "past-vocabulary",
            "negative-key",
            "negative-match",
            "negative-volume",
            "match-2-63",
            "volume-count-too-long",
            "two-totals-one-year",
            "empty-word",
            "newline-in-word",
            "nul-in-word",
            "language-not-str",
        ],
    )
    def test_from_rows_refuses_rows_outside_the_contract(self, tmp_path, key, match_count, volume_count, message, changes):
        """``from_rows`` refuses a store outside the contract, and ``save_store`` one its file cannot hold."""
        args = {"language": "english", "year_start": 1900, "year_end": 1901, "words": ["aa", "bb"], "volume_totals": [2, 2]}
        with pytest.raises(ValueError, match=re.escape(message)):
            store = CorpusStore.from_rows(
                **{**args, **changes}, key=np.array(key), match_count=np.array(match_count), volume_count=np.array(volume_count)
            )
            save_store(store, tmp_path / "s.lxst")

    def test_word_offsets_hold_one_entry_more_than_the_words(self):
        store = CorpusStore.from_rows(
            "english", 1900, 1901, ["aa", "bb"], key=row_keys([0, 1], [0, 0], [0, 0], 2),
            match_count=np.array([1, 1]), volume_count=np.array([1, 1]), volume_totals=[2, 2],
        )
        with pytest.raises(ValueError, match=re.escape("column word_offsets holds 3 values, not 2")):
            dataclasses.replace(store, words=["aa"])

    @pytest.mark.parametrize("rows_per_word, swap", [(4096, False), (5000, False), (5000, True), (4096, True)])
    def test_row_order_is_checked_across_blocks(self, rows_per_word, swap):
        """Rows 65,535 and 65,536, swapped, descend.  With words of 4096 rows they end one
        block and start the next, at a word start; with words of 5000 rows both are inside one
        word, so inside one block, which ends at the word start 70,000."""
        span, n_words = 500, 18
        key = (np.arange(n_words)[:, None] * span * POS_COUNT + np.arange(rows_per_word)).ravel()
        ones = np.ones(len(key), dtype=np.int64)
        store = CorpusStore.from_rows("english", 1, span, [f"w{i:02}" for i in range(n_words)], key, ones, ones, np.ones(span))
        columns = {name: getattr(store, name).copy() for name in ("pos_id", "year_offset", "match_slots", "volume_slots")}
        if swap:
            for column in columns.values():
                column[65535:65537] = column[65536:65534:-1]
        refused = pytest.raises(ValueError, match=re.escape("store rows do not ascend by (year, pos id) within a word"))
        with refused if swap else contextlib.nullcontext():
            dataclasses.replace(store, **columns)

    def test_exceptions_are_patched_in_every_block(self, tmp_path):
        """Rows 5,000 and 70,000 hold exceptions: one in the first block of 65,536 rows the contract sums, one in the second."""
        span, n_words = 500, 18
        key = (np.arange(n_words)[:, None] * span * POS_COUNT + np.arange(4096)).ravel()
        match, ones = np.ones(len(key), dtype=np.int64), np.ones(len(key), dtype=np.int64)
        match[[5000, 70_000]] = [2**20, 2**40]
        year = key // POS_COUNT % span
        expected = np.bincount(year, minlength=span)
        expected[year[[5000, 70_000]]] += [2**20 - 1, 2**40 - 1]
        store = CorpusStore.from_rows("english", 1, span, [f"w{i:02}" for i in range(n_words)], key, match, ones, np.ones(span))
        save_store(store, tmp_path / "s.lxst")
        loaded = load_store(tmp_path / "s.lxst")
        for built in (store, loaded):
            assert built.lexical_totals.tolist() == expected.tolist()
            assert built.match_exceptions.tolist() == [2**20, 2**40]
            assert built.counts("match", slice(65_536, 73_728)).tolist() == match[65_536:].tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 4), st.sampled_from([1, 3, 300]), st.data())
    def test_every_store_from_rows_accepts_round_trips(self, tmp_path_factory, n_words, span, data):
        """Ascending keys inside the vocabulary, with counts up to each width's largest, so slots with and without exceptions."""
        words = [f"w{i}" for i in range(n_words)]
        keys = sorted(data.draw(st.sets(st.integers(0, n_words * span * POS_COUNT - 1), max_size=30)) if n_words else ())
        # 30 rows of the i8 bound sum below 2**63.
        bounds = st.sampled_from([2**8 - 1, 2**16 - 1, 2**32 - 1, (2**63 - 1) // 30])
        match, volume = (data.draw(st.lists(st.integers(0, data.draw(bounds)), min_size=len(keys), max_size=len(keys))) for _ in "mv")
        volume_totals = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=span, max_size=span))
        store = CorpusStore.from_rows(
            "english", 1900, 1900 + span - 1, words, key=np.array(keys, dtype=np.int64),
            match_count=np.array(match, dtype=np.int64), volume_count=np.array(volume, dtype=np.int64),
            volume_totals=volume_totals,
        )
        lexical = [0] * span
        for k, count in zip(keys, match):
            lexical[k // POS_COUNT % span] += count
        path = tmp_path_factory.mktemp("round-trip") / "s.lxst"
        digest = save_store(store, path)
        loaded = load_store(path)
        assert loaded.words == words and loaded.digest == digest
        assert store.lexical_totals.tolist() == loaded.lexical_totals.tolist() == lexical
        for name in COLUMNS:
            column = getattr(loaded, name)
            assert column.dtype == getattr(store, name).dtype and column.tolist() == getattr(store, name).tolist(), name
        assert loaded.match_count.tolist() == match and loaded.volume_count.tolist() == volume

    @pytest.mark.parametrize("words", [b"dog\ncat\n", b"cat\ncat\n"], ids=["unsorted", "duplicated"])
    def test_load_refuses_words_not_ascending(self, hand_store, tmp_path, words):
        """A file that verifies but whose words do not strictly ascend is a data error naming it."""
        store, _ = hand_store
        path = tmp_path / "fixture.lxst"
        save_store(store, path)
        rewrite_store(path, b"cat\ndog\n", words)
        with pytest.raises(FormatVersionMismatch, match=f"{re.escape(str(path))}: .*not strictly ascending"):
            load_store(path)

    def test_load_refuses_a_word_that_repeats_a_row(self, hand_store, tmp_path):
        """A signed file in which time's (1900, VERB) row is made a second (1900, NOUN) row.

        Its counts are unchanged, and from_rows refuses such keys before any
        store is built, so only the loaded file's row-order check can see it.
        """
        store, _ = hand_store
        path = tmp_path / "fixture.lxst"
        save_store(store, path)
        time = store.words.index("time")
        first = int(store.word_offsets[time])
        assert store.year[first : first + 2].tolist() == [1900, 1900]
        assert store.pos_id[first : first + 2].tolist() == [PosTag.NOUN, PosTag.VERB]
        rewrite_column(path, "pos_id", first + 1, PosTag.NOUN)
        with pytest.raises(FormatVersionMismatch, match=f"^{re.escape(str(path))}: store rows do not ascend"):
            load_store(path)

    # One edit of a conftest.wide_store column that breaks each format-4 rule:
    # its dtype, or its value at one row.
    @pytest.mark.parametrize(
        "column, dtype, row, value, message",
        [
            ("match_slots", "<u4", None, None, "column match_slots is stored as <u4, not <u2"),
            ("volume_slots", "|u1", None, None, "column volume_slots is stored as |u1, not <u2"),
            ("match_slots", None, 1, 2**16 - 1, "column match_slots holds 4 sentinels, but match_exceptions 3 values"),
            ("volume_slots", None, 0, 7, "column volume_slots holds 1 sentinels, but volume_exceptions 2 values"),
            ("volume_exceptions", None, 0, 2**16 - 2, "column volume_exceptions holds a value below 65535"),
        ],
        ids=[
            "slots-u4",
            "slots-u1",
            "sentinel-without-exception",
            "exception-without-sentinel",
            "exception-below-sentinel",
        ],
    )
    def test_count_column_rules_refuse_a_built_store_and_a_signed_file(self, tmp_path, column, dtype, row, value, message):
        """The store built with the edited column is a ValueError; its file, signed anew, a data error naming it.

        The layout fixes each width, so a file whose column was written at
        another width has the column's bytes read at the layout's: there,
        wide_store's sentinel slots are no longer as many as its exceptions.
        """
        store = wide_store()
        stored = getattr(store, column)
        edited = stored.astype(dtype or stored.dtype)
        if row is not None:
            edited[row] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(store, **{column: edited})
        path = tmp_path / "wide.lxst"
        save_store(store, path)
        if dtype:
            payload = bytearray(path.read_bytes()[:-32])
            _, _, offset = store_layout(payload)[column]
            data = edited.tobytes().ljust(stored.nbytes, b"\0")
            payload[offset : offset + len(data)] = data
            path.write_bytes(bytes(payload) + hashlib.sha256(payload).digest())
            message = f"column {column} holds [0-9]+ sentinels"
        else:
            rewrite_column(path, column, row, value)
            message = re.escape(message)
        with pytest.raises(FormatVersionMismatch, match=f"^{re.escape(str(path))}: {message}"):
            load_store(path)

    @pytest.mark.parametrize("old, new", HEADER_EDITS.values(), ids=HEADER_EDITS)
    def test_load_refuses_a_header_that_disagrees_with_the_file(self, hand_store, tmp_path, old, new):
        """A file that verifies, but one of whose header fields does not describe it, is refused naming it."""
        store, _ = hand_store
        path = tmp_path / "fixture.lxst"
        save_store(store, path)
        rewrite_store(path, old, new)
        with pytest.raises(FormatVersionMismatch, match=f"^{re.escape(str(path))}: header does not describe"):
            load_store(path)

    def test_loaded_columns_are_aligned_read_only_views(self, tmp_path):
        store = wide_store()
        path = tmp_path / "fixture.lxst"
        save_store(store, path)
        loaded = load_store(path)
        for name in COLUMNS:
            column = getattr(loaded, name)
            assert column.flags.c_contiguous and column.flags.aligned, name
            assert not column.flags.writeable and not column.flags.owndata, name
            assert column.dtype == getattr(store, name).dtype, name
            assert (column == getattr(store, name)).all(), name
            with pytest.raises(ValueError):
                column[:1] = 0
        for name in ("word_id", "year", "match_count", "volume_count"):
            assert (getattr(loaded, name) == getattr(store, name)).all(), name

    # The slot rule's edges: a count up to 65,534 is its u2 slot, and from
    # 65,535 on it is a sentinel slot and an exception (i8) in the list.
    # Each id is the count and the narrowest width that holds it.
    @pytest.mark.parametrize(
        "count, n_exceptions",
        [(255, 0), (256, 0), (2**16 - 2, 0), (2**16 - 1, 1), (2**16, 1), (2**32 - 1, 1), (2**32, 1), (2**63 - 1, 1)],
        ids=["255-u1", "256-u2", "65534-u2", "65535-u2", "65536-u4", "4294967295-u4", "4294967296-i8", "9223372036854775807-i8"],
    )
    def test_round_trip_at_each_count_width(self, tmp_path, count, n_exceptions):
        store = CorpusStore.from_rows(
            "english", 1900, 1901, ["aa", "bb"],
            key=row_keys([0, 0, 1], [0, 0, 1], [0, 1, 0], 2),
            match_count=np.array([count, 0, 0]), volume_count=np.array([0, count, 0]),
            volume_totals=[count, count],
        )
        save_store(store, tmp_path / "s.lxst")
        loaded = load_store(tmp_path / "s.lxst")
        for built in (store, loaded):
            assert built.match_slots.dtype == built.volume_slots.dtype == np.dtype("<u2")
            assert built.match_exceptions.dtype == built.volume_exceptions.dtype == np.dtype("<i8")
            assert built.match_slots.tolist() == [min(count, 2**16 - 1), 0, 0]
            assert built.volume_slots.tolist() == [0, min(count, 2**16 - 1), 0]
            assert built.match_exceptions.tolist() == built.volume_exceptions.tolist() == [count] * n_exceptions
            assert built.match_count.tolist() == [count, 0, 0] and built.volume_count.tolist() == [0, count, 0]
        table = aggregate_window(loaded, WindowSpec(1900, 1900))
        assert table.match_count.tolist() == [count] and table.volume_count.tolist() == [count]

    @pytest.mark.parametrize("count", ["match", "volume"])
    def test_a_count_beside_the_i8_top_is_refused(self, count):
        """The i8 round trip's store with a count of 1 more: its column totals 2**63."""
        counts = {"match_count": np.array([2**63 - 1, 0, 0]), "volume_count": np.array([0, 2**63 - 1, 0])}
        counts[f"{count}_count"][2] = 1
        with pytest.raises(CountOverflow):
            CorpusStore.from_rows(
                "english", 1900, 1901, ["aa", "bb"], key=row_keys([0, 0, 1], [0, 0, 1], [0, 1, 0], 2),
                volume_totals=[2**63 - 1, 2**63 - 1], **counts,
            )

    @pytest.mark.parametrize("year_start, year_end, dtype", [(1900, 2154, "u1"), (1900, 2155, "u2"), (1676, 2008, "u2")])
    def test_round_trip_at_each_year_width(self, tmp_path, year_start, year_end, dtype):
        span = year_end - year_start + 1
        years = [year_start, year_end, year_start + 1, year_end]
        store = CorpusStore.from_rows(
            "english", year_start, year_end, ["aa", "bb"],
            key=row_keys([0, 0, 1, 1], [y - year_start for y in years], [0, 0, 0, 0], span),
            match_count=np.array([1, 2, 3, 4]), volume_count=np.array([1, 1, 1, 1]),
            volume_totals=np.ones(span, dtype=int),
        )
        assert store.year_offset.dtype == np.dtype(dtype)
        save_store(store, tmp_path / "s.lxst")
        loaded = load_store(tmp_path / "s.lxst")
        assert loaded.year_offset.dtype == np.dtype(dtype)
        assert loaded.year.tolist() == years and loaded.word_id.tolist() == [0, 0, 1, 1]
        whole = aggregate_window(loaded, WindowSpec(year_start, year_end))
        last = aggregate_window(loaded, WindowSpec(year_end, year_end))
        assert dict(zip(table_words(whole), whole.match_count.tolist())) == {"aa": 3, "bb": 7}
        assert dict(zip(table_words(last), last.match_count.tolist())) == {"aa": 2, "bb": 4}

    def test_round_trip_preserves_downstream_metrics(self, small_store, tmp_path):
        """Dropout and coverage series are unchanged after save/load."""
        path = tmp_path / "small.lxst"
        save_store(small_store, path)
        loaded = load_store(path)
        specs = standard_windows(small_store.year_start, small_store.year_end)

        def downstream(store):
            cores = [frequency_core(aggregate_window(store, s), 200) for s in specs]
            return turnover_series(cores), coverage_series(cores[0], store, store.years)

        assert downstream(small_store) == downstream(loaded)
        # The query path reads the narrow columns only.
        assert "word_id" not in vars(loaded) and "year" not in vars(loaded)

    @pytest.mark.parametrize("which, window", [("small", (1800, 1849)), ("wide", (1900, 1901))], ids=["small", "wide"])
    def test_queries_never_build_the_derived_columns(self, small_store, tmp_path, which, window):
        """Every query reads counts through ``counts``: no whole-column ``match_count`` or ``volume_count`` is built."""
        path = tmp_path / "s.lxst"
        save_store(small_store if which == "small" else wide_store(), path)
        store = load_store(path)
        table = aggregate_window(store, WindowSpec(*window))
        core = frequency_core(table, 200)
        assert len(core.pos) == len(core) and len(bookshare_core(table, 1e-9).pos) == len(table)
        coverage_series(core, store, store.years)
        group_frequency_series(store.words[::7], store, store.years)
        core_size_for_coverage(table, 0.5)
        assert not {"word_id", "year", "match_count", "volume_count"} & vars(store).keys()



class TestAtomicWrite:
    """Stores and text outputs are written beside their target and renamed over it."""

    WRITERS = {
        "store": save_store,
        "text": lambda store, path: write_text_atomic(path, "text\n"),
    }

    @pytest.fixture
    def out_dir(self, tmp_path):
        """A directory of its own; ``hand_store`` writes its shards to ``tmp_path``."""
        (tmp_path / "out").mkdir()
        return tmp_path / "out"

    @pytest.mark.parametrize("writer", WRITERS)
    def test_failed_rename_leaves_no_temp_file(self, hand_store, out_dir, writer):
        path = out_dir / "target"
        path.write_bytes(b"old\n")
        with mock.patch("os.replace", side_effect=OSError("rename failed")), pytest.raises(OSError):
            self.WRITERS[writer](hand_store[0], path)
        assert list(out_dir.iterdir()) == [path]
        assert path.read_bytes() == b"old\n"

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(RuntimeError), replacing(tmp_path / "out") as fh:
            fh.write(b"part")
            raise RuntimeError("writer failed")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("writer", WRITERS)
    def test_new_file_takes_the_umask_mode(self, hand_store, out_dir, writer):
        old = os.umask(0o027)
        try:
            self.WRITERS[writer](hand_store[0], out_dir / "target")
        finally:
            os.umask(old)
        assert stat.S_IMODE((out_dir / "target").stat().st_mode) == 0o640

    def test_each_writer_has_its_own_temp_file(self, tmp_path):
        path = tmp_path / "out"
        with replacing(path) as first, replacing(path) as second:
            assert first.name != second.name
            first.write(b"first")
            second.write(b"second")
        assert path.read_bytes() == b"first"  # the writer that finished last wins
        assert list(tmp_path.iterdir()) == [path]

# Regions keep the names of the format-2 columns they replace: the count
# slots' are "match_count" and "volume_count", and the year column's data
# region is "year" (it holds offsets from year_start).
_REGION = {"match_slots": "match_count", "volume_slots": "volume_count"}
REGIONS = [
    "magic", "version", "header", "words",
    *(region for column in COLUMNS for region in (
        f"{_REGION.get(column, column)}_padding", "year" if column == "year_offset" else _REGION.get(column, column),
    )),
    "digest",
]


def _regions(path) -> dict[str, tuple[int, int]]:
    """(offset, length) of every region of a store file, by README's layout rule."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    sizes = [4, 4, 4 + header_len, json.loads(blob[12 : 12 + header_len])["words_bytes"]]
    pos = sum(sizes)
    for dtype, length, offset in store_layout(blob).values():
        size = np.dtype(dtype).itemsize * length
        sizes += [offset - pos, size]
        pos = offset + size
    sizes.append(32)
    regions, pos = {}, 0
    for name, size in zip(REGIONS, sizes, strict=True):
        assert size > 0, name
        regions[name] = (pos, size)
        pos += size
    assert pos == len(blob)
    return regions


class TestCorruption:
    """Any damaged byte or cut is caught by the checksum over the file view.

    The store is :func:`conftest.wide_store`, whose exception lists are not
    empty, so every region holds at least one byte.
    """

    @pytest.mark.parametrize("region", REGIONS)
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_flipped_byte_in_each_region(self, tmp_path, region, where):
        path = tmp_path / "fixture.lxst"
        save_store(wide_store(), path)
        offset, size = _regions(path)[region]
        blob = bytearray(path.read_bytes())
        blob[offset if where == "first" else offset + size - 1] ^= 0x5A
        path.write_bytes(bytes(blob))
        with pytest.raises((ChecksumMismatch, FormatVersionMismatch)):
            load_store(path)

    @pytest.mark.parametrize("region", REGIONS)
    def test_truncated_in_each_region(self, tmp_path, region):
        path = tmp_path / "fixture.lxst"
        save_store(wide_store(), path)
        offset, size = _regions(path)[region]
        blob = path.read_bytes()
        for cut in {offset, offset + size // 2, offset + size - 1}:
            path.write_bytes(blob[:cut])
            with pytest.raises((ChecksumMismatch, FormatVersionMismatch)):
                load_store(path)


@pytest.fixture(scope="module")
def signed_stores(tmp_path_factory) -> dict[str, tuple[bytes, str]]:
    """The files of the fixtures/tiny store and of conftest.wide_store, each with its whole span as a CLI window."""
    directory = tmp_path_factory.mktemp("signed")
    wide = directory / "wide.lxst"
    save_store(wide_store(), wide)
    return {"tiny": (tiny_store(directory).read_bytes(), "1900:1904"), "wide": (wide.read_bytes(), "1900:1901")}


def _signed_edit(draw, blob: bytes) -> bytes:
    """``blob`` with one byte, one column value or one header field changed by ``draw``, and signed anew.

    A header field takes a value near its own or any JSON scalar, and the
    zero padding after the word list takes up the header's change of
    length, so the columns stay where they were.
    """
    payload = bytearray(blob[:-32])
    layout = store_layout(payload)
    kind = draw(st.sampled_from(["byte", "column", "header"]))
    if kind == "byte":
        at = draw(st.integers(0, len(payload) - 1))
        payload[at] = draw(st.integers(0, 255).filter(lambda byte: byte != payload[at]))
    elif kind == "column":
        dtype, length, offset = layout[draw(st.sampled_from([name for name, spec in layout.items() if spec[1]]))]
        values = np.frombuffer(payload, dtype=dtype, count=length, offset=offset)
        row, low, high = draw(st.integers(0, length - 1)), int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
        old = int(values[row])
        edges = st.sampled_from(sorted({low, 0, min(high, 0xFFFF), high}))  # 0xFFFF: the count slots' sentinel
        values[row] = draw(st.one_of(st.integers(max(low, old - 2), min(high, old + 2)), edges, st.integers(low, high)))
    else:
        (header_len,) = struct.unpack_from("<I", payload, 8)
        header = json.loads(payload[12 : 12 + header_len])
        words = payload[12 + header_len : 12 + header_len + header["words_bytes"]]
        key = draw(st.sampled_from(sorted(header)))
        near = st.integers(-2, 2).map(lambda d: header[key] + d) if type(header[key]) is int else st.nothing()
        header[key] = draw(st.one_of(near, st.integers(), st.text(max_size=4), st.none(), st.booleans(), st.floats()))
        encoded = json.dumps(header, sort_keys=True).encode("utf-8")
        prefix = payload[:8] + struct.pack("<I", len(encoded)) + encoded + words
        payload = prefix + bytes(-len(prefix) % 4096) + payload[min(offset for *_, offset in layout.values()) :]
    return bytes(payload) + hashlib.sha256(payload).digest()


def _query_every_window(store: CorpusStore) -> None:
    """Run the queries on each one-year window and on the whole span; each may raise only what the CLI maps to exit 1."""
    for spec in [*(WindowSpec(year, year) for year in store.years), WindowSpec(store.year_start, store.year_end)]:
        try:
            table = aggregate_window(store, spec)
        except (LexcoreError, ValueError):
            continue
        for query in (
            lambda: frequency_core(table, 3).pos,
            lambda: coverage_series(frequency_core(table, 3), store, store.years),
            lambda: bookshare_core(table, 0.5),
            lambda: pearson_correlation(table.rel_freq.tolist(), table.volume_share.tolist()),
            lambda: core_size_for_coverage(table, 0.5),
        ):
            with contextlib.suppress(LexcoreError, ValueError):
                query()


class TestSignedEdits:
    """A store file edited and signed anew, as a fuzzed input: the loader is the store contract's only guard."""

    @seed(1)
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_edit_is_refused_or_loads_and_queries_fail_only_as_data_errors(self, signed_stores, data):
        """load_store refuses the file as a data error or loads it; queries on it and ``lexcore core`` then fail only so."""
        blob, window = signed_stores[data.draw(st.sampled_from(sorted(signed_stores)))]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edited.lxst"
            path.write_bytes(_signed_edit(data.draw, blob))
            with contextlib.suppress(ChecksumMismatch, FormatVersionMismatch):
                _query_every_window(load_store(path))
            assert main(["core", "--store", str(path), "--window", window, "--k", "3", "--out", f"{tmp}/out"]) in (0, 1)


class TestGroupSum:
    def test_large_sums_are_exact(self):
        """Counts up to 2**52 whose column total stays below 2**63: every group's sum is exact."""
        rng = np.random.default_rng(3)
        key = rng.integers(0, 50, 2_000)
        counts = rng.integers(0, 2**52, 2_000)
        check_count_total("match", counts)
        expected: dict[int, int] = {}
        for k, c in zip(key.tolist(), counts.tolist()):
            expected[k] = expected.get(k, 0) + c
        assert index_sum(key, counts, 50).tolist() == [expected.get(k, 0) for k in range(50)]
        keys, sums = group_sum(key, counts)
        assert dict(zip(keys.tolist(), sums.tolist())) == expected

    @pytest.mark.parametrize(
        "counts, overflows",
        [
            ([2**63 - 1, 0], False),
            ([2**63 - 1, 1], True),
            ([2**62, 2**62 - 1], False),
            ([2**62, 2**62], True),
            ([2**63 - 1] * 3, True),  # wraps twice: back to a positive int64
            ([2**32 - 1] * 5, False),
        ],
    )
    def test_overflow_at_exactly_two_to_the_63(self, counts, overflows):
        """The total check and a built store, in either count column, refuse a total of 2**63 or more.

        The store holds the counts as rows of distinct words in one year.
        Below the bound, the counts form one group of the sums, beside a
        second group of a zero count.
        """
        values = np.array(counts, dtype=np.int64)
        n = len(counts)
        for count, other in (("match", "volume"), ("volume", "match")):
            build = functools.partial(
                CorpusStore.from_rows, "english", 1900, 1900, [f"w{i}" for i in range(n)],
                key=row_keys(range(n), [0] * n, [0] * n, 1), volume_totals=[1],
                **{f"{count}_count": values, f"{other}_count": np.ones(n, dtype=np.int64)},
            )
            if overflows:
                with pytest.raises(CountOverflow, match=re.escape("2**63")):
                    check_count_total(count, values)
                with pytest.raises(CountOverflow):
                    build()
            else:
                check_count_total(count, values)
                assert sum(getattr(build(), f"{count}_count").tolist()) == sum(counts)
        if not overflows:
            key = np.array([7] * n + [9], dtype=np.int64)
            values = np.append(values, 0)
            assert index_sum(np.array([0] * n + [1]), values, 2).tolist() == [sum(counts), 0]
            keys, sums = group_sum(key, values)
            assert keys.tolist() == [7, 9] and sums.tolist() == [sum(counts), 0]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**63 - 1), max_size=6), st.integers(1, 4))
    @example(counts=[2**62, 2**62], block_rows=1)  # exactly 2**63, across a block boundary
    @example(counts=[2**62, 2**62 - 1], block_rows=1)
    def test_total_check_matches_a_python_int_oracle(self, counts, block_rows):
        """Blocks of a few rows, so the total runs across blocks; plain int64 counts, and those of a built store."""
        values = np.array(counts, dtype=np.int64)
        n = len(counts)
        with mock.patch("lexcore.store._BLOCK_ROWS", block_rows):
            with pytest.raises(CountOverflow) if sum(counts) >= 2**63 else contextlib.nullcontext():
                check_count_total("match", values)
            with pytest.raises(CountOverflow) if sum(counts) >= 2**63 else contextlib.nullcontext():
                CorpusStore.from_rows(
                    "english", 1900, 1900, [f"w{i}" for i in range(n)], key=row_keys(range(n), [0] * n, [0] * n, 1),
                    match_count=np.ones(n, dtype=np.int64), volume_count=values, volume_totals=[1],
                )

    @pytest.mark.parametrize("dtype", ["u1", "<u2", "<u4"])
    def test_narrow_counts_are_widened_before_summing(self, dtype):
        """Two rows of a width's largest count: their sum needs the next width."""
        top = int(np.iinfo(dtype).max)
        values = np.array([top, 1, top], dtype=dtype)
        assert index_sum(np.array([0, 1, 0]), values, 2).tolist() == [2 * top, 1]

    @pytest.mark.parametrize("block_rows", [1, 2, 1 << 16])
    def test_uint32_columns_are_summed_in_int64(self, block_rows):
        """A uint32 column whose sums pass 2**32 - 1 comes back as an int64 copy; one whose sums fit, in place.

        Blocks of one or two rows carry a group's sum into the next block,
        where it first passes 2**32 - 1.
        """
        top = 2**32 - 1
        key = np.array([5, 3, 5, 3, 7, 5], dtype=np.int64)
        wide = np.array([top, 1, top, top - 1, 0, 2], dtype=np.uint32)
        narrow = np.array([1, 2, 3, 4, 5, 6], dtype=np.uint32)
        with mock.patch("lexcore.store._BLOCK_ROWS", block_rows):
            keys, wide_sums, narrow_sums = group_sum(key, wide, narrow)
        assert keys.tolist() == [3, 5, 7]
        assert wide_sums.dtype == np.int64 and wide_sums.tolist() == [top, 2 * top + 2, 0]
        assert narrow_sums.dtype == np.uint32 and narrow_sums.tolist() == [6, 10, 5]
        assert narrow_sums.ctypes.data == narrow.ctypes.data

    def test_distinct_keys(self):
        """With no key repeated, keys come back sorted and each sum is its one count."""
        keys, sums = group_sum(np.array([9, 2, 5]), np.array([1, 2, 3]))
        assert keys.tolist() == [2, 5, 9] and sums.tolist() == [2, 3, 1]
        keys, sums = group_sum(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert len(keys) == 0 and len(sums) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=40),
        # At most 40 rows of the largest bound total below 2**63.
        st.lists(st.sampled_from([2**8 - 1, 2**32 - 1, (2**63 - 1) // 40]), min_size=1, max_size=3),
        st.sampled_from([None, 2**63 - 1, 2**63]),
        st.sampled_from([0, -10, 2**62, -(2**62) - 20]),
        st.sampled_from([1, 3, 1 << 16]),
        st.booleans(),
        st.data(),
    )
    def test_matches_dict_oracle_in_place(self, keys, bounds, big_sum, offset, block_rows, narrow, data):
        """Random keys with repeats and columns of counts up to each bound; the arguments end as documented.

        Keys near 0 pack with their row indices into an int64, so the
        packed sort runs; keys moved out to 2**62 either side do not, so
        the stable argsort runs.  Blocks of a few rows put block edges
        inside runs of equal keys.  Under ``narrow``, a column whose
        counts fit in uint32 is given as uint32, and its sums may not fit:
        that column alone comes back as an int64 copy.  A column of counts
        that total 2**63 is refused by the total check, which every caller
        of group_sum runs first.
        """
        key = np.array(keys, dtype=np.int64) + offset
        columns = [
            np.array(data.draw(st.lists(st.integers(0, bound), min_size=len(keys), max_size=len(keys))), dtype=np.int64)
            for bound in bounds
        ]
        if big_sum is not None:
            # One more group: two rows whose counts sum to big_sum.
            key = np.append(key, [offset + 10, offset + 10])
            columns = [np.append(c, [0, 0]) for c in columns]
            columns.append(np.zeros(len(key), dtype=np.int64))
            columns[-1][-2:] = [2**62, big_sum - 2**62]
        if big_sum == 2**63:
            with pytest.raises(CountOverflow):
                check_count_total("match", columns[-1])
            return
        if narrow:
            columns = [c.astype(np.uint32) if c.max() < 2**32 else c for c in columns]
        for column in columns:
            check_count_total("match", column)
        expected: dict[int, list[int]] = {}
        for i, k in enumerate(key.tolist()):
            row = expected.setdefault(k, [0] * len(columns))
            for j, column in enumerate(columns):
                row[j] += int(column[i])
        order = np.argsort(key, kind="stable")
        reordered = [key[order], *(column[order] for column in columns)]
        with mock.patch("lexcore.store._BLOCK_ROWS", block_rows):
            with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
                out_key, *sums = group_sum(key, *columns)
        assert argsort.called == (abs(offset) >= 2**62)
        assert out_key.tolist() == sorted(expected)
        assert {k: [int(s[i]) for s in sums] for i, k in enumerate(out_key.tolist())} == expected
        # Reordered in place, then the first rows overwritten: keys and
        # sums are views of them, but for a uint32 column whose sums do
        # not all fit, which comes back widened.
        g = len(out_key)
        for column, before, total in zip([key, *columns], reordered, [out_key, *sums]):
            if column.dtype == np.uint32 and max(total.tolist()) >= 2**32:
                assert total.dtype == np.int64 and (total.base if total.base is not None else total) is not column
            else:
                assert total.dtype == column.dtype
                assert total.ctypes.data == column.ctypes.data and (column[g:] == before[g:]).all()

    def test_yearly_total_overflow_is_rejected_at_ingest(self, tmp_path):
        """Two words that each fit int64 but whose year total does not."""
        shards = write_shards(tmp_path, ["good\t1900\t5\t2", f"word\t1900\t{2**63 - 1}\t1"])
        with pytest.raises(CountOverflow):
            build_store(shards, english_config(1900, 1900))

    def test_one_row_given_three_times_at_the_top_is_rejected_at_ingest(self, tmp_path):
        """One (token, year) at 2**63 - 1 in each of three shards.

        Its int64 sum wraps twice, back to 2**63 - 3, a count the store
        would hold, so only the check before the rows are summed sees it.
        """
        shards = write_shards(tmp_path, [f"word\t1900\t{2**63 - 1}\t1"] * 3, n_shards=3)
        with pytest.raises(CountOverflow):
            build_store(shards, english_config(1900, 1900))

    def test_year_total_overflow_across_blocks_is_rejected(self, tmp_path):
        """Blocks of one row: each block's sum fits int64, and only the column's running total reaches 2**63."""
        with mock.patch("lexcore.store._BLOCK_ROWS", 1):
            with pytest.raises(CountOverflow):
                CorpusStore.from_rows(
                    "english", 1900, 1900, ["aa", "bb"], key=row_keys([0, 1], [0, 0], [0, 0], 1),
                    match_count=np.array([2**62, 2**62]), volume_count=np.array([1, 1]), volume_totals=[2],
                )
            shards = write_shards(tmp_path, [f"aa\t1900\t{2**62}\t1", f"bb\t1900\t{2**62}\t1"])
            with pytest.raises(CountOverflow):
                build_store(shards, english_config(1900, 1900))

    @pytest.mark.parametrize("count, row", [("match", 1), ("volume", 1)])
    def test_load_refuses_counts_that_total_two_to_the_63(self, tmp_path, count, row):
        """A signed file whose one exception brings its column's total to 2**63 - 1 loads; at 2**63 it is refused."""
        store = wide_store()
        rest = sum(getattr(store, f"{count}_count").tolist()) - int(getattr(store, f"{count}_exceptions")[row])
        path = tmp_path / "wide.lxst"
        save_store(store, path)
        rewrite_column(path, f"{count}_exceptions", row, 2**63 - 1 - rest)
        assert sum(getattr(load_store(path), f"{count}_count").tolist()) == 2**63 - 1
        rewrite_column(path, f"{count}_exceptions", row, 2**63 - rest)
        with pytest.raises(FormatVersionMismatch, match=f"^{re.escape(str(path))}: the {count} counts total {2**63}"):
            load_store(path)

    @pytest.mark.parametrize("big", ["lexical", "volume"])
    def test_window_total_overflow_is_rejected(self, tmp_path, big):
        """Year totals that fit int64 but whose two-year sum reaches 2**63.

        Match counts that total 2**63 are refused when the store is built;
        the sidecar's volume totals are bounded year by year, and a
        window's volume total is exact past int64.
        """
        count = 2**62 if big == "lexical" else 5
        shards = write_shards(tmp_path, [f"aa\t1900\t{count}\t1", f"bb\t1901\t{count}\t1"])
        sidecar = tmp_path / "volumes.tsv"
        volumes = 2**62 if big == "volume" else 10
        sidecar.write_text(f"1900\t{volumes}\n1901\t{volumes}\n", encoding="utf-8")
        if big == "lexical":
            with pytest.raises(CountOverflow):
                build_store(shards, english_config(1900, 1901), volume_sidecar=sidecar)
            return
        store, _ = build_store(shards, english_config(1900, 1901), volume_sidecar=sidecar)
        assert aggregate_window(store, WindowSpec(1900, 1900)).volume_total == 2**62
        table = aggregate_window(store, WindowSpec(1900, 1901))
        assert table.volume_total == 2**63 and table.volume_share.tolist() == [2.0**-63, 2.0**-63]


class TestExactSums:
    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3)),
            st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
            min_size=1,
            max_size=12,
        ),
        st.integers(2**63 - 2**40, 2**63 - 1),
        st.integers(2**63 - 2**40, 2**63 - 1),
        st.lists(st.integers(2**62, 2**63 - 1), min_size=3, max_size=3),
    )
    def test_every_sum_matches_a_python_int_oracle_near_two_to_the_63(self, shares, match_total, volume_total, volume_totals):
        """Count columns that total just below 2**63, split among rows by ``shares``.

        Each window's per-word sums and totals, each coverage point and
        each core word's dominant POS is checked against Python ints.
        """
        keys = sorted(shares)

        def split(total: int, i: int) -> list[int]:
            weights = [shares[k][i] for k in keys]
            return [total * w // max(sum(weights), 1) for w in weights]

        rows = [(*k, m, v) for k, m, v in zip(keys, split(match_total, 0), split(volume_total, 1))]
        words, year_offsets, pos_ids, match, volume = (list(column) for column in zip(*rows))
        store = CorpusStore.from_rows(
            "english", 1900, 1902, ["aa", "bb", "cc"], key=row_keys(words, year_offsets, pos_ids, 3),
            match_count=np.array(match), volume_count=np.array(volume), volume_totals=volume_totals,
        )
        lexical = [sum(r[3] for r in rows if r[1] == y) for y in range(3)]
        assert store.lexical_totals.tolist() == lexical
        for lo in range(3):
            for hi in range(lo + 1, 4):
                spec = WindowSpec(1900 + lo, 1899 + hi)
                if not any(lexical[lo:hi]):
                    with pytest.raises(EmptyWindow):
                        aggregate_window(store, spec)
                    continue
                inside = [r for r in rows if lo <= r[1] < hi]
                present = sorted({r[0] for r in inside})
                table = aggregate_window(store, spec)
                assert table.word_ids.tolist() == present
                assert table.match_count.tolist() == [sum(r[3] for r in inside if r[0] == w) for w in present]
                assert table.volume_count.tolist() == [sum(r[4] for r in inside if r[0] == w) for w in present]
                assert (table.lexical_total, table.volume_total) == (sum(lexical[lo:hi]), sum(volume_totals[lo:hi]))
                core = frequency_core(table, 3)
                for w, tag in zip(core.word_ids.tolist(), core.pos):
                    tags = {r[2]: 0 for r in inside if r[0] == w}
                    for r in inside:
                        if r[0] == w:
                            tags[r[2]] += r[3]
                    assert int(tag) == min(tags, key=lambda p: (-tags[p], p))
        years = [1900 + y for y in range(3) if lexical[y]]
        for chosen in ([0], [1, 2], [0, 1, 2]) if years else ():
            series = coverage_series([store.words[w] for w in chosen], store, years)
            expected = [(y, sum(r[3] for r in rows if r[0] in chosen and r[1] == y - 1900) / lexical[y - 1900]) for y in years]
            assert list(series.points) == expected


class TestDominantPos:
    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, POS_COUNT - 1)),
            st.integers(0, 3) | st.integers(0, 2**62),
            max_size=40,
        )
    )
    def test_matches_dict_oracle(self, pairs):
        """Small counts make ties common: they go to the smallest pos id.

        A present pair may total 0 beside absent ones, pos 0 among them.
        """
        best: dict[int, tuple[int, int]] = {}
        for (w, p), c in pairs.items():
            if w not in best or (-c, p) < (-best[w][1], best[w][0]):
                best[w] = (p, c)
        slot = np.array([w * POS_COUNT + p for w, p in pairs], dtype=np.int64)
        counts = np.array(list(pairs.values()), dtype=np.int64)
        totals, present, dominant = (a.tolist() for a in pos_totals(slot, counts, 5))
        assert {w: dominant[w] for w in best} == {w: p for w, (p, _) in best.items()}
        assert {s: totals[s] for s, seen in enumerate(present) if seen} == dict(zip(slot.tolist(), counts.tolist()))


class TestVolumeSidecar:
    def test_simple_layout(self, tmp_path):
        p = tmp_path / "volumes.tsv"
        p.write_text("1900\t10\n1901\t12\n# comment\n", encoding="utf-8")
        assert read_volume_sidecar(p) == {1900: 10, 1901: 12}

    def test_total_counts_layout(self, tmp_path):
        p = tmp_path / "totals.txt"
        p.write_text("1900,500,80,10\t1901,600,90,12\n", encoding="utf-8")
        assert read_volume_sidecar(p) == {1900: 10, 1901: 12}

    @pytest.mark.parametrize(
        "text",
        [
            "1900 10 20\n",
            "1899\t10\n1900\t99999999999999999999\n",
            f"1900\t{2**63}\n",
            "1900\t-5\n",
            "1900,500,80,99999999999999999999\n",
            "1900,500,80,-5\n",
        ],
        ids=[
            "space-separated",
            "plain-past-int64",
            "plain-2-63",
            "plain-negative",
            "total-counts-past-int64",
            "total-counts-negative",
        ],
    )
    def test_bad_layout(self, tmp_path, text):
        """A malformed line, or a total outside [0, 2**63), is refused with its file and line."""
        from lexcore.errors import ConfigInvalid

        p = tmp_path / "bad.txt"
        p.write_text(text, encoding="utf-8")
        lineno = text.count("\n")
        with pytest.raises(ConfigInvalid, match=rf"^{re.escape(str(p))}:{lineno}: "):
            read_volume_sidecar(p)

    @pytest.mark.parametrize(
        "text, lines",
        [
            ("1899\t5\n1900\t10\n# comment\n1900\t20\n", (4, 2)),
            ("1899,1,1,5\t1900,500,80,10\n1901,1,1,7\t1900,600,90,20\n", (2, 1)),
            ("1900,500,80,10\t1900,500,80,10\n", (1, 1)),
        ],
        ids=["plain", "total-counts", "total-counts-one-line"],
    )
    def test_repeated_year(self, tmp_path, text, lines):
        """A year given twice is refused, naming the file and both lines; neither total wins."""
        from lexcore.errors import ConfigInvalid

        p = tmp_path / "volumes.txt"
        p.write_text(text, encoding="utf-8")
        second, first = lines
        with pytest.raises(ConfigInvalid, match=rf"^{re.escape(str(p))}:{second}: year 1900 already given on line {first}$"):
            read_volume_sidecar(p)
