"""Store queries, persistence round-trips and corruption detection."""

from __future__ import annotations

import hashlib
import struct

import pytest

from lexcore.errors import ChecksumMismatch, EmptyYearError, FormatVersionMismatch
from lexcore.ingest import build_store
from lexcore.metrics import coverage_series, turnover_series
from lexcore.postags import PosTag
from lexcore.store import load_store, read_volume_sidecar, relative_frequency, save_store
from lexcore.windows import aggregate_window, frequency_core, standard_windows

from conftest import english_config, write_shards

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

    def test_pos_variants_sum_at_word_level(self, hand_store):
        # time = time_NOUN(24) + time_VERB(6) in 1900.
        store, _ = hand_store
        assert relative_frequency(store, "time", 1900) == pytest.approx(0.30, abs=1e-12)


class TestYearSlice:
    def test_entries_and_totals(self, hand_store):
        store, _ = hand_store
        sl = store.year_slice(1900)
        assert sl.lexical_total == 100
        assert sl.volume_total == 10
        assert sl.entries[("time", PosTag.NOUN)] == (24, 7)
        assert sl.entries[("time", PosTag.VERB)] == (6, 3)
        assert sl.lexical_total == sum(m for m, _ in sl.entries.values())

    def test_string_keyed_view_matches_indexed_query(self, hand_store):
        """Dictionary compaction must not change any relative frequency."""
        store, _ = hand_store
        for year in (1900, 1901, 1902, 1904):
            sl = store.year_slice(year)
            by_word: dict[str, int] = {}
            for (word, _), (match, _) in sl.entries.items():
                by_word[word] = by_word.get(word, 0) + match
            for word, match in by_word.items():
                assert relative_frequency(store, word, year) == match / sl.lexical_total


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
            if year in store.empty_years():
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
        """The streamed file is byte for byte the documented layout."""
        store, _ = hand_store
        path = tmp_path / "fixture.lxst"
        save_store(store, path)
        blob = path.read_bytes()
        words = "\n".join(store.words).encode("utf-8")
        (header_len,) = struct.unpack_from("<I", blob, 8)
        columns = [
            store.word_id.astype("<i4"),
            store.pos_id.astype("u1"),
            store.year.astype("<i4"),
            store.match_count.astype("<i8"),
            store.volume_count.astype("<i8"),
            store.lexical_totals.astype("<i8"),
            store.volume_totals.astype("<i8"),
        ]
        payload = blob[: 12 + header_len] + words + b"".join(c.tobytes() for c in columns)
        assert blob[:4] == b"LXST"
        assert blob == payload + hashlib.sha256(payload).digest()
        assert not path.with_suffix(".lxst.tmp").exists()

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


class TestVolumeSidecar:
    def test_simple_layout(self, tmp_path):
        p = tmp_path / "volumes.tsv"
        p.write_text("1900\t10\n1901\t12\n# comment\n", encoding="utf-8")
        assert read_volume_sidecar(p) == {1900: 10, 1901: 12}

    def test_total_counts_layout(self, tmp_path):
        p = tmp_path / "totals.txt"
        p.write_text("1900,500,80,10\t1901,600,90,12\n", encoding="utf-8")
        assert read_volume_sidecar(p) == {1900: 10, 1901: 12}

    def test_bad_layout(self, tmp_path):
        from lexcore.errors import ConfigInvalid

        p = tmp_path / "bad.txt"
        p.write_text("1900 10 20\n", encoding="utf-8")
        with pytest.raises(ConfigInvalid):
            read_volume_sidecar(p)
