"""End-to-end CLI surface: subcommands, exit codes, manifests, figures."""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import lexcore
from lexcore.cli import main
from lexcore.config import params_hash
from lexcore.store import _column_lengths, load_store, save_store
from lexcore.synth import PRESETS

from conftest import HEADER_EDITS, rewrite_store, tiny_store

GOOD_LINES = "".join(f"word{chr(97 + i % 26)}\t{1800 + i % 200}\t{i + 1}\t1\n" for i in range(300))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth + ingest run shared by all CLI tests."""
    base = tmp_path_factory.mktemp("cli")
    cfg = base / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "version": 1,
                "language": "english",
                "alphabet": "english",
                "year_start": 1800,
                "year_end": 1999,
                "fold_case": False,
            }
        ),
        encoding="utf-8",
    )
    corpus = base / "corpus"
    assert main(["synth", "--preset", "churn15-small", "--out", str(corpus)]) == 0
    shards = sorted(str(p) for p in corpus.glob("synth-*.tsv"))
    store_dir = base / "store"
    rc = main(
        [
            "ingest",
            *shards,
            "--config",
            str(cfg),
            "--volumes",
            str(corpus / "volumes.tsv"),
            "--out",
            str(store_dir),
        ]
    )
    assert rc == 0
    return {
        "base": base,
        "config": cfg,
        "corpus": corpus,
        "store": store_dir / "store.lxst",
    }


def _corrupt_gzip(data: bytes) -> bytes:
    """A gzip stream whose deflate data is damaged after the header."""
    blob = bytearray(gzip.compress(data, mtime=0))
    blob[40:60] = bytes(b ^ 0xFF for b in blob[40:60])
    return bytes(blob)


def _manifest(run_dir: Path) -> dict:
    return json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))


class TestIngestAndSynth:
    def test_ingest_outputs(self, pipeline):
        store_dir = pipeline["store"].parent
        assert pipeline["store"].exists()
        stats = json.loads((store_dir / "ingest_stats.json").read_text())
        assert stats["malformed"] == 0
        manifest = _manifest(store_dir)
        assert manifest["subcommand"] == "ingest"
        assert manifest["store_hash"]
        assert manifest["params_hash"]

    def test_ingest_stats_telemetry(self, pipeline):
        """Stage timings and peak RSS ride along in ingest_stats.json, outside the manifest's params."""
        store_dir = pipeline["store"].parent
        stats = json.loads((store_dir / "ingest_stats.json").read_text())
        stages = ["parse", "merge", "collapse", "pos_rule", "layout", "save"]
        assert stats["peak_rss_mb"] > 0
        assert set(stats["timings"]) == set(stages)
        assert all(seconds >= 0 for seconds in stats["timings"].values())
        # The process's peak at the end of each stage: it never falls.
        peaks = [stats["stage_peak_rss_mb"][stage] for stage in stages]
        assert set(stats["stage_peak_rss_mb"]) == set(stages)
        assert 0 < peaks[0] and peaks == sorted(peaks) and peaks[-1] <= stats["peak_rss_mb"]
        params = json.dumps(_manifest(store_dir)["params"])
        assert "timings" not in params and "peak_rss_mb" not in params

    def test_synth_truth_sidecar(self, pipeline):
        truth = json.loads((pipeline["corpus"] / "truth.json").read_text())
        assert truth["config"]["churn"] == 0.15
        assert len(truth["eras"]) == 4

    def test_synth_requires_exactly_one_source(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path)]) == 2
        assert (
            main(["synth", "--preset", "churn15-small", "--config", "x.json", "--out", str(tmp_path)])
            == 2
        )

    def test_unknown_preset(self, tmp_path):
        assert main(["synth", "--preset", "nope", "--out", str(tmp_path)]) == 2

    def test_synth_custom_config(self, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(
            json.dumps(
                {
                    "vocabulary": 200,
                    "year_start": 1900,
                    "year_end": 1909,
                    "tokens_per_year": 20_000,
                    "era_length": 5,
                    "churn": 0.1,
                    "churn_band": 100,
                    "volumes_per_year": 50,
                    "seed": 8,
                }
            )
        )
        out = tmp_path / "corpus"
        assert main(["synth", "--config", str(cfg), "--out", str(out), "--shard-years", "10"]) == 0
        assert len(list(out.glob("synth-*.tsv"))) == 1
        truth = json.loads((out / "truth.json").read_text())
        assert truth["config"]["vocabulary"] == 200

    def test_synth_invalid_config_is_data_error(self, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"vocabulary": 10}))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_missing_shard_is_data_error(self, pipeline, tmp_path):
        rc = main(
            [
                "ingest",
                str(tmp_path / "missing.tsv"),
                "--config",
                str(pipeline["config"]),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 1


    @pytest.mark.parametrize(
        "name, data",
        [
            ("bad.tsv.gz", gzip.compress(GOOD_LINES.encode() * 8, mtime=0)[:-200]),
            ("bad.tsv.gz", _corrupt_gzip(GOOD_LINES.encode() * 8)),
        ],
        ids=["truncated-gzip", "corrupt-gzip"],
    )
    def test_unreadable_shard_is_data_error(self, pipeline, tmp_path, capsys, name, data):
        good = tmp_path / "good.tsv"
        good.write_text(GOOD_LINES, encoding="utf-8")
        bad = tmp_path / name
        bad.write_bytes(data)
        argv = ["ingest", str(good), str(bad), "--config", str(pipeline["config"])]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "bad_line, counter, kept",
        [
            (b"caf\xe9\t1850\t3\t1\n", "malformed", None),
            ("word\t190\u00b2\t5\t2\n".encode(), "malformed", None),
            ("word\t\u0661\u0669\u0660\u0660\t5\t2\n".encode(), "malformed", None),
            (f"word\t1850\t{2 ** 63}\t1\n".encode(), "malformed", None),
            (f"word\t1850\t5\t{2 ** 63}\n".encode(), "malformed", None),
            (b"time_NOUN\t1850\t420\n", "malformed", None),
            (b"time\t1850\tx\t5\n", "malformed", None),
            (b"time\t1850\t-4\t5\n", "malformed", None),
            (b"\t1850\t4\t5\n", "malformed", None),
            (b"time\t1850\t4\t0\n", "invalid_counts", None),
            (b"time_NOUN\t1850\t420\t57\n", None, ("time", 420)),
            (b"der\t1900\t13\t4\n", None, ("der", 13)),
            (b"a\t1900\t1\t1\n", None, ("a", 1)),
        ],
        ids=[
            "non-utf8",
            "superscript-year",
            "arabic-indic-year",
            "count-overflow",
            "volume-overflow",
            "wrong-arity",
            "non-integer",
            "negative-count",
            "empty-token",
            "zero-volumes",
            "tagged-token",
            "plain-token",
            "trailing-newline",
        ],
    )
    def test_hostile_line_is_malformed_not_fatal(self, pipeline, tmp_path, capsys, bad_line, counter, kept):
        """A bad line lands in its counter, a good one as its (word, match); the rest is ingested."""
        good = tmp_path / "good.tsv"
        good.write_text(GOOD_LINES, encoding="utf-8")
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(GOOD_LINES.encode() + bad_line)
        out = tmp_path / "out"
        argv = ["ingest", str(good), str(bad), "--config", str(pipeline["config"])]
        assert main(argv + ["--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        stats = json.loads((out / "ingest_stats.json").read_text(encoding="utf-8"))
        assert stats["lines"] == 601 and stats["duplicate_rows"] == 300
        rejected = ("malformed", "out_of_range", "invalid_counts")
        assert {k: stats[k] for k in rejected} == {k: int(k == counter) for k in rejected}
        words = {line.split("\t")[0] for line in GOOD_LINES.splitlines()}
        match = 2 * sum(range(1, 301))
        if kept is not None:
            words.add(kept[0])
            match += kept[1]
        store = load_store(out / "store.lxst")
        assert sorted(store.words) == sorted(words)
        assert int(store.match_count.sum()) == match

    def test_count_sum_overflow_is_data_error(self, pipeline, tmp_path, capsys):
        """Counts that each fit int64 but whose 1900 total reaches 2**63."""
        shard = tmp_path / "big.tsv"
        shard.write_text(f"good\t1900\t5\t2\nword\t1900\t{2**63 - 1}\t1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", str(shard), "--config", str(pipeline["config"]), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2**63" in err
        assert "Traceback" not in err
        assert not (out / "store.lxst").exists()

    def test_volume_total_past_int64_is_data_error(self, pipeline, tmp_path, capsys):
        shard = tmp_path / "good.tsv"
        shard.write_text(GOOD_LINES, encoding="utf-8")
        sidecar = tmp_path / "volumes.tsv"
        sidecar.write_text("1850\t10\n1900\t99999999999999999999\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["ingest", str(shard), "--config", str(pipeline["config"]), "--volumes", str(sidecar)]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sidecar}:2: ")
        assert "Traceback" not in err
        assert not (out / "store.lxst").exists()


    def test_bad_sidecar_fails_before_any_shard_is_read(self, pipeline, tmp_path, capsys):
        shard = tmp_path / "shard.tsv.gz"
        shard.write_bytes(_corrupt_gzip(GOOD_LINES.encode()))
        sidecar = tmp_path / "volumes.tsv"
        sidecar.write_text("1850\t10\n1900\t4\n1850\t12\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["ingest", str(shard), "--config", str(pipeline["config"]), "--volumes", str(sidecar)]
        with mock.patch("gzip.open", side_effect=AssertionError("a shard was opened")):
            assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sidecar}:3: year 1850 already given on line 1")
        assert "Traceback" not in err
        assert not (out / "store.lxst").exists()


class TestCoreCommand:
    def test_core_file(self, pipeline, tmp_path):
        rc = main(
            [
                "core",
                "--store",
                str(pipeline["store"]),
                "--window",
                "1800:1849",
                "--k",
                "100",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        path = tmp_path / "core_rank_k_100_1800-1849.tsv"
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        assert len(rows) == 100
        assert rows[0][0] == "1"
        assert all(len(r) == 4 for r in rows)

    def test_bookshare_core_file(self, pipeline, tmp_path):
        rc = main(
            [
                "core",
                "--store",
                str(pipeline["store"]),
                "--window",
                "1800:1849",
                "--threshold",
                "0.5",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "core_book_share_0.5_1800-1849.tsv").exists()

    def test_k_and_threshold_conflict(self, pipeline, tmp_path):
        rc = main(
            [
                "core",
                "--store",
                str(pipeline["store"]),
                "--window",
                "1800:1849",
                "--k",
                "10",
                "--threshold",
                "0.5",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2

    def test_bad_window_format(self, pipeline, tmp_path):
        rc = main(
            [
                "core",
                "--store",
                str(pipeline["store"]),
                "--window",
                "1800-1849",
                "--k",
                "10",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2

    def test_missing_store_is_data_error(self, tmp_path):
        rc = main(
            [
                "core",
                "--store",
                str(tmp_path / "no.lxst"),
                "--window",
                "1800:1849",
                "--k",
                "10",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 1

    def test_version_1_store_is_data_error(self, pipeline, tmp_path, capsys):
        """A store of an older format, version 1 or 2, is refused with a rebuild hint.

        Version 1 is its own layout (wide columns, word ids); version 2 is
        this store with its version field rewritten and signed anew.
        """
        store = load_store(pipeline["store"])
        words = "\n".join(store.words).encode("utf-8")
        header = json.dumps(
            {
                "language": store.language,
                "year_start": store.year_start,
                "year_end": store.year_end,
                "n_rows": len(store.pos_id),
                "n_words": len(store.words),
                "words_bytes": len(words),
                "columns": ["word_id", "pos_id", "year", "match_count", "volume_count"],
            },
            sort_keys=True,
        ).encode("utf-8")
        columns = [
            store.word_id.astype("<i4"),
            store.pos_id,
            store.year.astype("<i4"),
            store.match_count.astype("<i8"),
            store.volume_count.astype("<i8"),
            store.lexical_totals,
            store.volume_totals,
        ]
        version_2 = bytearray(pipeline["store"].read_bytes()[:-32])
        struct.pack_into("<I", version_2, 4, 2)
        payloads = {
            1: b"LXST" + struct.pack("<II", 1, len(header)) + header + words + b"".join(c.tobytes() for c in columns),
            2: bytes(version_2),
        }
        for version, payload in payloads.items():
            path = tmp_path / f"v{version}.lxst"
            path.write_bytes(payload + hashlib.sha256(payload).digest())
            rc = main(["core", "--store", str(path), "--window", "1800:1849", "--k", "10", "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert rc == 1
            assert err.startswith(f"error: {path}: store format version {version}, this lexcore reads version 3")
            assert "rebuild it with `lexcore ingest`" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("words", [b"dog\ncat\n", b"cat\ncat\n"], ids=["unsorted", "duplicated"])
    def test_store_words_not_ascending_is_data_error(self, hand_store, tmp_path, capsys, words):
        """A store that verifies but whose words do not strictly ascend exits 1 naming the file."""
        store, _ = hand_store
        path = tmp_path / "reordered.lxst"
        save_store(store, path)
        rewrite_store(path, b"cat\ndog\n", words)
        rc = main(["core", "--store", str(path), "--window", "1900:1904", "--k", "3", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {path}: ") and "not strictly ascending" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "column, index, value, query",
        [
            ("word_offsets", -1, 10**6, ["coverage", "--window", "1900:1902", "--k", "3"]),
            # The row count, past the next word's first row.
            ("word_offsets", 1, 17, ["core", "--window", "1900:1902", "--k", "3"]),
            ("pos_id", 0, 200, ["pos", "--window", "1900:1904", "--k", "10"]),
            ("year_offset", 0, 250, ["group", "--words", "WORDS"]),
            # A sentinel slot with no exception to give its count.
            ("match_slots", 0, 2**16 - 1, ["core", "--window", "1900:1902", "--k", "3"]),
            ("lexical_totals", 0, -1, ["core", "--window", "1900:1902", "--k", "3"]),
            # Non-negative, but not the sum of 1900's match counts (100).
            ("lexical_totals", 0, 1, ["core", "--window", "1900:1900", "--k", "3"]),
        ],
        ids=[
            "word_offsets-past-rows",
            "word_offsets-descending",
            "pos_id",
            "year_offset",
            "match_slots",
            "lexical_totals",
            "lexical_totals-disagree",
        ],
    )
    def test_store_value_out_of_range_is_data_error(self, tmp_path, capsys, column, index, value, query):
        """A store edited and signed anew verifies, so its column values and totals are checked on load.

        Unbounded, each edit would end its query in an IndexError or a wrong answer.
        """
        path = tiny_store(tmp_path)
        payload = bytearray(path.read_bytes()[:-32])
        header = json.loads(payload[12 : 12 + struct.unpack_from("<I", payload, 8)[0]])
        spec = header["columns"][column]
        span = header["year_end"] - header["year_start"] + 1
        count = _column_lengths(header["n_rows"], header["n_words"], span, header["n_match_exceptions"], header["n_volume_exceptions"])[column]
        values = np.frombuffer(payload, dtype=spec["dtype"], count=count, offset=spec["offset"])
        assert values[index] != value
        values[index] = value
        path.write_bytes(bytes(payload) + hashlib.sha256(payload).digest())
        (tmp_path / "words.txt").write_text("cat\n", encoding="utf-8")
        query = [str(tmp_path / "words.txt") if arg == "WORDS" else arg for arg in query]
        capsys.readouterr()
        rc = main([query[0], "--store", str(path), *query[1:], "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {path}: ") and column in err
        assert "Traceback" not in err

    def test_store_language_not_a_string_is_data_error(self, tmp_path, capsys):
        """The fixtures/tiny store with its header's language set to a list, padded to length and signed anew."""
        path = tiny_store(tmp_path)
        rewrite_store(path, b'"language": "english"', b'"language": [1]      ')
        capsys.readouterr()
        rc = main(["core", "--store", str(path), "--window", "1900:1902", "--k", "3", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {path}: ") and "language [1] is not a string" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("old, new", HEADER_EDITS.values(), ids=HEADER_EDITS)
    def test_store_header_that_disagrees_with_the_file_is_data_error(self, tmp_path, capsys, old, new):
        """The fixtures/tiny store with one header field edited and signed anew: no core, and an error naming the file."""
        path = tiny_store(tmp_path)
        rewrite_store(path, old, new)
        capsys.readouterr()
        rc = main(["core", "--store", str(path), "--window", "1900:1904", "--k", "7", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {path}: header does not describe") and "Traceback" not in err
        assert "ValueError(" not in err and "KeyError(" not in err
        assert not list((tmp_path / "out").glob("core_*"))

    @pytest.mark.parametrize(
        "old, new, detail",
        [
            (b'"words_bytes": 32', b'"words_bytes": 30', "words_bytes 30 is not the length of the word list"),
            (b'"columns"', b'"columnz"', "missing header key 'columns'"),
        ],
        ids=["words_bytes-30", "no-columns"],
    )
    def test_store_header_error_reads_as_prose(self, tmp_path, capsys, old, new, detail):
        """A refused header's reason is the sentence that names it, not the exception's repr."""
        path = tiny_store(tmp_path)
        rewrite_store(path, old, new)
        capsys.readouterr()
        assert main(["core", "--store", str(path), "--window", "1900:1904", "--k", "7", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {path}: header does not describe a version-3 store ({detail})\n"

    def test_store_rows_out_of_order_is_data_error(self, tmp_path, capsys):
        """A store whose first word's first two rows (cat, 1900 and 1901) are swapped and signed anew.

        Its values are all in range and its totals agree, but a window's rows
        are found by year order within a word, so the query would read the wrong rows.
        """
        path = tiny_store(tmp_path)
        assert load_store(path).year[:2].tolist() == [1900, 1901]
        payload = bytearray(path.read_bytes()[:-32])
        header = json.loads(payload[12 : 12 + struct.unpack_from("<I", payload, 8)[0]])
        for column in ("pos_id", "year_offset", "match_slots", "volume_slots"):
            spec = header["columns"][column]
            values = np.frombuffer(payload, dtype=spec["dtype"], count=header["n_rows"], offset=spec["offset"])
            values[:2] = values[1::-1].copy()
        path.write_bytes(bytes(payload) + hashlib.sha256(payload).digest())
        capsys.readouterr()
        rc = main(["pos", "--store", str(path), "--window", "1900:1900", "--window2", "1901:1901", "--k", "3", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {path}: ") and "do not ascend" in err
        assert "Traceback" not in err


class TestMetricCommands:
    def test_turnover_reproducible(self, pipeline, tmp_path):
        args = [
            "turnover",
            "--store",
            str(pipeline["store"]),
            "--k",
            "200",
            "--windows",
            "standard",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        csv_a = (tmp_path / "a" / "turnover.csv").read_bytes()
        csv_b = (tmp_path / "b" / "turnover.csv").read_bytes()
        assert csv_a == csv_b
        assert csv_a.startswith(b"x,y\n1849,")

    def test_turnover_bad_width_is_usage_error(self, pipeline, tmp_path):
        rc = main(
            [
                "turnover",
                "--store",
                str(pipeline["store"]),
                "--k",
                "200",
                "--width",
                "0",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2

    def test_empty_bookshare_turnover_is_data_error(self, pipeline, tmp_path):
        # A threshold of 1.0 leaves (near-)empty cores; the pipeline must
        # fail cleanly, not crash.
        rc = main(
            [
                "turnover",
                "--store",
                str(pipeline["store"]),
                "--threshold",
                "1.0",
                "--windows",
                "standard",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc in (0, 1)

    def test_turnover_explicit_windows(self, pipeline, tmp_path):
        rc = main(
            [
                "turnover",
                "--store",
                str(pipeline["store"]),
                "--k",
                "200",
                "--windows",
                "1800:1899,1900:1999",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "turnover.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one pair

    def test_coverage_json_format(self, pipeline, tmp_path):
        rc = main(
            [
                "coverage",
                "--store",
                str(pipeline["store"]),
                "--window",
                "1800:1849",
                "--k",
                "100",
                "--years",
                "1800:1820",
                "--format",
                "json",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "coverage_1800-1849.json").read_text())
        assert doc["schema"] == "lexcore.series/1"
        assert len(doc["points"]) == 21

    def test_overlap(self, pipeline, tmp_path):
        rc = main(
            [
                "overlap",
                "--store",
                str(pipeline["store"]),
                "--window",
                "1950:1999",
                "--threshold",
                "0.5",
                "--format",
                "json",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "overlap.json").read_text())
        assert doc["size_a"] == doc["size_b"]  # default K = book-share size
        assert doc["shared"] + len(doc["only_a"]) == doc["size_a"]

    def test_correlate(self, pipeline, tmp_path):
        rc = main(
            [
                "correlate",
                "--store",
                str(pipeline["store"]),
                "--window",
                "1950:1999",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        rows = dict(
            line.split(",") for line in (tmp_path / "correlation.csv").read_text().splitlines()[1:]
        )
        assert -1.0 <= float(rows["pearson_r"]) <= 1.0

    def test_pos_with_dropout(self, pipeline, tmp_path):
        rc = main(
            [
                "pos",
                "--store",
                str(pipeline["store"]),
                "--window",
                "1800:1849",
                "--window2",
                "1850:1899",
                "--k",
                "200",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        comp = (tmp_path / "pos_composition.csv").read_text().splitlines()
        assert comp[0] == "key,value"
        shares = [float(line.split(",")[1]) for line in comp[1:]]
        assert sum(shares) == pytest.approx(1.0, abs=1e-9)
        assert (tmp_path / "pos_dropout.csv").exists()

    def test_transition(self, pipeline, tmp_path):
        rc = main(
            [
                "transition",
                "--store",
                str(pipeline["store"]),
                "--window",
                "1800:1849",
                "--window2",
                "1950:1999",
                "--k",
                "200",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "transition.json").read_text())
        assert set(doc) >= {"both", "only_old", "only_new"}
        assert (tmp_path / "coverage_both.csv").exists()
        assert (tmp_path / "coverage_only_old.csv").exists()
        assert (tmp_path / "coverage_only_new.csv").exists()

    def test_group(self, pipeline, tmp_path):
        words = tmp_path / "words.txt"
        first_core = tmp_path / "core"
        assert (
            main(
                [
                    "core",
                    "--store",
                    str(pipeline["store"]),
                    "--window",
                    "1800:1849",
                    "--k",
                    "5",
                    "--out",
                    str(first_core),
                ]
            )
            == 0
        )
        core_words = [
            line.split("\t")[1]
            for line in (first_core / "core_rank_k_5_1800-1849.tsv").read_text().splitlines()
        ]
        words.write_text("\n".join(core_words) + "\n", encoding="utf-8")
        rc = main(
            [
                "group",
                "--store",
                str(pipeline["store"]),
                "--words",
                str(words),
                "--name",
                "top5",
                "--years",
                "1800:1810",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "group_top5.csv").exists()


def _csv_values(path: Path) -> dict[str, float]:
    """A CSV output's rows below its header, as key -> value."""
    return {key: float(value) for key, value in (line.split(",") for line in path.read_text().splitlines()[1:])}


def _json_values(doc: dict) -> dict[str, float]:
    """A JSON output's values, keyed as the rows of its CSV form."""
    if "points" in doc:
        return {str(x): y for x, y in doc["points"]}
    if "values" in doc:
        return doc["values"]
    only = {"only_a": len(doc["only_a"]), "only_b": len(doc["only_b"])}
    counts = {key: doc[key] for key in ("size_a", "size_b", "shared", "overlap_pct", "jaccard")}
    return {**counts, **only, "symmetric_difference": sum(only.values())}


# Each query, and the kind of each of its outputs, by output stem.
_QUERY_OUTPUTS = [
    (["turnover", "--k", "200"], {"turnover": "series"}),
    (["coverage", "--window", "1800:1849", "--k", "200"], {"coverage_1800-1849": "series"}),
    (["overlap", "--window", "1950:1999", "--threshold", "0.5"], {"overlap": "overlap"}),
    (["correlate", "--window", "1950:1999"], {"correlation": "correlation"}),
    (
        ["pos", "--window", "1800:1849", "--window2", "1850:1899", "--k", "200"],
        {"pos_composition": "pos_composition", "pos_dropout": "pos_dropout"},
    ),
    (
        ["transition", "--window", "1800:1849", "--window2", "1950:1999", "--k", "200"],
        {"transition": "transition", "coverage_both": "series", "coverage_only_old": "series", "coverage_only_new": "series"},
    ),
    (["group", "--words", "WORDS", "--name", "sample"], {"group_sample": "series"}),
]


@pytest.mark.parametrize("argv, kinds", _QUERY_OUTPUTS, ids=[argv[0] for argv, _ in _QUERY_OUTPUTS])
def test_json_output_holds_the_csv_values(pipeline, tmp_path, argv, kinds):
    """Each query's JSON outputs carry their schema, ``lexcore.<kind>/1``, and the values of its CSV outputs."""
    words = tmp_path / "words.txt"
    words.write_text("\n".join(load_store(pipeline["store"]).words[::50] + ["absentword"]) + "\n", encoding="utf-8")
    argv = [str(words) if arg == "WORDS" else arg for arg in argv]
    for fmt in ("csv", "json"):
        assert main([*argv, "--store", str(pipeline["store"]), "--format", fmt, "--out", str(tmp_path / fmt)]) == 0
    docs = {path.stem: json.loads(path.read_text()) for path in (tmp_path / "json").glob("*.json") if path.name != "manifest.json"}
    assert {stem: doc["schema"] for stem, doc in docs.items()} == {stem: f"lexcore.{kind}/1" for stem, kind in kinds.items()}
    csvs = sorted((tmp_path / "csv").glob("*.csv"))
    assert {path.stem for path in csvs} == set(kinds) - {"transition"}
    for path in csvs:
        assert _json_values(docs[path.stem]) == _csv_values(path), path.stem


class TestReport:
    @pytest.fixture()
    def run_dirs(self, pipeline, tmp_path):
        t_dir = tmp_path / "turnover"
        c_dir = tmp_path / "coverage"
        assert (
            main(
                [
                    "turnover",
                    "--store",
                    str(pipeline["store"]),
                    "--k",
                    "200",
                    "--windows",
                    "standard",
                    "--out",
                    str(t_dir),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "coverage",
                    "--store",
                    str(pipeline["store"]),
                    "--window",
                    "1800:1849",
                    "--k",
                    "200",
                    "--out",
                    str(c_dir),
                ]
            )
            == 0
        )
        return t_dir, c_dir

    def test_report_renders_svgs(self, run_dirs, tmp_path):
        t_dir, c_dir = run_dirs
        out = tmp_path / "figs"
        rc = main(["report", str(t_dir), str(c_dir), "--out", str(out), "--no-timestamp"])
        assert rc == 0
        svgs = sorted(p.name for p in out.glob("*.svg"))
        assert "turnover.svg" in svgs
        assert "coverage.svg" in svgs
        content = (out / "turnover.svg").read_text()
        assert content.startswith("<svg")
        assert "<metadata>" not in content

    def test_report_timestamp_flag(self, run_dirs, tmp_path):
        t_dir, _ = run_dirs
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        assert main(["report", str(t_dir), "--out", str(out1), "--no-timestamp"]) == 0
        assert main(["report", str(t_dir), "--out", str(out2), "--no-timestamp"]) == 0
        assert (out1 / "turnover.svg").read_bytes() == (out2 / "turnover.svg").read_bytes()
        out3 = tmp_path / "f3"
        assert main(["report", str(t_dir), "--out", str(out3)]) == 0
        assert "<metadata>generated" in (out3 / "turnover.svg").read_text()

    def test_report_groups_pos_runs(self, pipeline, tmp_path):
        """Two POS-composition runs render as one grouped bar chart."""
        dirs = []
        for name, window in (("pos1800s", "1800:1849"), ("pos1900s", "1950:1999")):
            d = tmp_path / name
            assert (
                main(
                    [
                        "pos",
                        "--store",
                        str(pipeline["store"]),
                        "--window",
                        window,
                        "--k",
                        "200",
                        "--out",
                        str(d),
                    ]
                )
                == 0
            )
            dirs.append(d)
        out = tmp_path / "figs"
        assert main(["report", *map(str, dirs), "--out", str(out), "--no-timestamp"]) == 0
        svg = (out / "pos_composition.svg").read_text()
        assert "pos1800s/pos_composition" in svg
        assert "pos1900s/pos_composition" in svg
        assert "NOUN" in svg

    def test_report_tells_apart_runs_of_one_name(self, pipeline, tmp_path, capsys):
        """Two run directories of one name give a turnover SVG and a coverage legend label each."""
        dirs = [tmp_path / side / "t" for side in ("x", "y")]
        for d, k in zip(dirs, ("100", "200")):
            store = ["--store", str(pipeline["store"]), "--k", k, "--out", str(d)]
            assert main(["turnover", *store, "--windows", "standard"]) == 0
            assert main(["coverage", *store, "--window", "1800:1849"]) == 0
        out = tmp_path / "figs"
        capsys.readouterr()
        assert main(["report", *map(str, dirs), "--out", str(out), "--no-timestamp"]) == 0
        turnover = ["x_t_turnover.svg", "y_t_turnover.svg"]
        assert sorted(p.name for p in out.glob("*turnover.svg")) == turnover
        assert capsys.readouterr().out.splitlines() == [str(out / name) for name in [*turnover, "coverage.svg"]]
        assert (out / "x_t_turnover.svg").read_bytes() != (out / "y_t_turnover.svg").read_bytes()
        svg = (out / "coverage.svg").read_text()
        assert "x/t/coverage_1800-1849" in svg and "y/t/coverage_1800-1849" in svg

    def test_report_with_nothing_to_chart_is_data_error(self, pipeline, tmp_path, capsys):
        """A core run writes no CSV, so report has no chart to draw."""
        run = tmp_path / "core"
        assert main(["core", "--store", str(pipeline["store"]), "--window", "1800:1849", "--k", "5", "--out", str(run)]) == 0
        capsys.readouterr()
        assert main(["report", str(run), "--out", str(tmp_path / "figs")]) == 1
        assert capsys.readouterr().err == "error: no chartable CSV outputs found in the given run directories\n"
        assert not (tmp_path / "figs").exists()

    def test_report_requires_manifest(self, tmp_path):
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "turnover.csv").write_text("x,y\n1900,0.5\n")
        assert main(["report", str(bare), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "name, text, line",
        [
            ("pos_composition.csv", "key,value\nNOUN,0.5\nVERB,abc\n", 3),
            ("coverage.csv", "x,y\n1800,0.5\n1801,abc\n", 3),
            ("turnover.csv", "x,y\n1849\n", 2),
        ],
        ids=["pos-value", "coverage-value", "turnover-one-field"],
    )
    def test_report_rejects_malformed_rows(self, tmp_path, capsys, name, text, line):
        """A row whose fields do not parse is a data error naming the file and line."""
        run = tmp_path / "run"
        run.mkdir()
        (run / "manifest.json").write_text("{}")
        (run / name).write_text(text)
        assert main(["report", str(run), "--out", str(tmp_path / "o")]) == 1
        assert f"error: {run / name}:{line}: " in capsys.readouterr().err

    def test_report_refuses_mismatched_stores(self, pipeline, run_dirs, tmp_path):
        t_dir, _ = run_dirs
        # Build a second store from a different corpus and produce a run.
        other_corpus = tmp_path / "corpus2"
        assert main(["synth", "--preset", "zipf-demo", "--out", str(other_corpus)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "version": 1,
                    "language": "english",
                    "alphabet": "english",
                    "year_start": 1900,
                    "year_end": 1949,
                    "fold_case": False,
                }
            )
        )
        shards = sorted(str(p) for p in other_corpus.glob("synth-*.tsv"))
        store2 = tmp_path / "store2"
        assert main(["ingest", *shards, "--config", str(cfg), "--out", str(store2)]) == 0
        other_run = tmp_path / "run2"
        assert (
            main(
                [
                    "turnover",
                    "--store",
                    str(store2 / "store.lxst"),
                    "--k",
                    "50",
                    "--windows",
                    "1900:1924,1925:1949",
                    "--out",
                    str(other_run),
                ]
            )
            == 0
        )
        assert main(["report", str(t_dir), str(other_run), "--out", str(tmp_path / "o")]) == 1


class TestManifests:
    """Every command's manifest: exact params and inputs, one store identity."""

    @pytest.fixture(scope="class")
    def runs(self, pipeline, tmp_path_factory):
        base = tmp_path_factory.mktemp("manifests")
        store = str(pipeline["store"])
        words = base / "words.txt"
        words.write_text("\n".join(load_store(store).words[:3]) + "\n", encoding="utf-8")
        cases = {
            "core": (
                ["--window", "1800:1849", "--k", "10"],
                {"window": "1800-1849", "k": 10, "threshold": None},
            ),
            "turnover": (
                ["--k", "50", "--windows", "1800:1899,1900:1999"],
                {"windows": ["1800-1899", "1900-1999"], "k": 50, "threshold": None, "format": "csv"},
            ),
            "coverage": (
                ["--window", "1800:1849", "--threshold", "0.5", "--years", "1800:1810", "--format", "json"],
                {"window": "1800-1849", "k": None, "threshold": 0.5, "years": [1800, 1810], "format": "json"},
            ),
            "overlap": (
                ["--window", "1950:1999", "--threshold", "0.5", "--k", "20"],
                {"window": "1950-1999", "k": 20, "threshold": 0.5, "format": "csv"},
            ),
            "correlate": (
                ["--window", "1950:1999", "--k", "30"],
                {"window": "1950-1999", "k": 30, "format": "csv"},
            ),
            "pos": (
                ["--window", "1800:1849", "--window2", "1850:1899", "--k", "40"],
                {"window": "1800-1849", "window2": "1850:1899", "k": 40, "threshold": None, "format": "csv"},
            ),
            "transition": (
                ["--window", "1800:1849", "--window2", "1950:1999", "--k", "40"],
                {
                    "window": "1800-1849",
                    "window2": "1950-1999",
                    "k": 40,
                    "threshold": None,
                    "years": [1800, 1999],
                    "format": "csv",
                },
            ),
            "group": (
                ["--words", str(words), "--name", "trio"],
                {"words": str(words), "name": "trio", "years": [1800, 1999], "format": "csv"},
            ),
        }
        runs = {}
        for name, (argv, params) in cases.items():
            out = base / name
            assert main([name, "--store", store, *argv, "--out", str(out)]) == 0
            runs[name] = (out, {"store": store, **params}, [store])
        dirs = [str(base / "turnover"), str(base / "coverage")]
        out = base / "report"
        assert main(["report", *dirs, "--out", str(out), "--no-timestamp"]) == 0
        runs["report"] = (out, {"runs": dirs, "no_timestamp": True}, dirs)
        return runs

    def test_ingest_manifest(self, pipeline):
        store_dir = pipeline["store"].parent
        manifest = _manifest(store_dir)
        assert manifest["params"] == {
            "config": {
                "version": 1,
                "language": "english",
                "alphabet": {
                    "language": "english",
                    "letters": "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz",
                    "apostrophe_allowed": True,
                    "max_apostrophes": 1,
                },
                "year_start": 1800,
                "year_end": 1999,
                "fold_case": False,
            },
            "threads": 1,
            "volumes": str(pipeline["corpus"] / "volumes.tsv"),
        }
        assert manifest["inputs"] == sorted(str(p) for p in pipeline["corpus"].glob("synth-*.tsv"))
        assert manifest["output_dir"] == str(store_dir)
        assert manifest["store_hash"] == pipeline["store"].read_bytes()[-32:].hex()

    def test_synth_manifest(self, pipeline):
        manifest = _manifest(pipeline["corpus"])
        assert manifest["params"] == {
            "synth_config": PRESETS["churn15-small"].to_dict(),
            "gzip": False,
            "shard_years": 25,
        }
        assert manifest["inputs"] == []
        assert manifest["store_hash"] is None

    @pytest.mark.parametrize(
        "name",
        ["core", "turnover", "coverage", "overlap", "correlate", "pos", "transition", "group", "report"],
    )
    def test_query_manifest(self, pipeline, runs, name):
        out, params, inputs = runs[name]
        manifest = _manifest(out)
        assert manifest["subcommand"] == name
        assert manifest["params"] == params
        assert manifest["params_hash"] == params_hash(params)
        assert manifest["inputs"] == inputs
        assert manifest["output_dir"] == str(out)
        digest = pipeline["store"].read_bytes()[-32:].hex()
        assert manifest["store_hash"] == digest == _manifest(pipeline["store"].parent)["store_hash"]

    def test_overlap_default_k_is_bookshare_size(self, pipeline, tmp_path):
        argv = ["overlap", "--store", str(pipeline["store"]), "--window", "1950:1999"]
        assert main(argv + ["--threshold", "0.5", "--out", str(tmp_path)]) == 0
        rows = dict(line.split(",") for line in (tmp_path / "overlap.csv").read_text().splitlines()[1:])
        assert _manifest(tmp_path)["params"]["k"] == max(int(rows["size_b"]), 1)


# What each subcommand prints, in order: its argv (STORE, SHARDS, CONFIG, VOLUMES,
# WORDS and RUNS stand for inputs made by the test) and the names it prints.
_STDOUT = {
    "synth": (["--preset", "churn15-small"], [f"synth-{y}-{y + 24}.tsv" for y in range(1800, 2000, 25)]),
    "ingest": (["SHARDS", "--config", "CONFIG", "--volumes", "VOLUMES"], ["store.lxst"]),
    "core": (["--store", "STORE", "--window", "1800:1849", "--k", "10"], ["core_rank_k_10_1800-1849.tsv"]),
    "turnover": (["--store", "STORE", "--k", "50", "--windows", "1800:1899,1900:1999"], ["turnover.csv"]),
    "coverage": (["--store", "STORE", "--window", "1800:1849", "--threshold", "0.5", "--format", "json"],
                 ["coverage_1800-1849.json"]),
    "overlap": (["--store", "STORE", "--window", "1950:1999", "--threshold", "0.5"], ["overlap.csv"]),
    "correlate": (["--store", "STORE", "--window", "1950:1999"], ["correlation.csv"]),
    "pos": (["--store", "STORE", "--window", "1800:1849", "--window2", "1850:1899", "--k", "40"],
            ["pos_composition.csv", "pos_dropout.csv"]),
    "transition": (["--store", "STORE", "--window", "1800:1849", "--window2", "1950:1999", "--k", "40"],
                   ["transition.json", "coverage_both.csv", "coverage_only_old.csv", "coverage_only_new.csv"]),
    "group": (["--store", "STORE", "--words", "WORDS", "--name", "trio"], ["group_trio.csv"]),
    "report": (["RUNS", "--no-timestamp"],
               ["t1_turnover.svg", "t2_turnover.svg", "coverage.svg", "pos_composition.svg", "pos_dropout.svg"]),
}


@pytest.mark.parametrize("name", list(_STDOUT))
def test_stdout_names_the_outputs(pipeline, tmp_path, capsys, name):
    """Each command prints its outputs' paths, one a line, in order.

    A query command or ``report`` prints every file it writes but the
    manifest; ``ingest`` prints only the store, ``synth`` only the shards.
    """
    store = str(pipeline["store"])
    words = tmp_path / "words.txt"
    words.write_text("\n".join(load_store(store).words[:3]) + "\n", encoding="utf-8")
    runs = []
    if name == "report":
        for run, command in (("t1", "turnover"), ("t2", "turnover"), ("c", "coverage"), ("p", "pos"),
                             ("x", "transition"), ("g", "group")):
            runs.append(str(tmp_path / run))
            argv = [{"STORE": store, "WORDS": str(words)}.get(a, a) for a in _STDOUT[command][0]]
            assert main([command, *argv, "--out", runs[-1]]) == 0
    inputs = {
        "STORE": [store],
        "SHARDS": sorted(str(p) for p in pipeline["corpus"].glob("synth-*.tsv")),
        "CONFIG": [str(pipeline["config"])],
        "VOLUMES": [str(pipeline["corpus"] / "volumes.tsv")],
        "WORDS": [str(words)],
        "RUNS": runs,
    }
    argv, printed = _STDOUT[name]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([name, *(p for a in argv for p in inputs.get(a, [a])), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [str(out / p) for p in printed]
    if name not in ("ingest", "synth"):
        assert sorted(p.name for p in out.iterdir()) == sorted([*printed, "manifest.json"])


class TestEnvDataDir:
    def test_store_resolved_from_data_dir(self, pipeline, tmp_path, monkeypatch):
        monkeypatch.setenv("LEXCORE_DATA_DIR", str(pipeline["store"].parent))
        rc = main(
            [
                "core",
                "--store",
                "store.lxst",
                "--window",
                "1800:1849",
                "--k",
                "10",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0


def test_window_presets_parse():
    from lexcore.cli import _parse_window
    from lexcore.windows import WindowSpec

    assert _parse_window("core1800") == WindowSpec(1795, 1805)
    assert _parse_window("core2000") == WindowSpec(2000, 2008)
    assert _parse_window("1800:1849") == WindowSpec(1800, 1849)


def test_usage_error_on_missing_subcommand():
    assert main([]) == 2


_QUERY = ["--store", "STORE", "--window", "1800:1849"]


@pytest.mark.parametrize(
    "argv",
    [
        ["correlate", *_QUERY, "--k", "-1"],
        ["correlate", *_QUERY, "--k", "0"],
        ["core", *_QUERY, "--k", "0"],
        ["core", *_QUERY, "--k", "ten"],
        ["core", *_QUERY, "--threshold", "0"],
        ["core", *_QUERY, "--threshold", "1.5"],
        ["core", *_QUERY, "--threshold", "nan"],
        ["core", *_QUERY],
        ["core", *_QUERY, "--k", "10", "--threshold", "0.5"],
        ["coverage", *_QUERY, "--k", "-5"],
        ["pos", *_QUERY, "--threshold", "-0.5"],
        ["transition", *_QUERY, "--window2", "1850:1899"],
        ["turnover", "--store", "STORE", "--k", "10", "--width", "0"],
        ["overlap", *_QUERY, "--threshold", "0"],
        ["overlap", *_QUERY, "--threshold", "0.5", "--k", "0"],
        ["ingest", "shard.tsv", "--config", "CONFIG", "--threads", "-2"],
        ["ingest", "shard.tsv", "--config", "CONFIG", "--threads", "0"],
        ["synth", "--preset", "churn15-small", "--shard-years", "0"],
        ["core", "--store", "MISSING", "--window", "garbage", "--k", "3"],
        ["core", "--store", "STORE", "--window", "1849:1800", "--k", "3"],
        ["turnover", "--store", "STORE", "--k", "10", "--windows", "1800:1899"],
        ["coverage", *_QUERY, "--k", "10", "--years", "1900:1850"],
    ],
    ids=[
        "correlate-k-negative",
        "correlate-k-zero",
        "core-k-zero",
        "core-k-not-a-number",
        "core-threshold-zero",
        "core-threshold-above-one",
        "core-threshold-nan",
        "core-neither-k-nor-threshold",
        "core-k-and-threshold",
        "coverage-k-negative",
        "pos-threshold-negative",
        "transition-neither-k-nor-threshold",
        "turnover-width-zero",
        "overlap-threshold-zero",
        "overlap-k-zero",
        "ingest-threads-negative",
        "ingest-threads-zero",
        "synth-shard-years-zero",
        "core-bad-window-missing-store",
        "core-window-inverted",
        "turnover-one-window",
        "coverage-years-inverted",
    ],
)
def test_flag_out_of_range_is_usage_error(pipeline, tmp_path, capsys, argv):
    """argparse rejects the flag before any input is read.

    Exit 2, a usage message, no traceback, no output directory.
    """
    paths = {"STORE": str(pipeline["store"]), "CONFIG": str(pipeline["config"])}
    paths["MISSING"] = str(tmp_path / "no.lxst")
    out = tmp_path / "out"
    assert main([paths.get(a, a) for a in argv] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: argument" in err or "error: one of the arguments" in err
    assert "Traceback" not in err
    assert not out.exists()


_SYNTH_JSON = PRESETS["churn15-small"].to_dict()
_RUN_JSON = {"version": 1, "language": "english", "alphabet": "english", "year_start": 1800, "year_end": 1999}


@pytest.mark.parametrize(
    "command, doc, named",
    [
        ("synth", dict(_SYNTH_JSON, churn=None), "'churn'"),
        ("synth", [1], "synth.json"),
        ("synth", dict(_SYNTH_JSON, pos_churn={"NOUN": None}), "'pos_churn'"),
        ("synth", dict(_SYNTH_JSON, decay_group=5), "'decay_group'"),
        ("ingest", dict(_RUN_JSON, alphabet={"letters": "abc", "max_apostrophes": None}), "'max_apostrophes'"),
        ("ingest", dict(_RUN_JSON, alphabet={"letters": 5}), "'letters'"),
        ("ingest", dict(_RUN_JSON, fold_case="no"), "'fold_case'"),
        ("ingest", dict(_RUN_JSON, language=None), "'language'"),
        ("ingest", dict(_RUN_JSON, language=[1]), "'language'"),
        ("ingest", dict(_RUN_JSON, language=5), "'language'"),
        ("ingest", dict(_RUN_JSON, alphabet={"letters": "abc", "language": None}), "'language'"),
        ("ingest", dict(_RUN_JSON, alphabet={"letters": "abc", "language": [1]}), "'language'"),
        ("ingest", dict(_RUN_JSON, alphabet={"letters": {"ab": 1}}), "'letters'"),
        ("ingest", dict(_RUN_JSON, alphabet={"letters": ["a", 1]}), "'letters'"),
        ("report", [1], "manifest.json"),
        ("report", {"store_hash": [1]}, "manifest.json"),
        ("ingest", dict(_RUN_JSON, fold_cse=True), "config: unknown keys: 'fold_cse'"),
        ("ingest", dict(_RUN_JSON, alphabet={"letters": "abc", "max_apostrophe": 2}), "unknown keys: 'max_apostrophe'"),
        ("synth", dict(_SYNTH_JSON, zzz=1, churn_bnad=10), "synth config: unknown keys: 'churn_bnad', 'zzz'"),
        ("ingest", dict(_RUN_JSON, year_start=1800.9), "'year_start'"),
        ("ingest", dict(_RUN_JSON, year_end="1999"), "'year_end'"),
        ("synth", dict(_SYNTH_JSON, churn=True), "'churn'"),
        ("synth", dict(_SYNTH_JSON, seed=4.7), "'seed'"),
        ("synth", dict(_SYNTH_JSON, seed=-1), "seed must be >= 0"),
        ("synth", dict(_SYNTH_JSON, zipf_exponent=float("nan")), "'zipf_exponent'"),
        ("synth", dict(_SYNTH_JSON, zipf_exponent=float("inf")), "'zipf_exponent'"),
        ("synth", dict(_SYNTH_JSON, decay_factor=float("nan")), "'decay_factor'"),
        ("synth", dict(_SYNTH_JSON, decay_factor=float("-inf")), "'decay_factor'"),
        ("synth", dict(_SYNTH_JSON, tag_weights={"NOUN": float("nan")}), "'tag_weights'"),
        ("synth", dict(_SYNTH_JSON, tag_weights={"NOUN": float("inf")}), "'tag_weights'"),
    ],
    ids=[
        "synth-churn-null",
        "synth-root-list",
        "synth-pos-churn-rate-null",
        "synth-decay-group-number",
        "ingest-max-apostrophes-null",
        "ingest-letters-number",
        "ingest-fold-case-string",
        "ingest-language-null",
        "ingest-language-list",
        "ingest-language-number",
        "ingest-alphabet-language-null",
        "ingest-alphabet-language-list",
        "ingest-letters-object",
        "ingest-letters-list-with-number",
        "report-manifest-list",
        "report-store-hash-list",
        "ingest-unknown-key",
        "ingest-alphabet-unknown-key",
        "synth-unknown-keys",
        "ingest-year-start-fractional",
        "ingest-year-end-string",
        "synth-churn-bool",
        "synth-seed-fractional",
        "synth-seed-negative",
        "synth-zipf-exponent-nan",
        "synth-zipf-exponent-infinity",
        "synth-decay-factor-nan",
        "synth-decay-factor-minus-infinity",
        "synth-tag-weight-nan",
        "synth-tag-weight-infinity",
    ],
)
def test_hostile_config_is_data_error(tmp_path, capsys, command, doc, named):
    """A config or manifest of the wrong JSON shape: exit 1, one error line naming the key or file, and no output directory."""
    path = tmp_path / ("manifest.json" if command == "report" else f"{command}.json")
    path.write_text(json.dumps(doc), encoding="utf-8")
    shard = tmp_path / "shard.tsv"
    shard.write_text(GOOD_LINES, encoding="utf-8")
    out = str(tmp_path / "out")
    argv = {
        "synth": ["synth", "--config", str(path), "--out", out],
        "ingest": ["ingest", str(shard), "--config", str(path), "--out", out],
        "report": ["report", str(tmp_path), "--out", out],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_years_outside_store_is_data_error(pipeline, tmp_path, capsys):
    argv = ["coverage", "--store", str(pipeline["store"]), "--window", "1800:1849", "--k", "10"]
    assert main(argv + ["--years", "1700:1850", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: year 1700 outside store range 1800..1999")
    assert "Traceback" not in err


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "lexcore" in capsys.readouterr().out


def _lexcore(*argv: str) -> subprocess.CompletedProcess:
    """Run the CLI through its console-script entry point in a fresh interpreter, where its logging setup takes effect."""
    code = "from lexcore.cli import main_entry; main_entry()"
    env = {**os.environ, "PYTHONPATH": str(Path(lexcore.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)


def test_log_level_warning_hides_info(tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"vocabulary": 100, "year_start": 1900, "year_end": 1901, "tokens_per_year": 10_000, "churn": 0.0}))
    argv = ["synth", "--config", str(cfg), "--shard-years", "1"]
    loud = _lexcore(*argv, "--out", str(tmp_path / "loud"))
    assert loud.returncode == 0 and "INFO lexcore.synth" in loud.stderr
    quiet = _lexcore("--log-level", "WARNING", *argv, "--out", str(tmp_path / "quiet"))
    assert quiet.returncode == 0
    assert "INFO" not in quiet.stderr
    assert (tmp_path / "quiet" / "truth.json").exists()


def test_entry_point_exit_codes(tmp_path):
    """``main_entry`` exits 0 with every output complete, 1 on a corrupt store, and 2 on a bad flag."""
    store = tiny_store(tmp_path)
    query = ["coverage", "--store", str(store), "--window", "1900:1902"]
    ok = _lexcore(*query, "--k", "3", "--out", str(tmp_path / "ok"))
    assert ok.returncode == 0, ok.stderr
    csv = tmp_path / "ok" / "coverage_1900-1902.csv"
    assert ok.stdout.splitlines() == [str(csv)]
    assert csv.read_text(encoding="utf-8") == "x,y\n1900,0.7\n1901,0.5\n1902,1.0\n1903,0.5\n1904,0.5\n"

    corrupt = tmp_path / "corrupt.lxst"
    data = bytearray(store.read_bytes())
    data[len(data) // 2] ^= 0xFF
    corrupt.write_bytes(bytes(data))
    bad_store = _lexcore("coverage", "--store", str(corrupt), "--window", "1900:1902", "--k", "3", "--out", str(tmp_path / "bad"))
    assert bad_store.returncode == 1
    assert bad_store.stderr.splitlines() == [f"error: {corrupt}: checksum does not verify (truncated or corrupt)"]

    bad_flag = _lexcore(*query, "--k", "0", "--out", str(tmp_path / "usage"))
    assert bad_flag.returncode == 2
    assert "error: argument --k: expected an integer >= 1, got '0'" in bad_flag.stderr
    assert "Traceback" not in bad_flag.stderr + bad_store.stderr
    assert not (tmp_path / "bad").exists() and not (tmp_path / "usage").exists()


def test_unknown_preset_in_a_fresh_process_names_every_preset(tmp_path):
    result = _lexcore("synth", "--preset", "nope", "--out", str(tmp_path / "D"))
    assert result.returncode == 2
    assert "error: argument --preset:" in result.stderr and "Traceback" not in result.stderr
    assert all(name in result.stderr for name in PRESETS) and len(PRESETS) == 5
    assert not (tmp_path / "D").exists()


def test_unknown_log_level_is_usage_error(tmp_path, capsys):
    assert main(["--log-level", "LOUD", "synth", "--preset", "churn15-small", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error: argument --log-level" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()
