"""Acceptance suite: desk-scale oracle and property criteria.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The full-data reproduction of the published
English-corpus numbers needs the real 1-gram dataset and hours of
runtime; it ships as ``scripts/full_data_reproduction.py``.  This suite
runs that script only on a small synthetic corpus, to see that it still
runs against the library.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import struct
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lexcore.cli import main
from lexcore.ingest import build_store
from lexcore.metrics import (
    core_size_for_coverage,
    coverage_series,
    dropout_share,
    partition_core_transition,
    pearson_correlation,
    pos_composition,
    pos_dropout,
    turnover_series,
)
from lexcore.postags import PosTag
from lexcore.serialize import series_to_csv
from lexcore.store import load_store, save_store
from lexcore.synth import SynthConfig, generate_corpus
from lexcore.windows import WindowSpec, aggregate_window, frequency_core, standard_windows

from conftest import classify_token, english_config, make_core, one_row_store, read_shard, table_words


def report(n: int, desc: str, ok: bool, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    line = f"[acceptance {n}] {'PASS' if ok else 'FAIL'}: {desc}{suffix}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def big(tmp_path_factory):
    """CLI pipeline on the churn15 preset: synth -> ingest -> turnover."""
    base = tmp_path_factory.mktemp("acceptance")
    config_path = base / "config.json"
    config_path.write_text(
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
    t0 = time.monotonic()
    assert main(["synth", "--preset", "churn15", "--out", str(base / "corpus")]) == 0
    shards = sorted(str(p) for p in (base / "corpus").glob("synth-*.tsv"))
    assert (
        main(
            [
                "ingest",
                *shards,
                "--config",
                str(config_path),
                "--volumes",
                str(base / "corpus" / "volumes.tsv"),
                "--threads",
                "1",
                "--out",
                str(base / "store1"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "turnover",
                "--store",
                str(base / "store1" / "store.lxst"),
                "--k",
                "4000",
                "--windows",
                "standard",
                "--out",
                str(base / "turnover1"),
            ]
        )
        == 0
    )
    elapsed = time.monotonic() - t0
    return {
        "base": base,
        "config": config_path,
        "shards": shards,
        "store_path": base / "store1" / "store.lxst",
        "turnover_csv": base / "turnover1" / "turnover.csv",
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def big_store(big):
    return load_store(big["store_path"])


def test_criterion_1_planted_churn_oracle(big):
    lines = big["turnover_csv"].read_text(encoding="utf-8").splitlines()[1:]
    ys = [float(line.split(",")[1]) for line in lines]
    mean = sum(ys) / len(ys)
    spread = max(ys) - min(ys)
    ok = (
        abs(mean - 0.15) <= 0.02
        and spread < 0.02
        and all(abs(y - 0.15) <= 0.02 for y in ys)
        and big["elapsed"] < 120.0
    )
    report(
        1,
        "planted churn 0.15 recovered by the full pipeline",
        ok,
        f"mean={mean:.4f}, spread={spread:.4f}, runtime={big['elapsed']:.0f}s",
    )


def test_criterion_2_core_size_insensitivity(big_store):
    specs = standard_windows(big_store.year_start, big_store.year_end)
    tables = [aggregate_window(big_store, s) for s in specs]
    means = {}
    for k in (1000, 2000, 4000, 8000):
        cores = [frequency_core(t, k) for t in tables]
        ys = turnover_series(cores).ys
        means[k] = sum(ys) / len(ys)
    spread = max(means.values()) - min(means.values())
    report(
        2,
        "mean dropout almost independent of core size",
        spread < 0.02,
        ", ".join(f"K={k}: {m:.4f}" for k, m in means.items()),
    )


def test_criterion_3_zipf_inversion_oracle():
    v = 100_000
    inv_ranks = [1.0 / r for r in range(1, v + 1)]
    total = math.fsum(inv_ranks)
    rel = np.asarray(inv_ranks, dtype=np.float64) / total
    store = one_row_store([f"w{i:06d}" for i in range(v)], 2000, [10**13 // r for r in range(1, v + 1)])
    table = replace(aggregate_window(store, WindowSpec(2000, 2000)), rel_freq=rel)

    # Independent oracle: Kahan-compensated scan of the harmonic CDF.
    def harmonic_inversion(target: float) -> int:
        want = target * total
        acc = 0.0
        comp = 0.0
        for r in range(1, v + 1):
            y = 1.0 / r - comp
            t = acc + y
            comp = (t - acc) - y
            acc = t
            if acc >= want:
                return r
        raise AssertionError("target not reached")

    results = {}
    ok = True
    for target in (0.5, 0.75, 0.9):
        got = core_size_for_coverage(table, target)
        want = harmonic_inversion(target)
        results[target] = (got, want)
        ok = ok and abs(got - want) <= 1
    report(
        3,
        "core_size_for_coverage matches harmonic-sum inversion within 1 word",
        ok,
        ", ".join(f"t={t}: {g} vs {w}" for t, (g, w) in results.items()),
    )


def test_criterion_4_decomposition_identity(big_store):
    old = frequency_core(aggregate_window(big_store, WindowSpec(1800, 1849)), 4000)
    new = frequency_core(aggregate_window(big_store, WindowSpec(1950, 1999)), 4000)
    part = partition_core_transition(old, new)
    years = big_store.years
    whole = coverage_series(old, big_store, years).ys
    both = coverage_series(part.both, big_store, years).ys
    lost = coverage_series(part.only_old, big_store, years).ys
    worst = max(abs(w - (b + l)) for w, b, l in zip(whole, both, lost))
    report(
        4,
        "coverage(old) == coverage(kept) + coverage(lost) pointwise",
        worst <= 1e-9,
        f"max abs deviation {worst:.2e} over {len(whole)} years",
    )


def test_criterion_5_pos_consistency_identity():
    rng = np.random.default_rng(2025)
    universe = [f"w{i:04d}" for i in range(2_000)]
    tags = rng.choice(len(PosTag), size=len(universe))
    worst = 0.0
    exact_ok = True
    for _ in range(200):
        size_old = int(rng.integers(50, 400))
        size_new = int(rng.integers(50, 400))
        old_idx = rng.choice(len(universe), size=size_old, replace=False)
        new_idx = rng.choice(len(universe), size=size_new, replace=False)
        old = make_core([universe[i] for i in old_idx], [PosTag(int(tags[i])) for i in old_idx], (1800, 1849))
        new = make_core([universe[i] for i in new_idx], [PosTag(int(tags[i])) for i in new_idx], (1950, 1999))
        comp = pos_composition(old)
        drop = pos_dropout(old, new)
        weighted = sum(comp[t] * drop[t] for t in comp)
        worst = max(worst, abs(weighted - dropout_share(old, new)))

        # The same identity in exact set arithmetic.
        new_set = new.word_set
        lost_by_tag: dict[PosTag, int] = {}
        count_by_tag: dict[PosTag, int] = {}
        for word, tag in zip(old.words, old.pos):
            count_by_tag[tag] = count_by_tag.get(tag, 0) + 1
            if word not in new_set:
                lost_by_tag[tag] = lost_by_tag.get(tag, 0) + 1
        exact = sum(
            Fraction(count_by_tag[t], size_old) * Fraction(lost_by_tag.get(t, 0), count_by_tag[t])
            for t in count_by_tag
        )
        exact_ok = exact_ok and exact == Fraction(
            sum(lost_by_tag.values()), size_old
        )
    report(
        5,
        "composition-weighted POS dropout equals total dropout on 200 random pairs",
        worst <= 1e-12 and exact_ok,
        f"max float deviation {worst:.2e}, exact identity {'holds' if exact_ok else 'fails'}",
    )


@pytest.fixture(scope="module")
def fixture_10k(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture10k")
    config = SynthConfig(
        vocabulary=1_000,
        year_start=1990,
        year_end=1999,
        tokens_per_year=100_000,
        era_length=10,
        churn=0.0,
        churn_band=0,
        volumes_per_year=200,
        seed=17,
    )
    result = generate_corpus(config, out, shard_years=5)
    n_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in result.shard_paths
    )
    return result, n_lines


def test_criterion_6_brute_force_equivalence(fixture_10k):
    result, n_lines = fixture_10k
    config = english_config(1990, 1999)
    store, _ = build_store(result.shard_paths, config, volume_sidecar=result.volumes_path)
    spec = WindowSpec(1990, 1999)
    table = aggregate_window(store, spec)

    # Naive path: dict aggregation straight from the shard lines.
    counts: dict[str, int] = {}
    vols: dict[str, int] = {}
    for path in result.shard_paths:
        rows, stats = read_shard(path.read_bytes(), 1990, 1999)
        assert stats["lines"] == len(rows)
        for token, _, match, volumes in rows:
            kept = classify_token(token, config)
            assert isinstance(kept, tuple), token
            word = kept[0]
            counts[word] = counts.get(word, 0) + match
            vols[word] = vols.get(word, 0) + volumes
    total = sum(counts.values())
    agg_ok = (
        dict(zip(table_words(table), table.match_count.tolist())) == counts
        and dict(zip(table_words(table), table.volume_count.tolist())) == vols
        and table.lexical_total == total
    )

    # Naive full sort against frequency_core, exact order and values.
    naive_rank = sorted(counts.items(), key=lambda wc: (-wc[1], wc[0]))
    core = frequency_core(table, 300)
    core_ok = list(core.words) == [w for w, _ in naive_rank[:300]] and all(
        f == c / total for f, (_, c) in zip(core.rel_freq, naive_rank[:300])
    )

    # Naive two-pass correlation against the one-pass implementation.
    xs = table.rel_freq.tolist()
    ys = table.volume_share.tolist()
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    num = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    dx = math.fsum((x - mx) ** 2 for x in xs)
    dy = math.fsum((y - my) ** 2 for y in ys)
    naive_r = num / math.sqrt(dx * dy)
    r = pearson_correlation(xs, ys)
    pearson_ok = abs(r - naive_r) <= 1e-10

    report(
        6,
        "window aggregate, top-K and correlation match naive reimplementations",
        agg_ok and core_ok and pearson_ok,
        f"{n_lines} fixture lines, |r - naive| = {abs(r - naive_r):.2e}",
    )


def test_criterion_7_thread_determinism(big):
    base = big["base"]
    assert (
        main(
            [
                "ingest",
                *big["shards"],
                "--config",
                str(big["config"]),
                "--volumes",
                str(base / "corpus" / "volumes.tsv"),
                "--threads",
                "8",
                "--out",
                str(base / "store8"),
            ]
        )
        == 0
    )
    outputs = {}
    for tag, store in (("t1", big["store_path"]), ("t8", base / "store8" / "store.lxst")):
        t_dir = base / f"turnover_{tag}"
        c_dir = base / f"coverage_{tag}"
        assert (
            main(
                [
                    "turnover",
                    "--store",
                    str(store),
                    "--k",
                    "4000",
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
                    str(store),
                    "--window",
                    "1800:1849",
                    "--k",
                    "1000",
                    "--out",
                    str(c_dir),
                ]
            )
            == 0
        )
        outputs[tag] = (
            (t_dir / "turnover.csv").read_bytes(),
            (c_dir / "coverage_1800-1849.csv").read_bytes(),
        )
    same_store = (big["store_path"]).read_bytes() == (base / "store8" / "store.lxst").read_bytes()
    ok = outputs["t1"] == outputs["t8"] and same_store
    report(
        7,
        "--threads 1 and --threads 8 produce byte-identical outputs",
        ok,
        f"store files identical: {same_store}",
    )


def test_criterion_8_persistence_round_trip(big_store, tmp_path):
    specs = standard_windows(big_store.year_start, big_store.year_end)

    def metric_bytes(store) -> tuple[str, str]:
        cores = [frequency_core(aggregate_window(store, s), 4000) for s in specs]
        turn = series_to_csv(turnover_series(cores))
        cov = series_to_csv(coverage_series(cores[0], store, store.years))
        return turn, cov

    before = metric_bytes(big_store)
    path = tmp_path / "roundtrip.lxst"
    save_store(big_store, path)
    after = metric_bytes(load_store(path))
    report(
        8,
        "save/load round-trip changes no downstream metric byte",
        before == after,
        f"turnover {len(before[0])}B, coverage {len(before[1])}B compared",
    )


@pytest.mark.skip(
    reason="full-data reproduction of the published English-corpus numbers "
    "requires the real 1-gram dataset (tens of GB, multi-hour runtime); "
    "run scripts/full_data_reproduction.py -- see README"
)
def test_criterion_9_full_data_suite():
    pass


def test_full_data_script_runs_on_a_synthetic_corpus(tmp_path, capsys):
    """``scripts/full_data_reproduction.py`` runs end to end on a small GBN-shaped corpus.

    The published targets do not hold on synthetic data, so it returns 1,
    but it writes all 16 named checks with finite values; a second run
    reuses the store, a third rebuilds it once its version field reads 2
    (signed anew), and a fourth once it is truncated.
    """
    config = SynthConfig(vocabulary=300, year_start=1676, year_end=2008, tokens_per_year=30_000, churn=0.0,
                         volumes_per_year=50)
    result = generate_corpus(config, tmp_path / "synth", shard_years=100, gzip_output=True)
    data = tmp_path / "data"
    data.mkdir()
    for letter, shard in zip("abcd", result.shard_paths, strict=True):
        shard.rename(data / f"googlebooks-eng-all-1gram-20120701-{letter}.gz")
    result.volumes_path.rename(data / "googlebooks-eng-all-totalcounts-20120701.txt")
    path = Path(__file__).parents[1] / "scripts" / "full_data_reproduction.py"
    spec = importlib.util.spec_from_file_location("full_data_reproduction", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    work = tmp_path / "work"
    store = work / "english.lxst"
    for run in ("build", "reuse", "version-2", "truncated"):
        if run == "version-2":
            payload = bytearray(store.read_bytes()[:-32])
            struct.pack_into("<I", payload, 4, 2)
            store.write_bytes(bytes(payload) + hashlib.sha256(payload).digest())
        if run == "truncated":
            store.write_bytes(store.read_bytes()[:-100])
        assert script.main([str(data), str(work), "--threads", "1"]) == 1
        checks = json.loads((work / "full_data_results.json").read_text(encoding="utf-8"))
        assert len({c["name"] for c in checks}) == len(checks) == 16
        assert all(math.isfinite(c["value"]) for c in checks)
        out = capsys.readouterr().out
        assert ("reusing store" in out) == (run == "reuse")
        assert ("store format version 2, this lexcore reads version 3" in out) == (run == "version-2")
        assert ("rebuilding it" in out) == (run in ("version-2", "truncated"))
