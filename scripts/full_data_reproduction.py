#!/usr/bin/env python3
"""Full-data reproduction of the published English-corpus numbers.

Runs the whole pipeline on the real English 1-gram dataset (see
scripts/fetch_gbn.py for the expected layout) and checks every headline
quantity against its published value:

  * mean 50-year core dropout across K = 1000..8000 in 0.13..0.15 (+-0.02)
  * coverage of the 1000-word 1800-core: ~0.7 at 1800 falling to ~0.6
    at 2000 (+-0.05)
  * book-share(0.5) core size 2302 (+-5%); overlap with the equal-size
    frequency core ~79% (+-3pp); symmetric difference ~482 (+-10%)
  * Pearson r of frequency vs book share: ~0.15 all words, ~0.25 for
    the top 1000 (+-0.05)
  * smallest K covering 75% of running text: ~2300 (+-10%)

Expect multiple hours and tens of GB of disk; this script is not part
of the test suite.  Usage::

    python scripts/full_data_reproduction.py <data-dir> <work-dir> [--threads N]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from lexcore.alphabets import alphabet_preset
from lexcore.config import RunConfig
from lexcore.errors import ChecksumMismatch, FormatVersionMismatch
from lexcore.ingest import build_store
from lexcore.metrics import (
    core_size_for_coverage,
    coverage_series,
    overlap_report,
    pearson_correlation,
    turnover_series,
)
from lexcore.store import load_store, save_store
from lexcore.windows import (
    CORE_1800_WINDOW,
    CORE_2000_WINDOW,
    aggregate_window,
    bookshare_core,
    frequency_core,
    standard_windows,
)

YEAR_START, YEAR_END = 1676, 2008

CHECKS: list[tuple[str, float, float, float]] = []  # (name, value, lo, hi)


def check(name: str, value: float, lo: float, hi: float) -> None:
    CHECKS.append((name, value, lo, hi))
    status = "PASS" if lo <= value <= hi else "FAIL"
    print(f"[full-data] {status}: {name} = {value:.4f} (expected {lo:.4f}..{hi:.4f})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("data_dir", type=Path, help="directory with the 1-gram shards")
    parser.add_argument("work_dir", type=Path, help="directory for the store and outputs")
    parser.add_argument("--threads", type=int, default=4)
    args = parser.parse_args(argv)
    CHECKS.clear()  # a second call in one process reports only its own checks

    args.work_dir.mkdir(parents=True, exist_ok=True)
    store_path = args.work_dir / "english.lxst"

    store = None
    if store_path.exists():
        try:
            store = load_store(store_path)
            print(f"reusing store {store_path}")
        except (ChecksumMismatch, FormatVersionMismatch) as exc:  # an old, truncated or corrupt store
            print(f"{exc}; rebuilding it from {args.data_dir}")
    if store is None:
        shards = sorted(args.data_dir.glob("googlebooks-eng-all-1gram-*.gz"))
        totals = args.data_dir / "googlebooks-eng-all-totalcounts-20120701.txt"
        if not shards or not totals.exists():
            print("dataset not found; run scripts/fetch_gbn.py first", file=sys.stderr)
            return 1
        config = RunConfig(
            language="english",
            alphabet=alphabet_preset("english"),
            year_start=YEAR_START,
            year_end=YEAR_END,
            fold_case=False,
        )
        t0 = time.monotonic()
        store, stats = build_store(shards, config, volume_sidecar=totals, threads=args.threads)
        print(f"ingest finished in {time.monotonic() - t0:.0f}s; stats: {stats.to_dict()}")
        save_store(store, store_path)

    # --- 50-year turnover, means across core sizes -----------------------
    specs = standard_windows(YEAR_START, YEAR_END)
    tables = [aggregate_window(store, s) for s in specs]
    means = {}
    for k in (1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000):
        cores = [frequency_core(t, k) for t in tables]
        ys = turnover_series(cores).ys
        means[k] = sum(ys) / len(ys)
    for k, mean in means.items():
        check(f"mean 50y dropout, K={k}", mean, 0.13 - 0.02, 0.15 + 0.02)

    # --- coverage of the 1000-word 1800-core ------------------------------
    core_1800 = frequency_core(aggregate_window(store, CORE_1800_WINDOW), 1000)
    cov = coverage_series(core_1800, store, [1800, 2000])
    check("1800-core coverage at 1800", cov.ys[0], 0.7 - 0.05, 0.7 + 0.05)
    check("1800-core coverage at 2000", cov.ys[1], 0.6 - 0.05, 0.6 + 0.05)

    # --- book-share core of the modern window ----------------------------
    modern = aggregate_window(store, CORE_2000_WINDOW)
    share_core = bookshare_core(modern, 0.5)
    check("book-share(0.5) core size", len(share_core), 2302 * 0.95, 2302 * 1.05)
    freq_equal = frequency_core(modern, len(share_core))
    rep = overlap_report(freq_equal, share_core)
    check("overlap of the two core definitions", rep.overlap_pct, 0.79 - 0.03, 0.79 + 0.03)
    symdiff = len(rep.only_a) + len(rep.only_b)
    check("symmetric difference size", symdiff, 482 * 0.9, 482 * 1.1)

    # --- frequency vs book-share correlation ------------------------------
    r_all = pearson_correlation(modern.rel_freq.tolist(), modern.volume_share.tolist())
    check("Pearson r, all words", r_all, 0.15 - 0.05, 0.15 + 0.05)
    top = modern.rank_order[:1000]
    r_top = pearson_correlation(
        modern.rel_freq[top].tolist(), modern.volume_share[top].tolist()
    )
    check("Pearson r, top 1000 words", r_top, 0.25 - 0.05, 0.25 + 0.05)

    # --- core size for 75% coverage ---------------------------------------
    k75 = core_size_for_coverage(modern, 0.75)
    check("K covering 75% of text", k75, 2300 * 0.9, 2300 * 1.1)

    failed = [name for name, v, lo, hi in CHECKS if not lo <= v <= hi]
    (args.work_dir / "full_data_results.json").write_text(
        json.dumps(
            [
                {"name": n, "value": v, "lo": lo, "hi": hi, "pass": lo <= v <= hi}
                for n, v, lo, hi in CHECKS
            ],
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"\n{len(CHECKS) - len(failed)}/{len(CHECKS)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
