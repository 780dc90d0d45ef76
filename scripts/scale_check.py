#!/usr/bin/env python3
"""Run lexcore's ingest and query children on the 1M-word scale corpus and report what each cost.

The scale corpus is one 20-year shard of a 1,000,000-word vocabulary at
3M tokens a year (below synth's advised 100 tokens a word, so it warns).
The script synthesises it and ingests it at one thread twice: as synth
wrote it, year-major, and sorted by token (``LC_ALL=C sort -s -t$'\\t'
-k1,1``), the order of real Google Books shards.  It then runs five
query commands on the store, each in a child process of its own:

  * ``core --window 1800:1809 --k 1000``
  * ``turnover --width 5 --k 1000``
  * ``coverage --window 1800:1809 --k 1000``
  * ``pos --window 1800:1809 --window2 1810:1819 --k 1000``
  * ``correlate --window 1800:1809``

For every child it prints the wall time, the CPU seconds (user plus
system), the peak RSS and a digest of the files it wrote, and for each
ingest the process's peak RSS at the end of each stage
(``stage_peak_rss_mb`` of its ``ingest_stats.json``).  The peak RSS is
the child's own: Linux carries a process's peak over ``exec`` from its
spawner, and this script, which imports neither numpy nor lexcore and
reads files a megabyte at a time, stays far smaller than any child.
Synth takes about 3 s and 290 MB, each ingest about 10 to 15 s and
under 600 MB, and the store is 67,281,088 bytes.

Each digest is checked against the committed one in ``DIGESTS``; both
ingests must give the same store.  The script exits 1 and names every
step whose digest differs.  A change that alters an output updates
``DIGESTS`` and says why.  Synth draws from numpy's ``Generator``, whose
streams numpy does not promise across versions, so another numpy may
change every digest.  Usage, from the root of a checkout::

    python scripts/scale_check.py <work-dir>
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SYNTH_CONFIG = {
    "vocabulary": 1_000_000,
    "year_start": 1800,
    "year_end": 1819,
    "tokens_per_year": 3_000_000,
    "volumes_per_year": 2000,
    "seed": 1,
}
QUERIES = {
    "core": ["--window", "1800:1809", "--k", "1000"],
    "turnover": ["--width", "5", "--k", "1000"],
    "coverage": ["--window", "1800:1809", "--k", "1000"],
    "pos": ["--window", "1800:1809", "--window2", "1810:1819", "--k", "1000"],
    "correlate": ["--window", "1800:1809"],
}
# Each step's digest (see digest()); both ingests, of either shard order, give the one store.
DIGESTS = {
    "synth": "442aaf4b55a2942c",
    "ingest": "8e52d1da755e0e1d",
    "core": "7d7014ee31851723",
    "turnover": "184e1aabecbfac73",
    "coverage": "16d368436aac4b58",
    "pos": "4fdb0b1491a04c92",
    "correlate": "ca5e1ecefa76713a",
}


def lexcore(work: Path, argv: list[str]) -> tuple[float, float, float]:
    """Run ``lexcore argv`` in ``work`` as a child; its wall seconds, CPU seconds and peak RSS in MB."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-c", "from lexcore.cli import main_entry; main_entry()", "--log-level", "WARNING", *argv]
    started = time.perf_counter()
    child = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)  # the child's own usage, which Popen.wait does not give
    wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait for it
    if child.returncode:
        raise SystemExit(f"lexcore {' '.join(argv)} exited with status {child.returncode}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def digest(directory: Path) -> str:
    """SHA-256 over the names and bytes of the files a step wrote to ``directory``.

    Files are read a megabyte at a time, so this script stays small.  The
    manifest's timestamps and the ingest stats' timings differ from run to
    run, so those two files are left out.
    """
    sha = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.name not in ("manifest.json", "ingest_stats.json"):
            sha.update(path.name.encode() + b"\0")
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    sha.update(chunk)
    return sha.hexdigest()[:16]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/scale_check.py <work-dir>", file=sys.stderr)
        return 2
    work = Path(argv[0]).resolve()
    work.mkdir(parents=True, exist_ok=True)
    (work / "synth.json").write_text(json.dumps(SYNTH_CONFIG), encoding="utf-8")
    config = json.loads((ROOT / "fixtures" / "english-1800-1999.json").read_text(encoding="utf-8"))
    config.update(year_start=SYNTH_CONFIG["year_start"], year_end=SYNTH_CONFIG["year_end"])
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")

    row = "{:<14} {:>8} {:>8} {:>10}  {}"
    print(row.format("step", "wall s", "cpu s", "peak MB", "digest"))
    differ = []

    def step(name: str, argv: list[str]) -> None:
        wall, cpu, peak = lexcore(work, argv)
        found, committed = digest(work / argv[-1]), DIGESTS[name.split()[0]]
        if found != committed:
            differ.append(name)
            found += f" (committed {committed})"
        print(row.format(name, f"{wall:.2f}", f"{cpu:.2f}", f"{peak:.1f}", found), flush=True)
        if name.startswith("ingest"):
            stats = json.loads((work / argv[-1] / "ingest_stats.json").read_text(encoding="utf-8"))
            stages = ", ".join(f"{stage} {mb:.1f}" for stage, mb in stats["stage_peak_rss_mb"].items())
            print(f"  stage peak RSS MB: {stages}", flush=True)

    step("synth", ["synth", "--config", "synth.json", "--shard-years", "20", "--out", "corpus"])
    shard = "synth-1800-1819.tsv"
    (work / "sorted").mkdir(exist_ok=True)
    with open(work / "sorted" / shard, "wb") as out:
        sort = ["sort", "-s", "-t", "\t", "-k1,1", "-S", "256M", "-T", str(work / "sorted")]
        subprocess.run([*sort, str(work / "corpus" / shard)], stdout=out, check=True, env={**os.environ, "LC_ALL": "C"})
    for order, directory in (("synth", "corpus"), ("token", "sorted")):
        argv = ["ingest", f"{directory}/{shard}", "--config", "config.json", "--volumes", "corpus/volumes.tsv"]
        step(f"ingest {order}", [*argv, "--threads", "1", "--out", f"store-{order}"])
    for name, rest in QUERIES.items():
        step(name, [name, "--store", "store-synth/store.lxst", *rest, "--out", f"out/{name}"])
    print(f"store.lxst: {(work / 'store-synth' / 'store.lxst').stat().st_size:,} bytes")
    if differ:
        print(f"digests differ from the committed ones: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
