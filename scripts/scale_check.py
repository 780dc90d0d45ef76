#!/usr/bin/env python3
"""Run lexcore's query children on the 1M-word scale corpus and report what each cost.

The scale corpus is one 20-year shard of a 1,000,000-word vocabulary at
3M tokens a year (below synth's advised 100 tokens a word, so it warns).
The script synthesises it, ingests it at one thread, then runs five
query commands, each in a child process of its own:

  * ``core --window 1800:1809 --k 1000``
  * ``turnover --width 5 --k 1000``
  * ``coverage --window 1800:1809 --k 1000``
  * ``pos --window 1800:1809 --window2 1810:1819 --k 1000``
  * ``correlate --window 1800:1809``

For every child it prints the wall time, the CPU seconds (user plus
system), the peak RSS and a digest of the files it wrote.  The peak RSS
is the child's own: Linux carries a process's peak over ``exec`` from
its spawner, and this script, which imports neither numpy nor lexcore
and reads files a megabyte at a time, stays far smaller than any child.
Synth takes about 3 s and 290 MB, ingest about 15 s and 770 MB, and the
store is 67,281,088 bytes.  Usage, from the root of a checkout::

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

    row = "{:<10} {:>8} {:>8} {:>10}  {}"
    print(row.format("step", "wall s", "cpu s", "peak MB", "digest"))
    synth = ["synth", "--config", "synth.json", "--shard-years", "20", "--out", "corpus"]
    ingest = ["ingest", "corpus/synth-1800-1819.tsv", "--config", "config.json", "--volumes", "corpus/volumes.tsv"]
    steps = [("synth", synth), ("ingest", [*ingest, "--threads", "1", "--out", "store"])]
    steps += [(name, [name, "--store", "store/store.lxst", *rest, "--out", f"out/{name}"]) for name, rest in QUERIES.items()]
    for name, argv in steps:
        wall, cpu, peak = lexcore(work, argv)
        print(row.format(name, f"{wall:.2f}", f"{cpu:.2f}", f"{peak:.1f}", digest(work / argv[-1])), flush=True)
    print(f"store.lxst: {(work / 'store' / 'store.lxst').stat().st_size:,} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
