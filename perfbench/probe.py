"""Hostile-input probe: one good shard plus one bad input per case.

Each case is a shape that one real shard can contain.  The README
promises that malformed lines are counted and skipped, never fatal, and
that errors never surface as a traceback; the probe counts the cases
where ``lexcore ingest`` aborts and those where it prints a traceback.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

GOOD = "".join(f"probe{chr(97 + i % 26)}{chr(97 + i // 26)}\t{1800 + i % 200}\t{i + 1}\t1\n" for i in range(600))

CASES = {
    "non-utf8": ("bad.tsv", GOOD.encode() + b"caf\xe9\t1850\t3\t1\n"),
    "superscript-year": ("bad.tsv", (GOOD + "word\t190²\t5\t2\n").encode()),
    "truncated-gz": ("bad.tsv.gz", gzip.compress(GOOD.encode() * 8, mtime=0)[:-200]),
    "count-overflow": ("bad.tsv", (GOOD + f"word\t1850\t{2 ** 63}\t1\n").encode()),
}


def run_probe(run_cli, workdir: Path, config: dict) -> dict[str, int]:
    """Run every case; ``run_cli(name, argv)`` returns (exit code, output)."""
    base = workdir / "probe"
    base.mkdir(parents=True, exist_ok=True)
    (base / "good.tsv").write_text(GOOD, encoding="utf-8")
    (base / "config.json").write_text(json.dumps(config), encoding="utf-8")
    fatal = tracebacks = 0
    for name, (filename, data) in CASES.items():
        case = base / name
        case.mkdir(exist_ok=True)
        (case / filename).write_bytes(data)
        rel = case.relative_to(workdir).as_posix()
        rc, output = run_cli(
            f"probe-{name}",
            ["ingest", "probe/good.tsv", f"{rel}/{filename}", "--config", "probe/config.json", "--out", f"{rel}/out"],
        )
        fatal += rc != 0
        tracebacks += "Traceback (most recent call last)" in output
    return {"ingest.fatal_inputs": fatal, "ingest.tracebacks": tracebacks}
