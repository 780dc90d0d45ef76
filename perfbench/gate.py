"""Correctness gate: every output of a cycle is checked before it counts.

Three kinds of check:

* against the reference model (``corpora.reference``) on every seed:
  store contents and ingest counters;
* against the library and against invariants on every seed: the CLI's
  turnover, coverage, core, correlation, overlap and POS-dropout outputs
  must equal what the in-process sweep computed from the same store,
  and the planted churn must be recovered;
* against references recorded at the commit that defined the benchmark,
  for the seeds in ``refs/<workload>.json``: input, store, counter,
  output and sweep digests.
"""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

from corpora import STATS_KEYS

# Manifest fields compared by key; timestamps and the file-level
# store_hash are left out on purpose.
MANIFEST_KEYS = ("subcommand", "inputs", "output_dir", "params")


def output_digests(workdir: Path, dirs: list[str]) -> tuple[dict[str, str], dict[str, dict]]:
    """SHA-256 of every output file, and the comparable part of each manifest."""
    digests, manifests = {}, {}
    for d in dirs:
        for path in sorted((workdir / d).rglob("*")):
            if not path.is_file():
                continue
            rel = path.relative_to(workdir).as_posix()
            if path.name == "manifest.json":
                doc = json.loads(path.read_text(encoding="utf-8"))
                manifests[rel] = {k: doc.get(k) for k in MANIFEST_KEYS}
            elif path.name not in ("store.lxst", "ingest_stats.json"):
                digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests, manifests


def same_manifest(ref: dict, got: dict) -> bool:
    """Equal on every key the reference has; params compared key by key."""
    for key, value in ref.items():
        if key == "params":
            params = got.get("params") or {}
            if any(params.get(k) != v for k, v in value.items()):
                return False
        elif got.get(key) != value:
            return False
    return True


def read_csv(path: Path) -> list[tuple[str, str]]:
    return [tuple(line.split(",", 1)) for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def check_against_refs(check, ref: dict, got: dict) -> None:
    """Compare one cycle's digests with a recorded reference."""
    check(got["inputs"] == ref["inputs"], "input digest matches the recorded reference")
    check(got["store"] == ref["store"], "store digest matches the recorded reference")
    check(
        all(got["stats"].get(k) == v for k, v in ref["stats"].items()),
        "ingest counters match the recorded reference",
    )
    check(got["outputs"] == ref["outputs"], "output digests match the recorded reference")
    check(
        ref["manifests"].keys() == got["manifests"].keys()
        and all(same_manifest(v, got["manifests"][k]) for k, v in ref["manifests"].items()),
        "manifests match the recorded reference",
    )
    check(got["sweep"] == ref["sweep"], "sweep digest matches the recorded reference")


def check_outputs(check, workdir: Path, k: int, sweep, churn_tolerance: float | None) -> None:
    """Cross-check CLI outputs with the sweep's library results, plus invariants.

    ``k`` is the core size of the turnover, coverage, pos and transition steps.
    """
    from lexcore import serialize, windows

    out = workdir / "out"

    def guarded(what, fn):
        try:
            ok = bool(fn())
        except (OSError, ValueError, KeyError, IndexError, TypeError, ET.ParseError):
            ok = False
        check(ok, what)

    guarded(
        "turnover.csv equals the library's turnover series",
        lambda: (out / "turnover/turnover.csv").read_text(encoding="utf-8")
        == serialize.series_to_csv(sweep["turnover"][(50, k)]),
    )
    guarded(
        "coverage CSV equals the library's coverage series",
        lambda: (out / "coverage/coverage_1800-1849.csv").read_text(encoding="utf-8")
        == serialize.series_to_csv(sweep["coverage"]["1800-1849"]),
    )

    def core_file():
        (path,) = (out / "core").glob("*.tsv")
        expected = workdir / "expected-core.tsv"
        windows.write_core(sweep["core"], expected)
        return path.read_bytes() == expected.read_bytes()

    guarded("core TSV equals the library's core", core_file)
    guarded(
        "correlation equals the library's Pearson r",
        lambda: float(dict(read_csv(out / "correlate/correlation.csv"))["pearson_r"]) == sweep["r_1950"],
    )

    def overlap():
        items = dict(read_csv(out / "overlap/overlap.csv"))
        n = sweep["bookshare_1950"]
        return int(items["size_b"]) == n and int(items["size_a"]) == max(n, 1)

    guarded("overlap sizes equal the library's book-share core", overlap)
    guarded(
        "POS dropout equals the library's",
        lambda: (out / "pos/pos_dropout.csv").read_text(encoding="utf-8")
        == serialize.mapping_to_csv({t.name: v for t, v in sweep["pos_dropout"].items()}),
    )
    guarded(
        "POS composition sums to 1",
        lambda: abs(sum(float(v) for _, v in read_csv(out / "pos/pos_composition.csv")) - 1) < 1e-9,
    )

    def transition():
        doc = json.loads((out / "transition/transition.json").read_text(encoding="utf-8"))
        both = len(doc["both"])
        return both + len(doc["only_old"]) == k and both + len(doc["only_new"]) == k

    guarded("transition partitions two cores of size K", transition)

    def group():
        points = read_csv(out / "group/group_sample.csv")
        return len(points) == 200 and all(0 < float(v) < 1 for _, v in points)

    guarded("group series covers every year with shares in (0, 1)", group)

    def svgs():
        paths = sorted((out / "report").glob("*.svg"))
        return len(paths) >= 4 and all(ET.parse(p).getroot().tag.endswith("svg") for p in paths)

    guarded("report writes well-formed SVG figures", svgs)

    def churn():
        ys = [float(v) for _, v in read_csv(out / "turnover/turnover.csv")]
        truth = json.loads((workdir / "corpus/truth.json").read_text(encoding="utf-8"))
        mean = sum(ys) / len(ys)
        return all(0 <= y <= 1 for y in ys) and (
            churn_tolerance is None or abs(mean - truth["config"]["churn"]) <= churn_tolerance
        )

    guarded("turnover is a share and recovers the planted churn", churn)


def check_store(check, store_digest: str, reference, stats: dict) -> None:
    check(store_digest == reference.store_digest, "store equals the reference model")
    check(
        all(stats.get(key) == reference.stats[key] for key in STATS_KEYS),
        "ingest counters equal the reference model's",
    )
