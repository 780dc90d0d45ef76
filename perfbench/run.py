"""lexcore benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lexcore checkout; lexcore is imported from its
``src/``.  A run has four phases, each something a user runs:

1. set-up: generate the corpus with ``lexcore synth`` as a child process
   (three times; the median counts).  ``gbn-mix`` then builds its mix
   from that output, outside the timed span;
2. ingest: ``lexcore ingest`` as a child process;
3. analysis: a fixed chain of CLI commands, one child process each;
4. sweep: one in-process ``load_store``, then a window sweep through
   the library (three times per cycle; the median counts).

Phases 2-4 form a cycle.  Cycles repeat until ``--seconds`` have passed
and each end-to-end metric is the median over cycles.  Every cycle's
outputs pass the correctness gate (``gate.py``) before they count.  With
``--trace 1`` the run instead makes one set-up and one cycle in which
every step runs untraced and then traced, back to back, and reports
per-layer metrics from the spans of the traced runs.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it records
the workload mix and the environment.  ``--record`` stores the run's
digests as the reference for its workload and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
WORK = ROOT / ".perfbench_work"
CLI_CODE = "from lexcore.cli import main_entry; main_entry()"
RUN_LIMIT_S = 170.0  # children are killed past this point of the run
THRESHOLD = 0.2  # book-share threshold of overlap and of the sweep
K = 1000  # core size of turnover, coverage, pos and transition
CORE_K = 4000  # core size of the `core` step
SWEEP_KS = (200, K, CORE_K)
TARGETS = (0.5, 0.75, 0.9)
STORE = "store/store.lxst"
SETUPS = 3  # set-up repetitions of an untraced run; setup_s is their median
SWEEPS = 3  # sweeps per untraced cycle; the cycle's sweep time is their median
# Tolerance of the mean K=1000 turnover around the planted churn.  Over
# twelve seeds it read 0.005 above the planted rate on average (rank
# noise at the core boundary) and at most 0.018 above.
CHURN_TOLERANCE = {"clean-churn15": 0.035}
CHAIN_DIRS = ("turnover", "coverage", "overlap", "correlate", "pos", "transition", "group", "core", "report")
SPAN_METRICS = {
    "metrics.turnover_s": ("metrics.turnover_series",),
    "metrics.coverage_s": ("metrics.coverage_series",),
    "metrics.overlap_s": ("metrics.overlap_report",),
    "metrics.correlation_s": ("metrics.pearson_correlation",),
    "metrics.pos_s": ("metrics.pos_composition", "metrics.pos_dropout"),
    "metrics.transition_s": ("metrics.partition_core_transition",),
    "metrics.group_s": ("metrics.group_frequency_series",),
    "metrics.core_size_s": ("metrics.core_size_for_coverage",),
    "windows.aggregate_s": ("windows.aggregate_window",),
    "windows.frequency_core_s": ("windows.frequency_core",),
    "windows.bookshare_core_s": ("windows.bookshare_core",),
    "svgchart.render_s": ("svgchart.line_chart", "svgchart.bar_chart"),
}


def chain() -> list[tuple[str, list[str]]]:
    k, core_k = str(K), str(CORE_K)
    s = ["--store", STORE]
    return [
        ("turnover", ["turnover", *s, "--k", k, "--windows", "standard", "--out", "out/turnover"]),
        ("coverage", ["coverage", *s, "--window", "1800:1849", "--k", k, "--out", "out/coverage"]),
        ("overlap", ["overlap", *s, "--window", "1950:1999", "--threshold", str(THRESHOLD), "--out", "out/overlap"]),
        ("correlate", ["correlate", *s, "--window", "1950:1999", "--out", "out/correlate"]),
        ("pos", ["pos", *s, "--window", "1800:1849", "--window2", "1850:1899", "--k", k, "--out", "out/pos"]),
        ("transition", ["transition", *s, "--window", "1800:1849", "--window2", "1950:1999", "--k", k, "--out", "out/transition"]),
        ("group", ["group", *s, "--words", "words.txt", "--name", "sample", "--out", "out/group"]),
        ("core", ["core", *s, "--window", "1950:1999", "--k", core_k, "--out", "out/core"]),
        ("report", ["report", "out/turnover", "out/coverage", "out/pos", "out/transition", "out/group", "--out", "out/report", "--no-timestamp"]),
    ]


@dataclass
class Step:
    name: str
    wall: float
    rss_mb: float
    rc: int
    output: str
    trace: dict | None = None
    plain_wall: float = 0.0  # traced steps: wall of the untraced run just before


@dataclass
class Cycle:
    ingest: Step
    steps: list[Step]
    sweep_s: float
    sweep: dict | None
    sweep_plain_s: float = 0.0  # traced cycles: the untraced sweep just before
    sweep_spans: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)


class Bench:
    """One run: work directory, child processes and the operation tally."""

    def __init__(self, workload, seed: int, deadline: float, launcher: subprocess.Popen):
        self.workload = workload
        self.launcher = launcher
        self.seed = seed
        self.deadline = deadline
        self.workdir = WORK / workload.name
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok

    def call(self, what: str, fn, *args):
        """A library call; one that raises counts as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # the benchmark keeps going and reports it
            self.failed += 1
            print(f"perfbench: FAILED {what}: {exc!r}", file=sys.stderr)
            return None

    def cli(self, name: str, argv: list[str], traced: bool = False) -> Step:
        """Run ``lexcore argv`` in the work directory through the launcher."""
        logs = self.workdir / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        spans = self.workdir / "spans" / f"{name}.json"
        if traced:
            spans.parent.mkdir(parents=True, exist_ok=True)
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "tracing.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-c", CLI_CODE, *argv]
        log_path = logs / f"{name}.log"
        request = {
            "cmd": cmd,
            "cwd": str(self.workdir),
            "env": self.env,
            "log": str(log_path),
            "timeout": max(1.0, self.deadline - perf_counter()),
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        trace = json.loads(spans.read_text(encoding="utf-8")) if traced and spans.exists() else None
        output = log_path.read_text(encoding="utf-8", errors="replace")
        return Step(name, reply["wall"], reply["maxrss_kb"] / 1024, reply["rc"], output, trace)

    def step(self, name: str, argv: list[str], traced: bool, reset: tuple[str, ...] = ()) -> Step:
        """A checked CLI step.  Traced, it runs untraced and then traced,
        back to back, so the tracing overhead is a paired difference.
        ``reset`` names work directories removed before each run."""
        plain_wall = 0.0
        for trace_this in (False, True) if traced else (False,):
            for d in reset:
                shutil.rmtree(self.workdir / d, ignore_errors=True)
            step = self.cli(name, argv, trace_this)
            self.check(step.rc == 0, f"{name} exit status" + (" (traced)" if trace_this else ""))
            if not trace_this:
                plain_wall = step.wall
        step.plain_wall = plain_wall
        return step


# ------------------------------------------------------------ phases


def set_up(b: Bench, traced: bool) -> Step:
    """Generate the corpus with ``lexcore synth``; gbn-mix's base goes to ``gbn-base/``."""
    w = b.workload
    out = "gbn-base" if w.gbn_mix else "corpus"
    argv = ["synth", "--config", "synth.json", "--shard-years", str(w.shard_years), "--out", out]
    return b.step("synth", argv, traced, reset=("corpus", "gbn-base"))


def sweep(b: Bench) -> dict | None:
    """Window sweep through the library over 50- and 10-year windows."""
    from lexcore import metrics, store as store_mod, windows

    store = b.call("load_store", store_mod.load_store, b.workdir / STORE)
    if store is None:
        return None
    canon: dict = {}
    res: dict = {"store": store, "turnover": {}, "coverage": {}, "table_words": []}
    for width in (50, 10):
        specs = b.call("standard_windows", windows.standard_windows, store.year_start, store.year_end, width) or []
        cores: dict[int, list] = {k: [] for k in SWEEP_KS}
        for spec in specs:
            table = b.call(f"aggregate_window {spec.label}", windows.aggregate_window, store, spec)
            if table is None:
                continue
            res["table_words"].append(len(table))
            entry = canon[f"{width}:{spec.label}"] = {"words": len(table)}
            for k in SWEEP_KS:
                core = b.call(f"frequency_core {k}", windows.frequency_core, table, k)
                cores[k].append(core)
                if core is not None:
                    b.check(len(core) == min(k, len(table)), f"frequency core size at K={k}")
                    entry[f"core{k}"] = list(core.words)
                    if width == 50 and k == CORE_K and spec.label == "1950-1999":
                        res["core"] = core
            share = b.call("bookshare_core", windows.bookshare_core, table, THRESHOLD)
            sizes = [b.call(f"core_size_for_coverage {t}", metrics.core_size_for_coverage, table, t) for t in TARGETS]
            b.check(None not in sizes and sizes == sorted(sizes), "core size grows with the coverage target")
            r = b.call("pearson_correlation", metrics.pearson_correlation, table.rel_freq.tolist(), table.volume_share.tolist())
            b.check(r is not None and -1 <= r <= 1, "Pearson r lies in [-1, 1]")
            entry.update(bookshare=list(share.words) if share else None, sizes=sizes, r=r)
            if width == 50 and spec.label == "1950-1999":
                res["r_1950"], res["bookshare_1950"] = r, len(share) if share else None
        for k in SWEEP_KS:
            series = b.call(f"turnover_series {k}", metrics.turnover_series, cores[k])
            res["turnover"][(width, k)] = series
            canon[f"turnover{width}:{k}"] = series.points if series else None
        for core in cores[K]:
            series = b.call("coverage_series", metrics.coverage_series, core, store, store.years)
            if core is not None:
                res["coverage"][core.source.label] = series
                canon[f"coverage{width}:{core.source.label}"] = series.points if series else None
        drops = [b.call("pos_dropout", metrics.pos_dropout, a, c) for a, c in zip(cores[K], cores[K][1:])]
        if width == 50:
            res["pos_dropout"] = drops[0]
        canon[f"pos_dropout{width}"] = [{t.name: v for t, v in d.items()} if d else None for d in drops]
    res["digest"] = hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()
    return res


def run_cycle(b: Bench, corpus, traced: bool) -> Cycle:
    from tracing import Tracer

    shutil.rmtree(b.workdir / "out", ignore_errors=True)
    ingest = b.step(
        "ingest",
        ["ingest", *corpus.shards, "--config", "config.json", "--volumes", corpus.volumes,
         "--threads", str(b.workload.threads), "--out", "store"],
        traced,
        reset=("store",),
    )
    steps = [b.step(name, argv, traced) for name, argv in chain()]
    tracer = Tracer()
    result, times = None, []
    # Traced: one untraced sweep, then one traced sweep right after it.
    for trace_this in (False, True) if traced else (False,) * SWEEPS:
        start = perf_counter()
        if trace_this:
            with tracer.installed():
                again = sweep(b)
        else:
            again = sweep(b)
        times.append(perf_counter() - start)
        if result is None:
            result = again
        else:
            b.check(again is not None and again["digest"] == result["digest"], "sweep repeats identically")
        again = None
    if traced:
        return Cycle(ingest, steps, times[1], result, times[0], tracer.spans)
    return Cycle(ingest, steps, median(times), result)


def gate_cycle(b: Bench, corpus, reference, cycle: Cycle, first: Cycle | None, refs: dict | None, inputs: str) -> None:
    """Check one cycle's outputs; fills ``cycle.digests`` for --record."""
    import gate
    from corpora import STATS_KEYS, digest_of_store

    workdir = b.workdir
    stats_path = workdir / "store/ingest_stats.json"
    stats = json.loads(stats_path.read_text(encoding="utf-8")) if stats_path.exists() else {}
    store = cycle.sweep["store"] if cycle.sweep else None
    store_digest = digest_of_store(store) if store is not None else None
    if store is not None:
        gate.check_store(b.check, store_digest, reference, stats)
        b.check(stats.get("lines") == corpus.lines, "ingest read every line written")
        cycle.sweep["rows"], cycle.sweep["words"] = len(store.word_id), len(store.words)
        cycle.sweep["store"] = None
        gate.check_outputs(b.check, workdir, K, cycle.sweep, CHURN_TOLERANCE.get(b.workload.name))
    outputs, manifests = gate.output_digests(workdir, ["store", *(f"out/{d}" for d in CHAIN_DIRS)])
    cycle.digests = {
        "inputs": inputs,
        "store": store_digest,
        "stats": {k: stats.get(k) for k in STATS_KEYS},
        "outputs": outputs,
        "manifests": manifests,
        "sweep": cycle.sweep["digest"] if cycle.sweep else None,
    }
    if first is not None:
        b.check(cycle.digests == first.digests, "outputs identical across cycles")
    if refs is not None:
        gate.check_against_refs(b.check, refs, cycle.digests)


# ------------------------------------------------------------ metrics


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(b: Bench, corpus, setups: list[float], cycles: list[Cycle]) -> dict[str, float]:
    store_bytes = (b.workdir / STORE).stat().st_size if (b.workdir / STORE).exists() else 0
    return {
        "setup_s": median(setups),
        "ingest_lines_per_s": median(corpus.lines / c.ingest.wall for c in cycles),
        "analysis_s": median(sum(s.wall for s in c.steps) for c in cycles),
        "sweep_s": median(c.sweep_s for c in cycles),
        "ingest_peak_rss_mb": median(c.ingest.rss_mb for c in cycles),
        "query_peak_rss_mb": median(max(s.rss_mb for s in c.steps) for c in cycles),
        "store_bytes_per_input_byte": store_bytes / corpus.input_bytes,
        "ok_share": (b.attempted - b.failed) / b.attempted,
    }


def per_layer(b: Bench, corpus, traced: Cycle, setup: Step, baseline_s: float | None, probe: dict) -> dict[str, float]:
    from corpora import MIX_KINDS
    from tracing import LAYERS, self_times, top_level_time

    def spans_of(steps):
        return [s.trace["spans"] if s.trace else [] for s in steps]

    children = spans_of([traced.ingest, *traced.steps])
    queries = [*spans_of(traced.steps), traced.sweep_spans]

    def self_sum(span_lists, names) -> tuple[float, int]:
        total, calls = 0.0, 0
        for spans in span_lists:
            for span, t in zip(spans, self_times(spans)):
                if span[0] in names:
                    total += t
                    calls += 1
        return total, calls

    out: dict[str, float] = {}
    gen_s = self_sum(spans_of([setup]), ("synth.generate_corpus",))[0]
    out["synth.generate_s"] = gen_s
    out["synth.lines_per_s"] = corpus.synth_lines / gen_s if gen_s else 0.0

    stats_path = b.workdir / "store/ingest_stats.json"
    stats = json.loads(stats_path.read_text(encoding="utf-8")) if stats_path.exists() else {}
    rows = (traced.sweep or {}).get("rows", 0)
    build_s = self_sum(children[:1], ("ingest.build_store",))[0]
    out["ingest.build_store_s"] = build_s
    out["ingest.build_store_threads1_s"] = baseline_s if baseline_s is not None else build_s
    out["ingest.lines_in"] = stats.get("lines", 0)
    out["ingest.input_bytes"] = corpus.input_bytes
    out["ingest.rows_out"] = rows
    out["ingest.kept_share"] = rows / stats["lines"] if stats.get("lines") else 0.0
    out["ingest.words"] = (traced.sweep or {}).get("words", 0)
    for key in ("malformed", "out_of_range", "invalid_counts", "nonlexical_rows", "wildcard_rows",
                "duplicate_rows", "dropped_pos_variants"):
        out[f"ingest.{key}"] = stats.get(key, 0)
    out.update(probe)

    file_bytes = (b.workdir / STORE).stat().st_size if (b.workdir / STORE).exists() else 0
    loads = [end - start for spans in queries for name, start, end, _ in spans if name == "store.load_store"]
    load_s = median(loads) if loads else 0.0
    out["store.save_s"] = self_sum(children[:1], ("store.save_store",))[0]
    out["store.load_s"] = load_s
    out["store.load_mb_per_s"] = file_bytes / 1e6 / load_s if load_s else 0.0
    out["store.file_bytes"] = file_bytes

    for metric, names in SPAN_METRICS.items():
        out[metric] = self_sum(queries, names)[0]
    agg_s, agg_calls = self_sum(queries, ("windows.aggregate_window",))
    out["windows.aggregate_calls"] = agg_calls
    out["windows.aggregate_rows_per_s"] = agg_calls * rows / agg_s if agg_s else 0.0
    words = (traced.sweep or {}).get("table_words") or [0]
    out["windows.table_words"] = sum(words) / len(words)

    serialize_names = tuple(f"serialize.{n}" for n in LAYERS["serialize"])
    out["serialize.write_s"] = self_sum(children, serialize_names)[0]
    out["serialize.bytes_written"] = sum(p.stat().st_size for p in (b.workdir / "out").rglob("*") if p.is_file())

    imports = [s.trace["import_s"] for s in (traced.ingest, *traced.steps) if s.trace]
    out["cli.import_s"] = median(imports) if imports else 0.0
    overhead = 0.0
    for step, spans in zip([traced.ingest, *traced.steps], children):
        out[f"cli.{step.name}_s"] = step.wall
        overhead += step.wall - top_level_time(spans)
    out["cli.overhead_s"] = overhead

    # Each traced step ran right after its untraced twin; the overhead is
    # the sum of those paired differences over set-up, cycle and sweep.
    pairs = [(s.plain_wall, s.wall) for s in (setup, traced.ingest, *traced.steps)]
    pairs.append((traced.sweep_plain_s, traced.sweep_s))
    plain_s = sum(p for p, _ in pairs)
    out["trace.overhead_s"] = sum(t - p for p, t in pairs)
    out["trace.overhead_share"] = out["trace.overhead_s"] / plain_s
    for kind in MIX_KINDS:
        out[f"mix.{kind}_share"] = corpus.mix.get(kind, 0) / corpus.lines
    env = environment()
    out["env.src_lines"], out["env.nproc"] = env["src_lines"], env["nproc"]
    return out


# ------------------------------------------------------------ environment


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


# ------------------------------------------------------------ main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0, help="measurement budget for repeated cycles")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="store this run's digests as the seed's reference")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv: list[str]) -> int:
    started = perf_counter()
    args = parse_args(argv)
    if not (SRC / "lexcore" / "__init__.py").is_file():
        print(f"perfbench: no lexcore sources under {SRC}; run from a lexcore checkout", file=sys.stderr)
        return 2
    # Started while this process is still small; see launcher.py.
    launcher = subprocess.Popen(
        [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    try:
        return run(args, started, launcher)
    finally:
        launcher.stdin.close()
        launcher.wait()


def run(args, started: float, launcher: subprocess.Popen) -> int:
    sys.path.insert(0, str(SRC))
    import lexcore

    if Path(lexcore.__file__).resolve().parent != SRC / "lexcore":
        print(f"perfbench: imported lexcore from {lexcore.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import corpora
    import probe
    from tracing import Tracer, self_times

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in corpora.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = corpora.WORKLOADS[args.workload]
    b = Bench(w, args.seed, started + RUN_LIMIT_S, launcher)
    shutil.rmtree(b.workdir, ignore_errors=True)
    b.workdir.mkdir(parents=True)
    (b.workdir / "config.json").write_text(json.dumps(corpora.RUN_CONFIG), encoding="utf-8")
    (b.workdir / "synth.json").write_text(json.dumps(corpora.synth_config(w, args.seed).to_dict()), encoding="utf-8")

    ref_file = REFS / f"{w.name}.json"
    all_refs = json.loads(ref_file.read_text(encoding="utf-8")) if ref_file.exists() else {}
    refs = None if args.record else all_refs.get(str(args.seed))

    setups = [set_up(b, bool(args.trace)) for _ in range(1 if args.trace else SETUPS)]
    corpus = corpora.write_gbn_mix(w, args.seed, b.workdir) if w.gbn_mix else corpora.describe_synth(b.workdir)
    reference = corpora.reference(b.workdir, corpus, w.synth.volumes_per_year)
    words = reference.words[:: max(1, len(reference.words) // 40)][:40] + ["absentword"]
    (b.workdir / "words.txt").write_text("\n".join(words) + "\n", encoding="utf-8")
    inputs = corpora.input_digest(b.workdir, corpus)

    cycles: list[Cycle] = []
    measure = perf_counter()
    while True:
        cycle = run_cycle(b, corpus, traced=bool(args.trace))
        gate_cycle(b, corpus, reference, cycle, cycles[0] if cycles else None, refs, inputs)
        cycles.append(cycle)
        if args.trace or perf_counter() - measure >= args.seconds:
            break

    if args.trace:
        baseline_s = None
        if w.threads > 1:
            from lexcore import config as config_mod, ingest

            base_tracer = Tracer()
            cfg = config_mod.config_from_dict(corpora.RUN_CONFIG)
            with base_tracer.installed():
                b.call("build_store threads=1", ingest.build_store,
                       [b.workdir / s for s in corpus.shards], cfg, b.workdir / corpus.volumes, 1)
            baseline_s = sum(t for span, t in zip(base_tracer.spans, self_times(base_tracer.spans))
                             if span[0] == "ingest.build_store")

        def probe_cli(name, argv):
            step = b.cli(name, argv)
            return step.rc, step.output

        found = probe.run_probe(probe_cli, b.workdir, corpora.RUN_CONFIG)
        values = per_layer(b, corpus, cycles[0], setups[0], baseline_s, found)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(b, corpus, [s.wall for s in setups], cycles)
        wanted = spec["end_to_end"]

    missing = sorted({m["name"] for m in wanted} - values.keys())
    if missing:
        print(f"perfbench: metrics not computed: {', '.join(missing)}", file=sys.stderr)
        return 3
    if args.record:
        if b.failed:
            print("perfbench: not recording a reference from a run with failures", file=sys.stderr)
            return 1
        all_refs[str(args.seed)] = cycles[0].digests
        REFS.mkdir(exist_ok=True)
        ref_file.write_text(json.dumps(all_refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    context = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "cycles": len(cycles),
        "reference_seed": refs is not None,
        "lines": corpus.lines,
        "input_bytes": corpus.input_bytes,
        "mix_share": {k: corpus.mix.get(k, 0) / corpus.lines for k in corpora.MIX_KINDS},
        "store_rows": cycles[0].sweep.get("rows") if cycles[0].sweep else None,
        "store_words": cycles[0].sweep.get("words") if cycles[0].sweep else None,
        "store_bytes": (b.workdir / STORE).stat().st_size if (b.workdir / STORE).exists() else None,
        "output_bytes": sum(p.stat().st_size for p in (b.workdir / "out").rglob("*") if p.is_file()),
        "environment": environment(),
        "run_s": perf_counter() - started,
    }
    print(json.dumps({"context": context}))
    if not b.failed:
        shutil.rmtree(b.workdir, ignore_errors=True)
    result = {
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
