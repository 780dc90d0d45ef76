"""Command-line surface: ingest -> store -> windows -> metrics -> figures.

Exit codes: 0 success, 1 data error (bad file, bad store, empty window),
2 usage error (bad flags).  Every run writes a ``manifest.json`` next to
its outputs recording the resolved parameters and their hash; the
``report`` command refuses inputs whose manifests disagree on the
underlying store.

A CLI run is short, so two rules keep its fixed cost down:

* Layers run on first use.  Importing this module registers every
  lexcore module in ``sys.modules`` through
  :class:`importlib.util.LazyLoader`, and commands reach layer functions
  through their modules when they call them.  A module's code, and numpy
  with it, runs only when a command first reads one of its names:
  ``report`` never loads numpy, and a query never loads ``ingest``,
  ``synth`` or ``svgchart``.  Every layer is still registered, because a
  tool that wraps the public functions of the loaded lexcore modules,
  such as perfbench's tracer, finds them in ``sys.modules``; calls go
  through module attributes, so its wrappers see every call.
* The heap is frozen before exit.  :func:`main_entry` calls
  :func:`gc.freeze` once the command has returned, so the interpreter's
  final collection skips every live object.  Every output is closed by
  then; ``atexit`` handlers and module teardown still run.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import logging
import os
import re
import sys
import time
from datetime import datetime, timezone
from functools import cached_property, partial
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .store import CorpusStore


def _register_lazily(name: str) -> None:
    """Register ``lexcore.<name>``, bound on the package as an import would bind it.

    The module's code runs when one of its names is first read.
    """
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)


for _name in "alphabets config errors ingest metrics postags serialize store svgchart synth windows".split():
    _register_lazily(_name)

# Registered above, so these bind the lazy modules and load none of them.
from . import config, errors, ingest, metrics, serialize, svgchart, synth, windows  # noqa: E402

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"


def _utcnow() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _resolve_input(path_str: str) -> Path:
    """Resolve an input path, falling back to $LEXCORE_DATA_DIR."""
    p = Path(path_str)
    if p.exists() or p.is_absolute():
        return p
    base = os.environ.get("LEXCORE_DATA_DIR")
    if base and (Path(base) / p).exists():
        return Path(base) / p
    return p


class _Run:
    """The run protocol shared by every command, one instance per invocation.

    It takes the ``created`` timestamp, loads ``--store`` on first use and
    records the store's digest, creates ``--out`` on first use, extracts
    the cores that ``--k`` or ``--threshold`` ask for, and writes outputs,
    recording each path in :attr:`paths`.  A command takes ``(args, run)``
    and returns its own params; :meth:`finish` adds the shared params,
    writes the manifest and prints the paths.
    """

    def __init__(self, args) -> None:
        self.args = args
        self.created = _utcnow()
        self.inputs: list[str] = [args.store] if "store" in args else []
        self.store_hash: str | None = None
        self.paths: list[Path] = []  # printed by finish; a command appends what a library call wrote

    @cached_property
    def store(self) -> CorpusStore:
        from .store import load_store

        store = load_store(_resolve_input(self.args.store))
        self.store_hash = store.digest
        return store

    @cached_property
    def years(self) -> range:
        """``--years``, defaulting to the store's year range."""
        return self.args.years or self.store.years

    def core(self, window: windows.WindowSpec) -> windows.Core:
        """The core of ``window`` that ``--k`` or ``--threshold`` asks for; argparse requires exactly one."""
        table = windows.aggregate_window(self.store, window)
        if self.args.k is not None:
            return windows.frequency_core(table, self.args.k)
        return windows.bookshare_core(table, self.args.threshold)

    @cached_property
    def out(self) -> Path:
        out = Path(self.args.out)
        out.mkdir(parents=True, exist_ok=True)
        return out

    def emit(self, name: str, text: str) -> None:
        """Write ``text`` to ``name`` under ``--out``, atomically, and record its path."""
        path = self.out / name
        serialize.write_text_atomic(path, text)
        self.paths.append(path)

    def write(self, stem: str, result, to_csv, to_json) -> None:
        """Emit ``result`` as ``stem.csv`` or ``stem.json``, as ``--format`` says."""
        if self.args.format == "json":
            self.emit(f"{stem}.json", serialize.dump_json(to_json(result)))
        else:
            self.emit(f"{stem}.csv", to_csv(result))

    def finish(self, params: dict) -> int:
        args = self.args
        shared = {key: getattr(args, key) for key in ("store", "k", "threshold", "format") if key in args}
        if "window" in args:
            shared["window"] = args.window.label
        if "years" in args:
            shared["years"] = [min(self.years), max(self.years)]
        params = {**shared, **params}
        doc = {
            "schema": "lexcore.manifest/1",
            "subcommand": args.subcommand,
            "params": params,
            "params_hash": config.params_hash(params),
            "inputs": self.inputs,
            "output_dir": str(self.out),
            "store_hash": self.store_hash,
            "tool_version": __version__,
            "created_utc": self.created,
            "completed_utc": _utcnow(),
        }
        serialize.write_text_atomic(self.out / MANIFEST_NAME, serialize.dump_json(doc))
        for p in self.paths:
            print(p)
        return 0


# ---------------------------------------------------------------- commands


def cmd_ingest(args, run: _Run):
    from .store import save_store

    run_config = config.load_config(_resolve_input(args.config))
    shards = [_resolve_input(p) for p in args.shards]
    missing = [str(p) for p in shards if not p.exists()]
    if missing:
        raise FileNotFoundError(f"shard(s) not found: {', '.join(missing)}")
    volumes = _resolve_input(args.volumes) if args.volumes else None
    store, stats = ingest.build_store(shards, run_config, volume_sidecar=volumes, threads=args.threads)
    store_path = run.out / "store.lxst"
    started = time.perf_counter()
    run.store_hash = save_store(store, store_path)
    run.paths.append(store_path)
    stats.record("save", time.perf_counter() - started)
    serialize.write_text_atomic(run.out / "ingest_stats.json", serialize.dump_json(stats.to_dict()))
    run.inputs = [str(p) for p in shards]
    return {"config": run_config.to_dict(), "threads": args.threads, "volumes": str(volumes) if volumes else None}


def cmd_synth(args, run: _Run):
    synth_config = args.preset or synth.synth_config_from_dict(config.read_json_object(_resolve_input(args.config)))
    result = synth.generate_corpus(synth_config, run.out, shard_years=args.shard_years, gzip_output=args.gzip)
    run.paths.extend(result.shard_paths)
    return {"synth_config": synth_config.to_dict(), "gzip": args.gzip, "shard_years": args.shard_years}


def cmd_core(args, run: _Run):
    core = run.core(args.window)
    path = run.out / f"core_{core.method}_{core.param:g}_{args.window.label}.tsv"
    windows.write_core(core, path)
    run.paths.append(path)
    return {}


def cmd_turnover(args, run: _Run):
    store = run.store
    specs = args.windows or windows.standard_windows(store.year_start, store.year_end, width=args.width)
    series = metrics.turnover_series([run.core(s) for s in specs])
    run.write("turnover", series, serialize.series_to_csv, serialize.series_to_json)
    return {"windows": [s.label for s in specs]}


def cmd_coverage(args, run: _Run):
    stem = f"coverage_{args.window.label}"
    series = metrics.coverage_series(run.core(args.window), run.store, run.years, name=stem)
    run.write(stem, series, serialize.series_to_csv, serialize.series_to_json)
    return {}


def cmd_overlap(args, run: _Run):
    table = windows.aggregate_window(run.store, args.window)
    share_core = windows.bookshare_core(table, args.threshold)
    k = args.k if args.k is not None else max(len(share_core), 1)
    report = metrics.overlap_report(windows.frequency_core(table, k), share_core)
    run.write("overlap", report, serialize.overlap_to_csv, serialize.overlap_to_json)
    return {"k": k}


def cmd_correlate(args, run: _Run):
    table = windows.aggregate_window(run.store, args.window)
    idx = table.rank_order[: args.k] if args.k is not None else slice(None)
    xs = table.rel_freq[idx].tolist()
    ys = table.volume_share[idx].tolist()
    items = {"pearson_r": metrics.pearson_correlation(xs, ys), "n_words": len(xs)}
    run.write("correlation", items, serialize.mapping_to_csv, partial(serialize.mapping_to_json, "correlation"))
    return {}


def cmd_pos(args, run: _Run):
    core = run.core(args.window)
    comp = {tag.name: share for tag, share in metrics.pos_composition(core).items()}
    run.write("pos_composition", comp, serialize.mapping_to_csv, partial(serialize.mapping_to_json, "pos_composition"))
    window2_text, window2 = args.window2 or (None, None)
    if window2:
        drop = {tag.name: v for tag, v in metrics.pos_dropout(core, run.core(window2)).items()}
        run.write("pos_dropout", drop, serialize.mapping_to_csv, partial(serialize.mapping_to_json, "pos_dropout"))
    return {"window2": window2_text}


def cmd_transition(args, run: _Run):
    partition = metrics.partition_core_transition(run.core(args.window), run.core(args.window2))
    run.emit("transition.json", serialize.dump_json(serialize.partition_to_json(partition)))
    for name in ("both", "only_old", "only_new"):
        series = metrics.coverage_series(getattr(partition, name), run.store, run.years, name=name)
        run.write(f"coverage_{name}", series, serialize.series_to_csv, serialize.series_to_json)
    return {"window2": args.window2.label}


def cmd_group(args, run: _Run):
    store = run.store
    words = [
        line.strip()
        for line in _resolve_input(args.words).read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    series = metrics.group_frequency_series(words, store, run.years, name=args.name)
    run.write(f"group_{args.name}", series, serialize.series_to_csv, serialize.series_to_json)
    return {"words": str(args.words), "name": args.name}


def _read_csv(path: Path, key=float) -> list[tuple]:
    """The rows below a CSV's header row as ``(key(first field), float(second field))``.

    A row without two such fields is a data error naming the file and line.
    """
    rows = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines()[1:], start=2):
        try:
            first, second = line.split(",", 1)
            rows.append((key(first), float(second)))
        except ValueError:
            raise errors.LexcoreError(f"{path}:{lineno}: malformed row {line!r}") from None
    return rows


# Each chart that report draws, in the order it draws them, and the CSV stems it reads.
_CHART_KINDS = {
    "turnover": ("turnover",),
    "coverage": ("coverage", "group"),
    "pos_composition": ("pos_composition",),
    "pos_dropout": ("pos_dropout",),
}


def _labeled(paths: list[Path]) -> list[tuple[str, Path]]:
    """Each CSV with its label: its stem, after as many trailing directory names as tell apart the CSVs that share it."""

    def label(path: Path, depth: int) -> str:
        return "/".join([*(path.parent.parts[-depth:] if depth else ()), path.stem])

    depth = dict.fromkeys((path.stem for path in paths), 0)
    for stem in depth:
        same = [path for path in paths if path.stem == stem]
        deepest = max(len(path.parent.parts) for path in same)
        while len({label(path, depth[stem]) for path in same}) < len(same) and depth[stem] < deepest:
            depth[stem] += 1
    return [(label(path, depth[path.stem]), path) for path in paths]


def cmd_report(args, run: _Run):
    run_dirs = [_resolve_input(d) for d in args.runs]
    hashes = set()
    for d in run_dirs:
        mpath = Path(d) / MANIFEST_NAME
        if not mpath.exists():
            raise errors.LexcoreError(f"{d}: no {MANIFEST_NAME}; not a lexcore run directory")
        store_hash = config.read_json_object(mpath).get("store_hash")
        if not isinstance(store_hash, (str, type(None))):
            raise errors.LexcoreError(f"{mpath}: store_hash must be a string or null")
        hashes.add(store_hash)
    if len(hashes) > 1:
        raise errors.LexcoreError("mismatched manifests: run directories were produced from different stores")
    (run.store_hash,) = hashes
    run.inputs = [str(d) for d in run_dirs]
    timestamp = None if args.no_timestamp else _utcnow()
    # Figures go beside the first run unless --out says otherwise.
    args.out = args.out or str(run_dirs[0])
    csvs = [path for d in run_dirs for path in sorted(Path(d).glob("*.csv"))]
    charts = {kind: _labeled([p for p in csvs if p.stem.startswith(stems)]) for kind, stems in _CHART_KINDS.items()}
    for label, path in charts["turnover"]:
        points = _read_csv(path)
        bars = [("dropout share", [y for _, y in points])]
        ends = [f"{int(x)}" for x, _ in points]
        svg = svgchart.bar_chart(ends, bars, title="Core turnover per window", timestamp=timestamp)
        run.emit(f"{label.replace('/', '_')}.svg", svg)
    if charts["coverage"]:
        series = [(label, _read_csv(path)) for label, path in charts["coverage"]]
        run.emit("coverage.svg", svgchart.line_chart(series, title="Coverage dynamics", timestamp=timestamp))
    for kind in ("pos_composition", "pos_dropout"):
        if not charts[kind]:
            continue
        tables = [(label, dict(_read_csv(path, str))) for label, path in charts[kind]]
        labels: list[str] = []
        for _, items in tables:
            labels.extend(k for k in items if k not in labels)
        groups = [(name, [items.get(k, 0.0) for k in labels]) for name, items in tables]
        run.emit(f"{kind}.svg", svgchart.bar_chart(labels, groups, title=kind.replace("_", " "), timestamp=timestamp))

    if not run.paths:
        raise errors.LexcoreError("no chartable CSV outputs found in the given run directories")
    return {"runs": run.inputs, "no_timestamp": args.no_timestamp}


# ---------------------------------------------------------------- parser


def _flag_error(expected: str, text: str) -> argparse.ArgumentTypeError:
    return argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")


def _number(kind, ok, expected: str):
    """An argparse type: a ``kind`` (int or float) for which ``ok`` holds, as ``expected`` says."""

    def parse(text: str):
        try:
            if ok(value := kind(text)):
                return value
        except ValueError:
            pass
        raise _flag_error(expected, text)

    return parse


_positive_int = _number(int, lambda v: v >= 1, "an integer >= 1")
_share = _number(float, lambda v: 0 < v <= 1, "a number in (0, 1]")


def _preset(name: str):
    """An argparse type: the config of one of synth's presets, by name."""
    try:
        return synth.PRESETS[name]
    except KeyError:
        raise _flag_error(f"one of {', '.join(sorted(synth.PRESETS))}", name) from None


def _start_end(text: str, expected: str) -> tuple[int, int]:
    """The two numbers of a 'START:END' value; any other text is an error naming ``expected``."""
    m = re.fullmatch(r"(\d+):(\d+)", text)
    if not m:
        raise _flag_error(expected, text)
    return int(m.group(1)), int(m.group(2))


def _parse_window(text: str) -> windows.WindowSpec:
    """An argparse type: 'START:END', 'core1800' or 'core2000'."""
    if text == "core1800":
        return windows.CORE_1800_WINDOW
    if text == "core2000":
        return windows.CORE_2000_WINDOW
    start, end = _start_end(text, "'START:END', 'core1800' or 'core2000'")
    try:
        return windows.WindowSpec(start, end)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _window_as_given(text: str) -> tuple[str, windows.WindowSpec]:
    """An argparse type: a window and its text, which ``pos`` records in its manifest."""
    return text, _parse_window(text)


def _parse_windows(text: str) -> list[windows.WindowSpec] | None:
    """An argparse type: two or more comma-separated windows, or None for 'standard'."""
    if text == "standard":
        return None
    specs = [_parse_window(w) for w in text.split(",")]
    if len(specs) < 2:
        raise _flag_error("two or more windows", text)
    return specs


def _parse_years(text: str) -> range:
    """An argparse type: a 'START:END' year range with START <= END."""
    expected = "'START:END' year range"
    start, end = _start_end(text, expected)
    if start > end:
        raise _flag_error(expected, text)
    return range(start, end + 1)


def _add_common(p: argparse.ArgumentParser, *, store=True, window=False, core=False, fmt=True):
    if store:
        p.add_argument("--store", required=True, help="path to a store file built by 'ingest'")
    if window:
        p.add_argument("--window", type=_parse_window, required=True, help="'START:END', 'core1800' or 'core2000'")
    if core:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--k", type=_positive_int, help="frequency-core size (>= 1)")
        group.add_argument("--threshold", type=_share, help="book-share core threshold in (0, 1]")
    p.add_argument("--out", required=True, help="output directory")
    if fmt:
        p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexcore",
        description="Vocabulary-core dynamics from yearly 1-gram counts.",
    )
    parser.add_argument("--version", action="version", version=f"lexcore {__version__}")
    parser.add_argument("--log-level", choices=("DEBUG", "INFO", "WARNING", "ERROR"), default="INFO")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest", help="parse shards into a store file")
    p.add_argument("shards", nargs="+", help="shard TSV files (optionally .gz)")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--volumes", help="per-year total-volumes sidecar")
    p.add_argument("--threads", type=_positive_int, default=1, help="parallel shard parsers (>= 1)")
    p.add_argument("--out", required=True, help="output directory for store.lxst")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic corpus with known truth")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", type=_preset, help="a built-in corpus preset (an unknown name lists them)")
    source.add_argument("--config", help="synth config JSON")
    p.add_argument("--gzip", action="store_true", help="write gzip-compressed shards")
    p.add_argument("--shard-years", type=_positive_int, default=25, help="years per shard file (>= 1)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("core", help="extract and export one vocabulary core")
    _add_common(p, window=True, core=True, fmt=False)
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("turnover", help="dropout between consecutive window cores")
    p.add_argument("--windows", type=_parse_windows, default="standard", help="'standard' or 'a:b,c:d,...'")
    p.add_argument("--width", type=_positive_int, default=50, help="standard window width in years (>= 1)")
    _add_common(p, core=True)
    p.set_defaults(func=cmd_turnover)

    p = sub.add_parser("coverage", help="text coverage of one core over the years")
    p.add_argument("--years", type=_parse_years, help="'START:END' (default: store range)")
    _add_common(p, window=True, core=True)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("overlap", help="frequency core vs book-share core")
    p.add_argument("--threshold", type=_share, required=True, help="book-share threshold in (0, 1]")
    p.add_argument("--k", type=_positive_int, help="frequency-core size (default: book-share core size)")
    p.add_argument(
        "--window",
        type=_parse_window,
        default="core2000",
        help="'START:END', 'core1800' or 'core2000' (default: core2000)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("correlate", help="Pearson r of frequency vs book share")
    p.add_argument("--k", type=_positive_int, help="restrict to the top-K words (>= 1)")
    _add_common(p, window=True)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("pos", help="POS composition (and dropout) of a core")
    p.add_argument("--window2", type=_window_as_given, help="second window for POS dropout")
    _add_common(p, window=True, core=True)
    p.set_defaults(func=cmd_pos)

    p = sub.add_parser("transition", help="kept/lost/gained partition and coverage")
    p.add_argument("--window2", type=_parse_window, required=True, help="second window 'START:END'")
    p.add_argument("--years", type=_parse_years, help="'START:END' (default: store range)")
    _add_common(p, window=True, core=True)
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("group", help="total frequency series of a word list")
    p.add_argument("--words", required=True, help="file with one word per line")
    p.add_argument("--name", default="group", help="series name")
    p.add_argument("--years", type=_parse_years, help="'START:END' (default: store range)")
    _add_common(p)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("report", help="render SVG figures from run outputs")
    p.add_argument("runs", nargs="+", help="run directories with manifest.json")
    p.add_argument("--out", help="output directory (default: first run dir)")
    p.add_argument("--no-timestamp", action="store_true", help="omit the embedded timestamp")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    try:
        run = _Run(args)
        return run.finish(args.func(args, run))
    except (errors.LexcoreError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    code = main()
    gc.freeze()
    sys.exit(code)
