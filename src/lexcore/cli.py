"""Command-line surface: ingest -> store -> windows -> metrics -> figures.

Exit codes: 0 success, 1 data error (bad file, bad store, empty window),
2 usage error (bad flags).  Every run writes a ``manifest.json`` next to
its outputs recording the resolved parameters and their hash; the
``report`` command refuses inputs whose manifests disagree on the
underlying store.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from datetime import datetime, timezone
from functools import cached_property, partial
from pathlib import Path

from . import __version__
from .config import load_config, params_hash
from .errors import LexcoreError
from .ingest import build_store
from .metrics import (
    coverage_series,
    group_frequency_series,
    overlap_report,
    partition_core_transition,
    pearson_correlation,
    pos_composition,
    pos_dropout,
    turnover_series,
)
from .serialize import (
    dump_json,
    mapping_to_csv,
    mapping_to_json,
    overlap_to_csv,
    overlap_to_json,
    partition_to_json,
    series_to_csv,
    series_to_json,
    write_text_atomic,
)
from .store import CorpusStore, load_store, save_store
from .svgchart import bar_chart, line_chart
from .synth import PRESETS, generate_corpus, synth_config_from_dict
from .windows import (
    CORE_1800_WINDOW,
    CORE_2000_WINDOW,
    WindowSpec,
    aggregate_window,
    bookshare_core,
    frequency_core,
    standard_windows,
    write_core,
)

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
_WINDOW_PRESETS = {"core1800": CORE_1800_WINDOW, "core2000": CORE_2000_WINDOW}


class _UsageError(Exception):
    pass


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


def _parse_window(text: str) -> WindowSpec:
    if text in _WINDOW_PRESETS:
        return _WINDOW_PRESETS[text]
    m = re.fullmatch(r"(\d+):(\d+)", text)
    if not m:
        raise _UsageError(f"expected 'START:END', 'core1800' or 'core2000', got {text!r}")
    try:
        return WindowSpec(int(m.group(1)), int(m.group(2)))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse_years(text: str) -> range:
    m = re.fullmatch(r"(\d+):(\d+)", text)
    if not m or int(m.group(1)) > int(m.group(2)):
        raise _UsageError(f"expected 'START:END' year range, got {text!r}")
    return range(int(m.group(1)), int(m.group(2)) + 1)


class _Run:
    """The run protocol shared by every command, one instance per invocation.

    It takes the ``created`` timestamp, loads ``--store`` on first use and
    records the store's digest, creates ``--out`` on first use, and writes
    csv-or-json outputs.  A command takes ``(args, run)`` and returns its
    own params and output paths; :meth:`finish` adds the shared params,
    writes the manifest and prints the paths.
    """

    def __init__(self, args) -> None:
        self.args = args
        self.created = _utcnow()
        self.inputs: list[str] = [args.store] if "store" in args else []
        self.store_hash: str | None = None

    @cached_property
    def store(self) -> CorpusStore:
        store = load_store(_resolve_input(self.args.store))
        self.store_hash = store.digest
        return store

    @cached_property
    def years(self) -> range:
        """``--years``, defaulting to the store's year range."""
        return _parse_years(self.args.years) if self.args.years else self.store.years

    @cached_property
    def out(self) -> Path:
        out = Path(self.args.out)
        out.mkdir(parents=True, exist_ok=True)
        return out

    def write(self, stem: str, result, to_csv, to_json) -> Path:
        """Write ``result`` to ``stem.csv`` or ``stem.json``, as ``--format`` says."""
        if self.args.format == "json":
            path, text = self.out / f"{stem}.json", dump_json(to_json(result))
        else:
            path, text = self.out / f"{stem}.csv", to_csv(result)
        write_text_atomic(path, text)
        return path

    def finish(self, params: dict, paths: list[Path]) -> int:
        args = self.args
        shared = {key: getattr(args, key) for key in ("store", "k", "threshold", "format") if key in args}
        if "years" in args:
            shared["years"] = [min(self.years), max(self.years)]
        params = {**shared, **params}
        doc = {
            "schema": "lexcore.manifest/1",
            "subcommand": args.subcommand,
            "params": params,
            "params_hash": params_hash(params),
            "inputs": self.inputs,
            "output_dir": str(self.out),
            "store_hash": self.store_hash,
            "tool_version": __version__,
            "created_utc": self.created,
            "completed_utc": _utcnow(),
        }
        write_text_atomic(self.out / MANIFEST_NAME, dump_json(doc))
        for p in paths:
            print(p)
        return 0


def _extract_core(table, args):
    if getattr(args, "k", None) is not None and getattr(args, "threshold", None) is not None:
        raise _UsageError("--k and --threshold are mutually exclusive")
    if getattr(args, "k", None) is not None:
        if args.k < 1:
            raise _UsageError("--k must be >= 1")
        return frequency_core(table, args.k)
    if getattr(args, "threshold", None) is not None:
        if not 0 < args.threshold <= 1:
            raise _UsageError("--threshold must be in (0, 1]")
        return bookshare_core(table, args.threshold)
    raise _UsageError("one of --k or --threshold is required")


# ---------------------------------------------------------------- commands


def cmd_ingest(args, run: _Run):
    config = load_config(_resolve_input(args.config))
    shards = [_resolve_input(p) for p in args.shards]
    missing = [str(p) for p in shards if not p.exists()]
    if missing:
        raise FileNotFoundError(f"shard(s) not found: {', '.join(missing)}")
    volumes = _resolve_input(args.volumes) if args.volumes else None
    store, stats = build_store(shards, config, volume_sidecar=volumes, threads=args.threads)
    store_path = run.out / "store.lxst"
    run.store_hash = save_store(store, store_path)
    write_text_atomic(run.out / "ingest_stats.json", dump_json(stats.to_dict()))
    run.inputs = [str(p) for p in shards]
    params = {
        "config": config.to_dict(),
        "threads": args.threads,
        "volumes": str(volumes) if volumes else None,
    }
    return params, [store_path]


def cmd_synth(args, run: _Run):
    if bool(args.preset) == bool(args.config):
        raise _UsageError("exactly one of --preset or --config is required")
    if args.preset:
        try:
            config = PRESETS[args.preset]
        except KeyError:
            raise _UsageError(f"unknown preset {args.preset!r} (known: {', '.join(sorted(PRESETS))})") from None
    else:
        config = synth_config_from_dict(json.loads(Path(_resolve_input(args.config)).read_text()))
    result = generate_corpus(config, run.out, shard_years=args.shard_years, gzip_output=args.gzip)
    params = {"synth_config": config.to_dict(), "gzip": args.gzip, "shard_years": args.shard_years}
    return params, result.shard_paths


def cmd_core(args, run: _Run):
    store = run.store
    window = _parse_window(args.window)
    table = aggregate_window(store, window)
    core = _extract_core(table, args)
    path = run.out / f"core_{core.method}_{core.param:g}_{window.label}.tsv"
    write_core(core, path)
    return {"window": window.label}, [path]


def cmd_turnover(args, run: _Run):
    if args.width < 1:
        raise _UsageError("--width must be >= 1")
    store = run.store
    if args.windows == "standard":
        specs = standard_windows(store.year_start, store.year_end, width=args.width)
    else:
        specs = [_parse_window(w) for w in args.windows.split(",")]
        if len(specs) < 2:
            raise _UsageError("--windows needs at least two windows")
    cores = [_extract_core(aggregate_window(store, spec), args) for spec in specs]
    path = run.write("turnover", turnover_series(cores), series_to_csv, series_to_json)
    return {"windows": [s.label for s in specs]}, [path]


def cmd_coverage(args, run: _Run):
    store = run.store
    window = _parse_window(args.window)
    core = _extract_core(aggregate_window(store, window), args)
    stem = f"coverage_{window.label}"
    series = coverage_series(core, store, run.years, name=stem)
    return {"window": window.label}, [run.write(stem, series, series_to_csv, series_to_json)]


def cmd_overlap(args, run: _Run):
    store = run.store
    window = _parse_window(args.window)
    table = aggregate_window(store, window)
    share_core = bookshare_core(table, args.threshold)
    k = args.k if args.k is not None else max(len(share_core), 1)
    freq_core_ = frequency_core(table, k)
    report = overlap_report(freq_core_, share_core)
    path = run.write("overlap", report, overlap_to_csv, overlap_to_json)
    return {"window": window.label, "k": k}, [path]


def cmd_correlate(args, run: _Run):
    store = run.store
    window = _parse_window(args.window)
    table = aggregate_window(store, window)
    idx = table.rank_order[: args.k] if args.k is not None else slice(None)
    xs = table.rel_freq[idx].tolist()
    ys = table.volume_share[idx].tolist()
    items = {"pearson_r": pearson_correlation(xs, ys), "n_words": len(xs)}
    path = run.write("correlation", items, mapping_to_csv, partial(mapping_to_json, "correlation"))
    return {"window": window.label}, [path]


def cmd_pos(args, run: _Run):
    store = run.store
    window = _parse_window(args.window)
    core = _extract_core(aggregate_window(store, window), args)
    comp = {tag.name: share for tag, share in pos_composition(core).items()}
    paths = [run.write("pos_composition", comp, mapping_to_csv, partial(mapping_to_json, "pos_composition"))]
    if args.window2:
        window2 = _parse_window(args.window2)
        core2 = _extract_core(aggregate_window(store, window2), args)
        drop = {tag.name: v for tag, v in pos_dropout(core, core2).items()}
        paths.append(run.write("pos_dropout", drop, mapping_to_csv, partial(mapping_to_json, "pos_dropout")))
    return {"window": window.label, "window2": args.window2}, paths


def cmd_transition(args, run: _Run):
    store = run.store
    w_old = _parse_window(args.window)
    w_new = _parse_window(args.window2)
    old = _extract_core(aggregate_window(store, w_old), args)
    new = _extract_core(aggregate_window(store, w_new), args)
    partition = partition_core_transition(old, new)
    years = run.years
    path = run.out / "transition.json"
    write_text_atomic(path, dump_json(partition_to_json(partition)))
    paths = [path]
    for name in ("both", "only_old", "only_new"):
        series = coverage_series(getattr(partition, name), store, years, name=name)
        paths.append(run.write(f"coverage_{name}", series, series_to_csv, series_to_json))
    return {"window": w_old.label, "window2": w_new.label}, paths


def cmd_group(args, run: _Run):
    store = run.store
    words = [
        line.strip()
        for line in _resolve_input(args.words).read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    series = group_frequency_series(words, store, run.years, name=args.name)
    path = run.write(f"group_{args.name}", series, series_to_csv, series_to_json)
    return {"words": str(args.words), "name": args.name}, [path]


def _read_series_csv(path: Path) -> list[tuple[float, float]]:
    points = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        x_s, y_s = line.split(",", 1)
        points.append((float(x_s), float(y_s)))
    return points


def _read_mapping_csv(path: Path) -> dict[str, float]:
    items: dict[str, float] = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        k, v = line.split(",", 1)
        try:
            items[k] = float(v)
        except ValueError:
            continue
    return items


def cmd_report(args, run: _Run):
    run_dirs = [_resolve_input(d) for d in args.runs]
    manifests = []
    for d in run_dirs:
        mpath = Path(d) / MANIFEST_NAME
        if not mpath.exists():
            raise LexcoreError(f"{d}: no {MANIFEST_NAME}; not a lexcore run directory")
        manifests.append(json.loads(mpath.read_text(encoding="utf-8")))
    hashes = {m.get("store_hash") for m in manifests}
    if len(hashes) > 1:
        raise LexcoreError(
            "mismatched manifests: run directories were produced from different stores"
        )
    (run.store_hash,) = hashes
    run.inputs = [str(d) for d in run_dirs]
    timestamp = None if args.no_timestamp else _utcnow()
    # Figures go beside the first run unless --out says otherwise.
    args.out = args.out or str(run_dirs[0])
    out = run.out

    # Collect chartable CSVs; labels get a run-dir prefix when the same
    # stem occurs in several runs (e.g. two pos_composition runs).
    turnovers: list[tuple[str, Path]] = []
    lines: list[tuple[str, Path]] = []
    mappings: dict[str, list[tuple[str, Path]]] = {"pos_composition": [], "pos_dropout": []}
    for d in run_dirs:
        for path in sorted(Path(d).glob("*.csv")):
            stem = path.stem
            if stem.startswith("turnover"):
                turnovers.append((stem, path))
            elif stem.startswith(("coverage", "group")):
                lines.append((stem, path))
            elif stem.startswith("pos_composition"):
                mappings["pos_composition"].append((stem, path))
            elif stem.startswith("pos_dropout"):
                mappings["pos_dropout"].append((stem, path))

    def unique_label(stem: str, path: Path, pairs) -> str:
        clashes = sum(1 for s, _ in pairs if s == stem)
        return f"{path.parent.name}/{stem}" if clashes > 1 else stem

    written = []

    def emit(target: Path, svg: str) -> None:
        write_text_atomic(target, svg)
        written.append(target)

    for stem, path in turnovers:
        points = _read_series_csv(path)
        svg = bar_chart(
            [f"{int(x)}" for x, _ in points],
            [("dropout share", [y for _, y in points])],
            title="Core turnover per window",
            timestamp=timestamp,
        )
        name = unique_label(stem, path, turnovers).replace("/", "_")
        emit(out / f"{name}.svg", svg)

    if lines:
        series = [
            (unique_label(stem, path, lines), _read_series_csv(path)) for stem, path in lines
        ]
        emit(out / "coverage.svg", line_chart(series, title="Coverage dynamics", timestamp=timestamp))

    for kind, found in mappings.items():
        if not found:
            continue
        tables = [(unique_label(stem, path, found), _read_mapping_csv(path)) for stem, path in found]
        labels: list[str] = []
        for _, items in tables:
            labels.extend(k for k in items if k not in labels)
        groups = [(name, [items.get(k, 0.0) for k in labels]) for name, items in tables]
        emit(
            out / f"{kind}.svg",
            bar_chart(labels, groups, title=kind.replace("_", " "), timestamp=timestamp),
        )

    if not written:
        raise LexcoreError("no chartable CSV outputs found in the given run directories")
    return {"runs": run.inputs, "no_timestamp": args.no_timestamp}, written


# ---------------------------------------------------------------- parser


def _add_common(p: argparse.ArgumentParser, *, store=True, window=False, core=False, fmt=True):
    if store:
        p.add_argument("--store", required=True, help="path to a store file built by 'ingest'")
    if window:
        p.add_argument("--window", required=True, help="'START:END', 'core1800' or 'core2000'")
    if core:
        p.add_argument("--k", type=int, help="frequency-core size")
        p.add_argument("--threshold", type=float, help="book-share core threshold in (0,1]")
    p.add_argument("--out", required=True, help="output directory")
    if fmt:
        p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexcore",
        description="Vocabulary-core dynamics from yearly 1-gram counts.",
    )
    parser.add_argument("--version", action="version", version=f"lexcore {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest", help="parse shards into a store file")
    p.add_argument("shards", nargs="+", help="shard TSV files (optionally .gz)")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--volumes", help="per-year total-volumes sidecar")
    p.add_argument("--threads", type=int, default=1, help="parallel shard parsers")
    p.add_argument("--out", required=True, help="output directory for store.lxst")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic corpus with known truth")
    p.add_argument("--preset", help=f"one of: {', '.join(sorted(PRESETS))}")
    p.add_argument("--config", help="synth config JSON")
    p.add_argument("--gzip", action="store_true", help="write gzip-compressed shards")
    p.add_argument("--shard-years", type=int, default=25, help="years per shard file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("core", help="extract and export one vocabulary core")
    _add_common(p, window=True, core=True, fmt=False)
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("turnover", help="dropout between consecutive window cores")
    p.add_argument("--windows", default="standard", help="'standard' or 'a:b,c:d,...'")
    p.add_argument("--width", type=int, default=50, help="standard window width in years")
    _add_common(p, core=True)
    p.set_defaults(func=cmd_turnover)

    p = sub.add_parser("coverage", help="text coverage of one core over the years")
    p.add_argument("--years", help="'START:END' (default: store range)")
    _add_common(p, window=True, core=True)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("overlap", help="frequency core vs book-share core")
    p.add_argument("--threshold", type=float, required=True, help="book-share threshold")
    p.add_argument("--k", type=int, help="frequency-core size (default: book-share core size)")
    p.add_argument(
        "--window",
        default="core2000",
        help="'START:END', 'core1800' or 'core2000' (default: core2000)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("correlate", help="Pearson r of frequency vs book share")
    p.add_argument("--k", type=int, help="restrict to the top-K words")
    _add_common(p, window=True)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("pos", help="POS composition (and dropout) of a core")
    p.add_argument("--window2", help="second window for POS dropout")
    _add_common(p, window=True, core=True)
    p.set_defaults(func=cmd_pos)

    p = sub.add_parser("transition", help="kept/lost/gained partition and coverage")
    p.add_argument("--window2", required=True, help="second window 'START:END'")
    p.add_argument("--years", help="'START:END' (default: store range)")
    _add_common(p, window=True, core=True)
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("group", help="total frequency series of a word list")
    p.add_argument("--words", required=True, help="file with one word per line")
    p.add_argument("--name", default="group", help="series name")
    p.add_argument("--years", help="'START:END' (default: store range)")
    _add_common(p)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("report", help="render SVG figures from run outputs")
    p.add_argument("runs", nargs="+", help="run directories with manifest.json")
    p.add_argument("--out", help="output directory (default: first run dir)")
    p.add_argument("--no-timestamp", action="store_true", help="omit the embedded timestamp")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        run = _Run(args)
        return run.finish(*args.func(args, run))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (LexcoreError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())
