"""Spans around calls into each lexcore layer, recorded from outside lexcore.

``Tracer.installed()`` replaces the public functions listed in ``LAYERS``
with timing wrappers in every loaded ``lexcore`` module, and restores
them on exit.  A span is ``[name, start, end, parent index]``; spans stay
in memory until the caller writes them out.

Run as a script, ``python3 perfbench/tracing.py SPANS.json ARGS...`` runs
``lexcore ARGS`` with tracing on and writes the spans and the import time
of ``lexcore.cli`` to SPANS.json.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Coarse entry points only: wrapping per-token helpers would cost more
# than the work they do.  Names absent from a module are skipped.
LAYERS = {
    "synth": ("generate_corpus",),
    "ingest": ("build_store",),
    "store": ("save_store", "load_store", "read_volume_sidecar"),
    "windows": ("aggregate_window", "frequency_core", "bookshare_core", "write_core"),
    "metrics": (
        "turnover_series",
        "coverage_series",
        "group_frequency_series",
        "partition_core_transition",
        "overlap_report",
        "pearson_correlation",
        "pos_composition",
        "pos_dropout",
        "core_size_for_coverage",
    ),
    "serialize": (
        "series_to_csv",
        "series_to_json",
        "mapping_to_csv",
        "mapping_to_json",
        "overlap_to_csv",
        "overlap_to_json",
        "partition_to_json",
        "dump_json",
        "write_text_atomic",
    ),
    "svgchart": ("line_chart", "bar_chart"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        import lexcore.cli  # noqa: F401  (loads every layer module)

        wrappers = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"lexcore.{layer}"]
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "lexcore" and not modname.startswith("lexcore."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]


def top_level_time(spans: list[list]) -> float:
    """Total duration of spans with no traced ancestor."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    start = perf_counter()
    import lexcore.cli as cli

    import_s = perf_counter() - start
    tracer = Tracer()
    rc = 1
    try:
        with tracer.installed():
            rc = cli.main(argv[1:])
    finally:
        out.write_text(json.dumps({"import_s": import_s, "spans": tracer.spans}), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
