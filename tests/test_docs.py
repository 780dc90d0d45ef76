"""The README's library example runs, every exported name exists, and the
package imports only the layers a caller asks for."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lexcore
from lexcore.cli import main

from conftest import tiny_store

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_block_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(lexcore.__path__)))
def test_all_names_resolve(name):
    module = importlib.import_module(f"lexcore.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _python(*argv: str) -> str:
    """What ``python argv`` prints, run from the repository root in a fresh interpreter that imports this lexcore."""
    env = {**os.environ, "PYTHONPATH": str(Path(lexcore.__file__).parents[1])}
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, check=True).stdout


def _lexcore_modules(statement: str) -> list[str]:
    """The lexcore modules a fresh interpreter holds after `statement`."""
    return _python("-c", f"{statement}; import sys; print(*sorted(m for m in sys.modules if m.startswith('lexcore.')))").split()


def _loaded_after_main(argv: list[str], names: list[str]) -> list[str]:
    """Those of ``names`` whose code a fresh interpreter has run after ``main(argv)`` succeeds.

    A lexcore layer that the CLI registered but no command used is still
    a lazy module, not a loaded one.
    """
    code = f"""
import sys, types
from lexcore.cli import main
assert main({argv!r}) == 0
print(*[n for n in {names!r} if type(sys.modules.get(n)) is types.ModuleType])
"""
    return _python("-c", code).splitlines()[-1].split()  # below the output paths that main prints


def test_importing_the_package_loads_no_layer():
    assert _lexcore_modules("import lexcore") == []


def test_importing_the_cli_registers_every_layer():
    # perfbench's tracer wraps the layers that `import lexcore.cli` registers.
    layers = "alphabets cli config errors ingest metrics postags serialize store svgchart synth windows"
    assert _lexcore_modules("import lexcore.cli") == [f"lexcore.{m}" for m in layers.split()]


def test_importing_the_cli_loads_no_numpy():
    assert _python("-c", "import sys, lexcore.cli; print('numpy' in sys.modules)").strip() == "False"


def test_report_never_loads_numpy(tmp_path):
    store = tiny_store(tmp_path)
    assert main(["coverage", "--store", str(store), "--window", "1900:1902", "--k", "3", "--out", str(tmp_path / "cov")]) == 0
    argv = ["report", "--no-timestamp", str(tmp_path / "cov"), "--out", str(tmp_path / "fig")]
    assert _loaded_after_main(argv, ["numpy", "lexcore.svgchart"]) == ["lexcore.svgchart"]
    assert (tmp_path / "fig" / "coverage.svg").is_file()


def test_a_query_runs_only_the_layers_it_uses(tmp_path):
    store = tiny_store(tmp_path)
    argv = ["core", "--store", str(store), "--window", "1900:1902", "--k", "3", "--out", str(tmp_path / "core")]
    unused = ["gzip", "concurrent.futures", "lexcore.ingest", "lexcore.synth", "lexcore.svgchart"]
    assert _loaded_after_main(argv, ["lexcore.windows", *unused]) == ["lexcore.windows"]


def test_no_query_loads_numpy_ma(tmp_path):
    """Each query command, run in turn in one fresh interpreter, leaves ``numpy.ma`` unloaded:
    its import (``np.unique`` triggers one) would cost every query child 10 ms or more."""
    store = tiny_store(tmp_path)
    words = tmp_path / "words.txt"
    words.write_text("the\ncat\n", encoding="utf-8")
    queries = [
        ["core", "--window", "1900:1902", "--k", "3"],
        ["turnover", "--width", "2", "--k", "3"],
        ["coverage", "--window", "1900:1902", "--k", "3"],
        ["overlap", "--window", "1900:1902", "--threshold", "0.2"],
        ["correlate", "--window", "1900:1902"],
        ["pos", "--window", "1900:1901", "--window2", "1902:1904", "--k", "3"],
        ["transition", "--window", "1900:1901", "--window2", "1902:1904", "--k", "3"],
        ["group", "--words", str(words)],
    ]
    argvs = [[name, "--store", str(store), *rest, "--out", str(tmp_path / name)] for name, *rest in queries]
    code = f"""
import sys
from lexcore.cli import main
for argv in {argvs!r}:
    assert main(argv) == 0
    if "numpy.ma" in sys.modules:
        sys.exit(f"numpy.ma loaded by {{argv[0]}}")
"""
    _python("-c", code)


def test_tracer_sees_the_calls_of_a_lazily_loaded_cli(tmp_path):
    """perfbench's tracer, run as a script, records a span for each layer call of a command."""
    store = tiny_store(tmp_path)
    spans = tmp_path / "spans.json"
    argv = ["core", "--store", str(store), "--window", "1900:1902", "--k", "3", "--out", str(tmp_path / "core")]
    _python("perfbench/tracing.py", str(spans), *argv)
    names = {span[0] for span in json.loads(spans.read_text(encoding="utf-8"))["spans"]}
    assert {"store.load_store", "windows.aggregate_window", "windows.frequency_core", "windows.write_core"} <= names


def test_traced_synth_is_one_top_level_span(tmp_path):
    """Synth's worker threads call no traced layer, so the tracer's one span stack holds: a synth
    run is one ``generate_corpus`` span, with only its sidecar writes beneath it."""
    spans_path = tmp_path / "spans.json"
    _python("perfbench/tracing.py", str(spans_path), "synth", "--preset", "churn15-small", "--out", str(tmp_path / "corpus"))
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    top = [i for i, span in enumerate(spans) if span[3] < 0 and span[0].startswith("synth.")]
    assert [spans[i][0] for i in top] == ["synth.generate_corpus"]
    beneath = [span[0] for span in spans if span[3] in top]
    assert beneath == ["serialize.write_text_atomic", "serialize.dump_json", "serialize.write_text_atomic"]


def test_documented_store_format_version_is_the_one_written():
    """README's store bullet and the store module's docstring state the version ``save_store`` writes."""
    from lexcore import store

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = {
        "README.md": re.findall(r"magic `LXST`, format version (\d+)", readme),
        "store.py": re.findall(r"On-disk layout, format version (\d+)", store.__doc__),
    }
    assert stated == dict.fromkeys(stated, [str(store.FORMAT_VERSION)])
