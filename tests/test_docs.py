"""The README's library example runs, every exported name exists, and the
package imports only the layers a caller asks for."""

from __future__ import annotations

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lexcore

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


def _lexcore_modules(statement: str) -> list[str]:
    """The lexcore modules a fresh interpreter holds after `statement`."""
    code = f"{statement}; import sys; print(*sorted(m for m in sys.modules if m.startswith('lexcore.')))"
    env = {**os.environ, "PYTHONPATH": str(Path(lexcore.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout.split()


def test_importing_the_package_loads_no_layer():
    assert _lexcore_modules("import lexcore") == []


def test_importing_the_cli_loads_every_layer():
    # perfbench's tracer wraps the layers that `import lexcore.cli` loads.
    layers = "alphabets cli config errors ingest metrics postags serialize store svgchart synth windows"
    assert _lexcore_modules("import lexcore.cli") == [f"lexcore.{m}" for m in layers.split()]
