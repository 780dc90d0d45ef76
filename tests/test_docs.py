"""The README's library example runs, and every exported name exists."""

from __future__ import annotations

import importlib
import pkgutil
import re
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
