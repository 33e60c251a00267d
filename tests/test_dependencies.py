"""The package imports only the standard library and numpy, its one declared
dependency."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import framesim

ALLOWED = {"numpy", "framesim"}


def _imported(path: Path) -> set[str]:
    """Top-level names of the absolute imports in ``path``; a relative import
    is the package's own."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(Path(framesim.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    outside = {p.name: sorted(m for m in _imported(p)
                              if m not in sys.stdlib_module_names and m not in ALLOWED)
               for p in sources}
    assert not {name: mods for name, mods in outside.items() if mods}
