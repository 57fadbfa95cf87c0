"""Unused imports in the package, found by an ``ast`` scan (no linter is
installed): every name a module of ``src/patchpos`` imports is referenced in
it, unless its import is marked ``# noqa: F401``, and ``__init__.py``
imports exactly the names of its ``__all__``."""
import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "patchpos"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Name -> line of every name bound by an import not marked
    ``# noqa: F401`` on one of its lines; ``__future__`` imports bind none."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported_names(tree, source.splitlines())
                  if name not in used)


def test_the_scan_finds_an_unused_import_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "import os.path\n"
              "from .views import (Correspondence,\n"
              "                    ViewSpec)\n"
              "from .groups import sample_groups  # noqa: F401\n"
              "x = np.zeros(3)\n"
              "def f(v: ViewSpec):\n"
              "    return os.path.join('a', 'b')\n")
    assert unused_imports(source) == ["Correspondence"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_init_imports_exactly_its_exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    (exports,) = [ast.literal_eval(n.value) for n in tree.body if isinstance(n, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets)]
    imported = [a.asname or a.name for n in tree.body if isinstance(n, ast.ImportFrom)
                for a in n.names]
    assert len(exports) == len(set(exports))
    assert sorted(imported) == sorted(exports)
