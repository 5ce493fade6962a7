"""Static checks of the package's imports and exports.

Every name a module of ``src/oscillap`` imports must be used in that
module (``__init__.py`` imports in order to re-export), and every name in
``oscillap.__all__`` must resolve.
"""

import ast
from pathlib import Path

import pytest

import oscillap

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oscillap"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name != "annotations")


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport math\n"
              "from typing import List, Optional as Opt\n"
              "def f(x: List[int]) -> float:\n    return math.pi\n")
    assert unused_imports(source) == [(2, "os"), (4, "Opt")]


def test_every_exported_name_resolves():
    missing = [name for name in oscillap.__all__ if not hasattr(oscillap, name)]
    assert missing == []
    assert len(set(oscillap.__all__)) == len(oscillap.__all__)
