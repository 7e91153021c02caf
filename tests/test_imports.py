"""Every name a module of the package imports is used in that module, and
no module imports another's private names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trajvoi"
# the package's __init__ imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names ``source`` imports and never reads, as (line, name).
    ``from __future__`` imports and imports marked ``noqa: F401`` are
    exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__" \
                or any("noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*":
                imported.append((node.lineno, bound))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from math import (inf,\n"
              "                  pi)\n"
              "from json import dumps  # noqa: F401\n"
              "x = np.zeros(1) + pi\n")
    assert unused_imports(source) == [(2, "os"), (4, "inf")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list:
    """The underscore names ``source`` imports from a module of the package
    (a relative import, or one from ``trajvoi``), as (line, name); dunder
    names are public."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "trajvoi"):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names
                     if alias.name.split(".")[0] == "trajvoi"
                     for part in alias.name.split(".")[1:]]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_") and not name.endswith("__")]
    return found


def test_the_check_finds_a_private_import():
    source = ("from __future__ import annotations\n"
              "from ._version import __version__\n"
              "from numpy import _globals\n"
              "from .gp import (GpConfig, _helper,\n"
              "                 fit_tracks)\n"
              "from trajvoi.infogain import _union_grid\n"
              "from . import _private\n"
              "import trajvoi._internal\n")
    assert private_imports(source) == [(4, "_helper"),
                                       (6, "_union_grid"), (7, "_private"),
                                       (8, "_internal")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_no_private_name(path):
    assert private_imports(path.read_text()) == []
