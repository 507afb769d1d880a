"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import cheralg

PACKAGE = Path(cheralg.__file__).parent


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_sees_unused_and_used_names():
    src = ("from __future__ import annotations\n"
           "import math, os\nfrom fractions import Fraction as F\n"
           "x = math.pi * F(1)\n")
    assert unused_imports(src) == [(2, "os")]


def test_no_unused_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        found += [f"{path.name}:{line} {name}"
                  for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports: " + ", ".join(found)
