"""Every name a module of the package or a test imports is used in that
module, and the package writes its sums in one place."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cheralg

PACKAGE = Path(cheralg.__file__).parent
TESTS = Path(__file__).parent


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
    """In the package's modules and in the tests."""
    found = []
    for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]):
        if path.name == "__init__.py":
            continue
        found += [f"{path.parent.name}/{path.name}:{line} {name}"
                  for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports: " + ", ".join(found)


def test_import_loads_neither_dataclasses_nor_inspect():
    """The package's records and AST nodes are NamedTuples, so importing it
    adds neither module; checked in a fresh interpreter, since the test
    runner has loaded both."""
    code = ("import sys; before = set(sys.modules); import cheralg; "
            "print(sorted({'dataclasses', 'inspect'} "
            "& (set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "[]"


# The classes whose sums the package's other number and combination types
# inherit: a class outside this list with its own sum is a second copy.
SUM_OWNERS = {"scalars.Combination", "scalars.BaseNumber"}


def sum_definitions(module: str, source: str) -> list:
    """module.Class for every class that defines ``__add__`` or ``__sub__``
    by a def or an assignment (``__add__ = _sum``)."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = set()
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names |= {t.id for t in targets if isinstance(t, ast.Name)}
        if names & {"__add__", "__sub__"}:
            found.append(f"{module}.{cls.name}")
    return found


def test_scan_sees_defined_and_assigned_sums():
    src = ("class A:\n    def __sub__(self, o): pass\n"
           "class B:\n    __add__ = __radd__ = len\n"
           "class C:\n    def __mul__(self, o): pass\n")
    assert sum_definitions("m", src) == ["m.A", "m.B"]


def test_only_the_combination_base_and_base_number_define_sums():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += sum_definitions(path.stem, path.read_text())
    assert set(found) <= SUM_OWNERS, "separate sums: " + ", ".join(
        sorted(set(found) - SUM_OWNERS))


# The one function that counts the inversions of a sequence; every sign of
# a permutation is read from it.
INVERSION_OWNERS = {"geometry.permutation_sign"}


def inversion_counts(module: str, source: str) -> list:
    """module.function for every ``sum(p > q for ... in ... for ... in
    ...)`` in a function: a sum over two loops of one order comparison,
    the inversion count of a sequence.  A count outside every function is
    reported as module.<module>."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{module}.{child.name}")
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "sum" and len(child.args) == 1
                    and isinstance(child.args[0], ast.GeneratorExp)):
                gen = child.args[0]
                elt = gen.elt
                if (len(gen.generators) == 2 and isinstance(elt, ast.Compare)
                        and len(elt.ops) == 1
                        and isinstance(elt.ops[0], (ast.Gt, ast.Lt))):
                    found.append(owner)
            visit(child, owner)
    visit(ast.parse(source), f"{module}.<module>")
    return found


def test_scan_sees_inversion_counts():
    src = ("def sign(s):\n"
           "    return sum(p > q for i, p in enumerate(s) for q in s[i:])\n"
           "def other(s):\n"
           "    n = sum(a < b for a in s for b in s)\n"
           "    return sum(p > 0 for p in s) + sum(p * q for p in s\n"
           "                                       for q in s)\n"
           "odd = sum(x[i] > x[j] for i in r for j in r)\n")
    assert inversion_counts("m", src) == ["m.sign", "m.other", "m.<module>"]


def test_only_permutation_sign_counts_inversions():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += inversion_counts(path.stem, path.read_text())
    assert found == sorted(INVERSION_OWNERS), "inversion counts: " + ", ".join(
        found)
