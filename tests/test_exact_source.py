"""Exact values, made exact once.

Counts and every geometric decision are exact: positions are normalized
integer triples (X, Y, W) and the ring's coefficients are the ints the
forest makes.  Only `svgout` turns coordinates into floats to write them.
This scan parses every other module of the package and fails on a float
literal or a call of `float`.

A value is made exact where it enters the program, and the functions that
take it use it as given.  `fractions` is imported only where rationals
enter or leave as text or pairs: `lattice` (`hpoint` from two rationals,
`hfrac` back), `jsonio` (document rationals) and `tropcurve` (the corner
locus).  No module of the package, its demos or its tests defines or calls
`as_hpoint`, the converter that normalized every point an entry point was
handed.
"""

import ast
from pathlib import Path

import tropenum

PACKAGE = Path(tropenum.__file__).parent
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "svgout.py")
FRACTION_MODULES = {"lattice.py", "jsonio.py", "tropcurve.py"}
ROOT = PACKAGE.parents[1]
EVERY_MODULE = sorted(PACKAGE.glob("*.py")) + sorted(
    p for d in ("demos", "tests") for p in (ROOT / d).glob("*.py"))


def floats_in(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, "float literal %r" % node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float() call"


def fraction_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        if "fractions" in names:
            yield node.lineno, "imports fractions"


def as_hpoint_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "as_hpoint":
            yield node.lineno, "defines as_hpoint"
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name == "as_hpoint":
                yield node.lineno, "calls as_hpoint"


def test_no_floats_outside_svg():
    assert len(SOURCES) > 10
    found = ["%s:%d: %s" % (p.name, line, what)
             for p in SOURCES for line, what in floats_in(p)]
    assert found == []


def test_the_scan_sees_floats():
    assert [w for _, w in floats_in(PACKAGE / "svgout.py")]


def test_fractions_only_where_rationals_enter():
    found = ["%s:%d: %s" % (p.name, line, what)
             for p in PACKAGE.glob("*.py")
             if p.name not in FRACTION_MODULES
             for line, what in fraction_imports(ast.parse(p.read_text()))]
    assert found == []
    for name in FRACTION_MODULES:
        assert list(fraction_imports(ast.parse((PACKAGE / name).read_text())))


def test_no_as_hpoint_anywhere():
    assert len(EVERY_MODULE) > 40
    found = ["%s:%d: %s" % (p.name, line, what)
             for p in EVERY_MODULE
             for line, what in as_hpoint_uses(ast.parse(p.read_text()))]
    assert found == []


def test_the_scans_see_imports_and_uses():
    src = ("import fractions\nfrom fractions import Fraction\n"
           "def as_hpoint(P):\n    return P\n"
           "as_hpoint((1, 2))\nlattice.as_hpoint((1, 2))\n")
    tree = ast.parse(src)
    assert [line for line, _ in fraction_imports(tree)] == [1, 2]
    assert sorted(as_hpoint_uses(tree)) == [
        (3, "defines as_hpoint"), (5, "calls as_hpoint"),
        (6, "calls as_hpoint")]
