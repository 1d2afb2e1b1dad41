"""No floating point in the package outside SVG output.

Counts and every geometric decision are exact: positions are integer
triples and ratios are Fractions.  Only `svgout` turns coordinates into
floats to write them.  This scan parses every other module of the package
and fails on a float literal or a call of `float`.
"""

import ast
from pathlib import Path

import tropenum

SOURCES = sorted(p for p in Path(tropenum.__file__).parent.glob("*.py")
                 if p.name != "svgout.py")


def floats_in(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, "float literal %r" % node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float() call"


def test_no_floats_outside_svg():
    assert len(SOURCES) > 10
    found = ["%s:%d: %s" % (p.name, line, what)
             for p in SOURCES for line, what in floats_in(p)]
    assert found == []


def test_the_scan_sees_floats():
    assert [w for _, w in floats_in(Path(tropenum.__file__).parent
                                    / "svgout.py")]
