"""Every definition in the package is reached by the program.

`src/` holds what the library, the CLI and the demos run; helpers that
only the tests call live in the tests as reference code.  This scan parses
every package module and demo, collects each top-level function and class
and each method that is not a dunder, and requires that its name is used
(as a name or as an attribute) somewhere in those files outside its own
definition.  A definition that nothing in the program uses must be listed
in KEEP with the reason it stays.
"""

import ast
from pathlib import Path

import tropenum

PACKAGE = Path(tropenum.__file__).parent
DEMOS = PACKAGE.parent.parent / "demos"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(DEMOS.glob("*.py"))

# "module.name" or "module.Class.method" -> why it stays without a caller
KEEP = {
    # perfbench/tracing.py wraps these by name; they go once the layer
    # metrics come from the program's own run statistics
    "lattice.ray_intersect": "wrapped by name by the benchmark's tracer",
    "scattering.RingAutomorphism.compose":
        "wrapped by name by the benchmark's tracer",
    # argparse calls it on a usage error
    "cli._Parser.error": "argparse hook: usage errors exit 1, not 2",
    # the paper's definition of a tropical polynomial and its curve
    "tropcurve.corner_locus": "library entry point: the corner locus of a "
                              "tropical polynomial",
    "tropcurve.MinPlusPoly": "library entry point: a tropical polynomial",
    # the tests' independent oracle for the enumeration
    "bruteforce.bruteforce_rational_curves": "independent count oracle",
    # exported library entry points that no command runs
    "scattering.path_automorphism": "library entry point: the wall-crossing "
                                    "automorphism of a path",
    "enumeration.disk_to_curve": "library entry point: a disk record as a "
                                 "curve",
    "enumeration.enumerate_maslov0_trees": "library entry point: the "
                                           "Maslov-0 trees as curves",
    "correspondence.verify_correspondence": "library entry point: the "
                                            "multiplicity factorization "
                                            "check",
    "correspondence.Fan3D.to_text": "library entry point: the fan over a "
                                    "decomposition as text",
    "broken.Potential.mod_u": "library entry point: the potential with "
                              "every u_i set to 0",
    "broken.Potential.kappa": "library entry point: the first flat "
                              "coordinate",
    "broken.Potential.u_sum": "library entry point: the second flat "
                              "coordinate",
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree, module):
    """(qualified name, node) for each top-level function and class and
    each method of a top-level class; dunders are hooks that Python calls
    (a module's __getattr__, a class's __init__), and are left out."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not _dunder(node.name)):
            yield "%s.%s" % (module, node.name), node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not _dunder(sub.name)):
                    yield "%s.%s.%s" % (module, node.name, sub.name), sub


def uses(tree, skip=None):
    """The names a tree uses, as a Name or an attribute, outside the node
    `skip` (a definition does not reach itself)."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unreached(sources, package=PACKAGE):
    """The definitions of the modules in `package` that no file of
    `sources` uses outside their own definition."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sources}
    everywhere = {p: uses(t) for p, t in trees.items()}
    out = []
    for p, tree in trees.items():
        if p.parent != package:
            continue
        for qual, node in definitions(tree, p.stem):
            name = node.name
            if any(name in names for q, names in everywhere.items()
                   if q != p):
                continue
            if name not in uses(tree, skip=node):
                out.append(qual)
    return out


def test_every_definition_is_reached_or_kept():
    assert len(SOURCES) > 14
    assert sorted(q for q in unreached(SOURCES) if q not in KEEP) == []


def test_keep_names_exist_and_are_unreached():
    # a kept name that the program now uses, or that is gone, is stale
    assert sorted(unreached(SOURCES)) == sorted(KEEP)


def test_the_scan_sees_an_unreached_definition(tmp_path):
    mod = tmp_path / "lonely.py"
    mod.write_text("def used():\n    return 1\n\n\n"
                   "def lonely():\n    return lonely() + used()\n\n\n"
                   "class C:\n    def m(self):\n        return self.m()\n")
    demo = tmp_path / "demos" / "demo.py"
    demo.parent.mkdir()
    demo.write_text("print(used())\n")
    assert unreached([mod, demo], tmp_path) == ["lonely.lonely", "lonely.C",
                                                "lonely.C.m"]
