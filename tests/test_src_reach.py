"""Every definition in the package is reached by the program.

`src/` holds what the library, the CLI and the demos run; helpers that
only the tests call live in the tests as reference code.  This scan parses
every package module and demo, collects each top-level function and class
and each method that is not a dunder, and requires that its name is used
somewhere in those files outside its own definition: as a name or as an
attribute for a function or a class, as an attribute for a method, since a
method is only called through one.  An attribute read that is not a call
reaches a method only when no class stores an instance attribute of that
name (self.name = ... or __slots__): `W.value` reads Potential's value,
not MinPlusPoly's method.  A definition that nothing in the program uses
must be listed in KEEP with the reason it stays.
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
    "tropcurve.MinPlusPoly.value": "library entry point: the value of a "
                                   "tropical polynomial at a point",
    # the tests' independent oracle for the enumeration
    "bruteforce.bruteforce_rational_curves": "independent count oracle on "
                                             "Newton polygons without an "
                                             "interior lattice point",
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
    """(names, calls, reads, stored): the names a tree uses as a Name, as
    the attribute of a call (obj.name(...)), as any other attribute, and
    as an instance attribute that a class stores (self.name = ..., or a
    name in its __slots__), outside the node `skip` (a definition does not
    reach itself)."""
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    names, calls, reads, stored = set(), set(), set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if id(node) in called:
                calls.add(node.attr)
            elif (isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "self"):
                stored.add(node.attr)
            else:
                reads.add(node.attr)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.Assign)
                        and any(isinstance(t, ast.Name)
                                and t.id == "__slots__" for t in sub.targets)):
                    stored |= {c.value for c in ast.walk(sub.value)
                               if isinstance(c, ast.Constant)}
        stack.extend(ast.iter_child_nodes(node))
    return names, calls, reads, stored


def reaches(used, stored, qual, name):
    """Does the (names, calls, reads, stored) tuple `used` reach the
    definition `qual`?  A function or a class through a name or any
    attribute.  A method (module.Class.method) only through an attribute:
    a call, or a read of a name that no class of the program stores as an
    instance attribute (`stored`), since such a read may be that
    attribute."""
    names, calls, reads, own = used
    if qual.count(".") == 1:
        return name in names or name in calls | reads | own
    return name in calls or (name in reads and name not in stored)


def unreached(sources, package=PACKAGE):
    """The definitions of the modules in `package` that no file of
    `sources` uses outside their own definition."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sources}
    everywhere = {p: uses(t) for p, t in trees.items()}
    stored = set().union(*(used[3] for used in everywhere.values()))
    out = []
    for p, tree in trees.items():
        if p.parent != package:
            continue
        for qual, node in definitions(tree, p.stem):
            if any(reaches(used, stored, qual, node.name)
                   for q, used in everywhere.items() if q != p):
                continue
            if not reaches(uses(tree, skip=node), stored, qual, node.name):
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
                   "class C:\n    def m(self):\n        return self.m()\n\n\n"
                   # a local of a method's name does not reach the method
                   "class D:\n    def pieces(self):\n        return 1\n\n\n"
                   "def shadow():\n    pieces = D()\n    return pieces\n\n\n"
                   # a read of an attribute that a class stores, through
                   # self or __slots__, does not reach a method of its
                   # name; a call does
                   "class E:\n    def size(self):\n        return 1\n\n"
                   "    def span(self):\n        return 2\n\n"
                   "    def rank(self):\n        return 3\n\n\n"
                   "class F:\n    def __init__(self):\n"
                   "        self.size = self.rank = 4\n\n\n"
                   "class G:\n    __slots__ = ('span',)\n")
    demo = tmp_path / "demos" / "demo.py"
    demo.parent.mkdir()
    demo.write_text("print(used(), shadow())\n"
                    "f, g = F(), G()\n"
                    "g.span = 5\n"
                    "print(f.size, f.rank, g.span, E().rank())\n")
    assert unreached([mod, demo], tmp_path) == ["lonely.lonely", "lonely.C",
                                                "lonely.C.m",
                                                "lonely.D.pieces",
                                                "lonely.E.size",
                                                "lonely.E.span"]
