"""What each process loads, and the package's public namespace.

Start-up is a large share of every CLI command's wall time, so a process
loads the modules of its own command and no others.  Each command below
runs as `python -X importtime -m tropenum ...`; the interpreter lists
every module it imports on stderr, and the tropenum modules among them
must be exactly the command's set.  A new module-level import that crosses
layers fails here.  So does a module-level import of `fractions`, which
with `decimal` and `numbers` costs about 2 ms of start-up: the package
imports it inside the functions that make a Fraction, so only a process
that parses or renders a rational loads it.
"""

import subprocess
import sys

import pytest

import tropenum

BASE = {"cli", "jsonio", "lattice"}
COUNT = BASE | {"fan", "tropcurve", "enumeration"}
POTENTIAL = COUNT | {"scattering", "broken"}

# the 72 names the package exported when it imported every submodule,
# less the 7 that only the tests used (now in tests/reference.py)
PUBLIC = [
    "BrokenLine", "CornerLocus", "CountReport", "Fan", "Fan3D",
    "GenericityError", "InvariantError", "MinPlusPoly", "ParamTropCurve",
    "PhiSystem", "PointConfig", "PolyDecomp", "Potential", "RingAutomorphism",
    "RingElement", "ScatteringDiagram", "TropicalDisk", "TropicalTree", "Wall",
    "build_decomposition", "build_diagram", "build_phi", "builtin_fan",
    "check_balancing", "check_consistency", "corner_locus", "degree",
    "degree_total", "disk_to_curve", "enumerate_broken_lines",
    "enumerate_maslov0_trees", "enumerate_maslov2_disks",
    "enumerate_rational_curves", "fan_over", "format_element", "genus",
    "hfrac", "index_d", "kontsevich_number", "log_count_w",
    "loop_automorphism", "make_degree", "make_fan", "mikhalkin_multiplicity",
    "newton_polygon", "path_automorphism", "path_crossings", "potential",
    "primitive", "properties_report", "r_vector", "reduced_graph",
    "rescale_lattice", "ring_mono", "ring_one", "run_count", "sample_endpoint",
    "sample_generic_points", "transport", "tree_to_curve",
    "validate_curve", "verify_correspondence", "verify_disk_correspondence",
    "wedge", "welschinger_multiplicity",
]


def imported(python_args):
    """Every module a fresh interpreter imports, by full name."""
    p = subprocess.run([sys.executable, "-X", "importtime"] + python_args,
                       capture_output=True, text=True)
    assert p.returncode == 0, p.stderr[-2000:]
    return {line.rpartition("|")[2].strip()
            for line in p.stderr.splitlines()
            if line.startswith("import time:")}


def loaded(python_args):
    """The tropenum submodules a fresh interpreter imports, by short name."""
    return {name.partition(".")[2] for name in imported(python_args)
            if name.startswith("tropenum.")} - {"__main__"}


def test_each_command_loads_only_its_modules(tmp_path):
    doc, svg = str(tmp_path / "dec.json"), str(tmp_path / "dec.svg")
    pot = str(tmp_path / "pot.json")
    out = ["--out", str(tmp_path / "out.json")]
    runs = [
        (["-c", "import tropenum"], set()),
        (["-c", "import tropenum.cli"], BASE),
        (["-m", "tropenum", "--help"], BASE),
        (["-m", "tropenum", "count", "--degree", "1"] + out, COUNT),
        (["-m", "tropenum", "count", "--degree", "2"] + out, COUNT),
        (["-m", "tropenum", "welschinger", "--degree", "1"] + out, COUNT),
        (["-m", "tropenum", "trees", "--k", "2"] + out, COUNT),
        (["-m", "tropenum", "disks", "--k", "2"] + out, COUNT),
        (["-m", "tropenum", "scatter", "--k", "2"] + out,
         COUNT | {"scattering"}),
        (["-m", "tropenum", "potential", "--k", "2", "--out", pot],
         POTENTIAL),
        (["-m", "tropenum", "phi-check", "--degree", "1"] + out,
         COUNT | {"correspondence"}),
        (["-m", "tropenum", "degenerate", "--degree", "1", "--out", doc],
         COUNT | {"correspondence", "arrangement"}),
        (["-m", "tropenum", "render", doc, svg], BASE | {"svgout"}),
        (["-m", "tropenum", "render", pot, svg], BASE | {"svgout"}),
    ]
    for args, want in runs:
        assert loaded(args) == want, args


def test_commands_without_a_rational_skip_fractions(tmp_path):
    doc = str(tmp_path / "count.json")
    for args in (["count", "--degree", "2", "--out", doc],
                 ["potential", "--k", "2"], ["degenerate", "--degree", "1"],
                 ["phi-check", "--degree", "1"]):
        assert "fractions" not in imported(["-m", "tropenum"] + args), args
    # the renderer parses the document's rationals
    assert "fractions" in imported(["-m", "tropenum", "render", doc,
                                    str(tmp_path / "count.svg")])


def test_public_names_resolve_lazily():
    assert len(PUBLIC) == len(set(PUBLIC)) == 65
    assert sorted(tropenum.__all__) == sorted(PUBLIC)
    listed = dir(tropenum)
    for name in PUBLIC:
        ns = {}
        exec("from tropenum import %s as got" % name, ns)
        home = sys.modules[ns["got"].__module__]
        assert getattr(home, name) is ns["got"], name
        assert name in listed, name
    star = {}
    exec("from tropenum import *", star)
    assert set(PUBLIC) <= set(star)
    with pytest.raises(AttributeError):
        tropenum.no_such_name
    with pytest.raises(ImportError):
        exec("from tropenum import no_such_name", {})


def test_error_types_are_one_class_each():
    from tropenum import lattice, tropcurve
    assert tropcurve.GenericityError is lattice.GenericityError
    assert tropcurve.InvariantError is lattice.InvariantError
    assert tropenum.GenericityError is lattice.GenericityError
