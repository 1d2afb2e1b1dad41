"""Exact enumeration of plane tropical curves, scattering diagrams, and
broken lines on toric surfaces.  All arithmetic is integer or rational.

The public names below resolve on first use (PEP 562), so `import tropenum`
loads no submodule.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "broken": ("BrokenLine", "Potential", "enumerate_broken_lines",
               "potential", "transport", "verify_disk_correspondence"),
    "correspondence": ("Fan3D", "PhiSystem", "PolyDecomp",
                       "build_decomposition", "build_phi", "fan_over",
                       "index_d", "log_count_w", "properties_report",
                       "reduced_graph", "rescale_lattice",
                       "verify_correspondence"),
    "enumeration": ("CountReport", "PointConfig", "disk_to_curve",
                    "enumerate_maslov0_trees", "enumerate_maslov2_disks",
                    "enumerate_rational_curves", "run_count",
                    "sample_endpoint", "sample_generic_points",
                    "tree_to_curve"),
    "fan": ("Fan", "builtin_fan", "degree_total", "make_degree", "make_fan",
            "newton_polygon", "r_vector"),
    "gw": ("kontsevich_number",),
    "lattice": ("GenericityError", "InvariantError", "hfrac", "primitive",
                "wedge"),
    "scattering": ("RingAutomorphism", "RingElement", "ScatteringDiagram",
                   "Wall", "build_diagram", "check_consistency",
                   "format_element", "loop_automorphism", "path_automorphism",
                   "path_crossings", "ring_mono", "ring_one"),
    "tropcurve": ("CornerLocus", "MinPlusPoly", "ParamTropCurve",
                  "TropicalDisk", "TropicalTree", "check_balancing",
                  "corner_locus", "degree", "genus", "mikhalkin_multiplicity",
                  "validate_curve", "welschinger_multiplicity"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    mod = _HOME.get(name)
    if mod is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(importlib.import_module("." + mod, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
