"""Exact enumeration of plane tropical curves, scattering diagrams, and
broken lines on toric surfaces.  All arithmetic is integer or rational."""

__version__ = "0.1.0"

from .broken import (BrokenLine, Potential, enumerate_broken_lines,
                     potential, sample_endpoint, transport,
                     verify_disk_correspondence)
from .correspondence import (Fan3D, PhiSystem, PolyDecomp,
                             build_decomposition, build_phi, fan_over,
                             index_d, log_count_w, properties_report,
                             reduced_graph, rescale_lattice,
                             verify_correspondence)
from .enumeration import (CountReport, PointConfig, disk_to_curve,
                          enumerate_maslov0_trees, enumerate_maslov2_disks,
                          enumerate_rational_curves, run_count,
                          sample_generic_points, tree_to_curve)
from .fan import (Fan, builtin_fan, degree_total, make_degree, make_fan,
                  newton_polygon, r_vector)
from .gw import kontsevich_number
from .lattice import (cokernel_order, det, hfrac, primitive,
                      smith_normal_form, wedge)
from .scattering import (RingAutomorphism, RingElement, ScatteringDiagram,
                         Wall, build_diagram, check_consistency,
                         format_element, identity_automorphism,
                         loop_automorphism, path_automorphism,
                         path_crossings, ring_mono, ring_one, ring_zero,
                         wall_crossing)
from .tropcurve import (CornerLocus, GenericityError, InvariantError,
                        MinPlusPoly, ParamTropCurve, TropicalDisk,
                        TropicalTree, check_balancing, corner_locus, degree,
                        genus, maslov_index, mikhalkin_multiplicity,
                        validate_curve, welschinger_multiplicity)
