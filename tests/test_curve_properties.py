"""Property tests of the curve invariants the enumeration sorts and
deduplicates by.

canonical_type and geometric_signature must not depend on how a curve's
vertices happen to be numbered: relabelling the vertices by any
permutation, with the edges and marks remapped, and listing the edges in
any order must leave both unchanged.  The curves are the solutions of
run_count for the P2 conic and cubic and the dP6 anticanonical class.
canonical_type must also equal the all-roots reference on the curves of
the golden documents: those counts, and the trees and disks of the
`trees` and `disks` commands.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import ref_canonical_type_all_roots
from tropenum.enumeration import (build_forest, disk_to_curve,
                                  enumerate_maslov2_disks, resample,
                                  run_count, sample_endpoint, tree_to_curve)
from tropenum.fan import builtin_fan
from tropenum.tropcurve import (ParamTropCurve, canonical_type,
                                geometric_signature)

SETTINGS = settings(max_examples=100, deadline=None)


@pytest.fixture(scope="module")
def solutions():
    curves = []
    for fan, deg in (("p2", (2, 2, 2)), ("p2", (3, 3, 3)),
                     ("dp6", (1,) * 6)):
        curves.extend(run_count(builtin_fan(fan), deg, 1).curves)
    return curves


def relabel(c, perm, border, uorder):
    """c with vertex v renamed perm[v], its bounded edges listed in order
    border and its unbounded edges in order uorder."""
    verts = [None] * len(c.vertices)
    for v, p in enumerate(c.vertices):
        verts[perm[v]] = p
    bedges = [(perm[i], perm[j], w, d)
              for i, j, w, d in (c.bedges[e] for e in border)]
    uedges = [(perm[i], d, w) for i, d, w in (c.uedges[e] for e in uorder)]
    marks = [(label, perm[v]) for label, v in c.marks]
    return ParamTropCurve(verts, bedges, uedges, marks)


@SETTINGS
@given(data=st.data())
def test_type_and_signature_ignore_vertex_labels(solutions, data):
    c = data.draw(st.sampled_from(solutions))
    perm = data.draw(st.permutations(range(len(c.vertices))))
    border = data.draw(st.permutations(range(len(c.bedges))))
    uorder = data.draw(st.permutations(range(len(c.uedges))))
    r = relabel(c, perm, border, uorder)
    assert canonical_type(r) == canonical_type(c)
    assert geometric_signature(r) == geometric_signature(c)


def test_solutions_are_told_apart(solutions):
    # the invariants are not constant: every solution of one count has its
    # own type and its own signature
    assert len(solutions) > 12
    for fn in (canonical_type, geometric_signature):
        assert len({fn(c) for c in solutions}) == len(solutions)


def test_canonical_type_matches_all_roots_reference(solutions):
    curves = list(solutions)
    for fan, deg in (("p1xp1", (2, 2, 2, 2)), ("dp6", (1,) * 6)):
        curves.extend(run_count(builtin_fan(fan), deg, 1).curves)
    for fan, k, seed in (("p2", 3, 1), ("p2", 3, 2), ("p1xp1", 3, 3),
                         ("dp6", 2, 3)):
        fan = builtin_fan(fan)
        config, forest = resample(k, seed, lambda c: build_forest(fan, c))
        curves.extend(tree_to_curve(t, fan) for t in forest.trees)
        curves.extend(disk_to_curve(d, fan) for d in enumerate_maslov2_disks(
            fan, config, sample_endpoint(seed + 1), forest=forest))
    assert len(curves) > 150
    for c in curves:
        assert canonical_type(c) == ref_canonical_type_all_roots(c)
