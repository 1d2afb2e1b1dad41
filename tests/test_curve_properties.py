"""Property tests of the curve invariants the enumeration sorts and
deduplicates by.

canonical_type and geometric_signature must not depend on how a curve's
vertices happen to be numbered: relabelling the vertices by any
permutation, with the edges and marks remapped, and listing the edges in
any order must leave both unchanged.  The curves are the solutions of
run_count for the P2 conic and cubic and the dP6 anticanonical class.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropenum.enumeration import run_count
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
