from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import ref_maslov_index
from tropenum.fan import builtin_fan
from tropenum.lattice import (hfrac, hpoint, on_line, on_ray, on_segment,
                              primitive)
from tropenum.tropcurve import (GenericityError, InvariantError, MinPlusPoly,
                                ParamTropCurve, TropicalDisk, canonical_type,
                                check_balancing, corner_locus, degree,
                                genus, geometric_signature,
                                mikhalkin_multiplicity, validate_curve,
                                vertex_multiplicity,
                                welschinger_multiplicity)

F = Fraction


def tripod(at=(0, 0)):
    """Degree-1 curve on P2: one vertex, three rays."""
    v = hpoint(F(at[0]), F(at[1]))
    return ParamTropCurve([v], [], [(0, (1, 0), 1), (0, (0, 1), 1),
                                    (0, (-1, -1), 1)], [])


def marked_line():
    """Line through (0,0) and (2,-1) with marks on two rays."""
    vert = hpoint(F(0), F(0))
    m1 = hpoint(F(2), F(0))
    m2 = hpoint(F(0), F(1))
    return ParamTropCurve(
        [vert, m1, m2],
        [(0, 1, 1, (1, 0)), (0, 2, 1, (0, 1))],
        [(1, (1, 0), 1), (2, (0, 1), 1), (0, (-1, -1), 1)],
        [(0, 1), (1, 2)])


def test_balancing_and_degree():
    f = builtin_fan("p2")
    c = tripod()
    assert check_balancing(c) == []
    assert degree(c, f) == (1, 1, 1)
    assert genus(c) == 0
    assert ref_maslov_index(c, f) == 6


def test_unbalanced_detected():
    v = hpoint(F(0), F(0))
    c = ParamTropCurve([v], [], [(0, (1, 0), 1), (0, (0, 1), 1)], [])
    assert check_balancing(c) == [0]


def test_disk_unbalanced_at_boundary_only():
    q = hpoint(F(3), F(2))
    c = TropicalDisk([q], [], [(0, (1, 0), 1)], [], vout=0)
    assert check_balancing(c) == []
    forgotten = ParamTropCurve(c.vertices, c.bedges, c.uedges, c.marks)
    assert check_balancing(forgotten) == [0]


def test_marked_line_validates():
    f = builtin_fan("p2")
    c = marked_line()
    pts = {0: hpoint(F(2), F(0)), 1: hpoint(F(0), F(1))}
    assert validate_curve(c, f, points=pts)
    assert degree(c, f) == (1, 1, 1)
    assert mikhalkin_multiplicity(c) == 1
    assert welschinger_multiplicity(c) == 1
    assert ref_maslov_index(c, f) == 2


def test_vertex_multiplicity_pairings():
    assert vertex_multiplicity([(1, (1, 0)), (1, (0, 1)),
                                (1, (-1, -1))]) == 1
    assert vertex_multiplicity([(2, (1, 0)), (1, (0, 1)),
                                (1, (-2, -1))]) == 2
    assert vertex_multiplicity([(1, (1, 2)), (1, (1, -1)),
                                (1, (-2, -1))]) == 3
    with pytest.raises(InvariantError):
        vertex_multiplicity([(1, (1, 0)), (1, (-1, 0)), (1, (1, 0))])


def test_welschinger_values():
    # multiplicities 1,3,4 give signs 1,-1,0
    class Fake:
        vout = None
        marks = ()

        def __init__(self, germs):
            self._germs = germs
            self.vertices = (hpoint(F(0), F(0)),)

        def germs(self, v):
            return self._germs

    assert welschinger_multiplicity(Fake([(1, (1, 0)), (1, (0, 1)),
                                          (1, (-1, -1))])) == 1
    assert welschinger_multiplicity(Fake([(1, (1, 2)), (1, (1, -1)),
                                          (1, (-2, -1))])) == -1
    assert welschinger_multiplicity(Fake([(1, (1, 2)), (2, (1, -1)),
                                          (1, (-3, 0))])) == 0


def test_overlap_checks():
    from tropenum.tropcurve import _check_no_overlaps
    pt = lambda x, y: hpoint(F(x), F(y))
    # vertex interior to a foreign edge
    c = ParamTropCurve([pt(0, 0), pt(4, 0), pt(2, 0)],
                       [(0, 1, 1, (1, 0))], [], [])
    with pytest.raises(GenericityError):
        _check_no_overlaps(c)
    # two collinear bounded edges sharing a subsegment
    c = ParamTropCurve([pt(0, 0), pt(4, 0), pt(2, 1), pt(6, 1)],
                       [(0, 1, 1, (1, 0)), (2, 3, 1, (1, 0))], [], [])
    assert _check_no_overlaps(c)
    c = ParamTropCurve([pt(0, 0), pt(4, 0), pt(2, 0), pt(6, 0)],
                       [(0, 1, 1, (1, 0)), (2, 3, 1, (1, 0))], [], [])
    with pytest.raises(GenericityError):
        _check_no_overlaps(c)
    # two rays along the same half-line
    c = ParamTropCurve([pt(0, 0), pt(2, 0)],
                       [], [(0, (1, 0), 1), (1, (1, 0), 1)], [])
    with pytest.raises(GenericityError):
        _check_no_overlaps(c)
    # opposite rays from distinct points do not overlap
    c = ParamTropCurve([pt(0, 0), pt(2, 0)],
                       [], [(0, (-1, 0), 1), (1, (1, 0), 1)], [])
    assert _check_no_overlaps(c)


def test_canonical_type_invariance():
    c1 = marked_line()
    # same curve with relabeled vertices
    vert = hpoint(F(0), F(0))
    m1 = hpoint(F(2), F(0))
    m2 = hpoint(F(0), F(1))
    c2 = ParamTropCurve(
        [m2, vert, m1],
        [(1, 2, 1, (1, 0)), (1, 0, 1, (0, 1))],
        [(2, (1, 0), 1), (0, (0, 1), 1), (1, (-1, -1), 1)],
        [(0, 2), (1, 0)])
    assert canonical_type(c1) == canonical_type(c2)
    assert geometric_signature(c1) == geometric_signature(c2)
    c3 = tripod()
    assert canonical_type(c1) != canonical_type(c3)


def test_corner_locus_tripod():
    f = MinPlusPoly([(0, (1, 0)), (0, (0, 1)), (0, (0, 0))])
    loc = corner_locus(f)
    assert len(loc.rays) == 3
    dirs = sorted(d for _, d, _ in loc.rays)
    assert dirs == sorted([(1, 0), (0, 1), (-1, -1)])
    assert all(w == 1 for _, _, w in loc.rays)
    assert all(p == hpoint(F(0), F(0)) for p, _, _ in loc.rays)
    assert not loc.segments and not loc.lines


def test_corner_locus_shifted_vertex():
    f = MinPlusPoly([(-1, (1, 0)), (2, (0, 1)), (0, (0, 0))])
    loc = corner_locus(f)
    assert len(loc.rays) == 3
    assert loc.vertices == (hpoint(F(1), F(-2)),)


def _attained(f, z, convention):
    """How many terms of f attain its optimum at z."""
    best = f.value(z, convention)
    return sum(a + n[0] * z[0] + n[1] * z[1] == best for a, n in f.terms)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4),
                          st.tuples(st.integers(-2, 2), st.integers(-2, 2))),
                min_size=2, max_size=6, unique_by=lambda t: t[1]),
       st.tuples(st.fractions(-6, 6, max_denominator=7),
                 st.fractions(-6, 6, max_denominator=7)))
def test_value_ties_exactly_on_the_corner_locus(terms, z):
    # at every vertex of the locus the optimum is attained at least twice;
    # at a point off it, exactly once
    f = MinPlusPoly(terms)
    for convention in ("min", "max"):
        loc = corner_locus(f, convention)
        for P in loc.vertices:
            assert _attained(f, hfrac(P), convention) >= 2
        Z = hpoint(*z)
        on = (any(on_segment(Z, P, Q) for P, Q, _ in loc.segments)
              or any(on_ray(Z, P, d) for P, d, _ in loc.rays)
              or any(on_line(Z, P, d) for P, d, _ in loc.lines))
        assert (_attained(f, z, convention) >= 2) == on


def test_corner_locus_weight_two_line():
    f = MinPlusPoly([(0, (2, 0)), (0, (0, 0))])
    loc = corner_locus(f)
    assert len(loc.lines) == 1
    _, d, w = loc.lines[0]
    assert primitive(d)[0] in ((0, 1), (0, -1))
    assert w == 2
    assert not loc.rays and not loc.segments


def test_corner_locus_max_convention():
    fmin = MinPlusPoly([(0, (1, 0)), (0, (0, 1)), (0, (0, 0))])
    fmax = corner_locus(fmin, convention="max")
    dirs = sorted(d for _, d, _ in fmax.rays)
    # max swaps the locus to the antipodal tripod
    assert dirs == sorted([(-1, 0), (0, -1), (1, 1)])


def test_corner_locus_balanced_conic():
    # tropical conic with a bounded edge
    f = MinPlusPoly([(0, (0, 0)), (0, (1, 0)), (1, (2, 0)),
                     (0, (0, 1)), (1, (1, 1)), (3, (0, 2))])
    loc = corner_locus(f)
    germs = {}
    for p, q, w in loc.segments:
        d1 = primitive((q[0] * p[2] - p[0] * q[2],
                        q[1] * p[2] - p[1] * q[2]))[0]
        germs.setdefault(p, []).append((w, d1))
        germs.setdefault(q, []).append((w, (-d1[0], -d1[1])))
    for p, d, w in loc.rays:
        germs.setdefault(p, []).append((w, d))
    assert loc.segments
    for v, gs in germs.items():
        if len(gs) == 1:
            continue
        sx = sum(w * d[0] for w, d in gs)
        sy = sum(w * d[1] for w, d in gs)
        assert (sx, sy) == (0, 0), (v, gs)
