"""Scattering paths and broken-line legs on integer triples against the
Fraction-pair geometry they replaced.

ref_sing_points, ref_path_crossings and ref_leg are the earlier
implementations, kept here as the reference: every point is a pair of
Fractions and every crossing parameter a Fraction quotient.  The library
works on homogeneous integer triples, and path segments and broken-line
legs share one scan, ScatteringDiagram.crossings.  On the same diagrams and
endpoints both must give the same singular points (as values), the same
hits in the same order, and the same GenericityError message.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import ref_support_contains
from tropenum.broken import _LEG_FAULTS, potential, sample_endpoint
from tropenum.enumeration import sample_generic_points
from tropenum.fan import builtin_fan, r_vector
from tropenum.lattice import (as_hpoint, dot, hfrac, hpoint, hshift, rot90,
                              walls_through, wedge)
from tropenum.scattering import (build_diagram, check_consistency,
                                 path_crossings)
from tropenum.tropcurve import GenericityError

P2 = builtin_fan("p2")
P1P1 = builtin_fan("p1xp1")


# -- the Fraction-pair reference ---------------------------------------------


def ref_sing_points(d):
    pts = {hfrac(w.base): True for w in d.walls}
    for a in range(len(d.walls)):
        wa = d.walls[a]
        for b in range(a + 1, len(d.walls)):
            wb = d.walls[b]
            den = wedge(wa.dirvec, wb.dirvec)
            if den == 0:
                continue
            ba, bb = hfrac(wa.base), hfrac(wb.base)
            dx, dy = bb[0] - ba[0], bb[1] - ba[1]
            s = Fraction(wedge((dx, dy), wb.dirvec), den)
            t = Fraction(wedge((dx, dy), wa.dirvec), den)
            if s < 0 or t < 0:
                continue
            pts[(ba[0] + s * wa.dirvec[0], ba[1] + s * wa.dirvec[1])] = True
    return sorted(pts)


def ref_overlaps(wall, A, B):
    base = hfrac(wall.base)
    d = wall.dirvec
    ta = dot(d, (A[0] - base[0], A[1] - base[1]))
    tb = dot(d, (B[0] - base[0], B[1] - base[1]))
    return max(ta, tb) >= 0


def ref_path_crossings(d, pts):
    for P in pts:
        if any(ref_support_contains(w, P) for w in d.walls):
            raise GenericityError("non-transverse path: vertex on the "
                                  "support")
    crossings = []
    for A, B in zip(pts, pts[1:]):
        seg = (B[0] - A[0], B[1] - A[1])
        if seg == (0, 0):
            continue
        hits = []
        for widx, w in enumerate(d.walls):
            den = wedge(w.dirvec, seg)
            base = hfrac(w.base)
            dx, dy = base[0] - A[0], base[1] - A[1]
            if den == 0:
                if wedge(w.dirvec, (dx, dy)) == 0 and ref_overlaps(w, A, B):
                    raise GenericityError("non-transverse path: tangent to "
                                          "a wall")
                continue
            t = wedge(w.dirvec, (dx, dy)) / den
            s = wedge(seg, (dx, dy)) / den
            if t < 0 or t > 1 or s < 0:
                continue
            if t == 0 or t == 1:
                raise GenericityError("non-transverse path: vertex on the "
                                      "support")
            if s == 0:
                raise GenericityError("non-transverse path: through a wall "
                                      "base")
            nraw = rot90(w.dirvec)
            n0 = nraw if dot(nraw, seg) < 0 else (-nraw[0], -nraw[1])
            hits.append((t, widx, n0))
        hits.sort(key=lambda h: (h[0], h[1]))
        for i in range(len(hits) - 1):
            if hits[i][0] == hits[i + 1][0]:
                wa = d.walls[hits[i][1]]
                wb = d.walls[hits[i + 1][1]]
                if wedge(wa.dirvec, wb.dirvec) != 0:
                    raise GenericityError("non-transverse path: through a "
                                          "singular point")
        crossings.extend((widx, n0) for _, widx, n0 in hits)
    return crossings


def ref_leg(d, X, m):
    """(s, widx, e, crossing point) sorted by s, for the backward ray
    X + s*r(m), s > 0, with X a Fraction pair."""
    r = r_vector(d.fan, m)
    cands = []
    for widx, w in enumerate(d.walls):
        den = wedge(w.dirvec, r)
        base = hfrac(w.base)
        dx, dy = X[0] - base[0], X[1] - base[1]
        if den == 0:
            if wedge(w.dirvec, (dx, dy)) != 0:
                continue
            t0 = dot(w.dirvec, (dx, dy))
            mu = dot(w.dirvec, r)
            if t0 >= 0 or mu > 0:
                raise GenericityError("broken line segment runs along "
                                      "a wall; resample the endpoint")
            continue
        s = Fraction(wedge(w.dirvec, (base[0] - X[0], base[1] - X[1])), den)
        t = Fraction(wedge(r, (base[0] - X[0], base[1] - X[1])), den)
        if s <= 0 or t < 0:
            continue
        if t == 0:
            raise GenericityError("broken line segment through a wall "
                                  "base; resample the endpoint")
        cands.append((s, widx, abs(den), (X[0] + s * r[0], X[1] + s * r[1])))
    cands.sort(key=lambda c: (c[0], c[1]))
    for a, b in zip(cands, cands[1:]):
        if a[0] == b[0]:
            wa = d.walls[a[1]]
            wb = d.walls[b[1]]
            if wedge(wa.dirvec, wb.dirvec) != 0:
                raise GenericityError("broken line segment through a "
                                      "wall crossing; resample the "
                                      "endpoint")
    return cands


# -- comparison ---------------------------------------------------------------


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except GenericityError as e:
        return ("generic", str(e))


@pytest.fixture(scope="module")
def diagrams():
    """(fan, seed, diagram, endpoints) over P2 and P1xP1, k = 2..4 and ten
    seeds each."""
    out = []
    for fan in (P2, P1P1):
        for k in (2, 3, 4):
            for seed in range(1, 11):
                cfg = sample_generic_points(k, seed)
                try:
                    d = build_diagram(fan, cfg)
                except GenericityError:
                    continue
                sing = ref_sing_points(d)
                out.append((fan, seed, d, sing, endpoints(d, seed, sing)))
    return out


def endpoints(d, seed, sing):
    """At least ten endpoints: sampled ones, and small offsets from wall
    bases and wall crossings, which put endpoints on walls and send rays
    through bases and crossings."""
    pts = [hfrac(sample_endpoint(1000 + 10 * seed + i)) for i in range(4)]
    pts.append((Fraction(0), Fraction(0)))
    bases = sorted({hfrac(w.base) for w in d.walls})
    for n, (x, y) in enumerate(bases[:2]):
        for a, b in ((-1, 0), (1, 1), (2, -1)):
            pts.append((x + a + Fraction(n, 7), y + b))
    crossings = [P for P in sing if P not in bases]
    for x, y in crossings[:2]:
        pts.append((x - 1, y))
    return pts


def exponents(fan, k):
    cap = k + 1
    for m in itertools.product(range(cap + 1), repeat=fan.nrays()):
        if 1 <= sum(m) <= cap and r_vector(fan, m) != (0, 0):
            yield m


def leg_outcome(d, X, m):
    r = r_vector(d.fan, m)
    got = outcome(d.crossings, X, r, _LEG_FAULTS)
    if got[0] == "ok":
        got = ("ok", [(Fraction(s_num, den), widx,
                       abs(wedge(d.walls[widx].dirvec, r)),
                       hfrac(hshift(X, s_num, den, r)))
                      for s_num, den, widx in got[1]])
    return got


def test_sing_points_match_reference(diagrams):
    for _, _, d, sing, _ in diagrams:
        got = d.sing_points()
        assert [hfrac(P) for P in got] == sing
        assert all(P == as_hpoint(P) for P in got)
    assert len(diagrams) >= 50


def test_potential_fraction_work_stays_pinned():
    """Fractions that build_diagram, check_consistency and potential
    construct at k = 4 on P2, seed 1, as `potential --k 4` runs them.

    Sampled points are triples, singular points sort on the integer keys
    of `exact_shift` and the germs at a point by the sign of a wedge, so
    none is left.  With Fraction coordinates for the samples, Fraction
    sort keys for the singular points and Fraction slopes for the germs,
    the three calls constructed 360.
    """
    made = []
    orig = Fraction.__dict__["__new__"]

    def counted(cls, *args, **kwargs):
        made.append(cls)
        return orig(cls, *args, **kwargs)

    Fraction.__new__ = counted
    try:
        d = build_diagram(P2, sample_generic_points(4, 1))
        rep = check_consistency(d)
        W = potential(d, P2, sample_endpoint(2))
    finally:
        Fraction.__new__ = orig
    assert rep.ok and len(d.walls) == 66 and W.lines
    assert len(made) == 0


def test_legs_match_reference(diagrams):
    faults = set()
    legs = 0
    for fan, seed, d, _, pts in diagrams:
        # a third of the exponents per seed, shared out over the endpoints
        # so that each endpoint takes at least one
        ms = list(exponents(fan, d.k()))[seed % 3::3]
        bends = []
        for j in range(max(len(ms), len(pts))):
            X, m = pts[j % len(pts)], ms[j % len(ms)]
            want = outcome(ref_leg, d, X, m)
            assert leg_outcome(d, hpoint(*X), m) == want, (X, m)
            legs += 1
            if want[0] == "generic":
                faults.add(want[1])
            elif want[1]:
                bends.append(want[1][0][3])
        # legs that start on a wall, as after a bend
        for j, V in enumerate(bends[:2]):
            for m in ms[j::3]:
                want = outcome(ref_leg, d, V, m)
                assert leg_outcome(d, hpoint(*V), m) == want
                legs += 1
    assert legs > 1000
    # the comparison reached every fault rule, not only clean legs
    assert len(faults) == 3, faults


def test_path_crossings_match_reference(diagrams):
    faults = set()
    paths = 0
    for _, _, d, sing, pts in diagrams:
        cyc = pts + pts[:2]
        for i in range(len(pts)):
            # two-vertex paths as rational pairs, the way callers pass
            # them, and three-vertex paths as triples
            path = cyc[i:i + 2 + i % 2]
            want = outcome(ref_path_crossings, d, path)
            if i % 2:
                path = [hpoint(*P) for P in path]
            assert outcome(path_crossings, d, path) == want
            paths += 1
            if want[0] == "generic":
                faults.add(want[1])
        # straight through a wall base and through a wall crossing
        for x, y in sing[:3]:
            v = (1, Fraction(1, 173))
            path = [(x - v[0], y - v[1]), (x + v[0], y + v[1])]
            want = outcome(ref_path_crossings, d, path)
            assert outcome(path_crossings, d, path) == want
            if want[0] == "generic":
                faults.add(want[1])
    assert paths >= 500
    assert len(faults) >= 3, faults


def test_support_queries_match_reference(diagrams):
    """supp_contains and walls_through against a scan of every wall, at
    the endpoints, the singular points (wall bases and crossings), and
    points ahead of, behind and beside each wall's root."""
    points = held = 0
    for _, _, d, sing, pts in diagrams[::5]:
        pts = pts + sing
        for w in d.walls:
            (x, y), (a, b) = hfrac(w.base), w.dirvec
            pts += [(x + Fraction(2 * a, 3), y + Fraction(2 * b, 3)),
                    (x - Fraction(a, 5), y - Fraction(b, 5)),
                    (x + Fraction(b, 7), y - Fraction(a, 7))]
        for X in pts:
            want = [w for w in d.walls if ref_support_contains(w, X)]
            assert d.supp_contains(X) == bool(want)
            P = hpoint(*X)
            got = [w for ix in d._index.values() for w in walls_through(ix, P)]
            assert sorted(map(id, got)) == sorted({id(w) for w in want})
            held += bool(want)
        points += len(pts)
    assert points > 1000
    assert 0 < held < points


# -- the boundary converter ---------------------------------------------------


rationals = st.fractions(max_denominator=10 ** 6).filter(
    lambda q: abs(q) < 10 ** 6)


@given(rationals, rationals, st.integers(1, 10 ** 4))
def test_as_hpoint_pair_and_triple_agree(x, y, scale):
    P = as_hpoint((x, y))
    X, Y, W = P
    assert W > 0 and hfrac(P) == (x, y)
    # any positive or negative multiple of the triple is the same point
    assert as_hpoint((X * scale, Y * scale, W * scale)) == P
    assert as_hpoint((-X * scale, -Y * scale, -W * scale)) == P
    assert as_hpoint((str(x), str(y))) == P
