import random
from fractions import Fraction

import pytest

from reference import cokernel_order
from tropenum.lattice import (angle_key, dot, eliminate, hdiff, hfrac, hnorm,
                              hpoint, hshift, lattice_length, line_param,
                              on_ray, on_segment, primitive, ray_intersect,
                              rot90, smith_normal_form, wedge)


def det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def test_primitive_basic():
    assert primitive((4, -6)) == ((2, -3), 2)
    assert primitive((0, -5)) == ((0, -1), 5)
    assert primitive((7, 0)) == ((1, 0), 7)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_primitive_random_grid():
    rng = random.Random(11)
    for _ in range(1000):
        v = (rng.randint(-40, 40), rng.randint(-40, 40))
        if v == (0, 0):
            continue
        p, k = primitive(v)
        assert (p[0] * k, p[1] * k) == v
        assert k == lattice_length(v) > 0
        assert lattice_length(p) == 1


def test_wedge_dot_rot90():
    assert wedge((1, 0), (0, 1)) == 1
    assert wedge((2, 3), (2, 3)) == 0
    assert dot((1, 2), (3, 4)) == 11
    assert rot90((1, 0)) == (0, 1)
    assert rot90((0, 1)) == (-1, 0)
    rng = random.Random(5)
    for _ in range(200):
        a = (rng.randint(-9, 9), rng.randint(-9, 9))
        b = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert wedge(a, b) == -wedge(b, a)
        assert dot(rot90(a), rot90(b)) == dot(a, b)
        assert wedge(a, b) == dot(rot90(a), b)


def test_angle_key_orders_counterclockwise():
    ring = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1),
            (-2, 1), (-1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1),
            (1, -2), (1, -1), (2, -1)]
    keys = [angle_key(v) for v in ring]
    # strictly increasing: no two directions of the ring compare equal
    assert all(a < b for a, b in zip(keys, keys[1:]))
    # scaling does not change the key
    assert angle_key((3, -3)) == angle_key((1, -1))


def test_smith_normal_form_examples():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[2, 4], [0, 2]]) == [2, 2]
    assert smith_normal_form([[0, 0], [0, 0]]) == []


def test_smith_normal_form_against_determinant():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.choice([2, 3])
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if n == 2:
            d = det2(m)
        else:
            # cofactor expansion along the first row
            d = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                 - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                 + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        diag = smith_normal_form(m)
        prod = 1
        for x in diag:
            prod *= x
        if d != 0:
            assert len(diag) == n
            assert prod == abs(d)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0
        else:
            assert len(diag) < n


def test_cokernel_order():
    assert cokernel_order([[1, 0], [0, 1]]) == 1
    assert cokernel_order([[2, 0], [0, 3]]) == 6
    assert cokernel_order([[2, 0], [0, 0]]) == "infinite"
    assert cokernel_order([[1, 2], [2, 4]]) == "infinite"


def apply(A, x):
    return [sum(a * v for a, v in zip(row, x)) for row in A]


def test_eliminate_unique_and_none():
    pivots, R, T = eliminate([[2, 0], [0, 3]])
    assert pivots == [0, 1] and R == [[1, 0], [0, 1]]
    assert apply(T, [4, 9]) == [Fraction(2), Fraction(3)]
    # x + y = 0 and x + y = 1: the left-kernel row of T rejects b
    pivots, R, T = eliminate([[1, 1], [1, 1]])
    assert pivots == [0] and R == [[1, 1], [0, 0]]
    assert apply(T[1:], [0, 1]) != [0]
    assert apply(T[1:], [1, 1]) == [0]


def test_eliminate_family_substitutes():
    rng = random.Random(7)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        xs = [Fraction(rng.randint(-5, 5), rng.randint(1, 5))
              for _ in range(cols)]
        b = apply(a, xs)
        pivots, R, T = eliminate(a)
        tb = apply(T, b)
        assert not any(tb[len(pivots):])
        # the solution with every free coordinate 0
        part = [Fraction(0)] * cols
        for i, c in enumerate(pivots):
            part[c] = tb[i]
        assert apply(a, part) == b
        # one kernel vector per free column
        for fc in range(cols):
            if fc in pivots:
                continue
            vec = [Fraction(int(c == fc)) for c in range(cols)]
            for i, c in enumerate(pivots):
                vec[c] = -R[i][fc]
            assert not any(apply(a, vec))


def test_homogeneous_helpers():
    p = hpoint(Fraction(1, 2), Fraction(-3, 4))
    assert hfrac(p) == (Fraction(1, 2), Fraction(-3, 4))
    assert hnorm(2, 4, 2) == (1, 2, 1)
    assert hnorm(1, 1, -1) == (-1, -1, 1)
    with pytest.raises(ValueError):
        hnorm(1, 1, 0)
    a = hpoint(Fraction(0), Fraction(0))
    b = hpoint(Fraction(3), Fraction(1))
    d = hdiff(a, b)
    assert primitive(d)[0] == primitive((3, 1))[0]
    assert hshift(a, 3, 2, (2, 0)) == hpoint(Fraction(3), Fraction(0))


def test_ray_intersect():
    a = hpoint(Fraction(0), Fraction(0))
    b = hpoint(Fraction(1), Fraction(-1))
    hit = ray_intersect(a, (1, 0), b, (0, 1))
    assert hit is not None
    s, t, den, p = hit
    assert den > 0 and s > 0 and t > 0
    assert hfrac(p) == (Fraction(1), Fraction(0))
    assert Fraction(s, den) == 1 and Fraction(t, den) == 1
    assert ray_intersect(a, (1, 0), b, (1, 0)) is None
    # crossing point behind one base still reported, with negative parameter
    s, t, den, p = ray_intersect(a, (-1, 0), b, (0, 1))
    assert Fraction(s, den) == -1


def test_on_ray_on_segment_line_param():
    base = hpoint(Fraction(1), Fraction(1))
    p = hpoint(Fraction(3), Fraction(5))
    assert on_ray(p, base, (1, 2))
    assert not on_ray(p, base, (-1, -2))
    assert on_ray(base, base, (1, 2))
    assert not on_ray(base, base, (1, 2), strict=True)
    t = line_param(p, base, (1, 2))
    assert Fraction(t[0], t[1]) == 2
    q = hpoint(Fraction(2), Fraction(3))
    assert on_segment(q, base, p)
    assert on_segment(q, base, p, strict=True)
    assert on_segment(base, base, p)
    assert not on_segment(base, base, p, strict=True)
    assert not on_segment(hpoint(Fraction(4), Fraction(7)), base, p)


def test_on_segment_fractional_endpoints():
    # hdiff scales directions by the W coordinates, so the endpoint of a
    # segment between non-integer points sits at a tiny raw parameter; the
    # membership test must not depend on that scale
    a = hpoint(Fraction(1, 3), Fraction(2, 7))
    b = hpoint(Fraction(5, 11), Fraction(9, 13))
    mid = hpoint((Fraction(1, 3) + Fraction(5, 11)) / 2,
                 (Fraction(2, 7) + Fraction(9, 13)) / 2)
    beyond = hpoint(2 * Fraction(5, 11) - Fraction(1, 3),
                    2 * Fraction(9, 13) - Fraction(2, 7))
    assert on_segment(mid, a, b, strict=True)
    assert on_segment(b, a, b) and not on_segment(b, a, b, strict=True)
    assert on_segment(a, a, b) and not on_segment(a, a, b, strict=True)
    assert not on_segment(beyond, a, b)
    assert not on_segment(beyond, a, b, strict=True)
