import random

import pytest

from tropenum.fan import (builtin_fan, degree_total, locate_direction,
                          make_degree, make_fan, newton_edge_lengths,
                          newton_polygon, r_vector)
from tropenum.lattice import primitive, wedge


def test_p2_fan():
    f = builtin_fan("p2")
    assert f.rays == ((1, 0), (0, 1), (-1, -1))
    assert len(f.cones2d) == 3


def test_p1xp1_fan():
    f = builtin_fan("p1xp1")
    assert set(f.rays) == {(1, 0), (0, 1), (-1, 0), (0, -1)}
    assert len(f.cones2d) == 4


def test_dp6_fan():
    f = builtin_fan("dp6")
    assert set(f.rays) == {(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0), (0, -1)}
    assert f.rays[0] == (1, 0)
    assert len(f.cones2d) == 6


def test_incomplete_fan_rejected():
    with pytest.raises(ValueError):
        make_fan([(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        make_fan([(1, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError):
        make_fan([(1, 0), (0, 1), (2, 2)])


def test_rays_normalized_and_sorted():
    f = make_fan([(0, 3), (-2, -2), (5, 0)])
    assert f.rays == ((1, 0), (0, 1), (-1, -1))


def test_cones_argument_checked():
    make_fan([(1, 0), (0, 1), (-1, -1)], cones=[(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError):
        make_fan([(1, 0), (0, 1), (-1, -1)], cones=[(0, 1), (1, 2)])


def test_degree_validation():
    f = builtin_fan("p2")
    d = make_degree(f, (3, 3, 3))
    assert degree_total(d) == 9
    assert degree_total(make_degree(f, (0, 0, 0))) == 0
    g = builtin_fan("dp6")
    assert degree_total(make_degree(g, (1,) * 6)) == 6
    with pytest.raises(ValueError):
        make_degree(f, (1, 2, 1))
    with pytest.raises(ValueError):
        make_degree(f, (1, 1))
    with pytest.raises(ValueError):
        make_degree(f, (-1, -1, -1))


def test_r_vector():
    f = builtin_fan("p2")
    assert r_vector(f, (1, 0, 0)) == (1, 0)
    assert r_vector(f, (1, 1, 1)) == (0, 0)
    assert r_vector(f, (2, 1, 0)) == (2, 1)


def test_completeness_random_directions():
    rng = random.Random(99)
    for name in ("p2", "p1xp1", "dp6"):
        f = builtin_fan(name)
        for _ in range(100):
            v = (rng.randint(-30, 30), rng.randint(-30, 30))
            if v == (0, 0):
                continue
            kind, idx = locate_direction(f, v)
            if kind == "cone":
                i, j = f.cones2d[idx]
                assert wedge(f.rays[i], v) > 0 and wedge(v, f.rays[j]) > 0
                # strict containment in one cone excludes all others
                others = [c for c, (a, b) in enumerate(f.cones2d)
                          if c != idx and wedge(f.rays[a], v) > 0
                          and wedge(v, f.rays[b]) > 0]
                assert others == []
            else:
                assert primitive(v)[0] == f.rays[idx]


def test_newton_polygon_p2_degree1():
    f = builtin_fan("p2")
    assert newton_polygon(f, (1, 1, 1)) == [(0, 0), (1, 0), (0, 1)]


def test_newton_polygon_p2_degree3():
    f = builtin_fan("p2")
    poly = newton_polygon(f, (3, 3, 3))
    assert poly == [(0, 0), (3, 0), (0, 3)]
    assert newton_edge_lengths(f, (3, 3, 3)) == [3, 3, 3]


def test_newton_polygon_dp6_anticanonical():
    f = builtin_fan("dp6")
    poly = newton_polygon(f, (1,) * 6)
    assert len(poly) == 6
    assert poly[0] == (0, 0)
    assert newton_edge_lengths(f, (1,) * 6) == [1] * 6
    # closure: edge vectors sum to zero
    total = [0, 0]
    for i in range(6):
        q = poly[(i + 1) % 6]
        total[0] += q[0] - poly[i][0]
        total[1] += q[1] - poly[i][1]
    assert total == [0, 0]


def test_newton_polygon_edge_lengths_match_degree():
    f = builtin_fan("p1xp1")
    assert sorted(newton_edge_lengths(f, (2, 1, 2, 1))) == [1, 1, 2, 2]
    f2 = builtin_fan("dp6")
    lengths = newton_edge_lengths(f2, (2, 2, 2, 2, 2, 2))
    assert lengths == [2] * 6


def test_newton_polygon_degenerate():
    f = builtin_fan("p2")
    assert newton_polygon(f, (0, 0, 0)) == [(0, 0)]
    g = builtin_fan("p1xp1")
    seg = newton_polygon(g, (1, 0, 1, 0))
    assert len(seg) == 2
