import collections
import json
from fractions import Fraction

import pytest

from reference import ref_maslov_index
from tropenum import bruteforce, cli, enumeration, lattice
from tropenum.bruteforce import bruteforce_rational_curves
from tropenum.enumeration import (Forest, PointConfig, build_forest,
                                  disk_to_curve, enumerate_maslov0_trees,
                                  enumerate_maslov2_disks,
                                  enumerate_rational_curves, precheck_config,
                                  run_count, sample_generic_points)
from tropenum.fan import builtin_fan, r_vector
from tropenum.gw import kontsevich_number
from tropenum.lattice import hfrac, hpoint, hshift, wedge
from tropenum.tropcurve import (GenericityError, canonical_type,
                                check_balancing, degree, geometric_signature,
                                validate_curve)

P2 = builtin_fan("p2")
P1P1 = builtin_fan("p1xp1")
DP6 = builtin_fan("dp6")


def test_sampler_deterministic_and_generic():
    a = sample_generic_points(4, seed=11)
    b = sample_generic_points(4, seed=11)
    assert a.points == b.points
    c = sample_generic_points(4, seed=11, attempt=1)
    assert c.points != a.points
    denoms = a.certificate["denominators"]
    assert len(set(denoms)) == 8
    coords = [x for p in a.points for x in hfrac(p)]
    assert len(set(coords)) == 8
    for x in coords:
        assert -10 < x < 10


def test_precheck_flags_aligned_pairs():
    pts = [hpoint(Fraction(0), Fraction(0)), hpoint(Fraction(3), Fraction(3))]
    bad = PointConfig(pts, 0, 0, {})
    with pytest.raises(GenericityError):
        precheck_config(P2, (1, 1, 1), bad)


def test_trees_over_one_point():
    cfg = sample_generic_points(1, seed=5)
    trees = enumerate_maslov0_trees(P2, cfg)
    # one leaf tree per ray
    assert len(trees) == 3
    for c in trees:
        assert check_balancing(c) == []
        assert ref_maslov_index(c, P2) == 0
        validate_curve(c, P2, points={0: cfg.points[0]})


def test_trees_grow_with_more_points():
    cfg = sample_generic_points(2, seed=5)
    trees = enumerate_maslov0_trees(P2, cfg)
    levels = {}
    for c in trees:
        levels[len(c.marks)] = levels.get(len(c.marks), 0) + 1
    assert levels[1] == 6
    assert levels.get(2, 0) > 0
    for c in trees:
        assert ref_maslov_index(c, P2) == 0
        assert len(c.uedges) >= 2   # at least the out-edge and one ray


def test_disks_at_base_point():
    cfg = sample_generic_points(0, seed=5)
    disks = [disk_to_curve(d, P2)
             for d in enumerate_maslov2_disks(P2, cfg, hpoint(0, 0))]
    assert len(disks) == 3
    for c in disks:
        assert ref_maslov_index(c, P2) == 2
        assert degree(c, P2) in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        validate_curve(c, P2)

    cfg1 = sample_generic_points(1, seed=5)
    disks1 = [disk_to_curve(d, P2)
              for d in enumerate_maslov2_disks(P2, cfg1, hpoint(0, 0))]
    assert len(disks1) > 3
    for c in disks1:
        assert ref_maslov_index(c, P2) == 2
        # disk uses exactly |degree| - 1 marks
        assert sum(degree(c, P2)) == len(c.marks) + 1


def test_disk_base_on_wall_is_flagged():
    cfg = sample_generic_points(1, seed=5)
    # leaf walls leave each point opposite to a ray; sit Q on one
    p = cfg.points[0]
    q = hshift(p, 2, 1, (-1, 0))
    with pytest.raises(GenericityError):
        enumerate_maslov2_disks(P2, cfg, q)


def test_stem_on_a_wall_is_a_fault_of_the_tracer():
    # Trace from Q = root + out, a point on a tree's wall, a monomial
    # m = deg + e_i the tree can deflect: a crossing stem starts on the
    # wall (s == 0) and a parallel one runs along it.  Both are faults, so
    # the tracer's side test must keep the wall rather than skip it.
    forest = build_forest(P2, sample_generic_points(3, seed=1))
    seen = collections.Counter()
    for t in forest.trees:
        Q = hshift(t.base, 1, 1, t.out)
        for i in range(3):
            m = tuple(d + (j == i) for j, d in enumerate(t.deg))
            r = r_vector(P2, m)
            if r == (0, 0):
                continue
            want = ("stem runs along a tree wall" if wedge(r, t.out) == 0
                    else "stem vertex lies on a tree wall")
            with pytest.raises(GenericityError, match=want):
                forest._trace(Q, Q, m, forest.allowed, [], [])
            seen[want] += 1
    assert len(seen) == 2


def test_line_and_conic_counts():
    for deg, expect in (((1, 1, 1), kontsevich_number(1)),
                        ((2, 2, 2), kontsevich_number(2))):
        for seed in (1, 2, 3, 4, 5):
            rep = run_count(P2, deg, seed=seed)
            assert rep.n_trop == expect
            assert len(set(canonical_type(c) for c in rep.curves)) \
                == len(rep.curves)


def test_solutions_have_expected_shape():
    rep = run_count(P2, (2, 2, 2), seed=7)
    for c in rep.curves:
        marked = {v for _, v in c.marks}
        assert len(c.uedges) == 6
        assert all(w == 1 for _, _, w in c.uedges)
        for v in range(len(c.vertices)):
            g = len(c.germs(v))
            assert g == 2 if v in marked else g in (1, 3)
        assert check_balancing(c) == []


def test_bruteforce_agrees_with_enumeration():
    for fan, deg in ((P2, (1, 1, 1)), (P2, (2, 2, 2)), (P1P1, (1, 2, 1, 2))):
        k = sum(deg) - 1
        done = 0
        for seed in range(1, 10):
            if done >= 2:
                break
            for attempt in range(8):
                config = sample_generic_points(k, seed, attempt=attempt)
                try:
                    main = enumerate_rational_curves(fan, deg, config)
                    brute = bruteforce_rational_curves(fan, deg, config)
                except GenericityError:
                    continue
                assert main.n_trop == brute.n_trop
                assert main.w_trop == brute.w_trop
                assert ([geometric_signature(c) for c in main.curves]
                        == [geometric_signature(c) for c in brute.curves])
                done += 1
                break
        assert done == 2


@pytest.mark.parametrize("fan,deg", [(DP6, (1,) * 6), (P2, (3, 3, 3)),
                                     (P1P1, (2, 2, 2, 2))],
                         ids=["dp6", "p2-cubic", "p1xp1-22"])
def test_bruteforce_refuses_polygons_with_interior_points(fan, deg,
                                                          monkeypatch):
    """A crossing of a solution's image is a node, dual to a parallelogram
    that no triangulation has, so it needs an interior lattice point of
    the Newton polygon.  On dP6 anticanonical, seed 1, 8 of the engine's 9
    solutions cross once, and the triangulations found only the ninth
    (N = 4 of 12, W = 0 of 8).  The oracle refuses such a polygon before
    it enumerates a triangulation."""
    def triangulations(poly):
        raise AssertionError("a triangulation was enumerated")

    monkeypatch.setattr(bruteforce, "triangulations", triangulations)
    config = sample_generic_points(sum(deg) - 1, 1)
    with pytest.raises(ValueError, match="interior lattice point"):
        bruteforce_rational_curves(fan, deg, config)


def test_bruteforce_family_is_a_genericity_failure():
    """These five points on (1/7)Z^2 meet the rank drop of a marked conic
    type, which then solves to a family: the points are special, so the
    oracle asks for a resample.  The engine finds the one conic."""
    config = PointConfig([hpoint(Fraction(x, 7), Fraction(y, 7))
                          for x, y in ((-6, 16), (13, -13), (2, 17), (9, 19),
                                       (16, -17))], 3, 0, {})
    assert enumerate_rational_curves(P2, (2, 2, 2), config).n_trop == 1
    with pytest.raises(GenericityError, match="solved to a family"):
        bruteforce_rational_curves(P2, (2, 2, 2), config)


def test_p1xp1_counts():
    assert run_count(P1P1, (1, 0, 1, 0), seed=3).n_trop == 1
    for seed in (1, 2, 3):
        assert run_count(P1P1, (1, 1, 1, 1), seed=seed).n_trop == 1


def test_cubic_count_single_seed():
    rep = run_count(P2, (3, 3, 3), seed=11)
    assert rep.n_trop == 12


def test_cubic_count_work_stays_pruned(monkeypatch):
    """Crossing-kernel calls, point builds and pass walls traced of one
    P2 cubic count.

    The forest settles the signs of every crossing in integers on the
    offset-sorted slice of a bucket, so it never calls ray_params; it
    builds a point with hshift only for a hit, and tries on_segment and
    on_ray only on points on a stem's or a wall's line other than its
    start, where a strict test is always False.  The count traces only
    the disks that can pair: a pass wall's disks when a stem or a gluing
    first meets the wall, and the large side of a pivot pair only for a
    small side found.  On seed 1 that is 0 ray_params calls, 20,066
    ray_hits calls, 4,472 hshift calls and no on_segment or on_ray call,
    and of the (point, degree) pass walls of levels 2-7, 21 of 21, 42 of
    42, 69 of 84, 62 of 84, 9 of 63 and 7 of 42 traced.  Filtering the
    last two levels as a whole made 22,872 ray_hits calls and 5,527
    hshift calls, filtering the last level alone 30,020 and 7,480,
    tracing every disk 47,270 and 11,702, and trying the starts too made
    767 on_segment calls and 581 on_ray calls.
    With ray_params behind an integer side test the same count made 94,324
    ray_params calls, 13,552 on_segment calls and 6,738 on_ray calls; with
    no side test, 245,864 ray_params calls and 35,417 hshift calls.  The
    lattice bindings are counted too, so a return to ray_params or
    ray_intersect shows here.
    """
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("ray_params", "ray_hits", "hshift", "on_segment",
                 "on_ray"):
        fn = getattr(lattice, name)
        for mod in (enumeration, lattice):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, fn))
    forests = []
    pivot_disks = Forest.pivot_disks

    def kept(self):
        forests.append(self)
        return pivot_disks(self)

    monkeypatch.setattr(Forest, "pivot_disks", kept)
    rep = run_count(P2, (3, 3, 3), seed=1)
    assert (rep.n_trop, rep.w_trop) == (12, 8)
    assert calls["ray_params"] == 0
    assert calls["ray_hits"] == 20066
    assert calls["hshift"] <= 4472
    assert calls["on_segment"] == 0
    assert calls["on_ray"] == 0
    walls = {n: [t for t in ts if t.kind == "wall"]
             for n, ts in forests[-1].levels.items()}
    assert {n: (sum(t.parts is not None for t in ws), len(ws))
            for n, ws in walls.items() if ws} == {
        2: (21, 21), 3: (42, 42), 4: (69, 84), 5: (62, 84), 6: (9, 63),
        7: (7, 42)}


def test_uncapped_forest_files_pass_walls(monkeypatch):
    """The uncapped P2 forest of `trees --k 5 --seed 1` files the pass
    trees of each (point, degree) on one wall, as a count's forest does:
    its 204 trees sit in 185 bucket entries, 31 of them walls, and it
    makes 2,898 ray_hits calls.  Filing each pass tree by itself made 204
    entries and 3,030 calls."""
    calls = collections.Counter()
    ray_hits = lattice.ray_hits

    def counted(*args):
        calls["ray_hits"] += 1
        return ray_hits(*args)

    monkeypatch.setattr(enumeration, "ray_hits", counted)
    forest = build_forest(P2, sample_generic_points(5, 1))
    entries = [t for b in forest._buckets() for t in b[1]]
    assert len(forest.trees) == 204
    assert len(entries) == 185
    assert sum(t.kind == "wall" for t in entries) == 31
    assert calls["ray_hits"] == 2898


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2])
def test_quartic_count(seed):
    rep = run_count(P2, (4, 4, 4), seed=seed)
    assert rep.n_trop == kontsevich_number(4) == 620
    assert rep.w_trop == 240


@pytest.mark.slow
def test_scatter_k6(capsys):
    assert cli.main(["scatter", "--k", "6", "--seed", "1"]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["walls"]) == 692
    rows = doc["consistency"]["rows"]
    assert len(rows) == 1660
    assert all(r["identity"] for r in rows if not r["marked"])
    assert doc["consistency"]["ok"]


def test_dp6_counts_and_multisets():
    allowed = {(1,) * 8 + (4,), (1,) * 9 + (3,)}
    for seed in (1, 2, 3, 4, 5, 9):
        rep = run_count(DP6, (1,) * 6, seed=seed)
        assert rep.n_trop == 12
        assert rep.w_trop == 8
        assert set(rep.multiset()) <= {1, 3, 4}
        assert tuple(rep.multiset()) in allowed


def test_forest_walls_avoid_points():
    cfg = sample_generic_points(3, seed=2)
    forest = Forest(P2, cfg, degree_cap=(3, 3, 3))
    forest.build(3)
    assert forest.trees
    # every tree used at most all marks and its wall dodged the points
    for t in forest.trees:
        assert bin(t.marks).count("1") <= 3
        assert t.w >= 1 and t.mult >= 1
