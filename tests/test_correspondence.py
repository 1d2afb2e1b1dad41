"""Lattice-map identities and decomposition structure on real solutions."""

import pytest

from reference import cokernel_order, det
from tropenum.arrangement import Overlay
from tropenum.correspondence import (PolyDecomp, build_decomposition,
                                     build_phi, fan_over, index_d,
                                     log_count_w, properties_report,
                                     reduced_graph, rescale_lattice,
                                     verify_correspondence)
from tropenum.enumeration import run_count
from tropenum.fan import builtin_fan, make_degree
from tropenum.tropcurve import InvariantError, mikhalkin_multiplicity


def test_overlay_quadrants():
    ov = Overlay()
    for d in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        ov.add_ray((0, 0, 1), d, "axis")
    cx = ov.build()
    assert len(cx.vertices) == 1
    assert len(cx.edges) == 4
    assert len(cx.faces) == 4
    recs = sorted((f[3], f[2]) for f in cx.faces)
    assert recs == sorted([((1, 0), (0, 1)), ((0, 1), (-1, 0)),
                           ((-1, 0), (0, -1)), ((0, -1), (1, 0))])


def test_overlay_merges_collinear_overlap():
    # two tropical-line stars whose east rays overlap beyond the second
    # vertex: the shared part carries both tags, the private part one
    ov = Overlay()
    for d in ((1, 0), (0, 1), (-1, -1)):
        ov.add_ray((0, 0, 1), d, "a")
        ov.add_ray((2, 0, 1), d, "b")
    cx = ov.build()
    assert len(cx.vertices) == 2
    tagmap = {}
    for e in cx.edges:
        if e[0] == "seg":
            tagmap["seg"] = e[-1]
        elif e[2] == (1, 0):
            tagmap["east"] = e[-1]
    assert tagmap["seg"] == frozenset(["a"])
    assert tagmap["east"] == frozenset(["a", "b"])
    assert sum(1 for e in cx.edges if e[0] == "ray") == 5
    assert len(cx.faces) == 5


def test_overlay_rejects_tjunction():
    ov = Overlay()
    ov.add_segment((-1, 0, 1), (1, 0, 1), "bar")
    for d in ((0, 1), (-1, -1)):
        ov.add_ray((-1, 0, 1), d, "bar")
    for d in ((0, -1), (1, 1)):
        ov.add_ray((1, 0, 1), d, "bar")
    ov.add_ray((0, 0, 1), (0, 1), "stem")
    with pytest.raises(InvariantError):
        ov.build()


def test_overlay_requires_anchored_points():
    ov = Overlay()
    for d in ((1, 0), (0, 1), (-1, -1)):
        ov.add_ray((0, 0, 1), d, "a")
    ov.add_point((5, 7, 1))
    with pytest.raises(InvariantError):
        ov.build()


def test_line_phi_and_flip_independence():
    fan = builtin_fan("p2")
    rep = run_count(fan, make_degree(fan, (1, 1, 1)), seed=3)
    assert rep.n_trop == 1
    sys = build_phi(rep.curves[0])
    assert sys.shape() == (2, 2)
    assert index_d(sys) == 1
    assert log_count_w(rep.curves[0]) == 1
    # flipping the v+/v- enumeration of an edge negates its row and must
    # not change the index
    rows = [list(r) for r in sys.rows]
    for k in range(len(rows)):
        flipped = [list(r) for r in rows]
        flipped[k] = [-e for e in flipped[k]]
        assert cokernel_order(flipped) == 1


def test_correspondence_on_p2():
    fan = builtin_fan("p2")
    for coeffs, seed in (((1, 1, 1), 5), ((1, 1, 1), 9),
                         ((2, 2, 2), 5), ((2, 2, 2), 9),
                         ((3, 3, 3), 11)):
        rep = run_count(fan, make_degree(fan, coeffs), seed=seed)
        for c in rep.curves:
            sys = build_phi(c)
            verts, edges = reduced_graph(c)
            nbounded = sum(1 for a, b, u, w, ls in edges if b is not None)
            assert sys.shape() == (nbounded + len(c.marks), 2 * len(verts))
            d = index_d(sys)
            assert abs(det(sys.rows)) == d == cokernel_order(sys.rows)
            assert d * log_count_w(c) == mikhalkin_multiplicity(c)
            assert verify_correspondence(c)


def test_correspondence_on_dp6():
    fan = builtin_fan("dp6")
    deg = make_degree(fan, (1, 1, 1, 1, 1, 1))
    seen = set()
    for seed in (2, 3):
        rep = run_count(fan, deg, seed=seed)
        for c in rep.curves:
            m = mikhalkin_multiplicity(c)
            seen.add(m)
            assert index_d(build_phi(c)) * log_count_w(c) == m
    assert seen <= {1, 3, 4}
    assert max(seen) > 1


# degrees whose one solution is a line through one point: two opposite rays
LINES = [("p1xp1", (1, 0, 1, 0), 1), ("p1xp1", (0, 1, 0, 1), 2),
         ("dp6", (1, 0, 0, 1, 0, 0), 1), ("dp6", (0, 1, 0, 0, 1, 0), 3)]


def test_line_through_one_point_has_phi_one():
    # the reduced graph has no vertex: the line moves only by its offset in
    # M/Zu, the one coordinate its mark reads, so Phi is the matrix [1]
    for name, deg, seed in LINES:
        fan = builtin_fan(name)
        rep = run_count(fan, make_degree(fan, deg), seed=seed)
        assert rep.n_trop == 1
        c = rep.curves[0]
        sys = build_phi(c)
        assert sys.shape() == (1, 1)
        assert sys.rows == ((1,),)
        assert index_d(sys) == log_count_w(c) == 1
        assert mikhalkin_multiplicity(c) == 1
        assert verify_correspondence(c)


def test_reduced_graph_of_conic():
    fan = builtin_fan("p2")
    rep = run_count(fan, make_degree(fan, (2, 2, 2)), seed=7)
    for c in rep.curves:
        verts, edges = reduced_graph(c)
        assert len(verts) == 4
        # every edge leaves an unmarked vertex; 3 end at one, 6 at infinity
        assert all(a in verts for a, _, _, _, _ in edges)
        ends = sorted(b is None for _, b, _, _, _ in edges)
        assert ends == [False] * 3 + [True] * 6
        assert all(u > (0, 0) for _, b, u, _, _ in edges if b is not None)
        assert sum(len(ls) for _, _, _, _, ls in edges) == 5
        assert all(w >= 1 for _, _, _, w, _ in edges)


def test_decomposition_of_a_line():
    fan = builtin_fan("p2")
    rep = run_count(fan, make_degree(fan, (1, 1, 1)), seed=3)
    pd = build_decomposition(rep.curves, fan, rep.config.points)
    report = properties_report(pd, rep.curves, fan)
    assert all(report.values())
    # the marked points sit on rays of the curve, so the fan translates
    # overlap them and the shared edges carry both tags
    mixed = [e for e in pd.edges
             if any(t.startswith("curve") for t in e[-1])
             and any(t.startswith("fan") for t in e[-1])]
    assert mixed


def test_decomposition_of_dp6_and_fan_over():
    fan = builtin_fan("dp6")
    deg = make_degree(fan, (1, 1, 1, 1, 1, 1))
    rep = run_count(fan, deg, seed=2)
    pd = build_decomposition(rep.curves, fan, rep.config.points)
    report = properties_report(pd, rep.curves, fan)
    assert all(report.values())
    euler = len(pd.vertices) - len(pd.edges) + len(pd.faces)
    assert euler == 1
    pd2, a = rescale_lattice(pd)
    assert a >= 1
    assert all(v[2] == 1 for v in pd2.vertices)
    assert properties_report(pd2, [], fan)["recession_in_fan"]
    f3 = fan_over(pd2, fan)
    ncells = len(pd2.vertices) + len(pd2.edges) + len(pd2.faces)
    assert len(f3.cones) == ncells + 1 + 2 * fan.nrays()
    text = f3.to_text()
    assert text.count("\n") == len(f3.cones) + 2
    assert "(0,0," not in text  # no zero generators anywhere


def test_fan_over_refuses_a_foreign_or_partial_fan():
    # dP6's cells recede along pairs of dP6 rays that span no P2 cone
    fan = builtin_fan("dp6")
    rep = run_count(fan, make_degree(fan, (1,) * 6), seed=2)
    pd = build_decomposition(rep.curves, fan, rep.config.points)
    with pytest.raises(InvariantError, match="is not a fan cone"):
        fan_over(pd, builtin_fan("p2"))
    # a lone vertex recedes nowhere, so it leaves the fan's rays uncovered
    with pytest.raises(InvariantError, match="do not exhaust the fan"):
        fan_over(PolyDecomp([(0, 0, 1)], [], [], []), fan)
