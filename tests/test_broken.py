import pytest

from tropenum.broken import (enumerate_broken_lines, potential,
                             sample_endpoint, transport,
                             verify_disk_correspondence)
from tropenum.enumeration import resample, sample_generic_points
from tropenum.fan import builtin_fan
from tropenum.lattice import hfrac, hpoint
from tropenum.scattering import (build_diagram, format_element,
                                 path_crossings, ring_mono)
from tropenum.tropcurve import GenericityError, InvariantError

P2 = builtin_fan("p2")
NAMES = ["x0", "x1", "x2"]


def final_strings(lines):
    return sorted(format_element(bl.final_element(), NAMES) for bl in lines)


def test_no_points_three_straight_lines():
    d = build_diagram(P2, sample_generic_points(0, 1))
    Q = sample_endpoint(101)
    lines = enumerate_broken_lines(d, P2, Q)
    assert final_strings(lines) == ["x0", "x1", "x2"]
    for bl in lines:
        assert bl.nbends() == 0
        assert bl.segs[0][0] is None
        assert bl.segs[-1][1] == Q
    W = potential(d, P2, Q)
    assert format_element(W.value, NAMES) == "y0 + x2 + x1 + x0"
    assert W.value == W.mod_u()


def test_two_point_chamber_multisets():
    # one configuration, two endpoints on opposite sides of a wall give
    # the 5-line and 6-line chambers
    cfg = sample_generic_points(2, 5)
    d = build_diagram(P2, cfg)
    Q = sample_endpoint(302)
    lines = enumerate_broken_lines(d, P2, Q)
    assert final_strings(lines) == ["u1*x0*x2", "u2*x1*x2", "x0", "x1", "x2"]
    W = potential(d, P2, Q)
    assert format_element(W.value, NAMES) == \
        "y0 + x2 + x1 + x0 + u2*x1*x2 + u1*x0*x2"

    Qp = sample_endpoint(301)
    lines2 = enumerate_broken_lines(d, P2, Qp)
    assert len(lines2) == 6
    profiles = sorted(bl.final()[1] for bl in lines2)
    assert profiles == [0, 0, 0, 0b1, 0b10, 0b11]
    # the joint-u line bends once at the scattered wall
    joint = [bl for bl in lines2 if bl.final()[1] == 0b11]
    assert len(joint) == 1
    assert joint[0].nbends() in (1, 2)
    assert sum(joint[0].final()[2]) == 3


def test_segment_monomials_chain():
    cfg = sample_generic_points(2, 5)
    d = build_diagram(P2, cfg)
    for bl in enumerate_broken_lines(d, P2, sample_endpoint(301)):
        c0, i0, m0 = bl.segs[0][2]
        assert c0 == 1 and i0 == 0 and sum(m0) == 1
        for (a, b, mono), (a2, b2, mono2) in zip(bl.segs, bl.segs[1:]):
            assert b == a2
            # exponent grows and the mark mask strictly enlarges at a bend
            assert all(x <= y for x, y in zip(mono[2], mono2[2]))
            assert mono[1] & ~mono2[1] == 0 and mono[1] != mono2[1]


def test_transport_matches_recomputation():
    cfg = sample_generic_points(2, 5)
    d = build_diagram(P2, cfg)
    Q = sample_endpoint(302)
    Qp = sample_endpoint(301)
    W = potential(d, P2, Q)
    Wp = potential(d, P2, Qp)
    assert len(path_crossings(d, [Q, Qp])) == 1
    moved = transport(d, W, [Q, Qp])
    assert moved.value == Wp.value
    assert transport(d, Wp, [Qp, Q]).value == W.value
    assert moved.endpoint == Qp


def test_transport_from_any_start():
    # the walls between W.endpoint and the path's first vertex are crossed
    # too, so transport gives the potential at the last vertex from any
    # start, and a one-vertex path is a move to that vertex
    config, d = resample(3, 4, lambda c: build_diagram(P2, c))
    W = potential(d, P2, sample_endpoint(5))
    moved = 0
    for seed in range(601, 611):
        A, B = sample_endpoint(seed), sample_endpoint(seed + 100)
        try:
            WA, WB = potential(d, P2, A), potential(d, P2, B)
            assert transport(d, W, [A, W.endpoint]).value == W.value
            assert transport(d, W, [A]).value == WA.value
            assert transport(d, W, [A, B]).value == WB.value
        except GenericityError:
            continue
        moved += WA.value != W.value
    assert moved >= 3


def test_same_chamber_constant():
    cfg = sample_generic_points(2, 5)
    d = build_diagram(P2, cfg)
    Q = sample_endpoint(302)
    Q2 = sample_endpoint(304)
    assert path_crossings(d, [Q, Q2]) == []
    assert potential(d, P2, Q).value == potential(d, P2, Q2).value
    W = potential(d, P2, Q)
    assert transport(d, W, [Q, Q2]).value == W.value


def test_disk_correspondence_small_grid():
    for k, seed, qs in ((1, 3, 501), (2, 5, 502), (3, 7, 503)):
        cfg = sample_generic_points(k, seed)
        assert verify_disk_correspondence(P2, cfg, sample_endpoint(qs))


def test_potential_mod_u_and_multilinearity():
    for k, seed, qs in ((1, 3, 511), (2, 5, 512), (3, 7, 513)):
        cfg = sample_generic_points(k, seed)
        d = build_diagram(P2, cfg)
        W = potential(d, P2, sample_endpoint(qs))
        base = ring_mono(3, 1, 0, (1, 0, 0)).add(
            ring_mono(3, 1, 0, (0, 1, 0))).add(
            ring_mono(3, 1, 0, (0, 0, 1)))
        assert W.mod_u().y0 == 1
        assert sorted(W.mod_u().terms) == sorted(base.terms)
        for (m, mask), c in W.value.terms.items():
            assert mask.bit_count() <= k
            assert c.denominator == 1 and c > 0
        assert W.k == k


def test_count_bound():
    for k, seed, qs in ((1, 3, 521), (2, 5, 522), (3, 7, 523)):
        cfg = sample_generic_points(k, seed)
        d = build_diagram(P2, cfg)
        lines = enumerate_broken_lines(d, P2, sample_endpoint(qs))
        assert len(lines) <= 3 * (len(d.walls) + 1) ** k
        assert len(lines) >= 3


def test_endpoint_on_support_rejected():
    cfg = sample_generic_points(1, 3)
    d = build_diagram(P2, cfg)
    with pytest.raises(GenericityError) as err:
        enumerate_broken_lines(d, P2, cfg.points[0])
    assert "resample" in str(err.value)


def test_trace_through_wall_base_rejected():
    cfg = sample_generic_points(1, 3)
    d = build_diagram(P2, cfg)
    p1 = hfrac(cfg.points[0])
    # from here the x0 trace runs due west straight into the wall base
    Q = hpoint(p1[0] + 3, p1[1])
    with pytest.raises(GenericityError) as err:
        enumerate_broken_lines(d, P2, Q)
    assert "resample" in str(err.value)


def test_fan_mismatch_rejected():
    cfg = sample_generic_points(1, 3)
    d = build_diagram(P2, cfg)
    with pytest.raises(InvariantError):
        enumerate_broken_lines(d, builtin_fan("p1xp1"), sample_endpoint(531))


def test_sample_endpoint_deterministic():
    a = sample_endpoint(7)
    b = sample_endpoint(7)
    assert a == b
    assert sample_endpoint(7, attempt=1) != a
    x, y = hfrac(a)
    assert -10 < x < 10 and -10 < y < 10


def test_flat_coordinate_accessors():
    cfg = sample_generic_points(2, 5)
    d = build_diagram(P2, cfg)
    W = potential(d, P2, sample_endpoint(302))
    kap = W.kappa()
    assert list(kap.terms) == [((1, 1, 1), 0)]
    us = W.u_sum()
    assert sorted(i for (_, i) in us.terms) == [0b1, 0b10]
    assert all(c == 1 for c in us.terms.values())


def test_broken_line_sorted_and_keys_unique():
    cfg = sample_generic_points(3, 7)
    d = build_diagram(P2, cfg)
    lines = enumerate_broken_lines(d, P2, sample_endpoint(541))
    keys = [bl.key() for bl in lines]
    assert keys == sorted(keys)
    # keys need not be unique in general, but bend data must be
    full = [(bl.key(), bl.segs) for bl in lines]
    assert len(set(str(x) for x in full)) == len(full)
