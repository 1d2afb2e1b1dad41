import collections
import json
import random

from fractions import Fraction

import pytest

from reference import (ref_compose, ref_crossing_auto, ref_pow,
                       ref_support_contains)
from tropenum import cli, lattice, scattering
from tropenum.broken import potential, sample_endpoint
from tropenum.enumeration import PointConfig, resample, sample_generic_points
from tropenum.fan import builtin_fan, make_fan
from tropenum.lattice import hfrac, hpoint, rot90
from tropenum.scattering import (RingElement, ScatteringDiagram, Wall, _fold,
                                 build_diagram, check_consistency,
                                 format_element, loop_automorphism,
                                 path_automorphism, path_crossings,
                                 ring_mono, ring_one)
from tropenum.tropcurve import GenericityError, InvariantError

P2 = builtin_fan("p2")


def triples(*pts):
    """The normalized triples of rational pairs, as a path."""
    return [hpoint(*P) for P in pts]


def non_unit(w):
    # the single scattered term of a tree wall: (m, mark mask, coeff)
    items = [(m, i, c) for (m, i), c in w.f.terms.items() if any(m)]
    assert len(items) == 1
    return items[0]


def rand_element(rng, nrays, k, nterms):
    terms = {}
    for _ in range(nterms):
        m = tuple(rng.randrange(3) for _ in range(nrays))
        mask = sum(1 << i for i in range(k) if rng.random() < 0.5)
        terms[(m, mask)] = Fraction(rng.randrange(-4, 5))
    return RingElement(nrays, terms)


def test_ring_laws_on_random_elements():
    rng = random.Random(20210)
    for _ in range(30):
        a = rand_element(rng, 3, 2, 4)
        b = rand_element(rng, 3, 2, 4)
        c = rand_element(rng, 3, 2, 4)
        assert a.mul(b) == b.mul(a)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))
        assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))


def test_u_squares_vanish():
    u1x0 = ring_mono(3, 1, 0b1, (1, 0, 0))
    u1x2 = ring_mono(3, 1, 0b1, (0, 0, 1))
    assert u1x0.mul(u1x2) == RingElement(3)
    u12 = ring_mono(3, 1, 0b11, (0, 0, 0))
    assert u12.mul(u12) == RingElement(3)
    mixed = ring_mono(3, 2, 0b1, (1, 0, 0)).mul(
        ring_mono(3, 5, 0b10, (0, 1, 0)))
    assert mixed == ring_mono(3, 10, 0b11, (1, 1, 0))


def test_y0_is_not_a_factor():
    a = RingElement(3, {}, y0=Fraction(1))
    with pytest.raises(InvariantError):
        a.mul(ring_one(3))
    with pytest.raises(InvariantError):
        ring_one(3).mul(a)
    assert a.add(a).y0 == 2


def test_negative_power_is_a_bug():
    f = ring_one(3).add(ring_mono(3, 3, 0b1, (0, 0, 1)))
    assert f.pow(0) == ring_one(3)
    assert f.pow(2) == ref_pow(f, 2)
    for e in (-1, -2):
        with pytest.raises(InvariantError):
            f.pow(e)


def test_unipotent_inverse():
    f = ring_one(3).add(ring_mono(3, 3, 0b1, (0, 0, 1)))
    assert f.pow(3).mul(ref_pow(f, -3)) == ring_one(3)
    assert f.mul(ref_pow(f, -1)) == ring_one(3)
    g = f.add(ring_mono(3, -2, 0b10, (0, 1, 0)))
    assert ref_pow(g, -2).mul(g.pow(2)) == ring_one(3)
    bad = ring_one(3).add(ring_mono(3, 1, 0, (1, 0, 0)))
    with pytest.raises(InvariantError):
        ref_pow(bad, -1)
    # the closed-form crossing raises no power, yet its generator images
    # are z^{e_i} * f^{<n0, v_i>}, with <n0, v_i> = -1, 1 and 0 here
    w = Wall(P2, hpoint(0, 0), (0, 0, 1), 3, 0b1)
    for sign in (1, -1):
        n = rot90(w.dirvec)
        n0 = (sign * n[0], sign * n[1])
        assert _fold(P2, [(w, n0)]) == ref_crossing_auto(w, n0)


def test_format_element_is_stable():
    f = ring_one(3).add(ring_mono(3, 2, 0b11, (1, 0, 1)))
    s = format_element(f, names=["x0", "x1", "x2"])
    assert s == "1 + 2*u1*u2*x0*x2"
    assert format_element(RingElement(3)) == "0"


def test_wall_validation():
    base = hpoint(1, 2)
    w = Wall(P2, base, (0, 0, 1), 1, 0b1)
    # r((0,0,1)) = (-1,-1), so the wall points the other way
    assert w.dirvec == (1, 1)
    assert w.f == ring_one(3).add(ring_mono(3, 1, 0b1, (0, 0, 1)))
    assert ref_support_contains(w, (Fraction(3), Fraction(4)))
    assert not ref_support_contains(w, (Fraction(-1), Fraction(0)))
    assert not ref_support_contains(w, (Fraction(3), Fraction(5)))
    d = ScatteringDiagram(P2, [w], [w.base])
    assert d.supp_contains(hpoint(3, 4))
    assert not d.supp_contains(hpoint(-1, 0))
    assert not d.supp_contains(hpoint(3, 5))
    with pytest.raises(InvariantError):
        Wall(P2, base, (1, 1, 1), 1, 0b1)  # r = 0
    with pytest.raises(InvariantError):
        Wall(P2, base, (0, 0, 1), 1, 0)    # f - 1 not nilpotent
    with pytest.raises(InvariantError):
        Wall(P2, base, (0, 0, 1), 0, 0b1)  # f = 1


def test_label_sets_are_refused_at_construction():
    # a mark set is an int mask; a set of labels fails when it is passed,
    # not later inside a crossing
    base = hpoint(0, 0)
    for labels in ((0,), [0, 1], frozenset([0]), {1}):
        with pytest.raises(TypeError):
            Wall(P2, base, (0, 0, 1), 1, labels)
        with pytest.raises(TypeError):
            ring_mono(3, 1, labels, (0, 0, 1))
        with pytest.raises(TypeError):
            RingElement(3, {((0, 0, 1), labels): 1})
    # an empty label set is an empty wall function, a negative mask no set
    with pytest.raises(InvariantError):
        Wall(P2, base, (0, 0, 1), 1, frozenset())
    for bad in (-1, True):
        with pytest.raises(TypeError):
            ring_mono(3, 1, bad, (0, 0, 1))


def test_repeated_wall_is_a_bug():
    base = hpoint(0, 0)
    wa = Wall(P2, base, (0, 0, 1), 1, 0b1)
    wb = Wall(P2, base, (0, 0, 2), 1, 0b10)
    # an equal but distinct wall object is a wall of its own
    twin = Wall(P2, base, (0, 0, 1), 1, 0b1)
    assert len(ScatteringDiagram(P2, [wa, wb, twin], [base]).germs()) == 1
    with pytest.raises(InvariantError, match="wall 2 repeats wall 0"):
        ScatteringDiagram(P2, [wa, wb, wa], [base])


def crossing(w, sign):
    n = rot90(w.dirvec)
    return _fold(w.fan, [(w, (sign * n[0], sign * n[1]))])


def test_wall_crossing_inverse_and_trivial():
    base = hpoint(0, 0)
    w = Wall(P2, base, (0, 0, 1), 2, 0b1)
    fwd = crossing(w, 1)
    bck = crossing(w, -1)
    assert ref_compose(fwd, bck).is_identity()
    n = rot90(w.dirvec)
    assert _fold(P2, [(w, n), (w, (-n[0], -n[1]))]).is_identity()
    assert not fwd.is_identity()
    # the normal (-1, 1) annihilates the ray (-1, -1): its generator is fixed
    assert fwd.images[2] == bck.images[2] == ring_mono(3, 1, 0, (0, 0, 1))


def test_cosupported_walls_commute():
    base = hpoint(0, 0)
    wa = Wall(P2, base, (0, 0, 1), 1, 0b1)
    wb = Wall(P2, base, (0, 0, 2), 1, 0b10)
    n = rot90(wa.dirvec)
    assert _fold(P2, [(wa, n), (wb, n)]) == _fold(P2, [(wb, n), (wa, n)])


def test_build_diagram_k1():
    cfg = sample_generic_points(1, 3)
    d = build_diagram(P2, cfg)
    assert len(d.walls) == 3
    for w in d.walls:
        assert w.base == cfg.points[0]
        m, mask, c = non_unit(w)
        assert mask == 0b1
        assert c == 1
        assert sum(m) == 1
    degs = sorted(non_unit(w)[0] for w in d.walls)
    assert degs == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert d.k() == 1


def test_build_diagram_k0_empty():
    d = build_diagram(P2, sample_generic_points(0, 1))
    assert d.walls == ()
    assert d.sing_points() == []


def test_consistency_small_k():
    for k, seed in ((1, 3), (2, 5), (3, 7)):
        cfg = sample_generic_points(k, seed)
        d = build_diagram(P2, cfg)
        rep = check_consistency(d)
        assert rep.ok
        assert rep.failures() == []
        marked = [row for row in rep.rows if row[1]]
        assert len(marked) >= k


def test_negative_control_flags_missing_wall():
    cfg = sample_generic_points(2, 5)
    d = build_diagram(P2, cfg)
    kept = [w for w in d.walls if non_unit(w)[1].bit_count() < 2]
    assert len(kept) < len(d.walls)
    broken = ScatteringDiagram(P2, kept, cfg.points)
    rep = check_consistency(broken)
    assert not rep.ok
    assert len(rep.failures()) >= 1


def test_marked_point_loop_is_recorded_not_identity():
    cfg = sample_generic_points(1, 3)
    d = build_diagram(P2, cfg)
    rep = check_consistency(d)
    assert len(rep.rows) == 1
    point, marked, is_id, aut = rep.rows[0]
    assert marked and not is_id
    assert rep.ok


def test_path_crossings_and_inverse():
    cfg = sample_generic_points(2, 5)
    d = build_diagram(P2, cfg)
    A = hpoint(-40, Fraction(3, 7))
    B = hpoint(40, Fraction(5, 11))
    hits = path_crossings(d, [A, B])
    assert hits
    fwd = path_automorphism(d, [A, B])
    bck = path_automorphism(d, [B, A])
    assert ref_compose(fwd, bck).is_identity()
    assert not fwd.is_identity()


def test_path_homotopy_invariance():
    cfg = sample_generic_points(2, 5)
    d = build_diagram(P2, cfg)
    A = (Fraction(-40), Fraction(3, 7))
    B = (Fraction(40), Fraction(5, 11))
    # a via point just off the chord keeps the homotopy class
    t = (Fraction(1, 3) - A[0]) / (B[0] - A[0])
    ychord = A[1] + t * (B[1] - A[1])
    near = (Fraction(1, 3), ychord + Fraction(1, 100003))
    direct = path_automorphism(d, triples(A, B))
    assert path_automorphism(d, triples(A, near, B)) == direct
    # routing far around encloses marked points and changes the class
    far = (Fraction(1, 3), Fraction(29))
    assert path_automorphism(d, triples(A, far, B)) != direct


def test_trivial_and_degenerate_paths():
    cfg = sample_generic_points(1, 3)
    d = build_diagram(P2, cfg)
    A = hpoint(-9, Fraction(1, 3))
    assert path_automorphism(d, [A, A]).is_identity()
    with pytest.raises(InvariantError):
        path_automorphism(d, [A])
    p1 = hfrac(cfg.points[0])
    on_wall = hpoint(p1[0] - 2, p1[1])  # west ray from the marked point
    with pytest.raises(GenericityError) as err:
        path_automorphism(d, [on_wall, A])
    assert "non-transverse" in str(err.value)
    through_base = triples((p1[0] - 1, p1[1] - 1), (p1[0] + 1, p1[1] + 1))
    with pytest.raises(GenericityError):
        path_automorphism(d, through_base)


def test_path_along_or_onto_a_wall_rejected():
    # both need a vertex on the support, so the vertex check rejects both
    cfg = sample_generic_points(1, 3)
    d = build_diagram(P2, cfg)
    x, y = hfrac(cfg.points[0])
    # from off the walls, through the base and along the west ray
    along = triples((x + 1, y), (x - 3, y))
    # ends on the south ray
    onto = triples((x - 9, y + Fraction(1, 3)), (x, y - 2))
    for path in (along, onto):
        with pytest.raises(GenericityError) as err:
            path_crossings(d, path)
        assert str(err.value) == "non-transverse path: vertex on the support"


def test_path_through_singular_point_rejected():
    cfg = sample_generic_points(2, 5)
    d = build_diagram(P2, cfg)
    glue = [w for w in d.walls if non_unit(w)[1] == 0b11]
    assert glue
    sx, sy = hfrac(glue[0].base)
    path = triples((sx - 1, sy - Fraction(1, 173)),
                   (sx + 1, sy + Fraction(1, 173)))
    with pytest.raises(GenericityError) as err:
        path_automorphism(d, path)
    assert str(err.value).startswith("non-transverse path")


def test_loop_automorphism_identity_off_marks():
    cfg = sample_generic_points(2, 5)
    d = build_diagram(P2, cfg)
    marked = set(cfg.points)
    checked = 0
    for P in d.sing_points():
        if P in marked:
            continue
        assert loop_automorphism(d, P).is_identity()
        checked += 1
    assert checked >= 1


def test_scattered_walls_carry_joint_u_sets():
    cfg = sample_generic_points(2, 5)
    d = build_diagram(P2, cfg)
    joint = [w for w in d.walls if non_unit(w)[1] == 0b11]
    assert joint
    marked = set(cfg.points)
    for w in joint:
        m, _, c = non_unit(w)
        assert sum(m) >= 2
        assert c >= 1
    # at least one joint wall comes from a glue event off the marks
    assert any(w.base not in marked for w in joint)


def test_consistency_report_shape():
    cfg = sample_generic_points(2, 5)
    d = build_diagram(P2, cfg)
    rep = check_consistency(d)
    pts = [row[0] for row in rep.rows]
    assert pts == sorted(pts, key=hfrac)
    assert len(set(pts)) == len(pts)
    for point, marked, is_id, aut in rep.rows:
        assert isinstance(marked, bool)
        assert aut.is_identity() == is_id


def test_potential_wall_scans_stay_on_the_kernel(monkeypatch, capsys):
    """Crossing-kernel work of one `potential --k 4` on P2, seed 1.

    The diagram files its walls by direction in offset-sorted indexes and
    asks lattice.ray_hits which walls a broken-line leg, a path or a wall
    meets, so neither `crossings` nor `germs` calls ray_params.  On seed 1
    that is 3,580 ray_hits calls returning 1,376 walls; the scans of every
    wall, and of every wall pair, that they replaced made 13,365 ray_params
    calls.  `germs` asks from each wall only the directions above its own,
    so it finds each crossing once: finding it from both walls made 4,122
    calls returning 1,594 walls.  Every lattice binding in scattering is
    counted, and lattice.ray_params itself, so a return to ray_params or
    ray_intersect shows here.
    """
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            out = fn(*args)
            calls[name] += 1
            if name == "ray_hits":
                calls["walls"] += len(out)
            return out
        return wrapper

    for name, fn in vars(lattice).items():
        if callable(fn) and not isinstance(fn, type):
            if getattr(scattering, name, None) is fn:
                monkeypatch.setattr(scattering, name, counted(name, fn))
    monkeypatch.setattr(lattice, "ray_params",
                        counted("ray_params", lattice.ray_params))
    assert cli.main(["potential", "--k", "4", "--seed", "1"]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["walls"]) == 66
    assert calls["ray_params"] == 0
    assert calls["ray_hits"] == 3580
    assert calls["walls"] == 1376


# GL2(Z) acts on the plane, the fan's rays, the points and the endpoint;
# the diagram and the potential built from the images are the images.
# The shear and the quarter turn keep the orientation, the swap reverses it.
GL2Z = {"shear": ((1, 1), (0, 1)), "swap": ((0, 1), (1, 0)),
        "quarter": ((0, -1), (1, 0))}


def act(A, v):
    """A times an integer vector, or times a homogeneous point's (X, Y)."""
    return (A[0][0] * v[0] + A[0][1] * v[1],
            A[1][0] * v[0] + A[1][1] * v[1]) + tuple(v[2:])


@pytest.mark.parametrize("name", sorted(GL2Z))
def test_diagram_and_potential_are_gl2z_equivariant(name):
    A = GL2Z[name]
    for fan in (P2, builtin_fan("p1xp1")):
        fan2 = make_fan([act(A, r) for r in fan.rays])
        # slot i of an exponent over fan moves to the slot of A * ray i
        slot = [fan2.rays.index(act(A, r)) for r in fan.rays]

        def move(m):
            out = [0] * len(m)
            for i, e in enumerate(m):
                out[slot[i]] = e
            return tuple(out)

        for seed in (1, 2):
            cfg, d = resample(3, seed, lambda c: build_diagram(fan, c))
            cfg2 = PointConfig([act(A, P) for P in cfg.points], cfg.seed,
                               cfg.attempt, cfg.certificate)
            d2 = build_diagram(fan2, cfg2)
            assert sorted((act(A, w.base), act(A, w.dirvec), move(w.m0),
                           w.c, w.marks) for w in d.walls) == \
                sorted((w.base, w.dirvec, w.m0, w.c, w.marks)
                       for w in d2.walls)
            assert check_consistency(d2).ok
            Q = sample_endpoint(100 + seed)
            W = potential(d, fan, Q)
            W2 = potential(d2, fan2, act(A, Q))
            assert W2.value == RingElement(
                fan.nrays(), {(move(m), mask): c
                              for (m, mask), c in W.value.terms.items()},
                y0=W.value.y0)
