"""Acceptance gate: one test per shipping criterion.

Each test ends with a single ``criterion N PASS`` line carrying the
measured numbers, so ``pytest -v -s tests/test_acceptance.py`` reads as
a checklist.  The expensive curve counts are shared through module
fixtures; the whole file stays around a minute of wall clock.
"""

import math
import random
import time

import pytest

from reference import det
from tropenum.broken import (enumerate_broken_lines, potential,
                             sample_endpoint, transport,
                             verify_disk_correspondence)
from tropenum.correspondence import (build_decomposition, build_phi,
                                     fan_over, index_d, log_count_w,
                                     properties_report, rescale_lattice,
                                     verify_correspondence)
from tropenum.enumeration import run_count, sample_generic_points
from tropenum.fan import builtin_fan, make_degree
from tropenum.gw import kontsevich_number
from tropenum.lattice import smith_normal_form
from tropenum.scattering import (RingElement, ScatteringDiagram,
                                 build_diagram, check_consistency,
                                 format_element, path_crossings, ring_mono)
from tropenum.tropcurve import GenericityError, check_balancing

P2 = builtin_fan("p2")
DP6 = builtin_fan("dp6")
NAMES = ["x0", "x1", "x2"]
COUNT_SEEDS = (2, 3, 5, 7, 11)
# seeds 9 and 16 land on the second multiplicity pattern
DP6_SEEDS = (2, 3, 5, 9, 16)


def ok(n, text):
    print("criterion %d PASS: %s" % (n, text))


@pytest.fixture(scope="module")
def cubic_runs():
    deg = make_degree(P2, (3, 3, 3))
    out = {}
    for seed in COUNT_SEEDS:
        t0 = time.monotonic()
        out[seed] = (run_count(P2, deg, seed), time.monotonic() - t0)
    return out


@pytest.fixture(scope="module")
def dp6_runs():
    deg = make_degree(DP6, (1,) * 6)
    out = {}
    for seed in DP6_SEEDS:
        t0 = time.monotonic()
        out[seed] = (run_count(DP6, deg, seed), time.monotonic() - t0)
    return out


@pytest.fixture(scope="module")
def small_runs():
    return {1: run_count(P2, make_degree(P2, (1, 1, 1)), 2),
            2: run_count(P2, make_degree(P2, (2, 2, 2)), 4)}


def test_criterion_1_twelve_cubics(cubic_runs):
    for seed, (rep, dt) in cubic_runs.items():
        assert rep.n_trop == 12, "seed %d" % seed
        assert dt < 600.0
    times = ", ".join("%.1fs" % dt for _, dt in cubic_runs.values())
    ok(1, "n_trop(P2, d=3) = 12 on %d seeds %s (%s)"
       % (len(cubic_runs), sorted(cubic_runs), times))


def test_criterion_2_low_degrees_against_recursion(small_runs):
    t0 = time.monotonic()
    oracle = [kontsevich_number(d) for d in (1, 2, 3, 4, 5)]
    dt = time.monotonic() - t0
    assert oracle == [1, 1, 12, 620, 87304]
    assert dt < 1.0
    assert small_runs[1].n_trop == oracle[0] == 1
    assert small_runs[2].n_trop == oracle[1] == 1
    ok(2, "n_trop(d=1)=1, n_trop(d=2)=1 match the degeneration "
          "recursion (N_1..N_5 = %s in %.3fs)" % (oracle, dt))


def test_criterion_3_dp6_counts(dp6_runs):
    allowed = {tuple([1] * 8 + [4]), tuple([1] * 9 + [3])}
    seen = set()
    for seed, (rep, dt) in dp6_runs.items():
        assert rep.n_trop == 12, "seed %d" % seed
        assert rep.w_trop == 8, "seed %d" % seed
        assert dt < 60.0
        mults = tuple(sorted(rep.mults))
        assert set(mults) <= {1, 3, 4}
        assert mults in allowed
        seen.add(mults)
    assert seen == allowed
    ok(3, "n_trop(dP6, -K) = 12 and w_trop = 8 on %d seeds; "
          "both multiplicity multisets appear: %s"
       % (len(dp6_runs), sorted(seen)))


def test_criterion_4_index_times_logcount(cubic_runs, dp6_runs, small_runs):
    curves = []
    for rep, _ in cubic_runs.values():
        curves.extend(rep.curves)
    for rep, _ in dp6_runs.values():
        curves.extend(rep.curves)
    for rep in small_runs.values():
        curves.extend(rep.curves)
    for c in curves:
        assert verify_correspondence(c)
    ok(4, "index * log count = multiplicity on all %d enumerated "
          "solutions" % len(curves))


def _drop_scattered(diagram):
    kept = []
    for w in diagram.walls:
        items = [(m, i) for (m, i), c in w.f.terms.items() if any(m)]
        if all(len(i) < 2 for _, i in items):
            kept.append(w)
    assert len(kept) < len(diagram.walls)
    return ScatteringDiagram(diagram.fan, kept, diagram.marked)


def test_criterion_5_consistency(dp6_runs):
    checked = {1: 0, 2: 0, 3: 0}
    loops = 0
    for k in (1, 2, 3):
        for seed in range(1, 40):
            if checked[k] == 10:
                break
            try:
                cfg = sample_generic_points(k, seed)
                d = build_diagram(P2, cfg)
            except GenericityError:
                continue
            rep = check_consistency(d)
            assert rep.ok, "k=%d seed %d: %r" % (k, seed, rep.failures())
            assert rep.failures() == []
            loops += sum(1 for row in rep.rows if not row[1])
            checked[k] += 1
        assert checked[k] == 10
    broken = _drop_scattered(build_diagram(P2, sample_generic_points(2, 5)))
    rep = check_consistency(broken)
    assert not rep.ok and len(rep.failures()) >= 1
    ok(5, "all loop automorphisms are the identity on 10 configs for "
          "each k in 1..3 (%d non-marked singular points); removing a "
          "scattered wall is flagged" % loops)


def test_criterion_6_disks_equal_broken_lines():
    grid = ((1, (3, 5, 7, 11), (201, 202)),
            (2, (3, 5, 11), (301, 302)),
            (3, (3, 5, 11), (401, 402)))
    pairs = 0
    for k, seeds, qseeds in grid:
        for seed in seeds:
            cfg = sample_generic_points(k, seed)
            for qs in qseeds:
                for attempt in range(12):
                    Q = sample_endpoint(qs, attempt=attempt)
                    try:
                        same = verify_disk_correspondence(P2, cfg, Q)
                    except GenericityError:
                        continue
                    assert same, (k, seed, qs)
                    pairs += 1
                    break
                else:
                    pytest.fail("no generic endpoint for %r" % ((k, seed,
                                                                 qs),))
    assert pairs >= 20

    # the two displayed chambers: one endpoint on each side of the
    # scattered wall of a two-point diagram
    cfg = sample_generic_points(2, 5)
    d = build_diagram(P2, cfg)
    five = enumerate_broken_lines(d, P2, sample_endpoint(302))
    assert sorted(format_element(bl.final_element(), NAMES)
                  for bl in five) == \
        ["u1*x0*x2", "u2*x1*x2", "x0", "x1", "x2"]
    six = enumerate_broken_lines(d, P2, sample_endpoint(301))
    assert len(six) == 6
    assert sorted(tuple(sorted(bl.final()[1])) for bl in six) == \
        [(), (), (), (0,), (0, 1), (1,)]
    ok(6, "broken-line and disk monomial multisets agree on %d "
          "(config, endpoint) pairs; 5-term and 6-term chambers "
          "realized" % pairs)


def test_criterion_7_potential_invariants():
    base = ring_mono(3, 1, (), (1, 0, 0)).add(
        ring_mono(3, 1, (), (0, 1, 0))).add(
        ring_mono(3, 1, (), (0, 0, 1)))
    moved = 0
    potentials = 0
    for k, seeds in ((1, (3, 5, 11)), (2, (3, 5, 11)), (3, (3, 5))):
        for seed in seeds:
            if moved >= 30:
                break
            cfg = sample_generic_points(k, seed)
            d = build_diagram(P2, cfg)
            located = []
            for qs in range(400, 424):
                try:
                    Q = sample_endpoint(qs)
                    W = potential(d, P2, Q)
                except GenericityError:
                    continue
                assert W.mod_u().y0 == 1
                assert sorted(W.mod_u().terms) == sorted(base.terms)
                potentials += 1
                located.append((Q, W))
            for i in range(len(located)):
                for j in range(i + 1, len(located)):
                    Qa, Wa = located[i]
                    Qb, Wb = located[j]
                    try:
                        cross = path_crossings(d, [Qa, Qb])
                    except GenericityError:
                        continue
                    if len(cross) != 1:
                        continue
                    assert transport(d, Wa, [Qa, Qb]).value == Wb.value
                    assert transport(d, Wb, [Qb, Qa]).value == Wa.value
                    moved += 1
    assert moved >= 20
    ok(7, "W = y0+x0+x1+x2 mod (u) on %d potentials; single-wall "
          "transport matches recomputation on %d adjacent-chamber "
          "pairs, both directions" % (potentials, moved))


def test_criterion_8_degeneration(dp6_runs):
    rep, _ = dp6_runs[3]
    pd = build_decomposition(rep.curves, DP6, rep.config.points)
    props = properties_report(pd, rep.curves, DP6)
    assert all(props.values()), props
    expected = (1 + len(DP6.rays) + len(DP6.cones2d)
                + len(pd.vertices) + len(pd.edges) + len(pd.faces))
    # fan_over itself re-slices every cone at height one and checks the
    # recession cones exhaust the surface fan, so a clean return is the
    # round trip
    f3 = fan_over(pd, DP6)
    assert len(f3.cones) == expected
    scaled, _ = rescale_lattice(pd)
    f3s = fan_over(scaled, DP6)
    assert len(f3s.cones) == expected
    ok(8, "dP6 decomposition (%d vertices, %d edges, %d faces) passes "
          "all five cell properties; fan over it slices back to the "
          "decomposition at height 1 and to the fan at height 0"
       % (len(pd.vertices), len(pd.edges), len(pd.faces)))


def test_criterion_9_property_suites(cubic_runs, dp6_runs, small_runs):
    reps = [rep for rep, _ in cubic_runs.values()]
    reps += [rep for rep, _ in dp6_runs.values()]
    reps += list(small_runs.values())
    ncurves = 0
    for rep in reps:
        for c in rep.curves:
            assert check_balancing(c) == []
            ncurves += 1
    assert {rep.n_trop for rep, _ in cubic_runs.values()} == {12}
    assert {rep.n_trop for rep, _ in dp6_runs.values()} == {12}
    assert {rep.w_trop for rep, _ in dp6_runs.values()} == {8}

    square = 0
    for rep, _ in cubic_runs.values():
        for c in rep.curves:
            sysm = build_phi(c)
            r, cols = sysm.shape()
            if r != cols:
                continue
            factors = smith_normal_form(sysm.rows)
            assert math.prod(factors) == abs(det(sysm.rows)) == index_d(sysm)
            square += 1
    assert square > 0
    rng = random.Random(20260817)
    for _ in range(60):
        n = rng.randrange(1, 5)
        A = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        d = det(A)
        factors = smith_normal_form(A)
        if len(factors) < n:
            assert d == 0
        else:
            assert math.prod(factors) == abs(d)

    for i in range(3):
        u = ring_mono(3, 1, (i,), (1, 0, 0))
        assert u.mul(u) == RingElement(3)
    joint = ring_mono(3, 1, (0, 1), (1, 1, 0))
    assert joint.mul(ring_mono(3, 1, (1,), (0, 0, 1))) == RingElement(3)
    ok(9, "balancing on %d curves, seed-invariant counts, Smith form "
          "against determinants (%d solution systems + 60 random "
          "matrices), nilpotent generator laws" % (ncurves, square))
