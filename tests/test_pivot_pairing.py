"""The count's pivot pairing against the full pairing it replaced.

full_pairing is the reference: it builds every forest level with every
pass disk, traces the pivot disks of every degree 0 < |m| < |Delta| over
all the other marks, and pairs the groups of complementary marks and
degrees.  enumerate_rational_curves traces only what can pair: on the
last two levels the trees that something downstream can use (on the last
level the glue trees and pass disks whose walls a pivot ray meets, on the
level below the pass disks that a pivot disk, a last-level pass disk or a
last-level gluing can use), the pivot disks with at most half of the
other marks, and each complement degree over the complement marks of a
group found.  That work is a subset of the reference's, so on every
configuration:

* when the count faults, the reference faults too;
* when both succeed, they give the same multiplicities, Welschinger
  multiplicities and geometric signatures, and the count's combinatorial
  types equal the all-roots reference's;
* when only the count succeeds (the reference met a fault in work the
  count skips), its n_trop is the invariant.
"""

import collections

import pytest

from reference import ref_canonical_type_all_roots
from test_forest_index import _grid_config
from tropenum.enumeration import (Forest, PointConfig, _assemble_pair,
                                  enumerate_rational_curves, precheck_config,
                                  run_count, sample_generic_points)
from tropenum.fan import builtin_fan, make_degree
from tropenum.gw import kontsevich_number
from tropenum.tropcurve import (GenericityError, InvariantError,
                                canonical_type, geometric_signature,
                                mikhalkin_multiplicity, validate_curve,
                                welschinger_multiplicity)

P2 = builtin_fan("p2")
P1P1 = builtin_fan("p1xp1")
DP6 = builtin_fan("dp6")

# The invariants: Kontsevich's N_d for P2 and, as the other tests take
# them, the Gromov-Witten invariants of P1xP1 and dP6.  Every curve of
# bidegree (a, 1) in P1xP1 is rational, and one passes through 2a + 1
# general points.
ORACLE = {("p2", (2, 2, 2)): kontsevich_number(2),
          ("p2", (3, 3, 3)): kontsevich_number(3),
          ("p1xp1", (1, 1, 1, 1)): 1, ("p1xp1", (2, 1, 2, 1)): 1,
          ("p1xp1", (2, 2, 2, 2)): 12, ("dp6", (1,) * 6): 12}


def full_pairing(fan, deg, config):
    """(mults, wmults, signatures) of every pivot pair, in the count's
    order, from the full forest and every pivot disk."""
    deg = make_degree(fan, deg)
    k = len(config)
    precheck_config(fan, deg, config)
    pivot, others = k - 1, (1 << (k - 1)) - 1
    P = config.points[pivot]
    forest = Forest(fan, config, allowed_mask=others, degree_cap=deg)
    forest.build(max(1, k - 1))
    groups = {}
    for d in sorted(forest.disks(P, others, forest.degrees(1, k)),
                    key=lambda d: d.key):
        groups.setdefault((d.marks, d.deg), []).append(d)
    curves = []
    for (mask1, m1), bunch in sorted(groups.items()):
        key2 = (others & ~mask1, tuple(a - b for a, b in zip(deg, m1)))
        if (mask1, m1) < key2:
            for d1 in bunch:
                for d2 in groups.get(key2, ()):
                    curve = _assemble_pair(d1, d2, pivot, P, fan)
                    validate_curve(curve, fan,
                                   points=dict(enumerate(config.points)))
                    curves.append(curve)
    sigs = [geometric_signature(c) for c in curves]
    if len(set(sigs)) != len(sigs):
        raise InvariantError("duplicate solution from two pivot pairings")
    types = [canonical_type(c) for c in curves]
    if len(set(types)) != len(types):
        raise GenericityError("two solutions share a combinatorial type")
    order = sorted(range(len(curves)), key=lambda i: (types[i], sigs[i]))
    return ([mikhalkin_multiplicity(curves[i]) for i in order],
            [welschinger_multiplicity(curves[i]) for i in order],
            [sigs[i] for i in order])


def _outcome(fan, deg, config, oracle):
    """How the count and the reference compare on one configuration."""
    try:
        rep = enumerate_rational_curves(fan, deg, config)
    except GenericityError:
        with pytest.raises(GenericityError):
            full_pairing(fan, deg, config)
        return "both faulted"
    assert ([canonical_type(c) for c in rep.curves]
            == [ref_canonical_type_all_roots(c) for c in rep.curves])
    got = (rep.mults, rep.wmults,
           [geometric_signature(c) for c in rep.curves])
    try:
        want = full_pairing(fan, deg, config)
    except GenericityError:
        assert rep.n_trop == oracle
        return "reference faulted"
    assert got == want
    return "equal"


FANS = {"p2": P2, "p1xp1": P1P1, "dp6": DP6}
GENERIC = [("p2", (2, 2, 2), range(1, 9)), ("p2", (3, 3, 3), range(1, 4)),
           ("p1xp1", (2, 2, 2, 2), (1, 2, 3, 77)),
           ("dp6", (1,) * 6, range(1, 7))]


@pytest.mark.parametrize("name,deg,seeds", GENERIC,
                         ids=["%s-%d" % (g[0], g[1][0]) for g in GENERIC])
def test_generic_seeds_match_full_pairing(name, deg, seeds):
    for seed in seeds:
        config = sample_generic_points(sum(deg) - 1, seed)
        assert _outcome(FANS[name], deg, config, ORACLE[name, deg]) == "equal"


def test_grid_configs_match_full_pairing():
    # grid points meet non-generic incidences of every kind, so most
    # configurations fault in both; the tally shows what was compared
    tally = collections.Counter()
    for name, deg in (("p1xp1", (1, 1, 1, 1)), ("p1xp1", (2, 1, 2, 1)),
                      ("p2", (2, 2, 2)), ("dp6", (1,) * 6)):
        for seed in range(1000):
            config = _grid_config(sum(deg) - 1, seed)
            tally[_outcome(FANS[name], deg, config, ORACLE[name, deg])] += 1
    assert tally["equal"] >= 400
    assert tally["reference faulted"] >= 10


def _marked_images(rep, labels):
    """The solutions' marked images, mark i relabelled labels[i]."""
    out = set()
    for c in rep.curves:
        bed, ued, mks, _ = geometric_signature(c)
        out.add((bed, ued, tuple(sorted((labels[i], p) for i, p in mks))))
    return out


def _pivot_free(name, deg, seed):
    """Count run_count's configuration for `seed` once with each point in
    turn last, so that each is the pivot: every order must give the same
    marked images, marks mapped back, and the same N and W."""
    fan = FANS[name]
    rep = run_count(fan, deg, seed)
    config, k = rep.config, len(rep.config)
    want = _marked_images(rep, range(k))
    for pivot in range(k):
        order = [i for i in range(k) if i != pivot] + [pivot]
        moved = PointConfig([config.points[i] for i in order], config.seed,
                            config.attempt, config.certificate)
        got = enumerate_rational_curves(fan, deg, moved)
        assert (got.n_trop, got.w_trop) == (rep.n_trop, rep.w_trop)
        assert _marked_images(got, order) == want


PIVOT_FREE = [("p2", (3, 3, 3)), ("p1xp1", (2, 2, 2, 2)), ("dp6", (1,) * 6)]


@pytest.mark.parametrize("name,deg", PIVOT_FREE,
                         ids=[name for name, _ in PIVOT_FREE])
def test_count_does_not_depend_on_the_pivot(name, deg):
    _pivot_free(name, deg, 1)


@pytest.mark.slow
@pytest.mark.parametrize("name,deg", PIVOT_FREE,
                         ids=[name for name, _ in PIVOT_FREE])
def test_count_does_not_depend_on_the_pivot_sweep(name, deg):
    for seed in range(1, 9):
        _pivot_free(name, deg, seed)
