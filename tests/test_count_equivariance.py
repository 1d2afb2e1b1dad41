"""Counts and Phi do not depend on the lattice coordinates.

A unimodular A maps the fan's rays, the degree (re-indexed to the image
fan's sorted rays) and the marked points.  Counting the images must give
the images of the count: the same N and W, the solutions' marked images
mapped by A, and the same multiset of (index_d, log_count_w).  The shear
and the quarter turn keep the orientation; the swap has det -1 and turns
every counterclockwise order clockwise.
"""

import collections

import pytest

from test_scattering import GL2Z, act
from tropenum.correspondence import build_phi, index_d, log_count_w
from tropenum.enumeration import (PointConfig, enumerate_rational_curves,
                                  run_count)
from tropenum.fan import builtin_fan, make_fan
from tropenum.tropcurve import geometric_signature

ONE = ((1, 0), (0, 1))
CASES = [("p2", (3, 3, 3)), ("p1xp1", (2, 2, 2, 2)), ("dp6", (1,) * 6)]
PARAMS = [(name, deg, A) for name, deg in CASES for A in sorted(GL2Z)]
IDS = ["%s-%s" % (name, A) for name, _, A in PARAMS]


def _images(rep, A):
    """The solutions' marked images, each mapped by A."""
    out = set()
    for c in rep.curves:
        bed, ued, mks, _ = geometric_signature(c)
        out.add((tuple(sorted(tuple(sorted((act(A, a), act(A, b)))) + (w,)
                              for a, b, w in bed)),
                 tuple(sorted((act(A, v), act(A, d), w) for v, d, w in ued)),
                 tuple(sorted((label, act(A, P)) for label, P in mks))))
    return out


def _phi(rep):
    return collections.Counter((index_d(build_phi(c)), log_count_w(c))
                               for c in rep.curves)


def _equivariant(name, deg, A, seed):
    fan = builtin_fan(name)
    rep = run_count(fan, deg, seed)
    fan2 = make_fan([act(A, r) for r in fan.rays])
    deg2 = [0] * len(deg)
    for i, r in enumerate(fan.rays):
        deg2[fan2.rays.index(act(A, r))] = rep.deg[i]
    cfg = rep.config
    moved = PointConfig([act(A, P) for P in cfg.points], cfg.seed,
                        cfg.attempt, cfg.certificate)
    got = enumerate_rational_curves(fan2, tuple(deg2), moved)
    assert (got.n_trop, got.w_trop) == (rep.n_trop, rep.w_trop)
    assert _images(got, ONE) == _images(rep, A)
    assert _phi(got) == _phi(rep)


@pytest.mark.parametrize("name,deg,A", PARAMS, ids=IDS)
def test_count_and_phi_are_gl2z_equivariant(name, deg, A):
    _equivariant(name, deg, GL2Z[A], 1)


@pytest.mark.slow
@pytest.mark.parametrize("name,deg,A", PARAMS, ids=IDS)
def test_count_and_phi_are_gl2z_equivariant_sweep(name, deg, A):
    for seed in range(1, 7):
        _equivariant(name, deg, GL2Z[A], seed)
