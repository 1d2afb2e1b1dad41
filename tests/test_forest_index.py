"""The degree-indexed stem tracer of Forest against a linear scan.

ScanForest is the reference: it files trees in one list, recomputes
r_vector every time, and at each stem step scans every tree in order,
exactly as the tracer did before the degree index.  It also keeps the
candidate degree rule Forest.disks had before its bound was derived: the
box capped at min(top, 9) when the forest is uncapped, and the explicit
pivot degree list of enumerate_rational_curves.  Both forests run on the
same configurations; per attempt they must build the same trees, trace the
same disks, and raise the same GenericityError at the same place.
"""

import random
from fractions import Fraction

import pytest

from tropenum.broken import sample_endpoint
from tropenum.enumeration import (Forest, PointConfig, _boxed_exponents,
                                  sample_generic_points)
from tropenum.fan import builtin_fan, make_degree, r_vector
from tropenum.lattice import hdiff, hpoint, on_ray, ray_intersect, wedge
from tropenum.tropcurve import GenericityError

P2 = builtin_fan("p2")
P1P1 = builtin_fan("p1xp1")
DP6 = builtin_fan("dp6")


class ScanForest(Forest):
    """Forest with the linear-scan tracer and no index or caches."""

    def _add(self, t, level):
        self.levels[level].append(t)
        self.trees.append(t)

    def _rvec(self, m):
        return r_vector(self.fan, m)

    def disks(self, boundary, allowed_mask, total=None):
        if self.cap is None:
            top = (total if total is not None
                   else bin(allowed_mask).count("1") + 1)
            box = (min(top, 9),) * len(self.rays)
            mfins = [m for m in _boxed_exponents(box)
                     if sum(m) and (total is None or sum(m) == total)]
        elif total is not None:
            mfins = [m for m in _boxed_exponents(self.cap) if sum(m) == total]
        else:
            # only the pivot disks of a capped forest come without a total:
            # 0 < |m| < |Delta|, the cap being Delta
            mfins = [m for m in _boxed_exponents(self.cap)
                     if 0 < sum(m) < sum(self.cap)]
        out = []
        for m in sorted(mfins):
            if r_vector(self.fan, m) != (0, 0):
                self._trace(boundary, boundary, m, allowed_mask, [], out)
        return out

    def _trace(self, X0, X, m, rmask, steps, out):
        if sum(m) == 1:
            self._emit(X0, m, steps, out)
            return
        r = r_vector(self.fan, m)
        hits = []
        for t in self.trees:
            if t.marks & ~rmask:
                continue
            left = tuple(a - b for a, b in zip(m, t.deg))
            if any(x < 0 for x in left) or not sum(left):
                continue
            if r_vector(self.fan, left) == (0, 0):
                continue
            hit = ray_intersect(X, r, t.base, t.out)
            if hit is None:
                if wedge(r, hdiff(X, t.base)) == 0:
                    if on_ray(t.base, X, r) or on_ray(X, t.base, t.out):
                        raise GenericityError("stem runs along a tree wall")
                continue
            s, tt, den, V = hit
            if s < 0 or tt < 0:
                continue
            if s == 0:
                prev = steps[-1][1] if steps else None
                if prev is not None and wedge(prev.out, t.out) == 0:
                    continue
                raise GenericityError("stem vertex lies on a tree wall")
            if tt == 0:
                raise GenericityError("stem hits a tree wall at its root")
            hits.append((V, t, left))
        by_point = {}
        for V, t, left in hits:
            by_point.setdefault(V, []).append(t)
        for ts in by_point.values():
            for a in range(len(ts)):
                for b in range(a + 1, len(ts)):
                    if wedge(ts[a].out, ts[b].out) != 0:
                        raise GenericityError("two transversal walls cross "
                                              "the stem at one point")
        for V, t, left in hits:
            steps.append((V, t, m))
            self._trace(X0, V, left, rmask & ~t.marks, steps, out)
            steps.pop()


def _run(cls, fan, config, allowed, cap, level, boundary, mask):
    """Build the forest, then trace the disks at `boundary`.  Returns the
    tree keys, the disk keys and the GenericityError raised, if any."""
    forest = cls(fan, config, allowed_mask=allowed, degree_cap=cap)
    disks = []
    error = None
    try:
        forest.build(level)
        disks = forest.disks(boundary, mask)
    except GenericityError as e:
        error = str(e)
    return [t.key for t in forest.trees], [d.key for d in disks], error


def _pivot_case(fan, deg, config):
    """The forest and pivot disks of enumerate_rational_curves."""
    k = len(config)
    others = (1 << (k - 1)) - 1
    return (fan, config, others, deg, max(1, k - 1), config.points[k - 1],
            others)


def _free_case(fan, config, Q):
    """The uncapped forest and the disks of enumerate_maslov2_disks."""
    k = len(config)
    return (fan, config, None, None, k, Q, (1 << k) - 1)


def _grid_config(k, seed):
    """k points on the lattice (1/den)Z^2 near the origin: aligned with
    curve directions often enough that the forest and the tracer hit
    genericity failures of every kind."""
    rng = random.Random(seed)
    den = (1, 2, 5)[seed % 3]
    pts = []
    while len(pts) < k:
        p = hpoint(Fraction(rng.randint(-3 * den, 3 * den), den),
                   Fraction(rng.randint(-3 * den, 3 * den), den))
        if p not in pts:
            pts.append(p)
    return PointConfig(pts, seed, 0, {})


def _cases():
    for seed in (1, 2):
        deg = make_degree(P2, (3, 3, 3))
        yield "p2-cubic", _pivot_case(P2, deg, sample_generic_points(8, seed))
    for seed, attempt in ((1, 0), (1, 1), (2, 0)):
        deg = make_degree(P1P1, (2, 2, 2, 2))
        cfg = sample_generic_points(7, seed, attempt=attempt)
        yield "p1xp1-22", _pivot_case(P1P1, deg, cfg)
    for seed in (1, 2, 3, 4):
        deg = make_degree(DP6, (1,) * 6)
        yield "dp6-anti", _pivot_case(DP6, deg, sample_generic_points(5, seed))
        cfg = sample_generic_points(4, seed)
        Q = sample_endpoint(seed + 1)
        yield "k4-uncapped", _free_case(P2, cfg, Q)
        cfg = sample_generic_points(3, seed)
        yield "maslov2-disks", _free_case(P2, cfg, Q)
    for seed in range(9):
        yield "grid-k4", _free_case(P2, _grid_config(4, seed),
                                    hpoint(Fraction(1, 2), Fraction(1, 3)))
        deg = make_degree(P2, (2, 2, 2))
        yield "grid-conic", _pivot_case(P2, deg, _grid_config(5, 100 + seed))


CASES = list(_cases())


@pytest.mark.parametrize("name,case", CASES,
                         ids=["%s-%d" % (n, i) for i, (n, _) in
                              enumerate(CASES)])
def test_index_matches_linear_scan(name, case):
    got = _run(Forest, *case)
    want = _run(ScanForest, *case)
    assert got == want
    assert got[0]


def test_cases_cover_both_outcomes():
    errors = {_run(Forest, *case)[2] for name, case in CASES
              if not name.startswith(("p2-cubic", "p1xp1"))}
    assert None in errors
    assert len(errors) >= 5
    assert any(e.startswith(("stem", "two transversal"))
               for e in errors if e is not None)


def test_new_degree_drops_cached_candidates():
    # Forest.build never adds a tree whose degree could deflect a stem
    # already traced, so drive the forest by hand: trace the degree-3
    # disks over the leaves alone, add the level-2 trees (new degrees),
    # then trace again.
    cfg = sample_generic_points(3, 3)
    Q = sample_endpoint(11)
    runs = []
    for cls in (Forest, ScanForest):
        forest = cls(P2, cfg)
        forest.build(1)
        before = forest.disks(Q, forest.allowed, total=3)
        forest.levels[2] = []
        for ta in forest.levels[1]:
            for tb in forest.levels[1]:
                if ta.key < tb.key and not ta.marks & tb.marks:
                    t = forest._glue(ta, tb)
                    if t is not None:
                        forest._add(t, 2)
        after = forest.disks(Q, forest.allowed, total=3)
        runs.append(([d.key for d in before], [d.key for d in after]))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) > len(runs[0][0])
