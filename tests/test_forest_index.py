"""The offset-sorted wall index of Forest against a linear scan.

ScanForest is the reference: it files trees in one list, recomputes
r_vector every time, glues every (ta, tb) pair of levels in a plain double
loop, traces every pass disk of every level, and at each stem step scans
every tree in order, exactly as the forest did before the degree index.
It numbers the pass trees of each (point, degree) as that degree's trace
ends, as Forest numbers a pass wall's trees, so the trees built before a
fault agree too.  It also traces the degrees whose stem no candidate
crosses, which Forest files no wall for: such a stem can meet only
leaves parallel to it, and a leaf it runs along already faulted as a
collinear pair at level 2.
Its gluing, its disk check and its wall check against the marked points
are the plain versions: the crossing point built by ray_intersect before
the sign, root and cap tests, and on_segment and on_ray tried on every
point, with no integer test in front.  Its candidate degrees are written
out apart from Forest.degrees: every m in the box (top,) * nrays, or in
the cap's box, with lo <= |m| <= top and r(m) != 0.  It skips nothing
with a pivot: it is the full forest that a pivot forest's work must stay
inside.  Pivot cases trace the pivot disks through Forest.pivot_disks, as
enumerate_rational_curves does: the disks with at most half of the other
marks, then for each group found its complement degree over the
complement marks.  Both forests run on the same configurations.  Without
a pivot, per attempt they must build the same trees, trace the same
disks, and raise the same GenericityError at the same place.  With one,
the forest traces its pass walls lazily: every tree it builds must be a
tree of the full forest, it may fault only where the full forest faults,
and where neither faults it must give the same pivot disks, with the same
multiplicities.
"""

import random
from fractions import Fraction

import pytest

from tropenum.broken import sample_endpoint
from tropenum.enumeration import (Disk, Forest, PointConfig, Tree,
                                  _boxed_exponents, build_forest,
                                  enumerate_maslov2_disks, run_count,
                                  sample_generic_points)
from tropenum.fan import builtin_fan, make_degree, r_vector
from tropenum.lattice import (hdiff, hpoint, hshift, on_ray, on_segment,
                              primitive, ray_intersect, walls_through, wedge)
from tropenum.tropcurve import GenericityError

P2 = builtin_fan("p2")
P1P1 = builtin_fan("p1xp1")
DP6 = builtin_fan("dp6")


class ScanForest(Forest):
    """Forest with plain gluing, the linear-scan tracer and no index or
    caches."""

    def build(self, max_level, pivot=None):
        self.pivot = pivot
        self.levels[1] = []
        for i in range(len(self.config)):
            if not (self.allowed >> i) & 1:
                continue
            for ridx, ray in enumerate(self.rays):
                if self.cap is not None and self.cap[ridx] < 1:
                    continue
                deg = tuple(1 if j == ridx else 0
                            for j in range(len(self.rays)))
                t = Tree(1 << i, deg, self.config.points[i],
                         (-ray[0], -ray[1]), 1, 1, "leaf", (i, ridx),
                         ("l", i, ridx))
                self.levels[1].append(self._add(t))
        for n in range(2, max_level + 1):
            self.levels[n] = []
            for n1 in range(1, n // 2 + 1):
                n2 = n - n1
                for ta in self.levels[n1]:
                    for tb in self.levels[n2]:
                        if n1 == n2 and ta.key >= tb.key:
                            continue
                        if ta.marks & tb.marks:
                            continue
                        t = self._glue(ta, tb)
                        if t is not None:
                            self.levels[n].append(self._add(t))
            for i in range(len(self.config)):
                if not (self.allowed >> i) & 1:
                    continue
                sub = self.allowed & ~(1 << i)
                for D in self.degrees(n, n):
                    for disk in self.disks(self.config.points[i], sub, [D]):
                        t = Tree(disk.marks | (1 << i), disk.deg,
                                 self.config.points[i], disk.u, disk.w,
                                 disk.mult, "pass", (i, disk),
                                 ("p", i, disk.key))
                        self.levels[n].append(self._add(t))
        self._check_walls_off_points()
        return self.trees

    def _add(self, t):
        self.trees.append(t)
        return t

    def _rvec(self, m):
        return r_vector(self.fan, m)

    def _glue(self, ta, tb):
        cross = wedge(ta.out, tb.out)
        if cross == 0:
            if wedge(ta.out, hdiff(ta.base, tb.base)) == 0:
                if ta.base == tb.base:
                    return None
                if (on_ray(tb.base, ta.base, ta.out)
                        or on_ray(ta.base, tb.base, tb.out)):
                    raise GenericityError("collinear overlapping tree rays")
            return None
        s, t, den, point = ray_intersect(ta.base, ta.out, tb.base, tb.out)
        if s < 0 or t < 0:
            return None
        if s == 0 and t == 0:
            return None
        if s == 0 or t == 0:
            raise GenericityError("tree ray through another tree's root")
        deg = tuple(a + b for a, b in zip(ta.deg, tb.deg))
        if self.cap is not None and any(d > c for d, c in zip(deg, self.cap)):
            return None
        r = r_vector(self.fan, deg)
        out, w = primitive((-r[0], -r[1]))
        ka, kb = sorted((ta.key, tb.key))
        mult = ta.mult * tb.mult * ta.w * tb.w * abs(cross)
        return Tree(ta.marks | tb.marks, deg, point, out, w, mult, "glue",
                    (ta, tb), ("g", ka, kb))

    def _check_walls_off_points(self):
        for t in self.trees:
            for j, p in enumerate(self.config.points):
                if on_ray(p, t.base, t.out, strict=True):
                    raise GenericityError(
                        "tree wall passes through point %d" % j)

    def degrees(self, lo, top):
        box = self.cap if self.cap is not None else (top,) * len(self.rays)
        return sorted(m for m in _boxed_exponents(box)
                      if lo <= sum(m) <= top
                      and r_vector(self.fan, m) != (0, 0))

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

    def _emit(self, X0, m, steps, out):
        ridx = m.index(1)
        m_fin = steps[0][2] if steps else m
        marks = 0
        mult = 1
        for V, t, mm in steps:
            marks |= t.marks
            r_dn = r_vector(self.fan, mm)
            dn, w_dn = primitive((-r_dn[0], -r_dn[1]))
            mult *= t.mult * t.w * w_dn * abs(wedge(t.out, dn))
        r_fin = r_vector(self.fan, m_fin)
        u, w = primitive((-r_fin[0], -r_fin[1]))
        verts = [X0] + [V for V, _, _ in steps]
        if len(set(verts)) != len(verts):
            raise GenericityError("disk stem revisits a vertex")
        for p in self.config.points:
            if p in verts[1:]:
                raise GenericityError("disk bends exactly at a marked point")
            for a in range(len(verts) - 1):
                if on_segment(p, verts[a], verts[a + 1], strict=True):
                    raise GenericityError("marked point inside a stem "
                                          "segment")
            if on_ray(p, verts[-1], self.rays[ridx], strict=True):
                raise GenericityError("marked point on the initial stem ray")
        bends = tuple(reversed(steps))
        key = ("d", m_fin, ridx, tuple(t.key for _, t, _ in steps))
        out.append(Disk(marks, m_fin, X0, ridx, bends, w, u, mult, key))


def _run(cls, fan, config, allowed, cap, level, boundary, mask):
    """Build the forest, then trace the disks at `boundary`: the pivot
    disks when capped, else every degree.  Returns the tree keys, the
    disks' keys and multiplicities and the GenericityError raised, if
    any."""
    forest = cls(fan, config, allowed_mask=allowed, degree_cap=cap)
    disks = []
    error = None
    try:
        if cap is None:
            forest.build(level)
            top = bin(mask).count("1") + 1
            disks = forest.disks(boundary, mask, forest.degrees(1, top))
        else:
            forest.build(level, pivot=boundary)
            disks = forest.pivot_disks()
    except GenericityError as e:
        error = str(e)
    return ([t.key for t in forest.trees], [(d.key, d.mult) for d in disks],
            error)


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


GRID_Q = hpoint(Fraction(1, 2), Fraction(1, 3))
# leaf forests of three grid points whose walls pass through several of the
# six points, in buckets whose order is not the order of the tree serials
GRID_LEAF_SEEDS = (3, 12, 13, 34)


def _leaves_case(config):
    """The leaves of points 0-2 only, so that nothing glues and the wall
    check against the marked points meets every leaf wall."""
    return (P2, config, 0b111, None, 1, GRID_Q, 0b111)


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
        yield "grid-k4", _free_case(P2, _grid_config(4, seed), GRID_Q)
        deg = make_degree(P2, (2, 2, 2))
        yield "grid-conic", _pivot_case(P2, deg, _grid_config(5, 100 + seed))
    # grid seeds that reach the rarer faults of the tracer and of _emit
    for k, seed in ((4, 32), (3, 43), (4, 155), (3, 40)):
        yield "grid-k%d" % k, _free_case(P2, _grid_config(k, seed), GRID_Q)
    for seed in (116, 193, 125):
        deg = make_degree(P2, (2, 2, 2))
        yield "grid-conic", _pivot_case(P2, deg, _grid_config(5, seed))
    for seed in GRID_LEAF_SEEDS:
        yield "grid-leaves", _leaves_case(_grid_config(6, seed))
    # a pivot forest that bends a disk exactly at a marked point; seed 193
    # did too until the pass walls were traced only when met
    yield "grid-conic", _pivot_case(P2, make_degree(P2, (2, 2, 2)),
                                    _grid_config(5, 89))


CASES = list(_cases())


@pytest.mark.parametrize("name,case", CASES,
                         ids=["%s-%d" % (n, i) for i, (n, _) in
                              enumerate(CASES)])
def test_index_matches_linear_scan(name, case):
    got = _run(Forest, *case)
    want = _run(ScanForest, *case)
    assert got[0]
    if case[3] is None:
        assert got == want
        return
    trees, disks, error = got
    full_trees, full_disks, full_error = want
    assert error is None or full_error is not None
    if full_error is None:
        assert set(trees) <= set(full_trees)
        assert error is not None or sorted(disks) == sorted(full_disks)


def test_cases_cover_both_outcomes():
    errors = {_run(Forest, *case)[2] for name, case in CASES
              if not name.startswith(("p2-cubic", "p1xp1"))}
    assert None in errors
    assert len(errors) >= 5
    assert {"two transversal walls cross the stem at one point",
            "stem runs along a tree wall",
            "disk bends exactly at a marked point",
            "marked point on the initial stem ray"} <= errors


def test_wall_check_cases_hold_several_faults():
    # the wall check must raise the fault of the lowest tree serial, then
    # the lowest point index; these cases hold several faults, some on one
    # wall and some met in an earlier bucket than the fault that wins
    for seed in GRID_LEAF_SEEDS:
        config = _grid_config(6, seed)
        forest = Forest(*_leaves_case(config)[:4])
        with pytest.raises(GenericityError) as e:
            forest.build(1)
        faults = sorted((t.serial, j) for t in forest.trees
                        for j, p in enumerate(config.points)
                        if on_ray(p, t.base, t.out, strict=True))
        assert len(faults) >= 2
        assert str(e.value) == ("tree wall passes through point %d"
                                % faults[0][1])


def _assert_candidates_fresh(forest):
    """Every cached candidate list equals a fresh scan of all buckets: no
    bucket the forest holds was filed after a stem asked for it."""
    assert forest._cands
    for m, cands in forest._cands.items():
        fresh = []
        for filed in forest._at_level.values():
            for deg, bucket in filed:
                forest._add_cand(fresh, m, deg, bucket)
        assert [(left, id(b), c) for left, b, c in cands] == \
            [(left, id(b), c) for left, b, c in fresh]


def _generic(build, k, seed):
    """build(config) on the first attempt for seed that raises no
    GenericityError."""
    for attempt in range(32):
        try:
            return build(sample_generic_points(k, seed, attempt=attempt))
        except GenericityError:
            continue
    raise AssertionError("no generic configuration")


def _pivot_forest(fan, deg, config):
    """The capped forest of enumerate_rational_curves, with its pivot."""
    _, _, others, cap, level, pivot, _ = _pivot_case(fan, deg, config)
    forest = Forest(fan, config, allowed_mask=others, degree_cap=cap)
    forest.build(level, pivot=pivot)
    return forest


@pytest.mark.parametrize("fan,deg", [(P2, (3, 3, 3)), (P1P1, (2, 2, 2, 2)),
                                     (DP6, (1,) * 6)],
                         ids=["p2", "p1xp1", "dp6"])
def test_pivot_forest_candidates_stay_fresh(fan, deg):
    def build(config):
        forest = _pivot_forest(fan, deg, config)
        _assert_candidates_fresh(forest)
        forest.pivot_disks()
        _assert_candidates_fresh(forest)

    for seed in (1, 2):
        _generic(build, sum(deg) - 1, seed)


@pytest.mark.parametrize("fan,k", [(P2, 4), (P1P1, 4), (DP6, 3)],
                         ids=["p2", "p1xp1", "dp6"])
def test_uncapped_forest_candidates_stay_fresh(fan, k):
    def build(config):
        forest = build_forest(fan, config)
        _assert_candidates_fresh(forest)
        enumerate_maslov2_disks(fan, config, sample_endpoint(k + 7),
                                forest=forest)
        _assert_candidates_fresh(forest)

    _generic(build, k, 1)


def test_candidate_tables_scan_only_lower_levels(monkeypatch):
    """A stem of monomial m is deflected only by trees of degree below m,
    which lie at levels below |m|, so its candidate table scans only the
    buckets of those levels.  On the P2 cubic, seed 1, that is 1,008
    _add_cand calls: a table is built only for a stem that is traced, and
    a level has a bucket for each degree with a pass wall, traced or not.
    Asking the table of every degree of a level, to file no pass wall
    where the stem cannot bend, made 1,251; with the per-level filters the
    pass walls replaced it was 993, with the last level's filter alone
    1,116, and scanning every bucket made 1,575.  The freshness tests
    above check that the tables equal a scan of every bucket."""
    calls = []
    add_cand = Forest._add_cand

    def counted(self, *args):
        calls.append(args)
        return add_cand(self, *args)

    monkeypatch.setattr(Forest, "_add_cand", counted)
    rep = run_count(P2, (3, 3, 3), seed=1)
    assert (rep.n_trop, rep.w_trop) == (12, 8)
    assert len(calls) == 1008


def test_levels_are_filed_once_complete(monkeypatch):
    """Each level is filed once, after its last tree or pass wall: its
    buckets hold exactly its entries, so nothing joined it later, and
    every tree, pass trees traced after their level was filed included,
    is an entry of a filed level or a tree kept on a filed pass wall.
    Without a pivot, every filed pass wall is traced and holds a tree.
    Serials are positions in Forest.trees.  On the P2 cubic count, the
    uncapped P2 forest with k = 4, and the dP6 anticanonical count."""
    file_level = Forest._file
    forests = []

    def file_once(self, level):
        assert level not in self._at_level
        file_level(self, level)
        forests.append(self)

    monkeypatch.setattr(Forest, "_file", file_once)
    assert run_count(P2, (3, 3, 3), seed=1).n_trop == 12
    _generic(lambda cfg: build_forest(P2, cfg), 4, 1)
    assert run_count(DP6, (1,) * 6, seed=1).n_trop > 0
    for forest in set(forests):
        reached = set()
        for level, filed in forest._at_level.items():
            entries = [t for _, b in filed for t in b[1]]
            assert (sorted(map(id, entries))
                    == sorted(map(id, forest.levels[level])))
            reached.update(id(t) for t in entries)
            reached.update(id(u) for t in entries if t.kind == "wall"
                           for u in t.parts or ())
        assert {id(t) for t in forest.trees} <= reached
        if forest.pivot is None:
            walls = [t for ts in forest.levels.values() for t in ts
                     if t.kind == "wall"]
            assert walls and all(t.parts for t in walls)
        assert [t.serial for t in forest.trees] == list(
            range(len(forest.trees)))
    assert len(set(forests)) >= 3


def test_walls_through_matches_a_scan():
    """lattice.walls_through on a bucket against on_ray on every wall of
    it, at the marked points, the roots, points on the walls and points
    just off them, over uncapped and pivot forests."""
    forests = [_generic(lambda cfg: build_forest(P2, cfg), 4, 1),
               _generic(lambda cfg: build_forest(P1P1, cfg), 3, 2),
               _generic(lambda cfg: _pivot_forest(DP6, (1,) * 6, cfg), 5, 1),
               _generic(lambda cfg: _pivot_forest(P2, (2, 2, 2), cfg), 5, 1)]
    points = held = 0
    for forest in forests:
        pts = list(forest.config.points)
        for t in forest.trees:
            pts += [t.base, hshift(t.base, 2, 3, t.out),
                    hshift(t.base, -1, 5, t.out),
                    hshift(t.base, 1, 7, (t.out[1], -t.out[0]))]
        for P in pts:
            for bucket in forest._buckets():
                want = [t for t in bucket[1] if on_ray(P, t.base, t.out)]
                assert walls_through(bucket, P) == want
                held += len(want)
        points += len(pts)
    assert points > 1000
    assert held > points


def test_over_cap_pair_still_faults_at_a_root():
    # ta's out-ray runs through tb's root and their degrees sum past the
    # cap: the root test comes before the cap test, so the pair is a fault
    # in the join as in the reference's plain _glue, not a skipped pair.
    cfg = PointConfig([hpoint(0, 0), hpoint(0, -1)], 0, 0, {})
    for cls in (Forest, ScanForest):
        forest = cls(P2, cfg, degree_cap=(0, 1, 1))
        forest.levels = {1: [], 2: []}
        ta = Tree(1, (0, 1, 0), cfg.points[0], (0, -1), 1, 1, "leaf",
                  (0, 1), ("l", 0, 1))
        tb = Tree(2, (1, 0, 0), cfg.points[1], (-1, 0), 1, 1, "leaf",
                  (1, 0), ("l", 1, 0))
        forest.levels[1] += [forest._add(ta), forest._add(tb)]
        forest._file(1)
        with pytest.raises(GenericityError,
                           match="tree ray through another tree's root"):
            if cls is Forest:
                forest._join(ta, 1, 2)
            else:
                forest._glue(ta, tb)
