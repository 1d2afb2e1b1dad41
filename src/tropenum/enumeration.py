"""Enumeration of rational tropical curves through generic points.

The engine is a recursion on two kinds of objects:

* Maslov-0 trees: curve pieces using a subset I of the marked points, with
  one distinguished out-edge leaving their root along the primitive direction
  of -r(Delta).  Level 1 trees are a mark plus one unbounded ray.  A level-n
  tree is either a gluing of two smaller trees at the crossing point of their
  out-rays, or the straight continuation of a Maslov-2 disk whose boundary
  sits at a marked point (the disk passes through the point).

* Maslov-2 disks with boundary X: a stem traced backward from X; each
  backward segment travels along +r(m) for the monomial m it carries, and is
  deflected at the out-ray of a Maslov-0 tree, subtracting the tree's degree
  from m, until m is a single ray generator (the initial unbounded edge).

A rational curve through P_1..P_k is cut at the last point into two disks
with complementary mark sets and complementary degrees; the two stems arrive
at the pivot from opposite directions with equal weight automatically, so
every valid pair assembles to a solution and the enumeration is a pairing of
pivot disks.  Any coincidence that only happens on a measure-zero set of
configurations raises GenericityError and the caller resamples.  A count
traces only the trees and disks that can pair, so a fault in work it skips
no longer rejects a configuration (see Forest).
"""

import random
from itertools import combinations, product
from math import isqrt

from .fan import degree_total, make_degree, r_vector
from .lattice import (as_hpoint, hdiff, hshift, on_line, on_ray,
                      on_segment, primitive, ray_hits, ray_meets,
                      wall_index, walls_through, wedge)
from .tropcurve import (GenericityError, InvariantError, ParamTropCurve,
                        TropicalDisk, TropicalTree, canonical_type,
                        geometric_signature, mikhalkin_multiplicity,
                        validate_curve, welschinger_multiplicity)

MAX_ATTEMPTS = 32
BBOX = (-10, 10)        # sampled coordinates lie strictly inside BBOX^2


def _sieve_primes(lo, hi):
    flags = bytearray([1]) * (hi + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(hi) + 1):
        if flags[p]:
            flags[p * p::p] = bytearray(len(range(p * p, hi + 1, p)))
    return [p for p in range(lo, hi + 1) if flags[p]]


_PRIMES = _sieve_primes(1009, 9973)


class PointConfig:
    """k exact rational points with a record of how they were drawn."""

    def __init__(self, points, seed, attempt, certificate):
        self.points = tuple(points)       # homogeneous triples
        self.seed = seed
        self.attempt = attempt
        self.certificate = certificate

    def __len__(self):
        return len(self.points)


def sample_generic_points(k, seed, attempt=0):
    """k points with distinct prime denominators inside BBOX x BBOX.

    Each coordinate is n/p with p prime in [1009, 9973] and p not dividing n;
    2k distinct primes make all coordinates pairwise distinct automatically,
    and the large pairwise-coprime denominators keep accidental rational
    collinearities rare.  The point (n1/p, n2/q) is the triple
    (n1*q, n2*p, p*q), already in lowest terms.  Deterministic in
    (seed, attempt).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    rng = random.Random(seed * 0x9E3779B97F4A7C15 + attempt)
    lo, hi = BBOX
    denoms = rng.sample(_PRIMES, 2 * k) if k else []

    def numerator(p):
        while True:
            n = rng.randint(lo * p + 1, hi * p - 1)
            if n % p:
                return n
    pts = [(numerator(p) * q, numerator(q) * p, p * q)
           for p, q in zip(denoms[0::2], denoms[1::2])]
    cert = {
        "seed": seed,
        "attempt": attempt,
        "bbox": [lo, hi],
        "denominators": denoms,
        "distinct_coordinates": True,
    }
    return PointConfig(pts, seed, attempt, cert)


def sample_endpoint(seed, attempt=0):
    """A generic rational endpoint for broken line and disk counts.  Use a
    seed disjoint from the point configuration's, otherwise Q duplicates
    the first marked point."""
    return sample_generic_points(1, seed, attempt).points[0]


def precheck_config(fan, deg, config):
    """Reject configurations with two points separated by the primitive
    direction of some r(m), 0 < m <= Delta, or its negative: such a pair
    could support a non-generic incidence."""
    dirs = set()
    for m in _boxed_exponents(deg)[1:]:
        r = r_vector(fan, m)
        if r != (0, 0):
            p = primitive(r)[0]
            dirs |= {p, (-p[0], -p[1])}
    for (i, a), (j, b) in combinations(enumerate(config.points), 2):
        if primitive(hdiff(a, b))[0] in dirs:
            raise GenericityError(
                "points %d, %d aligned with a curve direction" % (i, j))
    return True


def mask_labels(mask):
    """The 0-based labels of the marks in a mark mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _boxed_exponents(cap):
    """All m <= cap, in lexicographic order."""
    return list(product(*(range(c + 1) for c in cap)))


class Tree:
    """Maslov-0 tree record: mark set, degree, wall (root + out direction),
    out-edge weight, multiplicity, how it was built, and its serial number
    (position in Forest.trees, set when the forest adds it).

    kn = wedge(base, out) on the homogeneous root, the numerator of the
    wall's offset kn / base.w (see lattice.ray_hits).
    """

    # a forest holds thousands of trees: no per-instance dict
    __slots__ = ("marks", "deg", "base", "out", "kn", "w", "mult", "kind",
                 "parts", "key", "serial")

    def __init__(self, marks, deg, base, out, w, mult, kind, parts, key):
        self.marks = marks
        self.deg = deg
        self.base = base
        self.out = out
        self.kn = wedge(base, out)
        self.w = w
        self.mult = mult
        self.kind = kind
        self.parts = parts
        self.key = key
        self.serial = None


class Disk:
    """Maslov-2 disk record.  bends runs from the initial ray toward the
    boundary; each entry (V, tree, m_below) records the deflection point, the
    deflecting tree and the stem monomial on the boundary side of V."""

    def __init__(self, marks, deg, boundary, init_ray, bends, w, u, mult,
                 key):
        self.marks = marks
        self.deg = deg
        self.boundary = boundary
        self.init_ray = init_ray
        self.bends = bends
        self.w = w
        self.u = u
        self.mult = mult
        self.key = key


class Forest:
    """Shared enumeration state: all Maslov-0 trees over a configuration,
    organized by level (number of marks used), plus the backward disk tracer
    that consumes them.

    Each tree gets a serial number, its position in `trees`.  A level is
    filed once complete (the leaves, then each level's glue and pass
    trees): one `lattice.wall_index` bucket per degree, in the order the
    degrees first occur; `ray_hits` asks a bucket which walls a ray meets.
    Nothing reads a level before it is filed: gluing at level n asks only
    lower levels, and a stem of monomial m only levels below |m|.  The
    stem tracer asks the buckets `_cands[m]` lists: the entries (left,
    bucket, c) with deg <= m, left = m - deg nonzero, r(left) != 0 and
    c = wedge(r(m), out).  Gluing is a join: each ta asks the level-n2
    buckets, for trees with marks disjoint from its own and, when
    n1 == n2, a larger key.
    Hits and faults go by serial: the tracer raises the fault of lowest
    serial; gluing adds ta's trees in tb serial order up to the lowest
    faulty tb, then raises its fault.  The sign, root and cap tests keep
    their order, so an over-cap pair still raises "tree ray through another
    tree's root".  Trees, disks and documents come out in the order and
    with the bytes of a linear scan.

    Built with a pivot, the last level skips the pass disks whose trees no
    pivot disk can meet (_feeds_pivot).  That work is a subset of the full
    forest's, so a configuration faults only where the full forest does,
    and may pass where the fault lay only in skipped work.
    """

    def __init__(self, fan, config, allowed_mask=None, degree_cap=None):
        self.fan = fan
        self.config = config
        self.rays = fan.rays
        self.allowed = ((1 << len(config)) - 1 if allowed_mask is None
                        else allowed_mask)
        self.cap = tuple(degree_cap) if degree_cap is not None else None
        self.trees = []
        self.levels = {}
        self._at_level = {}     # filed level -> [(degree, bucket)]
        self._cands = {}        # stem monomial -> [(left, bucket, c)]
        self._r = {}            # exponent vector -> r_vector

    def _rvec(self, m):
        r = self._r.get(m)
        if r is None:
            r = self._r[m] = r_vector(self.fan, m)
        return r

    # -- Maslov-0 trees ----------------------------------------------------

    def build(self, max_level, pivot=None):
        """Trees of levels 1..max_level.  With `pivot`, the point of the
        pivot disks of enumerate_rational_curves, max_level is the number of
        allowed marks and the cap is Delta."""
        if self.levels:
            raise InvariantError("forest already built")
        self.levels[1] = []
        for i in mask_labels(self.allowed):
            for ridx, ray in enumerate(self.rays):
                if self.cap is not None and self.cap[ridx] < 1:
                    continue
                deg = tuple(int(j == ridx) for j in range(len(self.rays)))
                t = Tree(1 << i, deg, self.config.points[i],
                         (-ray[0], -ray[1]), 1, 1, "leaf", (i, ridx),
                         ("l", i, ridx))
                self._add(t, 1)
        self._file(1)
        for n in range(2, max_level + 1):
            self.levels[n] = []
            for n1 in range(1, n // 2 + 1):
                for ta in self.levels[n1]:
                    self._join(ta, n - n1, n)
            degs = self.degrees(n, n)
            for i in mask_labels(self.allowed):
                p, sub = self.config.points[i], self.allowed & ~(1 << i)
                feeds = [m for m in degs if pivot is None or n < max_level
                         or self._feeds_pivot(pivot, p, m)]
                for disk in self.disks(p, sub, feeds):
                    t = Tree(disk.marks | (1 << i), disk.deg, p, disk.u,
                             disk.w, disk.mult, "pass", (i, disk),
                             ("p", i, disk.key))
                    self._add(t, n)
            self._file(n)
        self._check_walls_off_points()
        return self.trees

    def _add(self, t, level):
        t.serial = len(self.trees)
        self.levels[level].append(t)
        self.trees.append(t)

    def _file(self, level):
        """File a complete level: one wall index per degree."""
        by_deg = {}
        for t in self.levels[level]:
            by_deg.setdefault(t.deg, []).append(t)
        for ts in by_deg.values():
            if any(t.out != ts[0].out for t in ts):
                raise InvariantError("two out directions in one degree")
        self._at_level[level] = [(deg, wall_index(ts[0].out, ts))
                                 for deg, ts in by_deg.items()]

    def _join(self, ta, n2, level):
        """Glue ta to the level-n2 trees its out-ray crosses."""
        X, r = ta.base, ta.out
        xr, same = wedge(X, r), 2 * n2 == level
        found = []          # (tb serial, fault reason or (tb, deg, d, c))
        for deg_b, bucket in self._at_level[n2]:
            c = wedge(r, bucket[2])
            walls = ray_hits(bucket, X, r, c, xr, ta.marks)
            if not walls:
                continue
            deg = tuple(a + b for a, b in zip(ta.deg, deg_b))
            over = self.cap and any(x > y for x, y in zip(deg, self.cap))
            for tb, d, e in walls:
                if same and ta.key >= tb.key:
                    continue
                if not c:
                    if X != tb.base and (on_ray(tb.base, X, r)
                                         or on_ray(X, tb.base, tb.out)):
                        found.append((tb.serial,
                                      "collinear overlapping tree rays"))
                elif not (d or e):
                    continue        # shared root, contracted gluing
                elif d and e:
                    if not over:
                        found.append((tb.serial, (tb, deg, d, c)))
                else:
                    found.append((tb.serial,
                                  "tree ray through another tree's root"))
        found.sort()        # by tb serial, which is unique
        for _, hit in found:
            if isinstance(hit, str):
                raise GenericityError(hit)
            tb, deg, d, c = hit
            rv = self._rvec(deg)
            out, w = primitive((-rv[0], -rv[1]))
            ka, kb = sorted((ta.key, tb.key))
            mult = ta.mult * tb.mult * ta.w * tb.w * abs(c)
            self._add(Tree(ta.marks | tb.marks, deg,
                           hshift(X, d, X[2] * tb.base[2] * c, r), out, w,
                           mult, "glue", (ta, tb), ("g", ka, kb)), level)

    def _check_walls_off_points(self):
        """Raise the fault of the lowest tree serial, then the lowest point
        index, whose wall passes through a marked point other than its
        root."""
        faults = [(t.serial, j) for bucket in self._buckets()
                  for j, p in enumerate(self.config.points)
                  for t in walls_through(bucket, p) if t.base != p]
        if faults:
            raise GenericityError(
                "tree wall passes through point %d" % min(faults)[1])

    def _buckets(self):
        return [b for filed in self._at_level.values() for _, b in filed]

    # -- Maslov-2 disks ----------------------------------------------------

    def _feeds_pivot(self, P, B, D):
        """Can the tree of a last-level pass disk of degree D at B bend a
        pivot disk at P?  It holds every allowed mark, so only as the single
        bend of a disk of degree Delta - e_l, left with e_j, whose stem
        P + s*r(Delta - e_l) = P - s*ray_l (r(Delta) = 0) meets the wall
        B - t*r(D)."""
        rx, ry = self._rvec(D)
        return any(c > x and ray_meets(P, (-a, -b), B, (-rx, -ry))
                   for c, x, (a, b) in zip(self.cap, D, self.rays))

    def degrees(self, lo, top):
        """The monomials m <= cap (in the box of top when uncapped) with
        lo <= |m| <= top and r(m) != 0, in lexicographic order."""
        box = self.cap or (top,) * len(self.rays)
        return [m for m in _boxed_exponents(box)
                if lo <= sum(m) <= top and self._rvec(m) != (0, 0)]

    def disks(self, boundary, allowed_mask, degrees):
        """All disks with the given boundary, of the given degrees in turn;
        marks drawn from allowed_mask.  Each bend subtracts the degree of a
        tree, whose |deg| is its number of marks, and the trees along one
        stem have disjoint marks, so a disk of degree m has |m| - 1 marks.
        """
        out = []
        for m in degrees:
            self._trace(boundary, boundary, m, allowed_mask, [], out)
        return out

    def _add_cand(self, cands, m, deg, bucket):
        """Append (left, bucket, wedge(r(m), out)) to cands when a tree of
        degree deg can deflect a stem carrying m: left = m - deg is
        nonnegative, nonzero and with r(left) != 0."""
        left = tuple(a - b for a, b in zip(m, deg))
        if (all(x >= 0 for x in left) and sum(left)
                and self._rvec(left) != (0, 0)):
            cands.append((left, bucket, wedge(self._rvec(m), bucket[2])))

    def _candidates(self, m):
        cands = self._cands.get(m)
        if cands is None:
            cands = self._cands[m] = []
            for level in range(1, sum(m)):
                for deg, bucket in self._at_level.get(level, ()):
                    self._add_cand(cands, m, deg, bucket)
        return cands

    def _trace(self, X0, X, m, rmask, steps, out):
        if sum(m) == 1:
            self._emit(X0, m, steps, out)
            return
        r = self._rvec(m)
        xr, skip = wedge(X, r), ~rmask
        hits = []
        fault = None        # (serial, reason) of the first faulty wall
        for left, bucket, c in self._candidates(m):
            walls = ray_hits(bucket, X, r, c, xr, skip)
            for t, d, e in walls:
                if not c:
                    if not (on_ray(t.base, X, r) or on_ray(X, t.base, t.out)):
                        continue
                    reason = "stem runs along a tree wall"
                elif not d:
                    prev = steps[-1][1] if steps else None
                    if prev is not None and wedge(prev.out, t.out) == 0:
                        continue    # co-supported with the wall just used
                    reason = "stem vertex lies on a tree wall"
                elif not e:
                    reason = "stem hits a tree wall at its root"
                else:
                    V = hshift(X, d, X[2] * t.base[2] * c, r)
                    hits.append((t.serial, V, t, left))
                    continue
                if fault is None or t.serial < fault[0]:
                    fault = (t.serial, reason)
        if fault is not None:
            raise GenericityError(fault[1])
        hits.sort()         # by serial, which is unique
        by_point = {}
        for _, V, t, _ in hits:
            by_point.setdefault(V, []).append(t)
        for ts in by_point.values():
            if len(ts) > 1 and any(wedge(a.out, b.out)
                                   for a, b in combinations(ts, 2)):
                raise GenericityError("two transversal walls cross the stem "
                                      "at one point")
        for _, V, t, left in hits:
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
            r_dn = self._rvec(mm)
            dn, w_dn = primitive((-r_dn[0], -r_dn[1]))
            mult *= t.mult * t.w * w_dn * abs(wedge(t.out, dn))
        r_fin = self._rvec(m_fin)
        u, w = primitive((-r_fin[0], -r_fin[1]))
        verts = [X0] + [V for V, _, _ in steps]
        if len(set(verts)) != len(verts):
            raise GenericityError("disk stem revisits a vertex")
        A, ray = verts[-1], self.rays[ridx]
        for p in self.config.points:
            if p in verts[1:]:
                raise GenericityError("disk bends exactly at a marked point")
            # a strict test of a segment's or ray's own start is False
            for a, (V, _, mm) in enumerate(steps):
                if (p != verts[a] and on_line(p, V, self._rvec(mm))
                        and on_segment(p, verts[a], V, strict=True)):
                    raise GenericityError("marked point inside a stem "
                                          "segment")
            if (p != A and on_line(p, A, ray)
                    and on_ray(p, A, ray, strict=True)):
                raise GenericityError("marked point on the initial stem ray")
        bends = tuple(reversed(steps))
        key = ("d", m_fin, ridx, tuple(t.key for _, t, _ in steps))
        out.append(Disk(marks, m_fin, X0, ridx, bends, w, u, mult, key))


# -- materialization to curve objects ---------------------------------------


class _CurveAccum:
    def __init__(self, fan):
        self.fan = fan
        self.verts = []
        self.bedges = []
        self.uedges = []
        self.marks = []

    def vertex(self, P):
        self.verts.append(P)
        return len(self.verts) - 1

    def add_tree(self, tree, attach):
        """Emit the tree's body; its out-edge runs from its root to vertex
        `attach`, or becomes a distinguished unbounded edge if attach is
        None.  Returns the out-edge index for the unbounded case."""
        base = self.vertex(tree.base)
        if tree.kind == "leaf":
            i, ridx = tree.parts
            self.marks.append((i, base))
            self.uedges.append((base, self.fan.rays[ridx], 1))
        elif tree.kind == "glue":
            ta, tb = tree.parts
            self.add_tree(ta, base)
            self.add_tree(tb, base)
        else:
            i, disk = tree.parts
            self.marks.append((i, base))
            self.add_disk_body(disk, base)
        if attach is None:
            self.uedges.append((base, tree.out, tree.w))
            return len(self.uedges) - 1
        self.bedges.append((base, attach, tree.w, tree.out))
        return None

    def add_disk_body(self, disk, boundary_idx):
        """Stem segments and deflecting trees, nearest bend first."""
        prev = boundary_idx
        for V, tree, m_below in reversed(disk.bends):
            vi = self.vertex(V)
            r_dn = r_vector(self.fan, m_below)
            dn, w_dn = primitive((-r_dn[0], -r_dn[1]))
            self.bedges.append((vi, prev, w_dn, dn))
            self.add_tree(tree, vi)
            prev = vi
        self.uedges.append((prev, self.fan.rays[disk.init_ray], 1))


def tree_to_curve(tree, fan):
    acc = _CurveAccum(fan)
    out_idx = acc.add_tree(tree, None)
    c = TropicalTree(acc.verts, acc.bedges, acc.uedges, acc.marks,
                     out_edge=out_idx)
    c.record = tree
    return c


def disk_to_curve(disk, fan):
    acc = _CurveAccum(fan)
    vout = acc.vertex(disk.boundary)
    acc.add_disk_body(disk, vout)
    c = TropicalDisk(acc.verts, acc.bedges, acc.uedges, acc.marks, vout=vout)
    c.record = disk
    return c


def _assemble_pair(d1, d2, pivot_label, pivot_point, fan):
    if d1.u != (-d2.u[0], -d2.u[1]) or d1.w != d2.w:
        raise InvariantError("pivot stems fail to oppose")
    acc = _CurveAccum(fan)
    piv = acc.vertex(pivot_point)
    acc.marks.append((pivot_label, piv))
    acc.add_disk_body(d1, piv)
    acc.add_disk_body(d2, piv)
    return ParamTropCurve(acc.verts, acc.bedges, acc.uedges, acc.marks)


# -- public enumeration entry points ----------------------------------------


def build_forest(fan, config):
    """The Maslov-0 forest over all marks of the configuration."""
    forest = Forest(fan, config)
    forest.build(len(config))
    return forest


def enumerate_maslov0_trees(fan, config):
    """All Maslov-0 trees over the configuration, by level, as curve
    objects (TropicalTree) carrying their construction record as
    `.record`."""
    return [tree_to_curve(t, fan) for t in build_forest(fan, config).trees]


def enumerate_maslov2_disks(fan, config, Q, forest=None):
    """All Maslov-2 disk records with boundary Q over the configuration;
    disk_to_curve turns one into a curve object.

    Q must avoid every tree wall; a wall through Q raises GenericityError.
    A caller that already holds build_forest(fan, config) passes it as
    `forest` to save building it again.
    """
    qpt = as_hpoint(Q)
    if forest is None:
        forest = build_forest(fan, config)
    if any(walls_through(b, qpt) for b in forest._buckets()):
        raise GenericityError("base point lies on a tree wall")
    for p in config.points:
        if p == qpt:
            raise GenericityError("base point coincides with a marked point")
    return forest.disks(qpt, forest.allowed, forest.degrees(
        1, bin(forest.allowed).count("1") + 1))


class CountReport:
    """Outcome of a full enumeration: solutions with multiplicities."""

    def __init__(self, fan, deg, config, curves, mults, wmults):
        self.fan = fan
        self.deg = deg
        self.config = config
        self.curves = curves
        self.mults = mults
        self.wmults = wmults
        self.n_trop = sum(mults)
        self.w_trop = sum(wmults)

    def multiset(self):
        return sorted(self.mults)

    def __repr__(self):
        return ("CountReport(n_trop=%d, w_trop=%d, solutions=%d)"
                % (self.n_trop, self.w_trop, len(self.curves)))


def enumerate_rational_curves(fan, deg, config):
    """CountReport for rational curves of degree `deg` through the |Delta|-1
    points of `config`.  Raises GenericityError when the trees and disks
    that can pair hit a coincidence; the counting wrappers resample."""
    deg = make_degree(fan, deg)
    k = len(config)
    if k != degree_total(deg) - 1:
        raise ValueError("need exactly |Delta| - 1 = %d points, got %d"
                         % (degree_total(deg) - 1, k))
    if k == 0:
        raise ValueError("degree too small: no marked points")
    precheck_config(fan, deg, config)
    pivot = k - 1
    others = (1 << pivot) - 1
    pivot_point = config.points[pivot]
    forest = Forest(fan, config, allowed_mask=others, degree_cap=deg)
    forest.build(max(1, k - 1), pivot=pivot_point)
    # a pivot pair splits the k - 1 other marks, and a disk of degree m has
    # |m| - 1 marks: trace the disks with at most half of them, then for
    # each group (mask1, m1) whose complement has more, the complement
    # degree over the complement marks, so that each of its disks pairs
    half = (k - 1) // 2
    pivot_disks = forest.disks(pivot_point, others,
                               forest.degrees(1, half + 1))
    for mask1, m1 in sorted({(d.marks, d.deg) for d in pivot_disks}):
        if k - sum(m1) > half:
            pivot_disks += forest.disks(pivot_point, others & ~mask1, [
                tuple(a - b for a, b in zip(deg, m1))])
    pivot_disks.sort(key=lambda d: d.key)
    groups = {}
    for d in pivot_disks:
        groups.setdefault((d.marks, d.deg), []).append(d)
    curves = []
    points = dict(enumerate(config.points))
    for (mask1, m1), bunch in sorted(groups.items()):
        mask2 = others & ~mask1
        m2 = tuple(a - b for a, b in zip(deg, m1))
        key2 = (mask2, m2)
        if (mask1, m1) > key2:
            continue
        if (mask1, m1) == key2:
            raise InvariantError("self-complementary pivot group")
        for d1 in bunch:
            for d2 in groups.get(key2, ()):
                curve = _assemble_pair(d1, d2, pivot, pivot_point, fan)
                validate_curve(curve, fan, points=points)
                curves.append(curve)
    sigs = [geometric_signature(c) for c in curves]
    if len(set(sigs)) != len(sigs):
        raise InvariantError("duplicate solution from two pivot pairings")
    types = [canonical_type(c) for c in curves]
    if len(set(types)) != len(types):
        raise GenericityError("two solutions share a combinatorial type")
    order = sorted(range(len(curves)), key=lambda i: (types[i], sigs[i]))
    curves = [curves[i] for i in order]
    mults = [mikhalkin_multiplicity(c) for c in curves]
    wmults = [welschinger_multiplicity(c) for c in curves]
    return CountReport(fan, deg, config, curves, mults, wmults)


def resample(k, seed, build):
    """(config, build(config)) for the first configuration of k points
    drawn for `seed` on which build raises no GenericityError.  The builds
    of the trees, disks, scatter and potential commands fail only where the
    Maslov-0 forest fails, so those commands accept the same attempt."""
    last = None
    for attempt in range(MAX_ATTEMPTS):
        config = sample_generic_points(k, seed, attempt=attempt)
        try:
            return config, build(config)
        except GenericityError as e:
            last = e
    raise GenericityError("no generic configuration for seed %d after %d "
                          "attempts (last: %s)" % (seed, MAX_ATTEMPTS, last))


def run_count(fan, deg, seed):
    """Resample configurations for `seed` until one is generic, then
    enumerate.  Returns the CountReport."""
    deg = make_degree(fan, deg)
    if degree_total(deg) < 2:
        raise ValueError("degree too small: no marked points")
    return resample(degree_total(deg) - 1, seed,
                    lambda c: enumerate_rational_curves(fan, deg, c))[1]
