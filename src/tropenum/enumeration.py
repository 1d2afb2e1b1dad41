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
configurations raises GenericityError and the caller resamples.

Every forest files the pass trees of one point and degree on their one
wall (see Forest), and one without a pivot traces each wall as its level
completes.  A count files each crossing of its last level as a wall too,
and builds only what its pivot disks can reach: a wall's trees when a
stem or a gluing first meets it, and at the pivot the disks that can
pair (Forest.pivot_disks).  That work is a subset of the full forest's,
and what it skips can make no pivot disk, so a configuration faults only
where the full forest does and, where both succeed, gives the same
solutions; a fault in work the count skips no longer rejects a
configuration.  CountReport finishes this count and bruteforce's alike.
"""

import random
from itertools import combinations, product
from math import isqrt

from .fan import degree_total, make_degree, r_vector
from .lattice import (hdiff, hshift, mask_labels, on_line, on_ray,
                      on_segment, primitive, ray_hits, wall_index,
                      walls_through, wedge)
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
    (seed, attempt).  The range holds 1,061 primes, so k is at most 530;
    a larger k raises ValueError.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if 2 * k > len(_PRIMES):
        raise ValueError("k = %d points need %d distinct prime denominators; "
                         "at most %d points can be sampled"
                         % (k, 2 * k, len(_PRIMES) // 2))
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


def _boxed_exponents(cap):
    """All m <= cap, in lexicographic order."""
    return list(product(*(range(c + 1) for c in cap)))


class Tree:
    """Maslov-0 tree record: mark set, degree, wall (root + out direction),
    out-edge weight, multiplicity, how it was built, and its serial number
    (position in Forest.trees, set when the forest adds it).

    kn = wedge(base, out) on the homogeneous root, the numerator of the
    wall's offset kn / base.w (see lattice.ray_hits).

    A record of kind "wall" (no serial) stands for the trees on its root
    and out direction, built into parts when first asked for
    (Forest._real): point i's pass trees of degree deg, or a count's
    last-level glue trees at one crossing (key: Forest._glue's
    arguments).  Its marks are those all its trees hold: 1 << i or every
    allowed mark, then, once built, their intersection (-1, every mark,
    if none), so ray_hits skips it for a ray that can use none of them.
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
    filed once complete (the leaves, then each level's glue trees and
    walls): one `lattice.wall_index` bucket per degree, in the order the
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

    Each level files one pass wall per (point i, degree D) in place of
    the pass trees of (i, D), which all lie on it, and a count's last
    level files each proper crossing of two out-rays as a wall too; the
    faults a join finds are raised at once.  D files no pass wall when
    every ray of its support is parallel to r(D): so is every tree out
    that can deflect its stem (c == 0), the stem bends nowhere, and a
    wall it runs along is a parallel leaf that already faulted at level 2
    with the leaf of the same ray at the stem's point.  Without a pivot,
    a level traces its walls in filing order before it is filed and
    drops those with no tree.  With one, `_real` builds a wall's trees
    the first time a stem, a gluing or the check against the marked
    points meets it in a way that can make a disk, a tree or a fault; a
    stem crossing a wall with |left| > 1 traces it only if a stem from
    the crossing meets a wall with the marks the wall's point leaves free
    (`_goes_on`), a superset of what each of its trees leaves free.  So
    every tree built is a tree of the full forest and every fault raised
    one that it meets: a configuration faults only where the full forest
    does, may pass where the fault lay in skipped work, and gives the
    full forest's pivot disks.
    """

    def __init__(self, fan, config, allowed_mask=None, degree_cap=None):
        self.fan = fan
        self.config = config
        self.rays = fan.rays
        self.allowed = ((1 << len(config)) - 1 if allowed_mask is None
                        else allowed_mask)
        self.cap = tuple(degree_cap) if degree_cap is not None else None
        self.pivot = self.last = None
        self.trees = []
        self.levels = {}        # level -> its trees and walls
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
        """Trees of levels 1..max_level, with pass walls (see Forest).
        With `pivot`, the point of the pivot disks of
        enumerate_rational_curves (kept for pivot_disks), max_level is the
        number of allowed marks, the cap is Delta and walls are traced when
        first met; without, as each level completes."""
        if self.levels:
            raise InvariantError("forest already built")
        self.pivot = pivot
        self.last = max_level if pivot is not None else None
        pts = self.config.points
        self.levels[1] = []
        for i in mask_labels(self.allowed):
            for ridx, ray in enumerate(self.rays):
                if self.cap is not None and self.cap[ridx] < 1:
                    continue
                deg = tuple(int(j == ridx) for j in range(len(self.rays)))
                self.levels[1].append(self._add(Tree(
                    1 << i, deg, pts[i], (-ray[0], -ray[1]), 1, 1, "leaf",
                    (i, ridx), ("l", i, ridx))))
        self._file(1)
        for n in range(2, max_level + 1):
            self.levels[n] = []
            for n1 in range(1, n // 2 + 1):
                for ta in self.levels[n1]:
                    self._join(ta, n - n1, n)
            walls = [(D, self._out(D)) for D in self.degrees(n, n)
                     if any(x and wedge(ray, self._rvec(D))
                            for x, ray in zip(D, self.rays))]
            for i in mask_labels(self.allowed):
                self.levels[n] += [
                    Tree(1 << i, D, pts[i], out, w, None, "wall", None, None)
                    for D, (out, w) in walls]
            if pivot is None:
                self.levels[n] = [t for t in self.levels[n] if self._real(t)]
            self._file(n)
        self._check_walls_off_points()
        return self.trees

    def _add(self, t):
        t.serial = len(self.trees)
        self.trees.append(t)
        return t

    def _out(self, m):
        """The primitive direction of -r(m) and its weight."""
        rx, ry = self._rvec(m)
        return primitive((-rx, -ry))

    def _pass_trees(self, wall):
        """The pass trees on a pass wall, traced and numbered."""
        i, p, disks = wall.marks.bit_length() - 1, wall.base, []
        self._trace(p, p, wall.deg, self.allowed & ~(1 << i), [], disks)
        return [self._add(Tree(d.marks | 1 << i, d.deg, p, d.u, d.w, d.mult,
                               "pass", (i, d), ("p", i, d.key)))
                for d in disks]

    def _real(self, t):
        """The trees a filed record stands for: a tree itself, a wall its
        trees, traced or glued the first time they are asked for."""
        if t.kind != "wall":
            return (t,)
        if t.parts is None:
            t.parts = (self._pass_trees(t) if t.key is None
                       else list(self._glue(*t.key)))
            t.marks = -1        # from now on, the marks all its trees hold
            for u in t.parts:
                t.marks &= u.marks
        return t.parts

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
        """Glue ta to the level-n2 trees its out-ray crosses; at a count's
        last level, file each proper crossing as a wall instead.  A wall
        stands for its trees, built only once needed (`_real`)."""
        X, r = ta.base, ta.out
        xr, same = wedge(X, r), 2 * n2 == level
        found = []          # (tb, fault reason or (deg, root, c))
        for deg_b, bucket in self._at_level[n2]:
            c = wedge(r, bucket[2])
            walls = ray_hits(bucket, X, r, c, xr, ta.marks)
            if not walls:
                continue
            deg = tuple(a + b for a, b in zip(ta.deg, deg_b))
            over = self.cap and any(x > y for x, y in zip(deg, self.cap))
            for tb, d, e in walls:
                if not c:
                    if X != tb.base and (on_ray(tb.base, X, r)
                                         or on_ray(X, tb.base, tb.out)):
                        found.append((tb, "collinear overlapping tree rays"))
                elif not (d or e):
                    continue        # shared root, contracted gluing
                elif d and e:
                    if over:
                        continue
                    root = hshift(X, d, X[2] * tb.base[2] * c, r)
                    hit = (tb, (deg, root, c))
                    if level == self.last:
                        self.levels[level].append(Tree(
                            self.allowed, deg, root, *self._out(deg), None,
                            "wall", None, (ta, [hit], same)))
                    else:
                        found.append(hit)
                else:
                    found.append((tb, "tree ray through another tree's root"))
        if found:
            self.levels[level] += self._glue(ta, found, same)

    def _glue(self, ta, found, same):
        """Yield the glue trees of ta's trees with those of each tb of
        found, in tb serial order, for the pairs with disjoint marks (and a
        smaller key first when same): a hit (deg, root, c) glues the pair
        at root, a fault reason raises."""
        for a in self._real(ta):
            for _, b, hit in sorted(
                    (b.serial, b, hit) for tb, hit in found
                    for b in self._real(tb)
                    if not (a.marks & b.marks or same and a.key >= b.key)):
                if isinstance(hit, str):
                    raise GenericityError(hit)
                deg, root, c = hit
                out, w = self._out(deg)
                ka, kb = sorted((a.key, b.key))
                mult = a.mult * b.mult * a.w * b.w * abs(c)
                yield self._add(Tree(a.marks | b.marks, deg, root, out, w,
                                     mult, "glue", (a, b), ("g", ka, kb)))

    def _check_walls_off_points(self):
        """Raise the fault of the lowest tree serial, then the lowest point
        index, whose wall passes through a marked point other than its
        root."""
        faults = [(u.serial, j) for bucket in self._buckets()
                  for j, p in enumerate(self.config.points)
                  for t in walls_through(bucket, p) if t.base != p
                  for u in self._real(t)]
        if faults:
            raise GenericityError(
                "tree wall passes through point %d" % min(faults)[1])

    def _buckets(self):
        return [b for filed in self._at_level.values() for _, b in filed]

    # -- Maslov-2 disks ----------------------------------------------------

    def pivot_disks(self):
        """The disks at the pivot that can pair, in tracing order.  A pivot
        pair splits the allowed marks, and a disk of degree m has |m| - 1
        marks: trace the disks with at most half of them, then for each
        group (mask1, m1) whose complement has more, the complement degree
        over the complement marks, so that each of its disks pairs."""
        k = sum(self.cap) - 1
        half = (k - 1) // 2
        disks = self.disks(self.pivot, self.allowed,
                           self.degrees(1, half + 1))
        for mask1, m1 in sorted({(d.marks, d.deg) for d in disks}):
            if k - sum(m1) > half:
                disks += self.disks(self.pivot, self.allowed & ~mask1, [
                    tuple(a - b for a, b in zip(self.cap, m1))])
        return disks

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
                    if t.kind != "wall":
                        hits.append((t.serial, V, t, left))
                    elif (t.parts is not None or sum(left) == 1
                          or self._goes_on(V, left, rmask & ~t.marks)):
                        hits += [(u.serial, V, u, left) for u in self._real(t)
                                 if not u.marks & skip]
                    continue
                for u in self._real(t):
                    if not u.marks & skip and (fault is None
                                               or u.serial < fault[0]):
                        fault = (u.serial, reason)
        if fault is not None:
            raise GenericityError(fault[1])
        hits.sort()         # by serial, which is unique
        by_point = {}
        for _, V, t, _ in hits:
            by_point.setdefault(V, []).append(t)
        for ts in by_point.values():
            # outs are nonzero, so all are parallel when all are to the first
            if any(wedge(ts[0].out, t.out) for t in ts[1:]):
                raise GenericityError("two transversal walls cross the stem "
                                      "at one point")
        for _, V, t, left in hits:
            steps.append((V, t, m))
            self._trace(X0, V, left, rmask & ~t.marks, steps, out)
            steps.pop()

    def _goes_on(self, X, m, rmask):
        """Does the stem X + s*r(m) meet a wall with no mark outside
        rmask?  If not, a stem carrying m from X bends nowhere."""
        r = self._rvec(m)
        xr, skip = wedge(X, r), ~rmask
        return any(ray_hits(bucket, X, r, c, xr, skip)
                   for _, bucket, c in self._candidates(m))

    def _emit(self, X0, m, steps, out):
        ridx = m.index(1)
        m_fin = steps[0][2] if steps else m
        marks = 0
        mult = 1
        for V, t, mm in steps:
            marks |= t.marks
            dn, w_dn = self._out(mm)
            mult *= t.mult * t.w * w_dn * abs(wedge(t.out, dn))
        u, w = self._out(m_fin)
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
    """All Maslov-2 disk records with boundary Q, a normalized triple, over
    the configuration; disk_to_curve turns one into a curve object.

    Q must avoid every tree wall; a wall through Q raises GenericityError.
    A caller that already holds build_forest(fan, config) passes it as
    `forest` to save building it again.
    """
    if forest is None:
        forest = build_forest(fan, config)
    if any(walls_through(b, Q) for b in forest._buckets()):
        raise GenericityError("base point lies on a tree wall")
    if Q in config.points:
        raise GenericityError("base point coincides with a marked point")
    return forest.disks(Q, forest.allowed, forest.degrees(
        1, bin(forest.allowed).count("1") + 1))


class CountReport:
    """Outcome of a count by either route, the pivot pairing or the
    oracle in bruteforce: its validated solutions, checked for repeats,
    ordered by (type, signature) and weighed."""

    def __init__(self, fan, deg, config, curves):
        sigs = [geometric_signature(c) for c in curves]
        if len(set(sigs)) != len(sigs):
            raise InvariantError("one solution found twice")
        types = [canonical_type(c) for c in curves]
        if len(set(types)) != len(types):
            raise GenericityError("two solutions share a combinatorial type")
        order = sorted(range(len(curves)), key=lambda i: (types[i], sigs[i]))
        self.fan = fan
        self.deg = deg
        self.config = config
        self.curves = [curves[i] for i in order]
        self.mults = [mikhalkin_multiplicity(c) for c in self.curves]
        self.wmults = [welschinger_multiplicity(c) for c in self.curves]
        self.n_trop = sum(self.mults)
        self.w_trop = sum(self.wmults)

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
    pivot_disks = forest.pivot_disks()
    pivot_disks.sort(key=lambda d: d.key)
    groups = {}
    for d in pivot_disks:
        groups.setdefault((d.marks, d.deg), []).append(d)
    curves = []
    points = dict(enumerate(config.points))
    for (mask1, m1), bunch in sorted(groups.items()):
        key2 = (others & ~mask1, tuple(a - b for a, b in zip(deg, m1)))
        if (mask1, m1) > key2:
            continue
        if (mask1, m1) == key2:
            raise InvariantError("self-complementary pivot group")
        for d1 in bunch:
            for d2 in groups.get(key2, ()):
                curve = _assemble_pair(d1, d2, pivot, pivot_point, fan)
                validate_curve(curve, fan, points=points)
                curves.append(curve)
    return CountReport(fan, deg, config, curves)


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
