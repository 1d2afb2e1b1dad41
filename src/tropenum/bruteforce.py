"""Independent rational-curve count via dual subdivision types.

A simple plane tropical curve is dual to a lattice subdivision of the Newton
polygon of its degree: 2-cells correspond to vertices, shared facets to
bounded edges (rotated a quarter turn, weighted by lattice length), boundary
facets to unbounded edges, crossings of the image to parallelograms.  A
crossing is a node and needs an interior lattice point, so a polygon with
one is refused (ValueError); without one, rational simple curves are dual
to triangulations whose dual graph is a tree.  This module enumerates every
lattice triangulation, places the marks on dual edges in all ways, and
solves each marked type in integers against the point configuration, by one
elimination (`lattice.eliminate`) and one product of its transform with a
right-hand side per assignment of the points to the marks.  That is a
completely different route to the count than the backward stem recursion in
enumeration.py, and it ends in the same CountReport.  Everything is
exponential in the polygon, so this is a small-degree cross-check.
"""

from itertools import combinations, permutations
from math import lcm
from operator import mul

from .fan import make_degree, newton_polygon
from .lattice import (dot, eliminate, hnorm, lattice_length, primitive,
                      rot90, wedge)
from .tropcurve import (GenericityError, InvariantError, ParamTropCurve,
                        validate_curve)
from .enumeration import CountReport, precheck_config


def _sub(a, b):
    return (b[0] - a[0], b[1] - a[1])


def lattice_points(poly):
    """Integer points of a convex CCW lattice polygon."""
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    n = len(poly)
    out = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if all(wedge(_sub(poly[i], poly[(i + 1) % n]),
                         _sub(poly[i], (x, y))) >= 0 for i in range(n)):
                out.append((x, y))
    return out


def _area2(tri):
    a, b, c = tri
    return wedge(_sub(a, b), _sub(a, c))


def _candidate_triangles(pts):
    out = []
    for a, b, c in combinations(sorted(pts), 3):
        ar = wedge(_sub(a, b), _sub(a, c))
        if ar == 0:
            continue
        out.append((a, b, c) if ar > 0 else (a, c, b))
    return out


def _in_closed(p, tri):
    return all(wedge(_sub(tri[i], tri[(i + 1) % 3]),
                     _sub(tri[i], p)) >= 0 for i in range(3))


def _is_edge(p, q, tri):
    for i in range(3):
        if {tri[i], tri[(i + 1) % 3]} == {p, q}:
            return True
    return False


def _faces_compatibly(a, b):
    """Do two CCW lattice triangles meet in a common face (or not at all)?

    Rejects interior overlap and every T-junction: the closed intersection
    must be empty, a vertex of both, or a full edge of both.
    """
    separated = False
    for tri, other in ((a, b), (b, a)):
        for i in range(3):
            d = _sub(tri[i], tri[(i + 1) % 3])
            if all(wedge(d, _sub(tri[i], v)) <= 0 for v in other):
                separated = True
                break
        if separated:
            break
    if not separated:
        return False
    contact = {v for v in a if _in_closed(v, b)}
    contact |= {v for v in b if _in_closed(v, a)}
    if not contact:
        return True
    if len(contact) == 1:
        v = contact.pop()
        return v in a and v in b
    if len(contact) == 2:
        p, q = contact
        return _is_edge(p, q, a) and _is_edge(p, q, b)
    return False


def triangulations(poly):
    """All lattice triangulations of a convex CCW lattice polygon.

    Cells are lattice triangles of any area; cell vertices need not exhaust
    the lattice points.  Pairwise facial compatibility plus an exact area
    total guarantee each result is a polyhedral subdivision.
    """
    pts = lattice_points(poly)
    tris = _candidate_triangles(pts)
    n = len(tris)
    target = 0
    for i in range(1, len(poly) - 1):
        target += wedge(_sub(poly[0], poly[i]), _sub(poly[0], poly[i + 1]))
    if target <= 0:
        raise ValueError("degenerate polygon")
    compat = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            compat[i][j] = compat[j][i] = _faces_compatibly(tris[i], tris[j])
    out = []
    chosen = []

    def rec(start, area):
        if area == target:
            out.append(tuple(tris[i] for i in chosen))
            return
        for i in range(start, n):
            if area + _area2(tris[i]) > target:
                continue
            if all(compat[i][j] for j in chosen):
                chosen.append(i)
                rec(i + 1, area + _area2(tris[i]))
                chosen.pop()

    rec(0, 0)
    return out


def dual_type(cells):
    """Dual graph of a triangulation: (internal, rays).

    internal: (c1, c2, dir, weight) with dir the primitive quarter-turn of
    the shared facet as c1 traverses it CCW, so the dual edge runs from the
    vertex of c1 toward the vertex of c2.  rays: (cell, dir, weight) for
    boundary facets.
    """
    facets = {}
    for ci, tri in enumerate(cells):
        for i in range(3):
            p, q = tri[i], tri[(i + 1) % 3]
            key = (p, q) if p < q else (q, p)
            facets.setdefault(key, []).append((ci, _sub(p, q)))
    internal, rays = [], []
    for key in sorted(facets):
        lst = facets[key]
        if len(lst) > 2:
            raise InvariantError("facet shared by %d cells" % len(lst))
        c1, f = lst[0]
        fhat, flen = primitive(f)
        if len(lst) == 2:
            internal.append((c1, lst[1][0], rot90(fhat), flen))
        else:
            rays.append((c1, rot90(fhat), flen))
    return internal, rays


def _isolates_every_end(nverts, internal, rays, marked):
    """Cut-component rule: removing the marked edges must leave each
    component with exactly one unbounded end.  Marked rays shed their end
    automatically, so their stub is not modeled."""
    parent = list(range(nverts))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx, (a, b, d, w) in enumerate(internal):
        if ("i", idx) not in marked:
            parent[find(a)] = find(b)
    ends = {}
    for idx, (c, d, w) in enumerate(rays):
        if ("r", idx) not in marked:
            root = find(c)
            ends[root] = ends.get(root, 0) + 1
    roots = {find(v) for v in range(nverts)}
    return all(ends.get(r, 0) == 1 for r in roots)


def bruteforce_rational_curves(fan, deg, config):
    """Count rational curves of degree deg through config by solving every
    marked dual subdivision type.  Returns the engine's CountReport;
    GenericityError means the configuration sits on a wall for some type
    or solves one to a family, ValueError that the Newton polygon has an
    interior lattice point."""
    deg = make_degree(fan, deg)
    k = len(config)
    poly = newton_polygon(fan, deg)
    if len(poly) < 3:
        raise ValueError("degree has a degenerate Newton polygon")
    edges = list(map(_sub, poly, poly[1:] + poly[:1]))
    # Pick: twice the interior points = 2 * area - boundary points + 2
    if sum(map(wedge, poly, edges)) - sum(map(lattice_length, edges)) + 2:
        raise ValueError("Newton polygon has an interior lattice point, "
                         "where solutions may cross themselves")
    precheck_config(fan, deg, config)
    # right-hand sides are integers over the common denominator den_b
    den_b = lcm(*(W for _, _, W in config.points))
    curves = []
    for cells in triangulations(poly):
        t = len(cells)
        internal, rays = dual_type(cells)
        if len(internal) != t - 1:
            continue        # dual graph has a cycle: positive genus
        slots = ([("i", i) for i in range(len(internal))]
                 + [("r", i) for i in range(len(rays))])
        nun = 2 * t
        off = len(internal)
        nrows = off + k
        if k > len(slots) or nrows < nun:
            continue        # too few slots, or no isolated solutions
        base_rows = []
        for a, b, d, w in internal:
            row = [0] * nun
            row[2 * b] += d[1]
            row[2 * b + 1] -= d[0]
            row[2 * a] -= d[1]
            row[2 * a + 1] += d[0]
            base_rows.append(row)
        slot_rows = []
        slot_rhs = []
        for kind, idx in slots:
            c, d = ((internal[idx][0], internal[idx][2]) if kind == "i"
                    else (rays[idx][0], rays[idx][1]))
            row = [0] * nun
            row[2 * c] += d[1]
            row[2 * c + 1] -= d[0]
            slot_rows.append(row)
            slot_rhs.append([(X * d[1] - Y * d[0]) * (den_b // W)
                             for X, Y, W in config.points])
        for subset in combinations(range(len(slots)), k):
            marked = {slots[i] for i in subset}
            if nrows == nun and not _isolates_every_end(t, internal, rays,
                                                        marked):
                continue
            pivots, _, T, D = eliminate(base_rows
                                        + [slot_rows[i] for i in subset])
            rank = len(pivots)
            if rank < nun and nrows == nun:
                raise InvariantError("rigid marked type is singular")
            # the right-hand side vanishes on the base rows, so only the
            # slot columns of T act on it
            cols = [row[off:] for row in T]
            for perm in permutations(range(k)):
                rhs = [slot_rhs[si][mi] for mi, si in zip(perm, subset)]
                if any(sum(map(mul, row, rhs)) for row in cols[rank:]):
                    continue
                if rank < nun:
                    raise GenericityError("marked type solved to a family")
                # full column rank: pivots are 0..nun-1, so x = T*b / D;
                # keep its numerators over D * den_b
                x = [sum(map(mul, row, rhs)) for row in cols[:nun]]
                curve = _realize(fan, internal, rays, slots, subset, perm,
                                 x, D * den_b, config)
                if curve is not None:
                    curves.append(curve)
    return CountReport(fan, deg, config, curves)


def _realize(fan, internal, rays, slots, subset, perm, x, E, config):
    """Check positivity and mark interiority, then build and validate the
    curve; None when the solved positions, x over E > 0, do not realize
    the type.

    A strict violation anywhere means the type is simply absent; an exact
    boundary hit with everything else realizable means the configuration
    sits on a wall, which is a genericity failure.
    """
    mark_on = {slots[si]: mi for mi, si in zip(perm, subset)}
    pos = list(zip(x[0::2], x[1::2]))
    pts = [(X * (E // W), Y * (E // W)) for X, Y, W in config.points]
    lengths = []
    boundary = False
    for idx, (a, b, d, w) in enumerate(internal):
        delta = (pos[b][0] - pos[a][0], pos[b][1] - pos[a][1])
        L = dot(delta, d)
        if L < 0:
            return None
        boundary = boundary or L == 0
        lengths.append(L)
    for slot, mi in mark_on.items():
        kind, idx = slot
        px, py = pts[mi]
        if kind == "i":
            a = internal[idx][0]
            d = internal[idx][2]
            s = dot((px - pos[a][0], py - pos[a][1]), d)
            if s < 0 or s > lengths[idx]:
                return None
            boundary = boundary or s == 0 or s == lengths[idx]
        else:
            c, d, w = rays[idx]
            if wedge((px - pos[c][0], py - pos[c][1]), d) != 0:
                raise InvariantError("ray mark escaped its constraint")
            s = dot((px - pos[c][0], py - pos[c][1]), d)
            if s < 0:
                return None
            boundary = boundary or s == 0
    if boundary:
        raise GenericityError("marked dual type solved onto a wall")
    verts = [hnorm(X, Y, E) for X, Y in pos]
    bedges = []
    uedges = []
    marks = []
    for idx, (a, b, d, w) in enumerate(internal):
        mi = mark_on.get(("i", idx))
        if mi is None:
            bedges.append((a, b, w, d))
            continue
        mv = len(verts)
        verts.append(config.points[mi])
        marks.append((mi, mv))
        bedges.append((a, mv, w, d))
        bedges.append((mv, b, w, d))
    for idx, (c, d, w) in enumerate(rays):
        mi = mark_on.get(("r", idx))
        if mi is None:
            uedges.append((c, d, w))
            continue
        mv = len(verts)
        verts.append(config.points[mi])
        marks.append((mi, mv))
        bedges.append((c, mv, w, d))
        uedges.append((mv, d, w))
    curve = ParamTropCurve(verts, bedges, uedges, marks)
    points = {i: p for i, p in enumerate(config.points)}
    validate_curve(curve, fan, points=points)
    return curve
