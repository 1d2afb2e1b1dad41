"""Parametrized marked tropical curves in the plane.

A curve is a finite graph with straight edges: vertices carry exact rational
positions, bounded edges a weight and a primitive direction, unbounded edges a
weight and a direction along a fan ray.  Marked points sit at distinguished
vertices whose marked edges are contracted (weight zero), so balancing forces
a marked vertex to be a straight point of the image.  Disks additionally carry
a univalent boundary vertex at which balancing is allowed to fail; trees carry
a distinguished unbounded out-edge excluded from the degree.

Multiplicities: at a trivalent vertex with outgoing weighted primitive
directions (w1,v1),(w2,v2),(w3,v3), the vertex multiplicity is w1*w2*|v1^v2|,
independent of the chosen pair by balancing (asserted).  The curve
multiplicity is the product over trivalent vertices; the real (signed) count
weight is 0 for even multiplicity m and (-1)^((m-1)/2) otherwise.
"""

from collections import defaultdict

from .lattice import (GenericityError, InvariantError, dot, hdiff, hpoint,
                      lattice_length, on_ray, on_segment, primitive, wedge)


class ParamTropCurve:
    """Marked parametrized tropical curve (graph + exact plane positions).

    vertices: tuple of normalized triples (X, Y, W), kept as given
    bedges:   tuple of (i, j, weight, dir) with dir primitive, oriented i->j
    uedges:   tuple of (i, dir, weight)
    marks:    tuple of (label, vertex_index), sorted by label
    vout:     boundary vertex index (disks) or None
    out_edge: index into uedges of a tree's distinguished out-edge, or None
    incidence: per vertex, its edge ends (weight, outgoing dir, far vertex
               or None for a ray, edge index, side 0 at i or 1 at j),
               bounded edges first in index order, then rays
    """

    def __init__(self, vertices, bedges, uedges, marks, vout=None,
                 out_edge=None):
        self.vertices = tuple(vertices)
        self.bedges = tuple((i, j, int(w), (int(d[0]), int(d[1])))
                            for i, j, w, d in bedges)
        self.uedges = tuple((i, (int(d[0]), int(d[1])), int(w))
                            for i, d, w in uedges)
        self.marks = tuple(sorted((int(l), int(v)) for l, v in marks))
        self.vout = vout
        self.out_edge = out_edge
        ends = defaultdict(list)
        for e, (i, j, w, d) in enumerate(self.bedges):
            ends[i].append((w, d, j, e, 0))
            ends[j].append((w, (-d[0], -d[1]), i, e, 1))
        for e, (i, d, w) in enumerate(self.uedges):
            ends[i].append((w, d, None, e, 0))
        # an end at a vertex index out of range is left to validate_curve
        self.incidence = tuple(tuple(ends[v])
                               for v in range(len(self.vertices)))

    def germs(self, v):
        """Outgoing (weight, direction) germs of real edges at vertex v."""
        return [(w, d) for w, d, _, _, _ in self.incidence[v]]

    def __repr__(self):
        return ("ParamTropCurve(%d vertices, %d bounded, %d unbounded, "
                "%d marks)" % (len(self.vertices), len(self.bedges),
                               len(self.uedges), len(self.marks)))


class TropicalDisk(ParamTropCurve):
    """Curve with a univalent boundary vertex vout; unbalanced there."""


class TropicalTree(ParamTropCurve):
    """Curve with a distinguished unbounded out-edge (not part of the degree)."""


def check_balancing(c):
    """List of vertices where sum of w*dir fails to vanish (vout exempt);
    empty list means the curve is balanced."""
    bad = []
    for v in range(len(c.vertices)):
        if v == c.vout:
            continue
        sx = sy = 0
        for w, (dx, dy) in c.germs(v):
            sx += w * dx
            sy += w * dy
        if (sx, sy) != (0, 0):
            bad.append(v)
    return bad


def degree(c, fan):
    """Degree tuple of c in T_Sigma; tree out-edges are excluded.

    Every counted unbounded edge must point along a fan ray; its weight adds
    to that ray's coefficient.
    """
    ray_index = {r: i for i, r in enumerate(fan.rays)}
    d = [0] * fan.nrays()
    for idx, (v, dirn, w) in enumerate(c.uedges):
        if c.out_edge == idx:
            continue
        p, k = primitive(dirn)
        if p not in ray_index:
            raise InvariantError("unbounded edge direction %r is not a ray"
                                 % (dirn,))
        d[ray_index[p]] += w * k
    return tuple(d)


def genus(c):
    """First Betti number; requires connectedness."""
    n = len(c.vertices)
    seen = [False] * n
    stack = [0] if n else []
    while stack:
        v = stack.pop()
        if seen[v]:
            continue
        seen[v] = True
        stack.extend(u for _, _, u, _, _ in c.incidence[v]
                     if u is not None and not seen[u])
    if not all(seen):
        raise InvariantError("curve graph is disconnected")
    return len(c.bedges) - n + 1


def vertex_multiplicity(germs):
    """Mikhalkin multiplicity of a trivalent vertex from its outgoing germs."""
    if len(germs) != 3:
        raise InvariantError("vertex multiplicity needs a trivalent vertex")
    (w1, v1), (w2, v2), (w3, v3) = germs
    m12 = w1 * w2 * abs(wedge(v1, v2))
    m13 = w1 * w3 * abs(wedge(v1, v3))
    m23 = w2 * w3 * abs(wedge(v2, v3))
    if not (m12 == m13 == m23):
        raise InvariantError("pairing mismatch at trivalent vertex: %r"
                             % ((m12, m13, m23),))
    if m12 == 0:
        raise InvariantError("degenerate trivalent vertex (parallel germs)")
    return m12


def mikhalkin_multiplicity(c):
    """Product of vertex multiplicities over trivalent unmarked vertices.

    Marked vertices are straight points of the image (contracted marked edge),
    and a disk's boundary vertex is univalent; both contribute 1.
    """
    marked = {v for _, v in c.marks}
    mult = 1
    for v in range(len(c.vertices)):
        if v == c.vout or v in marked:
            continue
        g = c.germs(v)
        if len(g) == 3:
            mult *= vertex_multiplicity(g)
        elif len(g) > 3:
            raise InvariantError("vertex %d has valence %d > 3" % (v, len(g)))
    return mult


def welschinger_multiplicity(c):
    m = mikhalkin_multiplicity(c)
    if m % 2 == 0:
        return 0
    return -1 if ((m - 1) // 2) % 2 else 1


def validate_curve(c, fan, points=None):
    """Structural and genericity validation of a marked curve or disk.

    Construction bugs raise InvariantError; generic-position failures
    (coincident vertices, overlapping edges, a vertex interior to a foreign
    edge) raise GenericityError.  `points` maps mark labels to normalized
    triples, each compared with its mark's vertex as it is.
    """
    n = len(c.vertices)
    for i, j, w, d in c.bedges:
        if not (0 <= i < n and 0 <= j < n):
            raise InvariantError("edge endpoint out of range")
        if w < 1:
            raise InvariantError("bounded edge weight < 1")
        p, _ = primitive(d)
        if p != d:
            raise InvariantError("edge direction not primitive")
        delta = hdiff(c.vertices[i], c.vertices[j])
        if wedge(delta, d) != 0:
            raise InvariantError("edge endpoints not aligned with direction")
        if delta[0] * d[0] + delta[1] * d[1] <= 0:
            raise InvariantError("edge has nonpositive length along direction")
    for v, d, w in c.uedges:
        if not 0 <= v < n:
            raise InvariantError("ray endpoint out of range")
        if w < 1:
            raise InvariantError("unbounded edge weight < 1")
    bad = check_balancing(c)
    if bad:
        raise InvariantError("balancing fails at vertices %r" % (bad,))
    marked = set()
    for label, v in c.marks:
        if v in marked:
            raise GenericityError("two marks at one vertex")
        if v == c.vout:
            raise InvariantError("mark at the boundary vertex")
        marked.add(v)
    if points is not None:
        for label, v in c.marks:
            if c.vertices[v] != points[label]:
                raise InvariantError("mark %d not at its point" % label)
    for v in range(n):
        val = len(c.germs(v))
        if v == c.vout:
            if val != 1:
                raise InvariantError("boundary vertex valence %d != 1" % val)
        elif v in marked:
            if val != 2:
                raise GenericityError("marked vertex valence %d != 2" % val)
        else:
            if val not in (1, 3):
                raise InvariantError("unmarked vertex valence %d" % val)
            if val == 1:
                raise InvariantError("univalent unmarked vertex %d" % v)
    if genus(c) != 0:
        raise InvariantError("curve has positive genus")
    degree(c, fan)  # every counted unbounded edge must follow a fan ray
    for idx, (v, dirn, w) in enumerate(c.uedges):
        if idx != c.out_edge and w != 1:
            raise GenericityError("unbounded edge of weight %d" % w)
    if len(set(c.vertices)) != n:
        raise GenericityError("two vertices at the same point")
    _check_no_overlaps(c)
    return True


def _check_no_overlaps(c):
    """No two edges share more than a point, and no vertex lies inside an
    edge that does not end at it.  A bounded edge is tested as its segment
    and a ray as a ray, exactly.  validate_curve has already checked that
    the vertices are distinct and the bounded edges of positive length."""
    V = c.vertices
    pieces = [((V[i], V[j]), hdiff(V[i], V[j]), (i, j))
              for i, j, _, _ in c.bedges]
    pieces += [((V[v],), d, (v, None)) for v, d, _ in c.uedges]

    def inside(P, ends, d):
        if len(ends) == 1:
            return on_ray(P, ends[0], d, strict=True)
        return on_segment(P, ends[0], ends[1], strict=True)

    for a, (ea, da, _) in enumerate(pieces):
        for eb, db, _ in pieces[a + 1:]:
            if wedge(da, db) or wedge(da, hdiff(ea[0], eb[0])):
                continue
            # collinear: overlap iff the pieces share more than a point;
            # two rays from one base do iff they point the same way
            if (any(inside(P, ea, da) for P in eb)
                    or any(inside(P, eb, db) for P in ea)
                    or set(ea) == set(eb)
                    and (len(ea) == 2 or dot(da, db) > 0)):
                raise GenericityError("overlapping collinear edges")
    for ends, d, incident in pieces:
        for v, P in enumerate(V):
            if v not in incident and inside(P, ends, d):
                raise GenericityError("vertex %d interior to an edge" % v)
    return True


def canonical_type(c):
    """Canonical encoding of the combinatorial type: the marked weighted
    graph with edge directions, up to isomorphism respecting marks.  Curves
    here are trees, so a minimal rooted encoding over all roots is canonical.
    A disk's boundary vertex carries the label -1, below every mark, so
    that labels compare as ints.  The encoding of the subtree at v away
    from its parent is made once per directed edge and shared by every
    root.
    """
    n = len(c.vertices)
    labels = [[] for _ in range(n)]
    for label, v in c.marks:
        labels[v].append(label)
    if c.vout is not None:
        labels[c.vout].append(-1)
    memo = {}

    def enc(v, parent):
        got = memo.get((v, parent))
        if got is None:
            ends = c.incidence[v]
            subs = sorted(enc(u, v) + ((w, d),)
                          for w, d, u, _, _ in ends
                          if u is not None and u != parent)
            leaf = sorted(("eout" if e == c.out_edge else "ray", d, w)
                          for w, d, u, e, _ in ends if u is None)
            got = memo[v, parent] = (tuple(sorted(labels[v], key=str)),
                                     tuple(leaf), tuple(subs))
        return got

    return min(repr(enc(v, -1)) for v in range(n))


def geometric_signature(c):
    """Exact-position signature: equal signatures mean equal marked images."""
    bed = []
    for i, j, w, d in c.bedges:
        a, b = c.vertices[i], c.vertices[j]
        if a <= b:
            bed.append((a, b, w))
        else:
            bed.append((b, a, w))
    ued = sorted((c.vertices[v], d, w) for v, d, w in c.uedges)
    mks = tuple((label, c.vertices[v]) for label, v in c.marks)
    return (tuple(sorted(bed)), tuple(ued), mks,
            None if c.vout is None else c.vertices[c.vout])


class MinPlusPoly:
    """Tropical polynomial: terms (coefficient, exponent pair), combined with
    min (default) or max and +."""

    def __init__(self, terms):
        from fractions import Fraction
        seen = set()
        tt = []
        for a, n in terms:
            nn = (int(n[0]), int(n[1]))
            if nn in seen:
                raise ValueError("repeated exponent %r" % (nn,))
            seen.add(nn)
            tt.append((Fraction(a), nn))
        if not tt:
            raise ValueError("empty tropical polynomial")
        self.terms = tuple(tt)

    def value(self, z, convention="min"):
        vals = [a + n[0] * z[0] + n[1] * z[1] for a, n in self.terms]
        return min(vals) if convention == "min" else max(vals)


class CornerLocus:
    """Weighted piecewise-linear graph: where a tropical polynomial's minimum
    (or maximum) is achieved at least twice."""

    def __init__(self, vertices, segments, rays, lines):
        self.vertices = tuple(vertices)
        self.segments = tuple(segments)   # (P, Q, weight) homogeneous ends
        self.rays = tuple(rays)           # (P, dir, weight)
        self.lines = tuple(lines)         # (P, dir, weight), full lines


def _strict_feasible_1d(cons):
    # cons: (a, b) meaning a*t < b; exact Fraction feasibility
    from fractions import Fraction
    lo, hi = None, None
    for a, b in cons:
        if a == 0:
            if b <= 0:
                return False
        elif a > 0:
            t = Fraction(b, a)
            hi = t if hi is None else min(hi, t)
        else:
            t = Fraction(b, a)
            lo = t if lo is None else max(lo, t)
    if lo is None or hi is None:
        return True
    return lo < hi


def _strict_feasible_2d(cons):
    # cons: (cx, cy, b) meaning cx*x + cy*y < b; Fourier-Motzkin on x
    from fractions import Fraction
    ycons = []
    lowers, uppers = [], []
    for cx, cy, b in cons:
        if cx == 0:
            ycons.append((cy, b))
        elif cx > 0:
            uppers.append((Fraction(-cy, cx), Fraction(b, cx)))
        else:
            lowers.append((Fraction(-cy, cx), Fraction(b, cx)))
    for la, lb in lowers:
        for ua, ub in uppers:
            # lb + la*y < x < ub + ua*y strictly feasible in x
            ycons.append((la - ua, ub - lb))
    return _strict_feasible_1d(ycons)


def corner_locus(f, convention="min"):
    """Corner locus of a tropical polynomial, as a CornerLocus.

    For min: term i defines the full-dimensional linearity region where
    a_i + n_i.z is the strict minimum somewhere; the locus is the union of
    shared facets of pairs of such regions, the facet of the pair (i, j)
    carrying weight equal to the lattice length of n_i - n_j.  Max is min of
    the negated polynomial at the same locus.
    """
    from fractions import Fraction
    if convention not in ("min", "max"):
        raise ValueError("convention must be 'min' or 'max'")
    terms = [(a, n) for a, n in f.terms]
    if convention == "max":
        terms = [(-a, (-n[0], -n[1])) for a, n in terms]
    if len(terms) == 1:
        return CornerLocus((), (), (), ())
    full = []
    for i, (ai, ni) in enumerate(terms):
        cons = []
        for j, (aj, nj) in enumerate(terms):
            if i == j:
                continue
            cons.append((ni[0] - nj[0], ni[1] - nj[1], aj - ai))
        if _strict_feasible_2d(cons):
            full.append(i)
    segments, rays, lines, verts = [], [], [], set()
    for a in range(len(full)):
        for b in range(a + 1, len(full)):
            i, j = full[a], full[b]
            ai, ni = terms[i]
            aj, nj = terms[j]
            nd = (ni[0] - nj[0], ni[1] - nj[1])
            if nd == (0, 0):
                continue
            w = lattice_length(nd)
            # line (ni - nj).z = aj - ai, parametrized z0 + t*dline
            rhs = aj - ai
            if nd[0] != 0:
                z0 = (Fraction(rhs, nd[0]), Fraction(0))
            else:
                z0 = (Fraction(0), Fraction(rhs, nd[1]))
            dline, _ = primitive((-nd[1], nd[0]))
            lo, hi = None, None
            empty = False
            for k, (ak, nk) in enumerate(terms):
                if k in (i, j):
                    continue
                # (ni - nk).(z0 + t*dline) <= ak - ai
                cx = ni[0] - nk[0]
                cy = ni[1] - nk[1]
                coef = cx * dline[0] + cy * dline[1]
                bound = (ak - ai) - (cx * z0[0] + cy * z0[1])
                if coef == 0:
                    if bound < 0:
                        empty = True
                        break
                elif coef > 0:
                    t = Fraction(bound, coef)
                    hi = t if hi is None else min(hi, t)
                else:
                    t = Fraction(bound, coef)
                    lo = t if lo is None else max(lo, t)
            if empty:
                continue
            if lo is not None and hi is not None and lo >= hi:
                continue

            def at(t):
                return hpoint(z0[0] + t * dline[0], z0[1] + t * dline[1])

            if lo is None and hi is None:
                lines.append((at(Fraction(0)), dline, w))
            elif lo is None:
                rays.append((at(hi), (-dline[0], -dline[1]), w))
                verts.add(at(hi))
            elif hi is None:
                rays.append((at(lo), dline, w))
                verts.add(at(lo))
            else:
                P, Q = at(lo), at(hi)
                segments.append((P, Q, w))
                verts.add(P)
                verts.add(Q)
    return CornerLocus(tuple(sorted(verts)), segments, rays, lines)
