"""Exact planar overlay of rational segments and rays.

The overlay is the common refinement of everything added: collinear
pieces are merged where they overlap (their source tags union on the
shared part), every crossing becomes a vertex, each line is chopped into
atomic edges between consecutive vertices, and the 2-cells are traced
from the cyclic germ structure.  All coordinates stay exact; no epsilon
appears anywhere, so the complex is reproducible bit for bit.

Everything is computed in integers.  A line is keyed (a, b, C, W): (a, b)
is its primitive normal made lexicographically positive, and
a*x + b*y = C/W on it, with W > 0 and gcd(C, W) = 1.  A position along a
line is the value of the functional (b, -a), kept as an integer pair
(num, den) with den > 0.  Two positions compare by cross-multiplication,
and a list of them sorts on the exact integer keys of
`lattice.exact_shift`.  Piece ends, crossings and required points are
normalized homogeneous triples, and each crossing of two lines is solved
once, so a vertex is found by its triple.  Lines come in the order of
(a, b, C/W), and the vertices of a line in the order of their positions.

The tracer insists on convex cells.  Inputs whose piece endpoints all
carry positively spanning germ sets (balanced tropical vertices, bases
of complete fan translates) satisfy this automatically; anything else,
a dangling edge or a T-junction say, raises InvariantError rather than
emit a cell that is not a polyhedron.
"""

from math import gcd, lcm

from .lattice import (InvariantError, angle_key, dot, exact_shift, hdiff,
                      hnorm, primitive, rot90, wedge)


class PlanarComplex:
    """Vertices, atomic edges and traced faces of an overlay.

    vertices: tuple of homogeneous triples (X, Y, W)
    edges:    tuple of ("seg", a, b, dir, tags) and ("ray", a, dir, tags)
              with a, b vertex indices, dir primitive from a toward b or
              toward infinity, tags a frozenset of source labels
    faces:    tuple of ("bounded", cycle) and ("unbounded", chain, din, dout)
              listing vertex indices counterclockwise with the interior on
              the left; an unbounded face enters from infinity along the
              ray of direction din at chain[0] and leaves along dout at
              chain[-1], so its recession cone is spanned by dout and din
    """

    def __init__(self, vertices, edges, faces):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.faces = tuple(faces)

    def __repr__(self):
        return "PlanarComplex(%d vertices, %d edges, %d faces)" % (
            len(self.vertices), len(self.edges), len(self.faces))


def line_key(P, d):
    """Canonical key (a, b, C, W) of the line through the normalized
    triple P with direction d: (a, b) the primitive normal made
    lexicographically positive, a*x + b*y = C/W on the line, W > 0 and
    gcd(C, W) = 1."""
    n, _ = primitive(rot90(d))
    if n[0] < 0 or (n[0] == 0 and n[1] < 0):
        n = (-n[0], -n[1])
    C = n[0] * P[0] + n[1] * P[1]
    g = gcd(C, P[2])
    return (n[0], n[1], C // g, P[2] // g)


def line_dir(key):
    """Canonical direction along the line with normal (a, b): (b, -a)."""
    return (key[1], -key[0])


def line_coord(key, P):
    """Position of the normalized triple P along the line: the value
    (num, den) of the functional (b, -a), den > 0; monotone in the
    canonical direction but not unit speed."""
    return (key[1] * P[0] - key[0] * P[1], P[2])


def on_line(key, P):
    """Does the homogeneous point P lie on the line with this key?"""
    a, b, C, W = key
    return (a * P[0] + b * P[1]) * W == C * P[2]


def _covered(spans, num, den):
    """Does one of the position spans (lo, hi), None for an infinite end,
    contain the position num/den (den > 0)?"""
    for lo, hi in spans:
        if ((lo is None or lo[0] * den <= num * lo[1])
                and (hi is None or num * hi[1] <= hi[0] * den)):
            return True
    return False


class Overlay:
    """Collects segments, rays and required points, then builds the
    refined complex.  Points are normalized triples, kept as given.  Tags
    are arbitrary hashable labels recorded per atomic edge (unioned where
    sources overlap)."""

    def __init__(self):
        # line key -> pieces (lo, hi, tags), ends as triples ordered along
        # the canonical direction, None for an infinite end
        self._lines = {}
        self._points = []

    def _add(self, key, lo, hi, tag):
        self._lines.setdefault(key, []).append((lo, hi, frozenset([tag])))

    def add_segment(self, A, B, tag):
        d = hdiff(A, B)
        if d == (0, 0):
            raise ValueError("zero-length segment")
        key = line_key(A, d)
        if dot(d, line_dir(key)) < 0:
            A, B = B, A
        self._add(key, A, B, tag)

    def add_ray(self, A, d, tag):
        dp, _ = primitive(d)
        key = line_key(A, dp)
        if dp == line_dir(key):
            self._add(key, A, None, tag)
        else:
            self._add(key, None, A, tag)

    def add_point(self, P):
        self._points.append(P)

    def build(self):
        K = exact_shift(k[3] for k in self._lines)
        keys = sorted(self._lines,
                      key=lambda k: (k[0], k[1], (k[2] << K) // k[3]))
        events = {}
        spans = {}
        for k in keys:
            pieces = self._lines[k]
            events[k] = {P for lo, hi, _ in pieces for P in (lo, hi)
                         if P is not None}
            spans[k] = [tuple(None if P is None else line_coord(k, P)
                              for P in (lo, hi)) for lo, hi, _ in pieces]
        # crossings between material of distinct lines: the point
        # (X/D, Y/D) solves a1*x + b1*y = c1/w1 and a2*x + b2*y = c2/w2
        for i, k1 in enumerate(keys):
            a1, b1, c1, w1 = k1
            s1 = spans[k1]
            for k2 in keys[i + 1:]:
                a2, b2, c2, w2 = k2
                den = a1 * b2 - a2 * b1
                if den == 0:
                    continue
                X = c1 * w2 * b2 - c2 * w1 * b1
                Y = a1 * c2 * w1 - a2 * c1 * w2
                D = w1 * w2 * den
                if D < 0:
                    X, Y, D = -X, -Y, -D
                if (_covered(s1, b1 * X - a1 * Y, D)
                        and _covered(spans[k2], b2 * X - a2 * Y, D)):
                    P = hnorm(X, Y, D)
                    events[k1].add(P)
                    events[k2].add(P)
        for P in self._points:
            hit = False
            for k in keys:
                if on_line(k, P) and _covered(spans[k], *line_coord(k, P)):
                    events[k].add(P)
                    hit = True
            if not hit:
                raise InvariantError("required vertex misses the skeleton")

        vid = {}
        verts = []
        edges = []
        for k in keys:
            if not events[k]:
                raise InvariantError("a line carries material but no vertex")
            K = exact_shift(P[2] for P in events[k])
            evs = sorted(events[k], key=lambda P: (
                (k[1] * P[0] - k[0] * P[1]) << K) // P[2])
            rank = {P: n for n, P in enumerate(evs)}
            for P in evs:
                if P not in vid:
                    vid[P] = len(verts)
                    verts.append(P)
            vids = [vid[P] for P in evs]
            # slot 0 is the ray before evs[0], slot n + 1 the segment from
            # evs[n] to evs[n + 1] and slot len(evs) the ray after evs[-1]
            slots = [set() for _ in range(len(evs) + 1)]
            for lo, hi, tags in self._lines[k]:
                first = 0 if lo is None else rank[lo] + 1
                last = len(evs) if hi is None else rank[hi]
                for s in range(first, last + 1):
                    slots[s] |= tags
            d = line_dir(k)
            if slots[0]:
                edges.append(("ray", vids[0], (-d[0], -d[1]),
                              frozenset(slots[0])))
            for n in range(len(evs) - 1):
                if slots[n + 1]:
                    edges.append(("seg", vids[n], vids[n + 1], d,
                                  frozenset(slots[n + 1])))
            if slots[-1]:
                edges.append(("ray", vids[-1], d, frozenset(slots[-1])))

        faces = _trace_faces(verts, edges)
        return PlanarComplex(verts, edges, faces)


def _trace_faces(verts, edges):
    germs = [dict() for _ in verts]
    for ei, e in enumerate(edges):
        if e[0] == "seg":
            _, a, b, d, _ = e
            rd = (-d[0], -d[1])
            if d in germs[a] or rd in germs[b]:
                raise InvariantError("duplicate germ: edges overlap")
            germs[a][d] = (ei, b)
            germs[b][rd] = (ei, a)
        else:
            _, a, d, _ = e
            if d in germs[a]:
                raise InvariantError("duplicate germ: edges overlap")
            germs[a][d] = (ei, None)
    order_dirs = []
    pos = []
    for v in range(len(verts)):
        dirs = sorted(germs[v], key=angle_key)
        if len(dirs) < 2:
            raise InvariantError("dangling edge at a vertex")
        order_dirs.append(dirs)
        pos.append({d: n for n, d in enumerate(dirs)})

    def cw_next(v, d):
        dirs = order_dirs[v]
        return dirs[(pos[v][d] - 1) % len(dirs)]

    def step_check(cur, nxt):
        c = wedge(cur, nxt)
        if c < 0:
            raise InvariantError("reflex corner: cell is not convex")
        if c == 0:
            raise InvariantError("flat corner on a cell boundary")

    used = set()

    def walk(v, g, stop):
        # the face left of germ g at v, turning clockwise at each corner,
        # up to a ray germ (returned) or back to the germ stop (None)
        chain = []
        while True:
            if (v, g) in used:
                raise InvariantError("face tracing revisits a germ")
            used.add((v, g))
            chain.append(v)
            _, w = germs[v][g]
            if w is None:
                return chain, g
            ng = cw_next(w, (-g[0], -g[1]))
            step_check(g, ng)
            v, g = w, ng
            if (v, g) == stop:
                return chain, None

    faces = []
    for e in edges:
        if e[0] != "ray":
            continue
        v, din = e[1], e[2]
        g = cw_next(v, din)
        step_check((-din[0], -din[1]), g)
        chain, dout = walk(v, g, None)
        if wedge(dout, din) < 0:
            raise InvariantError("unbounded cell is not convex")
        faces.append(("unbounded", tuple(chain), din, dout))
    for v0 in range(len(verts)):
        for g0 in order_dirs[v0]:
            if (v0, g0) in used:
                continue
            chain, dout = walk(v0, g0, (v0, g0))
            if dout is not None:
                raise InvariantError("ray germ left over after tracing")
            # twice the area, times L*L: the vertices scaled by L = lcm of
            # their W are integer points
            L = lcm(*(verts[i][2] for i in chain))
            pts = [(verts[i][0] * (L // verts[i][2]),
                    verts[i][1] * (L // verts[i][2])) for i in chain]
            area2 = sum(wedge(p, q) for p, q in zip(pts, pts[1:] + pts[:1]))
            if area2 <= 0:
                raise InvariantError("clockwise cell: no unbounded anchor")
            faces.append(("bounded", tuple(chain)))
    total = sum(len(dirs) for dirs in order_dirs)
    if len(used) != total:
        raise InvariantError("face tracing missed germs")
    return tuple(faces)
