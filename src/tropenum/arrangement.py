"""Exact planar overlay of rational segments and rays.

The overlay is the common refinement of everything added: collinear
pieces are merged where they overlap (their source tags union on the
shared part), every crossing becomes a vertex, each line is chopped into
atomic edges between consecutive vertices, and the 2-cells are traced
from the cyclic germ structure.  All coordinates stay exact; no epsilon
appears anywhere, so the complex is reproducible bit for bit.

The tracer insists on convex cells.  Inputs whose piece endpoints all
carry positively spanning germ sets (balanced tropical vertices, bases
of complete fan translates) satisfy this automatically; anything else,
a dangling edge or a T-junction say, raises InvariantError rather than
emit a cell that is not a polyhedron.
"""

from fractions import Fraction

from .lattice import (InvariantError, angle_key, hdiff, hfrac, hnorm, hpoint,
                      primitive, rot90, wedge)


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
    """Canonical key (a, b, c) of the line through P with direction d.

    (a, b) is the primitive normal made lexicographically positive and
    c = a*x + b*y (a Fraction) for any point (x, y) of the line.
    """
    n, _ = primitive(rot90(d))
    if n[0] < 0 or (n[0] == 0 and n[1] < 0):
        n = (-n[0], -n[1])
    x, y = hfrac(P)
    return (n[0], n[1], n[0] * x + n[1] * y)


def line_dir(key):
    """Canonical direction along the line with normal (a, b): (b, -a)."""
    return (key[1], -key[0])


def line_coord(key, P):
    """Coordinate of P along the line, the value of the functional
    (b, -a); monotone in the canonical direction but not unit speed."""
    x, y = hfrac(P)
    return key[1] * x - key[0] * y


def on_line(key, P):
    """Does the homogeneous point P lie on the line with this key?"""
    a, b, c = key
    return a * P[0] + b * P[1] == c * P[2]


def point_at(key, t):
    """The point of the line at parameter t, as a homogeneous triple."""
    a, b, c = key
    s = a * a + b * b
    return hpoint((a * c + t * b) / s, (b * c - t * a) / s)


def _covered(intervals, t):
    for lo, hi, _ in intervals:
        if (lo is None or lo <= t) and (hi is None or t <= hi):
            return True
    return False


def _span_tags(intervals, lo_q, hi_q):
    """Union of tags of intervals containing [lo_q, hi_q]; None endpoints
    of the query stand for minus/plus infinity."""
    tags = set()
    for lo, hi, tag in intervals:
        if lo is not None and (lo_q is None or lo > lo_q):
            continue
        if hi is not None and (hi_q is None or hi < hi_q):
            continue
        tags.update(tag)
    return tags


class Overlay:
    """Collects segments, rays and required points, then builds the
    refined complex.  Tags are arbitrary hashable labels recorded per
    atomic edge (unioned where sources overlap)."""

    def __init__(self):
        self._lines = {}
        self._points = []

    def _intervals(self, key):
        return self._lines.setdefault(key, [])

    def add_segment(self, A, B, tag):
        A = hnorm(*A)
        B = hnorm(*B)
        d = hdiff(A, B)
        if d == (0, 0):
            raise ValueError("zero-length segment")
        dp, _ = primitive(d)
        key = line_key(A, dp)
        ta = line_coord(key, A)
        tb = line_coord(key, B)
        if ta > tb:
            ta, tb = tb, ta
        self._intervals(key).append((ta, tb, frozenset([tag])))

    def add_ray(self, A, d, tag):
        A = hnorm(*A)
        dp, _ = primitive(d)
        key = line_key(A, dp)
        t = line_coord(key, A)
        if dp == line_dir(key):
            self._intervals(key).append((t, None, frozenset([tag])))
        else:
            self._intervals(key).append((None, t, frozenset([tag])))

    def add_point(self, P):
        self._points.append(hnorm(*P))

    def build(self):
        keys = sorted(self._lines.keys())
        events = {k: set() for k in keys}
        for k in keys:
            for lo, hi, _ in self._lines[k]:
                if lo is not None:
                    events[k].add(lo)
                if hi is not None:
                    events[k].add(hi)
        # crossings between material of distinct lines
        for i in range(len(keys)):
            a1, b1, c1 = keys[i]
            iv1 = self._lines[keys[i]]
            for j in range(i + 1, len(keys)):
                a2, b2, c2 = keys[j]
                den = a1 * b2 - a2 * b1
                if den == 0:
                    continue
                x = (c1 * b2 - c2 * b1) / den
                y = (a1 * c2 - a2 * c1) / den
                t1 = b1 * x - a1 * y
                t2 = b2 * x - a2 * y
                if _covered(iv1, t1) and _covered(self._lines[keys[j]], t2):
                    events[keys[i]].add(t1)
                    events[keys[j]].add(t2)
        for P in self._points:
            hit = False
            for k in keys:
                if on_line(k, P):
                    t = line_coord(k, P)
                    if _covered(self._lines[k], t):
                        events[k].add(t)
                        hit = True
            if not hit:
                raise InvariantError("required vertex misses the skeleton")

        vid = {}
        verts = []

        def vertex(P):
            if P not in vid:
                vid[P] = len(verts)
                verts.append(P)
            return vid[P]

        edges = []
        for k in keys:
            iv = self._lines[k]
            evs = sorted(events[k])
            if not evs:
                raise InvariantError("a line carries material but no vertex")
            d = line_dir(k)
            nd = (-d[0], -d[1])
            vids = [vertex(point_at(k, t)) for t in evs]
            tags = _span_tags(iv, None, evs[0])
            if tags:
                edges.append(("ray", vids[0], nd, frozenset(tags)))
            for n in range(len(evs) - 1):
                tags = _span_tags(iv, evs[n], evs[n + 1])
                if tags:
                    edges.append(("seg", vids[n], vids[n + 1], d,
                                  frozenset(tags)))
            tags = _span_tags(iv, evs[-1], None)
            if tags:
                edges.append(("ray", vids[-1], d, frozenset(tags)))

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
    faces = []
    for e in edges:
        if e[0] != "ray":
            continue
        v, din = e[1], e[2]
        g = cw_next(v, din)
        step_check((-din[0], -din[1]), g)
        chain = []
        while True:
            if (v, g) in used:
                raise InvariantError("face tracing revisits a germ")
            used.add((v, g))
            chain.append(v)
            _, w = germs[v][g]
            if w is None:
                if wedge(g, din) < 0:
                    raise InvariantError("unbounded cell is not convex")
                faces.append(("unbounded", tuple(chain), din, g))
                break
            rev = (-g[0], -g[1])
            ng = cw_next(w, rev)
            step_check(g, ng)
            v, g = w, ng
    for v0 in range(len(verts)):
        for g0 in order_dirs[v0]:
            if (v0, g0) in used:
                continue
            chain = []
            v, g = v0, g0
            while True:
                used.add((v, g))
                chain.append(v)
                _, w = germs[v][g]
                if w is None:
                    raise InvariantError("ray germ left over after tracing")
                rev = (-g[0], -g[1])
                ng = cw_next(w, rev)
                step_check(g, ng)
                v, g = w, ng
                if (v, g) == (v0, g0):
                    break
            area2 = Fraction(0)
            pts = [hfrac(verts[i]) for i in chain]
            for n in range(len(pts)):
                x1, y1 = pts[n]
                x2, y2 = pts[(n + 1) % len(pts)]
                area2 += x1 * y2 - x2 * y1
            if area2 <= 0:
                raise InvariantError("clockwise cell: no unbounded anchor")
            faces.append(("bounded", tuple(chain)))
    total = sum(len(dirs) for dirs in order_dirs)
    if len(used) != total:
        raise InvariantError("face tracing missed germs")
    return tuple(faces)
