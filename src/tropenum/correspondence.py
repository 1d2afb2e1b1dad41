"""Lattice data of a counted curve and the induced plane degeneration.

Half of this module is per-solution arithmetic.  A rigid marked solution
determines a map of lattices Phi from the vertex displacements of its
reduced graph (marked edges removed, the bivalent vertices left behind
smoothed away) into the quotient lattices of its bounded edges and
markings.  The cokernel order d of Phi, times the log count w (product
of bounded reduced-edge weights, with an extra factor for the edge under
each marking), equals the vertex multiplicity of the curve: d * w = Mult.

The other half is global: the union of all solutions of a count, with a
translate of the fan at every marked point, generates a polyhedral
decomposition of the plane.  That decomposition can be rescaled to an
integral one and coned off to a fan in one dimension higher whose
height-1 slice returns the decomposition and whose height-0 subfan is
the surface fan.  The global half imports `arrangement` where it uses it,
so a process that only checks Phi does not load the overlay.
"""

from math import lcm, prod

from .lattice import (as_hpoint, exact_shift, hnorm, primitive, rot90,
                      smith_normal_form)
from .tropcurve import InvariantError, mikhalkin_multiplicity


# ---------------------------------------------------------------------------
# the reduced graph

def reduced_graph(c):
    """Reduced graph of a marked curve.

    Marked edges are removed and each resulting bivalent vertex is
    smoothed away by concatenating its two edges (marks sit at straight
    bivalent vertices, so every concatenated edge is a straight segment
    or ray).  Returns (verts, edges): verts the surviving vertex indices
    of c, and per reduced edge a record (a, b, u, weight, marks).  The
    edge leaves vertex a along the primitive direction u of its first
    piece, read from the incidence table, and ends at vertex b, or at
    infinity when b is None.  On a line with no vertex a and b are None.
    Unless b alone is None, u is lexicographically positive.  marks lists
    the labels absorbed into the edge, sorted.
    """
    marked = {}
    for label, vi in c.marks:
        if vi in marked:
            raise InvariantError("two marks on one vertex")
        marked[vi] = label
    if any(len(c.incidence[vi]) != 2 for vi in marked):
        raise InvariantError("marked vertex is not bivalent")
    done = set()        # pieces walked, as (is a ray, edge index)
    edges = []

    def walk(a, w, end, labels):
        # from a (None: a ray at infinity) along the incidence end `end`,
        # through marked vertices to an unmarked one or to infinity
        u = end[1]
        while True:
            wp, _, b, e, s = end
            done.add((b is None, e))
            if wp != w:
                raise InvariantError("weight jumps across a marked point")
            if b not in marked:
                break
            labels.append(marked[b])
            # the end we arrive at is bounded, and bounded ends come first
            x, y = c.incidence[b]
            end = y if x[3:] == (e, 1 - s) else x
        if u < (0, 0) and (a is None) == (b is None):
            a, b, u = b, a, (-u[0], -u[1])
        edges.append((a, b, u, w, tuple(sorted(labels))))

    verts = [i for i in range(len(c.vertices)) if i not in marked]
    for a in verts:
        for end in c.incidence[a]:
            if (end[2] is None, end[3]) not in done:
                walk(a, end[0], end, [])
    for vi, label in marked.items():
        ends = c.incidence[vi]
        for k, end in enumerate(ends):
            if end[2] is None and (True, end[3]) not in done:
                # a line through marks alone: walk it from this ray
                done.add((True, end[3]))
                walk(None, end[0], ends[1 - k], [label])
    if len(done) != len(c.bedges) + len(c.uedges):
        raise InvariantError("reduced graph left a closed loop")
    return verts, edges

# ---------------------------------------------------------------------------
# the lattice map

def _lexpos(n):
    if n[0] < 0 or (n[0] == 0 and n[1] < 0):
        return (-n[0], -n[1])
    return n


class PhiSystem:
    """The lattice map of a rigid solution, in explicit bases.

    verts: the unmarked vertex indices; vertex verts[k] owns columns
           2k, 2k+1 (its displacement in M)
    rows:  one integer row per bounded reduced edge, then one per mark;
           each row reads the quotient M/Zu through the lex-positive
           primitive normal of u
    row_labels: ("edge", v_minus, v_plus) and ("mark", label) in row order
    factors: the invariant factors of rows (lattice.smith_normal_form)
    """

    def __init__(self, curve, verts, rows, row_labels, factors):
        self.curve = curve
        self.verts = tuple(verts)
        self.rows = tuple(tuple(r) for r in rows)
        self.row_labels = tuple(row_labels)
        self.factors = tuple(factors)

    def shape(self):
        return (len(self.rows), 2 * len(self.verts))

    def __repr__(self):
        return "PhiSystem(%d rows, %d cols)" % self.shape()


def build_phi(c):
    """The map Phi of a marked solution, as an integer matrix.

    A displacement H of the reduced-graph vertices goes to the classes of
    H(v+) - H(v-) in M/Zu for every bounded reduced edge, v- its end a
    and v+ its end b, and of H(a) in M/Zu for every mark on an edge with
    a vertex a.  Raises InvariantError when the map has a kernel, which
    would mean the curve deforms and was never rigid.
    """
    verts, edges = reduced_graph(c)
    col = {vi: 2 * k for k, vi in enumerate(verts)}
    ncols = 2 * len(verts)
    bounded = []
    by_mark = {}
    for a, b, u, _, labels in edges:
        if b is not None:
            bounded.append((col[a], col[b], u))
        # on a line with no vertex a mark constrains nothing Phi can see
        for lb in labels:
            by_mark[lb] = None if a is None else (col[a], u)

    bounded.sort()
    rows = []
    row_labels = []
    for ca, cb, u in bounded:
        n = _lexpos(rot90(u))
        row = [0] * ncols
        row[cb] += n[0]
        row[cb + 1] += n[1]
        row[ca] -= n[0]
        row[ca + 1] -= n[1]
        rows.append(row)
        row_labels.append(("edge", ca // 2, cb // 2))
    for label, _ in c.marks:
        row = [0] * ncols
        spot = by_mark[label]
        if spot is not None:
            cm, u = spot
            row[cm], row[cm + 1] = _lexpos(rot90(u))
        rows.append(row)
        row_labels.append(("mark", label))
    factors = smith_normal_form(rows)
    if len(factors) != ncols:
        raise InvariantError("lattice map has a kernel: curve is not rigid")
    return PhiSystem(c, verts, rows, row_labels, factors)


def index_d(sys):
    """Cokernel order of Phi, a positive integer: the product of its
    invariant factors, finite when there is one per row."""
    if len(sys.factors) < len(sys.rows):
        raise InvariantError("infinite cokernel contradicts rigidity")
    return prod(sys.factors)


def log_count_w(c):
    """Number of log enhancements of a stable map over the solution: the
    product of the bounded reduced-edge weights, with one extra factor of
    its edge's weight for every mark."""
    out = 1
    for _, b, _, w, labels in reduced_graph(c)[1]:
        out *= w ** (len(labels) + (b is not None))
    return out


def verify_correspondence(c):
    """Does index * log count equal the vertex multiplicity, exactly?"""
    return index_d(build_phi(c)) * log_count_w(c) == mikhalkin_multiplicity(c)


# ---------------------------------------------------------------------------
# the decomposition spanned by all solutions

class PolyDecomp:
    """A polyhedral decomposition of the plane, cells all rational.

    Same encodings as PlanarComplex (vertices, edges, faces), plus the
    marked points that seeded it and the lattice rescale factor applied
    so far (1 until rescale_lattice).
    """

    def __init__(self, vertices, edges, faces, points, scale=1):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.faces = tuple(faces)
        self.points = tuple(points)
        self.scale = scale

    def __repr__(self):
        return "PolyDecomp(%d vertices, %d edges, %d faces, scale %d)" % (
            len(self.vertices), len(self.edges), len(self.faces), self.scale)


def build_decomposition(curves, fan, points):
    """Overlay the given solutions into a decomposition of the plane.

    A translate of the fan is added at every marked point: that keeps the
    marked points vertices and pins the recession behaviour of the
    unbounded cells, and it never hurts where the curves alone would have
    sufficed.  Collinear overlaps merge, with source tags unioned; tags
    are "curve:<index>" and "fan:<point index>".
    """
    from .arrangement import Overlay
    ov = Overlay()
    for ci, c in enumerate(curves):
        tag = "curve:%d" % ci
        for i, j, w, d in c.bedges:
            ov.add_segment(c.vertices[i], c.vertices[j], tag)
        for i, d, w in c.uedges:
            ov.add_ray(c.vertices[i], d, tag)
    pts = [as_hpoint(P) for P in points]
    for pi, P in enumerate(pts):
        tag = "fan:%d" % pi
        for r in fan.rays:
            ov.add_ray(P, r, tag)
        ov.add_point(P)
    cx = ov.build()
    return PolyDecomp(cx.vertices, cx.edges, cx.faces, pts)


def _edges_by_line(pd):
    """line_key -> the decomposition edges on that line, each as
    (position of its start, position of its end or None for a ray, the
    ray direction or None for a segment), positions as arrangement's
    (num, den) pairs."""
    from .arrangement import line_coord, line_key
    index = {}
    for e in pd.edges:
        va = pd.vertices[e[1]]
        if e[0] == "seg":
            vb = pd.vertices[e[2]]
            key = line_key(va, e[3])
            span = (line_coord(key, va), line_coord(key, vb), None)
        else:
            key = line_key(va, e[2])
            span = (line_coord(key, va), None, e[2])
        index.setdefault(key, []).append(span)
    return index


def _cover_query(index, A, B, d):
    """Do the decomposition edges (index: _edges_by_line) tile the segment
    A-B or, when B is None, the ray from A?  d is the piece's direction.

    Works on exact integer keys of the positions, oriented along the
    query, so one upward sweep covers both cases; None stands for the
    infinite end.
    """
    from .arrangement import line_coord, line_dir, line_key
    dp, _ = primitive(d)
    key = line_key(A, dp)
    sign = 1 if dp == line_dir(key) else -1
    edges = index.get(key, ())
    K = exact_shift([P[2] for P in (A, B) if P is not None]
                    + [t[1] for e in edges for t in e[:2] if t is not None])

    def at(pos):
        return (sign * pos[0] << K) // pos[1]

    sa = at(line_coord(key, A))
    sb = at(line_coord(key, B)) if B is not None else None
    if sb is not None and sb < sa:
        sa, sb = sb, sa
    spans = []
    for t1, t2, rdir in edges:
        t1 = at(t1)
        if rdir is None:
            t2 = at(t2)
            spans.append((min(t1, t2), max(t1, t2)))
        elif rdir == dp:
            spans.append((t1, None))
        else:
            spans.append((None, t1))
    cur = sa
    for lo, hi in sorted(spans,
                         key=lambda s: (0, 0) if s[0] is None else (1, s[0])):
        if lo is not None and lo > cur:
            break
        if hi is None:
            return True
        if hi > cur:
            cur = hi
    return sb is not None and cur >= sb


def properties_report(pd, curves, fan):
    """The five decomposition properties, each tested directly.

    1. every curve lies in the 1-skeleton,
    2. the marked points are vertices,
    3. everything in sight is rational,
    4. every cell has at least one vertex,
    5. every cell's recession cone is a cone of the fan.
    """
    index = _edges_by_line(pd)
    ok1 = True
    for c in curves:
        for i, j, w, d in c.bedges:
            ok1 = ok1 and _cover_query(index, c.vertices[i], c.vertices[j],
                                       d)
        for i, d, w in c.uedges:
            ok1 = ok1 and _cover_query(index, c.vertices[i], None, d)
    vset = set(pd.vertices)
    ok2 = all(p in vset for p in pd.points)
    ok3 = all(isinstance(t, int) for v in pd.vertices for t in v) and \
        all(v[2] > 0 for v in pd.vertices)
    ok4 = all(len(f[1]) >= 1 for f in pd.faces)
    rayset = set(fan.rays)
    cones = {(fan.rays[i], fan.rays[j]) for i, j in fan.cones2d}
    ok5 = True
    for e in pd.edges:
        if e[0] == "ray" and e[2] not in rayset:
            ok5 = False
    for f in pd.faces:
        if f[0] != "unbounded":
            continue
        din, dout = f[2], f[3]
        if din == dout:
            if din not in rayset:
                ok5 = False
        elif (dout, din) not in cones:
            ok5 = False
    return {"curves_in_skeleton": ok1, "points_are_vertices": ok2,
            "rational": ok3, "cells_have_vertices": ok4,
            "recession_in_fan": ok5}


def rescale_lattice(pd):
    """Clear all vertex denominators.

    Returns (scaled decomposition, a) where a is the least common
    multiple of the coordinate denominators, so the scaled vertices are
    lattice points and the cell structure is untouched.  A normalized
    triple has gcd(X, Y, W) = 1, so the denominators of X/W and Y/W have
    the lcm W, and a is the lcm of the W's.
    """
    a = lcm(*(v[2] for v in pd.vertices))
    verts = [hnorm(a * v[0], a * v[1], v[2]) for v in pd.vertices]
    pts = [hnorm(a * p[0], a * p[1], p[2]) for p in pd.points]
    for v in verts:
        if v[2] != 1:
            raise InvariantError("rescale failed to clear a denominator")
    return PolyDecomp(verts, pd.edges, pd.faces, pts,
                      scale=pd.scale * a), a


# ---------------------------------------------------------------------------
# the fan over the decomposition

class Fan3D:
    """Cones in M + Z, each a (name, generators) pair with generator
    triples (x, y, h) either a vertex lifted to its height or a recession
    direction at height 0.  Contains one cone per decomposition cell plus
    the height-0 copy of the surface fan."""

    def __init__(self, cones):
        self.cones = tuple(cones)

    def __repr__(self):
        return "Fan3D(%d cones)" % len(self.cones)

    def to_text(self):
        out = ["# fan in M + Z: one generator triple (x, y, h) per column",
               "# %d cones" % len(self.cones)]
        for name, gens in self.cones:
            body = " ".join("(%d,%d,%d)" % g for g in gens)
            out.append("%s: %s" % (name, body if body else "origin"))
        return "\n".join(out) + "\n"


def fan_over(pd, fan):
    """The fan over a decomposition: cones over every cell, together with
    the height-0 copy of the surface fan they degenerate to.

    Verifies before returning that the height-0 part of every cell cone
    is a cone of the surface fan, that together they exhaust it, and that
    slicing each cell cone at height 1 recovers the cell it came from.
    Raises InvariantError when any of that fails.
    """
    cones = [("zero", ())]
    for k, r in enumerate(fan.rays):
        cones.append(("ray0:%d" % k, ((r[0], r[1], 0),)))
    for k, (i, j) in enumerate(fan.cones2d):
        ri, rj = fan.rays[i], fan.rays[j]
        cones.append(("cone0:%d" % k, ((ri[0], ri[1], 0), (rj[0], rj[1], 0))))
    for vi, v in enumerate(pd.vertices):
        cones.append(("vertex:%d" % vi, (v,)))
    for ei, e in enumerate(pd.edges):
        if e[0] == "seg":
            gens = (pd.vertices[e[1]], pd.vertices[e[2]])
        else:
            d = e[2]
            gens = (pd.vertices[e[1]], (d[0], d[1], 0))
        cones.append(("edge:%d" % ei, gens))
    for fi, f in enumerate(pd.faces):
        gens = tuple(pd.vertices[i] for i in f[1])
        if f[0] == "unbounded":
            din, dout = f[2], f[3]
            gens = gens + ((dout[0], dout[1], 0),)
            if din != dout:
                gens = gens + ((din[0], din[1], 0),)
        cones.append(("face:%d" % fi, gens))
    f3 = Fan3D(cones)
    _verify_fan_over(f3, pd, fan)
    return f3


def _verify_fan_over(f3, pd, fan):
    fancones = {frozenset()}
    for r in fan.rays:
        fancones.add(frozenset([r]))
    for i, j in fan.cones2d:
        fancones.add(frozenset([fan.rays[i], fan.rays[j]]))
    seen = set()
    cellkinds = ("vertex:", "edge:", "face:")
    for name, gens in f3.cones:
        if not name.startswith(cellkinds):
            continue
        rec = frozenset((g[0], g[1]) for g in gens if g[2] == 0)
        if rec not in fancones:
            raise InvariantError("recession of %s is not a fan cone" % name)
        seen.add(rec)
        # the height-1 slice must be the cell the cone was built from
        verts = sorted(hnorm(*g) for g in gens if g[2] > 0)
        kind, _, idx = name.partition(":")
        expect = _cell_canonical(pd, kind, int(idx))
        if (verts, sorted(rec)) != expect:
            raise InvariantError("height-1 slice of %s differs from its "
                                 "cell" % name)
    if seen != fancones:
        raise InvariantError("height-0 cones do not exhaust the fan")


def _cell_canonical(pd, kind, idx):
    if kind == "vertex":
        return ([pd.vertices[idx]], [])
    if kind == "edge":
        e = pd.edges[idx]
        if e[0] == "seg":
            return (sorted((pd.vertices[e[1]], pd.vertices[e[2]])), [])
        return ([pd.vertices[e[1]]], [e[2]])
    f = pd.faces[idx]
    verts = sorted(pd.vertices[i] for i in f[1])
    if f[0] == "bounded":
        return (verts, [])
    return (verts, sorted({f[2], f[3]}))
