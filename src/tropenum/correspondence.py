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
the surface fan.  That every solution lies in the 1-skeleton is checked
on the decomposition's own edges: each curve edge must be a chain of them,
walked from its start vertex.  The global half imports `arrangement`
where it uses it, so a process that only checks Phi does not load the
overlay.
"""

from math import lcm

from .lattice import eliminate, hnorm, primitive, rot90
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
           2k, 2k+1 (its displacement in M).  A line with no vertex has
           one column instead, its offset in M/Zu
    rows:  one integer row per bounded reduced edge, then one per mark;
           each row reads the quotient M/Zu through the lex-positive
           primitive normal of u
    row_labels: ("edge", v_minus, v_plus) and ("mark", label) in row order
    rank, scale: the rank of rows and the scale D of their integer
           elimination (lattice.eliminate), |det| when rows is square
           and of full rank
    edges: the reduced-edge records (reduced_graph) the rows were read
           from
    """

    def __init__(self, verts, rows, row_labels, rank, scale, edges):
        self.verts = tuple(verts)
        self.rows = tuple(tuple(r) for r in rows)
        self.row_labels = tuple(row_labels)
        self.rank = rank
        self.scale = scale
        self.edges = tuple(edges)

    def shape(self):
        return (len(self.rows), len(self.rows[0]))

    def __repr__(self):
        return "PhiSystem(%d rows, %d cols)" % self.shape()


def build_phi(c):
    """The map Phi of a marked solution, as an integer matrix.

    A displacement H of the reduced-graph vertices goes to the classes of
    H(v+) - H(v-) in M/Zu for every bounded reduced edge, v- its end a
    and v+ its end b, and of H(a) in M/Zu for every mark on an edge with
    a vertex a.  A line with no vertex moves only by its offset in M/Zu,
    which is the one coordinate its mark reads.  Raises InvariantError
    when the map has a kernel, which would mean the curve deforms and was
    never rigid.
    """
    verts, edges = reduced_graph(c)
    col = {vi: 2 * k for k, vi in enumerate(verts)}
    ncols = 2 * len(verts) or 1
    bounded = []
    by_mark = {}
    for a, b, u, _, labels in edges:
        if b is not None:
            bounded.append((col[a], col[b], u))
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
        if spot is None:
            row[0] = 1
        else:
            cm, u = spot
            row[cm], row[cm + 1] = _lexpos(rot90(u))
        rows.append(row)
        row_labels.append(("mark", label))
    pivots, _, _, scale = eliminate(rows)
    if len(pivots) != ncols:
        raise InvariantError("lattice map has a kernel: curve is not rigid")
    return PhiSystem(verts, rows, row_labels, len(pivots), scale, edges)


def index_d(sys):
    """Cokernel order of Phi, a positive integer: finite when Phi has full
    row rank, and then, Phi being square, |det Phi|."""
    if sys.rank < len(sys.rows):
        raise InvariantError("infinite cokernel contradicts rigidity")
    return sys.scale


def log_count_w(sys):
    """Number of log enhancements of a stable map over the solution whose
    PhiSystem is sys: the product of the bounded reduced-edge weights,
    with one extra factor of its edge's weight for every mark."""
    out = 1
    for _, b, _, w, labels in sys.edges:
        out *= w ** (len(labels) + (b is not None))
    return out


def verify_correspondence(c):
    """Does index * log count equal the vertex multiplicity, exactly?"""
    sys = build_phi(c)
    return index_d(sys) * log_count_w(sys) == mikhalkin_multiplicity(c)


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
    are "curve:<index>" and "fan:<point index>".  The points are
    normalized triples.
    """
    from .arrangement import Overlay
    ov = Overlay()
    for ci, c in enumerate(curves):
        tag = "curve:%d" % ci
        for i, j, w, d in c.bedges:
            ov.add_segment(c.vertices[i], c.vertices[j], tag)
        for i, d, w in c.uedges:
            ov.add_ray(c.vertices[i], d, tag)
    for pi, P in enumerate(points):
        tag = "fan:%d" % pi
        for r in fan.rays:
            ov.add_ray(P, r, tag)
        ov.add_point(P)
    cx = ov.build()
    return PolyDecomp(cx.vertices, cx.edges, cx.faces, points)


def properties_report(pd, curves, fan):
    """The five decomposition properties, each tested directly.

    1. every curve lies in the 1-skeleton,
    2. the marked points are vertices,
    3. everything in sight is rational,
    4. every cell has at least one vertex,
    5. every cell's recession cone is a cone of the fan.

    `curves` are the solutions `pd` was built from, so their vertices are
    vertices of `pd`.  A curve edge A -> B along d lies in the skeleton
    when the chain of `pd` edges leaving A along d reaches B; a curve ray,
    when that chain ends on a ray.
    """
    vid = {v: k for k, v in enumerate(pd.vertices)}
    step = {}       # (vertex, primitive direction) -> far vertex, None: a ray
    for e in pd.edges:
        if e[0] == "seg":
            d = e[3]
            step[e[1], d] = e[2]
            step[e[2], (-d[0], -d[1])] = e[1]
        else:
            step[e[1], e[2]] = None

    def chain(A, B, d):
        # from vertex A along d to vertex B, or to infinity when B is None
        v = vid.get(A)
        end = None if B is None else vid.get(B, -1)
        d, _ = primitive(d)
        while v is not None and (v, d) in step:
            v = step[v, d]
            if v == end:
                return True
        return False

    ok1 = all(chain(c.vertices[i], c.vertices[j], d)
              for c in curves for i, j, w, d in c.bedges) and \
        all(chain(c.vertices[i], None, d)
            for c in curves for i, d, w in c.uedges)
    ok2 = all(p in vid for p in pd.points)
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
    the lcm W, and a is the lcm of the W's: every W divides a, so every
    scaled triple has W = 1.
    """
    a = lcm(*(v[2] for v in pd.vertices))
    verts = [hnorm(a * v[0], a * v[1], v[2]) for v in pd.vertices]
    pts = [hnorm(a * p[0], a * p[1], p[2]) for p in pd.points]
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

    A cell's cone is generated by its vertices, each lifted to its height
    W, and by its recession directions at height 0.  While it cones the
    cells, checks that each recession set is a cone of the surface fan
    and that together they exhaust it; raises InvariantError otherwise.
    """
    fancones = ({frozenset()} | {frozenset([r]) for r in fan.rays}
                | {frozenset([fan.rays[i], fan.rays[j]])
                   for i, j in fan.cones2d})
    cones = [("zero", ())]
    for k, r in enumerate(fan.rays):
        cones.append(("ray0:%d" % k, ((r[0], r[1], 0),)))
    for k, (i, j) in enumerate(fan.cones2d):
        ri, rj = fan.rays[i], fan.rays[j]
        cones.append(("cone0:%d" % k, ((ri[0], ri[1], 0), (rj[0], rj[1], 0))))
    seen = set()

    def cell(name, verts, rec=()):
        rs = frozenset(rec)
        if rs not in fancones:
            raise InvariantError("recession of %s is not a fan cone" % name)
        seen.add(rs)
        cones.append((name, tuple(verts) + tuple((d[0], d[1], 0)
                                                 for d in rec)))

    for vi, v in enumerate(pd.vertices):
        cell("vertex:%d" % vi, (v,))
    for ei, e in enumerate(pd.edges):
        if e[0] == "seg":
            cell("edge:%d" % ei, (pd.vertices[e[1]], pd.vertices[e[2]]))
        else:
            cell("edge:%d" % ei, (pd.vertices[e[1]],), (e[2],))
    for fi, f in enumerate(pd.faces):
        # an unbounded face recedes along dout, then din when they differ
        rec = () if f[0] == "bounded" else tuple(dict.fromkeys((f[3], f[2])))
        cell("face:%d" % fi, [pd.vertices[i] for i in f[1]], rec)
    if seen != fancones:
        raise InvariantError("height-0 cones do not exhaust the fan")
    return Fan3D(cones)
