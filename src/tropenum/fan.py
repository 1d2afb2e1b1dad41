"""Complete two-dimensional toric fans and curve degrees.

A fan is an ordered list of primitive ray generators sorted counterclockwise
from (1,0), with 2D cones spanned by consecutive pairs; completeness means the
cones cover the plane exactly once.  A degree is a tuple of nonnegative
multiplicities d_rho, one per ray, with sum d_rho * rho_hat = 0: it records how
many unbounded edges of a curve leave along each ray.  The Newton polygon of a
degree is the lattice polygon whose edge dual to rho has lattice length d_rho.
"""

from .lattice import angle_key, lattice_length, primitive, rot90, wedge


class Fan:
    """Immutable complete 2D fan; rays CCW-sorted primitive generators."""

    def __init__(self, rays, name=None):
        self.rays = tuple(tuple(r) for r in rays)
        self.name = name or "custom"
        n = len(self.rays)
        self.cones2d = tuple((i, (i + 1) % n) for i in range(n))

    def __repr__(self):
        return "Fan(%s, %r)" % (list(self.rays), self.name)

    def __eq__(self, other):
        return isinstance(other, Fan) and self.rays == other.rays

    def __hash__(self):
        return hash(self.rays)

    def nrays(self):
        return len(self.rays)


def make_fan(rays, cones=None, name=None):
    """Validate and normalize a complete fan from ray generators.

    Rays are normalized to primitive vectors and sorted counterclockwise
    starting from (1,0).  `cones` may list ray-index pairs (in the input
    order); if given it must match the inferred consecutive-pair cones.
    Raises ValueError on duplicate rays or a non-complete cover.
    """
    prim = []
    for r in rays:
        p, _ = primitive(tuple(r))
        prim.append(p)
    if len(set(prim)) != len(prim):
        raise ValueError("degenerate fan: duplicate rays")
    order = sorted(range(len(prim)), key=lambda i: angle_key(prim[i]))
    sorted_rays = [prim[i] for i in order]
    n = len(sorted_rays)
    if n < 3:
        raise ValueError("incomplete fan: need at least 3 rays")
    for i in range(n):
        # consecutive rays must span a strictly convex cone turning CCW;
        # with distinct CCW-sorted rays this fails exactly when a gap of
        # 180 degrees or more is left uncovered
        if wedge(sorted_rays[i], sorted_rays[(i + 1) % n]) <= 0:
            raise ValueError("incomplete fan: cones do not cover the plane")
    if cones is not None:
        where = {i: order.index(i) for i in range(len(prim))}
        given = {frozenset((where[a], where[b])) for a, b in cones}
        inferred = {frozenset((i, (i + 1) % n)) for i in range(n)}
        if given != inferred:
            raise ValueError("incomplete fan: cones do not match ray order")
    return Fan(sorted_rays, name=name)


_BUILTIN = {
    "p2": [(1, 0), (0, 1), (-1, -1)],
    "p1xp1": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    # hexagonal refinement of the P2 fan, dual to the anticanonical hexagon
    "dp6": [(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0), (0, -1)],
}


def builtin_fan(name):
    try:
        rays = _BUILTIN[name]
    except KeyError:
        raise ValueError("unknown fan %r (have: %s)"
                         % (name, ", ".join(sorted(_BUILTIN)))) from None
    return make_fan(rays, name=name)


def make_degree(fan, coeffs):
    """Validated degree tuple for `fan`: nonnegative, balanced."""
    d = tuple(int(c) for c in coeffs)
    if len(d) != fan.nrays():
        raise ValueError("degree needs one coefficient per ray")
    if any(c < 0 for c in d):
        raise ValueError("degree coefficients must be nonnegative")
    if r_vector(fan, d) != (0, 0):
        raise ValueError("unbalanced degree: sum d_rho * rho != 0")
    return d


def degree_total(deg):
    return sum(deg)


def r_vector(fan, m):
    """Image of an exponent vector m (one integer per ray) in M."""
    x = y = 0
    for c, (rx, ry) in zip(m, fan.rays):
        x += c * rx
        y += c * ry
    return (x, y)


def locate_direction(fan, v):
    """("cone", i) if v lies in the interior of 2D cone i, ("ray", i) if on
    ray i.  Completeness makes this total for nonzero v."""
    for i, r in enumerate(fan.rays):
        if wedge(r, v) == 0 and (r[0] * v[0] + r[1] * v[1]) > 0:
            return ("ray", i)
    for ci, (i, j) in enumerate(fan.cones2d):
        if wedge(fan.rays[i], v) > 0 and wedge(v, fan.rays[j]) > 0:
            return ("cone", ci)
    raise ValueError("direction %r not located; fan incomplete?" % (v,))


def newton_polygon(fan, deg):
    """Vertices of the Newton polygon of a balanced degree.

    Edges are chained counterclockwise; the edge dual to ray rho is
    d_rho * rot90(-rho_hat) (rays are inner normals, which makes the degree-1
    polygon the standard simplex).  The result is translated so that its
    lexicographically least vertex is the origin, where the vertex list also
    starts.  A zero degree gives the single vertex (0,0); a degree supported
    on two opposite rays degenerates to a segment.
    """
    make_degree(fan, deg)  # validates balancing
    edges = []
    for d, r in zip(deg, fan.rays):
        if d:
            inner = (-r[0], -r[1])
            edges.append((angle_key(inner), d, rot90(inner)))
    edges.sort(key=lambda e: e[0])
    pts = [(0, 0)]
    for _, d, v in edges:
        x, y = pts[-1]
        pts.append((x + d * v[0], y + d * v[1]))
    if pts[-1] != (0, 0):
        raise ValueError("unbalanced degree: polygon does not close")
    pts.pop()
    # drop repeated points (opposite-ray degenerate case keeps 2 vertices)
    verts = [p for i, p in enumerate(pts) if p != pts[i - 1]] or [(0, 0)]
    lo = min(verts)
    verts = [(x - lo[0], y - lo[1]) for x, y in verts]
    start = verts.index(min(verts))
    return verts[start:] + verts[:start]


def newton_edge_lengths(fan, deg):
    """Lattice lengths of the polygon boundary edges, in CCW chaining order."""
    poly = newton_polygon(fan, deg)
    if len(poly) < 2:
        return []
    out = []
    for i, p in enumerate(poly):
        q = poly[(i + 1) % len(poly)]
        out.append(lattice_length((q[0] - p[0], q[1] - p[1])))
    return out
