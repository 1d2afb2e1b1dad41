"""Complete two-dimensional toric fans and curve degrees.

A fan is an ordered list of primitive ray generators sorted counterclockwise
from (1,0), with 2D cones spanned by consecutive pairs; completeness means the
cones cover the plane exactly once.  A degree is a tuple of nonnegative
multiplicities d_rho, one per ray, with sum d_rho * rho_hat = 0: it records how
many unbounded edges of a curve leave along each ray.  The Newton polygon of a
degree is the lattice polygon whose edge dual to rho has lattice length d_rho.
"""

from .lattice import angle_key, primitive, rot90, wedge


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


def make_fan(rays, name=None):
    """Validate and normalize a complete fan from ray generators.

    Rays are normalized to primitive vectors and sorted counterclockwise
    starting from (1,0); the cones are the consecutive pairs.
    Raises ValueError on duplicate rays or a non-complete cover.
    """
    prim = []
    for r in rays:
        p, _ = primitive(tuple(r))
        prim.append(p)
    if len(set(prim)) != len(prim):
        raise ValueError("degenerate fan: duplicate rays")
    sorted_rays = sorted(prim, key=angle_key)
    n = len(sorted_rays)
    if n < 3:
        raise ValueError("incomplete fan: need at least 3 rays")
    for i in range(n):
        # consecutive rays must span a strictly convex cone turning CCW;
        # with distinct CCW-sorted rays this fails exactly when a gap of
        # 180 degrees or more is left uncovered
        if wedge(sorted_rays[i], sorted_rays[(i + 1) % n]) <= 0:
            raise ValueError("incomplete fan: cones do not cover the plane")
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


def anticanonical_degree(fan):
    """The degree of -K: d_rho = -K.D_rho, the lattice length of the edge
    of {m : <m, rho> >= -1 for every ray} on the line <m, rho> = -1 (on a
    smooth fan 2 - a_rho, where rho_prev + rho_next = a_rho*rho).  The
    vertex of the cone (rho, sigma) is rot90(sigma - rho) / wedge(rho,
    sigma), and the edge of rho is d_rho*rot90(-rho).  Raises ValueError
    when a vertex is off the lattice (-K is not Cartier) or some d_rho < 0
    (-K is not nef)."""
    verts = []
    for a, b in zip(fan.rays, fan.rays[1:] + fan.rays[:1]):
        c = wedge(a, b)
        x, y = rot90((b[0] - a[0], b[1] - a[1]))
        if x % c or y % c:
            raise ValueError("-K is not Cartier on fan %s: its polygon has "
                             "the vertex (%d, %d)/%d off the lattice"
                             % (fan.name, x, y, c))
        verts.append((x // c, y // c))
    deg = []
    for (rx, ry), p, q in zip(fan.rays, verts[-1:] + verts, verts):
        # q - p = d*(ry, -rx)
        d = (q[0] - p[0]) // ry if ry else (q[1] - p[1]) // -rx
        if d < 0:
            raise ValueError("-K is not nef on fan %s: -K.D = %d on ray %s"
                             % (fan.name, d, (rx, ry)))
        deg.append(d)
    return make_degree(fan, deg)


def degree_total(deg):
    return sum(deg)


def r_vector(fan, m):
    """Image of an exponent vector m (one integer per ray) in M."""
    x = y = 0
    for c, (rx, ry) in zip(m, fan.rays):
        x += c * rx
        y += c * ry
    return (x, y)


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
