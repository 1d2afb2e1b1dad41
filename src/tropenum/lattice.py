"""Exact integer and rational linear algebra for plane lattice geometry.

Everything downstream (fans, curves, arrangements, wall crossing) reduces to
arithmetic in M = Z^2 and its rational span.  This module owns that arithmetic:
primitive vectors, the wedge form identifying M ^ M with Z, the
counterclockwise order of directions (`angle_key`, in integers), the one
exact elimination, fraction-free in integers (`eliminate`: its scale D is
|det Phi|, the cokernel order of a rigid solution's lattice map, and the
brute-force counter runs it once per marked type), and the one point type
of the package: a rational plane point is an int triple (X, Y, W), W > 0,
gcd 1, standing for (X/W, Y/W).  Every function of the package that takes
a point takes it as such a normalized triple and does not normalize it
again.  A point is made exact once, where it enters the program: the
samplers and `hshift` make triples, `hpoint` makes one from two rationals
(the CLI's `--q`), and `hnorm` normalizes integer coordinates.

`ray_hits` is the one crossing kernel: it answers "which walls of one
direction does this ray hit" on the index that `wall_index` alone builds,
the walls sorted by `offset_key`, settling the signs of both crossing
parameters in integers, for the Maslov-0 forest (stem tracer, gluing)
and the scattering diagram (`crossings`, `germs`), which build a point
with `hshift` only for a hit; `walls_through` asks the same index which
walls hold a point.
`mask_labels` writes out the labels of a mark mask, the one form of a
set of marks from the forest's trees to the ring and the broken lines.
`ray_params` (the parameters of one pair of lines) and `ray_intersect`
(plus the point) have no caller in the engine; they stay as the tests'
reference for `ray_hits`, and for the benchmark's tracer, which wraps
`ray_intersect` by name.

Floating point is forbidden here and in every caller.

Every other module of the package imports this one, so the package's two
error types live here too: `GenericityError` means "resample" and
`InvariantError` means "bug".  `tropcurve` binds both names as well.
"""

from bisect import bisect_left, bisect_right
from functools import cmp_to_key
from math import gcd


class InvariantError(Exception):
    """An internal contract of the construction is violated."""


class GenericityError(Exception):
    """The sampled configuration hit a non-generic coincidence; resample."""


# ---------------------------------------------------------------------------
# integer vectors

def primitive(v):
    """Return (p, k) with k*p = v, k > 0 and p a primitive integer vector.

    Raises ValueError on the zero vector, which has no direction.
    """
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("zero vector has no primitive direction")
    k = gcd(abs(x), abs(y))
    return (x // k, y // k), k


def wedge(a, b):
    """a.x*b.y - a.y*b.x, the standard identification of M ^ M with Z."""
    return a[0] * b[1] - a[1] * b[0]


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def rot90(v):
    """Counterclockwise quarter turn."""
    return (-v[1], v[0])


def lattice_length(v):
    """gcd of the coordinates: the index of Zv inside (Rv cap Z^2)."""
    x, y = v
    if x == 0 and y == 0:
        return 0
    return gcd(abs(x), abs(y))


def _ccw_cmp(a, b):
    """-1, 0 or 1 as a comes before, with or after b counterclockwise from
    (1, 0): by half-plane (angles in [0, pi), then [pi, 2pi)), then by the
    sign of wedge(a, b) within one half-plane."""
    ha = a[1] < 0 or (a[1] == 0 and a[0] < 0)
    hb = b[1] < 0 or (b[1] == 0 and b[0] < 0)
    if ha != hb:
        return 1 if ha else -1
    c = a[0] * b[1] - a[1] * b[0]
    return (c < 0) - (c > 0)


_ccw_key = cmp_to_key(_ccw_cmp)


def angle_key(v):
    """Total order key sorting nonzero integer vectors by CCW angle from (1,0),
    in integers.

    Collinear same-direction vectors compare equal; opposite directions differ.
    """
    if v[0] == 0 and v[1] == 0:
        raise ValueError("zero vector has no angle")
    return _ccw_key(v)


# ---------------------------------------------------------------------------
# exact elimination

def eliminate(A):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of [A | I].

    Returns (pivots, R, T, D), all integers, with D > 0, T*A == R and
    R == D * rref(A): row i of R leads at column pivots[i] with the entry
    D, and every other row is 0 there.  Each step divides by the previous
    pivot exactly, since every entry is a minor of [A | I]; D is the last
    pivot up to sign, so D == |det A| for a square A of full rank.  T is
    invertible and its rows past len(pivots) span the left kernel of A:
    A x = b is solvable exactly when they annihilate b, and then
    x = T*b / D on the pivot columns, the free ones 0, is a solution.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    M = [list(row) + [int(i == j) for j in range(m)]
         for i, row in enumerate(A)]
    pivots = []
    prev = 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        pr = next((i for i in range(r, m) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        top = M[r]
        p = top[c]
        for i in range(m):
            if i != r:
                f = M[i][c]
                M[i] = [(p * e - f * g) // prev for e, g in zip(M[i], top)]
        prev = p
        pivots.append(c)
    if prev < 0:
        M = [[-e for e in row] for row in M]
        prev = -prev
    return pivots, [row[:n] for row in M], [row[n:] for row in M], prev


# ---------------------------------------------------------------------------
# homogeneous rational points: (X, Y, W) integers, W > 0, gcd(X,Y,W) = 1

def hpoint(x, y):
    """The normalized triple of the point (x, y), from two rationals
    (anything Fraction accepts: ints, Fractions, strings "p/q")."""
    from fractions import Fraction
    fx, fy = Fraction(x), Fraction(y)
    w = fx.denominator * fy.denominator // gcd(fx.denominator, fy.denominator)
    return hnorm(fx.numerator * (w // fx.denominator),
                 fy.numerator * (w // fy.denominator), w)


def hnorm(X, Y, W):
    """The normalized triple of (X/W, Y/W) from integers, W != 0."""
    if W == 0:
        raise ValueError("point at infinity")
    if W < 0:
        X, Y, W = -X, -Y, -W
    g = gcd(gcd(abs(X), abs(Y)), W)
    if g > 1:
        X, Y, W = X // g, Y // g, W // g
    return (X, Y, W)


def hfrac(P):
    """Back to a pair of Fractions."""
    from fractions import Fraction
    X, Y, W = P
    return Fraction(X, W), Fraction(Y, W)


def hdiff(A, B):
    """Integer vector proportional to B - A, with the true direction.

    Returns (0, 0) if A == B.
    """
    ax, ay, aw = A
    bx, by, bw = B
    return (bx * aw - ax * bw, by * aw - ay * bw)


def hshift(A, s_num, s_den, d):
    """A + (s_num/s_den) * d as a normalized triple (d an int vector)."""
    ax, ay, aw = A
    if s_den < 0:
        s_num, s_den = -s_num, -s_den
    return hnorm(ax * s_den + s_num * d[0] * aw,
                 ay * s_den + s_num * d[1] * aw,
                 aw * s_den)


def ray_params(A, da, B, db):
    """Parameters of the crossing of the lines A + s*da and B + t*db
    (homogeneous points, integer directions), without building the point.

    Returns (s_num, t_num, den) with den > 0, s = s_num/den and
    t = t_num/den; None when the directions are parallel.  Callers impose
    their own sign conditions on s and t.  The arithmetic is written out
    rather than built from wedge and hdiff, as `ray_hits` writes out the
    same numerators.
    """
    c = da[0] * db[1] - da[1] * db[0]
    if c == 0:
        return None
    ax, ay, aw = A
    bx, by, bw = B
    Dx = bx * aw - ax * bw
    Dy = by * aw - ay * bw
    den = aw * bw * c
    s_num = Dx * db[1] - Dy * db[0]
    t_num = Dx * da[1] - Dy * da[0]
    if den < 0:
        return -s_num, -t_num, -den
    return s_num, t_num, den


def ray_intersect(A, da, B, db):
    """ray_params plus the homogeneous intersection point:
    (s_num, t_num, den, P), or None when the directions are parallel."""
    p = ray_params(A, da, B, db)
    if p is None:
        return None
    s_num, t_num, den = p
    return s_num, t_num, den, hshift(A, s_num, den, da)


def exact_shift(dens):
    """A shift K with which the integers (num << K) // den order the ratios
    num / den, den among the given positive denominators, exactly: equal
    ratios get equal keys and distinct ones distinct keys in their order,
    because two distinct ratios differ by at least 1 / (d1 * d2) > 2**-K."""
    return 2 * max(dens, default=1).bit_length()


OFFSET_BITS = 32


def offset_key(num, w):
    """floor(num / w * 2**OFFSET_BITS): an exact integer key, monotone in
    num / w.  For a line of direction o, num / w = wedge(P, o) / P.w is the
    same for every point P on it: the line's offset."""
    return (num << OFFSET_BITS) // w


def wall_index(o, walls):
    """The offset index (keys, walls, o) of walls of one direction o that
    `ray_hits` and `walls_through` read: the walls stably sorted by
    keys[i] = offset_key(kn, base.w), so walls of one key keep the order
    given."""
    ws = sorted(walls, key=lambda t: offset_key(t.kn, t.base[2]))
    return [offset_key(t.kn, t.base[2]) for t in ws], ws, o


def mask_labels(mask):
    """The 0-based labels of a mark mask (bit i for mark i), ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def ray_hits(index, X, r, c, xr, skip):
    """The walls of one offset index that the ray X + s*r (s >= 0) meets at
    or beyond their roots, or runs along (c == 0); walls with a mark in the
    bit mask `skip` are left out.

    An index (keys, walls, o) holds walls of one direction o, each with a
    root `base`, kn = wedge(base, o) and a mark mask `marks`, sorted by
    keys[i] = offset_key(kn, base.w).  With c = wedge(r, o), the ray reaches
    a wall's line iff the line's offset lies on the side c points to, so
    with q = offset_key(wedge(X, o), X.w) the keys >= q (c > 0), <= q
    (c < 0) or == q (c == 0) bound a superset slice, floor being monotone.
    A wall comes as (wall, d, e), the raw s and t numerators of the
    crossing over X.w * base.w * c: d = kn * X.w - wedge(X, o) * base.w
    and, with xr = wedge(X, r), e = wedge(base, r) * X.w - xr * base.w.
    """
    keys, walls, (ox, oy) = index
    rx, ry = r
    xw = X[2]
    xn = X[0] * oy - X[1] * ox
    q = (xn << OFFSET_BITS) // xw     # offset_key(xn, xw)
    lo = 0 if c < 0 else bisect_left(keys, q)
    hi = len(walls) if c > 0 else bisect_right(keys, q)
    out = []
    for t in walls[lo:hi]:
        if t.marks & skip:
            continue
        bx, by, bw = t.base
        d = t.kn * xw - xn * bw
        if d * c < 0 or (d and not c):
            continue
        e = (bx * ry - by * rx) * xw - xr * bw
        if e * c >= 0:
            out.append((t, d, e))
    return out


def walls_through(index, P):
    """The walls of one offset index (see ray_hits) whose rays hold the
    point P, root included, in index order.  A wall's line holds P only if
    its offset key is P's, so P bisects its own key and only those walls
    take the exact test, written out as in ray_hits: P on the line
    (kn * P.w == wedge(P, o) * base.w) and not behind the root
    (dot(P - base, o) >= 0, scaled by P.w * base.w > 0)."""
    keys, walls, (ox, oy) = index
    px, py, pw = P
    pn = px * oy - py * ox
    q = (pn << OFFSET_BITS) // pw     # offset_key(pn, pw)
    out = []
    for t in walls[bisect_left(keys, q):bisect_right(keys, q)]:
        bx, by, bw = t.base
        if (t.kn * pw == pn * bw
                and (px * bw - bx * pw) * ox + (py * bw - by * pw) * oy >= 0):
            out.append(t)
    return out


def on_line(P, A, d):
    """Is P on the line A + s*d: wedge(P, d) / P.w == wedge(A, d) / A.w?
    Written out, as the forest runs it for every point and wall."""
    dx, dy = d
    return (P[0] * dy - P[1] * dx) * A[2] == (A[0] * dy - A[1] * dx) * P[2]


def line_param(P, B, d):
    """Parameter of P on the line B + t*d, as (t_num, t_den) with t_den > 0,
    or None if P is not on the line."""
    D = hdiff(B, P)
    if wedge(D, d) != 0:
        return None
    # D/(BwPw) = t*d  componentwise; use the larger coordinate of d
    den = B[2] * P[2]
    if d[0] != 0:
        num, dd = D[0], d[0]
    else:
        num, dd = D[1], d[1]
    t_num, t_den = num, den * dd
    if t_den < 0:
        t_num, t_den = -t_num, -t_den
    return t_num, t_den


def on_ray(P, B, d, strict=False):
    """Is P on the ray B + t*d, t >= 0 (t > 0 if strict)?"""
    t = line_param(P, B, d)
    if t is None:
        return False
    return t[0] > 0 if strict else t[0] >= 0


def on_segment(P, A, B, strict=False):
    """Is P on the segment from A to B (strictly interior if strict)?"""
    dab = hdiff(A, B)
    if dab == (0, 0):
        return False
    dap = hdiff(A, P)
    if wedge(dap, dab) != 0:
        return False
    # hdiff scales by the positive product of the W coordinates, so only the
    # signs of the projections are meaningful
    s1 = dot(dap, dab)
    dbp = hdiff(B, P)
    s2 = -dot(dbp, dab)
    if strict:
        return s1 > 0 and s2 > 0
    return s1 >= 0 and s2 >= 0
