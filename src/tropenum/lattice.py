"""Exact integer and rational linear algebra for plane lattice geometry.

Everything downstream (fans, curves, arrangements, wall crossing) reduces to
arithmetic in M = Z^2 and its rational span.  This module owns that arithmetic:
primitive vectors, the wedge form identifying M ^ M with Z, Smith normal form
and cokernel orders of integer matrices, the one exact elimination over Q
(`eliminate`, which the brute-force counter runs once per marked type), and
the one point type of the package: a rational plane point is an int triple
(X, Y, W), W > 0, gcd 1, standing for (X/W, Y/W).  `as_hpoint` turns what
callers pass (a triple or a pair of rationals) into one.

`ray_hits` is the one crossing kernel: it answers "which walls of one
direction does this ray hit" on an index sorted by `offset_key`, settling
the signs of both crossing parameters in integers, for the Maslov-0
forest (stem tracer, gluing) and the scattering diagram (`crossings`,
`germs`), which build a point with `hshift` only for a hit; `ray_meets`
settles the same signs for one wall.  `ray_params`
(the parameters of one pair of lines) and `ray_intersect` (plus the
point) have no caller in the engine; they stay as the tests' reference
for `ray_hits`, and for the benchmark's tracer, which wraps
`ray_intersect` by name.

Floating point is forbidden here and in every caller.

Every other module of the package imports this one, so the package's two
error types live here too: `GenericityError` means "resample" and
`InvariantError` means "bug".  `tropcurve` binds both names as well.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
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


def angle_key(v):
    """Total order key sorting nonzero integer vectors by CCW angle from (1,0).

    Collinear same-direction vectors compare equal; opposite directions differ.
    """
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("zero vector has no angle")
    if y > 0 or (y == 0 and x > 0):
        half = 0
    else:
        half = 1
    if y == 0:
        return (half, 0, Fraction(0))
    # within an open half-plane the angle is monotone in -x/y
    return (half, 1, Fraction(-x, y))


# ---------------------------------------------------------------------------
# Smith normal form and cokernel order

def smith_normal_form(rows):
    """Invariant factors of an integer matrix, as a list d_1 | d_2 | ... > 0.

    Uses row/column reduction with pivoting on the smallest nonzero entry.
    Matrices here are tiny (at most ~20x20), so no care beyond correctness.
    """
    A = [[int(e) for e in r] for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    for r in A:
        if len(r) != n:
            raise ValueError("ragged matrix")
    diag = []
    top = 0
    while True:
        # find smallest nonzero entry in the trailing block
        best = None
        for i in range(top, m):
            for j in range(top, n):
                e = A[i][j]
                if e != 0 and (best is None or abs(e) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        A[top], A[bi] = A[bi], A[top]
        for r in A:
            r[top], r[bj] = r[bj], r[top]
        while True:
            if A[top][top] < 0:
                A[top] = [-e for e in A[top]]
            p = A[top][top]
            dirty = False
            for i in range(top + 1, m):
                q = A[i][top] // p
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], A[top])]
                if A[i][top]:
                    # remainder smaller than the pivot: swap it up and restart
                    A[top], A[i] = A[i], A[top]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(top + 1, n):
                q = A[top][j] // p
                if q:
                    for r in A:
                        r[j] -= q * r[top]
                if A[top][j]:
                    for r in A:
                        r[top], r[j] = r[j], r[top]
                    dirty = True
                    break
            if dirty:
                continue
            # row and column clean; enforce divisibility of the rest
            stuck = None
            for i in range(top + 1, m):
                for j in range(top + 1, n):
                    if A[i][j] % p:
                        stuck = i
                        break
                if stuck is not None:
                    break
            if stuck is None:
                break
            A[top] = [a + b for a, b in zip(A[top], A[stuck])]
        diag.append(A[top][top])
        top += 1
        if top >= m or top >= n:
            break
    return diag


def det(rows):
    """Determinant of a square integer matrix, by fraction-free elimination."""
    A = [[int(e) for e in r] for r in rows]
    n = len(A)
    for r in A:
        if len(r) != n:
            raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def cokernel_order(rows):
    """Order of Z^rows / (column span of the matrix); "infinite" if not finite.

    The cokernel is finite exactly when the rank equals the number of rows,
    and then its order is the product of the invariant factors.
    """
    m = len(rows)
    diag = smith_normal_form(rows)
    if len(diag) < m:
        return "infinite"
    out = 1
    for d in diag:
        out *= d
    return out


# ---------------------------------------------------------------------------
# exact elimination

def eliminate(A):
    """Gauss-Jordan elimination of [A | I] over the rationals.

    Returns (pivots, R, T) with T invertible, T*A == R and R in reduced
    row echelon form, row i leading at column pivots[i].  The rows of T
    past len(pivots) span the left kernel of A: A x = b is solvable
    exactly when they annihilate b.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    M = [[Fraction(e) for e in row] + [Fraction(int(i == j)) for j in range(m)]
         for i, row in enumerate(A)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        pr = next((i for i in range(r, m) if M[i][c] != 0), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        pv = M[r][c]
        M[r] = [e / pv for e in M[r]]
        for i in range(m):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [e - f * g for e, g in zip(M[i], M[r])]
        pivots.append(c)
    return pivots, [row[:n] for row in M], [row[n:] for row in M]


# ---------------------------------------------------------------------------
# homogeneous rational points: (X, Y, W) integers, W > 0, gcd(X,Y,W) = 1

def hpoint(x, y):
    """Homogeneous triple from two Fractions (or ints)."""
    fx, fy = Fraction(x), Fraction(y)
    w = fx.denominator * fy.denominator // gcd(fx.denominator, fy.denominator)
    return hnorm(fx.numerator * (w // fx.denominator),
                 fy.numerator * (w // fy.denominator), w)


def as_hpoint(P):
    """The normalized triple of P, given as a homogeneous triple or as a
    pair of rationals (anything Fraction accepts)."""
    if len(P) == 3:
        return hnorm(*P)
    return hpoint(P[0], P[1])


def hnorm(X, Y, W):
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


def ray_meets(X, r, B, o):
    """Would ray_hits return the wall B + t*o (t >= 0) for the ray X + s*r:
    does the ray meet it at or beyond its root, or run along its line?"""
    c = wedge(r, o)
    d = wedge(B, o) * X[2] - wedge(X, o) * B[2]
    e = wedge(B, r) * X[2] - wedge(X, r) * B[2]
    return d * c >= 0 and (c or not d) and e * c >= 0


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
