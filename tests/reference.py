"""Reference code that several test files check the library against.

These are the earlier or the plainest forms of what the library computes,
written so that they share no shortcut with the code they check:

* `ref_angle_key`, the counterclockwise order of directions on Fraction
  slopes (the library compares integer wedges);
* `det`, by fraction-free elimination; `smith_normal_form`, the invariant
  factors of an integer matrix, by row and column reduction, and
  `cokernel_order`, their product; `ref_eliminate`, Gauss-Jordan
  elimination of [A | I] over Fraction (the library's one elimination,
  `lattice.eliminate`, runs in integers and gives the cokernel order of
  Phi as its scale, with no Smith form);
* ring powers of any sign (`ref_pow`, with the unipotent inverse), and the
  automorphisms they build: `ref_apply` raises the generator images to
  powers, `ref_compose` chains them, and `ref_crossing_auto` is the
  crossing of one wall, z^{e_i} -> z^{e_i} * f^{<n0, v_i>};
* `ref_bucket`, a wall index grown one wall at a time by `bisect_right`
  insertion, as the Maslov-0 forest filed its trees before
  `lattice.wall_index` built each bucket once;
* `ref_support_contains`, a wall's ray on Fraction pairs;
* `ref_maslov_index`, 2 * (total degree - number of marks).
"""

from bisect import bisect_right
from fractions import Fraction

from tropenum.fan import degree_total
from tropenum.lattice import (InvariantError, dot, hfrac, offset_key, rot90,
                              wedge)
from tropenum.scattering import (RingAutomorphism, RingElement, ray_generator,
                                 ring_mono, ring_one)
from tropenum.tropcurve import degree


# -- lattice ------------------------------------------------------------------


def ref_angle_key(v):
    """Total order key sorting nonzero integer vectors by CCW angle from
    (1,0); collinear same-direction vectors compare equal."""
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("zero vector has no angle")
    half = 0 if y > 0 or (y == 0 and x > 0) else 1
    if y == 0:
        return (half, 0, Fraction(0))
    # within an open half-plane the angle is monotone in -x/y
    return (half, 1, Fraction(-x, y))


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


def cokernel_order(rows):
    """Order of Z^rows / (column span of the matrix); "infinite" if not
    finite, which is when the rank is below the number of rows."""
    diag = smith_normal_form(rows)
    if len(diag) < len(rows):
        return "infinite"
    out = 1
    for d in diag:
        out *= d
    return out


def ref_eliminate(A):
    """Gauss-Jordan elimination of [A | I] over the rationals.

    Returns (pivots, R, T) with T invertible, T*A == R and R in reduced
    row echelon form, row i leading at column pivots[i].  The rows of T
    past len(pivots) span the left kernel of A.
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


def ref_bucket(o, walls):
    """The index (keys, walls, o) of walls of direction o, each inserted
    after the walls of an equal or smaller offset key, in the order given."""
    keys, ws = [], []
    for t in walls:
        key = offset_key(t.kn, t.base[2])
        i = bisect_right(keys, key)
        keys.insert(i, key)
        ws.insert(i, t)
    return keys, ws, o


# -- the ring and its automorphisms -------------------------------------------


def _neg(elem):
    return RingElement(elem.nrays, {k: -c for k, c in elem.terms.items()})


def ref_inverse(elem):
    """Inverse of c * z^{m*} * (1 + N) with N nilpotent: the pieces are
    inverted separately, 1/(1 + N) as the finite series sum (-N)^j."""
    units = [(m, c) for (m, mask), c in elem.terms.items() if not mask]
    if len(units) != 1:
        raise InvariantError("unsupported: negative power of a "
                             "non-unipotent element")
    mstar, cstar = units[0]
    unit_inv = ring_mono(elem.nrays, Fraction(1) / cstar, 0,
                         tuple(-x for x in mstar))
    n = unit_inv.mul(elem).add(_neg(ring_one(elem.nrays)))
    out = p = ring_one(elem.nrays)
    while True:
        p = _neg(p.mul(n))
        if not p.terms:
            break
        out = out.add(p)
    return out.mul(unit_inv)


def ref_pow(elem, e):
    """elem^e for any integer e, by repeated multiplication."""
    base = elem if e >= 0 else ref_inverse(elem)
    out = ring_one(elem.nrays)
    for _ in range(abs(e)):
        out = out.mul(base)
    return out


def ref_identity(nrays):
    return RingAutomorphism(nrays,
                            [ray_generator(nrays, i) for i in range(nrays)])


def ref_apply(auto, elem):
    """auto(elem): each term c*u_I*z^m goes to c*u_I * prod images[i]^m_i."""
    n = auto.nrays
    out = RingElement(n, y0=elem.y0)
    for (m, mask), c in elem.terms.items():
        acc = ring_mono(n, c, mask, (0,) * n)
        for ridx, e in enumerate(m):
            acc = acc.mul(ref_pow(auto.images[ridx], e))
        out = out.add(acc)
    return out


def ref_compose(a, b):
    """a after b."""
    return RingAutomorphism(a.nrays, [ref_apply(a, im) for im in b.images])


def ref_crossing_auto(wall, n0):
    """Crossing `wall` with normal n0: z^{e_i} -> z^{e_i} * f^{<n0, v_i>}."""
    nrays = wall.fan.nrays()
    return RingAutomorphism(nrays, [
        ray_generator(nrays, i).mul(ref_pow(wall.f, dot(n0, v)))
        for i, v in enumerate(wall.fan.rays)])


def ref_wall_crossing(wall, sign):
    """The crossing with n0 = sign * rot90 of the wall's direction."""
    n = rot90(wall.dirvec)
    return ref_crossing_auto(wall, (sign * n[0], sign * n[1]))


# -- walls and curves ---------------------------------------------------------


def ref_support_contains(w, X):
    """Is the rational pair X on the ray of wall w?"""
    base = hfrac(w.base)
    v = (X[0] - base[0], X[1] - base[1])
    return wedge(w.dirvec, v) == 0 and dot(w.dirvec, v) >= 0


def ref_maslov_index(c, fan):
    """2 * (total degree - number of marks); 0 for trees, 2 for disks."""
    return 2 * (degree_total(degree(c, fan)) - len(c.marks))
