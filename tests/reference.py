"""Reference code that several test files check the library against.

These are the earlier or the plainest forms of what the library computes,
written so that they share no shortcut with the code they check:

* `ref_angle_key`, the counterclockwise order of directions on Fraction
  slopes (the library compares integer wedges);
* `det` and `cokernel_order`, by elimination and by the invariant factors;
* ring powers of any sign (`ref_pow`, with the unipotent inverse), and the
  automorphisms they build: `ref_apply` raises the generator images to
  powers, `ref_compose` chains them, and `ref_crossing_auto` is the
  crossing of one wall, z^{e_i} -> z^{e_i} * f^{<n0, v_i>};
* `ref_support_contains`, a wall's ray on Fraction pairs;
* `ref_maslov_index`, 2 * (total degree - number of marks).
"""

from fractions import Fraction

from tropenum.fan import degree_total
from tropenum.lattice import (InvariantError, dot, hfrac, rot90,
                              smith_normal_form, wedge)
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


# -- the ring and its automorphisms -------------------------------------------


def _neg(elem):
    return RingElement(elem.nrays, {k: -c for k, c in elem.terms.items()})


def ref_inverse(elem):
    """Inverse of c * z^{m*} * (1 + N) with N nilpotent: the pieces are
    inverted separately, 1/(1 + N) as the finite series sum (-N)^j."""
    units = [(m, c) for (m, uset), c in elem.terms.items() if not uset]
    if len(units) != 1:
        raise InvariantError("unsupported: negative power of a "
                             "non-unipotent element")
    mstar, cstar = units[0]
    unit_inv = ring_mono(elem.nrays, Fraction(1) / cstar, (),
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
    for (m, uset), c in elem.terms.items():
        acc = ring_mono(n, c, uset, (0,) * n)
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
