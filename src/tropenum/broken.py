"""Broken lines and the superpotential.

A broken line for a scattering diagram is a piecewise straight path ending
at a chosen generic endpoint Q.  Each segment carries a monomial c*u_I*z^m
and travels in the direction -r(m); the unbounded initial segment carries
z^{e_rho} for a single fan ray rho.  At a bend the line crosses a wall and
the monomial picks up the non-unit term of f^e, where e = <n0, r(m)> > 0
is measured against the incoming direction.

We trace backwards from Q.  The final exponent m_fin is bounded: a wall
of build_diagram is f = 1 + c*u_I*z^{Delta(h)} for a Maslov-0 tree h
through the marks I, with |Delta(h)| = |I|, and u_i^2 = 0 gives
f^e = 1 + e*c*u_I*z^{Delta(h)}.  So every bend adds an exponent of size
|I|, the mark masks consumed along the way are pairwise disjoint, and
sum(m_fin) <= 1 + k for k marked points.  For each candidate m_fin the
tracer walks the ray Q + s*r(m), s > 0, branching over admissible bends,
and accepts when the exponent has dropped to a single ray generator.
All arithmetic is exact; the bend multiplier e = |wedge(w.dirvec, r(m))|
is unchanged by the bend itself since every wall term exponent is
parallel to the wall direction, so no division ever enters the
coefficients.

Degenerate pictures (a segment along a wall, through a wall base or a
wall crossing) raise GenericityError asking for a fresh endpoint.
"""

from .enumeration import _boxed_exponents, enumerate_maslov2_disks
# the endpoint sampler lives next to sample_generic_points; this module
# keeps its public name, the same function object
from .enumeration import sample_endpoint  # noqa: F401
from .fan import r_vector
from .lattice import (GenericityError, InvariantError, dot, hfrac, hshift,
                      mask_labels, wedge)
from .scattering import (RingElement, _cross, build_diagram, path_crossings,
                         ring_mono)


class BrokenLine:
    """One broken line: an initial ray index, the bend points with the
    monomial carried on each segment, and the endpoint Q.

    segs is a tuple of (start, end, (c, I, m)), I the segment's u-part as
    a mark mask; the first start is None for the unbounded segment and the
    last end is Q.  Points are homogeneous triples.
    """

    __slots__ = ("fan", "init_ray", "segs", "endpoint")

    def __init__(self, fan, init_ray, segs, endpoint):
        self.fan = fan
        self.init_ray = init_ray
        self.segs = tuple(segs)
        self.endpoint = endpoint

    def nbends(self):
        return len(self.segs) - 1

    def final(self):
        """(c, I, m) carried by the segment ending at Q."""
        return self.segs[-1][2]

    def final_element(self):
        c, mask, m = self.final()
        return ring_mono(self.fan.nrays(), c, mask, m)

    def key(self):
        c, mask, m = self.final()
        return (m, mask_labels(mask), (c.numerator, c.denominator))

    def __repr__(self):
        c, mask, m = self.final()
        return "BrokenLine(init=%d, bends=%d, final=%s*u%s*z^%s)" % (
            self.init_ray, self.nbends(), c, list(mask_labels(mask)), list(m))


class Potential:
    """Value of the superpotential at an endpoint Q (a homogeneous triple):
    y0 plus the final monomials of all broken lines ending at Q."""

    __slots__ = ("fan", "k", "endpoint", "value", "lines")

    def __init__(self, fan, k, endpoint, value, lines):
        self.fan = fan
        self.k = k
        self.endpoint = endpoint
        self.value = value
        self.lines = tuple(lines)

    def mod_u(self):
        return self.value.mod_u()

    def kappa(self):
        """The monomial z^{(1,...,1)} whose formal log pairs with the
        potential as the first flat coordinate."""
        n = self.fan.nrays()
        return ring_mono(n, 1, 0, (1,) * n)

    def u_sum(self):
        """u_1 + ... + u_k, the second flat coordinate."""
        n = self.fan.nrays()
        terms = {}
        for i in range(self.k):
            terms[((0,) * n, 1 << i)] = 1
        return RingElement(n, terms)

    def __repr__(self):
        return "Potential(at=%s, %d lines)" % (
            list(hfrac(self.endpoint)), len(self.lines))


_LEG_FAULTS = ("broken line segment through a wall base; resample the "
               "endpoint",
               "broken line segment through a wall crossing; resample the "
               "endpoint",
               "broken line segment runs along a wall; resample the endpoint")


class _Tracer:
    def __init__(self, diagram, Q):
        self.d = diagram
        self.fan = diagram.fan
        self.Q = Q
        if diagram.supp_contains(self.Q):
            raise GenericityError("endpoint lies on the diagram support; "
                                  "resample the endpoint")
        self.out = []

    def run(self):
        n = self.fan.nrays()
        cap = self.d.k() + 1
        for m in _boxed_exponents((cap,) * n):
            if not 1 <= sum(m) <= cap:
                continue
            if r_vector(self.fan, m) == (0, 0):
                continue
            self._trace(self.Q, m, 0, [])
        self.out.sort(key=lambda bl: bl.key())
        return self.out

    def _trace(self, X, m, taken, bends_rev):
        r = r_vector(self.fan, m)
        hits = self.d.crossings(X, r, _LEG_FAULTS)
        if sum(m) == 1:
            self._emit(m.index(1), bends_rev)
            return
        for s, den, widx in hits:
            # the one bend at this wall takes the term e*c*u_I*z^{m0} of f^e
            w = self.d.walls[widx]
            if w.marks & taken:
                continue
            m_in = tuple(a - b for a, b in zip(m, w.m0))
            if any(a < 0 for a in m_in) or not any(m_in):
                continue
            if r_vector(self.fan, m_in) == (0, 0):
                continue
            V = hshift(X, s, den, r)
            e = abs(wedge(w.dirvec, r))
            bends_rev.append((V, widx, w.m0, w.marks, e * w.c))
            self._trace(V, m_in, taken | w.marks, bends_rev)
            bends_rev.pop()

    def _emit(self, rho, bends_rev):
        n = self.fan.nrays()
        m = tuple(1 if i == rho else 0 for i in range(n))
        c = 1
        mask = 0
        segs = []
        prev = None
        for V, widx, mt, ut, ct in reversed(bends_rev):
            segs.append((prev, V, (c, mask, m)))
            c = c * ct
            mask |= ut
            m = tuple(a + b for a, b in zip(m, mt))
            prev = V
        segs.append((prev, self.Q, (c, mask, m)))
        self.out.append(BrokenLine(self.fan, rho, segs, self.Q))


def enumerate_broken_lines(d, fan, Q):
    """All broken lines of the diagram d ending at Q, a normalized triple,
    sorted by their final monomial."""
    if fan is not d.fan and fan.rays != d.fan.rays:
        raise InvariantError("diagram was built over a different fan")
    return _Tracer(d, Q).run()


def potential(d, fan, Q):
    """The superpotential at Q, a normalized triple: y0 + sum of broken
    line finals."""
    lines = enumerate_broken_lines(d, fan, Q)
    n = fan.nrays()
    val = RingElement(n, {}, y0=1)
    for bl in lines:
        val = val.add(bl.final_element())
    return Potential(fan, d.k(), Q, val, lines)


def transport(d, W, path):
    """Parallel transport of a potential: crosses, in order, the walls of
    the polyline from W.endpoint through the vertices of `path`
    (normalized triples), which may start anywhere off the support, each
    applied to W.value term by term, and gives the potential at the last
    vertex."""
    val = W.value
    for widx, n0 in path_crossings(d, [W.endpoint] + list(path)):
        val = _cross(d.walls[widx], [dot(n0, v) for v in W.fan.rays], val)
    return Potential(W.fan, W.k, path[-1], val, ())


def verify_disk_correspondence(fan, config, Q):
    """Check, termwise, that broken line finals match the disk count:
    each Maslov index two disk through (config, Q) contributes the
    monomial Mult(h) * u_{marks} * z^{deg}, and the two multisets must
    agree exactly."""
    d = build_diagram(fan, config)
    lines = enumerate_broken_lines(d, fan, Q)
    want = sorted((rec.deg, mask_labels(rec.marks), (rec.mult, 1))
                  for rec in enumerate_maslov2_disks(fan, config, Q))
    return sorted(bl.key() for bl in lines) == want
