"""Nilpotent coefficient ring, walls, and path-ordered wall crossing.

The ring is spanned by monomials c * u_I * z^m where m is an integer
exponent vector with one slot per fan ray and I is a set of marks, a bit
mask as the forest's, with u_i^2 = 0.  Exponents are kept per ray instead
of being pushed to their image in M, so the product of all ray generators
stays a visible monomial rather than collapsing to 1.

An automorphism is pinned by its images on the ray generators and fixes
every u_i and the additive constant y0.  Crossing a wall with function f
sends z^m to z^m * f^{<n0, r(m)>}, where n0 is the primitive normal of
the wall support chosen against the direction of travel.

The diagram built from Maslov-0 trees carries one ray per tree h, with
f = 1 + c*u_I*z^{m0}, c = w(E_out) Mult(h), I the marks of h (never
empty) and m0 = Delta(h).  Since u_i^2 = 0, f^e = 1 + e*c*u_I*z^{m0}
exactly for every integer e, so a crossing is applied term by term in
closed form (_cross) with no powers raised and nothing memoized: a term
c'*u_J*z^m stays and, when e = <n0, r(m)> is non-zero and J misses I,
gains e*c'*c*u_{J+I}*z^{m+m0}.  A loop or a path folds its ordered
crossings through the current generator images.  Consistency at
non-marked singular points is checked by composing an exact loop, never
assumed.

A diagram owns its incidences.  It files its walls by direction in
`lattice.wall_index` indexes and asks `lattice.ray_hits` which walls a ray
meets.  ScatteringDiagram.germs maps every singular point (a wall base or
a transversal crossing) to its wall germs in angular order; sing_points
and loop_automorphism read that table.  ScatteringDiagram.crossings is
the one scan of the walls a ray or a segment crosses transversally, with
the caller's GenericityError messages, for paths and broken lines alike.
"""

from .enumeration import build_forest
from .fan import r_vector
from .lattice import (GenericityError, InvariantError, angle_key, dot,
                      exact_shift, hdiff, hshift, mask_labels, primitive,
                      ray_hits, rot90, wall_index, walls_through, wedge)


def _zerovec(nrays):
    return (0,) * nrays


class RingElement:
    """terms maps (exponent tuple, mark mask) to a non-zero coefficient,
    kept as given: the forest makes ints, and every diagram built from
    trees has int coefficients only.  The mask is the u-part, bit i for
    u_{i+1}: products test u-parts with & and join them with |.

    y0 is an additive formal constant: it survives addition and
    automorphism application but refuses multiplication.
    """

    __slots__ = ("nrays", "terms", "y0")

    def __init__(self, nrays, terms=None, y0=0):
        self.nrays = nrays
        self.y0 = y0
        self.terms = {}
        if terms:
            for (m, mask), c in terms.items():
                if type(mask) is not int or mask < 0:
                    raise TypeError("u-part %r is not a mark mask" % (mask,))
                if not c:
                    continue
                key = (tuple(m), mask)
                if len(key[0]) != nrays:
                    raise InvariantError("exponent length != ray count")
                c += self.terms.get(key, 0)
                if c:
                    self.terms[key] = c
                else:
                    self.terms.pop(key, None)

    def add(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            c += out.get(key, 0)
            if c:
                out[key] = c
            else:
                out.pop(key, None)
        e = RingElement(self.nrays, y0=self.y0 + other.y0)
        e.terms = out
        return e

    def mul(self, other):
        if self.y0 or other.y0:
            raise InvariantError("y0 is a formal constant, not a factor")
        out = {}
        for (m1, i1), c1 in self.terms.items():
            for (m2, i2), c2 in other.terms.items():
                if i1 & i2:
                    continue            # u_i^2 = 0
                key = (tuple(a + b for a, b in zip(m1, m2)), i1 | i2)
                c = out.get(key, 0) + c1 * c2
                if c:
                    out[key] = c
                else:
                    out.pop(key, None)
        e = RingElement(self.nrays)
        e.terms = out
        return e

    def pow(self, e):
        """self^e for an integer e >= 0.  No engine code raises an element
        to a negative power, so a negative e is a bug."""
        e = int(e)
        if e < 0:
            raise InvariantError("negative power of a ring element")
        out = ring_one(self.nrays)
        b = self
        while e:
            if e & 1:
                out = out.mul(b)
            b = b.mul(b)
            e >>= 1
        return out

    def mod_u(self):
        """Image with every u_i set to 0."""
        e = RingElement(self.nrays, y0=self.y0)
        e.terms = {key: c for key, c in self.terms.items() if not key[1]}
        return e

    def __eq__(self, other):
        return (isinstance(other, RingElement) and self.nrays == other.nrays
                and self.terms == other.terms and self.y0 == other.y0)

    def __repr__(self):
        return "RingElement(%s)" % format_element(self)


def ring_one(nrays):
    return ring_mono(nrays, 1, 0, _zerovec(nrays))


def ring_mono(nrays, c, mask, m):
    return RingElement(nrays, {(tuple(m), mask): c})


def ray_generator(nrays, ridx):
    m = [0] * nrays
    m[ridx] = 1
    return ring_mono(nrays, 1, 0, m)


def format_element(elem, names=None):
    """Deterministic text form; u labels print 1-based as u1, u2, ..."""
    if names is None:
        names = ["x%d" % i for i in range(elem.nrays)]
    bits = []
    if elem.y0:
        bits.append("y0" if elem.y0 == 1 else "%s*y0" % elem.y0)
    order = sorted(elem.terms, key=lambda k: (sum(k[0]), k[0],
                                              mask_labels(k[1])))
    for m, mask in order:
        c = elem.terms[(m, mask)]
        fs = ["u%d" % (i + 1) for i in mask_labels(mask)]
        for i, e in enumerate(m):
            if e == 1:
                fs.append(names[i])
            elif e:
                fs.append("%s^%d" % (names[i], e))
        if not fs:
            bits.append(str(c))
        elif c == 1:
            bits.append("*".join(fs))
        elif c == -1:
            bits.append("-" + "*".join(fs))
        else:
            bits.append("%s*%s" % (c, "*".join(fs)))
    return " + ".join(bits) if bits else "0"


class RingAutomorphism:
    """Images of the ray generators; u_i and y0 are fixed."""

    __slots__ = ("nrays", "images")

    def __init__(self, nrays, images):
        self.images = tuple(images)
        if len(self.images) != nrays:
            raise InvariantError("need one image per ray generator")
        self.nrays = nrays

    # No engine code applies or composes automorphisms: crossings fold
    # term by term (_cross).  compose stays because the benchmark's tracer
    # wraps it by name, and apply is its body; apply raises on a negative
    # exponent, since pow does.
    def apply(self, elem):
        out = RingElement(self.nrays, y0=elem.y0)
        for (m, mask), c in elem.terms.items():
            acc = ring_mono(self.nrays, c, mask, _zerovec(self.nrays))
            for ridx, e in enumerate(m):
                if e:
                    acc = acc.mul(self.images[ridx].pow(e))
            out = out.add(acc)
        return out

    def compose(self, other):
        """self after other."""
        return RingAutomorphism(self.nrays,
                                [self.apply(im) for im in other.images])

    def is_identity(self):
        return all(self.images[i] == ray_generator(self.nrays, i)
                   for i in range(self.nrays))

    def __eq__(self, other):
        return (isinstance(other, RingAutomorphism)
                and self.nrays == other.nrays
                and self.images == other.images)

    def __repr__(self):
        return ("RingAutomorphism(%s)"
                % "; ".join(format_element(im) for im in self.images))


class Wall:
    """Ray from base along -r(m0) with the function f = 1 + c*u_I*z^{m0}.

    base is a normalized triple and c a non-zero coefficient, m0 and both
    kept as given, and I a non-empty mark mask `marks`, so f - 1 is
    nilpotent and f^e = 1 + e*c*u_I*z^{m0}.  f is kept as a RingElement
    for the documents and the general ring code.  `ray_hits` reads
    kn = wedge(base, dirvec) and `marks`.
    """

    __slots__ = ("fan", "base", "m0", "c", "marks", "f", "dirvec", "kn")

    def __init__(self, fan, base, m0, c, marks):
        self.fan = fan
        self.base = base
        self.m0 = m0
        r = r_vector(fan, self.m0)
        if r == (0, 0):
            raise InvariantError("wall exponent has no direction")
        self.dirvec = primitive((-r[0], -r[1]))[0]
        self.kn = wedge(self.base, self.dirvec)
        self.c = c
        self.marks = marks
        if not self.c:
            raise InvariantError("wall coefficient is zero")
        if not marks:
            raise InvariantError("unsupported wall function: f - 1 is not "
                                 "nilpotent")
        nrays = fan.nrays()
        self.f = ring_one(nrays).add(ring_mono(nrays, self.c, marks,
                                               self.m0))

    def __repr__(self):
        return ("Wall(ray at %s, dir %s, f=%s)"
                % (self.base, self.dirvec, format_element(self.f)))


def _cross(wall, ns, elem):
    """Image of elem under crossing wall with normal n0, given
    ns = [<n0, v> for each ray v]: each term c*u_J*z^m picks up the factor
    f^e = 1 + e*c_w*u_I*z^{m0}, with e = <n0, r(m)> = sum m_i * ns_i."""
    cw, iw, m0 = wall.c, wall.marks, wall.m0
    out = dict(elem.terms)
    for (m, mask), c in elem.terms.items():
        e = sum(a * b for a, b in zip(m, ns))
        if not e or mask & iw:
            continue                # f^0 = 1, or u_i^2 = 0
        key = (tuple(a + b for a, b in zip(m, m0)), mask | iw)
        c2 = out.get(key, 0) + e * c * cw
        if c2:
            out[key] = c2
        else:
            out.pop(key, None)
    img = RingElement(elem.nrays, y0=elem.y0)
    img.terms = out
    return img


def _fold(fan, crossings):
    """Automorphism of an ordered list of (wall, n0) crossings, the
    first crossing applied first."""
    nrays = fan.nrays()
    images = [ray_generator(nrays, i) for i in range(nrays)]
    for wall, n0 in crossings:
        ns = [dot(n0, v) for v in fan.rays]
        images = [_cross(wall, ns, im) for im in images]
    return RingAutomorphism(nrays, images)


class ScatteringDiagram:
    """Finite collection of walls plus the marked points they grew from,
    normalized triples kept as given.
    Walls of one direction o form one `wall_index` (keys, walls, o).
    A wall's index is its position in `walls`, found by identity: one Wall
    may sit in several diagrams, but only once in each."""

    def __init__(self, fan, walls, marked_points):
        self.fan = fan
        self.walls = tuple(walls)
        self.marked = tuple(marked_points)
        self._germs = None
        self._pos = {}          # id(wall) -> its position in walls
        by_dir = {}
        for widx, w in enumerate(self.walls):
            first = self._pos.setdefault(id(w), widx)
            if first != widx:
                raise InvariantError("wall %d repeats wall %d" % (widx, first))
            by_dir.setdefault(w.dirvec, []).append(w)
        self._index = {o: wall_index(o, ws) for o, ws in by_dir.items()}

    def k(self):
        return len(self.marked)

    def supp_contains(self, X):
        """Does a wall's ray hold the point X (a normalized triple)?"""
        return any(walls_through(ix, X) for ix in self._index.values())

    def germs(self):
        """Singular point (homogeneous triple) -> its wall germs
        (direction, wall index) sorted by (angle_key, index), cached.  A
        wall base gives its outgoing germ; a wall of direction r meets each
        wall of direction o > r (tuple order) its ray hits, so a crossing
        is found once, and a wall crossed at parameter x gives its outgoing
        germ, and the opposite one when x > 0.  A wall that meets a point
        only collinearly with the other walls there is left out: its two
        germs commute with every germ at the point and cancel."""
        if self._germs is None:
            table = {}
            for widx, w in enumerate(self.walls):
                table.setdefault(w.base, set()).add((w.dirvec, widx))
            for a, wa in enumerate(self.walls):
                X, r = wa.base, wa.dirvec
                for o, index in self._index.items():
                    c = wedge(r, o)
                    if not c or o < r:
                        continue
                    for wb, s, t in ray_hits(index, X, r, c, wa.kn, 0):
                        b = self._pos[id(wb)]
                        at = table.setdefault(
                            hshift(X, s, X[2] * wb.base[2] * c, r), set())
                        for x, widx, v in ((s, a, r), (t, b, o)):
                            at.add((v, widx))
                            if x:
                                at.add(((-v[0], -v[1]), widx))
            self._germs = {
                X: tuple(sorted(gs, key=lambda g: (angle_key(g[0]), g[1])))
                for X, gs in table.items()}
        return self._germs

    def sing_points(self):
        """The singular points, sorted by their (x, y) values on the exact
        integer keys of `exact_shift`."""
        germs = self.germs()
        K = exact_shift(X[2] for X in germs)
        return sorted(germs, key=lambda X: ((X[0] << K) // X[2],
                                            (X[1] << K) // X[2]))

    def crossings(self, X, d, faults, end=None):
        """Transversal wall crossings of X + s*d, s > 0 (and s < 1/end for
        a segment): (s_num, den, wall index) with s = s_num/den, den > 0,
        sorted by (s, index) on the exact integer keys of `exact_shift`.

        faults = (at_base, coincident, along) are the GenericityError
        messages for a hit at a wall base, for two transversal walls hit
        at one s, and for a ray (end None) along a wall; the faulty wall
        of lowest index comes first, a coincident crossing last."""
        at_base, coincident, along = faults
        xr = wedge(X, d)
        hits, bad = [], []
        for o, index in self._index.items():
            c = wedge(d, o)
            if not c and end is not None:
                continue    # a segment along a wall has a vertex on it
            for w, s, t in ray_hits(index, X, d, c, xr, 0):
                if not c:
                    # on the ray's line: any support overlap at s > 0
                    D = hdiff(w.base, X)
                    if dot(o, D) >= 0 or dot(o, d) > 0:
                        bad.append((self._pos[id(w)], along))
                    continue
                den = X[2] * w.base[2] * c
                if den < 0:
                    s, t, den = -s, -t, -den
                if not s or (end is not None and s * end >= den):
                    continue
                if not t:
                    bad.append((self._pos[id(w)], at_base))
                else:
                    hits.append((s, den, self._pos[id(w)]))
        if bad:
            raise GenericityError(min(bad)[1])
        K = exact_shift(h[1] for h in hits)
        hits.sort(key=lambda h: ((h[0] << K) // h[1], h[2]))
        for a, b in zip(hits, hits[1:]):
            if a[0] * b[1] == b[0] * a[1] and wedge(
                    self.walls[a[2]].dirvec, self.walls[b[2]].dirvec) != 0:
                raise GenericityError(coincident)
        return hits

    def __repr__(self):
        return ("ScatteringDiagram(%d walls, %d marked points)"
                % (len(self.walls), len(self.marked)))


_PATH_FAULTS = ("non-transverse path: through a wall base",
                "non-transverse path: through a singular point", None)


def path_crossings(diagram, path):
    """The walls a polyline crosses, in order: a list of (wall index, n0)
    with n0 the primitive wall normal against the travel direction.

    The path is a list of normalized triples.  Raises GenericityError(
    "non-transverse path ...") when the path has a vertex on the support
    (as every path running along a wall has) or passes through a singular
    point or a wall base.
    """
    if len(path) < 2:
        raise InvariantError("path needs at least two vertices")
    for P in path:
        if diagram.supp_contains(P):
            raise GenericityError("non-transverse path: vertex on the "
                                  "support")
    crossings = []
    for A, B in zip(path, path[1:]):
        seg = hdiff(A, B)
        if seg == (0, 0):
            continue
        # B = A + seg / end; a hit at a segment end, or a segment along a
        # wall, puts a vertex on the support, which the check above rejected
        for _, _, widx in diagram.crossings(A, seg, _PATH_FAULTS,
                                            end=A[2] * B[2]):
            nraw = rot90(diagram.walls[widx].dirvec)
            n0 = nraw if dot(nraw, seg) < 0 else (-nraw[0], -nraw[1])
            crossings.append((widx, n0))
    return crossings


def path_automorphism(diagram, path):
    """Ordered composition of the wall crossings along a polyline, the
    first wall crossed applied first."""
    return _fold(diagram.fan, [(diagram.walls[widx], n0)
                               for widx, n0 in path_crossings(diagram, path)])


def build_diagram(fan, config):
    """One ray per Maslov-0 tree: support from the tree's root along its
    out direction, function 1 + w(E_out) Mult(h) u_{I(h)} z^{Delta(h)}."""
    walls = []
    for t in build_forest(fan, config).trees:
        w = Wall(fan, t.base, t.deg, t.w * t.mult, t.marks)
        if w.dirvec != t.out:
            raise InvariantError("wall direction disagrees with the tree "
                                 "out-edge")
        walls.append(w)
    return ScatteringDiagram(fan, walls, config.points)


def loop_automorphism(diagram, X):
    """Automorphism of a small counterclockwise loop around X, composed
    exactly from the wall germs at X (a normalized triple) in angular
    order; the identity when X is not a singular point."""
    return _fold(diagram.fan, [
        (diagram.walls[widx], (g[1], -g[0]))    # n0 against the ccw travel
        for g, widx in diagram.germs().get(X, ())])


class ConsistencyReport:
    """Loop check at every singular point; rows are (point, marked,
    identity, automorphism) with the point a homogeneous triple.  Marked
    points are recorded, never required to close up."""

    def __init__(self, rows):
        self.rows = tuple(rows)
        self.ok = all(ident for _, marked, ident, _ in self.rows
                      if not marked)

    def failures(self):
        return [r for r in self.rows if not r[1] and not r[2]]

    def __repr__(self):
        bad = len(self.failures())
        return ("ConsistencyReport(%d singular points, %s)"
                % (len(self.rows), "ok" if self.ok and not bad
                   else "%d failures" % bad))


def check_consistency(diagram):
    marked = set(diagram.marked)
    rows = []
    for X in diagram.sing_points():
        auto = loop_automorphism(diagram, X)
        rows.append((X, X in marked, auto.is_identity(), auto))
    return ConsistencyReport(rows)
