"""Property tests of the homogeneous-point kernels against plain Fraction
arithmetic written here, sharing no code with tropenum.lattice beyond
hpoint, which turns a Fraction pair into the triple the kernels take; of
the integer side and line tests the Maslov-0 forest puts in front of them,
and of its offset-sorted wall index, whose builder `wall_index` must order
forest trees and diagram walls as `reference.ref_bucket` does; of the
exact sort keys of ratios; of the integer elimination, checked by matrix
products on small integer matrices and against the Fraction elimination,
determinant and Smith form of `reference`; and of the integer angular
order against the Fraction slopes of `reference.ref_angle_key`."""

from fractions import Fraction
from math import floor, gcd, prod
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (det, ref_angle_key, ref_bucket, ref_eliminate,
                       smith_normal_form)
from tropenum.enumeration import Tree
from tropenum.fan import builtin_fan
from tropenum.lattice import (OFFSET_BITS, angle_key, eliminate, exact_shift,
                              hdiff, hfrac, hpoint, line_param, offset_key,
                              on_line, on_ray, on_segment, ray_hits,
                              ray_intersect, ray_params, wall_index, wedge)
from tropenum.scattering import Wall

coord = st.fractions(min_value=-20, max_value=20, max_denominator=60)
pair = st.tuples(coord, coord)
small = st.integers(min_value=-6, max_value=6)
vector = st.tuples(small, small).filter(lambda v: v != (0, 0))
scale = st.fractions(min_value=-3, max_value=3, max_denominator=12)

SETTINGS = settings(max_examples=200, deadline=None)
P2 = builtin_fan("p2")


def cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def along(p, lam, d):
    return (p[0] + lam * d[0], p[1] + lam * d[1])


def ref_crossing(a, da, b, db):
    """(s, t) with a + s*da == b + t*db, or None for parallel lines."""
    c = cross(da, db)
    if c == 0:
        return None
    w = sub(b, a)
    return Fraction(cross(w, db), c), Fraction(cross(w, da), c)


def ref_param(p, b, d):
    """t with p == b + t*d, or None if p is off the line."""
    w = sub(p, b)
    if cross(w, d) != 0:
        return None
    return w[0] / d[0] if d[0] else w[1] / d[1]


def normalized(P):
    X, Y, W = P
    return W > 0 and gcd(X, Y, W) == 1


@st.composite
def ray_pairs(draw):
    """Two lines that are parallel, collinear or crossing, about equally."""
    a, da = draw(pair), draw(vector)
    kind = draw(st.sampled_from(("any", "parallel", "collinear")))
    if kind == "any":
        return a, da, draw(pair), draw(vector)
    db = (da[0] * draw(st.sampled_from((1, -1, 2))),
          da[1] * draw(st.sampled_from((1, -1, 2))))
    if cross(da, db) != 0:
        db = da
    b = along(a, draw(scale), da) if kind == "collinear" else draw(pair)
    return a, da, b, db


@st.composite
def point_on_or_off(draw, base):
    """A point on the line base + t*d about half the time."""
    d = draw(vector)
    if draw(st.booleans()):
        return along(base, draw(scale), d), d
    return draw(pair), d


@SETTINGS
@given(ray_pairs())
def test_ray_params_matches_fraction_reference(lines):
    a, da, b, db = lines
    got = ray_params(hpoint(*a), da, hpoint(*b), db)
    want = ref_crossing(a, da, b, db)
    if want is None:
        assert got is None
        return
    s_num, t_num, den = got
    assert den > 0
    assert (Fraction(s_num, den), Fraction(t_num, den)) == want


@SETTINGS
@given(ray_pairs())
def test_ray_intersect_matches_fraction_reference(lines):
    a, da, b, db = lines
    got = ray_intersect(hpoint(*a), da, hpoint(*b), db)
    want = ref_crossing(a, da, b, db)
    if want is None:
        assert got is None
        return
    s_num, t_num, den, P = got
    s, t = want
    assert den > 0
    assert (Fraction(s_num, den), Fraction(t_num, den)) == (s, t)
    assert normalized(P)
    assert hfrac(P) == along(a, s, da) == along(b, t, db)


def side_num(X, d, B, db):
    """d = kn * X.w - xn * B.w with kn = wedge(B, db) and xn = wedge(X, db),
    as Forest._trace computes it for a stem point X and a wall (B, db)."""
    return wedge(B, db) * X[2] - wedge(X, db) * B[2]


@SETTINGS
@given(ray_pairs())
def test_side_test_is_raw_s_num_of_ray_params(lines):
    a, r, b, out = lines
    X, B = hpoint(*a), hpoint(*b)
    assert normalized(X) and normalized(B)
    d = side_num(X, r, B, out)
    c = wedge(r, out)
    got = ray_params(X, r, B, out)
    if c == 0:
        assert got is None
        # the stem's line is the wall's exactly when d == 0
        assert (d == 0) == (wedge(r, hdiff(X, B)) == 0)
        assert (d == 0) == (ref_param(a, b, out) is not None)
        return
    s_num, _, den = got
    # ray_params flips the raw signs when its raw den = X.w * B.w * c < 0
    assert s_num == (d if c > 0 else -d)
    s = ref_crossing(a, r, b, out)[0]
    assert (d * c < 0) == (Fraction(s_num, den) < 0) == (s < 0)


@SETTINGS
@given(st.data(), pair)
def test_line_test_matches_line_param(data, b):
    # the test the forest puts in front of on_segment and on_ray
    p, d = data.draw(point_on_or_off(b))
    P, B = hpoint(*p), hpoint(*b)
    got = on_line(P, B, d)
    assert got == (line_param(P, B, d) is not None)
    assert got == (ref_param(p, b, d) is not None)
    if not got:
        assert not on_ray(P, B, d, strict=True)


@st.composite
def offset_walls(draw):
    """A ray x + s*r, a skip mask, and walls of one direction o with small
    mark masks, rooted anywhere, on the line of x along o, within 2**-28
    or less of that line, or on the ray."""
    x, o = draw(pair), draw(vector)
    if draw(st.booleans()):
        r = draw(vector)
    else:
        r = (o[0] * draw(st.sampled_from((1, -1, 2))),
             o[1] * draw(st.sampled_from((1, -1, -3))))
        if cross(r, o) != 0:
            r = o
    marks = st.integers(min_value=0, max_value=3)
    bases = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from(("any", "line", "near", "ray")))
        if kind == "any":
            b = draw(pair)
        elif kind == "ray":
            b = along(x, abs(draw(scale)), r)
        else:
            b = along(x, draw(scale), o)
            if kind == "near":
                eps = Fraction(draw(st.sampled_from((1, -1))),
                               2 ** draw(st.integers(28, 40)))
                b = along(b, eps, (-o[1], o[0]))
        bases.append((b, draw(marks)))
    return x, r, o, bases, draw(marks)


@SETTINGS
@given(offset_walls())
def test_offset_index_finds_every_wall_the_ray_reaches(case):
    x, r, o, bases, skip = case
    X = hpoint(*x)
    walls = []
    for b, m in bases:
        B = hpoint(*b)
        kn = cross(B, o)
        # the key is the floor of the exact offset kn / B.w, scaled
        assert offset_key(kn, B[2]) == floor(Fraction(kn, B[2])
                                             * 2 ** OFFSET_BITS)
        walls.append(SimpleNamespace(base=B, kn=kn, marks=m, b=b))
    walls.sort(key=lambda w: offset_key(w.kn, w.base[2]))
    index = ([offset_key(w.kn, w.base[2]) for w in walls], walls, o)
    c = cross(r, o)
    got = ray_hits(index, X, r, c, cross(X, r), skip)
    want = []
    for w in walls:
        params = ref_crossing(x, r, w.b, o)
        if w.marks & skip:
            continue
        if params is None:
            if ref_param(w.b, x, r) is not None:
                want.append(w)         # the wall's line is the ray's
        elif params[0] >= 0 and params[1] >= 0:
            want.append(w)
    assert [w for w, _, _ in got] == want
    for w, d, e in got:
        assert d == side_num(X, r, w.base, o)
        p = ray_params(X, r, w.base, o)
        if p is not None:
            # e is the raw t_num, signs flipped when X.w * base.w * c < 0
            assert (p[0], p[1]) == ((d, e) if c > 0 else (-d, -e))


@st.composite
def tied_walls(draw):
    """Forest trees or P2 diagram walls of one direction o = -(a, b),
    a, b >= 0, most rooted on a few shared lines along o (equal offset
    keys: the same root, or collinear ones), some within 2**-40 of such a
    line (equal keys, unequal offsets), the rest anywhere."""
    a, b = draw(st.sampled_from(((1, 0), (0, 1), (1, 1), (1, 2), (3, 1))))
    o = (-a, -b)
    lines = draw(st.lists(pair, min_size=1, max_size=3))
    kind = draw(st.sampled_from(("tree", "wall")))
    walls = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        where = draw(st.sampled_from(("root", "line", "near", "any")))
        p = draw(st.sampled_from(lines)) if where != "any" else draw(pair)
        if where in ("line", "near"):
            p = along(p, draw(scale), o)
        if where == "near":
            p = along(p, Fraction(draw(st.sampled_from((1, -1))), 2 ** 40),
                      (-o[1], o[0]))
        B = hpoint(*p)
        if kind == "tree":
            walls.append(Tree(1, (1, 0, 0), B, o, 1, 1, "leaf", (0, 0),
                              ("l", len(walls))))
        else:
            k = draw(st.integers(min_value=1, max_value=3))
            walls.append(Wall(P2, B, (k * a, k * b, 0), 1, {len(walls)}))
    return o, walls


@SETTINGS
@given(tied_walls())
def test_wall_index_orders_as_the_incremental_bucket(case):
    o, walls = case
    got = wall_index(o, walls)
    want = ref_bucket(o, walls)
    assert got[0] == want[0]
    assert [id(w) for w in got[1]] == [id(w) for w in want[1]]
    assert got[2] == o
    assert all(w.dirvec == o for w in walls if isinstance(w, Wall))


@SETTINGS
@given(st.data(), pair)
def test_line_param_and_on_ray_match_fraction_reference(data, b):
    p, d = data.draw(point_on_or_off(b))
    P, B = hpoint(*p), hpoint(*b)
    want = ref_param(p, b, d)
    got = line_param(P, B, d)
    if want is None:
        assert got is None
        assert not on_ray(P, B, d) and not on_ray(P, B, d, strict=True)
        return
    t_num, t_den = got
    assert t_den > 0
    assert Fraction(t_num, t_den) == want
    assert on_ray(P, B, d) == (want >= 0)
    assert on_ray(P, B, d, strict=True) == (want > 0)


@SETTINGS
@given(st.data(), pair, pair)
def test_on_segment_matches_fraction_reference(data, a, b):
    if data.draw(st.booleans()):
        p = along(a, data.draw(scale), sub(b, a))
    else:
        p = data.draw(pair)
    P, A, B = hpoint(*p), hpoint(*a), hpoint(*b)
    lam = None
    if a != b and cross(sub(p, a), sub(b, a)) == 0:
        w, d = sub(p, a), sub(b, a)
        lam = w[0] / d[0] if d[0] else w[1] / d[1]
    assert on_segment(P, A, B) == (lam is not None and 0 <= lam <= 1)
    assert on_segment(P, A, B, strict=True) == (lam is not None
                                                and 0 < lam < 1)


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def apply(A, x):
    return [sum(a * v for a, v in zip(row, x)) for row in A]


entry = st.integers(min_value=-3, max_value=3)


@st.composite
def matrices(draw):
    """A small integer matrix, often of low rank: about half are a product
    of an m x r and an r x n factor with r below both sizes."""
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=5))

    def block(rows, cols):
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    r = draw(st.integers(min_value=0, max_value=min(m, n)))
    if r == min(m, n):
        return block(m, n)
    if r == 0:
        return [[0] * n for _ in range(m)]
    return matmul(block(m, r), block(r, n))


@SETTINGS
@given(matrices())
def test_eliminate_gives_rref_and_left_kernel(A):
    m, n = len(A), len(A[0])
    pivots, R, T, D = eliminate(A)
    rank = len(pivots)
    assert D > 0
    assert matmul(T, A) == R
    assert pivots == sorted(set(pivots)) and all(0 <= c < n for c in pivots)
    for i, row in enumerate(R):
        if i >= rank:
            assert not any(row)
            continue
        assert not any(row[:pivots[i]]) and row[pivots[i]] == D
        assert all(R[j][pivots[i]] == 0 for j in range(m) if j != i)
    for y in T[rank:]:
        assert not any(apply(list(zip(*A)), y))
    # T is invertible, so its rows past the rank span the left kernel
    assert det(T) != 0


@SETTINGS
@given(st.data(), matrices())
def test_eliminate_solves_consistent_systems(data, A):
    n = len(A[0])
    x0 = data.draw(st.lists(entry, min_size=n, max_size=n))
    b = apply(A, x0)
    if data.draw(st.booleans()):
        b[data.draw(st.integers(0, len(b) - 1))] += 1
    pivots, R, T, D = eliminate(A)
    rank = len(pivots)
    tb = apply(T, b)
    if any(tb[rank:]):
        # never for A*x0; the left-kernel rows of T (checked by the
        # previous property) certify that A x = b has no solution
        assert b != apply(A, x0)
        return
    # the solution with every free coordinate 0, then a kernel basis with
    # one vector per free column, scaled by D
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = Fraction(tb[i], D)
    assert apply(A, x) == b
    free = [c for c in range(n) if c not in pivots]
    assert len(free) == n - rank
    for fc in free:
        v = [D * int(c == fc) for c in range(n)]
        for i, c in enumerate(pivots):
            v[c] = -R[i][fc]
        assert not any(apply(A, v))


@st.composite
def with_zero_rows(draw):
    """A matrix of matrices() with one or two rows of zeros inserted."""
    A = draw(matrices())
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        A.insert(draw(st.integers(0, len(A))), [0] * len(A[0]))
    return A


edge_matrices = st.one_of(
    st.just([]),
    st.integers(min_value=1, max_value=4).map(lambda m: [[]] * m),
    matrices(), with_zero_rows())


@SETTINGS
@given(edge_matrices)
def test_eliminate_matches_fraction_reference(A):
    """The integer elimination is the Fraction one scaled by D: the same
    pivots, R == D * R_ref and T == D * T_ref, every division exact."""
    m = len(A)
    n = len(A[0]) if m else 0
    pivots, R, T, D = eliminate(A)
    ref_pivots, ref_R, ref_T = ref_eliminate(A)
    rank = len(pivots)
    assert all(type(e) is int for row in R + T for e in row + [D])
    assert pivots == ref_pivots and D > 0
    assert R == [[D * e for e in row] for row in ref_R]
    assert T == [[D * e for e in row] for row in ref_T]
    assert matmul(T, A) == R
    assert det(T) != 0
    for y in T[rank:]:
        assert not any(apply(list(zip(*A)), y))
    if m == n:
        d = det(A)
        assert (d != 0) == (rank == n)
        if d:
            assert D == abs(d) == prod(smith_normal_form(A))


ratio = st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))


@SETTINGS
@given(st.lists(ratio, min_size=1, max_size=12))
def test_exact_shift_keys_order_ratios_exactly(ratios):
    # neighbours (d-1)/d < d/(d+1), 1/(d*(d+1)) apart: only a shift of
    # about twice the denominators' bits keeps them apart
    ratios += [r for _, d in ratios for r in ((d - 1, d), (d, d + 1))]
    K = exact_shift(d for _, d in ratios)
    for n1, d1 in ratios:
        for n2, d2 in ratios:
            k1, k2 = (n1 << K) // d1, (n2 << K) // d2
            q1, q2 = Fraction(n1, d1), Fraction(n2, d2)
            assert (k1 < k2) == (q1 < q2) and (k1 == k2) == (q1 == q2)


@SETTINGS
@given(st.lists(st.tuples(vector, st.integers(1, 4), st.booleans()),
                min_size=1, max_size=10))
def test_angle_key_matches_fraction_reference(draws):
    # each vector comes with a positive multiple (collinear, equal angle)
    # and, if drawn, its opposite (a half turn away)
    vs = []
    for v, k, flip in draws:
        vs += [v, (k * v[0], k * v[1])]
        if flip:
            vs.append((-v[0], -v[1]))
    for a in vs:
        for b in vs:
            ka, kb = angle_key(a), angle_key(b)
            ra, rb = ref_angle_key(a), ref_angle_key(b)
            assert (ka < kb) == (ra < rb) and (ka == kb) == (ra == rb)
    assert sorted(vs, key=angle_key) == sorted(vs, key=ref_angle_key)
