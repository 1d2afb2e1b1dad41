"""A curve's incidence table and the exact overlap test.

`ParamTropCurve.incidence` is built once per curve; every per-vertex rule
(balancing, valence, genus, multiplicities, canonical type, reduced graph)
reads it.  The first test checks it against a scan of the edge lists for
every solution of three counts.  `ref_canonical_type` and
`ref_reduced_graph` are the earlier versions, which built tables of their
own from the edge lists; the table-based ones must agree with them on
trees (which carry an out-edge), disks and solutions.

`_check_no_overlaps` tests a bounded edge as its segment and a ray as a
ray.  `ref_check_no_overlaps` below is the earlier version, kept as the
reference: it truncated every ray to a long `Fraction` segment far beyond
every vertex and ran segment arithmetic only.  The new check must give the
same outcome (True, or the same GenericityError message) on small piece
sets, on every solution and on solutions whose bounded edges were
stretched until a vertex meets another piece.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropenum import tropcurve
from tropenum.correspondence import reduced_graph
from tropenum.enumeration import (build_forest, disk_to_curve,
                                  enumerate_maslov2_disks, run_count,
                                  sample_endpoint, sample_generic_points,
                                  tree_to_curve)
from tropenum.fan import builtin_fan, make_degree
from tropenum.lattice import (GenericityError, InvariantError, hdiff, hfrac,
                              hpoint, on_segment, primitive, wedge)
from tropenum.tropcurve import (ParamTropCurve, _check_no_overlaps,
                                canonical_type, validate_curve)

COUNTS = (("p2", (3, 3, 3)), ("p1xp1", (2, 2, 2, 2)), ("dp6", (1,) * 6))


def ref_check_no_overlaps(c):
    # rays are truncated far beyond every vertex so overlap tests reduce
    # to exact segment arithmetic
    pieces = []
    span = 1
    fracs = [hfrac(p) for p in c.vertices]
    for x, y in fracs:
        span = max(span, abs(x), abs(y))
    reach = 4 * span + 4
    for i, j, w, d in c.bedges:
        pieces.append((c.vertices[i], c.vertices[j], (i, j)))
    for v, d, w in c.uedges:
        x, y = fracs[v]
        pieces.append((c.vertices[v],
                       hpoint(x + reach * d[0], y + reach * d[1]),
                       (v, None)))
    for a in range(len(pieces)):
        for b in range(a + 1, len(pieces)):
            A1, A2, ea = pieces[a]
            B1, B2, eb = pieces[b]
            da = hdiff(A1, A2)
            db = hdiff(B1, B2)
            if wedge(da, db) == 0 and wedge(da, hdiff(A1, B1)) == 0:
                # collinear: overlap iff the pieces share more than a point
                shared = sum(1 for P in (B1, B2)
                             if on_segment(P, A1, A2, strict=True))
                shared += sum(1 for P in (A1, A2)
                              if on_segment(P, B1, B2, strict=True))
                if shared or (A1 in (B1, B2) and A2 in (B1, B2)):
                    raise GenericityError("overlapping collinear edges")
    # no vertex interior to a non-incident edge
    for a, (A1, A2, ea) in enumerate(pieces):
        for v, P in enumerate(c.vertices):
            if v in ea:
                continue
            if on_segment(P, A1, A2, strict=True):
                raise GenericityError("vertex %d interior to an edge" % v)
    return True


def ref_canonical_type(c):
    n = len(c.vertices)
    inc = [[] for _ in range(n)]
    for idx, (i, j, w, d) in enumerate(c.bedges):
        inc[i].append((j, w, d))
        inc[j].append((i, w, (-d[0], -d[1])))
    labels = [[] for _ in range(n)]
    for label, v in c.marks:
        labels[v].append(label)
    if c.vout is not None:
        labels[c.vout].append("out")
    rays = [[] for _ in range(n)]
    for idx, (v, d, w) in enumerate(c.uedges):
        tag = "eout" if idx == c.out_edge else "ray"
        rays[v].append((tag, d, w))

    def enc(v, parent):
        subs = sorted(enc(u, v) + ((w, d),)
                      for u, w, d in inc[v] if u != parent)
        leaf = sorted(rays[v])
        return (tuple(sorted(labels[v], key=str)), tuple(leaf), tuple(subs))

    return min(repr(enc(v, -1)) for v in range(n))


def ref_reduced_graph(c):
    marked = {}
    for label, vi in c.marks:
        if vi in marked:
            raise InvariantError("two marks on one vertex")
        marked[vi] = label
    nb = len(c.bedges)
    at_vertex = {}
    for pi, (i, j, w, d) in enumerate(c.bedges):
        at_vertex.setdefault(i, []).append((pi, 0))
        at_vertex.setdefault(j, []).append((pi, 1))
    for ui, (i, d, w) in enumerate(c.uedges):
        at_vertex.setdefault(i, []).append((nb + ui, 0))
    weld = {}
    for vi in marked:
        inc = at_vertex.get(vi, [])
        if len(inc) != 2:
            raise InvariantError("marked vertex is not bivalent")
        (p1, s1), (p2, s2) = inc
        weld[(p1, s1)] = (p2, s2)
        weld[(p2, s2)] = (p1, s1)

    def token(pe):
        p, s = pe
        if p < nb:
            return ("v", c.bedges[p][s])
        if s == 0:
            return ("v", c.uedges[p - nb][0])
        return ("inf", c.uedges[p - nb][1])

    def weight(p):
        return c.bedges[p][2] if p < nb else c.uedges[p - nb][2]

    consumed = set()
    edges = []
    all_ends = [(p, s) for p in range(nb) for s in (0, 1)]
    all_ends += [(nb + u, s) for u in range(len(c.uedges)) for s in (0, 1)]
    for e0 in all_ends:
        if e0 in weld or e0 in consumed:
            continue
        labels = []
        pieces = []
        cur = e0
        while True:
            consumed.add(cur)
            p, s = cur
            pieces.append(p)
            far = (p, 1 - s)
            consumed.add(far)
            if far not in weld:
                break
            fv = c.bedges[p][1 - s] if p < nb else c.uedges[p - nb][0]
            labels.append(marked[fv])
            cur = weld[far]
        w = weight(pieces[0])
        for p in pieces:
            if weight(p) != w:
                raise InvariantError("weight jumps across a marked point")
        edges.append(((token(e0), token(far)), w, tuple(sorted(labels))))
    if len(consumed) != len(all_ends):
        raise InvariantError("reduced graph left a closed loop")
    verts = [i for i in range(len(c.vertices)) if i not in marked]
    return verts, edges


def outcome(check, *args):
    try:
        return check(*args)
    except GenericityError as e:
        return str(e)


def scan_incidence(c, v):
    """The ends at vertex v, by a scan of the edge lists."""
    ends = []
    for e, (i, j, w, d) in enumerate(c.bedges):
        if i == v:
            ends.append((w, d, j, e, 0))
        if j == v:
            ends.append((w, (-d[0], -d[1]), i, e, 1))
    for e, (i, d, w) in enumerate(c.uedges):
        if i == v:
            ends.append((w, d, None, e, 0))
    return tuple(ends)


@pytest.fixture(scope="module")
def solutions():
    out = []
    for name, deg in COUNTS:
        fan = builtin_fan(name)
        for seed in (1, 2):
            rep = run_count(fan, make_degree(fan, deg), seed)
            out.extend((fan, c) for c in rep.curves)
    return out


def test_incidence_matches_a_scan_of_the_edges(solutions):
    assert len(solutions) > 40
    for _, c in solutions:
        assert c.incidence == tuple(scan_incidence(c, v)
                                    for v in range(len(c.vertices)))
        assert all(c.germs(v) == [(w, d) for w, d, _, _, _ in ends]
                   for v, ends in enumerate(c.incidence))


def test_type_and_reduced_graph_match_reference(solutions):
    fan = builtin_fan("p2")
    config = sample_generic_points(3, 4)
    forest = build_forest(fan, config)
    disks = enumerate_maslov2_disks(fan, config, sample_endpoint(5),
                                    forest=forest)
    curves = [tree_to_curve(t, fan) for t in forest.trees]
    curves += [disk_to_curve(d, fan) for d in disks]
    assert any(c.out_edge is not None for c in curves)
    assert any(c.vout is not None and c.marks for c in curves)
    curves += [c for _, c in solutions]
    # the same curves with their bounded edges listed in another order
    rng = random.Random(7)
    curves += [ParamTropCurve(c.vertices, rng.sample(c.bedges, len(c.bedges)),
                              c.uedges, c.marks, c.vout, c.out_edge)
               for c in curves]
    # a line through two marks, its edges listed out of order along it
    curves.append(ParamTropCurve(
        [pt(0, 0), pt(1, 0), pt(2, 0), pt(3, 0)],
        [(1, 2, 1, (1, 0)), (2, 3, 1, (1, 0)), (0, 1, 1, (1, 0))],
        [(0, (-1, 0), 1), (3, (1, 0), 1)], [(0, 1), (1, 2)]))

    def result(f, c):
        # canonical_type raises TypeError on some marked disks, where it
        # compares the label "out" with an int; both versions must agree
        try:
            return f(c)
        except (InvariantError, TypeError) as e:
            return type(e), str(e)

    for c in curves:
        assert result(canonical_type, c) == result(ref_canonical_type, c)
        assert result(reduced_graph, c) == result(ref_reduced_graph, c)


def pt(x, y):
    return hpoint(Fraction(x), Fraction(y))


def curve(points, segments, rays):
    V = [pt(*p) for p in points]
    bedges = [(i, j, 1, primitive(hdiff(V[i], V[j]))[0])
              for i, j in segments]
    return ParamTropCurve(V, bedges, [(v, d, 1) for v, d in rays], [])


# (points, segments, rays, expected outcome)
CASES = [
    # a vertex inside a segment, then inside a ray
    ([(0, 0), (4, 0), (2, 0)], [(0, 1)], [],
     "vertex 2 interior to an edge"),
    ([(0, 0), (3, 3)], [], [(0, (1, 1))], "vertex 1 interior to an edge"),
    # the ray's base is a vertex of the segment; the segment's far end is
    # inside the ray only when it points the ray's way
    ([(0, 0), (-2, 0)], [(0, 1)], [(0, (1, 0))], True),
    ([(0, 0), (2, 0)], [(0, 1)], [(0, (1, 0))],
     "overlapping collinear edges"),
    # a segment strictly beyond the ray's base, and one around it
    ([(0, 0), (1, 1), (2, 2)], [(1, 2)], [(0, (1, 1))],
     "overlapping collinear edges"),
    ([(0, 0), (-1, 0), (1, 0)], [(1, 2)], [(0, (0, 1))],
     "vertex 0 interior to an edge"),
    # rays from one base: the same way overlap, opposite ways do not
    ([(0, 0)], [], [(0, (1, 2)), (0, (1, 2))], "overlapping collinear edges"),
    ([(0, 0)], [], [(0, (1, 2)), (0, (2, 4))], "overlapping collinear edges"),
    ([(0, 0)], [], [(0, (1, 2)), (0, (-1, -2))], True),
    # opposite collinear rays: toward each other overlap, away do not
    ([(0, 0), (3, 0)], [], [(0, (1, 0)), (1, (-1, 0))],
     "overlapping collinear edges"),
    ([(0, 0), (3, 0)], [], [(0, (-1, 0)), (1, (1, 0))], True),
    # parallel rays on different lines, and a ray that ends at a vertex
    ([(0, 0), (0, 1)], [], [(0, (1, 0)), (1, (1, 0))], True),
    ([(0, 0), (2, 0)], [(0, 1)], [(1, (1, 0)), (0, (0, 1))], True),
    # one segment listed twice, either way round
    ([(0, 0), (1, 2)], [(0, 1), (1, 0)], [], "overlapping collinear edges"),
]


@pytest.mark.parametrize("points,segments,rays,expected", CASES)
def test_overlap_cases(points, segments, rays, expected):
    c = curve(points, segments, rays)
    assert outcome(_check_no_overlaps, c) == expected
    assert outcome(ref_check_no_overlaps, c) == expected


GRID = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
DIRS = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, 2),
        (-1, -2), (2, 1), (2, 0)]


@st.composite
def piece_sets(draw):
    """Up to five distinct vertices on a small grid of halves, with up to
    four segments between them and up to four rays from them."""
    halves = st.sampled_from(GRID).map(lambda p: (Fraction(p[0], 2),
                                                  Fraction(p[1], 2)))
    points = draw(st.lists(halves, min_size=1, max_size=5, unique=True))
    n = len(points)
    vert = st.integers(0, n - 1)
    segments = draw(st.lists(st.tuples(vert, vert).filter(
        lambda e: e[0] != e[1]), max_size=4)) if n > 1 else []
    rays = draw(st.lists(st.tuples(vert, st.sampled_from(DIRS)),
                         max_size=4))
    return points, segments, rays


@settings(max_examples=400, deadline=None)
@given(piece_sets())
@example(([(0, 0), (4, 0), (2, 0)], [(0, 1)], [(2, (0, 1))]))
@example(([(0, 0), (1, 0)], [], [(0, (1, 0)), (1, (-1, 0)), (1, (0, 1))]))
def test_small_piece_sets_match_reference(pieces):
    c = curve(*pieces)
    assert outcome(_check_no_overlaps, c) == outcome(ref_check_no_overlaps, c)


def stretched(c, rng):
    """c with one bounded edge i -> j stretched or shrunk, but not to
    length 0, by moving j's side of the tree along it: still balanced and
    of genus 0, and mostly by a shift that puts a moved vertex on the line
    of a piece at a fixed vertex."""
    e = rng.randrange(len(c.bedges))
    i, j, _, d = c.bedges[e]
    side, stack = set(), [j]
    while stack:
        v = stack.pop()
        side.add(v)
        stack.extend(u for _, _, u, f, _ in c.incidence[v]
                     if u is not None and u not in side and f != e)
    F = [hfrac(p) for p in c.vertices]
    k = 0 if d[0] else 1
    length = (F[j][k] - F[i][k]) / d[k]
    shifts = [Fraction(rng.randrange(1, 9), rng.randrange(1, 5)),
              Fraction(rng.randrange(-8, 0), rng.randrange(1, 5))]
    for v in side:
        for b in set(range(len(F))) - side:
            for _, o, _, _, _ in c.incidence[b]:
                if wedge(d, o):
                    dx, dy = F[b][0] - F[v][0], F[b][1] - F[v][1]
                    shifts.append((dx * o[1] - dy * o[0]) / wedge(d, o))
    s = rng.choice([s for s in shifts if length + s > 0])
    moved = [hpoint(x + s * d[0], y + s * d[1]) if v in side
             else c.vertices[v] for v, (x, y) in enumerate(F)]
    return ParamTropCurve(moved, c.bedges, c.uedges, c.marks, c.vout,
                          c.out_edge)


def test_solutions_and_stretched_solutions_match_reference(solutions,
                                                           monkeypatch):
    rng = random.Random(16)
    seen = set()
    for fan, c in solutions:
        assert _check_no_overlaps(c) and ref_check_no_overlaps(c)
        for _ in range(12):
            m = stretched(c, rng)
            got = outcome(validate_curve, m, fan)
            seen.add(got)
            with monkeypatch.context() as p:
                p.setattr(tropcurve, "_check_no_overlaps",
                          ref_check_no_overlaps)
                assert outcome(validate_curve, m, fan) == got
            if len(set(m.vertices)) == len(m.vertices):
                assert outcome(_check_no_overlaps, m) == \
                    outcome(ref_check_no_overlaps, m)
    # the stretches reach every outcome of the overlap test
    assert {True, "overlapping collinear edges"} <= seen
    assert any(str(s).startswith("vertex ") for s in seen)


def test_count_fraction_work_stays_pinned():
    """Fractions that run_count constructs on the P2 cubic, seed 1.

    Positions are integer triples and the overlap test runs on exact
    segments and rays, so the only Fractions left are those of sampling
    the points: 32 of them.  With rays truncated to Fraction segments the
    count constructed 1,076.
    """
    fan = builtin_fan("p2")
    made = []
    orig = Fraction.__dict__["__new__"]

    def counted(cls, *args, **kwargs):
        made.append(cls)
        return orig(cls, *args, **kwargs)

    Fraction.__new__ = counted
    try:
        rep = run_count(fan, make_degree(fan, (3, 3, 3)), 1)
    finally:
        Fraction.__new__ = orig
    assert rep.n_trop == 12
    assert len(made) == 32
