"""The integer overlay and the skeleton check against Fraction reference
code.

`RefOverlay`, `ref_line_key`, `ref_line_coord`, `ref_edges_by_line` and
`ref_cover_query` are the overlay and a coverage sweep written on Fraction
line keys and Fraction positions, with the cell orientation a Fraction
shoelace sum and the germs at a vertex in the Fraction-slope order of
`reference.ref_angle_key`.  The program's integer overlay must give the
same complex (vertices, edges with their tags, faces) and the same
InvariantError, message and all, on real decompositions and on small
random arrangements.  Its skeleton check, a walk over the decomposition's
own edges, must answer as the sweep does, on the real decompositions and
on each of them with one curve edge dropped.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import ref_angle_key
from tropenum.arrangement import Overlay
from tropenum.correspondence import (PolyDecomp, build_decomposition,
                                     properties_report)
from tropenum.enumeration import run_count
from tropenum.fan import builtin_fan, make_degree
from tropenum.lattice import (InvariantError, hdiff, hfrac, hnorm, hpoint,
                              primitive, rot90, wedge)


# ---------------------------------------------------------------------------
# reference code: lines keyed (a, b, c) with c a Fraction, positions Fractions

def ref_line_key(P, d):
    n, _ = primitive(rot90(d))
    if n[0] < 0 or (n[0] == 0 and n[1] < 0):
        n = (-n[0], -n[1])
    x, y = hfrac(P)
    return (n[0], n[1], n[0] * x + n[1] * y)


def ref_line_dir(key):
    return (key[1], -key[0])


def ref_line_coord(key, P):
    x, y = hfrac(P)
    return key[1] * x - key[0] * y


def ref_on_line(key, P):
    a, b, c = key
    return a * P[0] + b * P[1] == c * P[2]


def ref_point_at(key, t):
    a, b, c = key
    s = a * a + b * b
    return hpoint((a * c + t * b) / s, (b * c - t * a) / s)


def ref_covered(intervals, t):
    for lo, hi, _ in intervals:
        if (lo is None or lo <= t) and (hi is None or t <= hi):
            return True
    return False


def ref_span_tags(intervals, lo_q, hi_q):
    tags = set()
    for lo, hi, tag in intervals:
        if lo is not None and (lo_q is None or lo > lo_q):
            continue
        if hi is not None and (hi_q is None or hi < hi_q):
            continue
        tags.update(tag)
    return tags


class RefOverlay:
    def __init__(self):
        self._lines = {}
        self._points = []

    def add_segment(self, A, B, tag):
        A = hnorm(*A)
        B = hnorm(*B)
        d = hdiff(A, B)
        if d == (0, 0):
            raise ValueError("zero-length segment")
        dp, _ = primitive(d)
        key = ref_line_key(A, dp)
        ta = ref_line_coord(key, A)
        tb = ref_line_coord(key, B)
        if ta > tb:
            ta, tb = tb, ta
        self._lines.setdefault(key, []).append((ta, tb, frozenset([tag])))

    def add_ray(self, A, d, tag):
        A = hnorm(*A)
        dp, _ = primitive(d)
        key = ref_line_key(A, dp)
        t = ref_line_coord(key, A)
        if dp == ref_line_dir(key):
            piece = (t, None, frozenset([tag]))
        else:
            piece = (None, t, frozenset([tag]))
        self._lines.setdefault(key, []).append(piece)

    def add_point(self, P):
        self._points.append(hnorm(*P))

    def build(self):
        keys = sorted(self._lines.keys())
        events = {k: set() for k in keys}
        for k in keys:
            for lo, hi, _ in self._lines[k]:
                if lo is not None:
                    events[k].add(lo)
                if hi is not None:
                    events[k].add(hi)
        for i in range(len(keys)):
            a1, b1, c1 = keys[i]
            for j in range(i + 1, len(keys)):
                a2, b2, c2 = keys[j]
                den = a1 * b2 - a2 * b1
                if den == 0:
                    continue
                x = (c1 * b2 - c2 * b1) / den
                y = (a1 * c2 - a2 * c1) / den
                t1 = b1 * x - a1 * y
                t2 = b2 * x - a2 * y
                if (ref_covered(self._lines[keys[i]], t1)
                        and ref_covered(self._lines[keys[j]], t2)):
                    events[keys[i]].add(t1)
                    events[keys[j]].add(t2)
        for P in self._points:
            hit = False
            for k in keys:
                if ref_on_line(k, P):
                    t = ref_line_coord(k, P)
                    if ref_covered(self._lines[k], t):
                        events[k].add(t)
                        hit = True
            if not hit:
                raise InvariantError("required vertex misses the skeleton")
        vid = {}
        verts = []

        def vertex(P):
            if P not in vid:
                vid[P] = len(verts)
                verts.append(P)
            return vid[P]

        edges = []
        for k in keys:
            iv = self._lines[k]
            evs = sorted(events[k])
            if not evs:
                raise InvariantError("a line carries material but no vertex")
            d = ref_line_dir(k)
            nd = (-d[0], -d[1])
            vids = [vertex(ref_point_at(k, t)) for t in evs]
            tags = ref_span_tags(iv, None, evs[0])
            if tags:
                edges.append(("ray", vids[0], nd, frozenset(tags)))
            for n in range(len(evs) - 1):
                tags = ref_span_tags(iv, evs[n], evs[n + 1])
                if tags:
                    edges.append(("seg", vids[n], vids[n + 1], d,
                                  frozenset(tags)))
            tags = ref_span_tags(iv, evs[-1], None)
            if tags:
                edges.append(("ray", vids[-1], d, frozenset(tags)))
        return tuple(verts), tuple(edges), ref_trace_faces(verts, edges)


def ref_trace_faces(verts, edges):
    germs = [dict() for _ in verts]
    for ei, e in enumerate(edges):
        if e[0] == "seg":
            _, a, b, d, _ = e
            rd = (-d[0], -d[1])
            if d in germs[a] or rd in germs[b]:
                raise InvariantError("duplicate germ: edges overlap")
            germs[a][d] = (ei, b)
            germs[b][rd] = (ei, a)
        else:
            _, a, d, _ = e
            if d in germs[a]:
                raise InvariantError("duplicate germ: edges overlap")
            germs[a][d] = (ei, None)
    order_dirs = []
    pos = []
    for v in range(len(verts)):
        dirs = sorted(germs[v], key=ref_angle_key)
        if len(dirs) < 2:
            raise InvariantError("dangling edge at a vertex")
        order_dirs.append(dirs)
        pos.append({d: n for n, d in enumerate(dirs)})

    def cw_next(v, d):
        dirs = order_dirs[v]
        return dirs[(pos[v][d] - 1) % len(dirs)]

    def step_check(cur, nxt):
        c = wedge(cur, nxt)
        if c < 0:
            raise InvariantError("reflex corner: cell is not convex")
        if c == 0:
            raise InvariantError("flat corner on a cell boundary")

    used = set()
    faces = []
    for e in edges:
        if e[0] != "ray":
            continue
        v, din = e[1], e[2]
        g = cw_next(v, din)
        step_check((-din[0], -din[1]), g)
        chain = []
        while True:
            if (v, g) in used:
                raise InvariantError("face tracing revisits a germ")
            used.add((v, g))
            chain.append(v)
            _, w = germs[v][g]
            if w is None:
                if wedge(g, din) < 0:
                    raise InvariantError("unbounded cell is not convex")
                faces.append(("unbounded", tuple(chain), din, g))
                break
            rev = (-g[0], -g[1])
            ng = cw_next(w, rev)
            step_check(g, ng)
            v, g = w, ng
    for v0 in range(len(verts)):
        for g0 in order_dirs[v0]:
            if (v0, g0) in used:
                continue
            chain = []
            v, g = v0, g0
            while True:
                used.add((v, g))
                chain.append(v)
                _, w = germs[v][g]
                if w is None:
                    raise InvariantError("ray germ left over after tracing")
                rev = (-g[0], -g[1])
                ng = cw_next(w, rev)
                step_check(g, ng)
                v, g = w, ng
                if (v, g) == (v0, g0):
                    break
            area2 = Fraction(0)
            pts = [hfrac(verts[i]) for i in chain]
            for n in range(len(pts)):
                x1, y1 = pts[n]
                x2, y2 = pts[(n + 1) % len(pts)]
                area2 += x1 * y2 - x2 * y1
            if area2 <= 0:
                raise InvariantError("clockwise cell: no unbounded anchor")
            faces.append(("bounded", tuple(chain)))
    total = sum(len(dirs) for dirs in order_dirs)
    if len(used) != total:
        raise InvariantError("face tracing missed germs")
    return tuple(faces)


def ref_edges_by_line(pd):
    index = {}
    for e in pd.edges:
        va = pd.vertices[e[1]]
        if e[0] == "seg":
            vb = pd.vertices[e[2]]
            key = ref_line_key(va, e[3])
            span = (ref_line_coord(key, va), ref_line_coord(key, vb), None)
        else:
            key = ref_line_key(va, e[2])
            span = (ref_line_coord(key, va), None, e[2])
        index.setdefault(key, []).append(span)
    return index


def ref_cover_query(index, A, B, d):
    dp, _ = primitive(d)
    key = ref_line_key(A, dp)
    sign = 1 if dp == ref_line_dir(key) else -1
    sa = sign * ref_line_coord(key, A)
    sb = sign * ref_line_coord(key, B) if B is not None else None
    if sb is not None and sb < sa:
        sa, sb = sb, sa
    spans = []
    for t1, t2, rdir in index.get(key, ()):
        t1 = sign * t1
        if rdir is None:
            t2 = sign * t2
            spans.append((min(t1, t2), max(t1, t2)))
        elif rdir == dp:
            spans.append((t1, None))
        else:
            spans.append((None, t1))
    cur = sa
    for lo, hi in sorted(spans,
                         key=lambda s: (0, 0) if s[0] is None else (1, s[0])):
        if lo is not None and lo > cur:
            break
        if hi is None:
            return True
        if hi > cur:
            cur = hi
    return sb is not None and cur >= sb


# ---------------------------------------------------------------------------
# comparison

def run_overlay(make, pieces):
    """("ok", vertices, edges, faces), or the error's type and message."""
    ov = make()
    try:
        for piece in pieces:
            getattr(ov, "add_" + piece[0])(*piece[1:])
        got = ov.build()
    except (InvariantError, ValueError) as e:
        return (type(e).__name__, str(e))
    if isinstance(got, tuple):
        return ("ok",) + got
    return ("ok", got.vertices, got.edges, got.faces)


def decomposition_pieces(curves, fan, points):
    """The pieces build_decomposition adds, in its order."""
    pieces = []
    for ci, c in enumerate(curves):
        tag = "curve:%d" % ci
        for i, j, w, d in c.bedges:
            pieces.append(("segment", c.vertices[i], c.vertices[j], tag))
        for i, d, w in c.uedges:
            pieces.append(("ray", c.vertices[i], d, tag))
    for pi, P in enumerate(points):
        for r in fan.rays:
            pieces.append(("ray", P, r, "fan:%d" % pi))
        pieces.append(("point", P))
    return pieces


CASES = ([("dp6", None, s) for s in range(1, 41)]
         + [("p2", 2, s) for s in range(1, 11)]
         + [("p2", 3, s) for s in (1, 2)]
         + [("p1xp1", 2, s) for s in (1, 2)])


@pytest.fixture(scope="module")
def decompositions():
    out = []
    for name, d, seed in CASES:
        fan = builtin_fan(name)
        deg = (1,) * fan.nrays() if d is None else (d,) * fan.nrays()
        rep = run_count(fan, make_degree(fan, deg), seed)
        out.append((fan, rep.curves, rep.config.points))
    return out


def skeleton_queries(curves):
    """The (A, B or None, d) of every curve edge and ray, for
    ref_cover_query."""
    return ([(c.vertices[i], c.vertices[j], d)
             for c in curves for i, j, w, d in c.bedges]
            + [(c.vertices[i], None, d)
               for c in curves for i, d, w in c.uedges])


def test_decompositions_match_reference(decompositions):
    for fan, curves, points in decompositions:
        pd = build_decomposition(curves, fan, points)
        want = run_overlay(RefOverlay,
                           decomposition_pieces(curves, fan, points))
        assert want[0] == "ok"
        assert ("ok", pd.vertices, pd.edges, pd.faces) == want
        props = properties_report(pd, curves, fan)
        index = ref_edges_by_line(pd)
        assert props["curves_in_skeleton"] == all(
            ref_cover_query(index, *q) for q in skeleton_queries(curves))
        assert all(props.values())
    assert len(decompositions) >= 50


def test_skeleton_check_matches_reference_without_an_edge(decompositions):
    """Negative controls: every decomposition with one edge that carries a
    curve dropped, each such edge in turn.  The walk over the
    decomposition's edges must give the reference sweep's answer on every
    control, and some answers must be False.

    Dropping an edge changes the reference index on its own line only, so
    a query on another line keeps its answer on the whole decomposition.
    """
    outcomes = []
    for fan, curves, points in decompositions:
        pd = build_decomposition(curves, fan, points)
        index = ref_edges_by_line(pd)
        queries = skeleton_queries(curves)
        keys = [ref_line_key(A, primitive(d)[0]) for A, _, d in queries]
        whole = [ref_cover_query(index, *q) for q in queries]
        for k, e in enumerate(pd.edges):
            if not any(t.startswith("curve:") for t in e[-1]):
                continue
            cut = PolyDecomp(pd.vertices, pd.edges[:k] + pd.edges[k + 1:],
                             pd.faces, pd.points)
            got = properties_report(cut, curves, fan)["curves_in_skeleton"]
            [(key, [span])] = ref_edges_by_line(
                PolyDecomp(pd.vertices, [e], (), ())).items()
            cut_index = dict(index)
            cut_index[key] = [t for t in index[key] if t != span]
            assert got == all(
                ref_cover_query(cut_index, *q) if qk == key else ok
                for q, qk, ok in zip(queries, keys, whole))
            outcomes.append(got)
    assert False in outcomes
    assert len(outcomes) > 500


# small arrangements: points on a grid of halves, so pieces often share a
# line (collinear overlaps), end on another piece (T-junctions) or stop
# alone (dangling edges)
DIRS = [(1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1), (2, 1),
        (1, -2)]
points = st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                   st.integers(1, 2)).map(lambda p: hnorm(*p))
segments = st.tuples(st.just("segment"), points, points, st.sampled_from(
    "abc")).filter(lambda p: hdiff(p[1], p[2]) != (0, 0))
rays = st.tuples(st.just("ray"), points, st.sampled_from(DIRS),
                 st.sampled_from("abc"))
required = st.tuples(st.just("point"), points)
# a tropical line: three rays that balance, the ingredient of a valid cell
stars = points.map(lambda P: [("ray", P, d, "s") for d in DIRS[:3]])
STAR_0 = [("ray", (0, 0, 1), d, "a") for d in DIRS[:3]]
STAR_2 = [("ray", (2, 0, 1), d, "b") for d in DIRS[:3]]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(stars, stars, stars, segments.map(lambda p: [p]),
                          rays.map(lambda p: [p]),
                          required.map(lambda p: [p])),
                min_size=1, max_size=6))
@example([STAR_0, STAR_2])                                   # overlap
@example([STAR_0, [("segment", (0, 0, 1), (0, 3, 2), "t")]])  # T-junction
@example([[("segment", (0, 0, 1), (1, 1, 1), "a")]])          # dangling
@example([STAR_0, [("point", (5, 7, 1))]])                   # missed point
@example([STAR_0, STAR_2, [("segment", (0, 0, 1), (2, 0, 1), "c")],
          [("point", (1, 0, 1))]])
def test_small_arrangements_match_reference(groups):
    pieces = [p for g in groups for p in g]
    assert run_overlay(Overlay, pieces) == run_overlay(RefOverlay, pieces)


def test_decomposition_fraction_work_stays_pinned():
    """Fractions that build_decomposition and properties_report construct
    on dP6, seed 1.

    Lines, positions, crossings and cell orientations are integers, and
    `lattice.angle_key` orders the germs at each vertex by the sign of a
    wedge, so no Fraction is left.  With Fraction line keys and positions
    the two calls constructed 22,872, and with Fraction slopes for the
    germ order 479.
    """
    fan = builtin_fan("dp6")
    rep = run_count(fan, make_degree(fan, (1,) * 6), 1)
    made = []
    orig = Fraction.__dict__["__new__"]

    def counted(cls, *args, **kwargs):
        made.append(cls)
        return orig(cls, *args, **kwargs)

    Fraction.__new__ = counted
    try:
        pd = build_decomposition(rep.curves, fan, rep.config.points)
        props = properties_report(pd, rep.curves, fan)
    finally:
        Fraction.__new__ = orig
    assert all(props.values())
    assert len(made) == 0
