"""The lattice map Phi read off the reduced graph's typed records.

`reduced_graph` returns one record (a, b, u, weight, marks) per reduced
edge, its direction u read from the curve's incidence table.
`ref_build_phi` and `ref_log_count_w` below are the earlier versions: they
read `ref_reduced_graph`'s end tokens ("v", i) / ("inf", d), order the two
ends of a bounded edge by their Fraction positions, re-derive its
direction from them with `primitive(hdiff(...))`, and take the cokernel
order by a second Smith normal form.  Both must give the same rows,
vertices, row labels, index and log count on every solution of several
counts, on the same solutions with their bounded edges listed in another
order, and on a line through two marks whose edges are out of order.
"""

import random
from fractions import Fraction

import pytest
from reference import cokernel_order
from test_curve_incidence import pt, ref_reduced_graph

from tropenum import correspondence
from tropenum.correspondence import (build_phi, index_d, log_count_w,
                                     reduced_graph)
from tropenum.enumeration import run_count
from tropenum.fan import builtin_fan, make_degree
from tropenum.lattice import (InvariantError, hdiff, hfrac, primitive, rot90,
                              smith_normal_form)
from tropenum.tropcurve import ParamTropCurve

COUNTS = [("p2", (d, d, d), seed) for d in (1, 2, 3) for seed in range(1, 9)]
COUNTS += [("p1xp1", deg, seed)
           for deg in ((1, 0, 1, 0), (1, 1, 1, 1), (2, 1, 2, 1),
                       (2, 2, 2, 2))
           for seed in range(1, 9)]
COUNTS += [("dp6", (1,) * 6, seed) for seed in range(1, 9)]


def _lexpos(n):
    if n[0] < 0 or (n[0] == 0 and n[1] < 0):
        return (-n[0], -n[1])
    return n


def ref_build_phi(c):
    """(verts, rows, row_labels) of Phi, from the end tokens."""
    verts, edges = ref_reduced_graph(c)
    col = {vi: 2 * k for k, vi in enumerate(verts)}
    ncols = 2 * len(verts)

    def imgkey(vi):
        x, y = hfrac(c.vertices[vi])
        return (x, y)

    bounded = []
    by_mark = {}
    for ends, w, labels in edges:
        kinds = sorted(t[0] for t in ends)
        if kinds == ["v", "v"]:
            va, vb = ends[0][1], ends[1][1]
            if imgkey(vb) < imgkey(va):
                va, vb = vb, va
            u, _ = primitive(hdiff(c.vertices[va], c.vertices[vb]))
            bounded.append((col[va], col[vb], u))
            for lb in labels:
                by_mark[lb] = (col[va], u)
        elif kinds == ["inf", "v"]:
            (vtok, dtok) = ends if ends[0][0] == "v" else (ends[1], ends[0])
            u = dtok[1]
            for lb in labels:
                by_mark[lb] = (col[vtok[1]], u)
        else:
            for lb in labels:
                by_mark[lb] = None

    bounded.sort()
    rows = []
    row_labels = []
    for ca, cb, u in bounded:
        n = _lexpos(rot90(u))
        row = [0] * ncols
        row[cb] += n[0]
        row[cb + 1] += n[1]
        row[ca] -= n[0]
        row[ca + 1] -= n[1]
        rows.append(row)
        row_labels.append(("edge", ca // 2, cb // 2))
    for label, _ in c.marks:
        row = [0] * ncols
        spot = by_mark[label]
        if spot is not None:
            cm, u = spot
            n = _lexpos(rot90(u))
            row[cm] += n[0]
            row[cm + 1] += n[1]
        rows.append(row)
        row_labels.append(("mark", label))
    if len(smith_normal_form(rows)) != ncols:
        raise InvariantError("lattice map has a kernel: curve is not rigid")
    return verts, rows, row_labels


def ref_index_d(rows):
    o = cokernel_order(rows)
    if o == "infinite":
        raise InvariantError("infinite cokernel contradicts rigidity")
    return o


def ref_log_count_w(c):
    _, edges = ref_reduced_graph(c)
    out = 1
    for ends, w, labels in edges:
        if ends[0][0] == "v" and ends[1][0] == "v":
            out *= w
        out *= w ** len(labels)
    return out


def result(f, *args):
    try:
        return f(*args)
    except InvariantError as e:
        return type(e), str(e)


def phi(c):
    sys = build_phi(c)
    return (list(sys.verts), [list(r) for r in sys.rows],
            list(sys.row_labels), result(index_d, sys), log_count_w(c))


def ref_phi(c):
    verts, rows, labels = ref_build_phi(c)
    return verts, rows, labels, result(ref_index_d, rows), ref_log_count_w(c)


@pytest.fixture(scope="module")
def solutions():
    out = []
    for name, deg, seed in COUNTS:
        fan = builtin_fan(name)
        out.extend(run_count(fan, make_degree(fan, deg), seed).curves)
    return out


def shuffled(c, rng):
    return ParamTropCurve(c.vertices, rng.sample(c.bedges, len(c.bedges)),
                          c.uedges, c.marks)


def test_phi_matches_reference(solutions):
    rng = random.Random(17)
    indices = set()
    for c in solutions:
        want = ref_phi(c)
        assert phi(c) == want
        indices.add(want[3] if isinstance(want[3], int) else "infinite")
        # Phi does not depend on the order the bounded edges are listed in
        m = shuffled(c, rng)
        assert phi(m) == ref_phi(m) == want
    assert len(solutions) > 250
    # the counts reach indices above 1 and the straight line's infinite one
    assert {1, 2, "infinite"} <= indices


def test_out_of_order_line_matches_reference():
    # two unmarked ends joined through two marks, edges listed out of
    # order: both versions find the kernel of the end vertices' slide
    c = ParamTropCurve(
        [pt(0, 0), pt(1, 0), pt(2, 0), pt(3, 0)],
        [(1, 2, 1, (1, 0)), (2, 3, 1, (1, 0)), (0, 1, 1, (1, 0))],
        [(0, (-1, 0), 1), (3, (1, 0), 1)], [(0, 1), (1, 2)])
    assert sorted(reduced_graph(c)[1], key=repr) == [
        (0, 3, (1, 0), 1, (0, 1)), (0, None, (-1, 0), 1, ()),
        (3, None, (1, 0), 1, ())]
    want = result(ref_build_phi, c)
    assert want == (InvariantError,
                    "lattice map has a kernel: curve is not rigid")
    assert result(build_phi, c) == want
    assert log_count_w(c) == ref_log_count_w(c) == 1


def test_phi_builds_no_fraction_and_one_smith_form(solutions, monkeypatch):
    """build_phi, index_d and log_count_w read directions off the records:
    they construct no Fraction, and Phi's invariant factors come from one
    Smith normal form per solution.  The token version built the
    Fractions of every bounded edge's end positions and ran a second Smith
    form for the index."""
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return smith_normal_form(rows)

    monkeypatch.setattr(correspondence, "smith_normal_form", counted)
    made = []
    orig = Fraction.__dict__["__new__"]

    def new(cls, *args, **kwargs):
        made.append(cls)
        return orig(cls, *args, **kwargs)

    Fraction.__new__ = new
    try:
        for c in solutions:
            result(index_d, build_phi(c))
            log_count_w(c)
    finally:
        Fraction.__new__ = orig
    assert made == []
    assert len(calls) == len(solutions)
