"""Term-by-term wall crossings against the composed automorphisms they
replaced.

ref_loop_automorphism and ref_path_automorphism are the earlier
implementations, kept here as the reference: each wall crossing is the
RingAutomorphism `reference.ref_crossing_auto`, whose generator images are
z^{e_i} * f^{<n0, v_i>} with powers of either sign, and the crossings are
chained with `reference.ref_compose`.  The library applies each crossing
term by term to the current images in closed form, f^e = 1 + e*c*u_I*z^{m0},
and never composes automorphisms.  On the
same diagrams both must give equal automorphisms at every singular point
and along every path, and broken.transport must agree with the reference.
The library reads the loop germs from the diagram's incidence table while
the reference scans every wall, so loops are also compared at points that
are not singular and at wall bases inside collinear walls.
"""

import pytest

from reference import (ref_angle_key, ref_compose, ref_crossing_auto,
                       ref_identity)
from tropenum.broken import potential, sample_endpoint, transport
from tropenum.enumeration import sample_generic_points
from tropenum.fan import builtin_fan
from tropenum.lattice import dot, hdiff, hpoint, hshift, rot90, wedge
from tropenum.scattering import (ScatteringDiagram, Wall, build_diagram,
                                 loop_automorphism, path_automorphism,
                                 path_crossings)
from tropenum.tropcurve import GenericityError

P2 = builtin_fan("p2")
P1P1 = builtin_fan("p1xp1")


# -- the compose-based reference ----------------------------------------------


def ref_chain(fan, crossings):
    total = ref_identity(fan.nrays())
    for wall, n0 in crossings:
        total = ref_compose(ref_crossing_auto(wall, n0), total)
    return total


def ref_loop_automorphism(diagram, X):
    germs = []
    for widx, w in enumerate(diagram.walls):
        v = hdiff(w.base, X)
        if wedge(w.dirvec, v) != 0:
            continue
        along = dot(w.dirvec, v)
        d = w.dirvec
        if along > 0:
            germs.append((d, widx))
            germs.append(((-d[0], -d[1]), widx))
        elif along == 0:
            germs.append((d, widx))
    germs.sort(key=lambda g: (ref_angle_key(g[0]), g[1]))
    crossings = []
    for g, widx in germs:
        n0 = rot90(g)
        crossings.append((diagram.walls[widx], (-n0[0], -n0[1])))
    return ref_chain(diagram.fan, crossings)


def ref_path_automorphism(diagram, path):
    return ref_chain(diagram.fan, [(diagram.walls[widx], n0)
                                   for widx, n0 in path_crossings(diagram,
                                                                  path)])


# -- comparison ---------------------------------------------------------------


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except GenericityError as e:
        return ("generic", str(e))


@pytest.fixture(scope="module")
def diagrams():
    """(fan, seed, diagram) over P2 and P1xP1, k = 2..4 and ten seeds
    each."""
    out = []
    for fan in (P2, P1P1):
        for k in (2, 3, 4):
            for seed in range(1, 11):
                try:
                    d = build_diagram(fan, sample_generic_points(k, seed))
                except GenericityError:
                    continue
                out.append((fan, seed, d))
    return out


def sample_paths(seed):
    """Two- and three-vertex paths through sampled endpoints."""
    pts = [sample_endpoint(2000 + 10 * seed + i) for i in range(5)]
    pts.append(hpoint(0, 0))
    cyc = pts + pts[:2]
    return [cyc[i:i + 2 + i % 2] for i in range(len(pts))]


def inner_point(d, sing):
    """A point inside the first wall that is not a singular point."""
    w = d.walls[0]
    for q in range(7, 100):
        P = hshift(w.base, 1, q, w.dirvec)
        if P not in sing:
            return P
    raise AssertionError("no free point on the first wall")


def collinear_diagram():
    """Wall bases inside collinear walls with no transversal wall there:
    the table leaves the collinear walls out, the reference crosses them
    both ways."""
    bases = [hpoint(0, 0), hpoint(-2, 0), hpoint(-3, 0)]
    walls = [Wall(P2, bases[0], (1, 0, 0), 1, 0b1),      # along -x
             Wall(P2, bases[1], (2, 0, 0), 3, 0b10),     # along -x, inside
             Wall(P2, bases[2], (0, 1, 1), -2, 0b100)]   # along +x, overlaps
    return ScatteringDiagram(P2, walls, bases)


def test_loops_match_reference(diagrams):
    points = nontrivial = plain = 0
    for _, seed, d in diagrams:
        sing = d.sing_points()
        for X in sing:
            got = loop_automorphism(d, X)
            assert got == ref_loop_automorphism(d, X), X
            points += 1
            nontrivial += not got.is_identity()
        # points that are not singular: inside a wall, and endpoints
        others = [inner_point(d, set(sing))]
        others += [sample_endpoint(3000 + 10 * seed + i) for i in range(2)]
        for X in others:
            got = loop_automorphism(d, X)
            assert got == ref_loop_automorphism(d, X), X
            assert got.is_identity()
            plain += X not in sing
    assert len(diagrams) >= 50
    assert points >= 1000
    assert plain == 3 * len(diagrams)
    # the marked points: loops that do not close up are compared too
    assert nontrivial >= 100
    d = collinear_diagram()
    assert d.sing_points() == [(-3, 0, 1), (-2, 0, 1), (0, 0, 1)]
    for x in (-5, -3, -2, -1, 0, 1):
        X = hpoint(x, 0)
        got = loop_automorphism(d, X)
        assert got == ref_loop_automorphism(d, X), X
        assert got.is_identity() == (x in (-5, -1, 1)), X


def test_paths_and_transport_match_reference(diagrams):
    paths = nontrivial = transported = 0
    for fan, seed, d in diagrams:
        for i, path in enumerate(sample_paths(seed)):
            want = outcome(ref_path_automorphism, d, path)
            assert outcome(path_automorphism, d, path) == want, path
            paths += 1
            if want[0] != "ok":
                continue
            nontrivial += not want[1].is_identity()
            if i != seed % 2:
                continue        # one transport per diagram
            try:
                W = potential(d, fan, path[0])
            except GenericityError:
                continue
            moved = transport(d, W, path)
            assert moved.value == want[1].apply(W.value)
            assert moved.endpoint == path[-1]
            transported += 1
    assert paths >= 300
    assert nontrivial >= 100
    assert transported >= 50
