"""Which pass walls on the level below the last can a count use?

A count builds its Maslov-0 forest with a pivot (enumeration.Forest.build)
and traces the pass disks of the level below the last only at the
(point, degree) pairs that walls_used returns.  Only a count with at
least four marks gets there, so only it imports this module: a process
loads the engine code of its own command (see cli).
"""

from collections import namedtuple

from .lattice import (hshift, mask_labels, primitive, ray_hits, wall_index,
                      wedge)

# a candidate wall: a pass tree's root, the numerator kn of its offset and
# the mark of its point, as ray_hits reads them
_Wall = namedtuple("_Wall", "base kn marks")


def walls_used(forest, degs):
    """The pairs (1 << i, D), D in degs, such that something can use a
    pass tree of degree D at point i on the level below the last.  Such
    a tree T holds every allowed mark but one, j != i, and lies on the
    wall p_i - t*r(D).  Its possible users:
    (a) a pivot disk of degree m = D + e_l bending once, at T.  It has
        more than half of the marks, so pivot_disks traces it only as
        the complement of a disk of degree Delta - m bending once, at
        leaf j;
    (b) a pivot disk of degree Delta - e_l bending at T, then at leaf j;
    (c) the same disk bending at leaf j, then at T;
    (d) a last-level pass disk at p_j of degree D + e_l, bending only
        at T, whose tree feeds the pivot;
    (e) the gluing of T with leaf j of ray l, whose root feeds the
        pivot.
    j is unknown before tracing, so every j != i counts.  The walls of
    one degree, one per point, form a wall index, and each user's ray
    asks the indexes it can use once.  A wall met but not crossed
    transversally beyond both roots counts as used, since the user
    would fault there."""
    P, cap, rv = forest.pivot, forest.cap, forest._rvec
    pts = forest.config.points
    nr = range(len(forest.rays))
    leaf = {deg.index(1): b for deg, b in forest._at_level[1]}
    index, below, by_dir, used = {}, {}, {}, set()
    for D in degs:
        rx, ry = rv(D)
        o = primitive((-rx, -ry))[0]
        by_dir.setdefault(o, []).append(D)
        index[D] = b = wall_index(o, [
            _Wall(pts[i], wedge(pts[i], o), 1 << i)
            for i in mask_labels(forest.allowed)])
        for l in nr:
            below.setdefault(D[:l] + (D[l] + 1,) + D[l + 1:], []).append(
                (D, b))

    def hits(X, r, skip, buckets, points=True):
        """(wall, key, V) for each wall of the (key, index) pairs that
        the ray X + s*r meets and that is not used yet.  With points,
        V is the crossing point where the ray crosses the wall
        transversally beyond both roots, and falsy elsewhere."""
        xr, out = wedge(X, r), []
        for key, b in buckets:
            c = wedge(r, b[2])
            for w, d, e in ray_hits(b, X, r, c, xr, skip):
                if (w.marks, key) not in used:
                    out.append((w, key, points and c and d and e
                                and hshift(X, d, X[2] * w.base[2] * c, r)))
        return out

    def use(X, r, skip, m):
        """Mark the walls that a stem carrying m bends at last from X"""
        for w, D, _ in hits(X, r, skip, below.get(m, ()), False):
            used.add((w.marks, D))

    for m in forest.degrees(forest.last, forest.last):      # (a)
        comp = tuple(a - b for a, b in zip(cap, m))
        for w, _, _ in hits(P, rv(comp), 0, [
                (a, leaf[a]) for a in nr if comp[a]], False):
            use(P, rv(m), w.marks, m)
    for mark, m in forest._feeding:                         # (d)
        use(pts[mark.bit_length() - 1], rv(m), mark, m)
    for l in leaf:
        top = cap[:l] + (cap[l] - 1,) + cap[l + 1:]
        r = (-forest.rays[l][0], -forest.rays[l][1])
        fit = {D: tuple(a - b for a, b in zip(top, D)) for D in degs
               if D[l] < cap[l]}
        for w, D, V in hits(P, r, 0, [                      # (b)
                (D, index[D]) for D, m in fit.items() if rv(m) != (0, 0)]):
            m = fit[D]
            if not V or hits(V, rv(m), w.marks, [
                    (a, leaf[a]) for a in nr if m[a]], False):
                used.add((w.marks, D))
        for a in leaf:                                      # (c)
            m = top[:a] + (top[a] - 1,) + top[a + 1:]
            if min(m) >= 0 and rv(m) != (0, 0):
                for w, _, V in hits(P, r, 0, [(a, leaf[a])]):
                    if V:
                        use(V, rv(m), w.marks, m)
    for o, Ds in by_dir.items():                            # (e)
        for i in mask_labels(forest.allowed):
            for l in leaf:
                todo = [D for D in Ds
                        if D[l] < cap[l] and (1 << i, D) not in used]
                for _, _, X in hits(pts[i], o, 1 << i,
                                    [(l, leaf[l])] if todo else ()):
                    for D in todo:
                        if not X or forest._feeds_pivot(
                                X, D[:l] + (D[l] + 1,) + D[l + 1:]):
                            used.add((1 << i, D))
    return used
