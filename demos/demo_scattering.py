"""Grow the scattering diagram of a two-point configuration and watch
the consistency check do its job, including on a sabotaged diagram.

Run:  python3 demos/demo_scattering.py
"""

from tropenum import (ScatteringDiagram, build_diagram, builtin_fan,
                      check_consistency, format_element, hfrac,
                      sample_generic_points)

P2 = builtin_fan("p2")
NAMES = ["x0", "x1", "x2"]

cfg = sample_generic_points(2, seed=5)
d = build_diagram(P2, cfg)
print("two marked points, %d walls:" % len(d.walls))
for w in sorted(d.walls, key=lambda w: (w.base, w.dirvec)):
    print("  base (%s, %s)  direction (%d, %d)  f = %s"
          % (hfrac(w.base) + w.dirvec + (format_element(w.f, NAMES),)))

rep = check_consistency(d)
print()
print("%d singular points on the support" % len(rep.rows))
for point, marked, is_id, aut in rep.rows:
    kind = "marked point" if marked else "wall crossing"
    verdict = "identity" if is_id else "records the point"
    print("  (%s, %s): %s, loop %s" % (hfrac(point) + (kind, verdict)))
print("diagram is consistent:", rep.ok)

# now remove the scattered walls (the ones carrying both u variables)
# and watch the same loops fail to close
kept = [w for w in d.walls if w.marks.bit_count() < 2]
broken = ScatteringDiagram(P2, kept, cfg.points)
rep2 = check_consistency(broken)
print()
print("after dropping %d scattered wall(s): consistent = %s"
      % (len(d.walls) - len(kept), rep2.ok))
for point, marked, is_id, theta in rep2.failures():
    print("  loop around (%s, %s) is not the identity:" % hfrac(point))
    for j, img in enumerate(theta.images):
        print("    x%d -> %s" % (j, format_element(img, NAMES)))
