"""Count rational curves through generic points, then open up one
solution and check its lattice-index factorization by hand.

Run:  python3 demos/demo_count.py
"""

from tropenum import (build_phi, builtin_fan, index_d, kontsevich_number,
                      log_count_w, make_degree, mikhalkin_multiplicity,
                      run_count)

P2 = builtin_fan("p2")

print("== rational curves in the plane ==")
for d in (1, 2, 3):
    deg = make_degree(P2, (d, d, d))
    rep = run_count(P2, deg, seed=7)
    print("degree %d through %d points: n_trop = %d, multiplicities %s"
          % (d, 3 * d - 1, rep.n_trop, rep.multiset()))
    print("  recursion agrees: N_%d = %d" % (d, kontsevich_number(d)))

print()
print("== the same count with Welschinger signs, on dP6 ==")
DP6 = builtin_fan("dp6")
anti = make_degree(DP6, (1,) * 6)
for seed in (3, 9):
    rep = run_count(DP6, anti, seed=seed)
    print("seed %d: n_trop = %d, w_trop = %d, multiplicities %s"
          % (seed, rep.n_trop, rep.w_trop, rep.multiset()))

print()
print("== one cubic solution, factored ==")
rep = run_count(P2, make_degree(P2, (3, 3, 3)), seed=7)
pick = max(range(len(rep.curves)), key=lambda i: rep.mults[i])
c = rep.curves[pick]
sysm = build_phi(c)
rows, cols = sysm.shape()
print("solution %d of %d: multiplicity %d"
      % (pick + 1, len(rep.curves), rep.mults[pick]))
print("its vertex-displacement map is a %dx%d integer matrix" % (rows, cols))
print("of full rank %d, so its cokernel order is |det|" % sysm.rank)
d_index = index_d(sysm)
w_count = log_count_w(c)
print("cokernel order d = %d, log count w = %d, product = %d"
      % (d_index, w_count, d_index * w_count))
assert d_index * w_count == mikhalkin_multiplicity(c)
print("which is exactly the vertex-product multiplicity above")
