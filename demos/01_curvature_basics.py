"""Edge curvatures and the normalized functionals on the double tetrahedron.

The double tetrahedron glues two tetrahedra along all four faces, so a
metric is just the six edge lengths of the shared generating tetrahedron.
This script computes every derived quantity for the equal-length metric
and for a generic metric.
"""

import numpy as np

import regge3 as r

dt = r.double_tetrahedron()
print("double tetrahedron:", dt.counts(), "(V, E, F, T), Euler characteristic",
      dt.euler_characteristic())
print("every edge lies in", dt.edge_degrees[0], "tetrahedra\n")

lengths = np.ones(6)
rep = r.functionals(dt, lengths)
print("equal-length metric (all lengths 1):")
print(f"  dihedral angle       = arccos(1/3) = {np.arccos(1/3):.10f}")
print(f"  edge curvature K_e   = {rep.k_edge[0]:.10f}  (= 2pi - 2 arccos(1/3))")
print(f"  EHR  = sum K_e       = {rep.ehr:.10f}")
print(f"  LEHR = EHR / L       = {rep.lehr:.10f}")
print(f"  VEHR = EHR / V^(1/3) = {rep.vehr:.10f}")
print(f"  dual edge areas      = {rep.dual_length[0]:.10f}  (= 1/(6 sqrt 2))")

print("\nthe equal-length metric is Einstein in both normalizations:")
for which in ("L", "V"):
    res = np.abs(r.einstein_residual(dt, lengths, which)).max()
    print(f"  max |K_e - lambda_{which} *_e| = {res:.2e}")

print("\na generic admissible metric is not:")
generic = np.array([1.2, 0.9, 1.1, 1.0, 0.95, 1.05])
for which in ("L", "V"):
    res = np.abs(r.einstein_residual(dt, generic, which)).max()
    print(f"  max Einstein residual ({which}) = {res:.4f}")

b = r.bounds_report(dt, generic)
print(f"\ndegree bound: {b.lehr_lower:.4f} <= LEHR = {b.lehr:.4f} <= {b.lehr_upper:.4f}")
print(f"fatness V/L^3 = {b.fatness:.6e}")

print("\nedge curvature is positive for every metric here (each dihedral")
print("angle is below pi and every edge meets exactly two tetrahedra):")
rng = np.random.default_rng(0)
worst = min(r.functionals(dt, r.random_admissible_lengths(dt, rng)).k_edge.min()
            for _ in range(200))
print(f"  min K_e over 200 random admissible metrics = {worst:.4f} > 0")
