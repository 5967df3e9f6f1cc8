"""Hessian spectra of the normalized functionals at the equal-length metric.

The length-space Hessians at equal lengths have closed-form eigenvalues;
the exact Hessians of a curvature report reproduce them to roundoff.  The
length-normalized functional is a saddle there (two negative directions),
the volume-normalized one a local minimum.
"""

import numpy as np

import regge3 as r

dt = r.double_tetrahedron()
ones = np.ones(6)
report = r.functionals(dt, ones)    # one kernel call; both Hessians read it
acos13 = np.arccos(1 / 3)

print("length-normalized functional, Hessian eigenvalues at equal lengths:")
spec = r.eig_sym(report.length_hessian("lehr"))
closed = np.sort([2 * np.sqrt(2) / 9] * 3 + [-2 * np.sqrt(2) / 3] * 2 + [0.0])
for computed, exact in zip(spec.eigenvalues, closed):
    print(f"  {computed:+.10f}   (closed form {exact:+.10f})")

print("\nvolume-normalized functional:")
lam1 = 2 ** (7 / 6) * 3 ** (-2 / 3) * (2 ** 1.5 + 9 * np.pi - 9 * acos13)
lam2 = 2 ** (7 / 6) * 3 ** (1 / 3) * (7 * np.pi - 2 ** 1.5 - 7 * acos13)
spec = r.eig_sym(report.length_hessian("vehr"))
closed = np.sort([lam1] * 3 + [lam2] * 2 + [0.0])
for computed, exact in zip(spec.eigenvalues, closed):
    print(f"  {computed:+.10f}   (closed form {exact:+.10f})")
print("  all nonzero eigenvalues positive: the equal-length metric is a")
print("  local minimum of the volume-normalized functional")

print("\nalong the equihedral family (t, 1, 1, 1, 1, t) the eigenvalue in the")
print("direction (0, 1, -1, -1, 1, 0) changes sign:")
for t in (1.0, 1.2, 1.3):
    lam = r.family_direction_eigenvalue(dt, r.diagonal_family(t), "vehr",
                                        [0, 1, -1, -1, 1, 0])
    print(f"  t = {t}: eigenvalue = {lam:+.5f}")

tstar = r.find_tstar(dt)
print(f"\nzero crossing by Brent's method: t* = {tstar:.6f}")
print("below t* the Hessian is positive semidefinite transverse to scaling;")
print("above it the signature is mixed, so the family leaves the basin of")
print("convexity while remaining constant scalar curvature throughout.")
