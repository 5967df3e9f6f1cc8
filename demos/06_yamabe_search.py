"""Yamabe-constant estimation and critical-point searches.

The Yamabe constant of a conformal class is the infimum of a normalized
functional over the class.  The estimator runs seeded multi-start descent
and reports an upper bound, together with whether the best run converged
at an interior critical point or drifted to the admissibility boundary.
"""

import numpy as np

import regge3 as r

dt = r.double_tetrahedron()
cls = r.ConformalClass(dt, np.ones(6))

est = r.yamabe_constant_estimate(cls, "L", starts=12, seed=7)
print("length-normalized Yamabe estimate for the unit class:")
print(f"  value = {est.value:.10f}   ({est.bound_kind} bound on the infimum)")
print(f"  attained at an interior critical point: {est.attained_interior}")
print("  run outcomes:", sorted({reason for _, reason in est.runs}))
print(f"  equal-length value for comparison: {r.lehr_value(dt, np.ones(6)):.10f}")
print("  every start returns to the equal-length metric; whether it is the")
print("  true infimum of the class is open, so only the bound is reported.")

estv = r.yamabe_constant_estimate(cls, "V", starts=8, seed=7)
print(f"\nvolume-normalized estimate: {estv.value:.10f} (>= 0 always)")

print("\nEinstein search: descend the volume-normalized functional from a")
print("perturbed start (the equal-length metric is a local minimum):")
rng = np.random.default_rng(1)
l0 = np.ones(6) * (1 + 0.01 * rng.uniform(-1, 1, 6))
lend, trace = r.descend_lengths(dt, "vehr", l0, normalize="V")
print(f"  {trace.reason} after {len(trace.residual_norms)} iterations;"
      f" spread around equal lengths {np.abs(lend / lend.mean() - 1).max():.1e}")

print("\nuniqueness evidence for the length-normalized functional: descents")
print("from random starts never find an interior critical point other than")
print("the equal-length metric; they run into the degenerate boundary:")
starts = np.array([r.random_admissible_lengths(dt, rng) for _ in range(20)])
_, traces = r.descend_lengths(dt, "lehr", starts, normalize="L", max_iter=800)
outcomes = {}
for trace in traces:
    outcomes[trace.reason] = outcomes.get(trace.reason, 0) + 1
print("  outcomes over 20 starts:", outcomes)
