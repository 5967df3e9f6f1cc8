"""Numerical machinery: eigensolver, csc Newton solver, projected descent,
Yamabe-constant estimation, bisection, and one-parameter family sweeps.

All solvers are deterministic for fixed inputs and seeds.  Non-convergence
is reported through ``SolveTrace.reason`` rather than raised, so callers
(multi-start experiments in particular) can treat boundary hits as data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complexes import Complex, double_tetrahedron
from . import curvature, geometry
from .conformal import ConformalClass, induced_lengths


# ---------------------------------------------------------------------------
# symmetric eigensolver


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ascending order with matching orthonormal columns."""

    eigenvalues: np.ndarray    # (n,)
    eigenvectors: np.ndarray   # (n, n), column i pairs with eigenvalues[i]


def eig_sym(A) -> Spectrum:
    """Full spectral decomposition of a symmetric matrix (LAPACK ``eigh``).

    Deterministic: eigenvalues ascending, each eigenvector's largest
    component made positive.  Raises on non-symmetric input.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A - A.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not symmetric to 1e-12 relative")
    vals, V = np.linalg.eigh(0.5 * (A + A.T))
    j = np.argmax(np.abs(V), axis=0)
    V = V * np.where(V[j, np.arange(V.shape[1])] < 0, -1.0, 1.0)
    return Spectrum(eigenvalues=vals, eigenvectors=V)


# ---------------------------------------------------------------------------
# traces


@dataclass
class SolveTrace:
    """Iterate history of a solver run."""

    iterates: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    values: list = field(default_factory=list)
    reason: str = "max-iters"

    def record(self, x, residual_norm, step_size=None, value=None):
        self.iterates.append(np.array(x, dtype=float))
        self.residual_norms.append(float(residual_norm))
        if step_size is not None:
            self.step_sizes.append(float(step_size))
        if value is not None:
            self.values.append(float(value))


# ---------------------------------------------------------------------------
# Newton solver for constant scalar curvature in a conformal class


def solve_csc(cls: ConformalClass, which: str = "L", f0=None,
              tol: float = 1e-10, max_iter: int = 100,
              max_halvings: int = 30):
    """Newton iteration for K_v = lambda * L_v (or lambda * V_v) in a class.

    The multiplier is recomputed from the metric at every iterate, the
    Jacobian is exact (:func:`curvature.csc_jacobian`, evaluated at the
    lengths of the accepted iterate), and the scale gauge is fixed by
    constraining sum(f) to its starting value through a bordered system.
    Steps leaving the admissible set are halved (up to ``max_halvings``);
    exhaustion terminates with reason "boundary-hit".

    Returns (factors, SolveTrace).
    """
    c = cls.complex
    n = c.num_vertices
    f = np.zeros(n) if f0 is None else np.asarray(f0, dtype=float).copy()
    trace = SolveTrace()

    lengths, ok = cls.apply(f)
    if not ok:
        raise geometry.InadmissibleMetricError("starting point is not admissible")
    r = curvature.csc_residual(c, lengths, which)

    for _ in range(max_iter):
        rn = float(np.abs(r).max())
        trace.record(f, rn)
        if rn < tol:
            trace.reason = "converged"
            return f, trace

        K = np.zeros((n + 1, n + 1))
        K[:n, :n] = curvature.csc_jacobian(c, lengths, which)
        K[:n, n] = 1.0
        K[n, :n] = 1.0
        rhs = np.zeros(n + 1)
        rhs[:n] = -r
        try:
            delta = np.linalg.solve(K, rhs)[:n]
        except np.linalg.LinAlgError:
            trace.reason = "singular-jacobian"
            return f, trace

        step = 1.0
        for _ in range(max_halvings):
            lengths, ok = cls.apply(f + step * delta)
            if ok:
                break
            step *= 0.5
        else:
            trace.reason = "boundary-hit"
            return f, trace
        f = f + step * delta
        r = curvature.csc_residual(c, lengths, which)
        trace.step_sizes.append(step)

    trace.record(f, float(np.abs(r).max()))
    trace.reason = "max-iters"
    return f, trace


# ---------------------------------------------------------------------------
# projected gradient descent with backtracking


def descend(objective, guard, x0, grad=None, project=None,
            near_boundary=None, gtol: float = 1e-9, max_iter: int = 1000,
            armijo: float = 1e-4, shrink: float = 0.5,
            max_halvings: int = 40, step0: float = 1.0):
    """Minimize ``objective`` by gradient descent with Armijo backtracking.

    ``guard`` must return True on admissible points; candidates failing
    it are never evaluated.  ``project`` (optional) renormalizes each
    candidate, e.g. to fix a scale gauge; it must preserve both the
    objective value and admissibility.  Termination reasons: "converged"
    (sup-norm of the gradient below ``gtol``), "boundary-hit" (line
    search blocked by the guard, or stalled next to the boundary per
    ``near_boundary``), "stall" (no decrease found away from the
    boundary), or "max-iters".  Without ``grad`` the gradient comes from
    :func:`curvature.gradient_fd`, so ``objective`` must then also map a
    stack of points (P, n) to values (P,).

    Returns (x, SolveTrace).
    """
    x = np.asarray(x0, dtype=float).copy()
    if project is not None:
        x = project(x)
    if not guard(x):
        raise geometry.InadmissibleMetricError("starting point fails the guard")
    fx = objective(x)
    g = grad(x) if grad is not None else curvature.gradient_fd(objective, x)
    alpha = step0
    trace = SolveTrace()
    tiny_streak = 0

    for _ in range(max_iter):
        gnorm = float(np.abs(g).max())
        trace.record(x, gnorm, value=fx)
        if gnorm < gtol:
            trace.reason = "converged"
            return x, trace
        if near_boundary is not None and near_boundary(x):
            # the iterate sits against the admissible boundary to within
            # numerical resolution; derivatives there are meaningless
            trace.reason = "boundary-hit"
            return x, trace

        gg = float(g @ g)
        alpha = min(2.0 * alpha, 1e6)
        accepted = False
        guard_blocked = False
        for _ in range(max_halvings):
            cand = x - alpha * g
            if project is not None:
                cand = project(cand)
            if not guard(cand):
                guard_blocked = True
                alpha *= shrink
                continue
            fc = objective(cand)
            if fc <= fx - armijo * alpha * gg:
                accepted = True
                break
            alpha *= shrink
        if not accepted:
            if guard_blocked or (near_boundary is not None and near_boundary(x)):
                trace.reason = "boundary-hit"
            else:
                trace.reason = "stall"
            return x, trace

        # decreases at the roundoff level of the objective values mean the
        # numerical optimum is reached (relative scale, so objectives that
        # approach zero keep converging)
        if fx - fc <= 20.0 * np.finfo(float).eps * max(abs(fx), abs(fc)):
            tiny_streak += 1
            if tiny_streak >= 5:
                x, fx = cand, fc
                trace.reason = "stall"
                return x, trace
        else:
            tiny_streak = 0
        x, fx = cand, fc
        trace.step_sizes.append(alpha)
        g = grad(x) if grad is not None else curvature.gradient_fd(objective, x)

    trace.record(x, float(np.abs(g).max()), value=fx)
    trace.reason = "max-iters"
    return x, trace


def metric_guard(c: Complex):
    """(guard, near_boundary) pair for length vectors on a complex.

    ``near_boundary(l)`` flags points whose worst tetrahedron has CM3
    below 1e-8 relative to the scale-invariant mean length power.
    """
    def guard(lengths):
        return geometry.is_admissible(c, lengths)

    def near_boundary(lengths):
        lengths = np.asarray(lengths, dtype=float)
        if np.any(lengths <= 0):
            return True
        cm = geometry.cayley_menger(c.tet_lengths(lengths))
        return bool(np.min(cm) < 1e-8 * float(np.mean(lengths)) ** 6)

    return guard, near_boundary


def descend_lengths(c: Complex, which: str, l0, normalize: str = "L", **kw):
    """Descend a normalized functional over length space with a scale gauge.

    ``normalize="L"`` rescales each iterate to total length = its initial
    value; ``normalize="V"`` rescales to unit total volume.  Both leave
    the scale-invariant objectives unchanged.
    """
    which = which.lower()
    fun = curvature.FUNCTIONALS[which]
    guard, near = metric_guard(c)
    l0 = np.asarray(l0, dtype=float)
    target_len = float(l0.sum())

    if normalize.upper() == "L":
        def project(l):
            return l * (target_len / l.sum())
    elif normalize.upper() == "V":
        def project(l):
            vol = float(geometry.tet_volume(c.tet_lengths(l)).sum())
            return l / vol ** (1.0 / 3.0)
    else:
        raise ValueError(f"unknown normalization {normalize!r}")

    return descend(lambda l: fun(c, l), guard, l0,
                   grad=lambda l: curvature.grad_lengths(c, l, which),
                   project=project, near_boundary=near, **kw)


def descend_conformal(cls: ConformalClass, which: str, f0, **kw):
    """Descend a normalized functional over a conformal class, mean-zero gauge."""
    which = which.lower()
    c = cls.complex
    fun = curvature.FUNCTIONALS[which]
    _, near_metric = metric_guard(c)

    def induced(f):
        return induced_lengths(c, cls.background, f)

    def guard(f):
        return geometry.is_admissible(c, induced(f))

    def objective(f):
        return fun(c, induced(f))

    def gradf(f):
        return curvature.grad_conformal(c, induced(f), which)

    def project(f):
        return f - f.mean()

    return descend(objective, guard, np.asarray(f0, dtype=float),
                   grad=gradf, project=project,
                   near_boundary=lambda f: near_metric(induced(f)), **kw)


# ---------------------------------------------------------------------------
# Yamabe constant estimation


@dataclass(frozen=True)
class YamabeEstimate:
    """Best value found by multi-start descent within a conformal class.

    ``value`` is an upper bound on the conformal infimum, never an exact
    Yamabe constant.  ``attained_interior`` reports whether the best run
    converged at an interior critical point; a False value with
    decreasing objectives suggests the infimum is approached at the
    boundary of the admissible set.
    """

    value: float
    factors: np.ndarray
    which: str
    attained_interior: bool
    bound_kind: str                  # always "upper"
    runs: tuple                      # (value, reason) per start
    seed: int


def yamabe_constant_estimate(cls: ConformalClass, which: str = "L",
                             starts: int = 8, seed: int = 0,
                             max_iter: int = 400) -> YamabeEstimate:
    """Multi-start descent estimate of the Yamabe constant of a class.

    The first start is the class representative f = 0; the remaining
    starts are seeded mean-zero normal factors.  The reported value is
    the minimum objective reached and is only an upper bound on the true
    infimum.
    """
    functional = {"L": "lehr", "V": "vehr"}[which.upper()]
    rng = np.random.default_rng(seed)
    n = cls.complex.num_vertices
    best_val = np.inf
    best_f = np.zeros(n)
    best_reason = "none"
    runs = []
    for s in range(max(1, starts)):
        if s == 0:
            f0 = np.zeros(n)
        else:
            f0 = rng.normal(0.0, 0.6, size=n)
            f0 -= f0.mean()
            lengths, ok = cls.apply(f0)
            if not ok:
                runs.append((np.nan, "inadmissible-start"))
                continue
        f, trace = descend_conformal(cls, functional, f0, max_iter=max_iter)
        val = trace.values[-1] if trace.values else np.inf
        runs.append((val, trace.reason))
        if val < best_val:
            best_val, best_f, best_reason = val, f, trace.reason
    return YamabeEstimate(
        value=float(best_val),
        factors=best_f,
        which=which.upper(),
        attained_interior=(best_reason in ("converged", "stall")),
        bound_kind="upper",
        runs=tuple(runs),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# scalar bisection


def bisect_zero(g, a: float, b: float, tol: float = 1e-10,
                max_iter: int = 200) -> float:
    """Root of a continuous scalar function by bracketing bisection."""
    ga, gb = g(a), g(b)
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if np.sign(ga) == np.sign(gb):
        raise ValueError(f"no sign change on [{a}, {b}]: g(a)={ga:.3g}, g(b)={gb:.3g}")
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        gm = g(m)
        if gm == 0.0 or (b - a) < tol:
            return m
        if np.sign(gm) == np.sign(ga):
            a, ga = m, gm
        else:
            b, gb = m, gm
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# one-parameter family sweeps


def diagonal_family(t: float) -> np.ndarray:
    """The equihedral family (t, 1, 1, 1, 1, t) on the double tetrahedron."""
    return np.array([t, 1.0, 1.0, 1.0, 1.0, t])


#: eigenvectors of the family Hessian predicted by its symmetry; the
#: radial direction depends on t and is handled separately.
FAMILY_DIRECTIONS = {
    "opp": np.array([1.0, 0, 0, 0, 0, -1.0]),
    "pair": np.array([0, 1.0, 0, 0, -1.0, 0]),
    "v": np.array([0, 1.0, -1.0, -1.0, 1.0, 0]),
}

CONFORMAL_DIRECTIONS = {
    "lam1": np.array([1.0, -1.0, 0.0, 0.0]),
    "lam2": np.array([1.0, 1.0, -1.0, -1.0]),
}


def family_direction_eigenvalue(c: Complex, lengths, which: str,
                                direction, richardson: bool = True) -> float:
    """Rayleigh quotient of the FD length Hessian along an exact eigen direction."""
    H = curvature.hessian_fd_lengths(c, lengths, which, richardson=richardson)
    v = np.asarray(direction, dtype=float)
    return float(v @ H @ v / (v @ v))


def conformal_direction_eigenvalue(c: Complex, lengths, direction) -> float:
    """Rayleigh quotient of the analytic csc conformal Hessian along a direction."""
    H = curvature.lehr_conformal_hessian_csc(c, lengths)
    v = np.asarray(direction, dtype=float)
    return float(v @ H @ v / (v @ v))


@dataclass
class SweepTable:
    columns: list
    rows: list   # one list of floats per step (NaN for inadmissible rows)

    def to_delimited(self, sep: str = ",") -> str:
        out = [sep.join(self.columns)]
        for row in self.rows:
            out.append(sep.join(format(x, ".12g") if isinstance(x, float)
                                else str(x) for x in row))
        return "\n".join(out) + "\n"


_SCALAR_QUANTITIES = ("ehr", "lehr", "vehr", "length", "volume", "fatness",
                      "min_cm3", "einstein_res_l", "einstein_res_v",
                      "csc_res_l", "csc_res_v")
_EIG_QUANTITIES = ("lehr_lam_opp", "lehr_lam_pair", "lehr_lam_v", "lehr_lam_radial",
                   "vehr_lam_opp", "vehr_lam_pair", "vehr_lam_v", "vehr_lam_radial")
_CONF_QUANTITIES = ("conf_lehr_lam1", "conf_lehr_lam2")
_TRACKED = ("lehr_spec", "vehr_spec")


def sweep_quantities() -> tuple:
    tracked = tuple(f"{base}_{i}" for base in _TRACKED for i in range(1, 7))
    return _SCALAR_QUANTITIES + _EIG_QUANTITIES + _CONF_QUANTITIES + tracked


def sweep_family(c: Complex, family, t_values, quantities) -> SweepTable:
    """Evaluate requested quantities along a one-parameter metric family.

    Inadmissible parameter values produce a row flagged admissible=0 with
    NaN entries instead of aborting the sweep.  Tracked spectrum columns
    (``lehr_spec_i`` / ``vehr_spec_i``) follow eigenvectors by maximal
    overlap with the previous step rather than by sorted order, so
    eigenvalue crossings do not swap columns.
    """
    quantities = list(quantities)
    unknown = [q for q in quantities if q not in sweep_quantities()]
    if unknown:
        raise ValueError(f"unknown quantities: {unknown}")
    columns = ["t", "admissible"] + quantities
    rows = []
    prev_vecs = {"lehr": None, "vehr": None}

    need_hess = {w: any(q.startswith(f"{w}_lam") or q.startswith(f"{w}_spec")
                        for q in quantities) for w in ("lehr", "vehr")}

    for t in np.asarray(t_values, dtype=float):
        lengths = np.asarray(family(float(t)), dtype=float)
        if not geometry.is_admissible(c, lengths):
            rows.append([float(t), 0] + [float("nan")] * len(quantities))
            continue
        rep = curvature.functionals(c, lengths)
        cache = {
            "ehr": rep.ehr, "lehr": rep.lehr, "vehr": rep.vehr,
            "length": rep.length, "volume": rep.volume,
            "fatness": rep.volume / rep.length ** 3,
            "min_cm3": float(np.min(geometry.cayley_menger(c.tet_lengths(lengths)))),
        }
        for w in "LV":
            cache[f"einstein_res_{w.lower()}"] = float(np.abs(rep.einstein_residual(w)).max())
            cache[f"csc_res_{w.lower()}"] = float(np.abs(rep.csc_residual(w)).max())
        for w in ("lehr", "vehr"):
            if not need_hess[w]:
                continue
            H = curvature.hessian_fd_lengths(c, lengths, w, richardson=True)
            for name, v in FAMILY_DIRECTIONS.items():
                cache[f"{w}_lam_{name}"] = float(v @ H @ v / (v @ v))
            vr = np.array([1.0 / t, -0.5, -0.5, -0.5, -0.5, 1.0 / t])
            cache[f"{w}_lam_radial"] = float(vr @ H @ vr / (vr @ vr))
            spec = eig_sym(H)
            vals, vecs = spec.eigenvalues, spec.eigenvectors
            if prev_vecs[w] is not None:
                order = _match_by_overlap(prev_vecs[w], vecs)
                vals, vecs = vals[order], vecs[:, order]
            prev_vecs[w] = vecs
            for i in range(6):
                cache[f"{w}_spec_{i + 1}"] = float(vals[i])
        if any(q in _CONF_QUANTITIES for q in quantities):
            try:
                Hc = curvature.lehr_conformal_hessian_csc(c, lengths)
                for name, v in CONFORMAL_DIRECTIONS.items():
                    cache[f"conf_lehr_{name}"] = float(v @ Hc @ v / (v @ v))
            except ValueError:
                cache["conf_lehr_lam1"] = float("nan")
                cache["conf_lehr_lam2"] = float("nan")
        rows.append([float(t), 1] + [cache[q] for q in quantities])
    return SweepTable(columns=columns, rows=rows)


def _match_by_overlap(prev: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Greedy column assignment maximizing |<prev_i, new_j>|."""
    n = prev.shape[1]
    overlap = np.abs(prev.T @ new)
    order = np.full(n, -1)
    used = np.zeros(n, dtype=bool)
    for _ in range(n):
        i, j = np.unravel_index(np.argmax(overlap), overlap.shape)
        order[i] = j
        used[j] = True
        overlap[i, :] = -1.0
        overlap[:, j] = -1.0
    return order


# ---------------------------------------------------------------------------
# random admissible metrics (used by property tests and the evidence suites)


def random_admissible_lengths(c: Complex, rng: np.random.Generator,
                              low: float = 0.6, high: float = 1.4) -> np.ndarray:
    """Rejection-sample an admissible length vector with iid uniform entries."""
    for _ in range(10000):
        lengths = rng.uniform(low, high, size=c.num_edges)
        if geometry.is_admissible(c, lengths):
            return lengths
    raise RuntimeError("failed to sample an admissible metric")


def find_tstar(c: Complex | None = None, bracket=(1.0, 1.3),
               tol: float = 1e-6) -> float:
    """Parameter where the family Hessian eigenvalue along (0,1,-1,-1,1,0)
    for the volume-normalized functional crosses zero."""
    if c is None:
        c = double_tetrahedron()
    v = FAMILY_DIRECTIONS["v"]

    def g(t):
        return family_direction_eigenvalue(c, diagonal_family(t), "vehr", v)

    return bisect_zero(g, bracket[0], bracket[1], tol=tol)


def find_conformal_crossing(c: Complex | None = None, bracket=(1.0, 1.35),
                            tol: float = 1e-6) -> float:
    """Parameter where the conformal Hessian eigenvalue along (1,1,-1,-1)
    crosses zero on the equihedral family."""
    if c is None:
        c = double_tetrahedron()
    v = CONFORMAL_DIRECTIONS["lam2"]

    def g(t):
        return conformal_direction_eigenvalue(c, diagonal_family(t), v)

    return bisect_zero(g, bracket[0], bracket[1], tol=tol)
