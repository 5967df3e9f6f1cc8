"""Numerical machinery: eigensolver, csc Newton solver, projected descent,
Yamabe-constant estimation, bisection, and one-parameter family sweeps.

All solvers are deterministic for fixed inputs and seeds.  Non-convergence
is reported through ``SolveTrace.reason`` rather than raised, so callers
(multi-start experiments in particular) can treat boundary hits as data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complexes import Complex, double_tetrahedron, set_fields
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

    Deterministic: eigenvalues ascending, each eigenvector's largest component
    made positive; a (0, 0) matrix has an empty spectrum.  Raises on non-symmetric input.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not A.size:
        return Spectrum(eigenvalues=np.zeros(0), eigenvectors=np.zeros((0, 0)))
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
    """Iterate history of a solver run, and the points it tested."""

    iterates: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    values: list = field(default_factory=list)
    reason: str = "max-iters"
    newton_steps: int = 0      # accepted Newton steps of a descent
    points: int = 0            # points evaluated or rejected, the start included
    rejected: int = 0          # points found inadmissible

    def record(self, x, residual_norm, value=None):
        self.iterates.append(np.array(x, dtype=float))
        self.residual_norms.append(float(residual_norm))
        if value is not None:
            self.values.append(float(value))


# ---------------------------------------------------------------------------
# Newton solver for constant scalar curvature in a conformal class


_CSC_MAX_HALVINGS = 30    # step halvings of one Newton line search


def solve_csc(cls: ConformalClass, which: str = "L", f0=None,
              tol: float = 1e-10, max_iter: int = 100):
    """Newton iteration for K_v = lambda * L_v (or lambda * V_v) in a class.

    The multiplier is recomputed from the metric at every iterate, and the
    scale gauge is fixed by constraining sum(f) to its starting value
    through a bordered system.  Each point costs one kernel call: its
    report (:func:`curvature.functionals`) gives the residual and, once
    the point is accepted, the exact Jacobian
    (:meth:`curvature.CurvatureReport.csc_jacobian`).  The step is halved
    (up to 30 times) while the trial point is inadmissible (the kernel
    raises :class:`geometry.InadmissibleMetricError`) or does not reduce
    the residual: ||r_t||^2 <= (1 - 1e-4 * step) ||r||^2 accepts it.
    Exhaustion terminates with reason "boundary-hit" if a trial was
    inadmissible, else "stall".  ``trace.points`` counts the start and the
    trials, ``trace.rejected`` the inadmissible trials.

    Returns (factors, SolveTrace).
    """
    c = cls.complex
    n = c.num_vertices
    f = np.zeros(n) if f0 is None else np.asarray(f0, dtype=float).copy()
    trace = SolveTrace(points=1)

    lengths, ok = cls.apply(f)
    if not ok:
        raise geometry.InadmissibleMetricError("starting point is not admissible")
    rep = curvature.functionals(c, lengths)
    r = rep.csc_residual(which)
    K, rhs = np.ones((n + 1, n + 1)), np.zeros(n + 1)    # the bordered system
    K[n, n] = 0.0

    for _ in range(max_iter):
        rn = float(np.abs(r).max())
        trace.record(f, rn)
        if rn < tol:
            trace.reason = "converged"
            return f, trace

        K[:n, :n], rhs[:n] = rep.csc_jacobian(which), -r
        try:
            delta = np.linalg.solve(K, rhs)[:n]
        except np.linalg.LinAlgError:
            trace.reason = "singular-jacobian"
            return f, trace

        rr = float(r @ r)
        step = 1.0
        blocked = False
        for _ in range(_CSC_MAX_HALVINGS):
            trace.points += 1
            try:
                trial = curvature.functionals(
                    c, induced_lengths(c, cls.background, f + step * delta))
            except geometry.InadmissibleMetricError:
                trace.rejected += 1
                blocked = True
            else:
                r_trial = trial.csc_residual(which)
                if float(r_trial @ r_trial) <= (1.0 - 1e-4 * step) * rr:
                    break
            step *= 0.5
        else:
            trace.reason = "boundary-hit" if blocked else "stall"
            return f, trace
        f = f + step * delta
        rep, r = trial, r_trial
        trace.step_sizes.append(step)

    trace.record(f, float(np.abs(r).max()))
    trace.reason = "max-iters"
    return f, trace


# ---------------------------------------------------------------------------
# projected descent: modified Newton steps, gradient steps as the fallback


_GTOL = 1e-9          # sup-norm of the gradient at convergence
_ARMIJO = 1e-4        # sufficient-decrease constant of the line search
_MAX_HALVINGS = 40    # step halvings of one line search
_RUNGS = 8            # rungs of a line search's halving ladder formed and tested per round
_LADDER = 0.5 ** np.arange(_MAX_HALVINGS)[:, None]    # the halvings 2^-k, exact, as a column
_NEWTON_RADIUS = 0.5  # longest conformal Newton step taken, in sup-norm
_ROUNDOFF = 20.0 * np.finfo(float).eps    # relative decrease at the roundoff level


def _descent(x0, project, max_iter):
    """Minimize a function from one start by Newton or gradient steps with Armijo backtracking.

    A generator: it yields the points to test as ladders (K, n), rows in the order a
    sequential search tests them (the start is a ladder of one row), and is sent ``(k,
    point)``: the index k of the ladder's first admissible row and that row's ``(value,
    gradient, at_boundary, newton)`` (:func:`_point`), or ``(K, None)`` when no row is
    admissible.  ``at_boundary`` flags a point that sits against the admissible boundary to
    within numerical resolution, where derivatives are meaningless.  ``newton`` is None or a
    zero-argument callable that returns a descent direction d (or None); it is called only at
    accepted iterates, so a candidate costs exactly one evaluation, and the accepted
    candidate's evaluation supplies the next gradient, boundary flag and Newton callable.
    ``project`` renormalizes a point (n,) or a ladder (K, n) row by row, e.g. to fix a scale
    gauge; it must preserve both the value and admissibility, and may return only the rows
    before one it cannot project (it raises when that is the first).

    Each iteration first tries the Newton direction d when there is one
    and it descends (g . d < 0): the step starts at 1 and is halved until
    Armijo's test on the slope g . d holds; a candidate that is inadmissible
    or sits at the boundary halves the step too.  Otherwise, or when that
    search fails, a gradient step is searched from the previous gradient
    step size, doubled (Armijo backtracking along -g).

    Termination reasons: "converged" (sup-norm of the gradient below
    1e-9), "boundary-hit" (gradient line search blocked by inadmissible
    candidates, or an iterate at the boundary), "stall" (no decrease found
    away from the boundary, or five decreases in a row at the roundoff level
    of the values), or "max-iters".  ``trace.newton_steps`` counts the
    accepted Newton steps, ``trace.points`` the points tested (the start
    included): the rows up to and including a ladder's first admissible one, and a whole
    ladder without one; ``trace.rejected`` counts the inadmissible ones.  These are the
    points a search testing one candidate at a time tests.  An inadmissible start raises
    :class:`geometry.InadmissibleMetricError`.

    Returns (x, SolveTrace).
    """
    ladder = project(np.array(x0, dtype=float, ndmin=2))
    trace = SolveTrace(points=1)
    _, point = yield ladder
    if point is None:
        raise geometry.InadmissibleMetricError("starting point is not admissible")
    x = ladder[0]
    fx, g, at_boundary, newton = point
    alpha, first = 1.0, 1    # rungs first tested by the next gradient search
    tiny_streak = 0

    for _ in range(max_iter):
        gnorm = float(np.abs(g).max())
        trace.record(x, gnorm, value=fx)
        if gnorm < _GTOL:
            trace.reason = "converged"
            return x, trace
        if at_boundary:
            trace.reason = "boundary-hit"
            return x, trace

        point = None
        d = newton() if newton is not None else None
        slope = float(g @ d) if d is not None else 0.0
        if slope < 0.0:    # a Newton step is most often taken at once: one rung first
            step, cand, point = yield from _line_search(
                x, d, 1.0, 1, project, trace,
                lambda s, p: not p[2] and p[0] <= fx + _ARMIJO * s * slope)
        newton_step = point is not None
        if point is None:
            gg, rejected = float(g @ g), trace.rejected
            alpha, cand, point = yield from _line_search(
                x, -g, min(2.0 * alpha, 1e6), first, project, trace,
                lambda s, p: p[0] <= fx - _ARMIJO * s * gg)
            # one rung, or a full chunk after a gradient search that met the boundary
            first = _RUNGS if trace.rejected > rejected else 1
            if point is None:
                trace.reason = "boundary-hit" if trace.rejected > rejected else "stall"
                return x, trace
            step = alpha
        fc, gc, bc, nc = point

        # decreases at the roundoff level of the objective values mean the
        # numerical optimum is reached (relative scale, so objectives that
        # approach zero keep converging)
        if fx - fc <= _ROUNDOFF * max(abs(fx), abs(fc)):
            tiny_streak += 1
            if tiny_streak >= 5:
                x, fx = cand, fc
                trace.reason = "stall"
                return x, trace
        else:
            tiny_streak = 0
        x, fx, g, at_boundary, newton = cand, fc, gc, bc, nc
        trace.step_sizes.append(step)
        trace.newton_steps += newton_step

    trace.record(x, float(np.abs(g).max()), value=fx)
    trace.reason = "max-iters"
    return x, trace


def _line_search(x, d, step, first, project, trace, armijo):
    """A backtracking line search of :func:`_descent` from x along d over the halving
    ladder ``project(x + step 2^-k d)``, k < ``_MAX_HALVINGS``, until ``armijo(step 2^-k,
    point)`` holds for the point of rung k (None, inadmissible, fails too).

    It yields the ladder in chunks (K, n), one array op per chunk, and is sent ``(k, point)``
    for the chunk's first admissible rung, or ``(K, None)``; the search resumes at the next
    rung.  The first chunk has ``first`` rungs, a chunk after one without an admissible rung
    ``_RUNGS``, and a chunk after a rung that failed ``armijo`` one.  Halving by 0.5 is exact,
    so each rung is bitwise the candidate of k successive halvings, and the rungs tested are
    those of a search that tests one at a time.  Returns (step, candidate, point), with point
    None when no rung passed."""
    rung, rungs = 0, first
    while rung < _MAX_HALVINGS:
        if rungs == 1:    # one point: scalar arithmetic is cheaper than broadcasting
            ladder = project(x + (step * 0.5 ** rung) * d)[None]
        else:
            ladder = project(x + (step * _LADDER[rung:rung + rungs]) * d)
        k, point = yield ladder
        trace.points += k + (point is not None)
        trace.rejected += k
        rung += k
        if point is None:
            rungs = _RUNGS
        else:
            s = step * 0.5 ** rung
            if armijo(s, point):
                return s, ladder[k], point
            # the shorter steps past an admissible point are most likely admissible, and each
            # costs its own evaluation: the next chunk is one rung
            rung, rungs = rung + 1, 1
    return step, x, None


def _point(rep, name: str, conformal: bool, newton=None):
    """What :func:`_descent` is sent for a point, from its report: (value, gradient,
    at_boundary, newton), for the ``curvature.FUNCTIONALS`` key ``name`` and the gradient in
    the conformal factors or in the lengths.  At the boundary, the worst tet's CM3 is below
    1e-8 (mean length)^6.  ``newton(rep, g)``, if given, returns the Newton direction at an
    accepted point."""
    at_boundary = np.minimum.reduce(rep.geometry.cm3) < 1e-8 * (rep.length / rep.lengths.size) ** 6
    g = rep._gradient(name, conformal)
    return (getattr(rep, name), g, bool(at_boundary),
            None if newton is None else lambda: newton(rep, g))


def _descend(c: Complex, which: str, starts, metric, gauge, conformal: bool, newton, max_iter):
    """The (x, SolveTrace) of a :func:`_descent` from each start, projected by
    ``gauge(start)``, with the point x at the metric ``metric(x)``.

    The descents run in rounds: each round stacks the ladders that the live starts yield, tests
    the stack once for admissibility and evaluates only the first admissible row of each ladder
    (:func:`curvature._first_reports`, then :func:`_point` with ``newton``), in at most one
    kernel call.  A rejected point costs no kernel call and no round of its own, and each start
    follows the path it takes alone, one start or many.
    """
    name = curvature._functional(which)
    runs = [_descent(x0, gauge(x0), max_iter) for x0 in starts]
    pending = {i: next(run) for i, run in enumerate(runs)}
    out = [None] * len(runs)
    while pending:
        ladders = list(pending.values())
        stack = ladders[0] if len(ladders) == 1 else np.concatenate(ladders)
        # a long conformal gradient candidate may overflow to infinite lengths,
        # or to face sums inf - inf = NaN, which the test rejects
        with np.errstate(over="ignore", invalid="ignore"):
            tested = curvature._first_reports(c, metric(stack), list(map(len, ladders)))
        for i, (k, rep) in zip(list(pending), tested):
            try:
                pending[i] = runs[i].send(
                    (k, None if rep is None else _point(rep, name, conformal, newton)))
            except StopIteration as stop:
                out[i] = stop.value
                del pending[i]
    return out


def descend_lengths(c: Complex, which: str, l0, normalize: str = "L",
                    max_iter: int = 1000):
    """Descend a normalized functional over length space with a scale gauge.

    ``normalize="L"`` rescales each iterate to total length = its initial
    value; ``normalize="V"`` rescales to unit total volume.  Both leave
    the scale-invariant objectives unchanged.  The volume gauge scales a ladder of
    candidates only up to its first inadmissible one, and raises
    :class:`geometry.InadmissibleMetricError` when a line search reaches that one.

    ``l0`` is one start (E,), which returns (lengths, SolveTrace), or a stack
    (S, E), which returns the endpoints (S, E) and a tuple of S traces: its
    descents run in lockstep (:func:`_descend`), with one admissibility test and at most one
    kernel call per round for the candidates of every live start, and each follows its own
    call bitwise.  Steps are gradient steps (:func:`_descent`); there is no Newton
    direction in length space.  A start of another shape, or an unknown
    ``normalize``, raises ``ValueError`` before any kernel call; an
    inadmissible start raises :class:`geometry.InadmissibleMetricError`.
    """
    l0 = np.asarray(l0, dtype=float)
    E = c.num_edges
    if l0.ndim not in (1, 2) or l0.shape[-1] != E:
        raise ValueError(f"expected a start ({E},) or a stack (S, {E}), got shape {l0.shape}")
    if normalize.upper() not in ("L", "V"):
        raise ValueError(f"unknown normalization {normalize!r}")

    def by_volume(l):
        ladder = l.reshape(-1, E)    # a point is a ladder of one row
        tets = c.tet_lengths(ladder)
        ok, margins, cm, _, _ = geometry._tet_tests(tets, 3)
        rows = ok.all(-1).tolist()
        k = rows.index(False) if False in rows else len(rows)
        if k == 0:    # as a one-row projection raises, naming the worst tet
            raise geometry._inadmissible(tets[0], margins[0], cm[0])
        volume = np.add.reduce(np.sqrt(cm[:k] / 288.0), -1).tolist()
        scaled = ladder[:k] / np.array([v ** (1 / 3) for v in volume])[:, None]
        return scaled if l.ndim > 1 else scaled[0]

    def gauge(start):
        target_len = float(np.add.reduce(start))
        if normalize.upper() == "L":
            return lambda l: l * (target_len / np.add.reduce(l, -1, None, None, l.ndim > 1))
        return by_volume

    runs = _descend(c, which, l0.reshape(-1, E), lambda l: l, gauge, False, None, max_iter)
    if l0.ndim == 1:
        return runs[0]
    return np.array([x for x, _ in runs]).reshape(l0.shape), tuple(t for _, t in runs)


def descend_conformal(cls: ConformalClass, which: str, f0, max_iter: int = 1000):
    """Descend a normalized functional over a conformal class, mean-zero gauge.

    Steps are projected (modified) Newton steps in the gauge complement
    (Nocedal & Wright, *Numerical Optimization*, 3.4): with H_f = H_u / 4
    the exact factor Hessian from the accepted point's report
    (:meth:`curvature.CurvatureReport.conformal_hessian`, no further kernel
    call) and P the projection onto mean-zero factors, the direction is
    d = -Hp^-1 P g with Hp = P H_f P + 1 1^T / n, when Hp has a Cholesky
    factor and d moves no factor by more than ``_NEWTON_RADIUS`` = 0.5.
    Otherwise :func:`_descent` takes a gradient step: where H_f is not
    positive definite on the complement, and where the quadratic model's
    minimum lies farther away than the radius, since scaled-down Newton
    steps from there can lead a start into another basin than its gradient
    descent (and, on the double tetrahedron, to a higher final value).
    Each admissible point the descent tests costs one kernel call, and a rejected one
    none (:func:`_descend`).  Returns (factors, SolveTrace).
    """
    f0 = cls._factors(f0)    # before any kernel call
    c = cls.complex
    n = c.num_vertices
    mean = np.full((n, n), 1.0 / n)    # 1 1^T / n
    P = np.eye(n) - mean

    def project(f):
        return f - np.add.reduce(f, -1, None, None, f.ndim > 1) / n    # keepdims on a ladder

    def newton(rep, g):
        Hp = P @ (0.25 * rep.conformal_hessian(which)) @ P + mean
        try:
            np.linalg.cholesky(Hp)
        except np.linalg.LinAlgError:
            return None
        d = -np.linalg.solve(Hp, P @ g)
        return d if np.abs(d).max() <= _NEWTON_RADIUS else None

    return _descend(c, which, [f0], lambda f: induced_lengths(c, cls.background, f),
                    lambda start: project, True, newton, max_iter)[0]


# ---------------------------------------------------------------------------
# Yamabe constant estimation


@dataclass(frozen=True, init=False)
class YamabeEstimate:
    """Best value found by multi-start descent within a conformal class.

    ``value`` is an upper bound on the conformal infimum, never an exact
    Yamabe constant.  ``attained_interior`` reports whether the best run
    converged at an interior critical point; a False value with
    decreasing objectives suggests the infimum is approached at the
    boundary of the admissible set.  ``iterations`` and ``newton_steps``
    total the accepted descent steps, and the Newton steps among them,
    over all starts.
    """

    value: float
    factors: np.ndarray
    which: str
    attained_interior: bool
    bound_kind: str                  # always "upper"
    runs: tuple                      # (value, reason) per start
    seed: int
    iterations: int
    newton_steps: int

    def __init__(self, value, factors, which, attained_interior, bound_kind, runs, seed,
                 iterations, newton_steps):
        set_fields(locals())


def yamabe_constant_estimate(cls: ConformalClass, which: str = "L",
                             starts: int = 8, seed: int = 0,
                             max_iter: int = 400) -> YamabeEstimate:
    """Multi-start descent estimate of the Yamabe constant of a class.

    The first start is the class representative f = 0; the remaining
    starts are seeded mean-zero normal factors.  The reported value is
    the minimum objective reached and is only an upper bound on the true
    infimum.  ``which`` is LEHR or VEHR, in any spelling; the estimate names
    it by its letter, "L" or "V".
    """
    functional = curvature._functional(which, normalized=True)
    rng = np.random.default_rng(seed)
    n = cls.complex.num_vertices
    best_val = np.inf
    best_f = np.zeros(n)
    best_reason = "none"
    runs = []
    iterations = newton_steps = 0
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
        # a stand-in trace without step counts (as tests substitute) adds none
        iterations += len(getattr(trace, "step_sizes", ()))
        newton_steps += getattr(trace, "newton_steps", 0)
        if val < best_val:
            best_val, best_f, best_reason = val, f, trace.reason
    return YamabeEstimate(
        value=float(best_val),
        factors=best_f,
        which="L" if functional == "lehr" else "V",
        attained_interior=(best_reason in ("converged", "stall")),
        bound_kind="upper",
        runs=tuple(runs),
        seed=seed,
        iterations=iterations,
        newton_steps=newton_steps,
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
                                direction) -> float:
    """Rayleigh quotient of the Richardson FD length Hessian along an exact
    eigen direction."""
    H = curvature.hessian_fd_lengths(c, lengths, which, richardson=True)
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
    known = sweep_quantities()
    unknown = [q for q in quantities if q not in known]
    if unknown:
        raise ValueError(f"unknown quantities: {unknown}")
    columns = ["t", "admissible"] + quantities
    rows = []
    prev_vecs = {"lehr": None, "vehr": None}

    need_hess = {w: any(q.startswith(f"{w}_lam") or q.startswith(f"{w}_spec")
                        for q in quantities) for w in ("lehr", "vehr")}

    for t in np.asarray(t_values, dtype=float):
        lengths = np.asarray(family(float(t)), dtype=float)
        try:
            rep = curvature.functionals(c, lengths)
        except geometry.InadmissibleMetricError:
            rows.append([float(t), 0] + [float("nan")] * len(quantities))
            continue
        cache = {q: _scalar(rep, q) for q in quantities if q in _SCALAR_QUANTITIES}
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


def _scalar(rep, name: str) -> float:
    """The sweep column ``name`` of _SCALAR_QUANTITIES, read from a row's report."""
    if name in ("ehr", "lehr", "vehr", "length", "volume"):
        return getattr(rep, name)
    if name == "fatness":
        return rep.volume / rep.length ** 3
    if name == "min_cm3":
        return float(rep.geometry.cm3.min())
    residual = rep.einstein_residual if name.startswith("einstein") else rep.csc_residual
    return float(np.abs(residual(name[-1])).max())


def _match_by_overlap(prev: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Greedy column assignment maximizing |<prev_i, new_j>|."""
    n = prev.shape[1]
    overlap = np.abs(prev.T @ new)
    order = np.full(n, -1)
    for _ in range(n):
        i, j = np.unravel_index(np.argmax(overlap), overlap.shape)
        order[i] = j
        overlap[i, :] = -1.0
        overlap[:, j] = -1.0
    return order


# ---------------------------------------------------------------------------
# random admissible metrics (used by property tests and the evidence suites)


def random_admissible_lengths(c: Complex, rng: np.random.Generator,
                              low: float = 0.6, high: float = 1.4, size=None) -> np.ndarray:
    """Rejection-sample an admissible length vector (E,) with iid uniform entries, or a
    stack (size, E) of them.

    Rows are drawn in blocks (k, E), each tested by one mask call, and the
    admissible rows are kept in order; when a block holds more rows than the
    samples need, the generator is rewound and draws exactly the rows used
    again.  So the samples, and the generator's state afterwards, are bitwise
    those of ``size`` one-row calls, each drawing rows of E uniforms until one
    is admissible.  Raises ``RuntimeError`` after 10000 rejected rows in a row.
    """
    need = 1 if size is None else size
    kept, misses, k = [], 0, need
    while len(kept) < need:
        state, found = rng.bit_generator.state, len(kept)
        block = rng.uniform(low, high, size=(k, c.num_edges))
        used = 0
        for row, ok in zip(block, geometry._admissible(c.tet_lengths(block))):
            used += 1
            if ok:
                kept.append(row)
                misses = 0
                if len(kept) == need:
                    break
            else:
                misses += 1
                if misses == 10000:
                    raise RuntimeError("failed to sample an admissible metric")
        if used < k:
            rng.bit_generator.state = state
            rng.uniform(low, high, size=(used, c.num_edges))
        # twice the rows still needed, or twice the block after a block without one
        k = 2 * (need - len(kept) if len(kept) > found else k)
    samples = np.array(kept).reshape(need, c.num_edges)
    return samples[0] if size is None else samples


def find_tstar(c: Complex | None = None, bracket=(1.0, 1.3),
               tol: float = 1e-6) -> float:
    """Parameter where the family Hessian eigenvalue along (0,1,-1,-1,1,0)
    for the volume-normalized functional crosses zero."""
    c = double_tetrahedron() if c is None else c
    v = FAMILY_DIRECTIONS["v"]

    def g(t):
        return family_direction_eigenvalue(c, diagonal_family(t), "vehr", v)

    return bisect_zero(g, bracket[0], bracket[1], tol=tol)


def find_conformal_crossing(c: Complex | None = None, bracket=(1.0, 1.35),
                            tol: float = 1e-6) -> float:
    """Parameter where the conformal Hessian eigenvalue along (1,1,-1,-1)
    crosses zero on the equihedral family."""
    c = double_tetrahedron() if c is None else c
    v = CONFORMAL_DIRECTIONS["lam2"]

    def g(t):
        return conformal_direction_eigenvalue(c, diagonal_family(t), v)

    return bisect_zero(g, bracket[0], bracket[1], tol=tol)
