"""Numerical machinery: eigensolver, csc Newton solver, projected descent,
Yamabe-constant estimation, Brent's root finder, and one-parameter family sweeps.

The csc Newton solver and the descents run through one loop, :func:`_descend`: a client
evaluates points (values and gradients) and gives, at accepted points, a Newton step and
its slope; the csc solver's value is its merit |r|^2 / 2 and its "gradient" the residual r.
All solvers are deterministic for fixed inputs and seeds.  Non-convergence
is reported through ``SolveTrace.reason`` rather than raised, so callers
(multi-start experiments in particular) can treat boundary hits as data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .complexes import Complex, double_tetrahedron, set_fields
from . import curvature, geometry
from .conformal import ConformalClass, induced_lengths


# ---------------------------------------------------------------------------
# symmetric eigensolver


@dataclass(frozen=True, init=False)
class Spectrum:
    """Eigenvalues in ascending order with matching orthonormal columns."""

    eigenvalues: np.ndarray    # (n,)
    eigenvectors: np.ndarray   # (n, n), column i pairs with eigenvalues[i]

    def __init__(self, eigenvalues, eigenvectors):
        set_fields(locals())


def eig_sym(A) -> Spectrum:
    """Full spectral decomposition of a symmetric matrix (LAPACK ``eigh``).

    Deterministic: eigenvalues ascending, each eigenvector's largest component
    made positive; a (0, 0) matrix has an empty spectrum.  Raises on non-symmetric input
    and on a NaN or infinite entry.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not A.size:
        return Spectrum(eigenvalues=np.zeros(0), eigenvectors=np.zeros((0, 0)))
    scale = float(np.abs(A).max())
    if not math.isfinite(scale):
        raise ValueError("matrix has a NaN or infinite entry")
    if np.abs(A - A.T).max() > 1e-12 * max(1.0, scale):
        raise ValueError("matrix is not symmetric to 1e-12 relative")
    vals, V = np.linalg.eigh(0.5 * (A + A.T))
    j = np.argmax(np.abs(V), axis=0)
    V = V * np.where(V[j, np.arange(V.shape[1])] < 0, -1.0, 1.0)
    return Spectrum(eigenvalues=vals, eigenvectors=V)


def _linalg_error(err, flag):    # numpy.linalg's handler of LAPACK's failure flag
    raise LinAlgError("LAPACK: singular or not positive definite")


@np.errstate(call=_linalg_error, invalid="call", over="ignore", divide="ignore", under="ignore")
def _lapack(gufunc, *arrays):
    """numpy.linalg's Cholesky factor or solve of float64 arrays without the checks and
    conversions around its LAPACK gufunc (most of a 4x4 call's time): the same loop under the
    same error state, so bitwise its result, and ``LinAlgError`` where it raises."""
    return gufunc(*arrays)


# ---------------------------------------------------------------------------
# traces


@dataclass(init=False)
class SolveTrace:
    """Iterate history of a solver run, and the points it tested; each list field left out
    is a new empty list."""

    iterates: list
    residual_norms: list
    step_sizes: list
    values: list
    reason: str
    newton_steps: int          # accepted Newton steps of a descent
    points: int                # points evaluated or rejected, the start included
    rejected: int              # points found inadmissible

    def __init__(self, iterates=None, residual_norms=None, step_sizes=None, values=None,
                 reason="max-iters", newton_steps=0, points=0, rejected=0):
        set_fields({name: [] if v is None else v for name, v in locals().items()})


# ---------------------------------------------------------------------------
# Newton solver for constant scalar curvature in a conformal class


def solve_csc(cls: ConformalClass, which: str = "L", f0=None,
              tol: float = 1e-10, max_iter: int = 100):
    """Newton iteration for K_v = lambda * L_v (or lambda * V_v) in a class.

    The multiplier is recomputed from the metric at every iterate, and the scale gauge is
    fixed by constraining sum(f) to its starting value through a bordered system
    [[J, 1], [1^T, 0]], with J the exact Jacobian of the residual r read from the accepted
    point's report (:meth:`curvature.CurvatureReport.csc_jacobian`).  The merit ||r||^2 / 2
    globalizes the method (Nocedal & Wright, *Numerical Optimization*, 11.2): :func:`_descend`
    runs it as one start with r as its gradient, so it converges where max |r_v| < ``tol``,
    and each chunk of a step's halving ladder is tested before the kernel runs on the chunk's
    first admissible trial.  There is no gradient step: a singular system stops it with
    reason "singular-jacobian", a step along which the merit does not fall (the zero step
    where r is already a multiple of 1) with "stall", and an exhausted ladder with
    "boundary-hit" if a trial was inadmissible, else "stall".  ``trace.values`` holds each
    iterate's merit.

    Returns (factors, SolveTrace).
    """
    c = cls.complex
    n = c.num_vertices
    f = np.zeros(n) if f0 is None else np.array(f0, dtype=float)    # the first iterate
    if not cls.apply(f)[1]:
        raise geometry.InadmissibleMetricError("starting point is not admissible")
    K, rhs = np.ones((n + 1, n + 1)), np.zeros(n + 1)    # the bordered system
    K[n, n] = 0.0

    def evaluate(points, sizes):    # one start, so one chunk and at most one point kept
        k, kept, geo, k_edge = curvature._first_admissible(
            c, induced_lengths(c, cls.background, points), sizes)
        if geo is None:
            return k, [], [], None, None
        rep, = curvature._make_reports(c, kept, geo, k_edge)
        r = rep.csc_residual(which)
        return k, [0.5 * float(r @ r)], [False], r[None], [rep]

    def newton(rep, r):    # the step d and its merit slope r^T J d = -r^T (r + mu 1)
        K[:n, :n], rhs[:n] = rep.csc_jacobian(which), -r
        try:
            d = _lapack(_umath_linalg.solve1, K, rhs)
        except LinAlgError:
            return None
        return d[:n], -float(r @ (r + d[n]))

    return _descend(f[None], lambda f, own, sizes: (f, sizes), evaluate, newton, max_iter,
                    tol, newton_only="singular-jacobian")[0]


# ---------------------------------------------------------------------------
# projected descent: modified Newton steps, gradient steps as the fallback


_GTOL = 1e-9          # sup-norm of the gradient at convergence
_ARMIJO = 1e-4        # sufficient-decrease constant of the line search
_MAX_HALVINGS = 40    # step halvings of one line search
_RUNGS = 8            # rungs of a line search's halving ladder formed and tested per round
_LADDER = 0.5 ** np.arange(_MAX_HALVINGS)[:, None]    # the halvings 2^-k, exact, as a column
_NEWTON_RADIUS = 0.5  # longest conformal Newton step taken, in sup-norm
_ROUNDOFF = 20.0 * np.finfo(float).eps    # relative decrease at the roundoff level


def _index(ids):
    """Increasing indices as a numpy index: a slice, which costs less, where consecutive."""
    return slice(ids[0], ids[-1] + 1) if ids[-1] - ids[0] == len(ids) - 1 else np.array(ids)


@np.errstate(over="ignore", invalid="ignore")    # one scope for the run, made at import
def _descend(starts, gauge, evaluate, direction, max_iter, tol=_GTOL, newton_only=None):
    """Minimize a function from each start of a stack (S, n) by Newton or gradient steps with
    Armijo backtracking, all starts in one array loop; returns each start's (x, SolveTrace).

    ``gauge(points, owners, sizes)`` renormalizes points (R, n) in chunks of ``sizes``
    (``owners``: each point's start, or the one start of them all), preserving value and
    admissibility; it returns them with the chunk sizes, cut before a point it cannot
    project (raising when that is a chunk's first).  ``evaluate(points, sizes)`` returns
    (k, values, at_boundary, gradients, reports): each chunk's index of its first admissible
    point (its size if none), and those points' values, boundary flags, gradients (F, n) and
    reports (or None).  ``direction(rep, g)`` gives a Newton step d and the slope of the
    value along it (g . d for a descent), or None, at an accepted point that has a report.

    Each iteration first tries the Newton step d when there is one and its slope is
    negative: the step starts at 1 and is halved until Armijo's test on that slope holds,
    and a candidate that is inadmissible or at the boundary halves it too; otherwise, or
    when that fails, a gradient step is searched from the last one, doubled; with
    ``newton_only`` (a reason) a start where ``direction`` gives None stops with that reason,
    one whose Newton step has a slope that is not negative (a zero step) with "stall", and
    one whose Newton ladder runs out as a gradient search does.  A search forms its ladder
    project(x + step 2^-k d), k < 40, in chunks: one rung first and after a rung that failed
    the test, 8 after a chunk without an admissible rung and first in a gradient search after
    one that met the boundary.  Each rung is bitwise that of k halvings.

    Each round forms the chunks of all live starts from arrays (S, n) of iterates and
    directions in one broadcast (one start's from its rows, one point by scalar arithmetic),
    and one ``gauge`` and one ``evaluate`` call take them.  A start's scalars (value, step,
    rung) are Python numbers, and every quantity is elementwise or a per-start dot product,
    so each start follows its own path bitwise.  Reasons: "converged" (sup-norm of the
    gradient below ``tol``), "boundary-hit" (a gradient search blocked by inadmissible
    candidates, or an iterate at the boundary), "stall" (no decrease away from the boundary,
    or five in a row at the roundoff level of the values) or "max-iters"; an accepted
    iterate is tested for convergence, then the boundary, then the step budget (``max_iter``
    steps, none when it is 0 or less).  ``trace.points`` counts the points a search testing
    one at a time tests (the start, rungs up to a chunk's first admissible one, whole chunks
    without one), ``trace.rejected`` the inadmissible ones.  An inadmissible start raises.
    A long step can overflow to infinite candidates, or the kernel's products to inf - inf
    = NaN, which the test rejects: the run ignores overflow and invalid operations.
    """
    S, n = starts.shape
    traces = [SolveTrace(points=1, reason="") for _ in range(S)]    # a reason once it stops
    x, d, g = np.empty((S, n)), np.empty((S, n)), np.empty((S, n))    # iterates, steps, gradients
    fx, step, slope, alpha = [0.0] * S, [0.0] * S, [0.0] * S, [1.0] * S
    rung, rungs, first, tiny = [0] * S, [0] * S, [1] * S, [0] * S
    newton, blocked = [False] * S, [False] * S

    def accept(i, a, e):    # row a of the round, its evaluated point e, is start i's iterate
        t, gnorm, xa = traces[i], gnorms[e], rows[a]
        x[i], g[i], fx[i] = xa, gradients[e], values[e]
        t.iterates.append(xa)    # a view: a round's rows are a new array, never written
        t.residual_norms.append(gnorm)
        t.values.append(fx[i])
        t.reason = ("converged" if gnorm < tol else "boundary-hit" if at_boundary[e] else
                    "max-iters" if len(t.step_sizes) >= max_iter else "")
        if t.reason:
            return
        dj = direction(reports[e], g[i]) if reports else None
        if dj and dj[1] < 0.0:    # a Newton step is most often taken at once: one rung
            d[i], slope[i] = dj
            step[i], rung[i], rungs[i], newton[i], blocked[i] = 1.0, 0, 1, True, False
        elif newton_only:    # no step (a singular system), or no descent
            t.reason = newton_only if dj is None else "stall"
        else:
            search.append(i)

    every, search = list(range(S)), []
    rows, sizes = gauge(starts, every, [1] * S)
    k, values, at_boundary, gradients, reports = evaluate(rows, sizes)
    if any(k):
        raise geometry.InadmissibleMetricError("starting point is not admissible")
    gnorms = np.maximum.reduce(np.abs(gradients), -1).tolist()
    for i in every:
        accept(i, i, i)
    while True:
        if search:    # gradient searches from the iterates along -g
            search.sort()
            at = _index(search)
            d[at] = gs = -g[at]
            # g . g per start: np.vecdot is bitwise each start's own g @ g
            for i, gg in zip(search, np.vecdot(gs, gs).tolist()):
                step[i], slope[i] = min(2.0 * alpha[i], 1e6), -gg
                rung[i], rungs[i], newton[i], blocked[i] = 0, first[i], False, False

        live = [i for i in every if not traces[i].reason]
        if not live:
            break
        sizes = [min(rungs[i], _MAX_HALVINGS - rung[i]) for i in live]
        if sizes == [1]:    # one point: scalar arithmetic is cheaper than broadcasting
            i = own = live[0]
            rows = (x[i] + (step[i] * 0.5 ** rung[i]) * d[i])[None]
        elif len(live) == 1:    # one start: its chunk without a gather
            i = own = live[0]
            rows = x[i] + (step[i] * _LADDER[rung[i]:rung[i] + sizes[0]]) * d[i]
        else:    # rung j of a chunk of start i is x_i + (step_i 2^-(rung_i + j)) d_i
            m = np.array(sizes)
            own, ends = np.array(live).repeat(m), m.cumsum()    # each rung's start
            j = np.arange(ends[-1]) - (ends - m - np.array([rung[i] for i in live])).repeat(m)
            scale = np.array([step[i] for i in live]).repeat(m)[:, None] * _LADDER[j]
            rows = x[own] + scale * d[own]
        rows, sizes = gauge(rows, own, sizes)
        k, values, at_boundary, gradients, reports = evaluate(rows, sizes)
        gnorms = np.maximum.reduce(np.abs(gradients), -1).tolist() if values else ()
        search, row, e = [], 0, 0
        for i, m, kj in zip(live, sizes, k):
            t, found = traces[i], kj < m
            t.points += kj + found
            t.rejected += kj
            blocked[i] |= kj > 0
            rung[i] += kj
            rungs[i] = 1 if found else _RUNGS
            if found:
                s, f0, fc = step[i] * 0.5 ** rung[i], fx[i], values[e]
                if fc <= f0 + _ARMIJO * s * slope[i] and not (newton[i] and at_boundary[e]):
                    # decreases at the roundoff level of the values mean the numerical optimum
                    # (relative scale, so objectives that approach zero keep converging)
                    tiny[i] = tiny[i] + 1 if f0 - fc <= _ROUNDOFF * max(abs(f0), abs(fc)) else 0
                    if tiny[i] == 5:
                        x[i], t.reason = rows[row + kj], "stall"
                    else:
                        t.step_sizes.append(s)
                        t.newton_steps += newton[i]
                        if not newton[i]:    # one rung next, or a chunk after the boundary
                            alpha[i], first[i] = s, _RUNGS if blocked[i] else 1
                        accept(i, row + kj, e)
                else:
                    rung[i] += 1
                e += 1
            if rung[i] >= _MAX_HALVINGS and newton[i] and newton_only is None:    # gradient next
                search.append(i)
            elif rung[i] >= _MAX_HALVINGS:
                t.reason = "boundary-hit" if blocked[i] else "stall"
            row += m

    return [(x[i], t) for i, t in enumerate(traces)]


def descend_lengths(c: Complex, which: str, l0, normalize: str = "L",
                    max_iter: int = 1000):
    """Descend a normalized functional over length space with a scale gauge.

    ``normalize="L"`` rescales each iterate to total length = its initial
    value; ``normalize="V"`` rescales to unit total volume.  Both leave
    the scale-invariant objectives unchanged.  The volume gauge scales a chunk of
    candidates only up to its first inadmissible one, and raises
    :class:`geometry.InadmissibleMetricError` when a line search reaches that one.

    ``l0`` is one start (E,), which returns (lengths, SolveTrace), or a stack (S, E), which
    returns the endpoints (S, E) and a tuple of S traces: the starts descend together in one
    array loop (:func:`_descend`), with one admissibility test and at most one kernel call
    per round for the candidates of every live start, and each start follows its own call
    bitwise.  Steps are gradient steps; there is no Newton direction in length space.  A start of another shape, or an unknown
    ``normalize``, raises ``ValueError`` before any kernel call; an
    inadmissible start raises :class:`geometry.InadmissibleMetricError`.
    """
    l0 = np.asarray(l0, dtype=float)
    E = c.num_edges
    if l0.ndim not in (1, 2) or l0.shape[-1] != E:
        raise ValueError(f"expected a start ({E},) or a stack (S, {E}), got shape {l0.shape}")
    if normalize.upper() not in ("L", "V"):
        raise ValueError(f"unknown normalization {normalize!r}")
    starts = l0.reshape(-1, E)
    if not len(starts):    # an empty stack, before the functional's name is resolved
        return starts.copy(), ()
    name = curvature._functional(which)
    targets = np.add.reduce(starts, -1, keepdims=True)

    def by_length(l, own, sizes):
        return l * (targets[own] / np.add.reduce(l, -1, keepdims=True)), sizes

    def by_volume(l, own, sizes):
        tets = c.tet_lengths(l)
        ok, margins, cm, _, _ = geometry._tet_tests(tets, 3)
        cut, _ = curvature._firsts(np.logical_not(ok.all(-1)).tolist(), sizes)
        if 0 in cut:    # as a one-row projection raises, naming the worst tet
            row = sum(sizes[:cut.index(0)])
            raise geometry._inadmissible(tets[row], margins[row], cm[row])
        keep = [r for at, j in zip(accumulate(sizes, initial=0), cut) for r in range(at, at + j)]
        volume = np.add.reduce(np.sqrt(cm[keep] / 288.0), -1).tolist()
        return l[keep] / np.array([v ** (1 / 3) for v in volume])[:, None], cut

    runs = _descend(starts, by_length if normalize.upper() == "L" else by_volume,
                    lambda l, sizes: curvature._first_points(c, name, l, sizes, False),
                    None, max_iter)
    if l0.ndim == 1:
        return runs[0]
    return np.array([x for x, _ in runs]), tuple(t for _, t in runs)


def descend_conformal(cls: ConformalClass, which: str, f0, max_iter: int = 1000):
    """Descend a normalized functional over a conformal class, mean-zero gauge.

    Steps are projected (modified) Newton steps in the gauge complement
    (Nocedal & Wright, *Numerical Optimization*, 3.4): with H_f = H_u / 4
    the exact factor Hessian from the accepted point's report
    (:meth:`curvature.CurvatureReport.conformal_hessian`, no further kernel
    call) and P the projection onto mean-zero factors, the direction is
    d = -Hp^-1 P g with Hp = P H_f P + 1 1^T / n, when Hp has a Cholesky
    factor and d moves no factor by more than ``_NEWTON_RADIUS`` = 0.5.
    Otherwise :func:`_descend` takes a gradient step: where H_f is not
    positive definite on the complement, and where the quadratic model's
    minimum lies farther away than the radius, since scaled-down Newton
    steps from there can lead a start into another basin than its gradient
    descent (and, on the double tetrahedron, to a higher final value).
    Returns (factors, SolveTrace).
    """
    f0 = cls._factors(f0)    # before any kernel call
    c = cls.complex
    name = curvature._functional(which)
    n = c.num_vertices
    mean = np.full((n, n), 1.0 / n)    # 1 1^T / n
    P = np.eye(n) - mean

    def project(f, own, sizes):
        return f - np.add.reduce(f, -1, keepdims=True) / n, sizes

    def newton(rep, g):
        Hp = P @ (0.25 * rep.conformal_hessian(which)) @ P + mean
        try:
            _lapack(_umath_linalg.cholesky_lo, Hp)
        except LinAlgError:
            return None
        d = -_lapack(_umath_linalg.solve1, Hp, P @ g)
        # |d_v| <= radius for every v, and False for a NaN, as np.abs(d).max() <= radius
        r = _NEWTON_RADIUS
        return (d, float(g @ d)) if all(-r <= v <= r for v in d.tolist()) else None

    def evaluate(f, sizes):    # the gradients in the factors, from the points' reports
        return curvature._first_points(c, name, induced_lengths(c, cls.background, f), sizes,
                                       True)

    return _descend(f0[None], project, evaluate, newton, max_iter)[0]


# ---------------------------------------------------------------------------
# Yamabe constant estimation


@dataclass(frozen=True, init=False)
class YamabeEstimate:
    """Best value found by multi-start descent within a conformal class.

    ``value`` is an upper bound on the conformal infimum, never an exact
    Yamabe constant.  ``attained_interior`` reports whether the best run
    converged at an interior critical point; a False value with
    decreasing objectives suggests the infimum is approached at the
    boundary of the admissible set.  ``iterations`` and ``newton_steps`` total the accepted
    descent steps, and the Newton steps among them, over all starts.  The private
    ``_traces`` holds each start's SolveTrace in the order of ``runs`` (None for an
    inadmissible start), for ``regge3 yamabe --trace``; it is not compared or printed.
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
    _traces: tuple = field(default=(), repr=False, compare=False)

    def __init__(self, value, factors, which, attained_interior, bound_kind, runs, seed,
                 iterations, newton_steps, _traces=()):
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
    runs, traces = [], []
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
                traces.append(None)
                continue
        f, trace = descend_conformal(cls, functional, f0, max_iter=max_iter)
        val = trace.values[-1] if trace.values else np.inf
        runs.append((val, trace.reason))
        traces.append(trace)
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
        _traces=tuple(traces),
    )


# ---------------------------------------------------------------------------
# scalar root finding


def _finite(g, t: float):
    """g(t), or ``ValueError`` when it is NaN or infinite: no sign test can bracket those."""
    value = g(t)
    if not math.isfinite(value):
        raise ValueError(f"g({t}) = {value} is not finite")
    return value


def bisect_zero(g, a: float, b: float, tol: float = 1e-10,
                max_iter: int = 200) -> float:
    """A root of a scalar function g on a bracket [a, b] where it changes sign, by Brent's
    method (Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 4).

    Each step evaluates g once: at a secant or inverse quadratic interpolation point inside
    the bracket, or at the bracket's midpoint where that point is not in the near three
    quarters of the bracket, the step is not below half the step before last, or the two
    steps before each left more than half the bracket.  A smooth simple root converges
    superlinearly, and any sign change still converges, a flat one (t - 1.2)^3 in 29
    evaluations at tol 1e-6 where bisection takes 22.  Returns an
    endpoint of a bracket narrower than ``tol`` (plus 4 eps times the root, for rounding),
    a point where g is exactly 0, or the best point after ``max_iter`` evaluations past the
    two endpoints.  Raises ``ValueError`` when g(a) and g(b) have the same sign, and when
    any value of g is NaN or infinite.
    """
    ga, gb = _finite(g, a), _finite(g, b)
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if np.sign(ga) == np.sign(gb):
        raise ValueError(f"no sign change on [{a}, {b}]: g(a)={ga:.3g}, g(b)={gb:.3g}")
    # b is the best point, c the other end of the bracket, a the previous b
    c, gc, d = a, ga, b - a
    e = d    # the step before the last: interpolation must halve it
    slow, width = 0, math.inf    # steps in a row that left more than half the bracket
    for _ in range(max_iter):
        if abs(gc) < abs(gb):
            a, b, c, ga, gb, gc = b, c, b, gb, gc, gb
        tol1 = 2.0 * np.finfo(float).eps * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol1:
            return b
        slow, width = slow + 1 if abs(m) > 0.25 * width else 0, 2.0 * abs(m)
        if slow == 2:    # bisect after two such steps: a flat root's interpolation crawls
            slow, e, d = 0, m, m
        elif abs(e) >= tol1 and abs(ga) > abs(gb):
            s = gb / ga
            if a == c:    # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:         # inverse quadratic through a, b and c
                q, r = ga / gc, gb / gc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = abs(p), -q if p > 0.0 else q
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                e = d = m
        else:
            e = d = m
        a, ga = b, gb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        gb = _finite(g, b)
        if gb == 0.0:
            return b
        if np.sign(gb) == np.sign(gc):    # the root lies between a and b
            c, gc = a, ga
            e = d = b - a
    return b


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


def _rayleigh(H, direction) -> float:
    """The Rayleigh quotient v^T H v / v^T v of a matrix H along a direction v."""
    v = np.asarray(direction, dtype=float)
    return float(v @ H @ v / (v @ v))


def family_direction_eigenvalue(c: Complex, lengths, which: str, direction) -> float:
    """Rayleigh quotient of the exact length Hessian
    (:meth:`curvature.CurvatureReport.length_hessian`) along an exact eigen direction:
    one kernel call."""
    return _rayleigh(curvature.functionals(c, lengths).length_hessian(which), direction)


def conformal_direction_eigenvalue(c: Complex, lengths, direction) -> float:
    """Rayleigh quotient of the analytic csc conformal Hessian along a direction."""
    return _rayleigh(curvature.lehr_conformal_hessian_csc(c, lengths), direction)


@dataclass(init=False)
class SweepTable:
    columns: list
    rows: list   # one list of floats per step (NaN for inadmissible rows)

    def __init__(self, columns, rows):
        set_fields(locals())

    def to_delimited(self, sep: str = ",") -> str:
        out = [sep.join(self.columns)]
        for row in self.rows:
            out.append(sep.join(format(x, ".12g") if isinstance(x, float)
                                else str(x) for x in row))
        return "\n".join(out) + "\n"


_SCALAR_QUANTITIES = ("ehr", "lehr", "vehr", "length", "volume", "fatness",
                      "min_cm3", "einstein_res_l", "einstein_res_v",
                      "csc_res_l", "csc_res_v")
_EIG_QUANTITIES = tuple(f"{w}_lam_{name}" for w in ("lehr", "vehr")
                        for name in (*FAMILY_DIRECTIONS, "radial"))
_CONF_QUANTITIES = tuple(f"conf_lehr_{name}" for name in CONFORMAL_DIRECTIONS)
_TRACKED = ("lehr_spec", "vehr_spec")


def sweep_quantities() -> tuple:
    tracked = tuple(f"{base}_{i}" for base in _TRACKED for i in range(1, 7))
    return _SCALAR_QUANTITIES + _EIG_QUANTITIES + _CONF_QUANTITIES + tracked


def sweep_family(c: Complex, family, t_values, quantities) -> SweepTable:
    """Evaluate requested quantities along a one-parameter metric family.

    Every row's report comes from one kernel call on the stacked family metrics.
    Inadmissible parameter values give a row flagged admissible=0 with NaN entries, and a
    row off csc NaN conformal columns, instead of aborting the sweep.  Tracked spectrum
    columns (``lehr_spec_i`` / ``vehr_spec_i``) follow eigenvectors by maximal overlap
    with the previous step rather than by sorted order, so crossings do not swap columns.
    """
    quantities = list(quantities)
    known = sweep_quantities()
    unknown = [q for q in quantities if q not in known]
    if unknown:
        raise ValueError(f"unknown quantities: {unknown}")
    columns = ["t", "admissible"] + quantities
    rows, nan = [], float("nan")
    prev_vecs = {"lehr": None, "vehr": None}

    need_hess = {w: any(q.startswith(f"{w}_lam") or q.startswith(f"{w}_spec")
                        for q in quantities) for w in ("lehr", "vehr")}
    ts = np.asarray(t_values, dtype=float).tolist()
    metrics = np.array([family(t) for t in ts], dtype=float).reshape(len(ts), c.num_edges)
    for t, lengths, rep in zip(ts, metrics, curvature._reports(c, metrics)):
        if rep is None:
            rows.append([t, 0] + [nan] * len(quantities))
            continue
        cache = {q: _scalar(rep, q) for q in quantities if q in _SCALAR_QUANTITIES}
        for w in ("lehr", "vehr"):
            if not need_hess[w]:
                continue
            H = curvature.hessian_fd_lengths(c, lengths, w, richardson=True)
            radial = np.array([1.0 / t, -0.5, -0.5, -0.5, -0.5, 1.0 / t])
            for name, v in (*FAMILY_DIRECTIONS.items(), ("radial", radial)):
                cache[f"{w}_lam_{name}"] = _rayleigh(H, v)
            spec = eig_sym(H)
            vals, vecs = spec.eigenvalues, spec.eigenvectors
            if prev_vecs[w] is not None:
                order = _match_by_overlap(prev_vecs[w], vecs)
                vals, vecs = vals[order], vecs[:, order]
            prev_vecs[w] = vecs
            for i in range(6):
                cache[f"{w}_spec_{i + 1}"] = float(vals[i])
        if any(q in _CONF_QUANTITIES for q in quantities):
            Hc = rep.conformal_hessian("lehr") if curvature._off_csc(rep) is None else None
            for name, v in CONFORMAL_DIRECTIONS.items():
                cache[f"conf_lehr_{name}"] = nan if Hc is None else _rayleigh(Hc, v)
        rows.append([t, 1] + [cache[q] for q in quantities])
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
    for the volume-normalized functional crosses zero: :func:`bisect_zero` (Brent's
    method) on :func:`family_direction_eigenvalue`, one exact length Hessian per step."""
    v = FAMILY_DIRECTIONS["v"]
    return _family_root(lambda c, l: family_direction_eigenvalue(c, l, "vehr", v), c,
                        bracket, tol)


def find_conformal_crossing(c: Complex | None = None, bracket=(1.0, 1.35),
                            tol: float = 1e-6) -> float:
    """Parameter where the conformal Hessian eigenvalue along (1,1,-1,-1)
    crosses zero on the equihedral family."""
    v = CONFORMAL_DIRECTIONS["lam2"]
    return _family_root(lambda c, l: conformal_direction_eigenvalue(c, l, v), c, bracket, tol)


def _family_root(eigenvalue, c, bracket, tol) -> float:
    """:func:`bisect_zero` of t -> eigenvalue(c, diagonal_family(t)); c = None is dt."""
    c = double_tetrahedron() if c is None else c
    return bisect_zero(lambda t: eigenvalue(c, diagonal_family(t)), bracket[0], bracket[1],
                       tol=tol)
