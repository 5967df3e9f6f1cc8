"""Seeded request lists, request execution and per-request correctness checks.

A request is a plain dict of numbers and lists, so that two request lists
can be compared for equality and printed.  Generation uses only numpy and
the seed; the library receives nothing but the generated inputs.

``execute`` looks every library function up through its module at call
time, so the wrappers installed by ``tracing`` see every call.  ``check``
runs outside the timed interval and returns ``None`` or the name of the
check that failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
WORKLOADS = ("dt", "cell600", "reproduce")

#: requests the ledger expects to fail, by defect id, with the exception
#: class name each one raises today
KNOWN_DEFECTS = json.loads((HERE / "known_defects.json").read_text())
GOLDEN = json.loads((HERE / "golden.json").read_text())

T_END = 1.4142          # diagonal family endpoint, just short of sqrt(2)
T_PINNED = (1.0, 1.3)   # family parameters with golden rows
SWEEP_POINTS = 15       # grid points on [1, T_END] before pinning 1.3
SOLVE_BLOCKS = 6        # blocks of solver requests, one seeded class each
YAMABE_STARTS = 8       # solve.yamabe_constant_estimate's default ``starts``
YAMABE_SIGMA = 0.6      # spread of that function's seeded starts
YAMABE_MAX_ITER = 400   # and its default ``max_iter``
CELL_ANALYZE = 30
CELL_GRADIENT = 20

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_DT_EDGE_VERTICES = np.array(_PAIRS)

# closed forms at the equal-length double tetrahedron (reference values of
# the source paper), recomputed here so the check does not trust the library
_ACOS13 = math.acos(1.0 / 3.0)
_R2 = math.sqrt(2.0)
LEHR_EIGS = sorted([-2 * _R2 / 3] * 2 + [0.0] + [2 * _R2 / 9] * 3)
_VL1 = 2 ** (7 / 6) * 3 ** (-2 / 3) * (2 ** 1.5 + 9 * math.pi - 9 * _ACOS13)
_VL2 = 2 ** (7 / 6) * 3 ** (1 / 3) * (7 * math.pi - 2 ** 1.5 - 7 * _ACOS13)
VEHR_EIGS = sorted([0.0] + [_VL1] * 3 + [_VL2] * 2)
VEHR_LAM_V_AT_1_3 = -5.97897
CONF_LEHR_AT_1 = 4 * _R2 / 9


# ---------------------------------------------------------------------------
# request generation


def _cm_det(l6) -> float:
    """Cayley-Menger determinant of one tetrahedron (oracle, numpy only)."""
    A = np.ones((5, 5))
    A[0, 0] = 0.0
    for i in range(4):
        A[i + 1, i + 1] = 0.0
    for m, (i, j) in enumerate(_PAIRS):
        A[i + 1, j + 1] = A[j + 1, i + 1] = l6[m] ** 2
    return float(np.linalg.det(A))


def dt_admissible(l6) -> bool:
    """Positive lengths, strict triangle inequalities and CM3 > 0."""
    l6 = np.asarray(l6, dtype=float)
    if np.any(l6 <= 0) or not np.all(np.isfinite(l6)):
        return False
    for face in ((5, 4, 3), (5, 2, 1), (4, 2, 0), (3, 1, 0)):
        s = l6[list(face)]
        if s.sum() - 2 * s.max() <= 0:
            return False
    return _cm_det(l6) > 0


def _dt_induced(background, f):
    ev = _DT_EDGE_VERTICES
    return np.exp(0.5 * (f[ev[:, 0]] + f[ev[:, 1]])) * np.asarray(background)


def _mean_zero_factors(rng, background, sigma):
    while True:
        f = rng.normal(0.0, sigma, 4)
        f -= f.mean()
        if dt_admissible(_dt_induced(background, f)):
            return f


def _sweep_requests(rng):
    base = np.linspace(1.0, T_END, SWEEP_POINTS)
    gap = base[1] - base[0]
    # interior points move by under a third of the spacing, so every
    # interior point stays below 1.412 and both endpoints stay fixed
    inner = base[1:-1] + rng.uniform(-0.3, 0.3, SWEEP_POINTS - 2) * gap
    ts = sorted([float(x) for x in inner] + [T_END, *T_PINNED])
    return [{"kind": "sweep_row", "t": t} for t in ts]


def yamabe_starts(seed, background):
    """YAMABE_STARTS starts in the class of ``background``, drawn as
    ``yamabe_constant_estimate(cls, which, seed=seed)`` draws them: the
    representative f = 0 first, then mean-zero N(0, YAMABE_SIGMA) factors,
    of which the inadmissible ones are skipped.

    That function descends from the admissible ones among its first
    YAMABE_STARTS - 1 draws; here the same random stream continues until
    there are YAMABE_STARTS - 1 admissible ones, so every start has the
    distribution of the library's starts and every seed gives a request
    list of the same length (hence the same ledgered failure fraction)."""
    rng = np.random.default_rng(seed)
    starts = [np.zeros(4)]
    while len(starts) < YAMABE_STARTS:
        f = rng.normal(0.0, YAMABE_SIGMA, size=4)
        f -= f.mean()
        if dt_admissible(_dt_induced(background, f)):
            starts.append(f)
    return starts


def _solve_requests(rng):
    reqs = []
    for _ in range(SOLVE_BLOCKS):
        while True:
            bg = rng.uniform(0.85, 1.15, 6)
            if dt_admissible(bg):
                break
        f0 = _mean_zero_factors(rng, bg, 0.3).tolist()
        estimate_seed = int(rng.integers(2 ** 31))
        bg = bg.tolist()
        reqs += [
            {"kind": "solve_csc", "which": "L", "background": bg, "f0": f0},
            {"kind": "solve_csc", "which": "V", "background": bg, "f0": f0},
            {"kind": "descend_lengths", "functional": "lehr", "normalize": "L", "l0": bg},
            {"kind": "descend_lengths", "functional": "vehr", "normalize": "V", "l0": bg},
        ]
        # one Yamabe estimate of the class in the L normalization, the
        # default of ``regge3 yamabe`` and the one criterion 11 uses; each of
        # its starts is one request
        reqs += [{"kind": "yamabe_start", "functional": "lehr", "background": bg,
                  "f0": f.tolist(), "estimate_seed": estimate_seed}
                 for f in yamabe_starts(estimate_seed, np.array(bg))]
    return reqs


def _cell600_requests(rng, edge_vertices):
    ev = np.asarray(edge_vertices)

    def perturbed():
        f = rng.normal(0.0, 0.02, 120)
        return (np.exp(0.5 * (f[ev[:, 0]] + f[ev[:, 1]]))).tolist()

    kinds = ["analyze"] * CELL_ANALYZE + ["gradient"] * CELL_GRADIENT
    order = rng.permutation(len(kinds))
    reqs = [{"kind": kinds[i], "lengths": perturbed()} for i in order]
    reqs.append({"kind": "newton_csc", "f0": rng.normal(0.0, 0.02, 120).tolist()})
    reqs.append({"kind": "spectrum", "scale": float(rng.uniform(0.8, 1.25))})
    return reqs


def make_requests(workload: str, seed: int, edge_vertices_600=None) -> list:
    """The fixed request list of one pass; the same seed gives the same list."""
    rng = np.random.default_rng(seed)
    if workload == "dt":
        # sweep rows (Hessian-bound) spread evenly among solver requests
        # (iteration-bound, no Hessian), so that both see the same moments
        # of a shared machine
        sweep, solve = _sweep_requests(rng), _solve_requests(rng)
        step = len(solve) // len(sweep)
        return [r for i, row in enumerate(sweep) for r in [row, *solve[i * step:(i + 1) * step]]] \
            + solve[len(sweep) * step:]
    if workload == "cell600":
        return _cell600_requests(rng, edge_vertices_600)
    if workload == "reproduce":
        # the paper fixes these inputs; the seed does not change them
        return [{"kind": "criterion", "number": n} for n in range(1, 12)]
    raise ValueError(f"unknown workload {workload!r}")


def expected_defect(req):
    """Ledger id of the defect a request is expected to hit, or None."""
    for defect in KNOWN_DEFECTS:
        match = defect["match"]
        if match is None:
            continue
        if all(req.get(k) == v for k, v in match.items() if k != "t_at_least") \
                and req.get("t", math.inf) >= match.get("t_at_least", -math.inf):
            return defect["id"]
    return None


# ---------------------------------------------------------------------------
# execution


class Context:
    """The imported library modules and the complexes built during set-up."""

    def __init__(self, mods, dt, c600):
        self.m = mods
        self.dt = dt
        self.c600 = c600


def execute(ctx: Context, req: dict):
    m = ctx.m
    kind = req["kind"]
    if kind == "sweep_row":
        table = m.solve.sweep_family(ctx.dt, m.solve.diagonal_family, [req["t"]],
                                     m.solve.sweep_quantities())
        return dict(zip(table.columns, table.rows[0]))
    if kind == "solve_csc":
        cls = m.conformal.ConformalClass(ctx.dt, np.array(req["background"]))
        return m.solve.solve_csc(cls, req["which"], np.array(req["f0"]))
    if kind == "descend_lengths":
        return m.solve.descend_lengths(ctx.dt, req["functional"], np.array(req["l0"]),
                                       normalize=req["normalize"])
    if kind == "yamabe_start":
        cls = m.conformal.ConformalClass(ctx.dt, np.array(req["background"]))
        return m.solve.descend_conformal(cls, req["functional"], np.array(req["f0"]),
                                         max_iter=YAMABE_MAX_ITER)
    if kind == "analyze":
        c, lengths = ctx.c600, np.array(req["lengths"])
        cv = m.curvature
        return (cv.functionals(c, lengths), cv.bounds_report(c, lengths),
                [float(np.abs(cv.einstein_residual(c, lengths, w)).max()) for w in "LV"]
                + [float(np.abs(cv.csc_residual(c, lengths, w)).max()) for w in "LV"])
    if kind == "gradient":
        c, lengths = ctx.c600, np.array(req["lengths"])
        cv = m.curvature
        return ([cv.grad_lengths(c, lengths, w) for w in ("ehr", "lehr", "vehr")],
                [cv.grad_conformal(c, lengths, w) for w in ("ehr", "lehr", "vehr")])
    if kind == "newton_csc":
        cls = m.conformal.ConformalClass(ctx.c600, np.ones(ctx.c600.num_edges))
        return m.solve.solve_csc(cls, "L", np.array(req["f0"]))
    if kind == "spectrum":
        lengths = np.full(ctx.c600.num_edges, req["scale"])
        H = m.curvature.lehr_conformal_hessian_csc(ctx.c600, lengths)
        return H, m.solve.eig_sym(H)
    if kind == "criterion":
        return m.reproduce.ALL_CRITERIA[req["number"] - 1]()
    raise ValueError(f"unknown request kind {kind!r}")


# ---------------------------------------------------------------------------
# correctness checks (outside the timed interval)


def _close(a, b, rel=0.0, abs_=0.0) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def _hessian_column(name) -> bool:
    return "_lam" in name or "_spec" in name


def _check_sweep_row(req, row):
    t = req["t"]
    if row["admissible"] != 1:
        return "row-flagged-inadmissible"
    if not all(math.isfinite(v) for v in row.values()):
        return "row-not-finite"
    # two isosceles tetrahedra with opposite edge pairs (t, 1, 1): the
    # closed form sqrt((a²+b²-c²)(a²-b²+c²)(-a²+b²+c²) / 72) per tetrahedron
    vol = 2.0 * math.sqrt(t ** 4 * (2.0 - t * t) / 72.0)
    if not (_close(row["length"], 2 * t + 4, rel=1e-12)
            and _close(row["volume"], vol, rel=1e-9)
            and _close(row["min_cm3"], 288.0 * (vol / 2) ** 2, rel=1e-8)
            and _close(row["ehr"], row["lehr"] * row["length"], rel=1e-10)
            and _close(row["ehr"], row["vehr"] * row["volume"] ** (1 / 3), rel=1e-10)):
        return "closed-form-scalars"
    # every metric of the family is equihedral, hence csc in both normalizations
    if max(row["csc_res_l"], row["csc_res_v"]) > 1e-10:
        return "equihedral-csc-residual"
    for w in ("lehr", "vehr"):
        spec = [row[f"{w}_spec_{i}"] for i in range(1, 7)]
        for d in ("opp", "pair", "v"):
            lam = row[f"{w}_lam_{d}"]
            # the symmetry directions are exact eigenvectors of the family Hessian
            if min(abs(lam - s) for s in spec) > 1e-6 * max(1.0, abs(lam)):
                return "symmetry-eigenvalue"
    if t == 1.0:
        if max(abs(a - b) for a, b in zip(sorted(row[f"lehr_spec_{i}"] for i in range(1, 7)),
                                          LEHR_EIGS)) > 1e-7:
            return "closed-form-lehr-eigs"
        if max(abs(a - b) for a, b in zip(sorted(row[f"vehr_spec_{i}"] for i in range(1, 7)),
                                          VEHR_EIGS)) > 1e-7:
            return "closed-form-vehr-eigs"
        if abs(row["conf_lehr_lam1"] - CONF_LEHR_AT_1) > 1e-8:
            return "closed-form-conformal"
    if t == 1.3 and abs(row["vehr_lam_v"] - VEHR_LAM_V_AT_1_3) > 1e-4:
        return "closed-form-tstar-eigenvalue"
    golden = GOLDEN["sweep_rows"].get(repr(t))
    if golden is not None:
        for name, ref in golden.items():
            # Hessian columns come from finite differences today; the
            # tolerance also admits an exact analytic Hessian
            ok = _close(row[name], ref, abs_=1e-6 * max(1.0, abs(ref))) \
                if _hessian_column(name) else _close(row[name], ref, rel=1e-10, abs_=1e-13)
            if not ok:
                return "golden-row"
    return None


def _descent_check(ctx, fun, start_lengths, end_lengths):
    if not dt_admissible(end_lengths):
        return "descent-endpoint-inadmissible"
    start = fun(ctx.dt, start_lengths)
    if fun(ctx.dt, end_lengths) > start + 1e-12 * abs(start):
        return "descent-value-increased"
    return None


def _csc_check(ctx, cls, out, which):
    factors, trace = out
    if trace.reason != "converged":
        return "csc-not-converged"
    lengths, ok = cls.apply(factors)
    if not ok:
        return "csc-endpoint-inadmissible"
    res = float(np.abs(ctx.m.curvature.csc_residual(cls.complex, lengths, which)).max())
    return None if res < 1e-9 else "csc-residual"


def check(ctx: Context, req: dict, out):
    kind = req["kind"]
    m = ctx.m
    if kind == "sweep_row":
        return _check_sweep_row(req, out)
    if kind == "solve_csc":
        cls = m.conformal.ConformalClass(ctx.dt, np.array(req["background"]))
        return _csc_check(ctx, cls, out, req["which"])
    if kind == "descend_lengths":
        fun = m.curvature.FUNCTIONALS[req["functional"]]
        return _descent_check(ctx, fun, np.array(req["l0"]), out[0])
    if kind == "yamabe_start":
        fun = m.curvature.FUNCTIONALS[req["functional"]]
        bg = np.array(req["background"])
        return _descent_check(ctx, fun, _dt_induced(bg, np.array(req["f0"])),
                              _dt_induced(bg, out[0]))
    if kind == "analyze":
        rep, bounds, residuals = out
        if not (_close(rep.k_vertex.sum(), rep.ehr, rel=1e-11)
                and _close(rep.l_vertex.sum(), rep.length, rel=1e-12)
                and _close(rep.v_vertex.sum(), 3 * rep.volume, rel=1e-11)):
            return "report-identities"
        if not (bounds.lehr_within_bounds and bounds.vehr_within_bounds):
            return "bounds"
        if not all(math.isfinite(r) for r in residuals):
            return "residuals-not-finite"
        return None
    if kind == "gradient":
        lengths = np.array(req["lengths"])
        (gl_e, gl_l, gl_v), (gc_e, gc_l, gc_v) = out
        # Euler identities: EHR is 1-homogeneous in the lengths, LEHR and
        # VEHR are scale invariant; a uniform factor shift is a rescaling
        if not _close(float(lengths @ gl_e), float(gc_e.sum()), rel=1e-10):
            return "euler-ehr"
        for g in (gl_l, gl_v):
            if abs(float(lengths @ g)) > 1e-10 * float(np.abs(lengths * g).sum()) + 1e-14:
                return "euler-length-gradient"
        for g in (gc_l, gc_v):
            if abs(float(g.sum())) > 1e-10 * float(np.abs(g).sum()) + 1e-14:
                return "euler-conformal-gradient"
        return None
    if kind == "newton_csc":
        cls = m.conformal.ConformalClass(ctx.c600, np.ones(ctx.c600.num_edges))
        return _csc_check(ctx, cls, out, "L")
    if kind == "spectrum":
        H, spec = out
        vals, vecs = spec.eigenvalues, spec.eigenvectors
        scale = float(np.abs(vals).max())
        if float(np.abs(vals - np.linalg.eigh(H)[0]).max()) > 1e-10 * scale:
            return "eigh-eigenvalues"
        if float(np.abs(H @ vecs - vecs * vals).max()) > 1e-9 * scale:
            return "eigenpair-residual"
        if float(np.abs(vecs.T @ vecs - np.eye(len(vals))).max()) > 1e-9:
            return "eigenvectors-orthonormal"
        # the conformal LEHR Hessian is scale invariant: golden spectrum
        golden = GOLDEN["cell600_conformal_lehr_spectrum"]
        if float(np.abs(vals - np.array(golden)).max()) > 1e-9 * scale:
            return "golden-spectrum"
        return None
    if kind == "criterion":
        return None if all(r.passed for r in out) else "criterion-row-failed"
    raise ValueError(f"unknown request kind {kind!r}")
