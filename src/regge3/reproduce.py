"""Reference-value reproduction suite.

Each criterion evaluates a quantitative claim about the double
tetrahedron or the 600-cell against its expected value at a fixed
tolerance and reports one or more pass/fail rows.  The CLI ``reproduce``
command and the acceptance test module both run these rows.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass

import numpy as np

from . import curvature, geometry, solve
from .complexes import double_tetrahedron, set_fields, six_hundred_cell
from .conformal import ConformalClass, cross_ratios, induced_lengths, random_equihedral_lengths
from .solve import diagonal_family


@dataclass(frozen=True, init=False)
class CriterionRow:
    key: str
    tag: str
    description: str
    expected: str
    actual: str
    tolerance: str
    passed: bool

    def __init__(self, key, tag, description, expected, actual, tolerance, passed):
        set_fields(locals())


_TAGS = {
    "1": "lehr-hessian", "2": "vehr-hessian", "3": "tstar",
    "4": "conformal-hessian", "5": "csc-multiplicity", "6": "unbounded",
    "7": "einstein-csc", "8": "properties", "9": "uniqueness",
    "10": "cell600", "11": "yamabe",
}


def _row(key, description, expected, actual, tolerance, passed) -> CriterionRow:
    def fmt(x):
        if isinstance(x, float):
            return format(x, ".10g")
        return str(x)

    tag = _TAGS[key.rstrip("abcdefg")]
    return CriterionRow(key=key, tag=tag, description=description,
                        expected=fmt(expected), actual=fmt(actual),
                        tolerance=fmt(tolerance), passed=bool(passed))


ACOS13 = np.arccos(1.0 / 3.0)
LEHR_EIGS = np.array([-2 * np.sqrt(2) / 3, -2 * np.sqrt(2) / 3, 0.0,
                      2 * np.sqrt(2) / 9, 2 * np.sqrt(2) / 9, 2 * np.sqrt(2) / 9])
VEHR_LAM1 = 2 ** (7 / 6) * 3 ** (-2 / 3) * (2 ** 1.5 + 9 * np.pi - 9 * ACOS13)
VEHR_LAM2 = 2 ** (7 / 6) * 3 ** (1 / 3) * (7 * np.pi - 2 ** 1.5 - 7 * ACOS13)
VEHR_EIGS = np.array([0.0, VEHR_LAM1, VEHR_LAM1, VEHR_LAM1, VEHR_LAM2, VEHR_LAM2])

#: spanning vectors of the length-space Hessian eigenspaces at equal lengths
EIGENSPACE_VECTORS = {
    "lam1": [np.array([1.0, 0, 0, 0, 0, -1.0]),
             np.array([0, 1.0, 0, 0, -1.0, 0]),
             np.array([0, 0, 1.0, -1.0, 0, 0])],
    "lam2": [np.array([0, 1.0, -1.0, -1.0, 1.0, 0]),
             np.array([1.0, -0.5, -0.5, -0.5, -0.5, 1.0])],
    "null": [np.ones(6)],
}


def _eigenspace_projection_residual(spec: solve.Spectrum, target: float,
                                    vectors, window: float = 1e-3) -> float:
    cols = np.abs(spec.eigenvalues - target) < window
    P = spec.eigenvectors[:, cols]
    worst = 0.0
    for v in vectors:
        u = v / np.linalg.norm(v)
        res = np.linalg.norm(u - P @ (P.T @ u))
        worst = max(worst, res)
    return worst


def criterion_1_lehr_hessian():
    dt = double_tetrahedron()
    H = curvature.functionals(dt, np.ones(6)).length_hessian("lehr")
    spec = solve.eig_sym(H)
    dev = float(np.abs(spec.eigenvalues - LEHR_EIGS).max())
    proj = max(
        _eigenspace_projection_residual(spec, 2 * np.sqrt(2) / 9, EIGENSPACE_VECTORS["lam1"]),
        _eigenspace_projection_residual(spec, -2 * np.sqrt(2) / 3, EIGENSPACE_VECTORS["lam2"]),
        _eigenspace_projection_residual(spec, 0.0, EIGENSPACE_VECTORS["null"]))
    return [
        _row("1a", "length Hessian (length-normalized) eigenvalues at equal lengths",
             "{-2sqrt2/3 x2, 0, 2sqrt2/9 x3}", dev, "abs 1e-7", dev < 1e-7),
        _row("1b", "eigenspaces contain the reference spanning vectors",
             "projection residual 0", proj, "< 1e-6", proj < 1e-6),
    ]


def criterion_2_vehr_hessian():
    dt = double_tetrahedron()
    H = curvature.functionals(dt, np.ones(6)).length_hessian("vehr")
    spec = solve.eig_sym(H)
    dev = float(np.abs(spec.eigenvalues - VEHR_EIGS).max())
    dev1 = abs(spec.eigenvalues[1] - 21.611)
    dev2 = abs(spec.eigenvalues[4] - 34.145)
    return [
        _row("2a", "length Hessian (volume-normalized) eigenvalues vs closed forms",
             f"{VEHR_LAM1:.6f} x3, {VEHR_LAM2:.6f} x2, 0", dev, "abs 1e-7", dev < 1e-7),
        _row("2b", "rounded reference values 21.611 and 34.145",
             "21.611 / 34.145", max(dev1, dev2), "abs 5e-3",
             dev1 < 5e-3 and dev2 < 5e-3),
    ]


def criterion_3_tstar():
    dt = double_tetrahedron()
    tstar = solve.find_tstar(dt, bracket=(1.0, 1.3), tol=1e-7)
    lam13 = solve.family_direction_eigenvalue(
        dt, diagonal_family(1.3), "vehr", solve.FAMILY_DIRECTIONS["v"])
    return [
        _row("3a", "zero crossing t* of the tracked family eigenvalue",
             1.26836, tstar, "abs 1e-4", abs(tstar - 1.26836) < 1e-4),
        _row("3b", "family eigenvalue along (0,1,-1,-1,1,0) at t=1.3",
             -5.97897, lam13, "abs 1e-4", abs(lam13 - (-5.97897)) < 1e-4),
    ]


def criterion_4_conformal_hessian():
    dt = double_tetrahedron()
    spec = solve.eig_sym(curvature.lehr_conformal_hessian_csc(dt, np.ones(6)))
    expected = np.array([0.0] + [4 * np.sqrt(2) / 9] * 3)
    dev = float(np.abs(spec.eigenvalues - expected).max())
    lam2 = solve.conformal_direction_eigenvalue(
        dt, diagonal_family(1.35), solve.CONFORMAL_DIRECTIONS["lam2"])
    cross = solve.find_conformal_crossing(dt, bracket=(1.0, 1.35), tol=1e-7)
    return [
        _row("4a", "conformal Hessian eigenvalues at equal lengths",
             "{0, 4sqrt2/9 x3}", dev, "abs 1e-8", dev < 1e-8),
        _row("4b", "conformal eigenvalue along (1,1,-1,-1) at t=1.35",
             -0.238, lam2, "abs 2e-3", abs(lam2 - (-0.238)) < 2e-3),
        _row("4c", "zero crossing of the conformal eigenvalue",
             1.31471, cross, "abs 1e-4", abs(cross - 1.31471) < 1e-4),
    ]


def criterion_5_csc_multiplicity():
    dt = double_tetrahedron()
    cls = ConformalClass(dt, np.ones(6))
    fa, tra = solve.solve_csc(cls, "L", np.zeros(4))
    fa_res = tra.residual_norms[-1]
    fb, trb = solve.solve_csc(cls, "L", np.array([-1.0, -1.0, 0.0, 0.0]))
    fb_res = trb.residual_norms[-1]
    ref = np.array([-1.233, -1.233, 0.0, 0.0])
    dev = float(np.abs((fb - fb.mean()) - (ref - ref.mean())).max())
    return [
        _row("5a", "first csc point: all-zero factors, residual",
             0.0, fa_res, "< 1e-10", fa_res < 1e-10 and np.abs(fa).max() < 1e-10),
        _row("5b", "second csc point residual", 0.0, fb_res, "< 1e-10", fb_res < 1e-10),
        _row("5c", "second csc point factors vs (-1.233, -1.233, 0, 0), gauge aligned",
             0.0, dev, "abs 1e-3 per component", dev < 1e-3),
    ]


def criterion_6_unboundedness():
    dt = double_tetrahedron()
    # the endpoint, a 100-row sweep of the family and t = 1.414: one kernel call
    ts = np.linspace(1.0, 1.4142, 100)
    stack = curvature._Stack(dt, [diagonal_family(t) for t in (1.4142, *ts, 1.414)])
    ehr_end = float(stack.ehr[0, 0])
    dev = abs(ehr_end - 8 * np.pi)
    vehr = stack.vehr.ravel().tolist()
    last10, vehr_1414 = vehr[-11:-1], vehr[-1]
    increasing = all(b > a for a, b in zip(last10, last10[1:]))
    return [
        _row("6a", "total curvature at t=1.4142 approaches 8*pi",
             float(8 * np.pi), ehr_end, "abs 0.02", dev < 0.02),
        _row("6b", "volume-normalized functional strictly increasing over last 10 samples",
             True, increasing, "monotone", increasing),
        _row("6c", "volume-normalized functional at t=1.414 exceeds 100",
             "> 100", vehr_1414, "> 100", vehr_1414 > 100.0),
    ]


def criterion_7_einstein_csc_structure():
    dt = double_tetrahedron()
    ones = np.ones(6)

    rng = np.random.default_rng(2024)
    metrics = [random_equihedral_lengths(rng) for _ in range(20)] \
        + [diagonal_family(t) for t in (1.05, 1.15, 1.25, 1.35)]
    test_metrics = [ones] + [random_equihedral_lengths(rng) for _ in range(5)] \
        + list(solve.random_admissible_lengths(dt, rng, size=10))
    # one kernel call: equal lengths, then both lists; each residual's max per metric (2, S)
    stack = curvature._Stack(dt, [ones] + metrics + test_metrics)
    einstein, csc = (np.array([np.abs(residual(w)).max(-1) for w in "LV"])
                     for residual in (stack.einstein_residual, stack.csc_residual))
    e_lv = float(einstein[:, 0].max())
    tested = 1 + len(metrics)
    worst_csc = float(csc[:, 1:tested].max())
    # Einstein => csc on every test metric
    implication_ok = not ((einstein[:, tested:] <= 1e-10) & (csc[:, tested:] > 1e-9)).any()
    return [
        _row("7a", "equal lengths pass both Einstein residuals",
             0.0, e_lv, "< 1e-10", e_lv < 1e-10),
        _row("7b", "sampled equihedral metrics pass both csc residuals",
             0.0, worst_csc, "< 1e-10", worst_csc < 1e-10),
        _row("7c", "Einstein implies csc on all test metrics",
             True, implication_ok, "-", implication_ok),
    ]


def criterion_8_property_suites():
    dt = double_tetrahedron()
    rng = np.random.default_rng(777)
    rows = []

    # 8a Schlaefli identity per tet, finite-difference dihedral derivatives:
    # row j of db is d(beta)/d(l_j), from the stack of l + h e_j and l - h e_j;
    # the stacks of all 20 metrics go into one kernel call
    ls = solve.random_admissible_lengths(dt, rng, size=20)
    h = 1e-6
    e = h * np.eye(6)
    beta = geometry.tet_geometry(np.concatenate([ls[:, None] + e, ls[:, None] - e], axis=1))
    db = (beta.dihedrals[:, :6] - beta.dihedrals[:, 6:]) / (2 * h)
    worst = max(float(np.abs(d @ l).max()) for d, l in zip(db, ls))
    rows.append(_row("8a", "Schlaefli identity sum_e l_e dbeta_e/dl_j = 0 (FD)",
                     0.0, worst, "abs 1e-6", worst < 1e-6))

    # 8b analytic vs FD gradients, both variable spaces: the analytic gradients of the 60
    # metrics come from one stack, and per functional the 20 length-space and the 20
    # conformal stencils are one stacked call each
    ls = solve.random_admissible_lengths(dt, rng, size=60).reshape(3, 20, 6)
    stack = curvature._Stack(dt, ls.reshape(60, 6))
    worst = 0.0
    for k, which in enumerate(("ehr", "lehr", "vehr")):
        fun, L, part = curvature.FUNCTIONALS[which], ls[k], slice(20 * k, 20 * k + 20)
        length_fd = curvature.gradient_fd(lambda x: fun(dt, x), L, richardson=True)
        conformal_fd = curvature.gradient_fd(
            lambda f: fun(dt, induced_lengths(dt, L[:, None, :], f)), np.zeros((20, 4)),
            richardson=True)
        for ga, gf in ((stack.grad_lengths(which)[part], length_fd),
                       (stack.grad_conformal(which)[part], conformal_fd)):
            worst = max(worst, float((np.abs(ga - gf).max(-1) / np.abs(ga).max(-1)).max()))
    rows.append(_row("8b", "analytic vs finite-difference gradients (both spaces)",
                     0.0, worst, "rel 1e-6", worst < 1e-6))

    # 8c report identities: a stack's row sums, then the 600-cell's report (criterion 10's)
    worst = 0.0
    for rep in (curvature._Stack(dt, solve.random_admissible_lengths(dt, rng, size=20)),
                curvature.functionals(six_hundred_cell(), np.ones(720))):
        for parts, total in ((rep.k_vertex, rep.ehr), (rep.l_vertex, rep.length),
                             (rep.v_vertex, 3 * rep.volume)):
            worst = max(worst, float((abs(parts.sum(-1, keepdims=True) - total)
                                      / abs(total)).max()))
    rows.append(_row("8c", "sum K_v = EHR, sum L_v = L, sum V_v = 3V",
                     0.0, worst, "rel 1e-12", worst < 1e-12))

    # 8d scale invariance: each metric is drawn before its scale factor, and the 20
    # metrics and their rescalings are one kernel call
    ls, scales = [], []
    for _ in range(20):
        ls.append(solve.random_admissible_lengths(dt, rng))
        scales.append(rng.uniform(0.5, 3.0))
    ls = np.array(ls)
    stack = curvature._Stack(dt, np.concatenate([ls, np.array(scales)[:, None] * ls]))
    worst = max(0.0, *(float((abs(v[20:] - v[:20]) / v[:20]).max())
                       for v in (stack.lehr, stack.vehr)))
    rows.append(_row("8d", "scale invariance of the normalized functionals",
                     0.0, worst, "rel 1e-12", worst < 1e-12))

    # 8e cross-ratio invariance under the factor map; inadmissible images are skipped
    cls = ConformalClass(dt, np.ones(6))
    base = cross_ratios(dt, cls.background)
    lengths = induced_lengths(dt, cls.background,
                              np.array([rng.normal(0, 0.4, size=4) for _ in range(20)]))
    worst = 0.0
    for l in lengths[geometry._admissible(dt.tet_lengths(lengths))]:
        worst = max(worst, float(np.abs(cross_ratios(dt, l) / base - 1.0).max()))
    rows.append(_row("8e", "cross ratios invariant under conformal change",
                     0.0, worst, "rel 1e-12", worst < 1e-12))

    # 8f Laplacian negative semidefinite at random equihedral metrics: one stack (20, 4, 4)
    # and one batched eigh, each matrix's as eig_sym takes it (a Laplacian is exactly
    # symmetric, so eig_sym's symmetrization leaves it as it is)
    laplacians = curvature._Stack(dt, [random_equihedral_lengths(rng) for _ in range(20)]
                                  ).laplacian()
    worst = float(np.linalg.eigh(laplacians)[0].max())
    rows.append(_row("8f", "Laplacian max eigenvalue at 20 equihedral metrics",
                     "<= 0", worst, "< 1e-10", worst < 1e-10))

    # 8g degree bounds on the length-normalized functional
    ok = True
    worst = (np.inf, -np.inf)
    for v in curvature.lehr_value(dt, solve.random_admissible_lengths(dt, rng, size=100)):
        worst = (min(worst[0], v), max(worst[1], v))
        ok = ok and (0.0 <= v <= 2 * np.pi)
    rows.append(_row("8g", "0 <= LEHR <= 2pi on 100 random admissible metrics",
                     "[0, 2pi]", f"[{worst[0]:.6f}, {worst[1]:.6f}]", "-", ok))
    return rows


def criterion_9_uniqueness_evidence():
    dt = double_tetrahedron()
    rng = np.random.default_rng(424242)
    starts = solve.random_admissible_lengths(dt, rng, size=50)
    ends, traces = solve.descend_lengths(dt, "lehr", starts, normalize="L", max_iter=800)
    violations = 0
    counts = {}
    for lend, tr in zip(ends, traces):
        reason = tr.reason
        if reason in ("converged", "stall"):
            at_equal = np.abs(lend / lend.mean() - 1.0).max() < 1e-6
            reason = "interior-critical" if (reason == "converged" and not at_equal) \
                else ("equal-length" if at_equal else reason)
        counts[reason] = counts.get(reason, 0) + 1
        if reason not in ("equal-length", "boundary-hit"):
            violations += 1
    return [
        _row("9", "50 multi-start descents end at equal lengths or the boundary "
             f"(outcomes: {counts})", 0, violations, "0 violations", violations == 0),
    ]


def criterion_10_six_hundred_cell():
    c = six_hundred_cell()
    counts_ok = c.counts() == (120, 720, 1200, 600)
    deg = c.edge_degrees
    rep = curvature.functionals(c, np.ones(720))
    k = rep.k_edge
    expect = 2 * np.pi - 5 * ACOS13
    kdev = float(np.abs(k - expect).max())
    csc = max(float(np.abs(rep.csc_residual(w)).max()) for w in "LV")
    return [
        _row("10a", "600-cell counts (V,E,F,T)", "(120, 720, 1200, 600)",
             str(c.counts()), "exact", counts_ok),
        _row("10b", "all edge degrees equal 5", 5,
             f"[{deg.min()}, {deg.max()}]", "exact",
             deg.min() == 5 and deg.max() == 5),
        _row("10c", "constant edge curvature 2pi - 5 arccos(1/3)",
             float(expect), float(k[0]), "abs 1e-10 (all edges)", kdev < 1e-10),
        _row("10d", "csc residuals in both normalizations",
             0.0, csc, "< 1e-9", csc < 1e-9),
    ]


def criterion_11_yamabe():
    dt = double_tetrahedron()
    cls = ConformalClass(dt, np.ones(6))
    fa_val = curvature.lehr_value(dt, np.ones(6))
    fb, _ = solve.solve_csc(cls, "L", np.array([-1.0, -1.0, 0.0, 0.0]))
    lb, _ = cls.apply(fb)
    fb_val = curvature.lehr_value(dt, lb)
    est = solve.yamabe_constant_estimate(cls, "L", starts=8, seed=7)
    bound = min(fa_val, fb_val)
    ok = est.value <= bound + 1e-9 and est.value >= 0.0
    return [
        _row("11", "Yamabe estimate (upper bound) <= both csc values and >= 0, "
             f"kind={est.bound_kind}", f"<= {bound:.9f}", est.value, "-",
             ok and est.bound_kind == "upper"),
    ]


ALL_CRITERIA = (
    criterion_1_lehr_hessian,
    criterion_2_vehr_hessian,
    criterion_3_tstar,
    criterion_4_conformal_hessian,
    criterion_5_csc_multiplicity,
    criterion_6_unboundedness,
    criterion_7_einstein_csc_structure,
    criterion_8_property_suites,
    criterion_9_uniqueness_evidence,
    criterion_10_six_hundred_cell,
    criterion_11_yamabe,
)

_CRITERIA_BY_NUMBER = {key: fn for key, fn in
                       zip(sorted(_TAGS, key=int), ALL_CRITERIA)}


def run_all(only: str | None = None) -> list[CriterionRow]:
    """Evaluate the criteria; ``only`` selects by key or tag substring.

    A key-shaped filter (digits plus an optional letter, such as "6" or
    "4b") matches row keys only: "6" selects rows 6a-6c, never the 600-cell
    tag.  Any other string selects the criteria whose tag contains it.
    Filtering happens before evaluation, so ``only="tstar"`` runs just
    that criterion.
    """
    key = re.fullmatch(r"(\d+)[a-z]?", only or "")
    rows: list[CriterionRow] = []
    for number, fn in _CRITERIA_BY_NUMBER.items():
        if key:
            if key[1] == number:
                rows.extend(r for r in fn() if r.key.startswith(only))
        elif not only or only in _TAGS[number]:
            rows.extend(fn())
    return rows


def format_rows(rows, delimited: bool = False) -> str:
    if delimited:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("key", "tag", "description", "expected", "actual", "tolerance",
                         "status"))
        writer.writerows((r.key, r.tag, r.description, r.expected, r.actual, r.tolerance,
                          "pass" if r.passed else "FAIL") for r in rows)
        return buf.getvalue()
    out = []
    for r in rows:
        status = "pass" if r.passed else "FAIL"
        out.append(f"[{status}] {r.key} {r.tag}: {r.description}\n"
                   f"       expected {r.expected}  actual {r.actual}  tol {r.tolerance}")
    n_pass = sum(r.passed for r in rows)
    out.append(f"{n_pass}/{len(rows)} criteria passed")
    return "\n".join(out) + "\n"
