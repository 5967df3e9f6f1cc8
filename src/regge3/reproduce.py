"""Reference-value reproduction suite.

Each criterion evaluates a quantitative claim about the double
tetrahedron or the 600-cell against its expected value at a fixed
tolerance and reports one or more pass/fail rows.  The CLI ``reproduce``
command and the acceptance test module both run these rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import curvature, geometry, solve
from .complexes import double_tetrahedron, six_hundred_cell
from .conformal import ConformalClass, induced_lengths, random_equihedral_lengths
from .solve import diagonal_family


@dataclass(frozen=True)
class CriterionRow:
    key: str
    tag: str
    description: str
    expected: str
    actual: str
    tolerance: str
    passed: bool


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
    H = curvature.hessian_fd_lengths(dt, np.ones(6), "lehr", richardson=True)
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
    H = curvature.hessian_fd_lengths(dt, np.ones(6), "vehr", richardson=True)
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
    ehr_end = curvature.ehr_value(dt, diagonal_family(1.4142))
    dev = abs(ehr_end - 8 * np.pi)
    ts = np.linspace(1.0, 1.4142, 100)
    table = solve.sweep_family(dt, diagonal_family, ts, ["vehr", "ehr"])
    vehr_col = [row[2] for row in table.rows]
    last10 = vehr_col[-10:]
    increasing = all(b > a for a, b in zip(last10, last10[1:]))
    vehr_1414 = curvature.vehr_value(dt, diagonal_family(1.414))
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
    e_l = float(np.abs(curvature.einstein_residual(dt, ones, "L")).max())
    e_v = float(np.abs(curvature.einstein_residual(dt, ones, "V")).max())
    rng = np.random.default_rng(2024)
    worst_csc = 0.0
    for _ in range(20):
        l = random_equihedral_lengths(rng)
        worst_csc = max(worst_csc,
                        float(np.abs(curvature.csc_residual(dt, l, "L")).max()),
                        float(np.abs(curvature.csc_residual(dt, l, "V")).max()))
    for t in (1.05, 1.15, 1.25, 1.35):
        l = diagonal_family(t)
        worst_csc = max(worst_csc,
                        float(np.abs(curvature.csc_residual(dt, l, "L")).max()),
                        float(np.abs(curvature.csc_residual(dt, l, "V")).max()))
    # Einstein => csc on every test metric
    implication_ok = True
    test_metrics = [ones] + [random_equihedral_lengths(rng) for _ in range(5)] \
        + [solve.random_admissible_lengths(dt, rng) for _ in range(10)]
    for l in test_metrics:
        for which in ("L", "V"):
            if float(np.abs(curvature.einstein_residual(dt, l, which)).max()) <= 1e-10:
                if float(np.abs(curvature.csc_residual(dt, l, which)).max()) > 1e-9:
                    implication_ok = False
    return [
        _row("7a", "equal lengths pass both Einstein residuals",
             0.0, max(e_l, e_v), "< 1e-10", max(e_l, e_v) < 1e-10),
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
    # row j of db is d(beta)/d(l_j), from the stack of l + h e_j and l - h e_j
    worst = 0.0
    for _ in range(20):
        l = solve.random_admissible_lengths(dt, rng)
        h = 1e-6
        e = h * np.eye(6)
        beta = geometry.dihedral_angles(np.concatenate([l + e, l - e]))
        db = (beta[:6] - beta[6:]) / (2 * h)
        worst = max(worst, float(np.abs(db @ l).max()))
    rows.append(_row("8a", "Schlaefli identity sum_e l_e dbeta_e/dl_j = 0 (FD)",
                     0.0, worst, "abs 1e-6", worst < 1e-6))

    # 8b analytic vs FD gradients, both variable spaces
    worst = 0.0
    for which in ("ehr", "lehr", "vehr"):
        for _ in range(20):
            l = solve.random_admissible_lengths(dt, rng)
            ga = curvature.grad_lengths(dt, l, which)
            gf = curvature.gradient_fd(lambda x: curvature.FUNCTIONALS[which](dt, x),
                                       l, richardson=True)
            worst = max(worst, float(np.abs(ga - gf).max() / np.abs(ga).max()))
            ga = curvature.grad_conformal(dt, l, which)

            def conf_obj(f, _l=l, _w=which):
                return curvature.FUNCTIONALS[_w](dt, induced_lengths(dt, _l, f))

            gf = curvature.gradient_fd(conf_obj, np.zeros(4), richardson=True)
            worst = max(worst, float(np.abs(ga - gf).max() / np.abs(ga).max()))
    rows.append(_row("8b", "analytic vs finite-difference gradients (both spaces)",
                     0.0, worst, "rel 1e-6", worst < 1e-6))

    # 8c report identities
    worst = 0.0
    cases = [(dt, solve.random_admissible_lengths(dt, rng)) for _ in range(20)]
    cases.append((six_hundred_cell(), np.ones(720)))
    for c, l in cases:
        rep = curvature.functionals(c, l)
        worst = max(worst,
                    abs(rep.k_vertex.sum() - rep.ehr) / abs(rep.ehr),
                    abs(rep.l_vertex.sum() - rep.length) / rep.length,
                    abs(rep.v_vertex.sum() - 3 * rep.volume) / (3 * rep.volume))
    rows.append(_row("8c", "sum K_v = EHR, sum L_v = L, sum V_v = 3V",
                     0.0, worst, "rel 1e-12", worst < 1e-12))

    # 8d scale invariance
    worst = 0.0
    for _ in range(20):
        l = solve.random_admissible_lengths(dt, rng)
        s = rng.uniform(0.5, 3.0)
        worst = max(worst,
                    abs(curvature.lehr_value(dt, s * l) - curvature.lehr_value(dt, l))
                    / curvature.lehr_value(dt, l),
                    abs(curvature.vehr_value(dt, s * l) - curvature.vehr_value(dt, l))
                    / curvature.vehr_value(dt, l))
    rows.append(_row("8d", "scale invariance of the normalized functionals",
                     0.0, worst, "rel 1e-12", worst < 1e-12))

    # 8e cross-ratio invariance under the factor map
    from .conformal import cross_ratios
    cls = ConformalClass(dt, np.ones(6))
    worst = 0.0
    base = cross_ratios(dt, cls.background)
    for _ in range(20):
        f = rng.normal(0, 0.4, size=4)
        lengths, ok = cls.apply(f)
        if not ok:
            continue
        worst = max(worst, float(np.abs(cross_ratios(dt, lengths) / base - 1.0).max()))
    rows.append(_row("8e", "cross ratios invariant under conformal change",
                     0.0, worst, "rel 1e-12", worst < 1e-12))

    # 8f Laplacian negative semidefinite at random equihedral metrics
    worst = -np.inf
    for _ in range(20):
        l = random_equihedral_lengths(rng)
        spec = solve.eig_sym(curvature.laplacian_matrix(dt, l))
        worst = max(worst, float(spec.eigenvalues.max()))
    rows.append(_row("8f", "Laplacian max eigenvalue at 20 equihedral metrics",
                     "<= 0", worst, "< 1e-10", worst < 1e-10))

    # 8g degree bounds on the length-normalized functional
    ok = True
    worst = (np.inf, -np.inf)
    for _ in range(100):
        l = solve.random_admissible_lengths(dt, rng)
        v = curvature.lehr_value(dt, l)
        worst = (min(worst[0], v), max(worst[1], v))
        ok = ok and (0.0 <= v <= 2 * np.pi)
    rows.append(_row("8g", "0 <= LEHR <= 2pi on 100 random admissible metrics",
                     "[0, 2pi]", f"[{worst[0]:.6f}, {worst[1]:.6f}]", "-", ok))
    return rows


def criterion_9_uniqueness_evidence():
    dt = double_tetrahedron()
    rng = np.random.default_rng(424242)
    violations = 0
    counts = {}
    for _ in range(50):
        l0 = solve.random_admissible_lengths(dt, rng)
        lend, tr = solve.descend_lengths(dt, "lehr", l0, normalize="L", max_iter=800)
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
    ones = np.ones(720)
    k = curvature.edge_curvatures(c, ones)
    expect = 2 * np.pi - 5 * ACOS13
    kdev = float(np.abs(k - expect).max())
    csc = max(float(np.abs(curvature.csc_residual(c, ones, "L")).max()),
              float(np.abs(curvature.csc_residual(c, ones, "V")).max()))
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
        out = ["key,tag,description,expected,actual,tolerance,status"]
        for r in rows:
            desc = r.description.replace(",", ";")
            out.append(f"{r.key},{r.tag},{desc},{r.expected},{r.actual},{r.tolerance},"
                       f"{'pass' if r.passed else 'FAIL'}")
        return "\n".join(out) + "\n"
    out = []
    for r in rows:
        status = "pass" if r.passed else "FAIL"
        out.append(f"[{status}] {r.key} {r.tag}: {r.description}\n"
                   f"       expected {r.expected}  actual {r.actual}  tol {r.tolerance}")
    n_pass = sum(r.passed for r in rows)
    out.append(f"{n_pass}/{len(rows)} criteria passed")
    return "\n".join(out) + "\n"
