import numpy as np
import pytest

from regge3 import curvature, solve
from regge3.complexes import double_tetrahedron, six_hundred_cell
from regge3.conformal import ConformalClass, random_equihedral_lengths
from regge3.conformal import induced_lengths
from regge3.curvature import (bounds_report, conformal_hessian, conformal_hessian_fd,
                              csc_jacobian, csc_residual,
                              edge_curvatures, einstein_residual, functionals,
                              grad_conformal, grad_lengths, gradient_fd, hessian_fd,
                              hessian_fd_lengths, laplacian_matrix,
                              lehr_conformal_hessian_csc, normal_matrix)
from regge3.geometry import InadmissibleMetricError
from regge3.solve import diagonal_family, random_admissible_lengths

ACOS13 = np.arccos(1.0 / 3.0)
K_REGULAR = 2 * np.pi - 2 * ACOS13          # edge curvature of DT at unit lengths
ONES = np.ones(6)


@pytest.fixture(scope="module")
def dt():
    return double_tetrahedron()


@pytest.fixture(scope="module")
def cell600():
    return six_hundred_cell()


@pytest.fixture(scope="module")
def fb_lengths(dt):
    """Induced metric of the non-equihedral csc point over unit background."""
    cls = ConformalClass(dt, ONES)
    f, trace = solve.solve_csc(cls, "L", np.array([-1.0, -1.0, 0.0, 0.0]))
    assert trace.reason == "converged"
    lengths, ok = cls.apply(f)
    assert ok
    return lengths


class TestEdgeCurvatures:
    def test_double_tet_regular(self, dt):
        assert edge_curvatures(dt, ONES) == pytest.approx(np.full(6, K_REGULAR),
                                                          abs=1e-13)
        assert K_REGULAR == pytest.approx(3.82127, abs=5e-6)

    def test_positive_for_any_metric(self, dt):
        rng = np.random.default_rng(20)
        for _ in range(50):
            l = random_admissible_lengths(dt, rng)
            assert np.all(edge_curvatures(dt, l) > 0)

    def test_cell600_regular(self, cell600):
        k = edge_curvatures(cell600, np.ones(720))
        expect = 2 * np.pi - 5 * ACOS13
        assert expect == pytest.approx(0.12839, abs=5e-6)
        assert k == pytest.approx(np.full(720, expect), abs=1e-13)

    def test_inadmissible_raises(self, dt):
        with pytest.raises(InadmissibleMetricError):
            edge_curvatures(dt, np.array([1.4143, 1, 1, 1, 1, 1.4143]))


class TestFunctionals:
    def test_regular_values(self, dt):
        rep = functionals(dt, ONES)
        assert rep.lehr == pytest.approx(K_REGULAR, abs=1e-13)
        # independent closed form: 6 K / (sqrt(2)/6)^(1/3)
        vehr_expected = 6 * K_REGULAR / (np.sqrt(2) / 6) ** (1 / 3)
        assert vehr_expected == pytest.approx(37.1168112543, abs=1e-9)
        assert rep.vehr == pytest.approx(vehr_expected, rel=1e-13)

    def test_scale_invariance(self, dt):
        rng = np.random.default_rng(21)
        for _ in range(20):
            l = random_admissible_lengths(dt, rng)
            c = rng.uniform(0.3, 3.0)
            r1, r2 = functionals(dt, l), functionals(dt, c * l)
            assert r2.lehr == pytest.approx(r1.lehr, rel=1e-12)
            assert r2.vehr == pytest.approx(r1.vehr, rel=1e-12)

    @pytest.mark.parametrize("case", ["dt-random", "cell600"])
    def test_report_identities(self, dt, cell600, case):
        if case == "cell600":
            c, l = cell600, np.ones(720)
        else:
            c, l = dt, random_admissible_lengths(dt, np.random.default_rng(22))
        rep = functionals(c, l)
        assert rep.k_vertex.sum() == pytest.approx(rep.ehr, rel=1e-12)
        assert rep.l_vertex.sum() == pytest.approx(rep.length, rel=1e-12)
        assert rep.v_vertex.sum() == pytest.approx(3 * rep.volume, rel=1e-12)
        assert rep.v_edge.sum() == pytest.approx(3 * rep.volume, rel=1e-12)

    def test_serialization_deterministic(self, dt):
        rep = functionals(dt, ONES)
        text = rep.to_text()
        assert text == functionals(dt, ONES).to_text()
        assert "lehr: 3.8212664725" in text


class TestGradients:
    def test_ehr_gradient_at_regular(self, dt):
        g = grad_lengths(dt, ONES, "ehr")
        assert g == pytest.approx(np.full(6, K_REGULAR), abs=1e-13)

    @pytest.mark.parametrize("which", ["lehr", "vehr"])
    def test_normalized_gradients_vanish_at_regular(self, dt, which):
        assert np.abs(grad_lengths(dt, ONES, which)).max() < 1e-13

    @pytest.mark.parametrize("which", ["ehr", "lehr", "vehr"])
    def test_length_gradient_matches_fd(self, dt, which):
        rng = np.random.default_rng(23)
        for _ in range(20):
            l = random_admissible_lengths(dt, rng)
            ga = grad_lengths(dt, l, which)
            gf = gradient_fd(lambda x: curvature.FUNCTIONALS[which](dt, x), l,
                             richardson=True)
            assert np.abs(ga - gf).max() / np.abs(ga).max() < 1e-6

    def test_conformal_ehr_gradient_at_regular(self, dt):
        g = grad_conformal(dt, ONES, "ehr")
        assert g == pytest.approx(np.full(4, 1.5 * K_REGULAR), abs=1e-12)
        assert g[0] == pytest.approx(5.7319, abs=5e-5)

    def test_conformal_lehr_gradient_vanishes_at_regular(self, dt):
        assert np.abs(grad_conformal(dt, ONES, "lehr")).max() < 1e-13

    def test_conformal_vehr_gradient_vanishes_at_equihedral(self, dt):
        rng = np.random.default_rng(24)
        for _ in range(10):
            l = random_equihedral_lengths(rng)
            assert np.abs(grad_conformal(dt, l, "vehr")).max() < 1e-11

    @pytest.mark.parametrize("which", ["ehr", "lehr", "vehr"])
    def test_conformal_gradient_matches_fd(self, dt, which):
        rng = np.random.default_rng(25)
        ev = dt.edge_vertices
        for _ in range(20):
            l = random_admissible_lengths(dt, rng)
            ga = grad_conformal(dt, l, which)

            def obj(f):
                return curvature.FUNCTIONALS[which](
                    dt, np.exp(0.5 * (f[..., ev[:, 0]] + f[..., ev[:, 1]])) * l)

            gf = gradient_fd(obj, np.zeros(4), richardson=True)
            assert np.abs(ga - gf).max() / np.abs(ga).max() < 1e-6


class TestHessianFD:
    def test_quadratic_exact(self):
        rng = np.random.default_rng(26)
        Q = rng.normal(size=(5, 5))
        Q = 0.5 * (Q + Q.T)
        H = hessian_fd(lambda x: 0.5 * np.sum(x @ Q * x, axis=-1), np.zeros(5))
        assert np.abs(H - Q).max() < 1e-8

    def test_quadratic_away_from_origin(self):
        rng = np.random.default_rng(27)
        Q = rng.normal(size=(4, 4))
        Q = 0.5 * (Q + Q.T)
        x0 = rng.normal(size=4)
        H = hessian_fd(lambda x: 0.5 * np.sum(x @ Q * x, axis=-1), x0, richardson=True)
        assert np.abs(H - Q).max() < 1e-7

    def test_lehr_hessian_eigenvalues(self, dt):
        H = hessian_fd_lengths(dt, ONES, "lehr", richardson=True)
        vals = solve.eig_sym(H).eigenvalues
        expect = np.array([-2 * np.sqrt(2) / 3] * 2 + [0.0] + [2 * np.sqrt(2) / 9] * 3)
        assert vals == pytest.approx(np.sort(expect), abs=1e-7)

    def test_vehr_hessian_eigenvalues(self, dt):
        H = hessian_fd_lengths(dt, ONES, "vehr", richardson=True)
        vals = solve.eig_sym(H).eigenvalues
        lam1 = 2 ** (7 / 6) * 3 ** (-2 / 3) * (2 ** 1.5 + 9 * np.pi - 9 * ACOS13)
        lam2 = 2 ** (7 / 6) * 3 ** (1 / 3) * (7 * np.pi - 2 ** 1.5 - 7 * ACOS13)
        assert lam1 == pytest.approx(21.611, abs=5e-4)
        assert lam2 == pytest.approx(34.145, abs=5e-4)
        expect = np.array([0.0] + [lam1] * 3 + [lam2] * 2)
        assert vals == pytest.approx(expect, abs=1e-7)

    def test_scaling_direction_annihilated_at_critical_points(self, dt):
        # tolerance relative to the Hessian scale: FD row sums of the
        # volume-normalized Hessian (entries ~150) carry ~1e-8 absolute noise
        for which in ("lehr", "vehr"):
            H = hessian_fd_lengths(dt, ONES, which, richardson=True)
            assert np.abs(H @ ONES).max() < 1e-8 * max(1.0, np.abs(H).max())

    def test_step_reduction_on_failure(self, dt):
        # function that fails for steps beyond a tight admissibility margin
        calls = {"n": 0}

        def touchy(x):
            calls["n"] += 1
            if np.abs(x).max() > 2e-6:
                raise InadmissibleMetricError("outside")
            return np.sum(x * x, axis=-1)

        H = hessian_fd(touchy, np.zeros(2), step=3e-6)
        assert np.abs(H - 2 * np.eye(2)).max() < 1e-4

    def test_other_errors_are_not_retried(self):
        # only an inadmissible stencil point earns the half-step retry; at
        # half step this function would succeed, so a retry would hide the error
        def broken(x):
            if np.abs(x).max() > 0.75:
                raise RuntimeError("not an admissibility failure")
            return float(x @ x)

        with pytest.raises(RuntimeError):
            hessian_fd(broken, np.zeros(2), step=1.0)


class TestLaplacianAndConformalHessian:
    def test_laplacian_regular_entries(self, dt):
        D = laplacian_matrix(dt, ONES)
        w = 1 / (6 * np.sqrt(2))
        expect = w * (np.ones((4, 4)) - 4 * np.eye(4))
        assert D == pytest.approx(expect, abs=1e-14)

    def test_laplacian_regular_spectrum(self, dt):
        vals = solve.eig_sym(laplacian_matrix(dt, ONES)).eigenvalues
        expect = np.array([-4 / (6 * np.sqrt(2))] * 3 + [0.0])
        assert vals == pytest.approx(expect, abs=1e-13)

    def test_laplacian_rows_sum_to_zero(self, dt):
        rng = np.random.default_rng(28)
        for _ in range(10):
            D = laplacian_matrix(dt, random_admissible_lengths(dt, rng))
            assert np.abs(D.sum(axis=1)).max() < 1e-13
            assert np.abs(D - D.T).max() < 1e-13

    def test_laplacian_nsd_at_equihedral(self, dt):
        rng = np.random.default_rng(29)
        for _ in range(20):
            l = random_equihedral_lengths(rng)
            vals = solve.eig_sym(laplacian_matrix(dt, l)).eigenvalues
            assert vals.max() < 1e-10

    def test_diagonal_dominance_when_duals_nonnegative(self, dt):
        rng = np.random.default_rng(30)
        from regge3.geometry import dual_lengths
        found = 0
        for _ in range(50):
            l = random_admissible_lengths(dt, rng)
            if np.all(dual_lengths(dt, l) >= 0):
                found += 1
                D = laplacian_matrix(dt, l)
                for i in range(4):
                    assert abs(D[i, i]) >= np.sum(np.abs(D[i])) - abs(D[i, i]) - 1e-12
                assert solve.eig_sym(D).eigenvalues.max() < 1e-10
        assert found > 0

    def test_conformal_hessian_regular(self, dt):
        H = lehr_conformal_hessian_csc(dt, ONES)
        vals = solve.eig_sym(H).eigenvalues
        expect = np.array([0.0] + [4 * np.sqrt(2) / 9] * 3)
        assert vals == pytest.approx(expect, abs=1e-12)

    def test_normal_matrix_vanishes_at_regular(self, dt):
        assert np.abs(normal_matrix(dt, ONES)).max() < 1e-13

    @pytest.mark.parametrize("t", [1.0, 1.15, 1.35])
    def test_analytic_matches_fd_on_family(self, dt, t):
        l = diagonal_family(t)
        Ha = lehr_conformal_hessian_csc(dt, l)
        Hf = conformal_hessian_fd(dt, l, "lehr", richardson=True)
        assert np.abs(Ha - Hf).max() < 1e-6

    def test_analytic_matches_fd_at_non_equihedral_csc(self, dt, fb_lengths):
        Ha = lehr_conformal_hessian_csc(dt, fb_lengths)
        Hf = conformal_hessian_fd(dt, fb_lengths, "lehr", richardson=True)
        assert np.abs(Ha - Hf).max() < 1e-6

    def test_gauge_direction_annihilated_at_csc(self, dt, fb_lengths):
        for l in (ONES, diagonal_family(1.3), fb_lengths):
            H = lehr_conformal_hessian_csc(dt, l)
            assert np.abs(H @ np.ones(4)).max() < 1e-8

    def test_precondition_error_names_residual(self, dt):
        l = np.array([1.2, 1, 1, 1, 1, 1])
        with pytest.raises(ValueError, match="residual"):
            lehr_conformal_hessian_csc(dt, l)


def paper_formula(c, lengths):
    """The conformal LEHR Hessian at a csc metric, 4 (-2 Delta + N) / L."""
    return 4.0 * (-2.0 * laplacian_matrix(c, lengths)
                  + normal_matrix(c, lengths)) / float(np.sum(lengths))


class TestExactConformalHessian:
    @pytest.mark.parametrize("which", ["ehr", "lehr", "vehr"])
    def test_matches_fd_on_random_metrics(self, dt, which):
        # lengths in [0.8, 1.2]: next to the admissibility boundary the
        # Richardson oracle's truncation error exceeds its gap to the exact value
        rng = np.random.default_rng(35)
        for _ in range(12):
            l = random_admissible_lengths(dt, rng, 0.8, 1.2)
            Ha = conformal_hessian(dt, l, which)
            Hf = conformal_hessian_fd(dt, l, which, richardson=True)
            assert np.abs(Ha - Hf).max() < 1e-7 * np.abs(Ha).max()
            assert np.abs(Ha - Ha.T).max() == 0.0

    @pytest.mark.parametrize("case", ["unit", "fb", "t1.15", "t1.35", "cell600"])
    def test_matches_paper_formula_at_csc_metrics(self, dt, cell600, fb_lengths, case):
        c, l = {"unit": (dt, ONES), "fb": (dt, fb_lengths),
                "t1.15": (dt, diagonal_family(1.15)), "t1.35": (dt, diagonal_family(1.35)),
                "cell600": (cell600, np.ones(720))}[case]
        H = conformal_hessian(c, l, "lehr")
        assert np.abs(H - paper_formula(c, l)).max() < 1e-14 * max(1.0, np.abs(H).max())
        assert np.abs(lehr_conformal_hessian_csc(c, l) - H).max() == 0.0

    @pytest.mark.parametrize("which", ["lehr", "vehr"])
    def test_scaling_direction_annihilated(self, dt, which):
        # a uniform shift of u rescales the metric; LEHR and VEHR are scale
        # invariant at every metric, csc or not
        rng = np.random.default_rng(36)
        for _ in range(10):
            H = conformal_hessian(dt, random_admissible_lengths(dt, rng), which)
            assert np.abs(H @ np.ones(4)).max() < 1e-12 * np.abs(H).max()

    def test_unknown_functional_rejected(self, dt):
        with pytest.raises(ValueError, match="unknown functional"):
            conformal_hessian(dt, ONES, "nope")

    def test_one_kernel_call_on_cell600(self, cell600, kernel_calls):
        lehr_conformal_hessian_csc(cell600, np.ones(720))
        assert kernel_calls == [(600, 6)]
        conformal_hessian(cell600, np.ones(720), "vehr")
        assert len(kernel_calls) == 2


class TestCscJacobian:
    @pytest.mark.parametrize("which", ["L", "V"])
    def test_matches_central_differences(self, dt, which):
        rng = np.random.default_rng(37)
        h = 1e-6
        for _ in range(10):
            l = random_admissible_lengths(dt, rng, 0.8, 1.2)
            J = csc_jacobian(dt, l, which)
            Jf = np.empty((4, 4))
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                Jf[:, j] = (csc_residual(dt, induced_lengths(dt, l, e), which)
                            - csc_residual(dt, induced_lengths(dt, l, -e), which)) / (2 * h)
            assert np.abs(J - Jf).max() < 1e-7 * np.abs(J).max()

    @pytest.mark.parametrize("which", ["L", "V"])
    def test_gauge_column_is_scaling(self, dt, which):
        # a uniform shift s of f scales the metric by exp(s), and r is
        # 1-homogeneous in the lengths: J 1 = r
        l = random_admissible_lengths(dt, np.random.default_rng(38))
        J = csc_jacobian(dt, l, which)
        assert J @ np.ones(4) == pytest.approx(csc_residual(dt, l, which), abs=1e-12)

    def test_one_kernel_call_on_cell600(self, cell600, kernel_calls):
        l = induced_lengths(cell600, np.ones(720),
                            np.random.default_rng(39).normal(0, 0.02, 120))
        csc_jacobian(cell600, l, "L")
        assert kernel_calls == [(600, 6)]


class TestResiduals:
    def test_regular_is_einstein_both(self, dt):
        assert np.abs(einstein_residual(dt, ONES, "L")).max() < 1e-12
        assert np.abs(einstein_residual(dt, ONES, "V")).max() < 1e-12

    def test_perturbed_not_einstein(self, dt):
        l = np.array([1.2, 1, 1, 1, 1, 1])
        assert np.abs(einstein_residual(dt, l, "L")).max() > 1e-3
        assert np.abs(einstein_residual(dt, l, "V")).max() > 1e-3

    def test_equihedral_csc_both(self, dt):
        rng = np.random.default_rng(31)
        for _ in range(20):
            l = random_equihedral_lengths(rng)
            assert np.abs(csc_residual(dt, l, "L")).max() < 1e-10
            assert np.abs(csc_residual(dt, l, "V")).max() < 1e-10

    def test_rounded_second_csc_point_small_residual(self, dt):
        cls = ConformalClass(dt, ONES)
        lengths, ok = cls.apply(np.array([-1.233, -1.233, 0.0, 0.0]))
        assert ok
        assert np.abs(csc_residual(dt, lengths, "L")).max() < 1e-3

    def test_random_non_equihedral_nonzero(self, dt):
        rng = np.random.default_rng(32)
        l = random_admissible_lengths(dt, rng)
        assert np.abs(csc_residual(dt, l, "L")).max() > 1e-4

    def test_einstein_implies_csc(self, dt):
        rng = np.random.default_rng(33)
        metrics = [ONES, 2.5 * ONES] + [random_admissible_lengths(dt, rng)
                                        for _ in range(10)]
        for l in metrics:
            for which in ("L", "V"):
                if np.abs(einstein_residual(dt, l, which)).max() <= 1e-10:
                    assert np.abs(csc_residual(dt, l, which)).max() <= 1e-9


class TestBounds:
    def test_double_tet_bounds(self, dt):
        b = bounds_report(dt, ONES)
        assert b.max_edge_degree == 2
        assert b.lehr_lower == pytest.approx(0.0, abs=1e-15)
        assert b.lehr_upper == pytest.approx(2 * np.pi)
        assert b.fatness == pytest.approx(np.sqrt(2) / 1296, rel=1e-12)
        assert b.lehr_within_bounds and b.vehr_within_bounds

    def test_lehr_in_range_on_random_metrics(self, dt):
        rng = np.random.default_rng(34)
        for _ in range(100):
            b = bounds_report(dt, random_admissible_lengths(dt, rng))
            assert 0.0 <= b.lehr <= 2 * np.pi
            assert b.lehr_within_bounds

    def test_cell600_lower_bound(self, cell600):
        b = bounds_report(cell600, np.ones(720))
        assert b.lehr_lower == pytest.approx(-3 * np.pi, rel=1e-14)
        assert b.lehr_within_bounds
