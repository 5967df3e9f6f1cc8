import hashlib
import re
import sys

import numpy as np
import pytest

from regge3 import curvature, geometry, solve
from regge3.complexes import double_tetrahedron, six_hundred_cell
from regge3.conformal import ConformalClass, equihedral_point, induced_lengths
from regge3.curvature import hessian_fd_lengths
from regge3.solve import (bisect_zero, descend_conformal, descend_lengths,
                          diagonal_family, eig_sym, solve_csc, sweep_family,
                          yamabe_constant_estimate)

ONES = np.ones(6)


@pytest.fixture(scope="module")
def dt():
    return double_tetrahedron()


@pytest.fixture(scope="module")
def unit_class(dt):
    return ConformalClass(dt, ONES)


class TestEigSym:
    def test_identity(self):
        spec = eig_sym(np.eye(6))
        assert spec.eigenvalues == pytest.approx(np.ones(6))

    def test_diagonal(self):
        spec = eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert spec.eigenvalues == pytest.approx([1.0, 2.0, 3.0])

    def test_lehr_hessian_table(self, dt):
        spec = eig_sym(hessian_fd_lengths(dt, ONES, "lehr", richardson=True))
        expect = np.sort([-2 * np.sqrt(2) / 3] * 2 + [0.0] + [2 * np.sqrt(2) / 9] * 3)
        assert spec.eigenvalues == pytest.approx(expect, abs=1e-7)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(50)
        for n in (4, 6, 20, 40):
            A = rng.normal(size=(n, n))
            A = 0.5 * (A + A.T)
            spec = eig_sym(A)
            recon = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
            assert np.abs(recon - A).max() < 1e-10 * max(1.0, np.abs(A).max())
            gram = spec.eigenvectors.T @ spec.eigenvectors
            assert np.abs(gram - np.eye(n)).max() < 1e-12
            # residual per pair
            res = A @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
            assert np.abs(res).max() < 1e-10 * max(1.0, np.linalg.norm(A))

    def test_matches_lapack(self):
        rng = np.random.default_rng(51)
        A = rng.normal(size=(30, 30))
        A = 0.5 * (A + A.T)
        assert eig_sym(A).eigenvalues == pytest.approx(np.linalg.eigvalsh(A),
                                                       abs=1e-10)

    def test_non_symmetric_rejected(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            eig_sym(A)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cell", [(0, 0), (0, 1)])
    def test_non_finite_entry_rejected(self, bad, cell):
        # a NaN used to pass the symmetry test and give NaN eigenvalues; an inf warned
        A = np.eye(3)
        A[cell] = A[cell[::-1]] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            eig_sym(A)

    def test_empty_matrix_has_empty_spectrum(self):
        spec = eig_sym(np.zeros((0, 0)))
        assert spec.eigenvalues.shape == (0,) and spec.eigenvectors.shape == (0, 0)

    def test_deterministic(self):
        rng = np.random.default_rng(52)
        A = rng.normal(size=(8, 8))
        A = 0.5 * (A + A.T)
        s1, s2 = eig_sym(A), eig_sym(A.copy())
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


class TestSolveCsc:
    def test_trivial_point_from_zero(self, unit_class):
        f, trace = solve_csc(unit_class, "L", np.zeros(4))
        assert trace.reason == "converged"
        assert np.abs(f).max() < 1e-10
        assert trace.residual_norms[-1] < 1e-10

    def test_second_point_from_depressed_start(self, dt, unit_class):
        f, trace = solve_csc(unit_class, "L", np.array([-1.0, -1.0, 0.0, 0.0]))
        assert trace.reason == "converged"
        assert trace.residual_norms[-1] < 1e-10
        ref = np.array([-1.233, -1.233, 0.0, 0.0])
        assert np.abs((f - f.mean()) - (ref - ref.mean())).max() < 1e-3
        # the endpoint satisfies the csc equation in the chosen normalization
        lengths, ok = unit_class.apply(f)
        assert ok
        assert np.abs(curvature.csc_residual(dt, lengths, "L")).max() < 1e-9

    def test_gauge_constraint_preserved(self, unit_class):
        f0 = np.array([-1.0, -1.0, 0.0, 0.0])
        f, trace = solve_csc(unit_class, "L", f0)
        assert f.sum() == pytest.approx(f0.sum(), abs=1e-9)

    def test_volume_normalization(self, dt, unit_class):
        f, trace = solve_csc(unit_class, "V", np.zeros(4))
        assert trace.reason == "converged"
        lengths, _ = unit_class.apply(f)
        assert np.abs(curvature.csc_residual(dt, lengths, "V")).max() < 1e-9

    def test_equihedral_class_converges_to_closed_form(self, dt):
        cls = ConformalClass(dt, np.array([1, 1, 1, 1, 1, 1.2]))
        f, trace = solve_csc(cls, "L", np.zeros(4))
        assert trace.reason == "converged"
        pt = equihedral_point(cls)
        lengths, _ = cls.apply(f)
        ratio = lengths / pt.lengths
        assert np.abs(ratio / ratio.mean() - 1.0).max() < 1e-8

    def test_inadmissible_start_raises(self, dt):
        cls = ConformalClass(dt, np.array([1.35, 1, 1, 1, 1, 1.35]))
        from regge3.geometry import InadmissibleMetricError
        with pytest.raises(InadmissibleMetricError):
            solve_csc(cls, "L", np.array([0.5, 0.5, 0.0, 0.0]))


    def test_exact_jacobian_kernel_calls_on_cell600(self, kernel_calls, monkeypatch):
        cls = ConformalClass(six_hundred_cell(), np.ones(720))
        applied, checked = [], []
        apply, is_admissible = ConformalClass.apply, geometry.is_admissible

        def counted_apply(self, factors):
            applied.append(factors)
            return apply(self, factors)

        def counted_check(c, lengths):
            checked.append(1)
            return is_admissible(c, lengths)

        monkeypatch.setattr(ConformalClass, "apply", counted_apply)
        monkeypatch.setattr(geometry, "is_admissible", counted_check)
        f, trace = solve_csc(cls, "L", np.random.default_rng(44).normal(0.0, 0.02, 120))
        assert trace.reason == "converged"
        steps = len(trace.step_sizes)
        assert steps >= 2 and all(s == 1.0 for s in trace.step_sizes)
        # one report at the start and one per trial: each accepted trial's
        # report gives the next residual and Jacobian
        assert len(kernel_calls) == steps + 1
        # the factor map and its admissibility check run on the start only
        assert len(applied) == 1 and len(checked) == 1

    def test_blocked_trials_are_rejected_before_the_kernel(self, dt, monkeypatch):
        # backgrounds U(0.7, 1.3) and factors N(0, 0.5): nine trials of this
        # run leave the admissible set; the halving ladder's test rejects them,
        # and the kernel runs on admissible trials only
        rng = np.random.default_rng(3)
        bg = rng.uniform(0.7, 1.3, 6)
        while not geometry.is_admissible(dt, bg):
            bg = rng.uniform(0.7, 1.3, 6)
        f0 = rng.normal(0.0, 0.5, 4)
        raised = []
        kernel = geometry.tet_geometry

        def watched(lengths):
            try:
                return kernel(lengths)
            except geometry.InadmissibleMetricError:
                raised.append(1)
                raise

        monkeypatch.setattr(geometry, "tet_geometry", watched)
        f, trace = solve_csc(ConformalClass(dt, bg), "L", f0)
        assert (trace.reason, len(trace.step_sizes), trace.rejected) == ("converged", 8, 9)
        assert trace.step_sizes == [0.25, 0.0078125, 0.25, 1.0, 1.0, 1.0, 1.0, 1.0]
        assert raised == []

    def test_singular_system_stops_without_a_gradient_step(self, unit_class, monkeypatch):
        # the bordered system of the second iterate is taken to be singular: the start
        # stops there, after its one Newton step, and tests no further point
        systems, lapack = [], solve._lapack

        def singular_second(gufunc, K, rhs):
            systems.append(K.shape)
            if len(systems) == 2:
                raise np.linalg.LinAlgError("Singular matrix")
            return lapack(gufunc, K, rhs)

        monkeypatch.setattr(solve, "_lapack", singular_second)
        f, trace = solve_csc(unit_class, "L", np.array([-1.0, -1.0, 0.0, 0.0]))
        assert (trace.reason, trace.step_sizes, trace.newton_steps) == (
            "singular-jacobian", [0.125], 1)
        assert (trace.points, trace.rejected, len(trace.residual_norms)) == (5, 3, 2)
        assert systems == [(5, 5), (5, 5)] and f.tobytes() == trace.iterates[-1].tobytes()

    def test_zero_newton_step_stalls(self, unit_class):
        # at equal lengths the residual is -8.9e-16 at every vertex, a multiple of 1: the
        # bordered system is well conditioned and its solution is the zero step, along which
        # the merit cannot fall, so the start stalls instead of reporting a singular system
        f, trace = solve_csc(unit_class, "L", tol=1e-300)
        assert (trace.reason, trace.step_sizes, trace.points) == ("stall", [], 1)
        assert 0.0 < trace.residual_norms[-1] < 1e-15 and not f.any()

    # a class and start whose last Newton ladder runs out of rungs, some of them inadmissible
    EXHAUSTED = ([0.7475161463583486, 0.7740964026424981, 0.7671788928091389,
                  0.7364361890438107, 0.7387347391031329, 0.952083333716778],
                 [-0.6311913486016025, -0.644504492967561, -1.449885374481114,
                  1.2006942996321848])

    def test_exhausted_newton_ladder_stops_at_the_boundary(self, dt):
        bg, f0 = self.EXHAUSTED
        f, trace = solve_csc(ConformalClass(dt, np.array(bg)), "L", np.array(f0))
        # every step a Newton step: no gradient search follows the exhausted ladder
        assert trace.reason == "boundary-hit" and trace.rejected > 0
        assert trace.newton_steps == len(trace.step_sizes) > 0
        assert trace.residual_norms[-1] > 1e-3
        assert f.tobytes() == trace.iterates[-1].tobytes()

    def test_convergence_on_the_last_allowed_step(self, unit_class):
        # the tolerance is tested before the iteration budget
        f, trace = solve_csc(unit_class, "L", [-1.0, -1.0, 0.0, 0.0], max_iter=6)
        assert trace.reason == "converged" and len(trace.step_sizes) == 6
        assert trace.residual_norms[-1] < 1e-10
        f, trace = solve_csc(unit_class, "L", [-1.0, -1.0, 0.0, 0.0], max_iter=5)
        assert trace.reason == "max-iters" and len(trace.step_sizes) == 5

    def test_residual_decrease_keeps_newton_from_diverging(self, dt):
        # from this start the full-step iteration wandered off to factors
        # of size 30 and stopped at the iteration limit
        cls = ConformalClass(dt, np.array([
            1.072461827158977, 1.1492733544463127, 0.9346799220373565,
            0.9759565091333174, 0.9788181226006222, 0.9012814834407132]))
        f0 = np.array([-0.15615578932386398, 0.4044383082279229,
                       0.3206851917778312, -0.5689677106818902])
        f, trace = solve_csc(cls, "L", f0)
        assert trace.reason == "converged"
        assert len(trace.step_sizes) <= 20
        lengths, _ = cls.apply(f)
        assert np.abs(curvature.csc_residual(dt, lengths, "L")).max() < 1e-10


class TestIterationBudget:
    """A budget of max_iter <= 0 takes no step: every solver stops at its start."""

    CLASS = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95]
    F0 = [0.3, -0.2, 0.1, -0.2]

    def run(self, dt, solver, max_iter):
        if solver == "descend_lengths":    # 21 steps to the boundary without a budget
            return descend_lengths(dt, "lehr", [1.3, 0.9, 1.1, 0.8, 1.2, 0.7],
                                   max_iter=max_iter)
        cls = ConformalClass(dt, np.array(self.CLASS))    # converges in 5 steps
        if solver == "solve_csc":
            return solve_csc(cls, "L", self.F0, max_iter=max_iter)
        return descend_conformal(cls, "lehr", self.F0, max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [0, -1, -100])
    @pytest.mark.parametrize("solver", ["descend_lengths", "solve_csc", "descend_conformal"])
    def test_no_step_without_a_budget(self, dt, solver, max_iter):
        x, trace = self.run(dt, solver, max_iter)
        assert trace.reason == "max-iters"
        assert trace.step_sizes == [] and len(trace.iterates) == 1
        assert x.tobytes() == trace.iterates[0].tobytes()


def run_descent(evaluate, x0, max_iter=1000):
    """(x, SolveTrace) of ``solve._descend`` from one start, where ``evaluate(x)`` gives a
    point's (value, gradient, at_boundary, newton), or None where x is inadmissible: each
    chunk's points are evaluated up to its first admissible one."""
    def stacked(points, sizes):
        k, found, start = [], [], 0
        for size in sizes:
            chunk = (evaluate(x) for x in points[start:start + size])
            j, p = next(((j, p) for j, p in enumerate(chunk) if p is not None), (size, None))
            k.append(j)
            found += [] if p is None else [p]
            start += size
        # each point's newton callable stands in for its report
        return (k, [p[0] for p in found], [p[2] for p in found],
                np.array([p[1] for p in found]).reshape(len(found), -1), [p[3] for p in found])

    def direction(newton, g):    # the point's Newton direction and its slope g . d
        d = newton and newton()
        return None if d is None else (d, float(g @ d))

    return solve._descend(np.array(x0, dtype=float, ndmin=2), lambda x, owners, sizes: (x, sizes),
                          stacked, direction, max_iter)[0]


class TestDescend:
    def test_quadratic_bowl(self):
        Q = np.diag([1.0, 4.0, 9.0])
        target = np.array([1.0, -2.0, 0.5])

        x, trace = run_descent(lambda x: (0.5 * (x - target) @ Q @ (x - target),
                                          Q @ (x - target), False, None),
                               np.zeros(3), max_iter=4000)
        assert trace.reason in ("converged", "stall")
        assert np.abs(x - target).max() < 1e-8

    def test_exact_newton_direction_converges_in_one_step(self):
        Q = np.diag([1.0, 4.0, 9.0])
        target = np.array([1.0, -2.0, 0.5])
        newton_calls = []

        def evaluate(x):
            g = Q @ (x - target)

            def newton():
                newton_calls.append(x)
                return -np.linalg.solve(Q, g)

            return 0.5 * (x - target) @ g, g, False, newton

        x, trace = run_descent(evaluate, np.zeros(3))
        assert (trace.reason, trace.step_sizes, trace.newton_steps) == ("converged", [1.0], 1)
        assert np.abs(x - target).max() < 1e-15
        # called at the start only: the accepted point is converged
        assert len(newton_calls) == 1

    @pytest.mark.parametrize("shape", [(3,), (5,), (1, 4), (2, 2)])
    def test_conformal_factors_checked_before_any_kernel_call(self, unit_class, kernel_calls,
                                                              shape):
        with pytest.raises(ValueError, match=re.escape(f"expected 4 factors, got shape {shape}")):
            descend_conformal(unit_class, "lehr", np.zeros(shape))
        assert kernel_calls == []

    @pytest.mark.parametrize("shape", [(), (5,), (7,), (3, 5), (2, 2, 6)])
    def test_length_starts_checked_before_any_kernel_call(self, dt, kernel_calls, shape):
        message = f"expected a start (6,) or a stack (S, 6), got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            descend_lengths(dt, "lehr", np.ones(shape))
        assert kernel_calls == []

    @pytest.mark.parametrize("shape", [(6,), (3, 6), (0, 6)])
    def test_unknown_normalization_rejected_before_any_start(self, dt, kernel_calls, shape):
        with pytest.raises(ValueError, match="unknown normalization 'X'"):
            descend_lengths(dt, "lehr", np.ones(shape), normalize="X")
        assert kernel_calls == []

    def test_vehr_descent_returns_equal_lengths(self, dt):
        rng = np.random.default_rng(53)
        l0 = ONES * (1 + 0.01 * rng.uniform(-1, 1, 6))
        lend, trace = descend_lengths(dt, "vehr", l0, normalize="V", max_iter=3000)
        assert trace.reason in ("converged", "stall")
        assert np.abs(lend / lend.mean() - 1.0).max() < 1e-6

    def test_conformal_lehr_descent_returns_constant_factors(self, dt, unit_class):
        rng = np.random.default_rng(54)
        f0 = 0.05 * rng.uniform(-1, 1, 4)
        fend, trace = descend_conformal(unit_class, "lehr", f0, max_iter=3000)
        assert trace.reason in ("converged", "stall")
        assert np.abs(fend - fend.mean()).max() < 1e-6

    def test_lehr_descents_end_at_equal_or_boundary(self, dt):
        rng = np.random.default_rng(55)
        for _ in range(10):
            l0 = solve.random_admissible_lengths(dt, rng)
            lend, trace = descend_lengths(dt, "lehr", l0, normalize="L",
                                          max_iter=800)
            if trace.reason in ("converged", "stall"):
                assert np.abs(lend / lend.mean() - 1.0).max() < 1e-6
            else:
                assert trace.reason == "boundary-hit"

    @pytest.mark.parametrize("kind", ["lengths", "conformal"])
    def test_one_kernel_call_per_evaluated_candidate(self, dt, kind, kernel_calls,
                                                     monkeypatch):
        rng = np.random.default_rng(57)
        l0 = solve.random_admissible_lengths(dt, rng)
        checks = []
        is_admissible, cayley_menger = geometry.is_admissible, geometry.cayley_menger

        def counted_check(c, lengths):
            checks.append(np.shape(lengths))
            return is_admissible(c, lengths)

        def counted_det(lengths):
            checks.append(np.shape(lengths))
            return cayley_menger(lengths)

        raised = []
        kernel = geometry.tet_geometry

        def watched(lengths):
            try:
                return kernel(lengths)
            except geometry.InadmissibleMetricError:
                raised.append(np.shape(lengths))
                raise

        monkeypatch.setattr(geometry, "is_admissible", counted_check)
        monkeypatch.setattr(geometry, "cayley_menger", counted_det)
        monkeypatch.setattr(geometry, "tet_geometry", watched)
        if kind == "lengths":
            _, trace = descend_lengths(dt, "lehr", l0, normalize="L", max_iter=50)
        else:
            _, trace = descend_conformal(ConformalClass(dt, l0), "vehr",
                                         0.1 * rng.normal(size=4), max_iter=50)
        # the start and at least five line-search candidates were tested
        assert trace.points > 5
        if kind == "lengths":    # it ends against the boundary
            assert trace.rejected > 0
        # one kernel call per admissible point, none on a rejected one (a round's
        # test masks it out), and no separate public admissibility test
        assert len(kernel_calls) == trace.points - trace.rejected
        assert checks == [] and raised == []

    # (reason, steps) and, of the conformal descents, the final value and the endpoint
    @pytest.mark.parametrize("kind, seed, which, expected", [
        ("lengths", 61, "lehr", ("boundary-hit", 21)),
        ("lengths", 62, "vehr", ("stall", 36)),
        ("conformal", 62, "lehr", ("converged", 5, 3.8061744326209053,
                                   [-0.10809488124939734, 0.317563597374347,
                                    0.07100344045560376, -0.2804721565805534])),
        ("conformal", 64, "lehr", ("boundary-hit", 18, 3.7182708425451154,
                                   [-0.34223686703217937, -0.1096343077476646,
                                    0.07930448286559265, 0.3725666919142513])),
    ])
    def test_seeded_descents_keep_their_paths(self, dt, kind, seed, which, expected):
        rng = np.random.default_rng(seed)
        l0 = solve.random_admissible_lengths(dt, rng)
        if kind == "lengths":
            _, trace = descend_lengths(dt, which, l0, normalize="L", max_iter=300)
            assert (trace.reason, len(trace.step_sizes)) == expected
        else:
            f0 = rng.normal(0.0, 0.2, 4)
            fend, trace = descend_conformal(ConformalClass(dt, l0), which,
                                            f0 - f0.mean(), max_iter=300)
            # floats repr exactly, so these compare bit for bit
            assert (trace.reason, len(trace.step_sizes), trace.values[-1],
                    fend.tolist()) == expected

    @pytest.mark.parametrize("seed, which, value, steps_total, end", [
        (61, "lehr", 3.595310340212935, 6.54385339608416,
         [1.2930390340881837, 0.6471008939820962, 1.4326877342965045,
          1.4617740650908821, 0.6236306275211768, 1.3078710068266661]),
        (62, "vehr", 37.11681125433325, 2.25,
         [1.1393273739066505, 1.139327379801796, 1.1393273887777837,
          1.1393273887777837, 1.139327379801796, 1.1393273739066505]),
    ])
    def test_length_descents_take_gradient_steps_only(self, dt, seed, which, value,
                                                       steps_total, end):
        # bit for bit the gradient descent's path: no Newton direction in
        # length space
        rng = np.random.default_rng(seed)
        l0 = solve.random_admissible_lengths(dt, rng)
        lend, trace = descend_lengths(dt, which, l0, normalize="L", max_iter=300)
        assert trace.newton_steps == 0
        assert trace.values[-1] == value
        assert sum(trace.step_sizes) == steps_total
        assert lend.tolist() == end

    def test_conformal_hessian_adds_no_kernel_call(self, dt, kernel_calls, monkeypatch):
        rng = np.random.default_rng(63)
        cls = ConformalClass(dt, solve.random_admissible_lengths(dt, rng))
        hessians = []
        conformal_hessian = curvature.CurvatureReport.conformal_hessian

        def counted_hessian(rep, which):
            before = len(kernel_calls)
            H = conformal_hessian(rep, which)
            hessians.append(len(kernel_calls) - before)
            return H

        monkeypatch.setattr(curvature.CurvatureReport, "conformal_hessian", counted_hessian)
        f0 = rng.normal(0.0, 0.2, 4)
        _, trace = descend_conformal(cls, "lehr", f0 - f0.mean(), max_iter=50)
        assert trace.reason == "converged" and trace.newton_steps > 0
        # one Hessian per iterate short of convergence, each read from the
        # iterate's report: the kernel runs once per admissible point the descent tests
        assert len(hessians) == len(trace.step_sizes)
        assert hessians == [0] * len(hessians)
        assert len(kernel_calls) == trace.points - trace.rejected

    def test_one_gradient_per_conformal_newton_point(self, dt, monkeypatch):
        # the descent reads an accepted point's gradient, and its Hessian reads it again:
        # the report computes it once, so both reads return the same array
        rng = np.random.default_rng(63)
        cls = ConformalClass(dt, solve.random_admissible_lengths(dt, rng))
        reads, hessians = {}, []
        gradient = curvature.CurvatureReport._gradient
        conformal_hessian = curvature.CurvatureReport.conformal_hessian

        def recorded(rep, name, per_vertex):
            g = gradient(rep, name, per_vertex)
            reads.setdefault(id(rep), (rep, []))[1].append(g)
            return g

        def counted_hessian(rep, which):
            hessians.append(rep)
            return conformal_hessian(rep, which)

        monkeypatch.setattr(curvature.CurvatureReport, "_gradient", recorded)
        monkeypatch.setattr(curvature.CurvatureReport, "conformal_hessian", counted_hessian)
        f0 = rng.normal(0.0, 0.2, 4)
        _, trace = descend_conformal(cls, "lehr", f0 - f0.mean(), max_iter=50)
        assert trace.newton_steps > 0 and len(hessians) == len(trace.step_sizes)
        for rep in hessians:
            read = reads[id(rep)][1]
            assert len(read) == 2 and read[0] is read[1]

    @staticmethod
    def assert_rejected_silently(dt, factors):
        # ``solve._descend`` evaluates a round's points alike, the starts and the
        # line-search candidates, one start or several: one admissibility test of
        # the round's stack (``curvature._first_admissible``)
        bg = np.array([1.0725, 1.1493, 0.9347, 0.9760, 0.9788, 0.9013])
        admissible = np.zeros(4)

        def evaluate(f, sizes):    # as descend_conformal evaluates the points of a round
            return curvature._first_points(dt, "lehr", induced_lengths(dt, bg, f), sizes, True)

        for starts in ([factors], [factors, admissible], [admissible, factors]):
            with pytest.raises(geometry.InadmissibleMetricError, match="starting point"):
                solve._descend(np.array(starts), lambda f, owners, sizes: (f, sizes),
                               evaluate, lambda rep, g: None, 10)

    def test_conformal_guard_rejects_overflowing_candidate_silently(self, dt):
        # a long gradient step can reach factors near 709: the lengths are about
        # 1e308, and the kernel's products overflow; the kernel rejects the
        # point without a RuntimeWarning (an error under this suite).  Past 709.78
        # the factor map itself overflows to infinite lengths
        self.assert_rejected_silently(dt, [709.7, 709.7, -709.7, -709.7])
        self.assert_rejected_silently(dt, [720.0, 720.0, -720.0, -720.0])

    def test_conformal_guard_rejects_nan_face_margins_silently(self, dt):
        # three lengths near 9e307 are finite, but their face sums overflow and
        # inf - inf leaves NaN margins: the kernel rejects the point, and the
        # descent passes on no RuntimeWarning
        self.assert_rejected_silently(dt, [709.0, 709.0, 709.0, -2127.0])

    # starts of the multi-start estimate whose parent-gradient descents end at
    # these values; Newton steps without the radius end on the boundary above them
    @pytest.mark.parametrize("background, f0, bound", [
        ([1.0865286110285213, 0.9409584487874935, 0.9860493668441954,
          0.8902125091741494, 0.9709338959341387, 0.9110365722028448],
         [-0.02767805441188309, 0.06134449625480015, 0.7188123296970154,
          -0.7524787715399324], 3.819432245826877),
        ([0.914565450148892, 1.0417994140199762, 1.0915164499435028,
          1.1391012618534913, 0.8951574491263532, 0.9946637164598009],
         [0.16334563014143988, 0.11844145063895975, 0.23321524464725066,
          -0.5150023254276502], 3.803908030185945),
        ([1.1184144523301656, 0.8679271802289534, 0.92164167836632,
          1.0825460845629769, 0.9810550263487948, 0.8515939475882887],
         [0.3345243602986398, -0.099878266068477, 0.3228878267526756,
          -0.5575339209828385], 3.8182909132327847),
    ])
    def test_newton_radius_keeps_starts_in_their_basin(self, dt, background, f0, bound):
        cls = ConformalClass(dt, np.array(background))
        _, trace = descend_conformal(cls, "lehr", np.array(f0), max_iter=400)
        assert trace.reason == "converged"
        assert trace.values[-1] <= bound + 1e-12

    def test_guard_never_violated(self, dt):
        rng = np.random.default_rng(56)
        l0 = solve.random_admissible_lengths(dt, rng)
        lend, trace = descend_lengths(dt, "lehr", l0, normalize="L", max_iter=200)
        from regge3.geometry import is_admissible
        for it in trace.iterates:
            assert is_admissible(dt, it)


def watch_rounds(monkeypatch):
    """The rounds of the descents run after the call: per ``curvature._first_admissible``
    call, one (k, found) per chunk, k its rejected rows and found whether a row was
    admissible."""
    rounds = []
    first_admissible = curvature._first_admissible

    def counted(c, lengths, sizes):
        out = first_admissible(c, lengths, sizes)
        rounds.append([(k, k < size) for k, size in zip(out[0], sizes)])
        return out

    monkeypatch.setattr(curvature, "_first_admissible", counted)
    return rounds


def points_of(rounds):
    """The rows the rounds tested, up to the first admissible row of each ladder, and the
    rejected ones among them."""
    ladders = [ladder for r in rounds for ladder in r]
    return sum(k + found for k, found in ladders), sum(k for k, _ in ladders)


def seeded_starts(dt, seed, count):
    rng = np.random.default_rng(seed)
    return np.array([solve.random_admissible_lengths(dt, rng) for _ in range(count)])


class TestLockstepDescents:
    """A stack of starts descends in lockstep, each start along its own path."""

    def assert_single_paths(self, dt, which, starts, **kwargs):
        ends, traces = descend_lengths(dt, which, starts, **kwargs)
        assert ends.shape == starts.shape and len(traces) == len(starts)
        for start, end, trace in zip(starts, ends, traces):
            x, single = descend_lengths(dt, which, start, **kwargs)
            assert (trace.reason, trace.step_sizes, trace.values, trace.newton_steps) == \
                (single.reason, single.step_sizes, single.values, single.newton_steps)
            assert end.tobytes() == x.tobytes()
        return traces

    def test_criterion_9_starts(self, dt):
        traces = self.assert_single_paths(dt, "lehr", seeded_starts(dt, 424242, 50),
                                          normalize="L", max_iter=800)
        assert {t.reason for t in traces} == {"boundary-hit"}

    @pytest.mark.parametrize("which", ["ehr", "lehr", "vehr"])
    def test_seeded_starts(self, dt, which):
        self.assert_single_paths(dt, which, seeded_starts(dt, 58, 40), normalize="L",
                                 max_iter=300)

    def test_one_kernel_call_per_round(self, dt, kernel_calls, monkeypatch):
        rounds = watch_rounds(monkeypatch)
        starts = seeded_starts(dt, 59, 8)
        singles, calls = [], []
        for start in starts:
            rounds.clear()
            kernel_calls.clear()
            descend_lengths(dt, "lehr", start, normalize="L", max_iter=800)
            singles.append(len(rounds))    # one per ladder the start yields
            calls.append(len(kernel_calls))
        rounds.clear()
        kernel_calls.clear()
        descend_lengths(dt, "lehr", starts, normalize="L", max_iter=800)
        # a round per ladder of the longest start, and a kernel call in each round
        # that finds an admissible row
        assert len(rounds) == max(singles)
        assert len(kernel_calls) <= max(singles) < sum(calls)
        assert kernel_calls[0] == (len(starts), 2, 6)

    def test_a_stack_with_an_inadmissible_start_raises(self, dt):
        starts = seeded_starts(dt, 60, 3)
        starts[1] = diagonal_family(1.5)
        with pytest.raises(geometry.InadmissibleMetricError, match="starting point"):
            descend_lengths(dt, "lehr", starts[1])
        with pytest.raises(geometry.InadmissibleMetricError, match="starting point"):
            descend_lengths(dt, "lehr", starts)

    @pytest.mark.parametrize("which", ["lehr", "vehr"])
    def test_point_counts_are_those_of_single_starts(self, dt, which):
        starts = seeded_starts(dt, 58, 12)
        _, traces = descend_lengths(dt, which, starts, normalize="L", max_iter=300)
        assert sum(t.rejected for t in traces) > 0
        for start, trace in zip(starts, traces):
            _, single = descend_lengths(dt, which, start, normalize="L", max_iter=300)
            assert (trace.points, trace.rejected) == (single.points, single.rejected)

    def test_an_empty_stack_descends_nowhere(self, dt, kernel_calls):
        ends, traces = descend_lengths(dt, "lehr", np.zeros((0, 6)))
        assert ends.shape == (0, 6) and traces == () and kernel_calls == []

    def test_a_stack_of_one_is_the_single_start(self, dt):
        start = seeded_starts(dt, 61, 1)
        ends, traces = descend_lengths(dt, "vehr", start, normalize="L", max_iter=200)
        x, single = descend_lengths(dt, "vehr", start[0], normalize="L", max_iter=200)
        assert ends.shape == (1, 6) and ends[0].tobytes() == x.tobytes()
        assert (traces[0].reason, traces[0].step_sizes, traces[0].values) == \
            (single.reason, single.step_sizes, single.values)
        assert [i.tobytes() for i in traces[0].iterates] == [i.tobytes() for i in single.iterates]


class TestPinnedDescents:
    """Descents pinned bit for bit: reason, steps, points, rejected points, final value and
    endpoint, as a search that tests one candidate per kernel call found them.  Floats repr
    exactly, so these compare bit for bit."""

    def test_lengths_rejecting_candidates_to_the_boundary(self, dt):
        l0 = solve.random_admissible_lengths(dt, np.random.default_rng(70))
        x, t = descend_lengths(dt, "lehr", l0, normalize="L", max_iter=300)
        assert (t.reason, len(t.step_sizes), t.points, t.rejected, t.values[-1], x.tolist()) == (
            "boundary-hit", 15, 61, 45, 3.677313961593062,
            [0.7826999042652738, 1.3439547723389573, 0.9077887945553239, 1.2766037153509073,
             1.340390502298395, 0.8209611951851504])

    def test_volume_gauge_descent_that_completes(self, dt):
        l0 = ONES * (1 + 0.03 * np.random.default_rng(91).uniform(-1, 1, 6))
        x, t = descend_lengths(dt, "vehr", l0, normalize="V", max_iter=300)
        assert (t.reason, len(t.step_sizes), t.points, t.rejected, t.values[-1], x.tolist()) == (
            "stall", 30, 66, 0, 37.11681125433325,
            [1.6188704116528116, 1.6188703954991475, 1.618870413429741, 1.6188704134297411,
             1.6188703954991477, 1.6188704116528116])

    def test_volume_gauge_raises_mid_descent(self, dt, kernel_calls):
        # the gauge cannot scale a candidate with a negative length; the message, and the
        # points evaluated before it, are those of the search testing one at a time
        l0 = solve.random_admissible_lengths(dt, np.random.default_rng(61), 0.97, 1.03)
        with pytest.raises(geometry.InadmissibleMetricError) as raised:
            descend_lengths(dt, "lehr", l0, normalize="V", max_iter=300)
        assert str(raised.value) == "edge lengths must be positive and finite"
        assert len(kernel_calls) == 5

    def test_conformal_descent_with_gradient_fallbacks(self, dt):
        rng = np.random.default_rng(78)
        cls = ConformalClass(dt, solve.random_admissible_lengths(dt, rng))
        f0 = rng.normal(0.0, 0.3, 4)
        f, t = descend_conformal(cls, "lehr", f0 - f0.mean(), max_iter=300)
        assert (t.reason, len(t.step_sizes), t.newton_steps, t.points, t.rejected, t.values[-1],
                f.tolist()) == (
            "converged", 6, 3, 7, 0, 3.8130962273803544,
            [-0.02440492805819425, 0.145696825845475, -0.37009030340434845, 0.24879840561706773])

    def test_a_twelve_start_lockstep_stack(self, dt):
        starts = solve.random_admissible_lengths(dt, np.random.default_rng(58), size=12)
        ends, traces = descend_lengths(dt, "lehr", starts, normalize="L", max_iter=300)
        assert [(t.reason, len(t.step_sizes), t.points, t.rejected) for t in traces] == [
            ("boundary-hit", 16, 64, 47), ("boundary-hit", 15, 63, 47),
            ("boundary-hit", 12, 56, 43), ("boundary-hit", 17, 65, 47),
            ("boundary-hit", 12, 56, 43), ("boundary-hit", 15, 61, 45),
            ("boundary-hit", 13, 57, 43), ("boundary-hit", 17, 66, 48),
            ("boundary-hit", 11, 52, 40), ("boundary-hit", 14, 56, 41),
            ("boundary-hit", 19, 71, 51), ("boundary-hit", 18, 68, 49)]
        assert [t.values[-1] for t in traces] == [
            3.6897120539528374, 3.6996315882000945, 3.7251149730722695, 3.6813715947618753,
            3.6333093868673787, 3.6855829868620553, 3.7343951097978585, 3.6723800719125563,
            3.664846770948763, 3.686584399147356, 3.686640692378864, 3.681743167814645]
        assert hashlib.sha256(ends.tobytes()).hexdigest() == \
            "1ae164e6d89e2d1a06e6d7257a3c1dc5a8d5496eccbc4a6bb9bab8d424bf45d7"

    def test_criterion_9_outcome(self, dt):
        # per start: reason, steps, points, rejected points and final value
        starts = solve.random_admissible_lengths(dt, np.random.default_rng(424242), size=50)
        ends, traces = descend_lengths(dt, "lehr", starts, normalize="L", max_iter=800)
        assert [(t.reason, len(t.step_sizes), t.points, t.rejected, t.values[-1])
                for t in traces] == [
            ("boundary-hit", 15, 63, 47, 3.6827880865802647),
            ("boundary-hit", 16, 64, 47, 3.7116162173927885),
            ("boundary-hit", 16, 62, 45, 3.67481073815729),
            ("boundary-hit", 13, 51, 37, 3.6427427493768754),
            ("boundary-hit", 15, 63, 47, 3.715029847141919),
            ("boundary-hit", 14, 58, 43, 3.671429997827101),
            ("boundary-hit", 17, 66, 48, 3.708134500592609),
            ("boundary-hit", 16, 62, 45, 3.703627097590476),
            ("boundary-hit", 15, 63, 47, 3.6808449242377352),
            ("boundary-hit", 18, 68, 49, 3.711475986419438),
            ("boundary-hit", 12, 56, 43, 3.7224742658779246),
            ("boundary-hit", 14, 61, 46, 3.7094665579773403),
            ("boundary-hit", 13, 57, 43, 3.7029016462962923),
            ("boundary-hit", 16, 63, 46, 3.728163756569199),
            ("boundary-hit", 16, 64, 47, 3.6857180433299894),
            ("boundary-hit", 16, 64, 47, 3.6909255910926304),
            ("boundary-hit", 19, 71, 51, 3.686874683379237),
            ("boundary-hit", 11, 52, 40, 3.7572574392587454),
            ("boundary-hit", 13, 59, 45, 3.697546024549284),
            ("boundary-hit", 14, 59, 44, 3.6629913433560763),
            ("boundary-hit", 17, 64, 46, 3.671206692769799),
            ("boundary-hit", 18, 69, 50, 3.6645878288176763),
            ("boundary-hit", 14, 59, 44, 3.689051086059326),
            ("boundary-hit", 15, 62, 46, 3.6742006697076306),
            ("boundary-hit", 14, 57, 42, 3.700577877481234),
            ("boundary-hit", 17, 66, 48, 3.6875322395687755),
            ("boundary-hit", 17, 66, 48, 3.6493315093939582),
            ("boundary-hit", 15, 61, 45, 3.472868275470055),
            ("boundary-hit", 16, 64, 47, 3.6717565402923094),
            ("boundary-hit", 9, 50, 40, 3.7126135016181405),
            ("boundary-hit", 16, 63, 46, 3.6223619478401643),
            ("boundary-hit", 16, 64, 47, 3.682656410061783),
            ("boundary-hit", 14, 61, 46, 3.6893043362661366),
            ("boundary-hit", 13, 58, 44, 3.6755624580450057),
            ("boundary-hit", 15, 62, 46, 3.691176806084609),
            ("boundary-hit", 13, 56, 42, 3.6355706004868513),
            ("boundary-hit", 16, 62, 45, 3.6778019763602225),
            ("boundary-hit", 14, 60, 45, 3.6851448247745138),
            ("boundary-hit", 16, 64, 47, 3.618943118806589),
            ("boundary-hit", 15, 58, 42, 3.5707534743275224),
            ("boundary-hit", 17, 67, 49, 3.71951184817661),
            ("boundary-hit", 16, 65, 48, 3.6840212293752277),
            ("boundary-hit", 14, 60, 45, 3.7298156232717665),
            ("boundary-hit", 14, 61, 46, 3.690070221910237),
            ("boundary-hit", 12, 56, 43, 3.7372494391734876),
            ("boundary-hit", 12, 55, 42, 3.663146628344364),
            ("boundary-hit", 12, 52, 39, 3.7337089582644474),
            ("boundary-hit", 15, 62, 46, 3.6896190326561307),
            ("boundary-hit", 18, 68, 49, 3.6779217962127895),
            ("boundary-hit", 12, 54, 41, 3.7273018009337444),
        ]
        assert hashlib.sha256(ends.tobytes()).hexdigest() == \
            "aaf908a22945e4805f774a06bd2cb2ca013c2c2d15f1c8ff797cc4c660acffa1"


    def test_a_twelve_start_stack_reversed(self, dt):
        # each start of the stack follows its own path wherever it stands in the stack
        starts = solve.random_admissible_lengths(dt, np.random.default_rng(58), size=12)
        ends, traces = descend_lengths(dt, "lehr", starts, normalize="L", max_iter=300)
        back, back_traces = descend_lengths(dt, "lehr", starts[::-1], normalize="L",
                                            max_iter=300)
        for end, t, end_back, t_back in zip(ends, traces, back[::-1], back_traces[::-1]):
            assert end.tobytes() == end_back.tobytes()
            assert (t.reason, t.step_sizes, t.values, t.residual_norms, t.points, t.rejected) == (
                t_back.reason, t_back.step_sizes, t_back.values, t_back.residual_norms,
                t_back.points, t_back.rejected)
            assert [i.tobytes() for i in t.iterates] == [i.tobytes() for i in t_back.iterates]

    # (background, f0) of the seeded classes of the benchmark's double tetrahedron
    # workload, seeds 1 and 2; each is solved in the L and in the V normalization
    CSC_CLASSES = [
        ([1.0865286110285213, 0.9409584487874935, 0.9860493668441954, 0.8902125091741494,
          0.9709338959341387, 0.9110365722028448],
         [-0.13486348586053443, -0.055263159519370185, -0.14038668526468434, 0.330513330644589]),
        ([1.1384971580991359, 1.06743698223206, 1.0123680566642301, 0.9330673612136112,
          0.8981956026325381, 1.1409776239648397],
         [-0.0746974493156902, 0.5974294777640342, -0.3715283775589645, -0.15120365088937956]),
        ([1.033900990315912, 1.1251893114372706, 0.8618778629992608, 1.0085767789780065,
          0.9878007648656211, 0.8687048737449626],
         [0.17322484944127545, -0.22768499317856103, -0.06444737543935747, 0.11890751917664297]),
        ([1.0028487644564528, 1.0032666653399598, 1.0759090623106533, 0.8943766107354869,
          1.095888015735783, 1.0549860718009771],
         [0.11629221568287072, -0.2254313439041905, 0.23953340944853385, -0.13039428122721408]),
        ([0.8744657852090538, 1.106568092286121, 1.1083850488533005, 1.1129611289249741,
          0.991572915807637, 0.9322145165841155],
         [0.14843075019422614, 0.2140374683120991, -0.16245637091953033, -0.20001184758679494]),
        ([0.914565450148892, 1.0417994140199762, 1.0915164499435028, 1.1391012618534913,
          0.8951574491263532, 0.9946637164598009],
         [-0.08155922199461879, -0.2355455436547478, 0.233371979470401, 0.0837327861789656]),
        ([1.050789189572356, 0.9768354019810384, 1.0399553197822349, 1.1402307857481029,
          1.0549194466928875, 0.9674874499240078],
         [-0.3027669898331644, 0.21735471490681554, 0.02132574928997842, 0.06408652563637048]),
        ([0.9454439801846123, 1.1272650689520471, 0.9912729656247272, 1.0581276526606689,
          0.8821621925360764, 0.8813630675298825],
         [0.04461657823808504, -0.16920639255589437, 0.11568164242367454, 0.008908171894134814]),
        ([1.0433308807616553, 0.9719627193026609, 1.004973458237499, 1.0280330553267718,
          1.1086353954722883, 0.9814558498477375],
         [0.05781902067781608, 0.5253636222829953, -0.24440186996792423, -0.33878077299288717]),
        ([0.951707612394793, 1.006848551177129, 0.9148670173057043, 0.880211080605543,
          0.8615812389762906, 1.0605848429157967],
         [-0.4284941725083353, 0.043180100392897464, 0.36183282499047104, 0.023481247124966857]),
        ([1.1421036309115669, 1.0276186033235093, 1.0797649942645893, 0.972158307543882,
          0.9088509735904815, 0.9015331045245503],
         [-0.07170402768371739, -0.06630891901462063, -0.044262941300909846, 0.18227588799924788]),
        ([0.9851753606655286, 0.9965495719251908, 1.0360817225150687, 1.0012043447204788,
          1.1312029431186903, 1.0751189783089825],
         [-0.10302154421147702, 0.2630038819881729, 0.09664856846711718, -0.25663090624381313]),
    ]

    def test_csc_outcomes(self, dt, unit_class):
        # per solve: reason, steps, points, rejected points and last residual; the seeded
        # classes in L and V, criterion 5's two starts, and a start on the 600-cell
        cases = [(ConformalClass(dt, np.array(bg)), which, np.array(f0))
                 for bg, f0 in self.CSC_CLASSES for which in "LV"]
        cases += [(unit_class, "L", np.zeros(4)),
                  (unit_class, "L", np.array([-1.0, -1.0, 0.0, 0.0])),
                  (ConformalClass(six_hundred_cell(), np.ones(720)), "L",
                   np.random.default_rng(44).normal(0.0, 0.02, 120))]
        runs = [solve_csc(cls, which, f0) for cls, which, f0 in cases]
        assert [(t.reason, len(t.step_sizes), t.points, t.rejected, t.residual_norms[-1])
                for _, t in runs] == [
            ("converged", 5, 6, 0, 1.7763568394002505e-15),
            ("converged", 5, 6, 0, 3.552713678800501e-15),
            ("converged", 7, 11, 3, 8.881784197001252e-16),
            ("converged", 6, 7, 0, 6.217248937900877e-15),
            ("converged", 4, 5, 0, 4.999822778017915e-11),
            ("converged", 4, 5, 0, 5.933031843596837e-13),
            ("converged", 5, 6, 0, 8.881784197001252e-16),
            ("converged", 5, 6, 0, 2.6645352591003757e-15),
            ("converged", 4, 5, 0, 9.769962616701378e-15),
            ("converged", 4, 5, 0, 3.345856924852342e-11),
            ("converged", 5, 6, 0, 5.524469770534779e-13),
            ("converged", 5, 6, 0, 2.6645352591003757e-15),
            ("converged", 4, 5, 0, 4.6638248818453576e-12),
            ("converged", 5, 6, 0, 3.552713678800501e-15),
            ("converged", 4, 5, 0, 6.865619184281968e-13),
            ("converged", 4, 5, 0, 4.0234482412415673e-13),
            ("converged", 5, 7, 0, 1.7763568394002505e-15),
            ("converged", 5, 6, 0, 8.199663170671556e-12),
            ("converged", 5, 6, 0, 1.2887468869848817e-12),
            ("converged", 5, 6, 0, 1.0329515021112456e-12),
            ("converged", 4, 5, 0, 1.7763568394002505e-15),
            ("converged", 4, 5, 0, 1.7763568394002505e-15),
            ("converged", 4, 5, 0, 2.994759995544882e-11),
            ("converged", 4, 5, 0, 1.227373758183603e-11),
            ("converged", 0, 1, 0, 8.881784197001252e-16),
            ("converged", 6, 11, 3, 1.3322676295501878e-15),
            ("converged", 3, 4, 0, 1.567856955375646e-12),
        ]
        assert hashlib.sha256(np.concatenate([f for f, _ in runs]).tobytes()).hexdigest() == \
            "cb87628849ecc8ff03b17c57825892bd23a626f9394b68e8d6ae4cb2bc6988cc"


class TestSolverCounters:
    """``SolveTrace.points`` and ``.rejected`` count the points a solver run tests."""

    def test_criterion_9_totals(self, dt, monkeypatch):
        rounds = watch_rounds(monkeypatch)
        starts = solve.random_admissible_lengths(dt, np.random.default_rng(424242), size=50)
        _, traces = descend_lengths(dt, "lehr", starts, normalize="L", max_iter=800)
        tested, rejected = points_of(rounds)
        assert sum(t.points for t in traces) == tested == 3052
        assert sum(t.rejected for t in traces) == rejected == 2261
        assert sum(len(t.step_sizes) for t in traces) == 741

    @pytest.mark.parametrize("kind", ["lengths", "conformal"])
    def test_single_descents_count_the_guard_outcomes(self, dt, kind, monkeypatch):
        rounds = watch_rounds(monkeypatch)
        rng = np.random.default_rng(57)
        l0 = solve.random_admissible_lengths(dt, rng)
        if kind == "lengths":
            _, trace = descend_lengths(dt, "lehr", l0, normalize="L", max_iter=50)
            assert trace.rejected > 0
        else:
            _, trace = descend_conformal(ConformalClass(dt, l0), "vehr",
                                         0.1 * rng.normal(size=4), max_iter=50)
        # the rows the rounds tested, up to each ladder's first admissible one, and
        # the rejected ones among them
        assert (trace.points, trace.rejected) == points_of(rounds)
        if kind == "lengths":    # rejected rows share the rounds of the rows after them
            assert len(rounds) < trace.points

    def test_csc_counts_its_start_and_trials(self, dt, monkeypatch):
        rounds = watch_rounds(monkeypatch)
        rng = np.random.default_rng(13)
        cls = ConformalClass(dt, solve.random_admissible_lengths(dt, rng))
        f, trace = solve_csc(cls, "L", rng.normal(0.0, 0.6, 4))
        assert trace.reason == "converged" and trace.rejected > 0
        assert (trace.points, trace.rejected) == points_of(rounds)


class TestYamabe:
    def test_unit_class_estimate(self, dt, unit_class):
        est = yamabe_constant_estimate(unit_class, "L", starts=6, seed=7)
        fa_val = curvature.lehr_value(dt, ONES)
        fb, _ = solve_csc(unit_class, "L", np.array([-1.0, -1.0, 0.0, 0.0]))
        lb, _ = unit_class.apply(fb)
        fb_val = curvature.lehr_value(dt, lb)
        assert est.value <= min(fa_val, fb_val) + 1e-9
        assert 0.0 <= est.value <= 2 * np.pi
        assert est.bound_kind == "upper"

    def test_volume_normalization_nonnegative(self, unit_class):
        est = yamabe_constant_estimate(unit_class, "V", starts=4, seed=11)
        assert est.value >= 0.0

    # estimates of gradient-only descents (16 starts, seed = class seed);
    # Newton steps may only lower them
    @pytest.mark.parametrize("class_seed, which, value", [
        (None, "L", 3.8212664724980354), (None, "V", 37.11681125433323),
        (1, "L", 3.815102623441141), (1, "V", 37.35876608953765),
        (2, "L", 3.8193669062171276), (2, "V", 37.18570038393628),
        (3, "L", 3.80133763001707), (3, "V", 37.91195665727268),
        (9, "L", 3.7771982292027784), (9, "V", 38.944482681543356),
        (16, "L", 3.7606036516173873), (16, "V", 40.60522059819491),
    ])
    def test_estimates_no_higher_than_gradient_descents(self, dt, class_seed, which,
                                                        value):
        if class_seed is None:
            background, seed = ONES, 0
        else:
            background = solve.random_admissible_lengths(
                dt, np.random.default_rng(class_seed))
            seed = class_seed
        est = yamabe_constant_estimate(ConformalClass(dt, background), which,
                                       starts=16, seed=seed)
        assert est.value <= value + 1e-12 * value

    def test_totals_add_up_over_starts(self, unit_class, monkeypatch):
        traces = []
        descend = solve.descend_conformal

        def recorded(*args, **kwargs):
            out = descend(*args, **kwargs)
            traces.append(out[1])
            return out

        monkeypatch.setattr(solve, "descend_conformal", recorded)
        est = yamabe_constant_estimate(unit_class, "L", starts=6, seed=7)
        assert len(traces) == sum(reason != "inadmissible-start" for _, reason in est.runs)
        assert est.iterations == sum(len(t.step_sizes) for t in traces)
        assert est.newton_steps == sum(t.newton_steps for t in traces)
        assert 0 < est.newton_steps <= est.iterations

    @pytest.mark.parametrize("which", ["EHR", "ehr", "X"])
    def test_unknown_functional_rejected_before_any_descent(self, unit_class, which,
                                                            monkeypatch):
        def no_descent(*args, **kwargs):
            raise AssertionError("descent started")

        monkeypatch.setattr(solve, "descend_conformal", no_descent)
        with pytest.raises(ValueError, match="unknown functional.*'L' or 'V'"):
            yamabe_constant_estimate(unit_class, which)

    def test_deterministic_for_fixed_seed(self, unit_class):
        e1 = yamabe_constant_estimate(unit_class, "L", starts=4, seed=3)
        e2 = yamabe_constant_estimate(unit_class, "L", starts=4, seed=3)
        assert e1.value == e2.value
        assert e1.runs == e2.runs


class TestBisect:
    def test_linear(self):
        assert bisect_zero(lambda t: t - 2.0, 0.0, 5.0, tol=1e-12) == pytest.approx(2.0)

    def test_no_sign_change_raises(self):
        with pytest.raises(ValueError, match="sign change"):
            bisect_zero(lambda t: 1.0 + t * t, 0.0, 1.0)

    @pytest.mark.parametrize("g", [
        lambda t: np.nan, lambda t: np.inf, lambda t: np.nan if t == 1.0 else -1.0,
        lambda t: -1.0 if t < 0.5 else (1.0 if t == 1.0 else np.nan)],
        ids=["nan", "inf", "nan-at-b", "nan-inside"])
    def test_non_finite_value_raises(self, g):
        # NaN compares unequal to every sign, so it passed the sign-change test and
        # g = nan returned 5.82e-11 as a root
        with pytest.raises(ValueError, match="not finite"):
            bisect_zero(g, 0.0, 1.0)

    def test_tstar(self, dt):
        tstar = solve.find_tstar(dt, bracket=(1.0, 1.3), tol=1e-7)
        assert tstar == pytest.approx(1.26836, abs=1e-4)

    def test_conformal_crossing(self, dt):
        cross = solve.find_conformal_crossing(dt, bracket=(1.0, 1.35), tol=1e-7)
        assert cross == pytest.approx(1.31471, abs=1e-4)


def counted(fn, calls):
    """``fn`` that appends its arguments to ``calls`` on each call."""
    def wrapped(*args):
        calls.append(args)
        return fn(*args)
    return wrapped


class TestBrent:
    # the roots the bisection of the finite-difference eigenvalues found at tol 1e-7, in
    # 25 evaluations each
    BISECTED = {"find_tstar": 1.2683571219444278,
                "find_conformal_crossing": 1.314714187383652}

    @pytest.mark.parametrize("finder, bracket, eigenvalue", [
        ("find_tstar", (1.0, 1.3), "family_direction_eigenvalue"),
        ("find_conformal_crossing", (1.0, 1.35), "conformal_direction_eigenvalue")])
    def test_paper_crossings_in_at_most_ten_evaluations(self, dt, monkeypatch, finder,
                                                        bracket, eigenvalue):
        calls = []
        monkeypatch.setattr(solve, eigenvalue, counted(getattr(solve, eigenvalue), calls))
        root = getattr(solve, finder)(dt, bracket=bracket, tol=1e-7)
        assert len(calls) <= 10
        assert abs(root - self.BISECTED[finder]) < 1e-7

    def test_step_function_converges_by_bisection(self):
        # interpolation between values of equal size lands anywhere in the bracket; the
        # bisection fallback still shrinks it to tol around the jump
        calls = []
        g = counted(lambda t: -1.0 if t < 1.2 else 1.0, calls)
        root = bisect_zero(g, 1.0, 1.3, tol=1e-9)
        assert abs(root - 1.2) <= 1e-9 and len(calls) <= 60

    def test_flat_cubic_root_to_tol(self):
        # interpolation from one end crawls towards a flat root; a bisection step after
        # two steps that each left more than half the bracket bounds the evaluations
        # (49 and 82 without it, 22 and 36 by bisection alone)
        for tol, evaluations in ((1e-6, 30), (1e-10, 75)):
            calls = []
            root = bisect_zero(counted(lambda t: (t - 1.2) ** 3, calls), 1.0, 1.5, tol=tol)
            assert abs(root - 1.2) <= tol and len(calls) <= evaluations

    @pytest.mark.parametrize("a, b", [(1.2, 2.0), (0.0, 1.2)])
    def test_endpoint_root_after_two_evaluations(self, a, b):
        calls = []
        assert bisect_zero(counted(lambda t: t - 1.2, calls), a, b) == 1.2
        assert calls == [(a,), (b,)]

    @pytest.mark.parametrize("max_iter", [0, 1, 5])
    def test_max_iter_bounds_the_evaluations(self, max_iter):
        calls = []
        root = bisect_zero(counted(lambda t: -1.0 if t < 1.2 else 1.0, calls), 1.0, 1.3,
                           tol=1e-12, max_iter=max_iter)
        assert len(calls) == 2 + max_iter and 1.0 <= root <= 1.3


class TestFamilyStructure:
    def test_lemma_directions_at_t1(self, dt):
        # at the critical point the six second-derivative samples determine
        # the spectrum through the symmetry directions
        for which in ("lehr", "vehr"):
            H = hessian_fd_lengths(dt, ONES, which, richardson=True)
            a, b = H[0, 1], H[0, 0]
            c, d = H[1, 2], H[1, 1]
            e, f = H[0, 5], H[1, 4]
            vals = eig_sym(H).eigenvalues
            for lam in (b - e, d - f, -4 * c - 2 * a):
                assert np.abs(vals - lam).min() < 1e-6
            assert np.abs(vals).min() < 1e-6  # scaling nullspace

    @pytest.mark.parametrize("t", [1.15, 1.3])
    def test_symmetry_directions_are_exact_eigenvectors(self, dt, t):
        H = hessian_fd_lengths(dt, diagonal_family(t), "vehr", richardson=True)
        scale = np.abs(H).max()
        for v in (np.array([1.0, 0, 0, 0, 0, -1.0]),
                  np.array([0, 1.0, 0, 0, -1.0, 0]),
                  np.array([0, 1.0, -1.0, -1.0, 1.0, 0])):
            lam = (v @ H @ v) / (v @ v)
            assert np.abs(H @ v - lam * v).max() < 1e-6 * scale

    def test_lam_v_at_1_3(self, dt):
        lam = solve.family_direction_eigenvalue(
            dt, diagonal_family(1.3), "vehr", solve.FAMILY_DIRECTIONS["v"])
        assert lam == pytest.approx(-5.97897, abs=1e-4)

    @pytest.mark.parametrize("t,psd", [(1.1, True), (1.2, True),
                                       (1.3, False), (1.35, False)])
    def test_signature_change_across_tstar(self, dt, t, psd):
        # quadratic form transverse to the scaling direction: positive
        # semidefinite with one-dimensional nullspace below the crossing,
        # mixed signature above
        l = diagonal_family(t)
        H = hessian_fd_lengths(dt, l, "vehr", richardson=True)
        lhat = l / np.linalg.norm(l)
        P = np.eye(6) - np.outer(lhat, lhat)
        vals = eig_sym(P @ H @ P).eigenvalues
        scale = np.abs(vals).max()
        near_zero = np.abs(vals) < 1e-6 * scale
        assert near_zero.sum() == 1
        if psd:
            assert np.all(vals[~near_zero] > 0)
        else:
            assert np.any(vals[~near_zero] < 0) and np.any(vals[~near_zero] > 0)


class TestSweep:
    def test_basic_quantities(self, dt):
        ts = np.linspace(1.0, 1.4142, 60)
        table = sweep_family(dt, diagonal_family, ts,
                             ["ehr", "vehr", "csc_res_l", "csc_res_v"])
        assert table.columns == ["t", "admissible", "ehr", "vehr",
                                 "csc_res_l", "csc_res_v"]
        assert all(row[1] == 1 for row in table.rows)
        # the family is constant scalar curvature everywhere
        assert max(row[4] for row in table.rows) < 1e-10
        assert max(row[5] for row in table.rows) < 1e-10
        # total curvature approaches 8 pi; volume normalization blows up
        assert abs(table.rows[-1][2] - 8 * np.pi) < 0.02
        vehr = [row[3] for row in table.rows]
        assert all(b > a for a, b in zip(vehr[-10:], vehr[-9:]))

    def test_scalar_row_costs_one_kernel_call(self, dt, kernel_calls, monkeypatch):
        checked = []
        is_admissible = geometry.is_admissible

        def counted_check(c, lengths):
            checked.append(1)
            return is_admissible(c, lengths)

        monkeypatch.setattr(geometry, "is_admissible", counted_check)
        table = sweep_family(dt, diagonal_family, [1.0, 1.2, 1.5],
                             ["vehr", "ehr", "csc_res_v"])
        assert [row[1] for row in table.rows] == [1, 1, 0]
        # the reports of every row from one kernel call on the admissible rows of the
        # stack, whose one test also decides admissibility: the t = 1.5 row is left out
        assert kernel_calls == [(2, 2, 6)] and checked == []

    def test_conformal_row_builds_one_report(self, dt, kernel_calls):
        # the csc check and the conformal Hessian read the row's report
        sweep_family(dt, diagonal_family, [1.0, 1.2],
                     ["lehr", "csc_res_l", "conf_lehr_lam1", "conf_lehr_lam2"])
        assert kernel_calls == [(2, 2, 6)]

    def test_a_hundred_row_sweep_costs_one_kernel_call(self, dt, kernel_calls):
        table = sweep_family(dt, diagonal_family, np.linspace(1.0, 1.4142, 100),
                             ["vehr", "ehr"])
        assert len(table.rows) == 100 and all(row[1] == 1 for row in table.rows)
        assert kernel_calls == [(100, 2, 6)]

    def test_inadmissible_rows_flagged(self, dt):
        table = sweep_family(dt, diagonal_family, [1.0, 1.5],
                             ["ehr"])
        assert table.rows[0][1] == 1
        assert table.rows[1][1] == 0
        assert np.isnan(table.rows[1][2])

    def test_unknown_quantity_rejected(self, dt):
        with pytest.raises(ValueError, match="unknown quantities"):
            sweep_family(dt, diagonal_family, [1.0], ["nope"])

    def test_tracked_spectrum_no_column_swap_across_tstar(self, dt):
        ts = np.linspace(1.2, 1.32, 13)
        cols = [f"vehr_spec_{i}" for i in range(1, 7)]
        table = sweep_family(dt, diagonal_family, ts, cols)
        rows = np.array([row[2:] for row in table.rows])
        # the column that starts at the tracked family eigenvalue
        # lam_v(1.2) ~ 8.60 crosses zero without swapping columns, even
        # though its sorted position changes
        j = int(np.argmin(np.abs(rows[0] - 8.60)))
        tracked_v = rows[:, j]
        assert tracked_v[0] > 0 > tracked_v[-1]
        assert np.abs(np.diff(tracked_v)).max() < 4.0  # varies smoothly
        sorted_pos = [int(np.searchsorted(np.sort(row), row[j])) for row in rows]
        assert sorted_pos[0] != sorted_pos[-1]

    def test_delimited_output(self, dt):
        table = sweep_family(dt, diagonal_family, [1.0, 1.1], ["lehr"])
        text = table.to_delimited()
        lines = text.strip().split("\n")
        assert lines[0] == "t,admissible,lehr"
        assert len(lines) == 3

    def test_conformal_quantities_on_family(self, dt):
        table = sweep_family(dt, diagonal_family, [1.0, 1.35],
                             ["conf_lehr_lam1", "conf_lehr_lam2"])
        lam2_start = table.rows[0][3]
        lam2_end = table.rows[1][3]
        assert lam2_start == pytest.approx(4 * np.sqrt(2) / 9, abs=1e-10)
        assert lam2_end == pytest.approx(-0.238, abs=2e-3)


def _sample_one_row_at_a_time(c, rng, n, low, high):
    """n admissible metrics drawn as one row of uniforms at a time, each tested alone:
    the oracle of the block sampler."""
    rows = []
    while len(rows) < n:
        lengths = rng.uniform(low, high, size=c.num_edges)
        if geometry.is_admissible(c, lengths):
            rows.append(lengths)
    return np.array(rows).reshape(n, c.num_edges)


class TestBlockSampler:
    """``random_admissible_lengths`` draws blocks of rows and keeps the generator's stream."""

    @pytest.mark.parametrize("seed", [0, 7, 777, 2024])
    @pytest.mark.parametrize("bounds", [(0.6, 1.4), (0.8, 1.2), (0.3, 1.7), (0.05, 3.0)])
    @pytest.mark.parametrize("n", [1, 13, 60])
    def test_rows_and_state_equal_the_one_row_loop(self, dt, seed, bounds, n):
        oracle_rng, block_rng, calls_rng = (np.random.default_rng(seed) for _ in range(3))
        oracle = _sample_one_row_at_a_time(dt, oracle_rng, n, *bounds)
        block = solve.random_admissible_lengths(dt, block_rng, *bounds, size=n)
        calls = [solve.random_admissible_lengths(dt, calls_rng, *bounds) for _ in range(n)]
        assert block.shape == (n, 6)
        assert block.tobytes() == oracle.tobytes() == np.array(calls).tobytes()
        assert block_rng.uniform() == oracle_rng.uniform() == calls_rng.uniform()

    def test_one_row_and_empty_stack(self, dt):
        rng = np.random.default_rng(5)
        assert solve.random_admissible_lengths(dt, rng).shape == (6,)
        assert solve.random_admissible_lengths(dt, rng, size=0).shape == (0, 6)

    def test_a_block_costs_one_mask_call(self, dt, monkeypatch):
        masks = []
        admissible = geometry._admissible

        def counted(tets):
            masks.append(np.shape(tets))
            return admissible(tets)

        monkeypatch.setattr(geometry, "_admissible", counted)
        solve.random_admissible_lengths(dt, np.random.default_rng(424242), size=50)
        # 50 rows, then twice the rows still missing, until 50 are admissible
        assert masks[0] == (50, 2, 6) and len(masks) <= 3

    def test_no_admissible_row_raises(self, dt):
        with pytest.raises(RuntimeError, match="failed to sample"):
            solve.random_admissible_lengths(dt, np.random.default_rng(0), -2.0, -1.0, size=3)


def test_no_numpy_wrappers_on_the_dt_hot_path(monkeypatch, dt):
    # the per-call Python of these wrappers is a fixed cost of every evaluation on a small
    # complex; the kernel, the reports, their Hessians and the solvers use ufuncs and methods
    bg = np.array([1.02, 0.97, 1.05, 0.95, 1.01, 0.99])
    cls = ConformalClass(dt, bg)

    def refuse(*args, **kwargs):
        raise AssertionError("numpy wrapper called")

    for name in ("clip", "mean", "block", "outer", "append", "repeat", "cumsum"):
        monkeypatch.setattr(np, name, refuse)
    # both Newton systems call LAPACK through its gufuncs, and every floating-point error
    # scope on the path is made once, at import, but the factor map's in solve_csc's start
    # test
    for name in ("solve", "cholesky"):
        monkeypatch.setattr(np.linalg, name, refuse)
    scopes, errstate = [], np.errstate

    def scope(**kwargs):
        if sys._getframe(1).f_globals["__name__"].startswith("regge3"):
            scopes.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", scope)
    rep = curvature.functionals(dt, bg)
    for which in ("ehr", "lehr", "vehr"):
        rep.conformal_hessian(which)
        rep.csc_jacobian(which)
    assert descend_conformal(cls, "lehr", np.array([0.2, -0.1, 0.0, -0.1]))[1].newton_steps
    assert solve_csc(cls, "L", np.array([0.1, -0.1, 0.05, -0.05]))[1].reason == "converged"
    assert len(descend_lengths(dt, "lehr", bg, max_iter=20)[1].values) > 1
    # halving ladders: a descent that rejects many candidates, and a lockstep stack
    l0 = solve.random_admissible_lengths(dt, np.random.default_rng(70))
    assert descend_lengths(dt, "lehr", l0, normalize="L", max_iter=300)[1].rejected > 20
    starts = solve.random_admissible_lengths(dt, np.random.default_rng(58), size=12)
    assert sum(t.rejected for t in descend_lengths(dt, "lehr", starts, max_iter=300)[1]) > 100
    assert scopes == [{"over": "ignore", "invalid": "ignore"}]
