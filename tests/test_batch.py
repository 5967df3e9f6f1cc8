"""The leading batch axis over metrics, and the stacked finite-difference stencils."""

import numpy as np
import pytest

from regge3 import curvature, geometry
from regge3.complexes import double_tetrahedron, six_hundred_cell
from regge3.conformal import induced_lengths
from regge3.curvature import (FUNCTIONALS, conformal_hessian_fd, ehr_value, gradient_fd,
                              hessian_fd, hessian_fd_lengths, lehr_value, vehr_value)
from regge3.geometry import InadmissibleMetricError
from regge3.solve import diagonal_family, random_admissible_lengths


@pytest.fixture(scope="module")
def dt():
    return double_tetrahedron()


@pytest.fixture(scope="module")
def cell600():
    return six_hundred_cell()


@pytest.fixture(scope="module")
def dt_stack(dt):
    rng = np.random.default_rng(41)
    return np.array([random_admissible_lengths(dt, rng) for _ in range(24)])


@pytest.fixture(scope="module")
def cell600_stack():
    rng = np.random.default_rng(42)
    return 1.0 + 0.02 * rng.uniform(-1.0, 1.0, size=(3, 720))


def _hessian_fd_loop(fun, x, richardson=False):
    """The one-point-per-call central-difference stencil of a scalar ``fun``,
    kept as the oracle of ``hessian_fd`` (default steps, half-step retry)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    eps = np.finfo(float).eps
    h = (eps ** (1.0 / 6.0) if richardson else eps ** (1.0 / 3.0)) * np.maximum(np.abs(x), 1.0)

    def stencil(hvec):
        H = np.empty((n, n))
        f0 = fun(x)
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = hvec[i]
            H[i, i] = (fun(x + ei) - 2.0 * f0 + fun(x - ei)) / hvec[i] ** 2
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = hvec[j]
                H[i, j] = H[j, i] = (fun(x + ei + ej) - fun(x + ei - ej)
                                     - fun(x - ei + ej) + fun(x - ei - ej)) \
                    / (4.0 * hvec[i] * hvec[j])
        return H

    def build(hvec):
        if not richardson:
            return stencil(hvec)
        return (4.0 * stencil(hvec) - stencil(2.0 * hvec)) / 3.0

    try:
        H = build(h)
    except InadmissibleMetricError:
        H = build(0.5 * h)
    return 0.5 * (H + H.T)


class TestBatchEqualsLoop:
    @pytest.mark.parametrize("stack", ["dt_stack", "cell600_stack"])
    def test_value_functions(self, request, stack):
        c = request.getfixturevalue("dt" if stack == "dt_stack" else "cell600")
        ls = request.getfixturevalue(stack)
        for fun in (ehr_value, lehr_value):
            batch = fun(c, ls)
            assert batch.shape == (len(ls),)
            assert np.array_equal(batch, [fun(c, l) for l in ls])
        loop = np.array([vehr_value(c, l) for l in ls])
        assert np.abs(vehr_value(c, ls) / loop - 1.0).max() <= 1e-15

    def test_single_metric_gives_a_scalar(self, dt):
        for fun in (ehr_value, lehr_value, vehr_value):
            value = fun(dt, np.ones(6))
            assert isinstance(value, np.float64) and np.ndim(value) == 0

    def test_nested_batch_axes(self, dt, dt_stack):
        ls = dt_stack.reshape(4, 6, 6)
        assert np.array_equal(lehr_value(dt, ls), lehr_value(dt, dt_stack).reshape(4, 6))
        assert dt.tet_lengths(ls).shape == (4, 6, 2, 6)

    @pytest.mark.parametrize("stack", ["dt_stack", "cell600_stack"])
    def test_tet_lengths_and_edge_sum(self, request, stack):
        c = request.getfixturevalue("dt" if stack == "dt_stack" else "cell600")
        ls = request.getfixturevalue(stack)
        tl = c.tet_lengths(ls)
        assert tl.shape == (len(ls), c.num_tets, 6)
        assert np.array_equal(tl, [c.tet_lengths(l) for l in ls])
        per_tet = np.sin(tl) / tl
        sums = c.edge_sum(per_tet)
        assert sums.shape == (len(ls), c.num_edges)
        assert np.array_equal(sums, [c.edge_sum(p) for p in per_tet])

    @pytest.mark.parametrize("complex_name", ["dt", "cell600"])
    def test_induced_lengths(self, request, complex_name):
        c = request.getfixturevalue(complex_name)
        rng = np.random.default_rng(43)
        background = 1.0 + 0.1 * rng.uniform(size=c.num_edges)
        factors = rng.normal(scale=0.3, size=(20, c.num_vertices))
        batch = induced_lengths(c, background, factors)
        assert batch.shape == (20, c.num_edges)
        assert np.array_equal(batch, [induced_lengths(c, background, f) for f in factors])


class TestStackedStencils:
    def test_lehr_hessian_bitwise_equal_to_the_loop(self, dt, dt_stack):
        for l in list(dt_stack[:8]) + [np.ones(6), diagonal_family(1.3)]:
            loop = _hessian_fd_loop(lambda x: lehr_value(dt, x), l, richardson=True)
            assert np.array_equal(hessian_fd_lengths(dt, l, "lehr"), loop)

    def test_vehr_hessian_matches_the_loop(self, dt, dt_stack):
        # numpy's cube root of a stack need not round like the scalar one;
        # the stencil's 1/h^2 magnifies those last-digit differences
        for l in list(dt_stack[:8]) + [np.ones(6), diagonal_family(1.3)]:
            loop = _hessian_fd_loop(lambda x: vehr_value(dt, x), l, richardson=True)
            assert np.abs(hessian_fd_lengths(dt, l, "vehr") - loop).max() < 1e-8

    def test_length_hessian_is_one_kernel_call(self, dt, kernel_calls):
        hessian_fd_lengths(dt, np.ones(6), "vehr", richardson=True)
        assert kernel_calls == [(146, 2, 6)]

    def test_conformal_hessian_fd_is_one_kernel_call(self, dt, kernel_calls):
        conformal_hessian_fd(dt, np.ones(6), "lehr", richardson=True)
        assert kernel_calls == [(66, 2, 6)]

    def test_gradient_is_one_kernel_call(self, dt, kernel_calls):
        gradient_fd(lambda x: lehr_value(dt, x), np.ones(6), richardson=True)
        assert kernel_calls == [(24, 2, 6)]

    def test_stencil_across_the_boundary_raises_after_the_retry(self, dt, monkeypatch):
        # two attempts at the kernel, each stopped by its admissibility test
        attempts = []
        kernel = geometry.tet_geometry

        def counted(lengths):
            attempts.append(np.shape(lengths))
            return kernel(lengths)

        monkeypatch.setattr(geometry, "tet_geometry", counted)
        with pytest.raises(InadmissibleMetricError):
            hessian_fd_lengths(dt, diagonal_family(1.4142), "lehr")
        assert len(attempts) == 2

    def test_chunks_bound_the_points_per_call(self):
        rng = np.random.default_rng(44)
        Q = rng.normal(size=(64, 64))
        Q = 0.5 * (Q + Q.T)
        sizes = []

        def quadratic(x):
            sizes.append(len(x))
            return 0.5 * np.sum(x @ Q * x, axis=-1)

        H = hessian_fd(quadratic, np.zeros(64))
        assert max(sizes) <= 64 and sum(sizes) == 2 * 64 * 64 + 1
        assert np.abs(H - Q).max() < 1e-8

    @pytest.mark.parametrize("which", ["ehr", "lehr", "vehr"])
    def test_stacked_gradient_equals_the_per_point_calls(self, dt, dt_stack, which):
        fun = FUNCTIONALS[which]
        lengths = gradient_fd(lambda x: fun(dt, x), dt_stack, richardson=True)
        assert lengths.shape == dt_stack.shape
        for l, g in zip(dt_stack, lengths):
            assert g.tobytes() == gradient_fd(lambda x: fun(dt, x), l, richardson=True).tobytes()
        # the conformal objective: every stencil point's factors over its own background
        factors = gradient_fd(lambda f: fun(dt, induced_lengths(dt, dt_stack[:, None, :], f)),
                              np.zeros((len(dt_stack), 4)), richardson=True)
        for l, g in zip(dt_stack, factors):
            one = gradient_fd(lambda f: fun(dt, induced_lengths(dt, l, f)), np.zeros(4),
                              richardson=True)
            assert g.tobytes() == one.tobytes()

    def test_stacked_gradient_is_one_kernel_call(self, dt, dt_stack, kernel_calls):
        gradient_fd(lambda x: lehr_value(dt, x), dt_stack[:20], richardson=True)
        assert kernel_calls == [(20, 24, 2, 6)]

    def test_scalar_only_fun_is_rejected(self):
        with pytest.raises(ValueError, match="fun must map points"):
            gradient_fd(lambda x: float(np.sum(x * x)), np.zeros(3))


class TestEmptyStacks:
    """A stack of no metrics gives empty results instead of raising."""

    @pytest.mark.parametrize("complex_name", ["dt", "cell600"])
    def test_value_functions_and_edge_sum(self, request, complex_name):
        c = request.getfixturevalue(complex_name)
        empty = np.zeros((0, c.num_edges))
        for fun in (ehr_value, lehr_value, vehr_value):
            assert fun(c, empty).shape == (0,)
        assert c.edge_sum(np.zeros((0, c.num_tets, 6))).shape == (0, c.num_edges)
        assert ehr_value(c, np.ones((2, 0, c.num_edges))).shape == (2, 0)

    def test_reports_and_gradient(self, dt, kernel_calls):
        assert curvature._first_admissible(dt, np.zeros((0, 6)), []) == ([], None)
        assert kernel_calls == []
        grad = gradient_fd(lambda x: lehr_value(dt, x), np.zeros((0, 6)), richardson=True)
        assert grad.shape == (0, 6)
