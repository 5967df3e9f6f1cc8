import dataclasses
import importlib.util
import sys
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from regge3 import complexes, conformal, curvature, geometry, reproduce, solve
from regge3.complexes import LOCAL_PAIRS, double_tetrahedron, six_hundred_cell
from regge3.conformal import ConformalClass, random_equihedral_lengths
from regge3.conformal import induced_lengths
from regge3.curvature import (bounds_report, conformal_hessian_fd, csc_residual,
                              einstein_residual, functionals,
                              grad_conformal, grad_lengths, gradient_fd, hessian_fd,
                              hessian_fd_lengths, laplacian_matrix,
                              lehr_conformal_hessian_csc, normal_matrix)
from regge3.geometry import InadmissibleMetricError, tet_geometry
from regge3.solve import diagonal_family, random_admissible_lengths

ACOS13 = np.arccos(1.0 / 3.0)
K_REGULAR = 2 * np.pi - 2 * ACOS13          # edge curvature of DT at unit lengths
ONES = np.ones(6)
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


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
        assert functionals(dt, ONES).k_edge == pytest.approx(np.full(6, K_REGULAR),
                                                          abs=1e-13)
        assert K_REGULAR == pytest.approx(3.82127, abs=5e-6)

    def test_positive_for_any_metric(self, dt):
        rng = np.random.default_rng(20)
        for _ in range(50):
            l = random_admissible_lengths(dt, rng)
            assert np.all(functionals(dt, l).k_edge > 0)

    def test_cell600_regular(self, cell600):
        k = functionals(cell600, np.ones(720)).k_edge
        expect = 2 * np.pi - 5 * ACOS13
        assert expect == pytest.approx(0.12839, abs=5e-6)
        assert k == pytest.approx(np.full(720, expect), abs=1e-13)

    def test_inadmissible_raises(self, dt):
        with pytest.raises(InadmissibleMetricError):
            functionals(dt, np.array([1.4143, 1, 1, 1, 1, 1.4143]))


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

    def test_batch_rejected(self, dt):
        # a report is of one metric; the value functions take a batch
        batch = [[1.0] * 6, [1.2, 1, 1, 1, 1, 1.2]]
        with pytest.raises(ValueError, match="lehr_value"):
            functionals(dt, batch)
        with pytest.raises(ValueError, match=r"shape \(6,\)"):
            functionals(dt, np.ones(5))

    def test_peak_memory_on_cell600(self, cell600, kernel_calls):
        # the report keeps only what every caller reads: face areas and
        # circumcentric heights, eager per-tet arrays, took the peak to 722 KB
        first, second = 1.0 + 0.02 * np.random.default_rng(75).standard_normal(
            (2, cell600.num_edges))
        functionals(cell600, first)
        kernel_calls.clear()
        tracemalloc.start()
        try:
            functionals(cell600, second)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the measured call built the second metric's report
        assert kernel_calls == [(600, 6)]
        assert peak <= 600 * 1024

    def test_serialization_deterministic(self, dt):
        rep = functionals(dt, ONES)
        text = rep.to_text()
        assert text == functionals(dt, ONES).to_text()
        assert "lehr: 3.8212664725" in text


class TestSharedReport:
    """``functionals`` keeps the last report it built and returns it for a repeated metric."""

    def test_held_report_is_returned(self, dt, kernel_calls):
        l = random_admissible_lengths(dt, np.random.default_rng(76))
        rep = functionals(dt, l)
        assert functionals(dt, l.copy()) is rep
        assert bounds_report(dt, l).lehr == rep.lehr
        assert kernel_calls == [(2, 6)]

    def test_dropped_report_is_kept_until_another_metric(self, dt, kernel_calls):
        ref = weakref.ref(functionals(dt, ONES))
        assert ref() is not None and functionals(dt, ONES.copy()) is ref()
        functionals(dt, 1.1 * ONES)
        assert ref() is None
        assert kernel_calls == [(2, 6)] * 2

    def test_one_report_retained_on_cell600(self, cell600):
        rng = np.random.default_rng(77)
        first, second = 1.0 + 0.02 * rng.standard_normal((2, cell600.num_edges))
        bounds_report(cell600, first)
        ref = weakref.ref(functionals(cell600, first))
        tracemalloc.start()
        try:
            bounds_report(cell600, second)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # the kept 600-cell report holds 224 KiB; the first was freed before the second was built
        assert current <= 300 * 1024 and ref() is None

    def test_mutated_input_gets_a_new_report(self, dt):
        l = ONES.copy()
        rep = functionals(dt, l)
        l[0] = 1.1
        new = functionals(dt, l)
        assert new is not rep and new.lengths[0] == 1.1
        assert rep.lengths.tolist() == [1.0] * 6

    def test_report_arrays_are_read_only(self, dt):
        rep = functionals(dt, random_admissible_lengths(dt, np.random.default_rng(78)))
        arrays = [getattr(rep, name) for name in ("lengths", "k_edge", "k_vertex", "l_vertex",
                                                  "v_vertex", "v_edge", "dual_length")]
        arrays += [getattr(rep.geometry, f.name) for f in dataclasses.fields(rep.geometry)]
        assert len(arrays) == 13
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0

    def test_gradients_are_writable_copies(self, dt):
        # the report keeps each gradient it computes; a caller gets its own writable copy,
        # and changing that copy changes neither the kept gradient nor a later read
        rep = functionals(dt, random_admissible_lengths(dt, np.random.default_rng(77)))
        for read in (rep.grad_lengths, rep.grad_conformal,
                     lambda w: grad_lengths(dt, rep.lengths, w),
                     lambda w: grad_conformal(dt, rep.lengths, w)):
            for which in ("ehr", "L", "V"):
                g = read(which)
                before = g.copy()
                g *= -1.0
                assert read(which).tobytes() == before.tobytes()

    def test_other_complex_gets_its_own_report(self, dt, kernel_calls):
        # an equal complex that is another object: the constructor returns dt itself
        rep = functionals(dt, ONES)
        other = complexes.parse_complex(complexes.format_complex(dt))
        mine = functionals(other, ONES)
        assert mine is not rep and mine.complex is other
        assert kernel_calls == [(2, 6)] * 2

    def test_analyze_sequence_one_kernel_call_on_cell600(self, cell600, kernel_calls):
        l = 1.0 + 0.02 * np.random.default_rng(79).standard_normal(cell600.num_edges)
        rep, bounds, residuals = (
            functionals(cell600, l), bounds_report(cell600, l),
            [einstein_residual(cell600, l, w) for w in "LV"]
            + [csc_residual(cell600, l, w) for w in "LV"])
        assert bounds.lehr == rep.lehr and len(residuals) == 4
        assert kernel_calls == [(600, 6)]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_cell600_workload_one_kernel_call_per_metric(self, cell600, kernel_calls, seed,
                                                         monkeypatch):
        # the benchmark's 600-cell requests, read and run as tools/digest.py does: each
        # analyze, gradient and spectrum request reads one report of its one metric
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "dont_write_bytecode", True)    # leave perfbench/ as it is
        spec.loader.exec_module(workloads)
        mods = SimpleNamespace(complexes=complexes, geometry=geometry, curvature=curvature,
                               conformal=conformal, solve=solve, reproduce=reproduce)
        ctx = workloads.Context(mods, double_tetrahedron(), cell600)
        calls = {}
        for req in workloads.make_requests("cell600", seed, cell600.edge_vertices.tolist()):
            before = len(kernel_calls)
            workloads.execute(ctx, req)
            calls.setdefault(req["kind"], set()).add(len(kernel_calls) - before)
        assert {kind: calls[kind] for kind in ("analyze", "gradient", "spectrum")} == \
            {"analyze": {1}, "gradient": {1}, "spectrum": {1}}


class TestReportStack:
    """``curvature._first_admissible`` reads the admissible metrics of a stack from one kernel
    call, as a ``curvature._Stack``, and flags the others."""

    @staticmethod
    def first(c, stack):
        return curvature._first_admissible(c, stack, [1] * len(stack))

    def test_rows_equal_functionals_bitwise(self, dt, kernel_calls):
        rng = np.random.default_rng(82)
        stack = np.array([random_admissible_lengths(dt, rng) for _ in range(12)])
        stack[4] = diagonal_family(1.5)
        k, st = self.first(dt, stack)
        assert kernel_calls == [(11, 2, 6)] and k == [0] * 4 + [1] + [0] * 7
        for i, l in enumerate(np.delete(stack, 4, 0)):
            one = functionals(dt, l)
            for name in ("lengths", "k_edge", "k_vertex", "v_vertex", "v_edge", "dual_length"):
                assert getattr(st, name)[i].tobytes() == getattr(one, name).tobytes()
            for f in dataclasses.fields(one.geometry):
                assert getattr(st.geometry, f.name)[i].tobytes() == \
                    getattr(one.geometry, f.name).tobytes()
            assert [st.length[i, 0], st.volume[i, 0], st.ehr[i, 0], st.lehr[i, 0],
                    st.vehr[i, 0]] == [one.length, one.volume, one.ehr, one.lehr, one.vehr]
        with pytest.raises(ValueError, match="read-only"):
            st.lengths[0, 0] = 1.0

    def test_600_cell_rows_equal_functionals_bitwise(self, cell600, kernel_calls):
        stack = 1.0 + 0.02 * np.random.default_rng(1).standard_normal((3, 720))
        k, st = self.first(cell600, stack)
        assert kernel_calls == [(3, 600, 6)] and k == [0, 0, 0]
        for i, l in enumerate(stack):
            one = functionals(cell600, l)
            totals = [(st.length[i, 0], one.length, one.lengths), (st.volume[i, 0], one.volume,
                      one.geometry.volume), (st.ehr[i, 0], one.ehr, one.k_edge)]
            for total, single, terms in totals:
                # pairwise summation: a running sum of these rows differs from it
                assert total == single and np.cumsum(terms)[-1] != single
            assert [st.lehr[i, 0], st.vehr[i, 0]] == [one.lehr, one.vehr]
            for name in ("lengths", "k_edge", "dual_length"):
                assert getattr(st, name)[i].tobytes() == getattr(one, name).tobytes()
            for f in dataclasses.fields(one.geometry):
                assert getattr(st.geometry, f.name)[i].tobytes() == \
                    getattr(one.geometry, f.name).tobytes()
        # the lengths and every kept read; the kernel arrays are the stack's own
        for a in [getattr(st, name) for name in ("lengths", "k_vertex", "l_vertex", "v_vertex",
                                                 "v_edge", "dual_length")]:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0

    def test_one_admissible_metric_is_read_without_a_stack_axis(self, dt, kernel_calls):
        l = random_admissible_lengths(dt, np.random.default_rng(85))
        k, st = self.first(dt, np.array([diagonal_family(1.5), l]))
        assert k == [1, 0] and kernel_calls == [(2, 6)]
        one = functionals(dt, l)
        assert st.lengths.shape == (6,) and [st.length, st.lehr, st.vehr] == \
            [one.length, one.lehr, one.vehr]
        assert st.conformal_hessian("vehr").tobytes() == one.conformal_hessian("vehr").tobytes()

    def test_inadmissible_stack_makes_no_kernel_call(self, dt, kernel_calls):
        # rejected without a RuntimeWarning (an error under this suite)
        stack = np.array([[np.nan] + [1.0] * 5, diagonal_family(1.5), np.full(6, 1e200)])
        assert self.first(dt, stack) == ([1, 1, 1], None)
        assert kernel_calls == []


class TestStackedReads:
    """``curvature._Stack`` reads a stack from one kernel call without a report per metric:
    each row of each read, the Hessians and csc Jacobians too, is bitwise its metric's report
    read."""

    @staticmethod
    def reads(r):
        """Every read of a report or a stack, by name."""
        out = {name: getattr(r, name)
               for name in ("k_vertex", "l_vertex", "v_vertex", "v_edge", "dual_length")}
        for which in ("ehr", "lehr", "vehr"):
            out[f"grad_lengths {which}"] = r.grad_lengths(which)
            out[f"grad_conformal {which}"] = r.grad_conformal(which)
        for which in "LV":
            out[f"einstein_residual {which}"] = r.einstein_residual(which)
            out[f"csc_residual {which}"] = r.csc_residual(which)
        out["laplacian"] = r.laplacian()
        for which in ("ehr", "lehr", "vehr"):
            out[f"conformal_hessian {which}"] = r.conformal_hessian(which)
            out[f"length_hessian {which}"] = r.length_hessian(which)
            out[f"csc_jacobian {which}"] = r.csc_jacobian(which)
        return out

    def check_rows(self, c, stack, kernel_calls):
        st = curvature._Stack(c, stack)
        assert kernel_calls == [(len(stack), c.num_tets, 6)]
        reads = self.reads(st)
        eigenvalues = np.linalg.eigh(reads["laplacian"])[0]    # one batched call
        for i, l in enumerate(stack):
            rep = functionals(c, l)
            assert [st.length[i, 0], st.volume[i, 0], st.ehr[i, 0], st.lehr[i, 0],
                    st.vehr[i, 0]] == [rep.length, rep.volume, rep.ehr, rep.lehr, rep.vehr]
            for name, read in self.reads(rep).items():
                assert reads[name][i].tobytes() == read.tobytes(), name
            assert eigenvalues[i].tobytes() == solve.eig_sym(rep.laplacian()).eigenvalues.tobytes()

    def test_dt_rows_equal_reports_bitwise(self, dt, kernel_calls):
        # numpy's vectorized V^(1/3) is off on some of these rows; the stack's VEHR is not
        self.check_rows(dt, random_admissible_lengths(dt, np.random.default_rng(1), size=200),
                        kernel_calls)

    def test_600_cell_rows_equal_reports_bitwise(self, cell600, kernel_calls):
        stack = 1.0 + 0.02 * np.random.default_rng(2).standard_normal((3, 720))
        self.check_rows(cell600, stack, kernel_calls)

    def test_one_row_stack_is_its_report(self, dt, kernel_calls):
        self.check_rows(dt, random_admissible_lengths(dt, np.random.default_rng(3), size=1),
                        kernel_calls)

    def test_empty_stack_gives_empty_reads(self, dt):
        st = curvature._Stack(dt, np.zeros((0, 6)))
        shapes = {name: read.shape for name, read in self.reads(st).items()}
        assert shapes["laplacian"] == (0, 4, 4) and st.vehr.shape == (0, 1)
        assert shapes["length_hessian vehr"] == (0, 6, 6)
        assert shapes["conformal_hessian vehr"] == shapes["csc_jacobian lehr"] == (0, 4, 4)
        assert {shape[0] for shape in shapes.values()} == {0}
        assert np.linalg.eigh(st.laplacian())[0].shape == (0, 4)

    def test_inadmissible_metric_raises(self, dt):
        with pytest.raises(InadmissibleMetricError):
            curvature._Stack(dt, [ONES, diagonal_family(1.5)])

class TestNormalizationTerms:
    """A reader computes only the per-edge or the per-vertex terms it reads."""

    @pytest.mark.parametrize("which", ["lehr", "vehr"])
    def test_per_edge_readers(self, dt, which):
        rep = functionals(dt, random_admissible_lengths(dt, np.random.default_rng(83)))
        rep.grad_lengths(which)
        rep.einstein_residual(which)
        assert not {"k_vertex", "l_vertex", "v_vertex"} & vars(rep).keys()

    def test_per_vertex_readers(self, dt):
        rep = functionals(dt, random_admissible_lengths(dt, np.random.default_rng(84)))
        rep.grad_conformal("vehr")
        rep.csc_residual("vehr")
        rep.csc_jacobian("vehr")
        assert "v_edge" not in vars(rep)


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

    @pytest.mark.parametrize("which", ["ehr", "lehr", "vehr"])
    def test_one_table_matches_the_per_functional_formulas(self, dt, which):
        rng = np.random.default_rng(26)
        for _ in range(20):
            l = random_admissible_lengths(dt, rng)
            assert np.array_equal(grad_conformal(dt, l, which),
                                  grad_conformal_oracle(dt, l, which))
            ga, go = grad_lengths(dt, l, which), grad_lengths_oracle(dt, l, which)
            assert np.abs(ga - go).max() <= 1e-14 * np.abs(go).max()


def grad_lengths_oracle(c, lengths, which):
    """Length gradients written out per functional: K_e / l_e for EHR, then
    the quotient rule with L and with V^(1/3)."""
    k_edge = functionals(c, lengths).k_edge
    base = k_edge / lengths
    if which == "ehr":
        return base
    if which == "lehr":
        L = float(lengths.sum())
        return (base - k_edge.sum() / L) / L
    geo = tet_geometry(c.tet_lengths(lengths))
    vol, ehr = float(geo.volume.sum()), float(k_edge.sum())
    return (base - ehr / (3.0 * vol) * c.edge_sum(geo.dvolume)) / vol ** (1.0 / 3.0)


def grad_conformal_oracle(c, lengths, which):
    """Conformal gradients written out per functional from the report fields."""
    rep = functionals(c, lengths)
    if which == "ehr":
        return rep.k_vertex.copy()
    if which == "lehr":
        return (rep.k_vertex - rep.lehr * rep.l_vertex) / rep.length
    lam = rep.ehr / (3.0 * rep.volume)
    return (rep.k_vertex - lam * rep.v_vertex) / rep.volume ** (1.0 / 3.0)


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
        found = 0
        for _ in range(50):
            l = random_admissible_lengths(dt, rng)
            if np.all(functionals(dt, l).dual_length >= 0):
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


def mp_functionals(mpmath, c, lengths, u):
    """(EHR, L, V) at the metric exp(u_a + u_b) l_e (lengths floats or mpf), in mpmath at
    its working precision: CM3 and G = A^-1 by mpmath's det and inverse, cos beta_ij =
    G_kl / sqrt(G_kk G_ll) for the vertices k, l off edge ij."""
    l = [mpmath.mpf(lengths[e]) * mpmath.exp(u[a] + u[b])
         for e, (a, b) in enumerate(c.edge_vertices)]
    angle_sum, volume = [mpmath.mpf(0)] * len(l), mpmath.mpf(0)
    for edges in c.tet_edges:
        A = mpmath.matrix(5, 5)
        for k in range(1, 5):
            A[0, k] = A[k, 0] = 1
        for m, (i, j) in enumerate(LOCAL_PAIRS):
            A[i + 1, j + 1] = A[j + 1, i + 1] = l[edges[m]] ** 2
        G = A ** -1
        volume += mpmath.sqrt(mpmath.det(A) / 288)
        for m, pair in enumerate(LOCAL_PAIRS):
            k, q = [v + 1 for v in range(4) if v not in pair]
            angle_sum[edges[m]] += mpmath.acos(G[k, q] / mpmath.sqrt(G[k, k] * G[q, q]))
    ehr = sum((2 * mpmath.pi - b) * le for b, le in zip(angle_sum, l))
    return ehr, sum(l), volume


def mp_conformal_hessians(mpmath, c, lengths, h):
    """Central-difference u-Hessians of EHR, LEHR and VEHR with step ``h``."""
    return mp_hessians(mpmath, c.num_vertices, h,
                       lambda u: mp_functionals(mpmath, c, lengths, u))


def mp_length_hessians(mpmath, c, lengths, h):
    """Central-difference length Hessians of EHR, LEHR and VEHR with step ``h``."""
    zeros = [mpmath.mpf(0)] * c.num_vertices
    return mp_hessians(mpmath, c.num_edges, h, lambda dl: mp_functionals(
        mpmath, c, [mpmath.mpf(float(x)) + d for x, d in zip(lengths, dl)], zeros))


def mp_hessians(mpmath, n, h, totals):
    """Central-difference Hessians (n, n) of EHR, LEHR and VEHR in n coordinates x with
    step ``h`` around x = 0, from ``totals(x)``, the (EHR, L, V) at x (a list of mpf)."""
    memo = {}

    def F(steps):
        if steps not in memo:
            x = [mpmath.mpf(0)] * n
            for i, s in steps:
                x[i] += s * h
            ehr, L, V = totals(x)
            memo[steps] = (ehr, ehr / L, ehr / mpmath.cbrt(V))
        return memo[steps]

    out = np.empty((3, n, n))
    for i in range(n):
        for j in range(i, n):
            if i == j:
                d = [(p - 2 * z + m) / h ** 2
                     for p, z, m in zip(F(((i, 1),)), F(()), F(((i, -1),)))]
            else:
                d = [(pp - pm - mp + mm) / (4 * h ** 2) for pp, pm, mp, mm in zip(
                    F(((i, 1), (j, 1))), F(((i, 1), (j, -1))),
                    F(((i, -1), (j, 1))), F(((i, -1), (j, -1))))]
            out[:, i, j] = out[:, j, i] = [float(x) for x in d]
    return dict(zip(("ehr", "lehr", "vehr"), out))


class TestExactConformalHessian:
    @pytest.mark.parametrize("case", ["t1.3", "t1.4142", "t1.41421", "seed60", "seed61"])
    def test_against_40_digit_differences(self, dt, case):
        # central differences of the u-functional in 40 digits, step 1e-12
        # (within 5e-15 relative of 60 digits at step 1e-18 on these cases);
        # the random metrics are not csc, so the rank-one terms are exercised
        mpmath = pytest.importorskip("mpmath")
        if case.startswith("t"):
            l = diagonal_family(float(case[1:]))
        else:
            l = random_admissible_lengths(dt, np.random.default_rng(int(case[4:])))
        with mpmath.workdps(40):
            ref = mp_conformal_hessians(mpmath, dt, l, mpmath.mpf("1e-12"))
        rep = functionals(dt, l)
        for which, bound in (("ehr", 1e-12), ("lehr", 1e-12), ("vehr", 1e-10)):
            H = rep.conformal_hessian(which)
            err = np.abs(H - ref[which]).max() / np.abs(ref[which]).max()
            assert err < bound, (which, err)

    @pytest.mark.parametrize("which", ["ehr", "lehr", "vehr"])
    def test_matches_fd_on_random_metrics(self, dt, which):
        # lengths in [0.8, 1.2]: next to the admissibility boundary the
        # Richardson oracle's truncation error exceeds its gap to the exact value
        rng = np.random.default_rng(35)
        for _ in range(12):
            l = random_admissible_lengths(dt, rng, 0.8, 1.2)
            Ha = functionals(dt, l).conformal_hessian(which)
            Hf = conformal_hessian_fd(dt, l, which, richardson=True)
            assert np.abs(Ha - Hf).max() < 1e-7 * np.abs(Ha).max()
            assert np.abs(Ha - Ha.T).max() == 0.0

    @pytest.mark.parametrize("case", ["unit", "fb", "t1.15", "t1.35", "cell600"])
    def test_matches_paper_formula_at_csc_metrics(self, dt, cell600, fb_lengths, case):
        c, l = {"unit": (dt, ONES), "fb": (dt, fb_lengths),
                "t1.15": (dt, diagonal_family(1.15)), "t1.35": (dt, diagonal_family(1.35)),
                "cell600": (cell600, np.ones(720))}[case]
        H = functionals(c, l).conformal_hessian("lehr")
        assert np.abs(H - paper_formula(c, l)).max() < 1e-14 * max(1.0, np.abs(H).max())
        assert np.abs(lehr_conformal_hessian_csc(c, l) - H).max() == 0.0

    @pytest.mark.parametrize("which", ["lehr", "vehr"])
    def test_scaling_direction_annihilated(self, dt, which):
        # a uniform shift of u rescales the metric; LEHR and VEHR are scale
        # invariant at every metric, csc or not
        rng = np.random.default_rng(36)
        for _ in range(10):
            H = functionals(dt, random_admissible_lengths(dt, rng)).conformal_hessian(which)
            assert np.abs(H @ np.ones(4)).max() < 1e-12 * np.abs(H).max()

    def test_unknown_functional_rejected(self, dt):
        with pytest.raises(ValueError, match="unknown functional"):
            functionals(dt, ONES).conformal_hessian("nope")

    def test_one_kernel_call_on_cell600(self, cell600, kernel_calls):
        lehr_conformal_hessian_csc(cell600, np.ones(720))
        assert kernel_calls == [(600, 6)]
        functionals(cell600, np.ones(720)).conformal_hessian("vehr")
        functionals(cell600, np.ones(720)).conformal_hessian("ehr")
        assert kernel_calls == [(600, 6)]


class TestExactLengthHessian:
    @pytest.mark.parametrize("case, bound", [("t1.3", 1e-12), ("t1.4142", 1e-10),
                                             ("seed60", 1e-12), ("seed61", 1e-12)])
    def test_against_40_digit_differences(self, dt, case, bound):
        # central differences of the functionals in the lengths in 40 digits, step 1e-12;
        # the random metrics are not Einstein, so the rank-one terms are exercised, and
        # t = 1.4142 is next to the flat square, where CM3 is 3e-4
        mpmath = pytest.importorskip("mpmath")
        if case.startswith("t"):
            l = diagonal_family(float(case[1:]))
        else:
            l = random_admissible_lengths(dt, np.random.default_rng(int(case[4:])))
        with mpmath.workdps(40):
            ref = mp_length_hessians(mpmath, dt, l, mpmath.mpf("1e-12"))
        rep = functionals(dt, l)
        for which in ("ehr", "lehr", "vehr"):
            err = np.abs(rep.length_hessian(which) - ref[which]).max() \
                / np.abs(ref[which]).max()
            assert err < bound, (which, err)

    @pytest.mark.parametrize("which", ["ehr", "lehr", "vehr"])
    def test_matches_richardson_on_random_metrics(self, dt, which):
        # lengths in [0.8, 1.2], where the Richardson oracle's truncation error is small
        rng = np.random.default_rng(62)
        for _ in range(12):
            l = random_admissible_lengths(dt, rng, 0.8, 1.2)
            Ha = functionals(dt, l).length_hessian(which)
            Hf = hessian_fd_lengths(dt, l, which, richardson=True)
            assert np.abs(Ha - Hf).max() < 1e-6 * np.abs(Ha).max()
            assert np.array_equal(Ha, Ha.T)

    @pytest.mark.parametrize("which, expect", [
        ("lehr", [-2 * np.sqrt(2) / 3] * 2 + [0.0] + [2 * np.sqrt(2) / 9] * 3),
        ("vehr", [0.0]
         + [2 ** (7 / 6) * 3 ** (-2 / 3) * (2 ** 1.5 + 9 * np.pi - 9 * ACOS13)] * 3
         + [2 ** (7 / 6) * 3 ** (1 / 3) * (7 * np.pi - 2 ** 1.5 - 7 * ACOS13)] * 2)])
    def test_equal_length_spectra_to_roundoff(self, dt, which, expect):
        # the closed forms of reproduce rows 1a and 2a, which the Richardson Hessians
        # met to 4.2e-10 and 5.8e-8
        vals = solve.eig_sym(functionals(dt, ONES).length_hessian(which)).eigenvalues
        assert np.abs(vals - np.array(expect)).max() < 1e-12

    def test_opposite_pair_differences_are_one_eigenspace_on_the_family(self, dt):
        # on (t, 1, 1, 1, 1, t) the three differences of opposite edges share one
        # eigenvalue of every length Hessian (a sweep's Richardson Hessian splits it)
        U = np.array([[1.0, 0, 0, 0, 0, -1], [0, 1, 0, 0, -1, 0], [0, 0, 1, -1, 0, 0]])
        for t in np.linspace(1.0, 1.414, 30):
            rep = functionals(dt, diagonal_family(t))
            for which in ("ehr", "lehr", "vehr"):
                H = rep.length_hessian(which)
                lam = U[0] @ H @ U[0] / 2.0
                worst = max(np.abs(H @ u - lam * u).max() for u in U)
                assert worst <= 1e-9 * max(1.0, abs(lam)), (t, which, worst)

    @pytest.mark.parametrize("case", ["dt", "cell600"])
    def test_euler_identities(self, dt, cell600, case):
        # EHR is 1-homogeneous in the lengths, LEHR and VEHR 0-homogeneous: by Euler,
        # H(EHR) l = 0 and H(F) l = -grad F
        rng = np.random.default_rng(63)
        if case == "dt":
            c, metrics = dt, random_admissible_lengths(dt, rng, size=5)
        else:
            c, metrics = cell600, [1.0 + 0.05 * rng.standard_normal(720) for _ in range(2)]
        for l in metrics:
            rep = functionals(c, l)
            for which in ("ehr", "lehr", "vehr"):
                H = rep.length_hessian(which)
                g = 0.0 if which == "ehr" else rep.grad_lengths(which)
                scale = np.abs(H).max() * np.abs(l).max()
                assert np.abs(H @ l + g).max() < 1e-12 * scale, which

    def test_one_kernel_call_on_cell600(self, cell600, kernel_calls):
        rep = functionals(cell600, np.ones(720))
        for which in ("ehr", "lehr", "vehr"):
            assert rep.length_hessian(which).shape == (720, 720)
        assert kernel_calls == [(600, 6)]

    def test_vehr_scatters_the_volume_gradient_once(self, dt, monkeypatch):
        # its gradient (through V_e) and its rank-one term read one sum of dvolume at each
        # edge, from a fresh report
        monkeypatch.setattr(curvature, "_live", None)
        rep, scattered = functionals(dt, diagonal_family(1.3)), []
        edge_sum = complexes.Complex.edge_sum

        def counted(self, per_tet):
            scattered.append(per_tet is rep.geometry.dvolume)
            return edge_sum(self, per_tet)

        monkeypatch.setattr(complexes.Complex, "edge_sum", counted)
        rep.length_hessian("vehr")
        assert scattered.count(True) == 1

    def test_unknown_functional_rejected(self, dt):
        with pytest.raises(ValueError, match="unknown functional"):
            functionals(dt, ONES).length_hessian("nope")


class TestCscJacobian:
    @pytest.mark.parametrize("which", ["L", "V"])
    def test_matches_central_differences(self, dt, which):
        rng = np.random.default_rng(37)
        h = 1e-6
        for _ in range(10):
            l = random_admissible_lengths(dt, rng, 0.8, 1.2)
            J = functionals(dt, l).csc_jacobian(which)
            Jf = np.empty((4, 4))
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                Jf[:, j] = (csc_residual(dt, induced_lengths(dt, l, e), which)
                            - csc_residual(dt, induced_lengths(dt, l, -e), which)) / (2 * h)
            assert np.abs(J - Jf).max() < 1e-7 * np.abs(J).max()

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_every_normalization_matches_central_differences(self, dt, seed):
        l = random_admissible_lengths(dt, np.random.default_rng(seed))
        rep, h = functionals(dt, l), 1e-6
        for which in ("EHR", "L", "V"):
            Jf = np.empty((4, 4))
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                Jf[:, j] = (csc_residual(dt, induced_lengths(dt, l, e), which)
                            - csc_residual(dt, induced_lengths(dt, l, -e), which)) / (2 * h)
            assert np.abs(rep.csc_jacobian(which) - Jf).max() < 1e-6 * np.abs(Jf).max(), which

    def test_unknown_functional_rejected(self, dt):
        with pytest.raises(ValueError, match="unknown functional"):
            functionals(dt, ONES).csc_jacobian("nope")

    @pytest.mark.parametrize("which", ["L", "V", "LEHR", "VEHR", "EHR"])
    def test_gauge_column_is_scaling(self, dt, which):
        # a uniform shift s of f scales the metric by exp(s), and r is
        # 1-homogeneous in the lengths: J 1 = r
        l = random_admissible_lengths(dt, np.random.default_rng(38))
        J = functionals(dt, l).csc_jacobian(which)
        assert J @ np.ones(4) == pytest.approx(csc_residual(dt, l, which), abs=1e-12)

    def test_one_kernel_call_on_cell600(self, cell600, kernel_calls):
        l = induced_lengths(cell600, np.ones(720),
                            np.random.default_rng(39).normal(0, 0.02, 120))
        functionals(cell600, l).csc_jacobian("L")
        assert kernel_calls == [(600, 6)]

    @staticmethod
    def peak_kb(c, which):
        rep = functionals(c, induced_lengths(
            c, np.ones(720), np.random.default_rng(40).normal(0, 0.02, 120)))
        tracemalloc.start()
        try:
            rep.csc_jacobian(which)
            return tracemalloc.get_traced_memory()[1] / 1024
        finally:
            tracemalloc.stop()

    def test_peak_memory_on_cell600(self, cell600):
        # vertex-space assembly from the dual lengths peaks at 489 KB; one
        # (600, 6, 6) per-tet array (173 KB) on top would pass the bound
        assert self.peak_kb(cell600, "L") <= 520

    def test_peak_memory_on_cell600_volume(self, cell600):
        # VEHR adds one (600, 4, 4) block from G: 564 KB
        assert self.peak_kb(cell600, "V") <= 600


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
