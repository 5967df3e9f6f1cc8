import warnings

import numpy as np
import pytest

from regge3.complexes import double_tetrahedron
from regge3.conformal import (ConformalClass, cross_ratios, equihedral_point,
                              is_equihedral, random_equihedral_lengths)
from regge3.curvature import functionals
from regge3.geometry import InadmissibleMetricError, is_admissible
from regge3.solve import random_admissible_lengths

ONES = np.ones(6)


@pytest.fixture(scope="module")
def dt():
    return double_tetrahedron()


@pytest.fixture(scope="module")
def unit_class(dt):
    return ConformalClass(dt, ONES)


class TestApply:
    def test_zero_factors_identity(self, unit_class):
        lengths, ok = unit_class.apply(np.zeros(4))
        assert ok
        assert lengths == pytest.approx(ONES)

    def test_constant_factors_scale(self, unit_class):
        c = 0.37
        lengths, ok = unit_class.apply(np.full(4, c))
        assert ok
        assert lengths == pytest.approx(np.exp(c) * ONES, rel=1e-15)

    def test_two_vertex_bump(self, dt, unit_class):
        f = np.array([np.log(1.2), np.log(1.2), 0.0, 0.0])
        lengths, ok = unit_class.apply(f)
        assert ok
        # edge order (01, 02, 03, 12, 13, 23)
        expect = np.array([1.2, np.sqrt(1.2), np.sqrt(1.2), np.sqrt(1.2),
                           np.sqrt(1.2), 1.0])
        assert lengths == pytest.approx(expect, rel=1e-15)
        assert not is_equihedral(dt, lengths, tol=1e-9)

    def test_inadmissible_flagged_not_raised(self, dt):
        cls = ConformalClass(dt, np.array([1.35, 1, 1, 1, 1, 1.35]))
        lengths, ok = cls.apply(np.array([0.5, 0.5, 0.0, 0.0]))
        assert not ok
        assert not is_admissible(dt, lengths)

    def test_overflowing_factors_flagged_without_a_warning(self, unit_class):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lengths, ok = unit_class.apply(np.array([1e300, 0.0, 0.0, 0.0]))
        assert not ok and np.isinf(lengths).sum() == 3

    def test_background_must_be_admissible(self, dt):
        with pytest.raises(InadmissibleMetricError):
            ConformalClass(dt, np.array([1.4143, 1, 1, 1, 1, 1.4143]))


class TestCrossRatios:
    def test_unit_lengths(self, dt):
        assert cross_ratios(dt, ONES) == pytest.approx(np.ones((2, 2)))

    def test_direct_arithmetic(self, dt):
        r = cross_ratios(dt, np.array([2.0, 1, 1, 1, 1, 3.0]))
        assert r == pytest.approx(np.full((2, 2), 6.0), rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_length_not_positive_and_finite_rejected(self, dt, bad):
        lengths = np.ones(6)
        lengths[5] = bad
        with pytest.raises(ValueError, match="lengths must be positive"):
            cross_ratios(dt, lengths)

    def test_invariant_under_conformal_change(self, dt, unit_class):
        rng = np.random.default_rng(40)
        base = cross_ratios(dt, unit_class.background)
        for _ in range(20):
            f = rng.normal(0, 0.4, 4)
            lengths, ok = unit_class.apply(f)
            if not ok:
                continue
            assert cross_ratios(dt, lengths) == pytest.approx(base, rel=1e-12)

    def test_invariant_for_generic_background(self, dt):
        rng = np.random.default_rng(41)
        bg = random_admissible_lengths(dt, rng)
        cls = ConformalClass(dt, bg)
        base = cross_ratios(dt, bg)
        for _ in range(10):
            lengths, ok = cls.apply(rng.normal(0, 0.2, 4))
            if ok:
                assert cross_ratios(dt, lengths) == pytest.approx(base, rel=1e-12)


class TestEquihedralPoint:
    def test_unit_class_fixed(self, unit_class):
        pt = equihedral_point(unit_class)
        assert pt.factors == pytest.approx(np.zeros(4), abs=1e-15)
        assert pt.admissible

    def test_single_long_edge(self, dt):
        cls = ConformalClass(dt, np.array([1, 1, 1, 1, 1, 1.2]))
        pt = equihedral_point(cls)
        assert pt.factors == pytest.approx(
            np.array([np.log(1.2), np.log(1.2), 0.0, 0.0]), rel=1e-14)
        expect = np.array([1.2, np.sqrt(1.2), np.sqrt(1.2), np.sqrt(1.2),
                           np.sqrt(1.2), 1.2])
        assert pt.lengths == pytest.approx(expect, rel=1e-14)
        assert pt.admissible
        assert is_equihedral(dt, pt.lengths, tol=1e-12)

    def test_induced_metric_always_equihedral(self, dt):
        rng = np.random.default_rng(42)
        for _ in range(20):
            cls = ConformalClass(dt, random_admissible_lengths(dt, rng))
            pt = equihedral_point(cls)
            assert is_equihedral(dt, pt.lengths, tol=1e-12)

    def test_gauge_consistency_within_class(self, dt):
        # the equihedral point of any representative of the class induces
        # the same metric up to uniform scale
        rng = np.random.default_rng(43)
        cls = ConformalClass(dt, ONES)
        pt0 = equihedral_point(cls)
        for _ in range(10):
            f = rng.normal(0, 0.3, 4)
            lengths, ok = cls.apply(f)
            if not ok:
                continue
            pt = equihedral_point(ConformalClass(dt, lengths))
            ratio = pt.lengths / pt0.lengths
            assert np.abs(ratio / ratio.mean() - 1.0).max() < 1e-10

    def test_admissible_flag_true_across_random_classes(self, dt):
        # the squared side lengths of the induced equihedral metric are
        # proportional to the opposite-edge products of the background,
        # which form a strict triangle for every realizable tetrahedron,
        # so no admissible class produces a degenerate equihedral point;
        # the flag stays in the interface and is exercised here
        rng = np.random.default_rng(45)
        for _ in range(50):
            L = random_admissible_lengths(dt, rng, low=0.35, high=1.9)
            pt = equihedral_point(ConformalClass(dt, L))
            s = np.array([L[0] * L[5], L[1] * L[4], L[2] * L[3]])
            assert s.sum() - 2 * s.max() > 0
            assert pt.admissible

    def test_equihedral_vertex_quantities_equal(self, dt):
        rng = np.random.default_rng(44)
        for _ in range(20):
            l = random_equihedral_lengths(rng)
            rep = functionals(dt, l)
            assert np.abs(rep.l_vertex - rep.l_vertex.mean()).max() < 1e-10
            assert np.abs(rep.v_vertex - rep.v_vertex.mean()).max() < 1e-10


class TestIsEquihedral:
    def test_unit_lengths(self, dt):
        assert is_equihedral(dt, ONES, tol=1e-12)

    def test_family_point(self, dt):
        assert is_equihedral(dt, np.array([1.3, 1, 1, 1, 1, 1.3]), tol=1e-12)

    def test_single_perturbed_edge(self, dt):
        assert not is_equihedral(dt, np.array([1.2, 1, 1, 1, 1, 1]), tol=1e-9)

    def test_tolerance_scales_with_lengths(self, dt):
        l = 1000.0 * ONES
        l[5] += 1e-7
        assert is_equihedral(dt, l, tol=1e-9)
