"""Metamorphic relations of the curvature functionals under exact rescaling.

Scaling every edge length by a power of two, l -> 2**k * l, is exact in floating
point, so the scale-free quantities must come out bitwise equal and the
length-one quantities exactly 2**k times their unit-scale values.  The range
k in [-160, 160] is the one where every relation holds today; VEHR is left out
because its ``** (1/3)`` moves by an ulp at most scales.
"""

import math

import numpy as np
import pytest

from regge3 import curvature, geometry, solve
from regge3.complexes import double_tetrahedron, six_hundred_cell

K_RANGE = (-160, 160)
#: scales of the 600-cell metrics, whose reports cost a millisecond each: both ends, the
#: smallest steps around 1 and a spread of odd exponents between
CELL600_KS = (-160, -127, -64, -33, -2, -1, 1, 2, 31, 65, 128, 159, 160)


def dt_metrics():
    return solve.random_admissible_lengths(double_tetrahedron(), np.random.default_rng(3030),
                                           size=20)


def cell600_metrics():
    rng = np.random.default_rng(3031)
    return 1.0 + 0.02 * rng.standard_normal((3, six_hundred_cell().num_edges))


def reads(c, lengths):
    """The report's fields that the relations compare, as arrays of their own."""
    rep = curvature.functionals(c, lengths)
    return {"dihedrals": rep.geometry.dihedrals, "lehr": np.float64(rep.lehr),
            "lehr_conformal_hessian": rep.conformal_hessian("lehr"),
            "ehr": np.float64(rep.ehr), "k_edge": rep.k_edge,
            "admissible": geometry.is_admissible(c, lengths)}


def assert_scaling_relations(c, metric, ks):
    unit = reads(c, metric)
    assert unit["admissible"]
    for k in ks:
        scaled = reads(c, math.ldexp(1.0, k) * metric)
        for name in ("dihedrals", "lehr", "lehr_conformal_hessian"):
            assert scaled[name].tobytes() == unit[name].tobytes(), (name, k)
        for name in ("ehr", "k_edge"):
            assert scaled[name].tobytes() == np.ldexp(unit[name], k).tobytes(), (name, k)
        assert scaled["admissible"], k


@pytest.mark.parametrize("index", range(20))
def test_dt_power_of_two_scaling(index):
    ks = [k for k in range(K_RANGE[0], K_RANGE[1] + 1) if k != 0]
    assert_scaling_relations(double_tetrahedron(), dt_metrics()[index], ks)


@pytest.mark.parametrize("index", range(3))
def test_cell600_power_of_two_scaling(index):
    assert_scaling_relations(six_hundred_cell(), cell600_metrics()[index], CELL600_KS)
