"""Discrete conformal classes of piecewise flat metrics.

A conformal class is determined by background edge lengths L_e; the
factor map attaches one real number f_v to each vertex and induces

    l_e(f) = exp((f_v + f_v') / 2) * L_e

on the edge between v and v'.  Length cross ratios inside every
tetrahedron are invariant under this map, and on the double tetrahedron
every class contains (up to scale) exactly one metric with opposite edge
lengths equal, given in closed form by ``equihedral_point``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import Complex, OPPOSITE_EDGE, set_fields
from . import geometry


def induced_lengths(c: Complex, background, factors) -> np.ndarray:
    """The factor map l_e = exp((f_v + f_v') / 2) * L_e, without any check.

    Factors (..., V) give lengths (..., E): leading axes index a batch.
    """
    ev = c.edge_vertices
    f = np.asarray(factors, dtype=float)
    return np.exp(0.5 * (f[..., ev[:, 0]] + f[..., ev[:, 1]])) * background


@dataclass(frozen=True, init=False)
class ConformalClass:
    """Background lengths defining a conformal class on a complex."""

    complex: Complex
    background: np.ndarray   # (E,) admissible lengths

    def __init__(self, complex, background):
        set_fields(locals())
        self.__post_init__()

    def __post_init__(self):
        bg = np.asarray(self.background, dtype=float)
        object.__setattr__(self, "background", bg)
        geometry.assert_admissible(self.complex, bg)

    def _factors(self, factors) -> np.ndarray:
        """Factors (V,) as floats; ``ValueError`` on any other shape."""
        f = np.asarray(factors, dtype=float)
        if f.shape != (self.complex.num_vertices,):
            raise ValueError(f"expected {self.complex.num_vertices} factors, got shape {f.shape}")
        return f

    def apply(self, factors):
        """Induced lengths for per-vertex factors; returns (lengths, admissible).

        Admissibility of the induced metric is not guaranteed; the flag
        reports whether it passes the whole test of
        :func:`geometry.is_admissible`: every length positive and finite,
        every face margin positive (strict triangle inequalities) and every
        tetrahedron's Cayley-Menger determinant CM3 positive.
        """
        with np.errstate(over="ignore", invalid="ignore"):    # inf, NaN lengths: rejected
            lengths = induced_lengths(self.complex, self.background, self._factors(factors))
        return lengths, geometry.is_admissible(self.complex, lengths)


def cross_ratios(c: Complex, lengths) -> np.ndarray:
    """The two length cross ratios per tetrahedron, shape (T, 2).

    With local labels 1..4: column 0 is l12 l34 / (l14 l23), column 1 is
    l12 l34 / (l13 l24).  Both depend only on the conformal class.
    """
    lengths = np.asarray(lengths, dtype=float)
    if np.any(lengths <= 0):
        raise ValueError("lengths must be positive")
    tl = c.tet_lengths(lengths)
    num = tl[:, 0] * tl[:, 5]
    return np.stack([num / (tl[:, 2] * tl[:, 3]), num / (tl[:, 1] * tl[:, 4])],
                    axis=1)


@dataclass(frozen=True, init=False)
class EquihedralPoint:
    """Closed-form conformal point inducing an opposite-lengths-equal metric."""

    factors: np.ndarray   # (4,) with gauge factor 0 at the tet's fourth vertex
    lengths: np.ndarray   # (6,) induced lengths
    admissible: bool

    def __init__(self, factors, lengths, admissible):
        set_fields(locals())


def equihedral_point(cls: ConformalClass) -> EquihedralPoint:
    """The unique (modulo scale) equihedral point of a double-tetrahedron class.

    Gauge choice: the factor at the fourth vertex of the generating
    tetrahedron is zero.  The induced metric always has opposite edge
    lengths equal but may fail admissibility; the flag reports it rather
    than raising, since degenerate equihedral points do occur.
    """
    c = cls.complex
    if c.num_vertices != 4:
        raise ValueError("equihedral points are defined for 4-vertex complexes")
    vi, vj, vk, vl = c.tet_vertices[0]
    # background lengths of the generating tet, in local pair order
    l01, l02, l03, l12, l13, l23 = cls.background[c.tet_edges[0]]
    f = np.zeros(4)
    f[vi] = np.log(l13 * l23 / (l01 * l02))
    f[vj] = np.log(l03 * l23 / (l12 * l01))
    f[vk] = np.log(l03 * l13 / (l02 * l12))
    f[vl] = 0.0
    lengths = induced_lengths(c, cls.background, f)
    return EquihedralPoint(factors=f, lengths=lengths,
                           admissible=geometry.is_admissible(c, lengths))


def is_equihedral(c: Complex, lengths, tol: float = 1e-9) -> bool:
    """True when every tet has opposite edge lengths equal to within tol."""
    tl = c.tet_lengths(lengths)
    scale = float(np.max(tl))
    gaps = np.abs(tl - tl[:, OPPOSITE_EDGE])
    return bool(np.all(gaps <= tol * scale))


def random_equihedral_lengths(rng: np.random.Generator,
                              low: float = 0.7, high: float = 1.3) -> np.ndarray:
    """Random admissible equihedral length vector for the double tetrahedron.

    Samples the three opposite-pair lengths until the common face
    triangle is acute, which characterizes admissibility here.
    """
    for _ in range(1000):
        a, b, c = rng.uniform(low, high, size=3)
        sq = sorted((a * a, b * b, c * c))
        if sq[2] < sq[0] + sq[1] - 1e-9:
            lengths = np.array([a, b, c, c, b, a])
            if geometry.cayley_menger(lengths) > 0:
                return lengths
    raise RuntimeError("failed to sample an acute triangle")
