"""Euclidean geometry of a single tetrahedron from its six edge lengths.

All functions accept arrays of shape ``(..., 6)`` with the lengths ordered
by local vertex pair (0,1), (0,2), (0,3), (1,2), (1,3), (2,3), and
broadcast over the leading axes, so a whole triangulation's tetrahedra can
be processed in one call.

A length vector is *admissible* when its Cayley-Menger determinant is
positive, i.e. the lengths are realized by a nondegenerate Euclidean
tetrahedron.  Operations that require admissibility raise
:class:`InadmissibleMetricError` instead of clamping, so optimization
paths can detect the boundary of the metric space exactly.

Every per-tet quantity comes from one kernel, :func:`tet_geometry`: the
5x5 bordered Cayley-Menger matrix ``A`` of squared lengths, its
determinant CM3 = 288 V^2 and its inverse ``G``.  With rows and columns of
``G`` numbered 1..4 for the vertices and 0 for the border, ``G[0, k]`` are
the barycentric coordinates of the circumcenter and the vertex block is
-1/(18 V^2) times the Gram matrix of the area-weighted outward face
normals.  Second derivatives come from the same inverse: for edge m = (i, j),
dG_ab/dl_m = -2 l_m (G_ai G_jb + G_aj G_ib).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import Complex, EDGE_FACES, FACE_EDGES, LOCAL_PAIRS

#: lookup (i, j) -> local edge index
PAIR_INDEX = {}
for _m, (_i, _j) in enumerate(LOCAL_PAIRS):
    PAIR_INDEX[(_i, _j)] = _m
    PAIR_INDEX[(_j, _i)] = _m

# rows of the bordered matrix for the two ends (I, J) of each local edge and
# for the two vertices (K, L) off it
_I, _J = np.array(LOCAL_PAIRS).T + 1
_K, _L = np.array([[v for v in range(4) if v not in p] for p in LOCAL_PAIRS]).T + 1
# the two (face, slot) incidences of each local edge, as index arrays (6, 2)
_EF_FACE, _EF_SLOT = np.moveaxis(np.array(EDGE_FACES), -1, 0)


class InadmissibleMetricError(ValueError):
    """Lengths do not embed as nondegenerate Euclidean simplices."""


def _as_lengths(lengths) -> np.ndarray:
    l = np.asarray(lengths, dtype=float)
    if l.shape[-1] != 6:
        raise ValueError(f"expected trailing axis of 6 lengths, got shape {l.shape}")
    return l


def _cm_matrix(l) -> np.ndarray:
    """The bordered matrix (..., 5, 5) of squared lengths."""
    q = l * l
    A = np.ones(l.shape[:-1] + (5, 5))
    A[..., range(5), range(5)] = 0.0
    A[..., _I, _J] = q
    A[..., _J, _I] = q
    return A


def cayley_menger(lengths) -> np.ndarray:
    """Determinant of the 5x5 bordered matrix of squared lengths.

    A degree-six polynomial in the lengths; positive exactly when the
    lengths are realized by a nondegenerate tetrahedron, and equal to
    288 * volume^2 in that case.
    """
    return np.linalg.det(_cm_matrix(_as_lengths(lengths)))


def _face_margins(l) -> np.ndarray:
    """Strict triangle margins per face, (..., 4): positive iff realizable.

    Positivity of CM3 alone does not guarantee a Euclidean tetrahedron;
    there are length vectors with CM3 > 0 whose faces violate the
    triangle inequality, so faces are checked separately.
    """
    sides = l[..., np.asarray(FACE_EDGES)]
    return np.sum(sides, axis=-1) - 2.0 * np.max(sides, axis=-1)


def _worst_tet(values) -> str:
    """Where ``values``, over the leading axes of a (..., 6) batch, is least:
    the index for one axis (one metric's tets: the tet id), else the index
    tuple (metric index first, tet id last)."""
    flat = int(np.argmin(values))
    index = np.unravel_index(flat, np.shape(values))
    return str(flat) if len(index) <= 1 else str(tuple(int(k) for k in index))


def _admissible_cm(l, A=None) -> np.ndarray:
    """CM3 of each tet of ``l`` (..., 6); raise naming the worst tet if any
    has a nonpositive or non-finite length, a degenerate face or CM3 <= 0.

    For one axis of tets, as in ``Complex.tet_lengths`` output of one
    metric, the worst tet is named by its tet id; in a batch of metrics,
    by its index tuple.
    """
    if np.any(l <= 0.0) or not np.all(np.isfinite(l)):
        raise InadmissibleMetricError("edge lengths must be positive and finite")
    margins = np.min(_face_margins(l), axis=-1)
    if np.any(margins <= 0.0):
        raise InadmissibleMetricError(
            f"metric not admissible: tet {_worst_tet(margins)} has a degenerate face triangle")
    cm = np.linalg.det(_cm_matrix(l) if A is None else A)
    if np.any(cm <= 0.0):
        raise InadmissibleMetricError(
            f"metric not admissible: tet {_worst_tet(cm)} has CM3 = {float(cm.min()):.6g} <= 0")
    return cm


def tet_volume(lengths) -> np.ndarray:
    """Volume sqrt(CM3 / 288) of each tetrahedron."""
    return np.sqrt(_admissible_cm(_as_lengths(lengths)) / 288.0)


def dihedral_angles(lengths) -> np.ndarray:
    """Dihedral angles at the six edges, each in (0, pi)."""
    return tet_geometry(lengths).dihedrals


@dataclass(frozen=True)
class TetGeometry:
    """All per-tetrahedron derived geometry for a batch of length vectors.

    ``h_face`` is the signed distance from the tet circumcenter to each
    face plane, positive when the circumcenter lies on the same side as
    the opposite vertex.  ``h_edge`` (slot k opposite face vertex k) is
    the signed distance from each face circumcenter to the face's edges,
    positive on the side of the opposite vertex; it equals
    (l/2) cot(opposite angle).
    """

    lengths: np.ndarray        # (..., 6)
    cm3: np.ndarray            # (...)
    volume: np.ndarray         # (...)
    dihedrals: np.ndarray      # (..., 6)
    areas: np.ndarray          # (..., 4) face areas, by Heron's formula
    h_face: np.ndarray         # (..., 4)
    h_edge: np.ndarray         # (..., 4, 3)
    dvolume: np.ndarray        # (..., 6) d(volume)/d(lengths)
    cm_inverse: np.ndarray     # (..., 5, 5) G = A^-1, border row and column 0

    @property
    def dual(self) -> np.ndarray:
        """Signed dual-area piece of each edge, (..., 6).

        The edge receives (h_{e<f} h_{f<t} + h_{e<f'} h_{f'<t}) / 2 from
        its two faces f, f' in the tetrahedron.
        """
        return 0.5 * np.sum(self.h_edge[..., _EF_FACE, _EF_SLOT]
                            * self.h_face[..., _EF_FACE], axis=-1)

    def _dG(self, n, a, b) -> np.ndarray:
        """d(G_ab)/d(l_n) for index arrays a, b of equal length, (..., len(a))."""
        G, i, j = self.cm_inverse, _I[n], _J[n]
        return -2.0 * self.lengths[..., n, None] * (G[..., a, i] * G[..., j, b]
                                                    + G[..., a, j] * G[..., i, b])

    @property
    def ddihedrals(self) -> np.ndarray:
        """Jacobian d(beta_m)/d(l_n) of the dihedral angles, (..., 6, 6), row m.

        Differentiates cos beta_m = G_kl / sqrt(G_kk G_ll) one edge n at a
        time, so that only (..., 6) temporaries are built besides the result.
        """
        G = self.cm_inverse
        gkl, gkk, gll = G[..., _K, _L], G[..., _K, _K], G[..., _L, _L]
        scale = -1.0 / (np.sqrt(gkk * gll) * np.sin(self.dihedrals))
        out = np.empty(self.lengths.shape + (6,))
        for n in range(6):
            out[..., n] = scale * (self._dG(n, _K, _L) - 0.5 * gkl * (
                self._dG(n, _K, _K) / gkk + self._dG(n, _L, _L) / gll))
        return out

    @property
    def d2volume(self) -> np.ndarray:
        """Hessian d^2(volume)/d(l_m)d(l_n), (..., 6, 6).

        From dV/dl_m = 2 l_m V G_ij:  delta_mn dV_m/l_m + dV_m dV_n / V
        + 2 l_m V dG_ij/dl_n, assembled one edge n at a time.
        """
        V = self.volume[..., None]
        out = np.empty(self.lengths.shape + (6,))
        for n in range(6):
            out[..., n] = self.dvolume * self.dvolume[..., n, None] / V \
                + 2.0 * self.lengths * V * self._dG(n, _I, _J)
        out[..., range(6), range(6)] += self.dvolume / self.lengths
        return out


def tet_geometry(lengths) -> TetGeometry:
    """Compute the full :class:`TetGeometry` bundle for admissible lengths.

    With (k, l) the vertices off edge ij: cos beta_ij = G_kl / sqrt(G_kk G_ll),
    h_face_k = G_0k * 3V / A_k (the circumcenter's barycentric coordinate
    times the height of vertex k) and dV/dl_ij = 2 l_ij V G_ij.
    """
    l = _as_lengths(lengths)
    A = _cm_matrix(l)
    cm = _admissible_cm(l, A)
    volume = np.sqrt(cm / 288.0)
    G = np.linalg.inv(A)
    cos = G[..., _K, _L] / np.sqrt(G[..., _K, _K] * G[..., _L, _L])

    sides = l[..., np.asarray(FACE_EDGES)]
    a, b, c = sides[..., 0], sides[..., 1], sides[..., 2]
    s = 0.5 * (a + b + c)
    areas = np.sqrt(s * (s - a) * (s - b) * (s - c))
    # (l_e/2) cot(opposite angle) without trig: cot = (b^2+c^2-a^2)/(4A)
    sq = sides * sides
    h_edge = sides * (sq[..., [1, 2, 0]] + sq[..., [2, 0, 1]] - sq) / (8.0 * areas[..., None])

    return TetGeometry(
        lengths=l,
        cm3=cm,
        volume=volume,
        dihedrals=np.arccos(np.clip(cos, -1.0, 1.0)),
        areas=areas,
        h_face=G[..., 0, 1:] * (3.0 * volume[..., None] / areas),
        h_edge=h_edge,
        dvolume=2.0 * l * volume[..., None] * G[..., _I, _J],
        cm_inverse=G,
    )


# ---------------------------------------------------------------------------
# complex-level helpers


def is_admissible(c: Complex, lengths) -> bool:
    """True when every tetrahedron is realizable: positive lengths, faces
    satisfying strict triangle inequalities, and CM3 > 0."""
    lengths = np.asarray(lengths, dtype=float)
    if lengths.shape != (c.num_edges,):
        return False
    try:
        _admissible_cm(c.tet_lengths(lengths))
    except InadmissibleMetricError:
        return False
    return True


def assert_admissible(c: Complex, lengths) -> np.ndarray:
    """Return per-tet CM3 values; raise with the worst tet on failure."""
    return _admissible_cm(c.tet_lengths(lengths))


def dual_lengths(c: Complex, lengths) -> np.ndarray:
    """Signed dual areas l*_e associated to the edges.

    Each incident tetrahedron contributes :attr:`TetGeometry.dual`; the
    result is the signed area of the circumcentric dual cell orthogonal
    to the edge.
    """
    return c.edge_sum(tet_geometry(c.tet_lengths(lengths)).dual)
