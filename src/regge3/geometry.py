"""Euclidean geometry of a single tetrahedron from its six edge lengths.

All functions accept arrays of shape ``(..., 6)`` with the lengths ordered
by local vertex pair (0,1), (0,2), (0,3), (1,2), (1,3), (2,3), and
broadcast over the leading axes, so a whole triangulation's tetrahedra can
be processed in one call.

A length vector is *admissible* when its face margins (sum of two sides
less the third) and its Cayley-Menger determinant are positive, i.e. the
lengths are realized by a nondegenerate Euclidean tetrahedron.  Operations
that require admissibility raise :class:`InadmissibleMetricError` instead of
clamping, so optimization paths can detect the boundary of the metric space
exactly.

Every per-tet quantity comes from one kernel, :func:`_kernel`, which takes the tets
and their admissibility test's CM3, 2g and cofactors (:func:`_tet_tests`) as arguments:
:func:`tet_geometry` runs that test and then the kernel, and a caller that has tested a
stack (``curvature._first_admissible``) hands the kernel that one pass's admissible rows.
The kernel reads the inverse G of the 5x5 bordered Cayley-Menger matrix A of squared
lengths, rows and columns 1..4 for the vertices and 0 for the border, built from the
Gram matrix at local vertex 0, g_ij = (l_0i^2 + l_0j^2 - l_ij^2) / 2 (Blumenthal, *Theory
and Applications of Distance Geometry*): det A = CM3 = 8 det g = 288 V^2; the
vertex block of G is -1/2 T g^-1 T^T, T = [-1^T; I_3], i.e. -1/(18 V^2) times
the Gram matrix of the area-weighted outward face normals; G[0, 1:] =
(1 - sum(y), y), y = g^-1 diag(g) / 2, are the circumcenter's barycentric
coordinates; G[0, 0] = -2 R^2 = -y . diag(g).  Face areas and circumcentric
heights are read only by :attr:`TetGeometry.dual`, which computes them; the
circumcenter's height over face k times its area is 3 V G_0k.  The second
derivatives :attr:`TetGeometry.ddihedrals` and :attr:`TetGeometry.d2volume`,
which the length Hessians of :mod:`regge3.curvature` read, come from the same G
when read: for edge n = (i, j), dG_ab/dl_n = -2 l_n (G_ai G_jb + G_aj G_ib).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import Complex, EDGE_FACES, FACE_EDGES, LOCAL_PAIRS, set_fields

# rows of the bordered matrix for the two ends (I, J) of each local edge and
# for the two vertices (K, L) off it; the flat cells of G_KL, G_KK, G_LL and G_IJ
_I, _J = np.array(LOCAL_PAIRS).T + 1
_K, _L = np.array([[v for v in range(4) if v not in p] for p in LOCAL_PAIRS]).T + 1
_EDGE_ENTRIES = 5 * np.concatenate([_K, _K, _L, _I]) + np.concatenate([_L, _K, _L, _J])
_EDGE_SLOTS = np.array(EDGE_FACES) @ [3, 1]    # slots 3 face + slot of each local edge
_FACE_EDGES = np.array(FACE_EDGES)
_FACE_CYCLE = _FACE_EDGES[:, [0, 1, 2, 0, 1]]    # sides k + 1, k + 2 (mod 3) as slices
# 2g as (11, 22, 33, 12, 13, 23) is q[_GRAM]'s halves summed, less q_ij off the diagonal;
# its cofactors (11, 12, 13, 22, 23, 33) are x[a] x[b] - x[c] x[d] for the rows
# a..d of _COF, whose row 4 is the first row of 2g, to expand det 2g along
_GRAM = np.array([0, 1, 2, 0, 0, 1, 0, 1, 2, 1, 2, 2])
_COF = np.array([[1, 4, 3, 0, 3, 0], [2, 5, 5, 2, 4, 1], [5, 3, 4, 4, 0, 3],
                 [5, 2, 1, 4, 5, 3], [0, 3, 4, 0, 0, 0]])
_SYM5 = np.zeros((5, 5), dtype=int)    # G from its upper triangle, row by row
_SYM5[np.triu_indices(5)] = _SYM5.T[np.triu_indices(5)] = np.arange(15)
_SYM3 = _SYM5[2:, 2:] - 9              # 3x3 from (11, 12, 13, 22, 23, 33)
# the flat cells, each (6, 6) as [m, n] for the edges m and n, of G_(I_n K_m), G_(J_n L_m),
# G_(J_n K_m) and G_(I_n L_m), which d(beta_m)/d(l_n) reads, and of G_(I_m I_n), G_(J_m J_n),
# G_(I_m J_n) and G_(J_m I_n), which d^2 V/d(l_m)d(l_n) reads
_m, _n = np.indices((6, 6))
_DDIHEDRAL_ENTRIES = np.concatenate([_EDGE_ENTRIES[:18], (
    5 * np.stack([_I[_n], _J[_n], _J[_n], _I[_n]])
    + np.stack([_K[_m], _L[_m], _K[_m], _L[_m]])).ravel()])    # after G_KL, G_KK, G_LL
_D2VOLUME_ENTRIES = (5 * np.stack([_I[_m], _J[_m], _I[_m], _J[_m]])
                     + np.stack([_I[_n], _J[_n], _J[_n], _I[_n]])).ravel()


class InadmissibleMetricError(ValueError):
    """Lengths do not embed as nondegenerate Euclidean simplices; the message names the
    worst tet where there is one."""


def _as_lengths(lengths) -> np.ndarray:
    l = np.asarray(lengths, dtype=float)
    if l.shape[-1] != 6:
        raise ValueError(f"expected trailing axis of 6 lengths, got shape {l.shape}")
    return l


def _gram_cofactors(l, n):
    """2g (..., 6), the first ``n`` of its cofactors, and det 2g = 8 det g = CM3."""
    q = l * l
    t = q[..., _GRAM]
    g2 = t[..., :6] + t[..., 6:]
    g2[..., 3:] -= q[..., 3:]
    t = g2[..., _COF[:, :n]]
    adj = t[..., 0, :] * t[..., 1, :] - t[..., 2, :] * t[..., 3, :]
    return g2, adj, np.add.reduce(t[..., 4, :3] * adj[..., :3], -1)


def cayley_menger(lengths) -> np.ndarray:
    """Determinant of the 5x5 bordered matrix of squared lengths, as 8 det g.

    A degree-six polynomial in the lengths; positive exactly when the
    lengths are realized by a nondegenerate tetrahedron, and equal to
    288 * volume^2 in that case.
    """
    return _gram_cofactors(_as_lengths(lengths), 3)[2]


def _worst_tet(values) -> str:
    """Where ``values``, over the leading axes of a (..., 6) batch, is least:
    the index for one axis (one metric's tets: the tet id), else the index
    tuple (metric index first, tet id last)."""
    flat = int(np.argmin(values))
    index = np.unravel_index(flat, np.shape(values))
    return str(flat) if len(index) <= 1 else str(tuple(int(k) for k in index))


@np.errstate(over="ignore", invalid="ignore")    # made at import: a scope per call costs 3x
def _tet_tests(l, n):
    """(ok, margins, CM3, 2g, its first ``n`` cofactors) of the tets ``l`` (..., 6): a tet is
    admissible (ok) when its face margins (sum of two sides less the third) and CM3 are
    positive, which rules out nonpositive and non-finite lengths (NaN fails), warning-free."""
    # CM3 > 0 alone does not rule out faces that violate the triangle inequality; with a
    # Gram minor > 0 it does (Sylvester), but the CM3 of a collinear face rounds either way
    sides = l[..., _FACE_EDGES]
    margins = (np.add.reduce(sides, -1) - 2.0 * np.maximum.reduce(sides, -1)).min(-1)
    g2, adj, cm = _gram_cofactors(l, n)
    return np.minimum(margins, cm) > 0.0, margins, cm, g2, adj


def _admissible(tets) -> np.ndarray:
    """(...) bool: is each metric of tets (..., T, 6) admissible (:func:`_admissible_cm`'s test)."""
    return _tet_tests(tets, 3)[0].all(-1)


def _admissible_cm(l, n=3):
    """CM3, 2g and the first ``n`` cofactors of 2g for the tets ``l`` (..., 6); raise
    naming the worst tet on a nonpositive or non-finite length, a degenerate face or CM3 <= 0.

    For one axis of tets, as in ``Complex.tet_lengths`` output of one
    metric, the worst tet is named by its tet id; in a batch of metrics,
    by its index tuple.
    """
    ok, margins, cm, g2, adj = _tet_tests(l, n)
    if not ok.all():
        raise _inadmissible(l, margins, cm)
    return cm, g2, adj


def _inadmissible(l, margins, cm) -> InadmissibleMetricError:
    """The error for tets ``l`` (..., 6) that fail the test of :func:`_tet_tests`, from its
    margins and CM3: it names the worst tet (see :func:`_admissible_cm`)."""
    return InadmissibleMetricError(
        "edge lengths must be positive and finite"
        if not (l.min(initial=np.inf) > 0.0 and l.max(initial=0.0) < np.inf) else
        f"metric not admissible: tet {_worst_tet(margins)} has a degenerate face triangle"
        if not margins.min() > 0.0 else    # NaN fails too, as from inf - inf
        f"metric not admissible: tet {_worst_tet(cm)} has CM3 = {float(cm.min()):.6g} <= 0")


@dataclass(frozen=True, init=False)
class TetGeometry:
    """The per-tetrahedron geometry every curvature report reads, for a batch
    of length vectors; :attr:`dual`, :attr:`ddihedrals` and :attr:`d2volume`
    are computed from it when read."""

    lengths: np.ndarray        # (..., 6)
    cm3: np.ndarray            # (...)
    volume: np.ndarray         # (...)
    dihedrals: np.ndarray      # (..., 6)
    dvolume: np.ndarray        # (..., 6) d(volume)/d(lengths)
    cm_inverse: np.ndarray     # (..., 5, 5) G = A^-1, border row and column 0

    def __init__(self, lengths, cm3, volume, dihedrals, dvolume, cm_inverse):
        set_fields(locals())

    @property
    def dual(self) -> np.ndarray:
        """Signed dual-area piece of each edge, (..., 6).

        The edge receives (h_{e<f} h_{f<t} + h_{e<f'} h_{f'<t}) / 2 from
        its two faces f, f' in the tetrahedron.  h_{f<t} (face slot k) is the
        signed distance from the tet circumcenter to the face plane, positive
        when the circumcenter lies on the same side as the opposite vertex k:
        G_0k * 3V / A_k, the circumcenter's barycentric coordinate times the
        height of vertex k, with the face area A_k by Heron's formula.
        h_{e<f} (slot j of face k, opposite face vertex j) is the signed
        distance from the face circumcenter to the edge, positive on the side
        of the opposite vertex; it equals (l/2) cot(opposite angle).
        """
        cycle = self.lengths[..., _FACE_CYCLE]
        sides, sq = cycle[..., :3], cycle * cycle
        a, b, c = cycle[..., 0], cycle[..., 1], cycle[..., 2]
        s = 0.5 * (a + b + c)
        areas = np.sqrt(s * (s - a) * (s - b) * (s - c))
        # (l_e/2) cot(opposite angle) without trig: cot = (b^2+c^2-a^2)/(4A)
        h_edge = sides * (sq[..., 1:4] + sq[..., 2:] - sq[..., :3]) / (8.0 * areas[..., None])
        h_face = self.cm_inverse[..., 0, 1:] * (3.0 * self.volume[..., None] / areas)
        pieces = (h_edge * h_face[..., None]).reshape(h_face.shape[:-1] + (12,))
        return 0.5 * np.add.reduce(pieces[..., _EDGE_SLOTS], -1)

    def _entries(self, cells) -> np.ndarray:
        """G at the flat cells ``cells`` of its 5x5 block, (..., len(cells)): one gather."""
        G = self.cm_inverse
        return G.reshape(G.shape[:-2] + (25,))[..., cells]

    @property
    def ddihedrals(self) -> np.ndarray:
        """Jacobian d(beta_m)/d(l_n) of the dihedral angles, (..., 6, 6), row m.

        With (k, l) the vertices off edge m and (i, j) the ends of edge n, the derivative
        of cos beta_m = G_kl / sqrt(G_kk G_ll) by dG/dl_n (module docstring) is
        -2 l_n B_mn / sqrt(G_kk G_ll), B_mn = G_ik (G_jl - a_k G_jk) + G_il (G_jk - a_l G_jl)
        with a_k = G_kl / G_kk and a_l = G_kl / G_ll.  Jacobi's complementary minor gives
        G_kk G_ll - G_kl^2 = 2 l_m^2 / CM3, so sin beta_m sqrt(G_kk G_ll) = l_m / (12 V)
        and d(beta_m)/d(l_n) = 24 V (l_n / l_m) B_mn, without trigonometry.
        """
        e = self._entries(_DDIHEDRAL_ENTRIES)
        kl, kk, ll = e[..., :6, None], e[..., 6:12, None], e[..., 12:18, None]
        ik, jl, jk, il = np.moveaxis(e[..., 18:].reshape(e.shape[:-1] + (4, 6, 6)), -3, 0)
        l = self.lengths
        scale = (24.0 * self.volume)[..., None, None] * (l[..., None, :] / l[..., :, None])
        return scale * (ik * (jl - (kl / kk) * jk) + il * (jk - (kl / ll) * jl))

    @property
    def d2volume(self) -> np.ndarray:
        """Hessian d^2 V/d(l_m)d(l_n) of the volume, (..., 6, 6).

        From dV/dl_m = 2 l_m V G_(i_m j_m) and dG/dl_n (module docstring):
        delta_mn 2 V G_(i_m j_m) + dV_m dV_n / V
        - 4 V l_m l_n (G_(i_m i_n) G_(j_m j_n) + G_(i_m j_n) G_(j_m i_n)).
        """
        ii, jj, ij, ji = np.moveaxis(self._entries(_D2VOLUME_ENTRIES).reshape(
            self.cm3.shape + (4, 6, 6)), -3, 0)
        V, l, dv = self.volume[..., None, None], self.lengths, self.dvolume
        out = dv[..., :, None] * dv[..., None, :] / V \
            - (4.0 * V) * (l[..., :, None] * l[..., None, :]) * (ii * jj + ij * ji)
        out[..., range(6), range(6)] += 2.0 * self.volume[..., None] * ij[..., range(6), range(6)]
        return out


def tet_geometry(lengths) -> TetGeometry:
    """Compute the :class:`TetGeometry` bundle for admissible lengths: the test of
    :func:`_admissible_cm`, which raises on inadmissible ones, then :func:`_kernel`."""
    l = _as_lengths(lengths)
    return _kernel(l, *_admissible_cm(l, 6))


def _kernel(l, cm, g2, adj) -> TetGeometry:
    """The :class:`TetGeometry` of tets ``l`` (..., 6) that passed :func:`_tet_tests`, from
    that test's CM3, 2g and cofactors of 2g: every kernel evaluation runs here.

    G (..., 5, 5) is -adj(2g) / CM3 = -g^-1 / 2 by the module docstring's Gram identities.
    With (k, l) the vertices off edge ij: cos beta_ij = G_kl / sqrt(G_kk G_ll) and
    dV/dl_ij = 2 l_ij V G_ij.
    """
    volume = np.sqrt(cm / 288.0)
    h = -adj / cm[..., None]
    H, d = h[..., _SYM3], 0.5 * g2[..., :3]
    y, r = -np.add.reduce(H * d[..., None, :], -1), np.add.reduce(H, -1)
    G = np.concatenate([-np.add.reduce(y * d, -1, keepdims=True),
                        1.0 - np.add.reduce(y, -1, keepdims=True), y,
                        np.add.reduce(r, -1, keepdims=True), -r, h], axis=-1)[..., _SYM5]
    e = G.reshape(cm.shape + (25,))[..., _EDGE_ENTRIES]
    cos = e[..., :6] / np.sqrt(e[..., 6:12] * e[..., 12:18])
    return TetGeometry(lengths=l, cm3=cm, volume=volume, cm_inverse=G,
                       dihedrals=np.arccos(np.minimum(np.maximum(cos, -1.0), 1.0)),
                       dvolume=2.0 * l * volume[..., None] * e[..., 18:])


# ---------------------------------------------------------------------------
# complex-level helpers


def is_admissible(c: Complex, lengths) -> bool:
    """True when every tetrahedron is realizable: positive lengths, faces
    satisfying strict triangle inequalities, and CM3 > 0."""
    lengths = np.asarray(lengths, dtype=float)
    return lengths.shape == (c.num_edges,) and bool(_admissible(c.tet_lengths(lengths)))


def assert_admissible(c: Complex, lengths) -> np.ndarray:
    """Return per-tet CM3 values; raise with the worst tet on failure."""
    return _admissible_cm(c.tet_lengths(lengths))[0]

