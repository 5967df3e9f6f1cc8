"""Curvature functionals on piecewise flat 3-manifolds and their derivatives.

The basic objects, for a complex with metric (edge length vector) l:

* edge curvature  K_e = (2*pi - sum of incident dihedral angles) * l_e
* vertex curvature K_v = (1/2) sum_{e at v} K_e
* totals L = sum l_e, V = sum of tet volumes, EHR = sum K_e,
  and the scale-invariant normalizations LEHR = EHR / L and
  VEHR = EHR / V^(1/3).

:func:`functionals` is the one evaluation of a metric: a
:class:`CurvatureReport` from one kernel call.  Each read of kernel output is
written once, over leading axes, in :class:`_Reads`: vertex sums, V_e, dual
lengths, the Laplacian, gradients (from one normalization table; EHR has length
gradient K_e / l_e), residuals, and the exact conformal Hessian, csc Newton
Jacobian and length Hessian.  A kernel call becomes reads in one place, the
private :class:`_Stack` of one metric (a report is one, frozen) or of a stack (S, E),
each row bitwise its report's.  Descents, the csc solver and the sweep read
the stack of each round's first admissible points (:func:`_first_admissible`).
The module-level gradients and residuals reuse the last report built, which
:func:`functionals` keeps, so each costs one kernel call per metric.
The conformal Hessian is the paper's Laplacian formula at every metric:
H_u(EHR) = -8 Delta + E(K), with Delta the Laplacian of the dual-length
weights l*_e / l_e and E(K) the edge matrix of the curvatures
(Glickenstein, *Discrete conformal variations and scalar curvature on
piecewise flat two and three dimensional manifolds*, JDG 2011); LEHR and
VEHR add their normalization's Hessian and rank-one terms in the
gradients, which vanish at csc metrics, where the LEHR Hessian is
4 (-2 Delta + N) / L.  The length Hessian is H(EHR) = -sum_t d(beta_t)/dl
(Schlaefli: dEHR/dl_e = K_e / l_e) from the per-tet dihedral Jacobians of
the kernel, with the same normalization and rank-one terms, and for VEHR the
per-tet volume Hessians.  Finite differences remain for the sweep's Hessian
columns and as test oracles: lengths (..., E) map to functional values (...)
in one kernel call, so each stencil (``hessian_fd``, ``gradient_fd``) is one
stacked call.

Conventions
-----------
Every entry that takes a functional reads its name, "ehr", "lehr" or "L",
"vehr" or "V" in any case, through one resolver, which raises ``ValueError``
on anything else.

The factor map scales the edge between v and v' by exp((f_v + f_v')/2).
First derivatives (``grad_conformal`` and the reads ``grad_conformal`` and
``csc_jacobian``) are taken with respect to the factors f.  Conformal second
derivatives (the read ``conformal_hessian``, ``lehr_conformal_hessian_csc``
and ``conformal_hessian_fd``) are taken with respect to the per-vertex log
scale factors u = f / 2, under which the edge scales as exp(u_v + u_v');
each entry is therefore 4 times the corresponding f-derivative.  All
reference eigenvalues quoted in the tests use the u convention.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .complexes import Complex, _bincount, _cached, set_fields
from . import geometry
from .conformal import induced_lengths
from .geometry import InadmissibleMetricError


class _Reads:
    """The reads of kernel output: vertex sums, V_e, dual lengths, the Laplacian, gradients,
    residuals and the exact Hessians and csc Jacobian, each computed when first read or
    called, and read-only where kept.

    One class holds each formula, over leading axes: a :class:`CurvatureReport` reads one
    metric (arrays (E,), totals floats) and a :class:`_Stack` one metric alike or S metrics
    (arrays (S, E), totals columns (S, 1)), each row bitwise its metric's report.  Both have
    the fields ``complex``, ``geometry``, ``lengths``, ``k_edge``, ``length``, ``volume`` and
    ``ehr``.
    """

    @_cached
    def k_vertex(self) -> np.ndarray:
        """(..., V) vertex curvatures K_v = (1/2) sum of incident K_e."""
        return _read_only(_vertex_half_sums(self.complex, self.k_edge))

    @_cached
    def l_vertex(self) -> np.ndarray:
        """(..., V) L_v = (1/2) sum of incident lengths."""
        return _read_only(_vertex_half_sums(self.complex, self.lengths))

    @_cached
    def v_vertex(self) -> np.ndarray:
        """(..., V) V_v = (1/3) sum of h_{f<t} A_f = 3 V_t alpha_f over the faces f at v of its
        tets t, i.e. sum_t V_t (1 - alpha_v), alpha = G[0, 1:] (sum 1, see geometry)."""
        geo, c = self.geometry, self.complex
        per_tet = geo.volume[..., None] * (1.0 - geo.cm_inverse[..., 0, 1:])
        return _read_only(_bincount(c.tet_vertices, per_tet, c.num_vertices))

    @_cached
    def _grad_volume(self) -> np.ndarray:
        """(..., E) dV/dl_e, the tets' dvolume summed: V_e and the VEHR length Hessian read it."""
        return _read_only(self.complex.edge_sum(self.geometry.dvolume))

    @_cached
    def v_edge(self) -> np.ndarray:
        """(..., E) V_e = l_e dV/dl_e."""
        return _read_only(self.lengths * self._grad_volume)

    @_cached
    def dual_length(self) -> np.ndarray:
        """(..., E) signed dual areas l*_e, summed from :attr:`TetGeometry.dual`."""
        return _read_only(self.complex.edge_sum(self.geometry.dual))

    def laplacian(self) -> np.ndarray:
        """(..., V, V) discrete Laplacian; see :func:`laplacian_matrix`."""
        w = self.dual_length / self.lengths
        return _edge_matrix(self.complex, w, -w)

    def _normalization(self, name: str, per_vertex: bool):
        """(N, lambda, N_x, s) of F = EHR / N for the ``FUNCTIONALS`` key ``name``, N_x per
        vertex (N_v) or per edge (N_e): dF/dl_e = (K_e - lambda N_e) / (l_e N), dF/df_v =
        (K_v - lambda N_v) / N, and the equations K_e = lambda N_e and K_v = lambda N_v.  The
        total s = L (LEHR) or 3V (VEHR), 1 for EHR, gives grad_f N / N = N_v / s."""
        _, N, lam = _scalars(name, self.length, self.volume, self.ehr)
        if name == "ehr":
            return N, lam, 0.0, 1.0
        if name == "lehr":
            return N, lam, self.l_vertex if per_vertex else self.lengths, self.length
        return N, lam, self.v_vertex if per_vertex else self.v_edge, 3.0 * self.volume

    def _gradient(self, name: str, per_vertex: bool) -> np.ndarray:
        """dF/df (..., V) or dF/dl (..., E) of the functional of the ``FUNCTIONALS`` key
        ``name``, kept read-only once computed: a conformal Newton point reads it, then its
        Hessian."""
        key = ("_gradient_vertex_" if per_vertex else "_gradient_edge_") + name
        g = self.__dict__.get(key)
        if g is None:
            N, lam, n_x, _ = self._normalization(name, per_vertex)
            g = (self.k_vertex - lam * n_x) / N if per_vertex else \
                (self.k_edge - lam * n_x) / (self.lengths * N)
            g = self.__dict__[key] = _read_only(g)
        return g

    def grad_lengths(self, which: str) -> np.ndarray:
        """Length-space gradient, (..., E), a writable copy; see :func:`grad_lengths`."""
        return self._gradient(_functional(which), False).copy()

    def grad_conformal(self, which: str) -> np.ndarray:
        """Gradient in the conformal factors, (..., V), a writable copy; see
        :func:`grad_conformal`."""
        return self._gradient(_functional(which), True).copy()

    def einstein_residual(self, which: str) -> np.ndarray:
        """Per-edge residual K_e - lambda N_e, (..., E); see :func:`einstein_residual`."""
        _, lam, n_edge, _ = self._normalization(_functional(which), False)
        return self.k_edge - lam * n_edge

    def csc_residual(self, which: str) -> np.ndarray:
        """Per-vertex residual K_v - lambda N_v, (..., V); see :func:`csc_residual`."""
        _, lam, n_vertex, _ = self._normalization(_functional(which), True)
        return self.k_vertex - lam * n_vertex

    def conformal_hessian(self, which: str) -> np.ndarray:
        """The Hessian H_u of u -> F(exp(u_v + u_v') * l_e) at u = 0, (..., V, V), for F =
        EHR, LEHR or VEHR; ``conformal_hessian_fd`` is its finite-difference oracle.

        H_u(EHR) = -8 Delta + E(K) at every metric, with Delta the Laplacian
        of the weights l*_e / l_e and E(x) the edge matrix of x (off-diagonal
        x_e, diagonal the sum over incident edges).  For F = EHR / N and the
        total M = L (LEHR) or V (VEHR), with g = grad_u M / M = 2 L_v / L
        resp. 2 V_v / (3V):  H_u(F) = (H_u(EHR) - lambda H_u(M)) / N
        - (grad F g^T + g grad F^T), plus (2 lambda / (3 V N)) grad V grad V^T
        for VEHR.  H_u(L) = E(l); H_u(V) sums the 4x4 blocks
        4 V_t [1 1^T - 1 a^T - a 1^T + diag a - G_00 G_vv], a = G[0, 1:]
        (Blumenthal's Gram identities, see geometry).  At a csc metric
        grad F = 0 and the LEHR Hessian is the paper's 4 (-2 Delta + N) / L.
        """
        which = _functional(which)
        c = self.complex
        N, lam, _, _ = self._normalization(which, True)
        w = 8.0 * self.dual_length / self.lengths
        x = self.k_edge - lam * self.lengths if which == "lehr" else self.k_edge
        H = _edge_matrix(c, x - w, x + w)
        if which == "vehr":
            G, n, tv = self.geometry.cm_inverse, c.num_vertices, c.tet_vertices
            a = G[..., 0, 1:]
            blocks = 1.0 - a[..., :, None] - a[..., None, :] - G[..., :1, :1] * G[..., 1:, 1:]
            blocks.reshape(-1, 16)[:, ::5] += a.reshape(-1, 4)    # the diagonals
            blocks *= ((4.0 * lam) * self.geometry.volume)[..., None, None]
            H -= _bincount(tv[:, :, None] * n + tv[:, None, :], blocks, n * n).reshape(H.shape)
        H /= _lift(N, 1)    # N = 1 for EHR: exact
        return self._rank_one_tail(which, True, H)

    def length_hessian(self, which: str) -> np.ndarray:
        """The Hessian of F = EHR, LEHR or VEHR in the edge lengths, (..., E, E);
        ``hessian_fd_lengths`` is its finite-difference oracle.

        dEHR/dl_e = K_e / l_e (Schlaefli), so H(EHR) = -sum_t d(beta_t)/dl, each tet's
        :attr:`geometry.TetGeometry.ddihedrals` added to the cells of its edge pairs.  For
        F = EHR / N:  H(F) = (H(EHR) - F H(N) - grad F grad N^T - grad N grad F^T) / N, with
        N = L and H(L) = 0, or N = V^(1/3) and H(N) = N (H(V) / (3V) - 2 grad V grad V^T /
        (9 V^2)), H(V) the tets' :attr:`geometry.TetGeometry.d2volume` added alike.  With
        g = grad N / N (1 / L resp. grad V / (3V)) and lambda = EHR / (3V), the VEHR terms
        are -lambda H(V) / N in the one scatter and (2 lambda / (3 V N)) grad V grad V^T.
        """
        which = _functional(which)
        geo, E, batch = self.geometry, self.complex.num_edges, self.lengths.shape[:-1]
        cells = self.complex._edge_pair_cells
        N, lam, _, _ = self._normalization(which, False)
        per_tet = geo.ddihedrals + _lift(lam, 2) * geo.d2volume if which == "vehr" else \
            geo.ddihedrals
        H = _bincount(cells, per_tet.reshape(batch + cells.shape), E * E).reshape(batch + (E, E))
        H /= -_lift(N, 1)
        return self._rank_one_tail(which, False, H)

    def _rank_one_tail(self, which: str, conformal: bool, H) -> np.ndarray:
        """Either exact Hessian of F = EHR / N from its other terms H / N, in u (grad_u = 2
        grad_f) or in the lengths: adds -(grad F g^T + g grad F^T), g = grad N / N, and for
        VEHR (2 lambda s / N) g g^T (grad V = s g), then symmetrizes (EHR: only that)."""
        if which != "ehr":
            N, lam, n_x, s = self._normalization(which, conformal)
            if conformal:
                grad, g = 2.0 * self._gradient(which, True), 2.0 * n_x / s
            else:
                grad = self._gradient(which, False)
                g = np.full(grad.shape, 1.0 / s) if which == "lehr" else self._grad_volume / s
            outer = grad[..., :, None] * g[..., None, :]    # g grad^T is its transpose, bitwise
            H -= outer + outer.swapaxes(-1, -2)
            if which == "vehr":
                H += _lift(2.0 * lam * s / N, 1) * (g[..., :, None] * g[..., None, :])
        return 0.5 * (H + H.swapaxes(-1, -2))

    def csc_jacobian(self, which: str) -> np.ndarray:
        """Jacobian of :meth:`csc_residual` with respect to the factors f, (..., V, V).

        Row v holds the derivatives of r_v.  The residual is r = N grad_f F
        with (F, N) = (EHR, 1), (LEHR, L) and (VEHR, V^(1/3)), so
        J = (N/4) H_u(F) + r g^T with g = grad_f(N) / N, which is 0, L_v / L,
        resp. V_v / (3V).
        """
        which = _functional(which)
        N, lam, n_vertex, s = self._normalization(which, True)
        J = 0.25 * _lift(N, 1) * self.conformal_hessian(which)
        if which == "ehr":
            return J
        return J + (self.k_vertex - lam * n_vertex)[..., :, None] * (n_vertex / s)[..., None, :]


def _lift(x, axes: int):
    """A total of one metric (a float, returned as it is) or a stack's column (S, 1) of them
    with ``axes`` more axes, to scale arrays that have that many more axes than (..., E)."""
    return x.reshape(x.shape + (1,) * axes) if isinstance(x, np.ndarray) else x


@dataclass(frozen=True, init=False)
class CurvatureReport(_Reads):
    """Every derived quantity of a (complex, metric) pair, from one kernel call.

    ``geometry`` is the :class:`TetGeometry` of that call.  The edge
    curvatures and the totals are computed with the report; ``k_vertex``,
    ``l_vertex``, ``v_vertex``, ``v_edge`` and ``dual_length`` are
    computed when first read and then kept, so a caller pays only for
    the fields it reads.  Every array is read-only: a report may be shared
    (see :func:`functionals`).

    Identities (tested): sum(k_vertex) = ehr, sum(l_vertex) = length,
    sum(v_vertex) = 3 * volume, sum(v_edge) = 3 * volume.
    """

    complex: Complex
    geometry: geometry.TetGeometry
    lengths: np.ndarray     # (E,) the metric itself
    k_edge: np.ndarray      # (E,) edge curvatures K_e
    length: float           # total edge length L
    volume: float           # total volume V
    ehr: float              # sum of edge curvatures
    lehr: float             # ehr / length
    vehr: float             # ehr / volume**(1/3)

    def __init__(self, complex, geometry, lengths, k_edge, length, volume, ehr, lehr, vehr):
        set_fields(locals())

    def bounds(self) -> BoundsReport:
        """The edge-degree bounds on LEHR and the fatness bound on VEHR."""
        deg = int(self.complex.edge_degrees.max())
        lower = 2.0 * np.pi - np.pi * deg
        fat = self.volume / self.length ** 3
        vehr_lower = min(0.0, lower) * fat ** (-1.0 / 3.0)
        return BoundsReport(
            max_edge_degree=deg,
            lehr=self.lehr,
            lehr_lower=lower,
            lehr_upper=2.0 * np.pi,
            fatness=fat,
            vehr=self.vehr,
            vehr_lower=vehr_lower,
            lehr_within_bounds=bool(lower - 1e-12 <= self.lehr <= 2.0 * np.pi + 1e-12),
            vehr_within_bounds=bool(self.vehr >= vehr_lower - 1e-12),
        )

    def to_text(self) -> str:
        """Structured key-value serialization with 12 significant digits."""
        return _key_value_text(self, ("length", "volume", "ehr", "lehr", "vehr", "k_edge",
                                      "k_vertex", "l_vertex", "v_vertex", "v_edge", "dual_length"))


def _curvatures(c: Complex, lengths, geo=None):
    """The per-tet geometry of lengths (..., E), from one kernel call unless ``geo`` is that
    call's output already, and their edge curvatures K_e (..., E)."""
    lengths = np.asarray(lengths, dtype=float)
    if geo is None:
        geo = geometry.tet_geometry(c.tet_lengths(lengths))
    return geo, (2.0 * np.pi - c.edge_sum(geo.dihedrals)) * lengths


def _vertex_half_sums(c: Complex, per_edge) -> np.ndarray:
    """(..., V) half sums over each vertex's edges of a per-edge array (..., E)."""
    return _bincount(c.edge_vertices.ravel(), (0.5 * per_edge).repeat(2, -1), c.num_vertices)


def _edge_matrix(c: Complex, off, diag=None) -> np.ndarray:
    """(..., V, V) sum over edges (a, b) of ``off`` (..., E) at (a, b) and (b, a) and of
    ``diag`` at (a, a) and (b, b); one ``np.bincount``."""
    n = c.num_vertices
    w = np.concatenate([off, off] if diag is None else [off, off, diag, diag], -1)
    return _bincount(c._edge_cells[:w.shape[-1]], w, n * n).reshape(w.shape[:-1] + (n, n))


def ehr_value(c: Complex, lengths):
    """EHR = sum of K_e: lengths (..., E) -> (...); one metric gives a scalar."""
    return _curvatures(c, lengths)[1].sum(axis=-1)


def lehr_value(c: Complex, lengths):
    """LEHR = EHR / L: lengths (..., E) -> (...)."""
    return ehr_value(c, lengths) / np.add.reduce(lengths, -1)


def vehr_value(c: Complex, lengths):
    """VEHR = EHR / V^(1/3): lengths (..., E) -> (...)."""
    geo, k_edge = _curvatures(c, lengths)
    return k_edge.sum(axis=-1) / geo.volume.sum(axis=-1) ** (1.0 / 3.0)


FUNCTIONALS = {"ehr": ehr_value, "lehr": lehr_value, "vehr": vehr_value}

_SPELLINGS = {"ehr": "ehr", "lehr": "lehr", "l": "lehr", "vehr": "vehr", "v": "vehr"}


def _functional(which, normalized: bool = False) -> str:
    """The key in FUNCTIONALS of a functional named by its name or by its normalization's
    letter ("L", "V"), in any case: ``_SPELLINGS`` maps each lower-cased spelling.
    Raises ``ValueError`` on any other input, and with ``normalized=True`` also on EHR."""
    name = _SPELLINGS.get(which.lower())
    if name is None or (normalized and name == "ehr"):
        raise ValueError(f"unknown functional {which!r}"
                         + (": expected 'L' or 'V'" if normalized else ""))
    return name


_live = None    # the last report built; released before the next one is built


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(False)    # write=False, positional: the keyword costs twice the call
    return a


def functionals(c: Complex, lengths) -> CurvatureReport:
    """The :class:`CurvatureReport` of one admissible metric (E,): one kernel call, and the
    one place where a report is built.

    A call with the same complex object and byte-identical lengths as the last
    report built returns that report, held or not: one report is kept, so the
    wrappers below cost one kernel call per metric.  It is released before the
    next one is built, so a build never overlaps the report it replaces.  The
    report owns a read-only copy of its lengths, and its kernel arrays are read-only.
    """
    global _live
    lengths = np.asarray(lengths, dtype=float)
    if lengths.shape != (c.num_edges,):
        raise ValueError(f"functionals takes one metric of shape ({c.num_edges},), got shape "
                         f"{lengths.shape}; for a batch use ehr_value, lehr_value or vehr_value")
    if _live is not None and _live.complex is c and _live.lengths.tobytes() == lengths.tobytes():
        return _live
    _live = None
    st = _Stack(c, lengths)
    for a in (*vars(st.geometry).values(), st.k_edge):    # the six kernel arrays and K_e
        a.setflags(False)
    _live = CurvatureReport(c, st.geometry, st.lengths, st.k_edge, st.length, st.volume,
                            st.ehr, st.lehr, st.vehr)
    return _live


def _totals(lengths, geo, k_edge) -> tuple:
    """The total length, volume and EHR of a metric (E,), as floats, or of metrics (S, E), as
    columns (S, 1): one reduction of each array, which sums each row in the order it sums
    that row alone."""
    if lengths.ndim == 1:    # float() of a numpy scalar is cheaper than its tolist()
        return (float(np.add.reduce(lengths)), float(np.add.reduce(geo.volume)),
                float(np.add.reduce(k_edge)))
    return tuple(np.add.reduce(a, -1, keepdims=True) for a in (lengths, geo.volume, k_edge))


def _scalars(name: str, length, volume, ehr):
    """(F, N, lambda) at totals L, V, EHR of the ``FUNCTIONALS`` key ``name``: F = EHR / N
    with N = 1, L or V^(1/3), and lambda = 0, EHR / L or EHR / (3V).  Reports, stacks and
    descents take every value and normalization from here: the totals of one metric (floats)
    or arrays of a stack's, each metric's arithmetic its own.  V^(1/3) is Python's pow, one
    metric at a time, since numpy's vectorized pow is up to 2 ulp off."""
    if name == "ehr":
        return ehr, 1.0, 0.0
    if name == "lehr":
        return ehr / length, length, ehr / length
    N = volume ** (1.0 / 3.0) if isinstance(volume, float) else \
        (volume.astype(object) ** (1.0 / 3.0)).astype(float)
    return ehr / N, N, ehr / (3.0 * volume)


class _Stack(_Reads):
    """The reads of admissible metrics without a report: one metric (E,) with float totals,
    as a report reads it, or a stack (S, E) with arrays (S, ...) and the totals and values
    ``length``, ``volume``, ``ehr``, ``lehr`` and ``vehr`` as columns (S, 1); ``lehr`` and
    ``vehr`` are computed when first read.

    ``_Stack(c, lengths)`` makes one kernel call, which raises if a metric is inadmissible;
    given the read-only metrics' kernel output ``geo``, as :func:`_first_admissible` has it,
    it makes none; either way it computes K_e.  The kernel reads the tets in C order, so each
    row of a per-tet array sums in the order of its metric alone.  Its lengths and the reads
    it keeps are read-only; :func:`functionals` freezes a report's kernel arrays, a stack's
    are left as they are, which saves a descent round a microsecond."""

    def __init__(self, c: Complex, lengths, geo=None):
        if geo is None:
            lengths = _read_only(np.array(lengths, dtype=float))
            geo = geometry.tet_geometry(np.ascontiguousarray(c.tet_lengths(lengths)))
        self.complex, self.lengths = c, lengths
        self.geometry, self.k_edge = _curvatures(c, lengths, geo)
        self.length, self.volume, self.ehr = _totals(lengths, self.geometry, self.k_edge)

    @_cached
    def lehr(self):
        return _scalars("lehr", self.length, self.volume, self.ehr)[0]

    @_cached
    def vehr(self):
        return _scalars("vehr", self.length, self.volume, self.ehr)[0]


def _firsts(flags, sizes):
    """(k, rows) for flags cut into runs of ``sizes``: each run's index of its first True
    (its size if none), and the list index of each such flag."""
    k, rows, start = [], [], 0
    for size in sizes:
        run = flags[start:start + size]
        k.append(run.index(True) if True in run else size)
        if k[-1] < size:
            rows.append(start + k[-1])
        start += size
    return k, rows


def _first_admissible(c: Complex, lengths, sizes):
    """The first admissible metric of each run of a stack (R, E) of floats cut into consecutive
    runs of ``sizes`` metrics, and its reads: one admissibility test of the stack and at most
    one kernel call, on those metrics, handed their CM3, 2g and cofactors; nothing raises.

    Returns (k, stack): each run's index of its first admissible metric (its size if none),
    and the :class:`_Stack` of read-only copies of those metrics, each row bitwise that
    metric's own reads, None without any.  One metric is read without a stack axis.
    """
    one = len(lengths) == 1    # a single descent's round: its tets (T, 6), index ``...``
    tets = c.tet_lengths(lengths[0] if one else lengths)
    ok, _, cm, g2, adj = geometry._tet_tests(tets, 6)
    k, rows = _firsts(ok.reshape(-1, ok.shape[-1]).all(-1).tolist(), sizes)
    if not rows:
        return k, None
    i = rows[0] if len(rows) == 1 else np.array(rows)    # one index array for every gather
    at = ... if one else i
    kept = _read_only(lengths.take(i, 0))
    return k, _Stack(c, kept, geometry._kernel(tets[at], cm[at], g2[at], adj[at]))


def _first_points(c: Complex, name: str, lengths, sizes, per_vertex: bool):
    """What a descent reads of the ``FUNCTIONALS`` key ``name`` at the first admissible metric
    of each run (:func:`_first_admissible`): (k, values, at_boundary, gradients, stack).

    Values are each metric's, as its report takes them.  A metric is at the boundary, where
    derivatives mean nothing, when its worst CM3 is below 1e-8 (mean length)^6.  The
    gradients (F, E) are in the lengths, or with ``per_vertex`` in the factors (F, V).
    """
    k, st = _first_admissible(c, lengths, sizes)
    if st is None:
        return k, [], [], None, None
    g, value, cm3, E = st._gradient(name, per_vertex), getattr(st, name), st.geometry.cm3, \
        c.num_edges
    if st.lengths.ndim == 1:    # every CM3 is positive, so Python's min is the reduction's
        return k, [value], [min(cm3.tolist()) < 1e-8 * (st.length / E) ** 6], g[None], st
    at_boundary = [cm < 1e-8 * (length / E) ** 6 for cm, length in
                   zip(np.minimum.reduce(cm3, -1).tolist(), st.length.ravel().tolist())]
    return k, value.ravel().tolist(), at_boundary, g, st


# ---------------------------------------------------------------------------
# gradients


def grad_lengths(c: Complex, lengths, which: str) -> np.ndarray:
    """Analytic length-space gradient of EHR, LEHR or VEHR, shape (E,).

    By the Schlaefli identity the angle terms drop out and
    d(EHR)/dl_e = K_e / l_e.
    """
    return functionals(c, lengths).grad_lengths(which)


def grad_conformal(c: Complex, lengths, which: str) -> np.ndarray:
    """Gradient with respect to the conformal factors f, shape (V,).

    Evaluated at the metric induced by the factors; only the induced
    lengths enter the formulas: d(EHR)/df_v = K_v,
    d(LEHR)/df_v = (K_v - LEHR * L_v) / L, and
    d(VEHR)/df_v = (K_v - EHR/(3V) * V_v) / V^(1/3).
    """
    return functionals(c, lengths).grad_conformal(which)


# ---------------------------------------------------------------------------
# finite-difference Hessians


#: stencil coordinates (points times dimension) handed to ``fun`` per call
_CHUNK_COORDS = 4096


def _steps(x, step, base) -> np.ndarray:
    """Per-coordinate steps: ``step`` broadcast to x, else base * max(|x_i|, 1)."""
    if step is None:
        return base * np.maximum(np.abs(x), 1.0)
    return np.broadcast_to(np.asarray(step, dtype=float), x.shape).copy()


def _stencil_values(fun, x, hs, i, si, j, sj) -> np.ndarray:
    """Values of a vectorized ``fun`` on a stencil around each point x (..., n), shape
    (..., S, m), from its steps hs (..., S, n).

    Point q at step scale s is x with si[q] * hs[s, i[q]] added to
    coordinate i[q], then sj[q] * hs[s, j[q]] added to coordinate j[q]
    (a zero sign leaves a coordinate unchanged): the same arithmetic as
    forming (x + e_i) + e_j.  The S * m points of every x are formed and
    evaluated in chunks (..., q, n) of at most _CHUNK_COORDS coordinates
    (at least one point of every x).
    """
    *batch, S, n = hs.shape
    total = S * len(i)
    chunk = max(1, _CHUNK_COORDS // max(1, n * math.prod(batch)))
    out = np.empty((*batch, total))
    for start in range(0, total, chunk):
        s, q = np.divmod(np.arange(start, min(start + chunk, total)), len(i))
        rows = np.arange(q.size)
        points = np.repeat(x[..., None, :], q.size, axis=-2)
        points[..., rows, i[q]] += si[q] * hs[..., s, i[q]]
        points[..., rows, j[q]] += sj[q] * hs[..., s, j[q]]
        values = fun(points)
        if np.shape(values) != points.shape[:-1]:
            raise ValueError(f"fun must map points {points.shape} to values "
                             f"{points.shape[:-1]}, got shape {np.shape(values)}")
        out[..., start:start + q.size] = values
    return out.reshape(*batch, S, len(i))


def hessian_fd(fun, x, step=None, richardson: bool = False) -> np.ndarray:
    """Central-difference Hessian of a scalar function, symmetrized.

    ``fun`` is vectorized: it maps points (P, n) to values (P,).  The
    2 n^2 + 1 points of the stencil (of both step scales with
    ``richardson=True``) are stacked and handed to ``fun`` in chunks of
    at most 4096 // n points (at least one), formed chunk by chunk, so a
    small stencil is a single call and a large one never holds more than
    about 4096 coordinates at once.

    Per-coordinate steps default to cbrt(machine eps) * max(|x_i|, 1).
    With ``richardson=True`` a two-scale extrapolation removes the
    leading O(h^2) truncation term (used by the golden-value tests, where
    the larger base step eps^(1/6) keeps roundoff small as well).

    If any stencil point is inadmissible (``InadmissibleMetricError``) the
    steps are halved once and the whole stencil is retried; any other
    error propagates.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    eps = np.finfo(float).eps
    h = _steps(x, step, eps ** (1.0 / 6.0) if richardson else eps ** (1.0 / 3.0))

    # the center, x +- h_i e_i, then (x +- h_i e_i) +- h_j e_j for i < j
    iu, ju = np.triu_indices(n, 1)
    diag = np.repeat(np.arange(n), 2)
    i = np.concatenate([[0], diag, np.repeat(iu, 4)])
    j = np.concatenate([[0], diag, np.repeat(ju, 4)])
    si = np.concatenate([[0], np.tile([1, -1], n), np.tile([1, 1, -1, -1], iu.size)])
    sj = np.concatenate([[0], np.zeros(2 * n, int), np.tile([1, -1, 1, -1], iu.size)])

    def build(hvec):
        hs = np.stack([hvec, 2.0 * hvec]) if richardson else hvec[None, :]
        f = _stencil_values(fun, x, hs, i, si, j, sj)
        f0, fd, fo = f[:, :1], f[:, 1:2 * n + 1], f[:, 2 * n + 1:]
        H = np.empty((len(hs), n, n))
        H[:, range(n), range(n)] = (fd[:, 0::2] - 2.0 * f0 + fd[:, 1::2]) / hs ** 2
        H[:, iu, ju] = (fo[:, 0::4] - fo[:, 1::4] - fo[:, 2::4] + fo[:, 3::4]) \
            / (4.0 * hs[:, iu] * hs[:, ju])
        H[:, ju, iu] = H[:, iu, ju]
        return (4.0 * H[0] - H[1]) / 3.0 if richardson else H[0]

    try:
        H = build(h)
    except InadmissibleMetricError:
        H = build(0.5 * h)  # reduce step once, then let failures propagate
    return 0.5 * (H + H.T)


def gradient_fd(fun, x, step=None, richardson: bool = False) -> np.ndarray:
    """Central-difference gradient with steps cbrt(eps) * max(|x_i|, 1).

    x is one point (n,) or a stack (..., n), and the gradient has x's shape.
    ``fun`` is vectorized: it maps the stacked stencil points (..., P, n) to
    values (..., P), where P is 2n (4n with ``richardson=True``).  The points
    are handed to ``fun`` in chunks of at most 4096 coordinates (at least
    one point of every x), so a small stack is a single call.  Each point's
    stencil is the one it has alone, so a stacked gradient equals the
    per-point gradients bitwise wherever ``fun`` is batch-invariant (the
    functionals are); an empty stack (0, n) gives a (0, n) gradient.
    ``richardson=True`` combines two step sizes to cancel the
    O(h^2) truncation term, for use as a high-accuracy oracle against
    analytic gradients; the base step stays at cbrt(eps) so that high
    derivatives near the admissibility boundary cannot dominate.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    h = _steps(x, step, np.finfo(float).eps ** (1.0 / 3.0))
    hs = np.stack([h, 2.0 * h], axis=-2) if richardson else h[..., None, :]
    # x + h_i e_i, x - h_i e_i for each i
    diag = np.repeat(np.arange(n), 2)
    f = _stencil_values(fun, x, hs, diag, np.tile([1, -1], n), diag, np.zeros(2 * n, int))
    g = (f[..., 0::2] - f[..., 1::2]) / (2.0 * hs)
    return (4.0 * g[..., 0, :] - g[..., 1, :]) / 3.0 if richardson else g[..., 0, :]


def hessian_fd_lengths(c: Complex, lengths, which: str,
                       richardson: bool = True) -> np.ndarray:
    """Finite-difference length-space Hessian of a functional at a metric."""
    fun = FUNCTIONALS[_functional(which)]
    return hessian_fd(lambda l: fun(c, l), np.asarray(lengths, dtype=float),
                      richardson=richardson)


def conformal_hessian_fd(c: Complex, lengths, which: str,
                         richardson: bool = True) -> np.ndarray:
    """Finite-difference conformal Hessian, in the u convention.

    Differentiates u -> F(exp(u_v + u_v') * l_e) at u = 0, i.e. with
    respect to per-vertex log scale factors (f = 2u in factor-map terms).
    The extrapolated variant uses a smaller base step than the length
    version: metrics near the admissibility boundary have large high
    derivatives in the conformal directions.
    """
    lengths = np.asarray(lengths, dtype=float)
    fun = FUNCTIONALS[_functional(which)]

    def obj(u):
        return fun(c, induced_lengths(c, lengths, 2.0 * u))

    step = np.finfo(float).eps ** 0.2 if richardson else None
    return hessian_fd(obj, np.zeros(c.num_vertices), step=step,
                      richardson=richardson)


# ---------------------------------------------------------------------------
# exact conformal Hessians and the Laplacian


def laplacian_matrix(c: Complex, lengths) -> np.ndarray:
    """Discrete Laplacian: off-diagonal l*_e / l_e, zero row sums, (V, V).

    Parallel edges between the same vertex pair contribute additively,
    matching the quadratic form sum_e (l*_e/l_e)(x_v - x_v')^2.
    """
    return functionals(c, lengths).laplacian()


def normal_matrix(c: Complex, lengths) -> np.ndarray:
    """Curvature-deviation matrix entering the conformal LEHR Hessian.

    Off-diagonal (K_e - LEHR * l_e)/4 per edge between the pair, diagonal
    (K_v - LEHR * L_v)/2; the diagonal vanishes exactly at constant
    L-scalar curvature metrics.
    """
    rep = functionals(c, lengths)
    N = _edge_matrix(c, 0.25 * rep.einstein_residual("L"))
    N[range(c.num_vertices), range(c.num_vertices)] = 0.5 * rep.csc_residual("L")
    return N


_CSC_TOL = 1e-8    # largest csc residual lehr_conformal_hessian_csc accepts, and the sweep


def lehr_conformal_hessian_csc(c: Complex, lengths) -> np.ndarray:
    """Conformal Hessian of LEHR at a csc metric, u convention.

    Valid only at constant L-scalar curvature metrics (max residual
    checked against 1e-8); the check and the Hessian come from one
    kernel call.  The report's ``conformal_hessian`` (:class:`_Reads`) holds at
    every metric; at a csc metric its rank-one terms vanish and it is the formula
    4 (-2 Delta + N) / L of :func:`laplacian_matrix` and
    :func:`normal_matrix` (the factor 4 from d f = 2 du), which the tests
    check.
    """
    rep = functionals(c, lengths)
    res = float(np.abs(rep.csc_residual("L")).max())
    if res > _CSC_TOL:
        raise ValueError(
            f"metric is not constant L-scalar curvature: max residual {res:.3e} "
            f"> {_CSC_TOL:.1e}")
    return rep.conformal_hessian("lehr")


# ---------------------------------------------------------------------------
# residuals and bounds


def einstein_residual(c: Complex, lengths, which: str) -> np.ndarray:
    """Per-edge Einstein residual; the zero vector iff the metric is Einstein.

    which="L": K_e - LEHR * l_e.  which="V": K_e - EHR/(3V) * V_e.
    """
    return functionals(c, lengths).einstein_residual(which)


def csc_residual(c: Complex, lengths, which: str) -> np.ndarray:
    """Per-vertex constant-scalar-curvature residual.

    which="L": K_v - LEHR * L_v.  which="V": K_v - EHR/(3V) * V_v.
    """
    return functionals(c, lengths).csc_residual(which)


@dataclass(frozen=True, init=False)
class BoundsReport:
    """Degree and fatness bounds together with the actual values."""

    max_edge_degree: int
    lehr: float
    lehr_lower: float      # 2 pi - pi * D_M
    lehr_upper: float      # 2 pi
    fatness: float         # V / L^3
    vehr: float
    vehr_lower: float      # min(0, 2 pi - pi D_M) * fatness^(-1/3)
    lehr_within_bounds: bool
    vehr_within_bounds: bool

    def __init__(self, max_edge_degree, lehr, lehr_lower, lehr_upper, fatness, vehr,
                 vehr_lower, lehr_within_bounds, vehr_within_bounds):
        set_fields(locals())

    def to_text(self) -> str:
        return _key_value_text(self, [f.name for f in dataclasses.fields(self)])


def _key_value_text(record, keys) -> str:
    """A ``key: value`` line per attribute of ``record``: floats and arrays of
    floats with 12 significant digits, integers and flags as ``str`` gives them."""
    def fmt(x):
        return str(x) if isinstance(x, int) else format(float(x), ".12g")

    lines = []
    for key in keys:
        value = getattr(record, key)
        text = fmt(value) if np.ndim(value) == 0 else f"[{', '.join(map(fmt, value))}]"
        lines.append(f"{key}: {text}")
    return "\n".join(lines) + "\n"


def bounds_report(c: Complex, lengths) -> BoundsReport:
    """Evaluate the edge-degree bounds on LEHR and the fatness bound on VEHR."""
    return functionals(c, lengths).bounds()
