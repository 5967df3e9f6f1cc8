"""Curvature functionals on piecewise flat 3-manifolds and their derivatives.

The basic objects, for a complex with metric (edge length vector) l:

* edge curvature  K_e = (2*pi - sum of incident dihedral angles) * l_e
* vertex curvature K_v = (1/2) sum_{e at v} K_e
* totals L = sum l_e, V = sum of tet volumes, EHR = sum K_e,
  and the scale-invariant normalizations LEHR = EHR / L and
  VEHR = EHR / V^(1/3).

Length-space gradients are analytic (EHR has gradient K_e / l_e); the
conformal gradients use the per-vertex quantities L_v and V_v.  Hessians
in length space are obtained by finite differences.  Conformal Hessians
are exact at every admissible metric (``conformal_hessian``): the
dihedral Jacobian and volume Hessian of each tetrahedron
(:attr:`TetGeometry.ddihedrals`, :attr:`TetGeometry.d2volume`) enter the
chain rule H_u = M^T H_l M + B^T diag(l * grad_l F) B, with B the
edge-vertex incidence and M = diag(l) B, assembled per tetrahedron in
vertex space.  The same Hessian gives the exact Newton Jacobian of the
constant scalar curvature equations (``csc_jacobian``).

Conformal coordinate convention
-------------------------------
The factor map scales the edge between v and v' by exp((f_v + f_v')/2).
First derivatives (``grad_conformal``, ``csc_jacobian``) are taken with
respect to the factors f.  Second derivatives (``conformal_hessian``,
``lehr_conformal_hessian_csc`` and ``conformal_hessian_fd``) are taken
with respect to the per-vertex log scale factors u = f / 2, under which
the edge scales as exp(u_v + u_v'); each entry is therefore 4 times the
corresponding f-derivative.  All reference eigenvalues quoted in the
tests use the u convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import Complex, LOCAL_PAIRS
from . import geometry
from .conformal import induced_lengths
from .geometry import InadmissibleMetricError


@dataclass(frozen=True)
class CurvatureReport:
    """Every derived scalar of a (complex, metric) pair.

    Identities (tested): sum(k_vertex) = ehr, sum(l_vertex) = length,
    sum(v_vertex) = 3 * volume, sum(v_edge) = 3 * volume.
    """

    k_edge: np.ndarray      # (E,) edge curvatures K_e
    k_vertex: np.ndarray    # (V,) vertex curvatures K_v
    length: float           # total edge length L
    volume: float           # total volume V
    ehr: float              # sum of edge curvatures
    lehr: float             # ehr / length
    vehr: float             # ehr / volume**(1/3)
    l_vertex: np.ndarray    # (V,) L_v = (1/2) sum of incident lengths
    v_vertex: np.ndarray    # (V,) V_v = (1/3) sum over incident (tet, face) of h_f A_f
    v_edge: np.ndarray      # (E,) V_e = l_e dV/dl_e
    dual_length: np.ndarray  # (E,) signed dual areas l*_e
    lengths: np.ndarray     # (E,) the metric itself

    def _normalization(self, which: str):
        """(lambda, N_e, N_v) of the equations K = lambda N for "L" or "V"."""
        which = which.upper()
        if which == "L":
            return self.lehr, self.lengths, self.l_vertex
        if which == "V":
            return self.ehr / (3.0 * self.volume), self.v_edge, self.v_vertex
        raise ValueError(f"unknown normalization {which!r}")

    def einstein_residual(self, which: str) -> np.ndarray:
        """Per-edge residual K_e - lambda N_e; see :func:`einstein_residual`."""
        lam, n_edge, _ = self._normalization(which)
        return self.k_edge - lam * n_edge

    def csc_residual(self, which: str) -> np.ndarray:
        """Per-vertex residual K_v - lambda N_v; see :func:`csc_residual`."""
        lam, _, n_vertex = self._normalization(which)
        return self.k_vertex - lam * n_vertex

    def to_text(self) -> str:
        """Structured key-value serialization with 12 significant digits."""
        def fmt(x):
            return format(float(x), ".12g")

        lines = []
        for key in ("length", "volume", "ehr", "lehr", "vehr"):
            lines.append(f"{key}: {fmt(getattr(self, key))}")
        for key in ("k_edge", "k_vertex", "l_vertex", "v_vertex", "v_edge",
                    "dual_length"):
            arr = ", ".join(fmt(x) for x in getattr(self, key))
            lines.append(f"{key}: [{arr}]")
        return "\n".join(lines) + "\n"


def _curvatures(c: Complex, lengths):
    """One kernel call: the per-tet geometry and the edge curvatures K_e."""
    lengths = np.asarray(lengths, dtype=float)
    geo = geometry.tet_geometry(c.tet_lengths(lengths))
    return geo, (2.0 * np.pi - c.edge_sum(geo.dihedrals)) * lengths


def edge_curvatures(c: Complex, lengths) -> np.ndarray:
    """K_e = (2 pi - sum of dihedral angles at e) * l_e, shape (E,)."""
    return _curvatures(c, lengths)[1]


def _vertex_half_sums(c: Complex, per_edge) -> np.ndarray:
    half = 0.5 * np.asarray(per_edge, dtype=float)
    return np.bincount(c.edge_vertices.ravel(), np.repeat(half, 2),
                       minlength=c.num_vertices)


def ehr_value(c: Complex, lengths) -> float:
    return float(edge_curvatures(c, lengths).sum())


def lehr_value(c: Complex, lengths) -> float:
    return ehr_value(c, lengths) / float(np.sum(lengths))


def vehr_value(c: Complex, lengths) -> float:
    geo, k_edge = _curvatures(c, lengths)
    return float(k_edge.sum()) / float(geo.volume.sum()) ** (1.0 / 3.0)


FUNCTIONALS = {"ehr": ehr_value, "lehr": lehr_value, "vehr": vehr_value}


def functionals(c: Complex, lengths) -> CurvatureReport:
    """Assemble the full :class:`CurvatureReport` for an admissible metric."""
    return _evaluate(c, lengths)[1]


def _evaluate(c: Complex, lengths):
    """One kernel call: the per-tet geometry and the full report."""
    lengths = np.asarray(lengths, dtype=float)
    geo, k_edge = _curvatures(c, lengths)
    k_vertex = _vertex_half_sums(c, k_edge)
    l_vertex = _vertex_half_sums(c, lengths)

    total_len = float(lengths.sum())
    volume = float(geo.volume.sum())
    ehr = float(k_edge.sum())

    # V_v = (1/3) sum over incident (tet, face) pairs of h_{f<t} A_f
    # (face k of a tet is opposite its local vertex k, so local vertex i
    # lies on every face but face i)
    hA = geo.h_face * geo.areas                       # (T, 4)
    v_vertex = np.bincount(c.tet_vertices.ravel(),
                           ((hA.sum(axis=-1, keepdims=True) - hA) / 3.0).ravel(),
                           minlength=c.num_vertices)

    return geo, CurvatureReport(
        k_edge=k_edge,
        k_vertex=k_vertex,
        length=total_len,
        volume=volume,
        ehr=ehr,
        lehr=ehr / total_len,
        vehr=ehr / volume ** (1.0 / 3.0),
        l_vertex=l_vertex,
        v_vertex=v_vertex,
        v_edge=lengths * c.edge_sum(geo.dvolume),
        dual_length=c.edge_sum(geo.dual),
        lengths=lengths,
    )


# ---------------------------------------------------------------------------
# gradients


def grad_lengths(c: Complex, lengths, which: str) -> np.ndarray:
    """Analytic length-space gradient of EHR, LEHR or VEHR, shape (E,).

    By the Schlaefli identity the angle terms drop out and
    d(EHR)/dl_e = K_e / l_e.
    """
    lengths = np.asarray(lengths, dtype=float)
    which = which.lower()
    geo, k_edge = _curvatures(c, lengths)
    base = k_edge / lengths
    if which == "ehr":
        return base
    if which == "lehr":
        L = float(lengths.sum())
        return (base - k_edge.sum() / L) / L
    if which == "vehr":
        vol = float(geo.volume.sum())
        ehr = float(k_edge.sum())
        return (base - ehr / (3.0 * vol) * c.edge_sum(geo.dvolume)) \
            / vol ** (1.0 / 3.0)
    raise ValueError(f"unknown functional {which!r}")


def grad_conformal(c: Complex, lengths, which: str) -> np.ndarray:
    """Gradient with respect to the conformal factors f, shape (V,).

    Evaluated at the metric induced by the factors; only the induced
    lengths enter the formulas: d(EHR)/df_v = K_v,
    d(LEHR)/df_v = (K_v - LEHR * L_v) / L, and
    d(VEHR)/df_v = (K_v - EHR/(3V) * V_v) / V^(1/3).
    """
    which = which.lower()
    rep = functionals(c, lengths)
    if which == "ehr":
        return rep.k_vertex.copy()
    if which == "lehr":
        return (rep.k_vertex - rep.lehr * rep.l_vertex) / rep.length
    if which == "vehr":
        lam = rep.ehr / (3.0 * rep.volume)
        return (rep.k_vertex - lam * rep.v_vertex) / rep.volume ** (1.0 / 3.0)
    raise ValueError(f"unknown functional {which!r}")


# ---------------------------------------------------------------------------
# finite-difference Hessians


def hessian_fd(fun, x, step=None, richardson: bool = False) -> np.ndarray:
    """Central-difference Hessian of a scalar function, symmetrized.

    Per-coordinate steps default to cbrt(machine eps) * max(|x_i|, 1).
    With ``richardson=True`` a two-scale extrapolation removes the
    leading O(h^2) truncation term (used by the golden-value tests, where
    the larger base step eps^(1/6) keeps roundoff small as well).

    If a neighbor point is inadmissible (``InadmissibleMetricError``) the
    steps are halved once and the whole stencil is retried; any other
    error propagates.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    eps = np.finfo(float).eps
    if step is None:
        base = eps ** (1.0 / 6.0) if richardson else eps ** (1.0 / 3.0)
        h = base * np.maximum(np.abs(x), 1.0)
    else:
        h = np.broadcast_to(np.asarray(step, dtype=float), (n,)).copy()

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
        H = build(0.5 * h)  # reduce step once, then let failures propagate
    return 0.5 * (H + H.T)


def gradient_fd(fun, x, step=None, richardson: bool = False) -> np.ndarray:
    """Central-difference gradient with steps cbrt(eps) * max(|x_i|, 1).

    ``richardson=True`` combines two step sizes to cancel the O(h^2)
    truncation term, for use as a high-accuracy oracle against analytic
    gradients; the base step stays at cbrt(eps) so that high derivatives
    near the admissibility boundary cannot dominate.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if step is None:
        h = np.finfo(float).eps ** (1.0 / 3.0) * np.maximum(np.abs(x), 1.0)
    else:
        h = np.broadcast_to(np.asarray(step, dtype=float), (n,)).copy()

    def central(hvec):
        g = np.empty(n)
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = hvec[i]
            g[i] = (fun(x + ei) - fun(x - ei)) / (2.0 * hvec[i])
        return g

    if not richardson:
        return central(h)
    return (4.0 * central(h) - central(2.0 * h)) / 3.0


def hessian_fd_lengths(c: Complex, lengths, which: str,
                       richardson: bool = True) -> np.ndarray:
    """Finite-difference length-space Hessian of a functional at a metric."""
    fun = FUNCTIONALS[which.lower()]
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
    fun = FUNCTIONALS[which.lower()]

    def obj(u):
        return fun(c, induced_lengths(c, lengths, 2.0 * u))

    step = np.finfo(float).eps ** 0.2 if richardson else None
    return hessian_fd(obj, np.zeros(c.num_vertices), step=step,
                      richardson=richardson)


# ---------------------------------------------------------------------------
# exact conformal Hessians and the csc Newton Jacobian

#: incidence P (6, 4) of the local edges of a tetrahedron on its vertices
_P = np.zeros((6, 4))
for _m, _pair in enumerate(LOCAL_PAIRS):
    _P[_m, list(_pair)] = 1.0


def _conformal_hessian(c: Complex, geo, rep: CurvatureReport, which: str) -> np.ndarray:
    """H_u of EHR, LEHR or VEHR from one kernel evaluation, (V, V).

    Each length-space Hessian is a sum of per-tet blocks X_t (from the
    dihedral Jacobian and the volume Hessian) and symmetric rank-one terms
    in 1, grad_l F and grad_l V.  The chain rule maps X_t to the 4x4 block
    P^T diag(l_t) X_t diag(l_t) P on the tet's vertices, adds
    (l * grad_l F)_e on the endpoints of each edge e, and maps each
    rank-one vector x to M^T x = B^T (l * x).
    """
    which = which.lower()

    def to_vertices(per_edge):
        return 2.0 * _vertex_half_sums(c, per_edge)

    # X, and below diag(l_t) X diag(l_t), are built in place: on the
    # 600-cell each (T, 6, 6) array is 173 KB
    X = geo.ddihedrals
    if which == "ehr":
        X *= -1.0
        w = rep.k_edge
        rank_one = ()
    elif which == "lehr":
        L = rep.length
        X *= -1.0 / L
        w = rep.einstein_residual("L") / L
        # -(grad F 1^T + 1 grad F^T) / L
        rank_one = ((-1.0 / L, to_vertices(w), to_vertices(rep.lengths)),)
    elif which == "vehr":
        V, S = rep.volume, rep.ehr
        N = V ** (1.0 / 3.0)
        X *= -1.0 / N
        d2volume = geo.d2volume
        d2volume *= S / (3.0 * V * N)
        X -= d2volume
        del d2volume
        w = rep.einstein_residual("V") / N
        gv = to_vertices(rep.v_edge)
        # -(grad F grad V^T + grad V grad F^T) / (3V) + (2/9) S V^(-7/3) grad V grad V^T
        rank_one = ((-1.0 / (3.0 * V), to_vertices(w), gv),
                    (S / (9.0 * V * V * N), gv, gv))
    else:
        raise ValueError(f"unknown functional {which!r}")

    n = c.num_vertices
    tl = geo.lengths
    X *= tl[:, :, None]
    X *= tl[:, None, :]
    blocks = _P.T @ X @ _P
    del X
    tv = c.tet_vertices
    a, b = c.edge_vertices.T
    H = np.bincount((tv[:, :, None] * n + tv[:, None, :]).ravel(), blocks.ravel(),
                    minlength=n * n)
    H += np.bincount(np.concatenate([a * (n + 1), b * (n + 1), a * n + b, b * n + a]),
                     np.tile(w, 4), minlength=n * n)
    H = H.reshape(n, n)
    for coef, p, q in rank_one:
        H += coef * (np.outer(p, q) + np.outer(q, p))
    return 0.5 * (H + H.T)


def conformal_hessian(c: Complex, lengths, which: str) -> np.ndarray:
    """Exact conformal Hessian of EHR, LEHR or VEHR at any admissible metric.

    u convention: the Hessian of u -> F(exp(u_v + u_v') * l_e) at u = 0,
    shape (V, V), from one kernel call.  ``conformal_hessian_fd`` is its
    finite-difference oracle.
    """
    return _conformal_hessian(c, *_evaluate(c, lengths), which)


def csc_jacobian(c: Complex, lengths, which: str) -> np.ndarray:
    """Jacobian of :func:`csc_residual` with respect to the factors f, (V, V).

    Row v holds the derivatives of r_v.  The residual is r = N grad_f F
    with (F, N) = (LEHR, L) for "L" and (VEHR, V^(1/3)) for "V", so
    J = (N/4) H_u(F) + r g^T with g = grad_f(N) / N, which is L_v / L,
    resp. V_v / (3V).  One kernel call.
    """
    geo, rep = _evaluate(c, lengths)
    which = which.upper()
    r = rep.csc_residual(which)
    if which == "L":
        N, g, functional = rep.length, rep.l_vertex / rep.length, "lehr"
    else:
        N, g, functional = (rep.volume ** (1.0 / 3.0),
                            rep.v_vertex / (3.0 * rep.volume), "vehr")
    return 0.25 * N * _conformal_hessian(c, geo, rep, functional) + np.outer(r, g)


def laplacian_matrix(c: Complex, lengths) -> np.ndarray:
    """Discrete Laplacian: off-diagonal l*_e / l_e, zero row sums, (V, V).

    Parallel edges between the same vertex pair contribute additively,
    matching the quadratic form sum_e (l*_e/l_e)(x_v - x_v')^2.
    """
    lengths = np.asarray(lengths, dtype=float)
    w = geometry.dual_lengths(c, lengths) / lengths
    n = c.num_vertices
    D = np.zeros((n, n))
    a = c.edge_vertices[:, 0]
    b = c.edge_vertices[:, 1]
    np.add.at(D, (a, b), w)
    np.add.at(D, (b, a), w)
    np.add.at(D, (a, a), -w)
    np.add.at(D, (b, b), -w)
    return D


def normal_matrix(c: Complex, lengths) -> np.ndarray:
    """Curvature-deviation matrix entering the conformal LEHR Hessian.

    Off-diagonal (K_e - LEHR * l_e)/4 per edge between the pair, diagonal
    (K_v - LEHR * L_v)/2; the diagonal vanishes exactly at constant
    L-scalar curvature metrics.
    """
    lengths = np.asarray(lengths, dtype=float)
    k_edge = edge_curvatures(c, lengths)
    lam = k_edge.sum() / lengths.sum()
    k_vertex = _vertex_half_sums(c, k_edge)
    l_vertex = _vertex_half_sums(c, lengths)
    n = c.num_vertices
    N = np.zeros((n, n))
    dev = 0.25 * (k_edge - lam * lengths)
    a = c.edge_vertices[:, 0]
    b = c.edge_vertices[:, 1]
    np.add.at(N, (a, b), dev)
    np.add.at(N, (b, a), dev)
    N[np.arange(n), np.arange(n)] = 0.5 * (k_vertex - lam * l_vertex)
    return N


def lehr_conformal_hessian_csc(c: Complex, lengths, csc_tol: float = 1e-8) -> np.ndarray:
    """Conformal Hessian of LEHR at a csc metric, u convention.

    Valid only at constant L-scalar curvature metrics (max residual
    checked against ``csc_tol``); the check and the Hessian come from one
    kernel call.  There it equals the formula 4 (-2 Delta + N) / L of
    :func:`laplacian_matrix` and :func:`normal_matrix` (the factor 4 from
    d f = 2 du), which the tests check.
    """
    geo, rep = _evaluate(c, lengths)
    res = float(np.abs(rep.csc_residual("L")).max())
    if res > csc_tol:
        raise ValueError(
            f"metric is not constant L-scalar curvature: max residual {res:.3e} "
            f"> {csc_tol:.1e}")
    return _conformal_hessian(c, geo, rep, "lehr")


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


@dataclass(frozen=True)
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

    def to_text(self) -> str:
        def fmt(x):
            return format(float(x), ".12g")

        return "\n".join([
            f"max_edge_degree: {self.max_edge_degree}",
            f"lehr: {fmt(self.lehr)}",
            f"lehr_lower: {fmt(self.lehr_lower)}",
            f"lehr_upper: {fmt(self.lehr_upper)}",
            f"fatness: {fmt(self.fatness)}",
            f"vehr: {fmt(self.vehr)}",
            f"vehr_lower: {fmt(self.vehr_lower)}",
            f"lehr_within_bounds: {self.lehr_within_bounds}",
            f"vehr_within_bounds: {self.vehr_within_bounds}",
        ]) + "\n"


def bounds_report(c: Complex, lengths) -> BoundsReport:
    """Evaluate the edge-degree bounds on LEHR and the fatness bound on VEHR."""
    rep = functionals(c, lengths)
    deg = int(c.edge_degrees.max())
    lower = 2.0 * np.pi - np.pi * deg
    fat = rep.volume / rep.length ** 3
    vehr_lower = min(0.0, lower) * fat ** (-1.0 / 3.0)
    return BoundsReport(
        max_edge_degree=deg,
        lehr=rep.lehr,
        lehr_lower=lower,
        lehr_upper=2.0 * np.pi,
        fatness=fat,
        vehr=rep.vehr,
        vehr_lower=vehr_lower,
        lehr_within_bounds=bool(lower - 1e-12 <= rep.lehr <= 2.0 * np.pi + 1e-12),
        vehr_within_bounds=bool(rep.vehr >= vehr_lower - 1e-12),
    )
