"""Combinatorics of triangulated closed piecewise flat 3-manifolds.

A :class:`Complex` stores fully explicit incidence data: vertices, edges,
faces and tetrahedra are integer ids, and every face/tet records which
lower simplices it uses.  Simplices are never identified by their vertex
sets, because gluings need not be simplicial: the double tetrahedron has
two tetrahedra on the same four vertices.

Local conventions inside a tetrahedron (vertices 0..3):

* the six edges are stored in the local pair order
  (0,1), (0,2), (0,3), (1,2), (1,3), (2,3);
* face ``k`` is the face opposite local vertex ``k``;
* within a face, edge slot ``k`` is the edge opposite face vertex ``k``.
"""

from __future__ import annotations

import ast
import itertools
import math
from dataclasses import dataclass

import numpy as np

#: local vertex pairs of the six edges of a tetrahedron
LOCAL_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

#: vertices of face k (the face opposite local vertex k)
FACE_VERTICES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))

#: local edge index of slot k within face f: the edge opposite face vertex k
FACE_EDGES = ((5, 4, 3), (5, 2, 1), (4, 2, 0), (3, 1, 0))

#: local edge index of the edge opposite edge m
OPPOSITE_EDGE = (5, 4, 3, 2, 1, 0)

#: for each local edge, the two (face, slot-in-face) incidences containing it
EDGE_FACES = (((2, 2), (3, 2)), ((1, 2), (3, 1)), ((1, 1), (2, 1)),
              ((0, 2), (3, 0)), ((0, 1), (2, 0)), ((0, 0), (1, 0)))


class ComplexError(ValueError):
    """Malformed or non-manifold incidence data."""


def set_fields(args: dict) -> None:
    """Store the arguments of an ``__init__`` as the fields of its ``self``.

    ``args`` is that ``__init__``'s ``locals()``, taken before any other
    local is bound; writing the instance dict directly works on frozen
    classes too.  The record classes are ``dataclass(init=False)`` with an
    ``__init__`` that calls this, since on CPython 3.11 a generated
    ``__init__`` interns throwaway names (``_type_<field>``, ``_dflt_<field>``)
    each time its module is imported; in a process that imports the package
    again and again (three times per pass of ``perfbench/run.py``) those
    names doubled the interpreter's table of interned strings after about a
    hundred imports, and the peak RSS rose by 1 MB at a pass that depended
    on the run's speed.
    """
    self = args.pop("self")
    vars(self).update(args)


class _cached:
    """A field computed when first read, then kept in the instance: functools' cached
    property without the lock that it takes on every first read before Python 3.12."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def _bincount(bins, weights, n: int) -> np.ndarray:
    """Sums of ``weights`` (..., *bins.shape) into n bins by ``bins``, (..., n): one
    ``np.bincount``, the bins of batch entry k offset by k * n.  Each bin sums its weights in
    the same order whatever the batch, so every entry equals its unbatched sum bitwise; an
    empty batch gives an empty result."""
    batch = weights.shape[:weights.ndim - bins.ndim]
    if not batch:
        return np.bincount(bins.ravel(), weights.ravel(), minlength=n)
    size = math.prod(batch)
    bins = (bins.ravel() + n * np.arange(size)[:, None]).ravel()
    return np.bincount(bins, weights.ravel(), minlength=size * n).reshape(batch + (n,))


#: each incidence array with the number of ids in one of its rows
_FIELDS = (("edge_vertices", 2), ("face_edges", 3), ("face_vertices", 3),
           ("tet_vertices", 4), ("tet_edges", 6), ("tet_faces", 4))

_PAIRS = np.array(LOCAL_PAIRS)
_FACE_EDGES = np.array(FACE_EDGES)
#: the face vertices that slot k's edge joins: the two other than vertex k
_SLOT_PAIRS = np.array([(1, 2), (2, 0), (0, 1)])


@dataclass(frozen=True, eq=False, init=False)
class Complex:
    """Triangulated closed 3-manifold with explicit incidences.

    The fields are the integer arrays of the file format.  They are stored
    as read-only copies, so a Complex is immutable and safe to share across
    threads.
    """

    num_vertices: int
    edge_vertices: np.ndarray   # (E, 2) endpoint vertex ids
    face_edges: np.ndarray      # (F, 3) edge ids, slot k opposite face vertex k
    face_vertices: np.ndarray   # (F, 3) vertex ids
    tet_vertices: np.ndarray    # (T, 4) vertex ids
    tet_edges: np.ndarray       # (T, 6) edge ids in local pair order
    tet_faces: np.ndarray       # (T, 4) face ids, slot k opposite local vertex k

    def __init__(self, num_vertices, edge_vertices, face_edges, face_vertices,
                 tet_vertices, tet_edges, tet_faces):
        set_fields(locals())
        self.__post_init__()

    def __post_init__(self):
        if isinstance(self.num_vertices, bool) or not isinstance(self.num_vertices,
                                                                 (int, np.integer)):
            raise ComplexError(f"vertices section: {self.num_vertices!r} is not an integer")
        object.__setattr__(self, "num_vertices", int(self.num_vertices))
        for name, width in _FIELDS:
            try:
                value = getattr(self, name)
                a = np.asarray(value)   # raises on rows of unequal length
                if a.size == 0:
                    a = np.zeros((0, width), dtype=np.intp)
                if a.shape[1:] != (width,) or a.dtype.kind not in "iu" \
                        or (not isinstance(value, np.ndarray) and _has_bool(value)):
                    raise ValueError
            except ValueError:
                raise ComplexError(f"{name.split('_')[0]}s section: {name} needs rows of "
                                   f"{width} integer ids") from None
            a = a.astype(np.intp)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    # -- counts ---------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edge_vertices)

    @property
    def num_faces(self) -> int:
        return len(self.face_vertices)

    @property
    def num_tets(self) -> int:
        return len(self.tet_vertices)

    def counts(self) -> tuple[int, int, int, int]:
        return (self.num_vertices, self.num_edges, self.num_faces, self.num_tets)

    def euler_characteristic(self) -> int:
        v, e, f, t = self.counts()
        return v - e + f - t

    @_cached
    def edge_degrees(self) -> np.ndarray:
        """(E,) number of tets incident to each edge, with multiplicity; read-only, computed
        once per complex."""
        degrees = np.bincount(self.tet_edges.ravel(), minlength=self.num_edges)
        degrees.flags.writeable = False
        return degrees

    # -- convenience ------------------------------------------------------

    def tet_lengths(self, lengths) -> np.ndarray:
        """Gather per-tet length six-vectors: (..., E) -> (..., T, 6).

        Leading axes index a batch of metrics.
        """
        lengths = np.asarray(lengths, dtype=float)
        if lengths.shape[-1:] != (self.num_edges,):
            raise ValueError(f"expected {self.num_edges} edge lengths, got shape {lengths.shape}")
        # a plain gather is cheaper than the Ellipsis form for one metric
        return lengths[self.tet_edges] if lengths.ndim == 1 else lengths[..., self.tet_edges]

    def edge_sum(self, per_tet) -> np.ndarray:
        """Sum a per-tet edge quantity over the tets at each edge: (..., T, 6) -> (..., E).

        One ``np.bincount`` for the whole batch (:func:`_bincount`), so every
        entry equals its unbatched sum bitwise.
        """
        return _bincount(self.tet_edges, np.asarray(per_tet), self.num_edges)

    @_cached
    def _edge_cells(self) -> np.ndarray:
        """Flat (V, V) cells (4E,) of the edges (a, b): (a, b), then (b, a), (a, a), (b, b)."""
        n = self.num_vertices
        a, b = self.edge_vertices.T
        return np.concatenate([a * n + b, b * n + a, a * (n + 1), b * (n + 1)])

    @_cached
    def _edge_pair_cells(self) -> np.ndarray:
        """Flat (E, E) cells (36T,) of each tet's edge pairs (m, n), tet by tet, row m first."""
        te = self.tet_edges
        return (te[:, :, None] * self.num_edges + te[:, None, :]).ravel()


def _has_bool(rows) -> bool:
    """True when nested rows hold a bool, which numpy would turn into 0 or 1
    beside integers."""
    return any(isinstance(v, (bool, np.bool_)) for v in np.asarray(rows, dtype=object).flat)


def _first(bad: np.ndarray):
    """Index of the first True entry of ``bad`` in row-major order, or None."""
    hit = np.argwhere(bad)
    return tuple(hit[0].tolist()) if hit.size else None


def _repeats(rows: np.ndarray) -> np.ndarray:
    """Rows holding some id twice."""
    s = np.sort(rows, axis=-1)
    return np.any(s[:, 1:] == s[:, :-1], axis=-1)


def validate(c: Complex) -> None:
    """Check all structural invariants; raise ComplexError on violation.

    Each invariant is checked by one gather over all simplices and the
    first violation in id order is reported.  Checked: one row per simplex
    in each array; ids in range; no loops or repeated vertices; face slot
    k holds the edge opposite face vertex k; tet edges follow the local
    pair order and tet face slot k holds the face opposite local vertex k,
    with the same edge ids as the tet; every face in exactly two tet face
    slots; every edge in a face and a tet; Euler characteristic 0.
    """
    V, E, F, T = c.counts()
    if V <= 0 or E <= 0 or F <= 0 or T <= 0:
        raise ComplexError("complex must have at least one simplex of each dimension")
    ev, fe, fv = c.edge_vertices, c.face_edges, c.face_vertices
    tv, te, tf = c.tet_vertices, c.tet_edges, c.tet_faces
    if len(fe) != F or len(te) != T or len(tf) != T:
        raise ComplexError("the arrays of the faces, and those of the tets, need equal row counts")

    if hit := _first((ev < 0) | (ev >= V)):
        a, b = ev[hit[0]]
        raise ComplexError(f"edge {hit[0]} references missing vertex ({a},{b})")
    if hit := _first(ev[:, 0] == ev[:, 1]):
        raise ComplexError(f"edge {hit[0]} is a loop at vertex {ev[hit[0], 0]}")

    if hit := _first(_repeats(fv)):
        raise ComplexError(f"face {hit[0]} has repeated vertices {tuple(fv[hit[0]].tolist())}")
    if hit := _first((fe < 0) | (fe >= E)):
        raise ComplexError(f"face {hit[0]} references missing edge {fe[hit]}")
    expect = np.sort(fv[:, _SLOT_PAIRS], axis=-1)
    if hit := _first(np.any(np.sort(ev[fe], axis=-1) != expect, axis=-1)):
        fid, k = hit
        raise ComplexError(
            f"face {fid} slot {k}: edge {fe[hit]} joins {tuple(ev[fe[hit]].tolist())}, "
            f"expected the pair {expect[hit].tolist()} opposite vertex {fv[hit]}")

    if hit := _first(_repeats(tv)):
        raise ComplexError(f"tet {hit[0]} has repeated vertices {tuple(tv[hit[0]].tolist())}")
    if hit := _first((te < 0) | (te >= E)):
        raise ComplexError(f"tet {hit[0]} references missing edge {te[hit]}")
    expect = tv[:, _PAIRS]
    if hit := _first(np.any(np.sort(ev[te], axis=-1) != np.sort(expect, axis=-1), axis=-1)):
        tid, m = hit
        i, j = LOCAL_PAIRS[m]
        raise ComplexError(
            f"tet {tid} local pair ({i},{j}): edge {te[hit]} joins {tuple(ev[te[hit]].tolist())}, "
            f"expected ({expect[hit][0]},{expect[hit][1]})")
    if hit := _first((tf < 0) | (tf >= F)):
        raise ComplexError(f"tet {hit[0]} references missing face {tf[hit]}")
    # face slot k holds the face opposite local vertex k, with the tet's edge
    # opposite each of its vertices: edge ids, not just vertex sets, must
    # agree, since parallel edges exist in non-simplicial gluings.  The tet's
    # and the face's view of each slot are both sorted by vertex id.
    order = np.argsort(tv[:, FACE_VERTICES], axis=-1)
    slot_v = np.take_along_axis(tv[:, FACE_VERTICES], order, axis=-1)
    slot_m = np.take_along_axis(np.broadcast_to(_FACE_EDGES, order.shape), order, axis=-1)
    order = np.argsort(fv[tf], axis=-1)
    face_v, face_e = (np.take_along_axis(a[tf], order, axis=-1) for a in (fv, fe))
    if hit := _first(np.any(face_v != slot_v, axis=-1)):
        tid, k = hit
        raise ComplexError(
            f"tet {tid} face slot {k}: face {tf[hit]} has vertices {tuple(fv[tf[hit]].tolist())}, "
            f"expected {slot_v[hit].tolist()} (opposite vertex {tv[hit]})")
    if hit := _first(face_e != te[np.arange(T)[:, None, None], slot_m]):
        raise ComplexError(
            f"tet {hit[0]} face slot {hit[1]}: face edge {face_e[hit]} does not match "
            f"the tet edge for local pair {LOCAL_PAIRS[slot_m[hit]]}")

    # closed manifold: every face in exactly two tet face-slots
    face_count = np.bincount(tf.ravel(), minlength=F)
    if hit := _first(face_count != 2):
        raise ComplexError(
            f"face {hit[0]} belongs to {face_count[hit]} tets (closed manifold needs exactly 2)")
    if hit := _first(np.bincount(fe.ravel(), minlength=E) == 0):
        raise ComplexError(f"edge {hit[0]} belongs to no face")
    if np.any(c.edge_degrees < 1):
        raise ComplexError("some edge belongs to no tetrahedron")

    if c.euler_characteristic() != 0:
        raise ComplexError(
            f"Euler characteristic {c.euler_characteristic()} != 0 for a closed 3-manifold")


# ---------------------------------------------------------------------------
# generators


#: the one instance of each standard complex, by constructor name, stored by its first call
_instances: dict[str, Complex] = {}


def double_tetrahedron() -> Complex:
    """Two tetrahedra glued along all four boundary faces: the process's one immutable
    instance, built on the first call and returned by every later one.

    Both tets live on vertices 0..3 and reference the same six edges and
    four faces, so every edge has degree 2.  This is the smallest closed
    triangulation of the 3-sphere and is not a simplicial complex.  The
    incidences are constants, checked by the tests rather than on the build.
    """
    if (dt := _instances.get("double_tetrahedron")) is None:
        dt = _instances["double_tetrahedron"] = Complex(
            num_vertices=4, edge_vertices=LOCAL_PAIRS, face_edges=FACE_EDGES,
            face_vertices=FACE_VERTICES, tet_vertices=[range(4)] * 2,
            tet_edges=[range(6)] * 2, tet_faces=[range(4)] * 2)
    return dt


def _number_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows (..., k) in order of first appearance.

    Returns the distinct rows (n, k) in that order and the number of each
    input row (...).
    """
    flat = rows.reshape(-1, rows.shape[-1])
    # one integer key per row: its ids as digits in base (largest id + 1)
    span = flat - flat.min(initial=0)
    keys = np.ravel_multi_index(span.T, (span.max(initial=0) + 1,) * flat.shape[1])
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return flat[first[order]], rank[inverse].reshape(rows.shape[:-1])


def from_simplicial_tets(num_vertices: int, tets) -> Complex:
    """Build a simplicial Complex from tetrahedra given as vertex 4-tuples.

    Edges and faces are the distinct sorted vertex pairs/triples, numbered
    in order of first appearance, tet by tet in ``itertools.combinations``
    order; this is only correct for simplicial complexes.
    """
    tv = np.array(list(tets))
    if tv.size and tv.dtype.kind not in "iu":
        raise ComplexError(f"tet vertex ids must be integers, got {tv.dtype} entries")
    c = _simplicial(num_vertices, tv.astype(np.intp).reshape(-1, 4))
    validate(c)
    return c


def _simplicial(num_vertices: int, tv: np.ndarray) -> Complex:
    """:func:`from_simplicial_tets` of the tets ``tv`` (T, 4), an integer array, without
    :func:`validate`: for generators whose output the tests validate."""
    tv = np.sort(tv, axis=1)
    edge_vertices, tet_edges = _number_rows(tv[:, _PAIRS])
    # combinations order lists the face opposite local vertex 3 first
    face_vertices, tet_faces = _number_rows(tv[:, FACE_VERTICES[::-1]])
    tet_faces = tet_faces[:, ::-1]
    face_edges = np.empty_like(face_vertices)
    face_edges[tet_faces] = tet_edges[:, FACE_EDGES]
    return Complex(num_vertices, edge_vertices, face_edges, face_vertices,
                   tv, tet_edges, tet_faces)


def _binary_icosahedral_vertices() -> np.ndarray:
    """The 120 unit quaternions of the binary icosahedral group, as R^4 rows."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts: list[np.ndarray] = []
    for i in range(4):
        for s in (1.0, -1.0):
            v = np.zeros(4)
            v[i] = s
            verts.append(v)
    for signs in itertools.product((0.5, -0.5), repeat=4):
        verts.append(np.asarray(signs))
    base = 0.5 * np.asarray([phi, 1.0, 1.0 / phi, 0.0])
    even_perms = [p for p in itertools.permutations(range(4))
                  if sum(p[a] > p[b] for a in range(4) for b in range(a + 1, 4)) % 2 == 0]
    for p in even_perms:
        v0 = base[list(p)]
        nonzero = [i for i in range(4) if v0[i] != 0.0]
        for signs in itertools.product((1.0, -1.0), repeat=3):
            v = v0.copy()
            for s, i in zip(signs, nonzero):
                v[i] *= s
            verts.append(v)
    out = np.asarray(verts)
    assert out.shape == (120, 4)
    return out


def six_hundred_cell() -> Complex:
    """The 600-cell: 120 vertices, 720 edges, 1200 faces, 600 tets; the process's one
    immutable instance, built on the first call and returned by every later one.

    Vertices are the binary icosahedral unit quaternions, edges join
    nearest-neighbour pairs, faces are the 3-cliques and tets the
    4-cliques of the resulting graph.  Numbered as :func:`from_simplicial_tets`
    numbers these tets, but not validated on the build (the tests validate it).
    """
    if (cell := _instances.get("six_hundred_cell")) is not None:
        return cell
    pts = _binary_icosahedral_vertices()
    n = len(pts)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    cutoff = d2.min() * (1.0 + 1e-9)
    # up[i, j]: i < j are neighbours.  Each clique is listed once, with
    # increasing vertices, and the cliques come in lexicographic order.
    up = np.triu(d2 < cutoff)
    i, j = np.nonzero(up)
    e, k = np.nonzero(up[i] & up[j])
    a, b, c = i[e], j[e], k
    t, m = np.nonzero(up[a] & up[b] & up[c])
    cell = _instances["six_hundred_cell"] = _simplicial(
        n, np.stack([a[t], b[t], c[t], m], axis=1))
    return cell


# ---------------------------------------------------------------------------
# file format
#
# Plain-text document with one section per simplex dimension:
#
#   vertices: 4
#   edges: [[0, 1], [0, 2], ...]
#   faces: [[[5, 4, 3], [1, 2, 3]], ...]          # [edge ids, vertex ids]
#   tets: [[[0, 1, 2, 3], [0, 1, 2, 3, 4, 5], [0, 1, 2, 3]], ...]
#
# Faces list edge ids first (slot k opposite vertex k), then vertices.
# Tets list vertices, then the six edges in local pair order, then the four
# faces (slot k opposite local vertex k).  Every incidence is explicit so
# that non-simplicial gluings round-trip exactly.

_SECTIONS = ("vertices", "edges", "faces", "tets")


def format_complex(c: Complex) -> str:
    lines = [f"vertices: {c.num_vertices}"]
    lines.append("edges: " + repr(c.edge_vertices.tolist()))
    lines.append("faces: " + repr(np.stack([c.face_edges, c.face_vertices], axis=1).tolist()))
    lines.append("tets: " + repr([list(t) for t in zip(
        c.tet_vertices.tolist(), c.tet_edges.tolist(), c.tet_faces.tolist())]))
    return "\n".join(lines) + "\n"


def parse_complex(text: str) -> Complex:
    """Parse the triangulation document format; validates all invariants."""
    data: dict[str, object] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ComplexError(f"cannot parse line: {raw!r}")
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        if key not in _SECTIONS:
            raise ComplexError(f"unknown section {key!r}")
        if key in data:
            raise ComplexError(f"duplicate section {key!r}")
        try:
            data[key] = ast.literal_eval(rest.strip())
        except (SyntaxError, ValueError) as exc:
            raise ComplexError(f"malformed {key} section: {exc}") from exc
    missing = [s for s in _SECTIONS if s not in data]
    if missing:
        raise ComplexError(f"missing sections: {', '.join(missing)}")

    # split faces into their edge and vertex lists, tets into their three
    try:
        faces = tuple(zip(*data["faces"], strict=True)) or ((), ())
        tets = tuple(zip(*data["tets"], strict=True)) or ((), (), ())
        (face_edges, face_vertices), (tet_vertices, tet_edges, tet_faces) = faces, tets
    except (TypeError, ValueError) as exc:
        raise ComplexError(f"malformed section contents: {exc}") from exc
    c = Complex(data["vertices"], data["edges"], face_edges, face_vertices,
                tet_vertices, tet_edges, tet_faces)
    validate(c)
    return c


def load_complex(path) -> Complex:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_complex(fh.read())


def save_complex(c: Complex, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_complex(c))
