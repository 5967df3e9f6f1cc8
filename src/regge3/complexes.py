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
from functools import cached_property

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


@dataclass(frozen=True)
class Face:
    edges: tuple[int, int, int]
    vertices: tuple[int, int, int]


@dataclass(frozen=True)
class Tet:
    vertices: tuple[int, int, int, int]
    edges: tuple[int, int, int, int, int, int]
    faces: tuple[int, int, int, int]


@dataclass(frozen=True)
class Complex:
    """Triangulated closed 3-manifold with explicit incidences.

    Immutable after construction; derived incidence arrays are cached and
    the object is safe to share across threads for read-only use.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    faces: tuple[Face, ...]
    tets: tuple[Tet, ...]

    # -- counts ---------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def num_tets(self) -> int:
        return len(self.tets)

    def counts(self) -> tuple[int, int, int, int]:
        return (self.num_vertices, self.num_edges, self.num_faces, self.num_tets)

    def euler_characteristic(self) -> int:
        v, e, f, t = self.counts()
        return v - e + f - t

    # -- derived incidence arrays ----------------------------------------

    @cached_property
    def edge_vertices(self) -> np.ndarray:
        """(E, 2) endpoint vertex ids per edge."""
        return np.asarray(self.edges, dtype=np.intp).reshape(-1, 2)

    @cached_property
    def tet_vertices(self) -> np.ndarray:
        """(T, 4) vertex ids per tet."""
        return np.asarray([t.vertices for t in self.tets], dtype=np.intp)

    @cached_property
    def tet_edges(self) -> np.ndarray:
        """(T, 6) edge ids per tet in local pair order."""
        return np.asarray([t.edges for t in self.tets], dtype=np.intp)

    @cached_property
    def tet_faces(self) -> np.ndarray:
        """(T, 4) face ids per tet, slot k opposite local vertex k."""
        return np.asarray([t.faces for t in self.tets], dtype=np.intp)

    @cached_property
    def edge_degrees(self) -> np.ndarray:
        """(E,) number of tets incident to each edge, with multiplicity."""
        return np.bincount(self.tet_edges.ravel(), minlength=self.num_edges)

    @cached_property
    def edges_at_vertex(self) -> tuple[np.ndarray, ...]:
        lists: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for eid, (a, b) in enumerate(self.edges):
            lists[a].append(eid)
            lists[b].append(eid)
        return tuple(np.asarray(l, dtype=np.intp) for l in lists)

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

        One ``np.bincount`` for the whole batch: the edge ids of batch entry
        k are offset by k * E.  Each edge sums its tets in the same order
        whatever the batch, so every entry equals its unbatched sum bitwise.
        """
        per_tet = np.asarray(per_tet)
        batch = per_tet.shape[:-2]
        size = math.prod(batch)
        E = self.num_edges
        idx = self.tet_edges.ravel()
        if size > 1:
            idx = (idx + E * np.arange(size)[:, None]).ravel()
        return np.bincount(idx, per_tet.ravel(), minlength=size * E).reshape(batch + (E,))


def validate(c: Complex) -> None:
    """Check all structural invariants; raise ComplexError on violation."""
    V, E, F, T = c.counts()
    if V <= 0 or E <= 0 or F <= 0 or T <= 0:
        raise ComplexError("complex must have at least one simplex of each dimension")

    for eid, (a, b) in enumerate(c.edges):
        if not (0 <= a < V and 0 <= b < V):
            raise ComplexError(f"edge {eid} references missing vertex ({a},{b})")
        if a == b:
            raise ComplexError(f"edge {eid} is a loop at vertex {a}")

    for fid, face in enumerate(c.faces):
        if len(set(face.vertices)) != 3:
            raise ComplexError(f"face {fid} has repeated vertices {face.vertices}")
        for k in range(3):
            eid = face.edges[k]
            if not (0 <= eid < E):
                raise ComplexError(f"face {fid} references missing edge {eid}")
            expect = {face.vertices[(k + 1) % 3], face.vertices[(k + 2) % 3]}
            if set(c.edges[eid]) != expect:
                raise ComplexError(
                    f"face {fid} slot {k}: edge {eid} joins {c.edges[eid]}, "
                    f"expected the pair {sorted(expect)} opposite vertex {face.vertices[k]}")

    for tid, tet in enumerate(c.tets):
        if len(set(tet.vertices)) != 4:
            raise ComplexError(f"tet {tid} has repeated vertices {tet.vertices}")
        local = {v: i for i, v in enumerate(tet.vertices)}
        for m, (i, j) in enumerate(LOCAL_PAIRS):
            eid = tet.edges[m]
            if not (0 <= eid < E):
                raise ComplexError(f"tet {tid} references missing edge {eid}")
            if set(c.edges[eid]) != {tet.vertices[i], tet.vertices[j]}:
                raise ComplexError(
                    f"tet {tid} local pair ({i},{j}): edge {eid} joins {c.edges[eid]}, "
                    f"expected ({tet.vertices[i]},{tet.vertices[j]})")
        for k in range(4):
            fid = tet.faces[k]
            if not (0 <= fid < F):
                raise ComplexError(f"tet {tid} references missing face {fid}")
            face = c.faces[fid]
            expect_vs = set(tet.vertices) - {tet.vertices[k]}
            if set(face.vertices) != expect_vs:
                raise ComplexError(
                    f"tet {tid} face slot {k}: face {fid} has vertices {face.vertices}, "
                    f"expected {sorted(expect_vs)} (opposite vertex {tet.vertices[k]})")
            # edge ids must agree, not just vertex sets (parallel edges exist
            # in non-simplicial gluings)
            for m, fv in enumerate(face.vertices):
                pair = tuple(sorted(local[w] for w in face.vertices if w != fv))
                if face.edges[m] != tet.edges[LOCAL_PAIRS.index(pair)]:
                    raise ComplexError(
                        f"tet {tid} face slot {k}: face edge {face.edges[m]} does not match "
                        f"the tet edge for local pair {pair}")

    # closed manifold: every face in exactly two tet face-slots
    face_count = np.bincount(c.tet_faces.ravel(), minlength=F)
    bad = np.nonzero(face_count != 2)[0]
    if bad.size:
        raise ComplexError(
            f"face {bad[0]} belongs to {face_count[bad[0]]} tets (closed manifold needs exactly 2)")

    edge_in_face = np.zeros(E, dtype=np.intp)
    for face in c.faces:
        for eid in face.edges:
            edge_in_face[eid] += 1
    if np.any(edge_in_face == 0):
        raise ComplexError(f"edge {int(np.nonzero(edge_in_face == 0)[0][0])} belongs to no face")
    if np.any(c.edge_degrees < 1):
        raise ComplexError("some edge belongs to no tetrahedron")

    if c.euler_characteristic() != 0:
        raise ComplexError(
            f"Euler characteristic {c.euler_characteristic()} != 0 for a closed 3-manifold")


# ---------------------------------------------------------------------------
# generators


def double_tetrahedron() -> Complex:
    """Two tetrahedra glued along all four boundary faces.

    Both tets live on vertices 0..3 and reference the same six edges and
    four faces, so every edge has degree 2.  This is the smallest closed
    triangulation of the 3-sphere and is not a simplicial complex.
    """
    edges = tuple(LOCAL_PAIRS)
    faces = tuple(
        Face(edges=tuple(FACE_EDGES[k]), vertices=tuple(FACE_VERTICES[k]))
        for k in range(4))
    tet = Tet(vertices=(0, 1, 2, 3), edges=(0, 1, 2, 3, 4, 5), faces=(0, 1, 2, 3))
    c = Complex(num_vertices=4, edges=edges, faces=faces, tets=(tet, tet))
    validate(c)
    return c


def from_simplicial_tets(num_vertices: int, tets) -> Complex:
    """Build a simplicial Complex from tetrahedra given as vertex 4-tuples.

    Edges and faces are derived uniquely from sorted vertex pairs/triples;
    this is only correct for simplicial complexes.
    """
    tets = [tuple(sorted(t)) for t in tets]
    edge_id: dict[tuple[int, int], int] = {}
    face_id: dict[tuple[int, int, int], int] = {}
    for t in tets:
        for i, j in itertools.combinations(t, 2):
            edge_id.setdefault((i, j), len(edge_id))
        for tri in itertools.combinations(t, 3):
            face_id.setdefault(tri, len(face_id))

    edges = tuple(sorted(edge_id, key=edge_id.get))
    faces = []
    for tri in sorted(face_id, key=face_id.get):
        fe = tuple(edge_id[tuple(sorted((tri[(k + 1) % 3], tri[(k + 2) % 3])))]
                   for k in range(3))
        faces.append(Face(edges=fe, vertices=tri))

    tet_objs = []
    for t in tets:
        te = tuple(edge_id[(t[i], t[j])] for (i, j) in LOCAL_PAIRS)
        tf = tuple(face_id[tuple(v for v in t if v != t[k])] for k in range(4))
        tet_objs.append(Tet(vertices=t, edges=te, faces=tf))

    c = Complex(num_vertices=num_vertices, edges=edges, faces=tuple(faces),
                tets=tuple(tet_objs))
    validate(c)
    return c


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
    """The 600-cell: 120 vertices, 720 edges, 1200 faces, 600 tets.

    Vertices are the binary icosahedral unit quaternions, edges join
    nearest-neighbour pairs, faces are the 3-cliques and tets the
    4-cliques of the resulting graph.
    """
    pts = _binary_icosahedral_vertices()
    n = len(pts)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    cutoff = d2.min() * (1.0 + 1e-9)
    adj = d2 < cutoff
    nbrs = [set(np.nonzero(adj[i])[0].tolist()) for i in range(n)]
    tets = []
    for i in range(n):
        for j in sorted(nbrs[i]):
            if j <= i:
                continue
            common_ij = nbrs[i] & nbrs[j]
            for k in sorted(common_ij):
                if k <= j:
                    continue
                for m in sorted(common_ij & nbrs[k]):
                    if m > k:
                        tets.append((i, j, k, m))
    return from_simplicial_tets(n, tets)


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
    lines.append("edges: " + repr([list(e) for e in c.edges]))
    lines.append("faces: " + repr([[list(f.edges), list(f.vertices)] for f in c.faces]))
    lines.append("tets: " + repr([[list(t.vertices), list(t.edges), list(t.faces)]
                                  for t in c.tets]))
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

    try:
        num_vertices = int(data["vertices"])
        edges = tuple((int(a), int(b)) for a, b in data["edges"])
        faces = tuple(Face(edges=tuple(int(e) for e in fe),
                           vertices=tuple(int(v) for v in fv))
                      for fe, fv in data["faces"])
        tets = tuple(Tet(vertices=tuple(int(v) for v in tv),
                         edges=tuple(int(e) for e in te),
                         faces=tuple(int(f) for f in tf))
                     for tv, te, tf in data["tets"])
    except (TypeError, ValueError) as exc:
        raise ComplexError(f"malformed section contents: {exc}") from exc
    for face in faces:
        if len(face.edges) != 3 or len(face.vertices) != 3:
            raise ComplexError("each face needs 3 edge ids and 3 vertex ids")
    for tet in tets:
        if len(tet.vertices) != 4 or len(tet.edges) != 6 or len(tet.faces) != 4:
            raise ComplexError("each tet needs 4 vertices, 6 edges, 4 faces")

    c = Complex(num_vertices=num_vertices, edges=edges, faces=faces, tets=tets)
    validate(c)
    return c


def load_complex(path) -> Complex:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_complex(fh.read())


def save_complex(c: Complex, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_complex(c))
