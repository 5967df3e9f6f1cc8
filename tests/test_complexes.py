import dataclasses
import hashlib
import inspect
import itertools

import numpy as np
import pytest

from regge3 import complexes, conformal, curvature, geometry, reproduce, solve
from regge3.complexes import (ComplexError, double_tetrahedron, from_simplicial_tets,
                              format_complex, parse_complex, six_hundred_cell, validate)

INCIDENCE_FIELDS = ("edge_vertices", "face_edges", "face_vertices",
                    "tet_vertices", "tet_edges", "tet_faces")


@pytest.fixture(scope="module")
def dt():
    return double_tetrahedron()


@pytest.fixture(scope="module")
def cell600():
    return six_hundred_cell()


def boundary_of_4_simplex():
    """All five tetrahedral facets of a 4-simplex: every edge in 3 tets."""
    return from_simplicial_tets(5, itertools.combinations(range(5), 4))


def assert_same_complex(a, b):
    assert a.num_vertices == b.num_vertices
    for name in INCIDENCE_FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def edited(c, name, rows):
    """``c`` with one incidence array replaced, not validated."""
    return dataclasses.replace(c, **{name: rows})


class TestDoubleTetrahedron:
    def test_counts(self, dt):
        assert dt.counts() == (4, 6, 4, 2)

    def test_euler_characteristic(self, dt):
        assert dt.euler_characteristic() == 0

    def test_both_tets_share_all_edges_and_faces(self, dt):
        np.testing.assert_array_equal(dt.tet_edges[0], dt.tet_edges[1])
        np.testing.assert_array_equal(dt.tet_faces[0], dt.tet_faces[1])

    def test_every_edge_has_degree_two(self, dt):
        assert np.all(dt.edge_degrees == 2)

    def test_max_edge_degree(self, dt):
        assert dt.edge_degrees.max() == 2


class TestSixHundredCell:
    def test_counts(self, cell600):
        assert cell600.counts() == (120, 720, 1200, 600)

    def test_euler_characteristic(self, cell600):
        assert cell600.euler_characteristic() == 0

    def test_every_edge_has_degree_five(self, cell600):
        assert cell600.edge_degrees.min() == 5
        assert cell600.edge_degrees.max() == 5

    def test_simplicial(self, cell600):
        pairs = {tuple(sorted(e)) for e in cell600.edge_vertices.tolist()}
        assert len(pairs) == 720

    def test_build_equals_the_validated_build(self, cell600):
        # the generator skips validate; from_simplicial_tets validates its tets
        ref = from_simplicial_tets(120, cell600.tet_vertices.tolist())
        for name in INCIDENCE_FIELDS:
            a, b = getattr(cell600, name), getattr(ref, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        validate(cell600)

    def test_edge_degrees_are_computed_once_and_read_only(self, cell600):
        degrees = cell600.edge_degrees
        assert cell600.edge_degrees is degrees
        with pytest.raises(ValueError, match="read-only"):
            degrees[0] = 4


@pytest.mark.parametrize("build", [double_tetrahedron, six_hundred_cell])
class TestOneInstancePerProcess:
    def test_every_call_returns_the_same_object(self, build):
        c = build()
        assert build() is c and complexes._instances[build.__name__] is c

    def test_constructor_stays_a_plain_function(self, build):
        # perfbench's tracer wraps only plain functions; functools.cache would hide it
        assert inspect.isfunction(build) and not hasattr(build, "__wrapped__")
        assert inspect.signature(build).parameters == {}

    def test_an_emptied_holder_builds_an_equal_complex(self, build, monkeypatch):
        c = build()
        monkeypatch.delitem(complexes._instances, build.__name__)
        new = build()
        assert new is not c and build() is new
        assert_same_complex(new, c)


class TestSyntheticComplexes:
    def test_boundary_of_4_simplex_counts(self):
        c = boundary_of_4_simplex()
        assert c.counts() == (5, 10, 10, 5)
        assert c.euler_characteristic() == 0

    def test_max_edge_degree_three(self):
        assert boundary_of_4_simplex().edge_degrees.max() == 3

    def test_non_integer_vertex_ids_rejected(self):
        tets = [[0.0, 1, 2, 3.5]] + list(itertools.combinations(range(5), 4))[1:]
        with pytest.raises(ComplexError, match="integers"):
            from_simplicial_tets(5, tets)


class TestIncidenceProperties:
    @pytest.mark.parametrize("builder", [double_tetrahedron, boundary_of_4_simplex,
                                         six_hundred_cell])
    def test_face_slots_pair_up(self, builder):
        c = builder()
        count = np.zeros(c.num_faces, dtype=int)
        np.add.at(count, c.tet_faces.ravel(), 1)
        assert c.tet_faces.size == 4 * c.num_tets
        assert np.all(count == 2)

    @pytest.mark.parametrize("builder", [double_tetrahedron, boundary_of_4_simplex])
    def test_vertex_edge_symmetry(self, builder):
        c = builder()
        for v in range(c.num_vertices):
            star = np.nonzero(np.any(c.edge_vertices == v, axis=1))[0]
            assert all(v in c.edge_vertices[e] for e in star)
            assert star.size == np.count_nonzero(c.edge_vertices == v)
        assert np.bincount(c.edge_vertices.ravel()).sum() == 2 * c.num_edges

    def test_local_labels_consistent(self, dt):
        tv, te = dt.tet_vertices[0], dt.tet_edges[0]
        for m, (i, j) in enumerate(complexes.LOCAL_PAIRS):
            assert set(dt.edge_vertices[te[m]]) == {tv[i], tv[j]}

    @pytest.mark.parametrize("name", INCIDENCE_FIELDS)
    def test_arrays_are_read_only(self, dt, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(dt, name)[0, 0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(dt, name, getattr(dt, name).copy())

    def test_construction_copies_its_input(self):
        tets = np.array(list(itertools.combinations(range(5), 4)))
        c = from_simplicial_tets(5, tets)
        tets[:] = 0
        assert c.tet_vertices[4].tolist() == [1, 2, 3, 4]


def simplicial_reference(num_vertices, tets):
    """Loop form of from_simplicial_tets: ids by first appearance via dicts."""
    tets = [tuple(sorted(t)) for t in tets]
    edge_id, face_id = {}, {}
    for t in tets:
        for pair in itertools.combinations(t, 2):
            edge_id.setdefault(pair, len(edge_id))
        for tri in itertools.combinations(t, 3):
            face_id.setdefault(tri, len(face_id))
    faces = list(face_id)
    return {
        "edge_vertices": list(edge_id),
        "face_edges": [[edge_id[tuple(sorted((tri[(k + 1) % 3], tri[(k + 2) % 3])))]
                        for k in range(3)] for tri in faces],
        "face_vertices": faces,
        "tet_vertices": tets,
        "tet_edges": [[edge_id[(t[i], t[j])] for i, j in complexes.LOCAL_PAIRS]
                      for t in tets],
        "tet_faces": [[face_id[tuple(v for v in t if v != t[k])] for k in range(4)]
                      for t in tets],
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_simplicial_numbering_matches_loop_reference(cell600, seed):
    # the 600-cell's tets relabelled, reordered and listed in random vertex order
    rng = np.random.default_rng(seed)
    labels = rng.permutation(cell600.num_vertices)
    tets = rng.permuted(labels[cell600.tet_vertices[rng.permutation(600)]], axis=1)
    c = from_simplicial_tets(cell600.num_vertices, tets.tolist())
    ref = simplicial_reference(cell600.num_vertices, tets.tolist())
    for name in INCIDENCE_FIELDS:
        np.testing.assert_array_equal(getattr(c, name), ref[name], err_msg=name)


# sha256 of the six incidence arrays as int64 bytes, in field order.  The
# numbering fixes the summation order of every per-edge and per-vertex
# bincount, so a renumbering changes results bitwise and must fail here.
INCIDENCE_SHA256 = {
    "double_tetrahedron":
        "2bbebee12bfc1538cad11f70c3d1774ed6e949d5db2d7f2535ab8a10ccacc41f",
    "six_hundred_cell":
        "ca63b866057b298b0c9c6d7aa0fc037fa82d10be0414aff535c1600a61202bb6",
    "boundary_of_4_simplex":
        "6bbee5e6152f20c9f9580e353c51312d3cf551f2dcc860206f5fd1d21c4b14dd",
}


@pytest.mark.parametrize("builder", [double_tetrahedron, six_hundred_cell,
                                     boundary_of_4_simplex])
def test_incidence_numbering_is_pinned(builder):
    c = builder()
    h = hashlib.sha256()
    for name in INCIDENCE_FIELDS:
        h.update(getattr(c, name).astype(np.int64).tobytes())
    assert h.hexdigest() == INCIDENCE_SHA256[builder.__name__]


class TestFileFormat:
    @pytest.mark.parametrize("builder", [double_tetrahedron, boundary_of_4_simplex,
                                         six_hundred_cell])
    def test_round_trip_identical(self, builder):
        c = builder()
        text = format_complex(c)
        again = parse_complex(text)
        assert_same_complex(again, c)
        assert format_complex(again) == text

    def test_load_from_path(self, dt, tmp_path):
        path = tmp_path / "dt.tri"
        complexes.save_complex(dt, path)
        assert_same_complex(complexes.load_complex(path), dt)

    def test_face_with_three_tets_rejected(self, dt):
        broken = dataclasses.replace(dt, tet_vertices=dt.tet_vertices[[0, 1, 0]],
                                     tet_edges=dt.tet_edges[[0, 1, 0]],
                                     tet_faces=dt.tet_faces[[0, 1, 0]])
        with pytest.raises(ComplexError, match="belongs to 3 tets"):
            validate(broken)

    def test_edge_referencing_missing_vertex_rejected(self, dt):
        text = format_complex(dt).replace("[2, 3]", "[2, 9]")
        with pytest.raises(ComplexError):
            parse_complex(text)

    def test_malformed_document_rejected(self):
        with pytest.raises(ComplexError, match="malformed"):
            parse_complex("vertices: 4\nedges: [[0, 1], [0, 2\nfaces: []\ntets: []")

    def test_missing_section_rejected(self):
        with pytest.raises(ComplexError, match="missing sections"):
            parse_complex("vertices: 4\n")

    def test_inconsistent_local_labels_rejected(self, dt):
        broken = edited(dt, "tet_edges", [[1, 0, 2, 3, 4, 5], dt.tet_edges[1]])
        with pytest.raises(ComplexError, match="local pair"):
            validate(broken)

    def test_face_edge_opposite_vertex_convention_enforced(self, dt):
        face_edges = dt.face_edges.copy()
        face_edges[0] = face_edges[0, [1, 0, 2]]
        broken = edited(dt, "face_edges", face_edges)
        with pytest.raises(ComplexError):
            validate(broken)

    @pytest.mark.parametrize("section, old, new", [
        ("vertices", "vertices: 4", "vertices: 4.9"),
        ("edges", "edges: [[0, 1],", "edges: [[0.2, 1.7],"),
        ("faces", "[[5, 4, 3], [1, 2, 3]]", "[[5, 4, 3], [1.0, 2, 3]]"),
        ("tets", "[[0, 1, 2, 3], [0, 1, 2, 3, 4, 5], [0, 1, 2, 3]]",
                 "[[0, 1, 2, 3], [0, 1, 2, 3, 4, 5], [0, 1, 2, 3.0]]"),
    ], ids=("vertices", "edges", "faces", "tets"))
    def test_non_integer_ids_rejected(self, dt, section, old, new):
        text = format_complex(dt)
        assert old in text
        with pytest.raises(ComplexError, match=f"{section} section"):
            parse_complex(text.replace(old, new, 1))

    @pytest.mark.parametrize("section, old, new", [
        ("edges", "edges: [[0, 1],", "edges: [[0, True],"),
        ("faces", "[[5, 4, 3], [1, 2, 3]]", "[[5, 4, 3], [True, 2, 3]]"),
        ("tets", "[[0, 1, 2, 3], [0, 1, 2, 3, 4, 5], [0, 1, 2, 3]]",
                 "[[0, 1, 2, 3], [0, 1, 2, 3, 4, 5], [0, True, 2, 3]]"),
    ], ids=("edges", "faces", "tets"))
    def test_bool_ids_rejected(self, dt, section, old, new):
        # True == 1, so each document would otherwise load as the double tetrahedron
        text = format_complex(dt)
        assert old in text
        with pytest.raises(ComplexError, match=f"{section} section"):
            parse_complex(text.replace(old, new, 1))

    @pytest.mark.parametrize("text", [
        "vertices: 4\nedges: [[0, 1, 2]]\nfaces: []\ntets: []",
        "vertices: 4\nedges: [[0, 1]]\nfaces: [[[0, 0, 0]]]\ntets: []",
        "vertices: 4\nedges: [[0, 1]]\nfaces: [[[0, 0], [1, 2, 3]]]\ntets: []",
        "vertices: 4\nedges: [[0, 1]]\nfaces: []\ntets: [[[0, 1, 2, 3], [0]]]",
        "vertices: 4\nedges: [[0, 1]]\nfaces: 3\ntets: []",
        "vertices: 4\nedges: [[0, 1]]\nfaces: [[[0, 0, 0], [1, 2, 3]], [[0, 0], [1, 2, 3]]]\n"
        "tets: []",
    ])
    def test_misshapen_sections_rejected(self, text):
        with pytest.raises(ComplexError):
            parse_complex(text)


def _corrupt(name, row, value):
    def edit(c):
        rows = getattr(c, name).copy()
        rows[row] = value
        return edited(c, name, rows)
    return edit


def _extra_edge(pair, face_slot=None):
    """Append an edge; optionally make it face 0's edge at ``face_slot``."""
    def edit(c):
        c = edited(c, "edge_vertices", np.vstack([c.edge_vertices, pair]))
        if face_slot is not None:
            c = _corrupt("face_edges", (0, face_slot), c.num_edges - 1)(c)
        return c
    return edit


class TestValidate:
    """Each invariant fires on a double tetrahedron broken in one place."""

    @pytest.mark.parametrize("edit, message", [
        (_corrupt("edge_vertices", 5, [2, 9]), r"edge 5 references missing vertex \(2,9\)"),
        (_corrupt("edge_vertices", 5, [3, 3]), "edge 5 is a loop at vertex 3"),
        (_corrupt("face_vertices", 1, [0, 2, 2]), r"face 1 has repeated vertices \(0, 2, 2\)"),
        (_corrupt("face_edges", (2, 1), 6), "face 2 references missing edge 6"),
        (_corrupt("face_edges", 0, [4, 5, 3]),
         r"face 0 slot 0: edge 4 joins \(1, 3\), expected the pair \[2, 3\] opposite vertex 1"),
        (_corrupt("tet_vertices", 1, [0, 1, 2, 2]), r"tet 1 has repeated vertices"),
        (_corrupt("tet_edges", (1, 3), -1), "tet 1 references missing edge -1"),
        (_corrupt("tet_edges", 0, [1, 0, 2, 3, 4, 5]),
         r"tet 0 local pair \(0,1\): edge 1 joins \(0, 2\), expected \(0,1\)"),
        (_corrupt("tet_faces", (1, 2), 4), "tet 1 references missing face 4"),
        (_corrupt("tet_faces", 0, [1, 0, 2, 3]),
         r"tet 0 face slot 0: face 1 has vertices \(0, 2, 3\), expected \[1, 2, 3\] "
         r"\(opposite vertex 0\)"),
        (_extra_edge([2, 3], face_slot=0),
         r"tet 0 face slot 0: face edge 6 does not match the tet edge for local pair \(2, 3\)"),
        (_extra_edge([0, 1]), "edge 6 belongs to no face"),
        (lambda c: dataclasses.replace(c, num_vertices=5), "Euler characteristic 1 != 0"),
        (lambda c: dataclasses.replace(c, tet_vertices=[], tet_edges=[], tet_faces=[]),
         "at least one simplex"),
    ])
    def test_violation_reported(self, dt, edit, message):
        with pytest.raises(ComplexError, match=message):
            validate(edit(dt))

    @pytest.mark.parametrize("name", ["face_edges", "tet_faces"])
    def test_row_counts_must_agree(self, dt, name):
        with pytest.raises(ComplexError, match="row counts"):
            validate(edited(dt, name, getattr(dt, name)[:1]))

    @pytest.mark.parametrize("builder", [double_tetrahedron, boundary_of_4_simplex,
                                         six_hundred_cell])
    def test_builders_validate(self, builder):
        validate(builder())


# record classes whose __init__ is written out and stores its fields by set_fields
RECORDS = [complexes.Complex, geometry.TetGeometry, curvature.CurvatureReport,
           curvature.BoundsReport, solve.YamabeEstimate, reproduce.CriterionRow,
           conformal.ConformalClass, conformal.EquihedralPoint, solve.Spectrum, solve.SweepTable,
           solve.SolveTrace]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_written_out_init_takes_the_fields_in_order(cls):
    names = [f.name for f in dataclasses.fields(cls)]
    assert list(inspect.signature(cls).parameters) == names
    if cls in (complexes.Complex, conformal.ConformalClass):
        return  # each validates its arrays
    values = [object() for _ in names]
    rec = cls(*values)
    assert [getattr(rec, name) for name in names] == values
    assert dataclasses.replace(rec) == rec
    if cls not in (solve.SweepTable, solve.SolveTrace):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, names[0], None)


def test_no_record_has_a_generated_init():
    # a generated __init__ interns throwaway names at every import of its module (see
    # complexes.set_fields)
    generated = {cls.__name__ for module in (complexes, geometry, curvature, conformal, solve,
                                             reproduce)
                 for cls in vars(module).values()
                 if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
                 and cls.__init__.__code__.co_filename == "<string>"}
    assert generated == set()


def test_solve_traces_never_share_a_list():
    a, b = solve.SolveTrace(), solve.SolveTrace(points=1, reason="")
    assert a == solve.SolveTrace(reason="max-iters", newton_steps=0, points=0, rejected=0)
    assert (b.reason, b.points, b.iterates) == ("", 1, [])
    lists = ("iterates", "residual_norms", "step_sizes", "values")
    assert len({id(getattr(t, name)) for t in (a, b) for name in lists}) == 8
