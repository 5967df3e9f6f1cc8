import itertools

import numpy as np
import pytest

from regge3 import complexes
from regge3.complexes import (Complex, ComplexError, Face, Tet, double_tetrahedron,
                              from_simplicial_tets, format_complex,
                              parse_complex, six_hundred_cell, validate)


@pytest.fixture(scope="module")
def dt():
    return double_tetrahedron()


@pytest.fixture(scope="module")
def cell600():
    return six_hundred_cell()


def boundary_of_4_simplex():
    """All five tetrahedral facets of a 4-simplex: every edge in 3 tets."""
    return from_simplicial_tets(5, itertools.combinations(range(5), 4))


class TestDoubleTetrahedron:
    def test_counts(self, dt):
        assert dt.counts() == (4, 6, 4, 2)

    def test_euler_characteristic(self, dt):
        assert dt.euler_characteristic() == 0

    def test_both_tets_share_all_edges_and_faces(self, dt):
        assert dt.tets[0].edges == dt.tets[1].edges
        assert dt.tets[0].faces == dt.tets[1].faces

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
        pairs = {tuple(sorted(e)) for e in cell600.edges}
        assert len(pairs) == 720


class TestSyntheticComplexes:
    def test_boundary_of_4_simplex_counts(self):
        c = boundary_of_4_simplex()
        assert c.counts() == (5, 10, 10, 5)
        assert c.euler_characteristic() == 0

    def test_max_edge_degree_three(self):
        assert boundary_of_4_simplex().edge_degrees.max() == 3


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
    def test_edges_at_vertex_symmetry(self, builder):
        c = builder()
        for v in range(c.num_vertices):
            for e in c.edges_at_vertex[v]:
                assert v in c.edges[e]
        for eid, (a, b) in enumerate(c.edges):
            assert eid in c.edges_at_vertex[a]
            assert eid in c.edges_at_vertex[b]

    def test_local_labels_consistent(self, dt):
        tet = dt.tets[0]
        for m, (i, j) in enumerate(complexes.LOCAL_PAIRS):
            assert set(dt.edges[tet.edges[m]]) == {tet.vertices[i], tet.vertices[j]}


class TestFileFormat:
    @pytest.mark.parametrize("builder", [double_tetrahedron, boundary_of_4_simplex,
                                         six_hundred_cell])
    def test_round_trip_identical(self, builder):
        c = builder()
        assert parse_complex(format_complex(c)) == c

    def test_load_from_path(self, dt, tmp_path):
        path = tmp_path / "dt.tri"
        complexes.save_complex(dt, path)
        assert complexes.load_complex(path) == dt

    def test_face_with_three_tets_rejected(self, dt):
        tets = dt.tets + (dt.tets[0],)
        broken = Complex(num_vertices=4, edges=dt.edges, faces=dt.faces, tets=tets)
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
        tet = dt.tets[0]
        bad_tet = Tet(vertices=tet.vertices,
                      edges=(1, 0) + tet.edges[2:], faces=tet.faces)
        broken = Complex(num_vertices=4, edges=dt.edges, faces=dt.faces,
                         tets=(bad_tet, dt.tets[1]))
        with pytest.raises(ComplexError, match="local pair"):
            validate(broken)

    def test_face_edge_opposite_vertex_convention_enforced(self, dt):
        f = dt.faces[0]
        bad_face = Face(edges=(f.edges[1], f.edges[0], f.edges[2]),
                        vertices=f.vertices)
        broken = Complex(num_vertices=4, edges=dt.edges,
                         faces=(bad_face,) + dt.faces[1:], tets=dt.tets)
        with pytest.raises(ComplexError):
            validate(broken)
