import numpy as np
import pytest

from regge3.complexes import (FACE_EDGES, FACE_VERTICES, LOCAL_PAIRS,
                              double_tetrahedron)
from regge3.conformal import random_equihedral_lengths
from regge3.geometry import (InadmissibleMetricError, cayley_menger, dihedral_angles,
                             dual_lengths, tet_geometry, tet_volume)
from regge3.solve import random_admissible_lengths

REGULAR = np.ones(6)
ACOS13 = np.arccos(1.0 / 3.0)


# ---------------------------------------------------------------------------
# independent oracles: the library computes every per-tet quantity from the
# inverse of the Cayley-Menger matrix; these take the classical routes


def face_angle(a, b, c):
    """Interior angle opposite side ``a`` by the cosine law."""
    return np.arccos(np.clip((b * b + c * c - a * a) / (2.0 * b * c), -1.0, 1.0))


def spherical_dihedrals(l, at_second_vertex=False):
    """Dihedral angles from the three face angles at one end of each edge
    (the spherical cosine law)."""
    def L(i, j):
        return l[LOCAL_PAIRS.index((min(i, j), max(i, j)))]

    out = np.empty(6)
    for m, (i, j) in enumerate(LOCAL_PAIRS):
        if at_second_vertex:
            i, j = j, i
        k, w = (v for v in range(4) if v not in (i, j))
        th_jk = face_angle(L(j, k), L(i, j), L(i, k))
        th_jw = face_angle(L(j, w), L(i, j), L(i, w))
        th_kw = face_angle(L(k, w), L(i, k), L(i, w))
        out[m] = np.arccos((np.cos(th_kw) - np.cos(th_jk) * np.cos(th_jw))
                           / (np.sin(th_jk) * np.sin(th_jw)))
    return out


def embed_tet(l):
    """Coordinates (4, 3): vertex 0 at the origin, vertex 1 on the positive
    x axis, vertex 2 in the upper xy half-plane, vertex 3 with positive z."""
    l01, l02, l03, l12, l13, l23 = l
    x2 = (l01 ** 2 + l02 ** 2 - l12 ** 2) / (2.0 * l01)
    y2 = np.sqrt(l02 ** 2 - x2 ** 2)
    x3 = (l01 ** 2 + l03 ** 2 - l13 ** 2) / (2.0 * l01)
    y3 = (l02 ** 2 + l03 ** 2 - l23 ** 2 - 2.0 * x2 * x3) / (2.0 * y2)
    z3 = np.sqrt(l03 ** 2 - x3 ** 2 - y3 ** 2)
    return np.array([[0, 0, 0], [l01, 0, 0], [x2, y2, 0], [x3, y3, z3]])


def tet_circumcenter(p):
    d = p[1:] - p[0]
    return p[0] + np.linalg.solve(d, 0.5 * np.sum(d * d, axis=-1))


def face_circumcenters(p):
    """Circumcenters (4, 3) of the faces, in face slot order."""
    out = np.empty((4, 3))
    for k, fv in enumerate(FACE_VERTICES):
        p0, d1, d2 = p[fv[0]], p[fv[1]] - p[fv[0]], p[fv[2]] - p[fv[0]]
        g11, g12, g22 = d1 @ d1, d1 @ d2, d2 @ d2
        det = g11 * g22 - g12 * g12
        x1 = (0.5 * g11 * g22 - 0.5 * g22 * g12) / det
        x2 = (0.5 * g22 * g11 - 0.5 * g11 * g12) / det
        out[k] = p0 + x1 * d1 + x2 * d2
    return out


def signed_distance(x, a, n, toward):
    """Distance from x to the plane through a with normal n (in 3d, or the
    line within a face plane), positive on the side of ``toward``."""
    n = n / np.linalg.norm(n)
    return np.sign((toward - a) @ n) * ((x - a) @ n)


def kernel_face_angles(l):
    """Face angles (4, 3) recovered from the kernel's h_edge = (s/2) cot."""
    sides = l[np.asarray(FACE_EDGES)]
    return np.arctan2(sides, 2.0 * tet_geometry(l).h_edge)


def oracle_det5(lengths):
    """Generic determinant of the bordered matrix, independent route:
    cofactor expansion along the first row."""
    q = np.asarray(lengths, float) ** 2
    A = np.array([
        [0, 1, 1, 1, 1],
        [1, 0, q[0], q[1], q[2]],
        [1, q[0], 0, q[3], q[4]],
        [1, q[1], q[3], 0, q[5]],
        [1, q[2], q[4], q[5], 0],
    ])

    def det(M):
        n = len(M)
        if n == 1:
            return M[0][0]
        total = 0.0
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in M[1:]]
            total += ((-1) ** j) * M[0][j] * det(minor)
        return total

    return det(A.tolist())


class TestCayleyMenger:
    def test_regular(self):
        assert cayley_menger(REGULAR) == pytest.approx(4.0, abs=1e-12)
        assert cayley_menger(REGULAR) == pytest.approx(oracle_det5(REGULAR), abs=1e-12)

    def test_flat_square_family_vanishes(self):
        l = np.array([np.sqrt(2), 1, 1, 1, 1, np.sqrt(2)])
        assert abs(cayley_menger(l)) < 1e-12
        assert abs(oracle_det5(l)) < 1e-12

    def test_violated_triangle_negative(self):
        l = np.array([1, 1, 1, 1, 1, 3.0])
        assert cayley_menger(l) < 0
        assert cayley_menger(l) == pytest.approx(oracle_det5(l), rel=1e-12)

    def test_matches_oracle_on_random_lengths(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            l = rng.uniform(0.5, 1.5, 6)
            assert cayley_menger(l) == pytest.approx(oracle_det5(l), rel=1e-10, abs=1e-10)

    def test_degree_six_homogeneity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            l = rng.uniform(0.5, 1.5, 6)
            c = rng.uniform(0.5, 2.0)
            assert cayley_menger(c * l) == pytest.approx(
                c ** 6 * cayley_menger(l), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        # dCM3/dl = 576 V dV/dl; the kernel's dV/dl against FDs of both
        rng = np.random.default_rng(2)
        dt = double_tetrahedron()
        for _ in range(10):
            l = random_admissible_lengths(dt, rng)
            geo = tet_geometry(l)
            g = 576.0 * geo.volume * geo.dvolume
            h = 1e-6
            for i in range(6):
                e = np.zeros(6)
                e[i] = h
                fd = (cayley_menger(l + e) - cayley_menger(l - e)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)
                fd = (tet_volume(l + e) - tet_volume(l - e)) / (2 * h)
                assert geo.dvolume[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestVolume:
    def test_regular(self):
        assert tet_volume(REGULAR) == pytest.approx(1 / (6 * np.sqrt(2)), abs=1e-15)

    def test_cubic_homogeneity(self):
        rng = np.random.default_rng(3)
        dt = double_tetrahedron()
        for _ in range(5):
            l = random_admissible_lengths(dt, rng)
            c = rng.uniform(0.5, 2.0)
            assert tet_volume(c * l) == pytest.approx(c ** 3 * tet_volume(l), rel=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(InadmissibleMetricError):
            tet_volume(np.array([np.sqrt(2), 1, 1, 1, 1, np.sqrt(2)]))
        with pytest.raises(InadmissibleMetricError):
            tet_volume(np.array([1.4143, 1, 1, 1, 1, 1.4143]))
        with pytest.raises(InadmissibleMetricError):
            tet_volume(np.array([1, 1, 1, 1, 1, 3.0]))


class TestInadmissibleTetNames:
    FLAT = np.array([1.4143, 1, 1, 1, 1, 1.4143])      # CM3 < 0, faces fine
    BAD_FACE = np.array([1, 1, 1, 1, 1, 3.0])

    def test_one_axis_of_tets_names_the_index(self):
        with pytest.raises(InadmissibleMetricError, match=r"tet 2 has CM3 = -"):
            tet_geometry(np.array([REGULAR, REGULAR, self.FLAT]))
        with pytest.raises(InadmissibleMetricError, match=r"tet 1 has a degenerate face"):
            tet_geometry(np.array([REGULAR, self.BAD_FACE]))

    def test_batch_of_metrics_names_the_index_tuple(self):
        dt = double_tetrahedron()
        for bad, text in ((self.FLAT, r"tet \(3, 0\) has CM3 = -"),
                          (self.BAD_FACE, r"tet \(3, 0\) has a degenerate face")):
            stack = np.ones((5, 6))
            stack[3] = bad
            tl = dt.tet_lengths(stack)
            assert tl.shape == (5, 2, 6)
            with pytest.raises(InadmissibleMetricError, match=text):
                tet_geometry(tl)


class TestFaceAngle:
    """Face angles as the kernel sees them, through h_edge = (s/2) cot."""

    def test_equilateral(self):
        assert kernel_face_angles(REGULAR) == pytest.approx(np.full((4, 3), np.pi / 3),
                                                            abs=1e-15)

    def test_right_isoceles(self):
        # face 3 = (0,1,2) of the corner tet has sides (sqrt2, 1, 1)
        l = np.array([1, 1, 1, np.sqrt(2), np.sqrt(2), np.sqrt(2)])
        assert kernel_face_angles(l)[3, 0] == pytest.approx(np.pi / 2, abs=1e-15)

    def test_obtuse(self):
        # face 3 has sides (1.9, 1, 1); oracle: direct evaluation of the cosine law
        l = np.array([1, 1, 1, 1.9, 1.2, 1.2])
        assert kernel_face_angles(l)[3, 0] == pytest.approx(np.arccos((2 - 3.61) / 2.0),
                                                            abs=1e-15)

    def test_degenerate_raises(self):
        with pytest.raises(InadmissibleMetricError):
            tet_geometry(np.array([1, 1, 1, 2.0, 1.2, 1.2]))
        with pytest.raises(InadmissibleMetricError):
            tet_geometry(np.array([1, 1, 1, -1.0, 1.2, 1.2]))


class TestDihedralAngles:
    def test_regular_all_arccos_one_third(self):
        assert dihedral_angles(REGULAR) == pytest.approx(np.full(6, ACOS13), abs=1e-14)

    def test_corner_orthoscheme_right_angles(self):
        # three mutually orthogonal unit edges at vertex 0
        l = np.array([1, 1, 1, np.sqrt(2), np.sqrt(2), np.sqrt(2)])
        betas = dihedral_angles(l)
        assert betas[:3] == pytest.approx(np.full(3, np.pi / 2), abs=1e-12)

    def test_equihedral_opposite_angles_equal(self):
        l = np.array([1.3, 1, 1, 1, 1, 1.3])
        betas = dihedral_angles(l)
        assert betas[0] == pytest.approx(betas[5], abs=1e-13)
        assert betas[1] == pytest.approx(betas[4], abs=1e-13)
        assert betas[2] == pytest.approx(betas[3], abs=1e-13)

    def test_random_equihedral_opposite_angles_equal(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            l = random_equihedral_lengths(rng)
            betas = dihedral_angles(l)
            assert betas[[0, 1, 2]] == pytest.approx(betas[[5, 4, 3]], abs=1e-12)

    def test_both_endpoint_computations_agree(self):
        # the kernel against the spherical cosine law at either end of each edge
        rng = np.random.default_rng(5)
        dt = double_tetrahedron()
        for _ in range(10):
            l = random_admissible_lengths(dt, rng)
            for at_second_vertex in (False, True):
                assert dihedral_angles(l) == pytest.approx(
                    spherical_dihedrals(l, at_second_vertex), abs=1e-12)

    def test_angles_in_open_interval(self):
        rng = np.random.default_rng(6)
        dt = double_tetrahedron()
        for _ in range(20):
            betas = dihedral_angles(random_admissible_lengths(dt, rng))
            assert np.all(betas > 0) and np.all(betas < np.pi)

    def test_schlaefli_identity(self):
        rng = np.random.default_rng(7)
        dt = double_tetrahedron()
        h = 1e-6
        for _ in range(10):
            l = random_admissible_lengths(dt, rng)
            for j in range(6):
                e = np.zeros(6)
                e[j] = h
                db = (dihedral_angles(l + e) - dihedral_angles(l - e)) / (2 * h)
                assert abs(float(l @ db)) < 1e-6


class TestSecondDerivatives:
    """The kernel's dihedral Jacobian and volume Hessian, against central
    differences of the first-order fields and the Schlaefli structure."""

    H = 1e-6

    def central(self, l, field):
        cols = []
        for n in range(6):
            e = np.zeros(6)
            e[n] = self.H
            cols.append((getattr(tet_geometry(l + e), field)
                         - getattr(tet_geometry(l - e), field)) / (2 * self.H))
        return np.stack(cols, axis=-1)

    def test_ddihedrals_match_central_differences(self):
        rng = np.random.default_rng(40)
        dt = double_tetrahedron()
        for _ in range(20):
            l = random_admissible_lengths(dt, rng)
            J = tet_geometry(l).ddihedrals
            assert np.abs(J - self.central(l, "dihedrals")).max() < 1e-7 * np.abs(J).max()

    def test_d2volume_matches_central_differences(self):
        rng = np.random.default_rng(41)
        dt = double_tetrahedron()
        for _ in range(20):
            l = random_admissible_lengths(dt, rng)
            H = tet_geometry(l).d2volume
            assert np.abs(H - self.central(l, "dvolume")).max() < 1e-7 * np.abs(H).max()
            assert np.abs(H - H.T).max() < 1e-12 * np.abs(H).max()

    def test_schlaefli_structure(self):
        # sum_e l_e dbeta_e/dl_m = 0, and 6V/(l_m l_n) dbeta_m/dl_n is
        # symmetric with unit entries on opposite edge pairs
        rng = np.random.default_rng(42)
        dt = double_tetrahedron()
        opposite = [5, 4, 3, 2, 1, 0]
        for _ in range(20):
            l = random_admissible_lengths(dt, rng)
            geo = tet_geometry(l)
            J = geo.ddihedrals
            assert np.abs(l @ J).max() < 1e-12 * np.abs(J).max()
            S = 6 * geo.volume / np.outer(l, l) * J
            assert np.abs(S - S.T).max() < 1e-12 * np.abs(S).max()
            assert S[range(6), opposite] == pytest.approx(np.ones(6), abs=1e-12)

    def test_batched_over_leading_axes(self):
        rng = np.random.default_rng(43)
        dt = double_tetrahedron()
        batch = np.stack([random_admissible_lengths(dt, rng) for _ in range(6)]).reshape(2, 3, 6)
        geo = tet_geometry(batch)
        assert geo.ddihedrals.shape == geo.d2volume.shape == (2, 3, 6, 6)
        one = tet_geometry(batch[1, 2])
        assert geo.ddihedrals[1, 2] == pytest.approx(one.ddihedrals, abs=1e-13)
        assert geo.d2volume[1, 2] == pytest.approx(one.d2volume, abs=1e-13)


class TestEmbedding:
    def test_regular_apex_height(self):
        p = embed_tet(REGULAR)
        geo = tet_geometry(REGULAR)
        assert abs(p[3, 2]) == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-14)
        assert 3 * geo.volume / geo.areas[3] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-14)

    def test_distances_reconstruct(self):
        rng = np.random.default_rng(8)
        dt = double_tetrahedron()
        for _ in range(10):
            l = random_admissible_lengths(dt, rng)
            p = embed_tet(l)
            for m, (i, j) in enumerate(LOCAL_PAIRS):
                d = np.linalg.norm(p[i] - p[j])
                assert d == pytest.approx(l[m], rel=1e-12)

    def test_scaling(self):
        rng = np.random.default_rng(9)
        l = random_admissible_lengths(double_tetrahedron(), rng)
        c = 1.7
        assert embed_tet(c * l) == pytest.approx(c * embed_tet(l), rel=1e-12)
        a, b = tet_geometry(l), tet_geometry(c * l)
        for name, power in (("volume", 3), ("areas", 2), ("h_face", 1), ("h_edge", 1),
                            ("dvolume", 2), ("dihedrals", 0)):
            assert getattr(b, name) == pytest.approx(c ** power * getattr(a, name),
                                                     rel=1e-12)

    def test_inadmissible_raises(self):
        with pytest.raises(InadmissibleMetricError):
            tet_geometry(np.array([1.4143, 1, 1, 1, 1, 1.4143]))


class TestHeightsAndAreas:
    def test_regular_values(self):
        geo = tet_geometry(REGULAR)
        assert geo.areas == pytest.approx(np.full(4, np.sqrt(3) / 4), abs=1e-14)
        assert geo.h_face == pytest.approx(np.full(4, 1 / (2 * np.sqrt(6))), abs=1e-14)
        assert geo.h_edge == pytest.approx(np.full((4, 3), 1 / (2 * np.sqrt(3))), abs=1e-14)

    def test_right_triangle_hypotenuse_height_zero(self):
        # face {0,1,2} of the corner tet has sides (sqrt2, 1, 1); the
        # circumcenter sits on the hypotenuse midpoint
        l = np.array([1, 1, 1, np.sqrt(2), np.sqrt(2), np.sqrt(2)])
        # face 3 = (0,1,2); its slot 0 is the edge opposite vertex 0 = (1,2)
        assert tet_geometry(l).h_edge[3, 0] == pytest.approx(0.0, abs=1e-13)

    def test_triangle_decomposition_identity(self):
        rng = np.random.default_rng(10)
        dt = double_tetrahedron()
        for _ in range(10):
            l = random_admissible_lengths(dt, rng)
            geo = tet_geometry(l)
            sides = l[np.asarray(FACE_EDGES)]
            recon = np.sum(geo.h_edge * sides / 2.0, axis=-1)
            assert recon == pytest.approx(geo.areas, rel=1e-10)

    def test_tet_decomposition_identity(self):
        rng = np.random.default_rng(11)
        dt = double_tetrahedron()
        for _ in range(10):
            l = random_admissible_lengths(dt, rng)
            geo = tet_geometry(l)
            assert np.sum(geo.h_face * geo.areas) == pytest.approx(3 * tet_volume(l),
                                                                   rel=1e-10)

    def test_circumcenters_equidistant(self):
        # the kernel's heights against the explicit embedding's circumcenters
        rng = np.random.default_rng(12)
        dt = double_tetrahedron()
        for _ in range(5):
            l = random_admissible_lengths(dt, rng)
            geo = tet_geometry(l)
            p = embed_tet(l)
            ct, cf = tet_circumcenter(p), face_circumcenters(p)
            d = np.linalg.norm(p - ct, axis=-1)
            assert np.max(d) - np.min(d) < 1e-10
            for k, fv in enumerate(FACE_VERTICES):
                tri = p[list(fv)]
                dc = np.linalg.norm(tri - cf[k], axis=-1)
                assert np.max(dc) - np.min(dc) < 1e-10
                normal = np.cross(tri[1] - tri[0], tri[2] - tri[0])
                assert abs(geo.h_face[k] - signed_distance(ct, tri[0], normal, p[k])) < 1e-10
                for s in range(3):
                    a, b = np.delete(tri, s, axis=0)
                    assert abs(geo.h_edge[k, s] - signed_distance(
                        cf[k], a, np.cross(normal, b - a), tri[s])) < 1e-10

    def test_equihedral_faces_acute_and_heights_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            l = random_equihedral_lengths(rng)
            assert np.all(tet_geometry(l).h_edge >= -1e-12)
            # all face angles acute
            sides = l[np.asarray(FACE_EDGES)]
            for k in range(3):
                ang = face_angle(sides[..., k], sides[..., (k + 1) % 3],
                                 sides[..., (k + 2) % 3])
                assert np.all(ang < np.pi / 2 + 1e-12)


class TestDualLengths:
    def test_double_tet_regular(self):
        dt = double_tetrahedron()
        expect = np.full(6, 1 / (6 * np.sqrt(2)))
        assert dual_lengths(dt, REGULAR) == pytest.approx(expect, abs=1e-14)

    def test_nonnegative_on_equihedral(self):
        dt = double_tetrahedron()
        rng = np.random.default_rng(14)
        for _ in range(20):
            l = random_equihedral_lengths(rng)
            assert np.all(dual_lengths(dt, l) >= -1e-12)

    def test_quadratic_scaling(self):
        dt = double_tetrahedron()
        rng = np.random.default_rng(15)
        l = random_admissible_lengths(dt, rng)
        c = 1.9
        assert dual_lengths(dt, c * l) == pytest.approx(
            c ** 2 * dual_lengths(dt, l), rel=1e-11)

    def test_inadmissible_raises(self):
        dt = double_tetrahedron()
        with pytest.raises(InadmissibleMetricError):
            dual_lengths(dt, np.array([1.4143, 1, 1, 1, 1, 1.4143]))
