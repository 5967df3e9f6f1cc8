import dataclasses
import inspect
import pickle

import numpy as np
import pytest

from regge3 import geometry
from regge3.complexes import (EDGE_FACES, FACE_EDGES, FACE_VERTICES, LOCAL_PAIRS,
                              OPPOSITE_EDGE, double_tetrahedron, six_hundred_cell)
from regge3.conformal import induced_lengths, random_equihedral_lengths
from regge3.curvature import functionals
from regge3.geometry import (InadmissibleMetricError, cayley_menger,
                             is_admissible, tet_geometry)
from regge3.solve import diagonal_family, random_admissible_lengths

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


def heron_areas(l):
    """Face areas (4,) by Heron's formula, in face slot order."""
    a, b, c = np.moveaxis(l[np.asarray(FACE_EDGES)], -1, 0)
    s = 0.5 * (a + b + c)
    return np.sqrt(s * (s - a) * (s - b) * (s - c))


def embedded_heights(l):
    """Signed circumcentric heights of the explicit embedding: h_face (4,),
    from the tet circumcenter to each face plane, positive toward the
    opposite vertex, and h_edge (4, 3), from each face circumcenter to the
    face's edges (slot s opposite face vertex s), positive toward the
    opposite vertex."""
    p = embed_tet(l)
    ct, cf = tet_circumcenter(p), face_circumcenters(p)
    h_face, h_edge = np.empty(4), np.empty((4, 3))
    for k, fv in enumerate(FACE_VERTICES):
        tri = p[list(fv)]
        normal = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        h_face[k] = signed_distance(ct, tri[0], normal, p[k])
        for s in range(3):
            a, b = np.delete(tri, s, axis=0)
            h_edge[k, s] = signed_distance(cf[k], a, np.cross(normal, b - a), tri[s])
    return h_face, h_edge


def embedded_face_angles(l):
    """Face angles (4, 3) recovered from the embedding's h_edge = (s/2) cot."""
    return np.arctan2(l[np.asarray(FACE_EDGES)], 2.0 * embedded_heights(l)[1])


def oracle_dual(l):
    """Dual-area pieces (6,): (1/2) sum over the edge's two faces f of h_{e<f} h_f,
    from the embedding's heights."""
    h_face, h_edge = embedded_heights(l)
    return np.array([0.5 * sum(h_edge[f, s] * h_face[f] for f, s in pairs)
                     for pairs in EDGE_FACES])


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
                fd = (tet_geometry(l + e).volume - tet_geometry(l - e).volume) / (2 * h)
                assert geo.dvolume[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestVolume:
    """The kernel's volume, ``tet_geometry(l).volume``."""

    def test_regular(self):
        assert tet_geometry(REGULAR).volume == pytest.approx(1 / (6 * np.sqrt(2)), abs=1e-15)

    def test_cubic_homogeneity(self):
        rng = np.random.default_rng(3)
        dt = double_tetrahedron()
        for _ in range(5):
            l = random_admissible_lengths(dt, rng)
            c = rng.uniform(0.5, 2.0)
            assert tet_geometry(c * l).volume == pytest.approx(c ** 3 * tet_geometry(l).volume,
                                                               rel=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(InadmissibleMetricError):
            tet_geometry(np.array([np.sqrt(2), 1, 1, 1, 1, np.sqrt(2)]))
        with pytest.raises(InadmissibleMetricError):
            tet_geometry(np.array([1.4143, 1, 1, 1, 1, 1.4143]))
        with pytest.raises(InadmissibleMetricError):
            tet_geometry(np.array([1, 1, 1, 1, 1, 3.0]))


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

    def test_message_formatted_only_when_read(self, monkeypatch):
        found = []
        worst_tet = geometry._worst_tet
        monkeypatch.setattr(geometry, "_worst_tet", lambda v: found.append(1) or worst_tet(v))
        dt = double_tetrahedron()
        assert not geometry.is_admissible(dt, self.FLAT)
        assert not geometry.is_admissible(dt, self.BAD_FACE)
        assert found == []
        with pytest.raises(InadmissibleMetricError) as info:
            tet_geometry(np.array([REGULAR, self.FLAT]))
        assert repr(info.value) == f"InadmissibleMetricError({str(info.value)!r})"
        assert str(info.value).startswith("metric not admissible: tet 1 has CM3 = -")
        assert found    # formatted when raised
        copy = pickle.loads(pickle.dumps(info.value))
        assert type(copy) is InadmissibleMetricError and copy.args == (str(info.value),)

    def test_messages_at_every_raise_site(self):
        # str, repr and a pickled copy's args of the error at each place that raises it
        from regge3 import solve
        from regge3.conformal import ConformalClass
        dt = double_tetrahedron()
        stack = np.ones((5, 6))
        stack[3] = self.FLAT
        l0 = random_admissible_lengths(dt, np.random.default_rng(61), 0.97, 1.03)
        cm3 = "metric not admissible: tet {} has CM3 = {} <= 0"
        sites = [
            (lambda: tet_geometry(np.array([REGULAR, REGULAR, self.FLAT])),
             cm3.format(2, -0.0039128)),
            (lambda: tet_geometry(np.array([REGULAR, self.BAD_FACE])),
             "metric not admissible: tet 1 has a degenerate face triangle"),
            (lambda: tet_geometry(dt.tet_lengths(stack)), cm3.format((3, 0), -0.0039128)),
            (lambda: functionals(dt, diagonal_family(1.5)), cm3.format(0, -5.0625)),
            (lambda: ConformalClass(dt, self.FLAT), cm3.format(0, -0.0039128)),
            (lambda: solve.descend_lengths(dt, "lehr", l0, normalize="V", max_iter=300),
             "edge lengths must be positive and finite"),
            (lambda: solve.sweep_family(dt, diagonal_family, [1.4142], ["vehr_lam_v"]),
             cm3.format((102, 0), -0.158613)),
        ]
        for raising, message in sites:
            with pytest.raises(InadmissibleMetricError) as info:
                raising()
            assert str(info.value) == message
            assert repr(info.value) == f"InadmissibleMetricError({message!r})"
            copy = pickle.loads(pickle.dumps(info.value))
            assert type(copy) is InadmissibleMetricError and copy.args == (message,)


class TestFaceAngle:
    """The two face-angle oracles: the law of cosines, and the embedding's
    h_edge = (s/2) cot."""

    def test_equilateral(self):
        assert face_angle(1.0, 1.0, 1.0) == pytest.approx(np.pi / 3, abs=1e-15)
        assert embedded_face_angles(REGULAR) == pytest.approx(np.full((4, 3), np.pi / 3),
                                                              abs=1e-14)

    def test_right_isoceles(self):
        # face 3 = (0,1,2) of the corner tet has sides (sqrt2, 1, 1)
        l = np.array([1, 1, 1, np.sqrt(2), np.sqrt(2), np.sqrt(2)])
        assert face_angle(np.sqrt(2), 1.0, 1.0) == pytest.approx(np.pi / 2, abs=1e-15)
        assert embedded_face_angles(l)[3, 0] == pytest.approx(np.pi / 2, abs=1e-14)

    def test_obtuse(self):
        # face 3 has sides (1.9, 1, 1); direct evaluation of the cosine law
        l = np.array([1, 1, 1, 1.9, 1.2, 1.2])
        angle = np.arccos((2 - 3.61) / 2.0)
        assert face_angle(1.9, 1.0, 1.0) == pytest.approx(angle, abs=1e-15)
        assert embedded_face_angles(l)[3, 0] == pytest.approx(angle, abs=1e-14)

    def test_degenerate_raises(self):
        with pytest.raises(InadmissibleMetricError):
            tet_geometry(np.array([1, 1, 1, 2.0, 1.2, 1.2]))
        with pytest.raises(InadmissibleMetricError):
            tet_geometry(np.array([1, 1, 1, -1.0, 1.2, 1.2]))


class TestDihedralAngles:
    def test_regular_all_arccos_one_third(self):
        assert tet_geometry(REGULAR).dihedrals == pytest.approx(np.full(6, ACOS13), abs=1e-14)

    def test_corner_orthoscheme_right_angles(self):
        # three mutually orthogonal unit edges at vertex 0
        l = np.array([1, 1, 1, np.sqrt(2), np.sqrt(2), np.sqrt(2)])
        betas = tet_geometry(l).dihedrals
        assert betas[:3] == pytest.approx(np.full(3, np.pi / 2), abs=1e-12)

    def test_equihedral_opposite_angles_equal(self):
        l = np.array([1.3, 1, 1, 1, 1, 1.3])
        betas = tet_geometry(l).dihedrals
        assert betas[0] == pytest.approx(betas[5], abs=1e-13)
        assert betas[1] == pytest.approx(betas[4], abs=1e-13)
        assert betas[2] == pytest.approx(betas[3], abs=1e-13)

    def test_random_equihedral_opposite_angles_equal(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            l = random_equihedral_lengths(rng)
            betas = tet_geometry(l).dihedrals
            assert betas[[0, 1, 2]] == pytest.approx(betas[[5, 4, 3]], abs=1e-12)

    def test_both_endpoint_computations_agree(self):
        # the kernel against the spherical cosine law at either end of each edge
        rng = np.random.default_rng(5)
        dt = double_tetrahedron()
        for _ in range(10):
            l = random_admissible_lengths(dt, rng)
            for at_second_vertex in (False, True):
                assert tet_geometry(l).dihedrals == pytest.approx(
                    spherical_dihedrals(l, at_second_vertex), abs=1e-12)

    def test_angles_in_open_interval(self):
        rng = np.random.default_rng(6)
        dt = double_tetrahedron()
        for _ in range(20):
            betas = tet_geometry(random_admissible_lengths(dt, rng)).dihedrals
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
                db = (tet_geometry(l + e).dihedrals - tet_geometry(l - e).dihedrals) / (2 * h)
                assert abs(float(l @ db)) < 1e-6


def central_jacobian(l, field, h=1e-6):
    """d(field_m)/d(l_n) (..., 6, 6), row m, of a (..., 6) kernel field at tets ``l``
    (..., 6), by central differences from one kernel call on l +- h e_n."""
    e = h * np.eye(6)
    f = getattr(tet_geometry(np.concatenate([l[..., None, :] + e, l[..., None, :] - e],
                                            axis=-2)), field)
    return np.swapaxes((f[..., :6, :] - f[..., 6:, :]) / (2 * h), -1, -2)


class TestSecondDerivatives:
    """ddihedrals and d2volume against central differences of the kernel's dihedrals and
    dvolume, Schlaefli's identity per tet, and their symmetry and scaling."""

    @pytest.fixture(scope="class")
    def tets(self):
        # 100 random double-tetrahedron metrics (200 tets) and a perturbed 600-cell; lengths
        # in [0.8, 1.2], since next to the admissibility boundary the truncation error of
        # central differences exceeds the bound
        rng = np.random.default_rng(73)
        dt, c = double_tetrahedron(), six_hundred_cell()
        metrics = random_admissible_lengths(dt, rng, 0.8, 1.2, size=100)
        return np.concatenate([dt.tet_lengths(metrics).reshape(200, 6),
                               c.tet_lengths(1.0 + 0.02 * rng.standard_normal(c.num_edges))])

    @pytest.mark.parametrize("second, first", [("ddihedrals", "dihedrals"),
                                               ("d2volume", "dvolume")])
    def test_match_central_differences(self, tets, second, first):
        got, ref = getattr(tet_geometry(tets), second), central_jacobian(tets, first)
        assert worst_rel(got, ref, 1) < 1e-8

    def test_schlaefli_per_tet(self, tets):
        # sum_m l_m d(beta_m)/d(l_n) = 0 for every n, to roundoff
        db = tet_geometry(tets).ddihedrals
        residual = np.abs(np.einsum("tm,tmn->tn", tets, db)).max(-1)
        assert np.all(residual <= 1e-13 * np.abs(db).max((-2, -1)) * tets.max(-1))

    @pytest.mark.parametrize("field", ["ddihedrals", "d2volume"])
    def test_symmetric(self, tets, field):
        # second derivatives of sum_m l_m beta_m (Schlaefli) and of V
        a = getattr(tet_geometry(tets), field)
        assert worst_rel(a, np.swapaxes(a, -1, -2), 1) < 1e-13

    def test_scaling(self, tets):
        # the dihedrals are scale invariant and the volume cubic in the lengths
        a, b = tet_geometry(tets), tet_geometry(1.7 * tets)
        assert worst_rel(b.ddihedrals, a.ddihedrals / 1.7, 1) < 1e-12
        assert worst_rel(b.d2volume, 1.7 * a.d2volume, 1) < 1e-12

    def test_regular_tet(self):
        # at the regular tet the Jacobian takes three values, by symmetry: on an edge's own
        # length, on its opposite edge's and on the four adjacent ones, and Schlaefli's
        # identity ties them
        db = tet_geometry(REGULAR).ddihedrals
        own, opposite = np.diag(db), db[range(6), OPPOSITE_EDGE]
        adjacent = db[~(np.eye(6, dtype=bool) | np.eye(6, dtype=bool)[::-1])]
        for values in (own, opposite, adjacent):
            assert np.ptp(values) < 1e-15
        assert own[0] > 0 and opposite[0] > 0 > adjacent[0]
        assert abs(own[0] + opposite[0] + 4 * adjacent[0]) < 1e-15

    def test_descents_do_not_read_them(self, monkeypatch):
        # computed only when read: the conformal and length descents and the csc
        # Newton iteration never pay for them
        from regge3.conformal import ConformalClass
        from regge3.solve import descend_conformal, descend_lengths, solve_csc

        def unread(self):
            raise AssertionError("second derivative read")

        for name in ("ddihedrals", "d2volume"):
            monkeypatch.setattr(geometry.TetGeometry, name, property(unread))
        dt = double_tetrahedron()
        cls = ConformalClass(dt, REGULAR)
        assert solve_csc(cls, "L", np.array([-1.0, -1.0, 0.0, 0.0]))[1].reason == "converged"
        descend_conformal(cls, "V", np.array([0.1, -0.1, 0.05, -0.05]), max_iter=20)
        descend_lengths(dt, "lehr", np.array([1.1, 1, 1, 1, 1, 0.9]), max_iter=20)


class TestEmbedding:
    def test_regular_apex_height(self):
        p = embed_tet(REGULAR)
        geo = tet_geometry(REGULAR)
        assert abs(p[3, 2]) == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-14)
        assert 3 * geo.volume / heron_areas(REGULAR)[3] == pytest.approx(np.sqrt(2.0 / 3.0),
                                                                         abs=1e-14)

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
        for name, power in (("volume", 3), ("dual", 2), ("dvolume", 2), ("dihedrals", 0)):
            assert getattr(b, name) == pytest.approx(c ** power * getattr(a, name),
                                                     rel=1e-12)

    def test_inadmissible_raises(self):
        with pytest.raises(InadmissibleMetricError):
            tet_geometry(np.array([1.4143, 1, 1, 1, 1, 1.4143]))


class TestHeightsAndAreas:
    """The test-side heights and areas (Heron, the embedding's circumcenters),
    and the kernel's dual areas and vertex volumes against them."""

    def test_regular_values(self):
        h_face, h_edge = embedded_heights(REGULAR)
        assert heron_areas(REGULAR) == pytest.approx(np.full(4, np.sqrt(3) / 4), abs=1e-14)
        assert h_face == pytest.approx(np.full(4, 1 / (2 * np.sqrt(6))), abs=1e-14)
        assert h_edge == pytest.approx(np.full((4, 3), 1 / (2 * np.sqrt(3))), abs=1e-14)
        assert tet_geometry(REGULAR).dual == pytest.approx(np.full(6, 1 / (12 * np.sqrt(2))),
                                                           abs=1e-15)

    def test_right_triangle_hypotenuse_height_zero(self):
        # face {0,1,2} of the corner tet has sides (sqrt2, 1, 1); the
        # circumcenter sits on the hypotenuse midpoint
        l = np.array([1, 1, 1, np.sqrt(2), np.sqrt(2), np.sqrt(2)])
        # face 3 = (0,1,2); its slot 0 is the edge opposite vertex 0 = (1,2)
        assert embedded_heights(l)[1][3, 0] == pytest.approx(0.0, abs=1e-13)
        assert tet_geometry(l).dual == pytest.approx(oracle_dual(l), abs=1e-13)

    def test_triangle_decomposition_identity(self):
        rng = np.random.default_rng(10)
        dt = double_tetrahedron()
        for _ in range(10):
            l = random_admissible_lengths(dt, rng)
            sides = l[np.asarray(FACE_EDGES)]
            recon = np.sum(embedded_heights(l)[1] * sides / 2.0, axis=-1)
            assert recon == pytest.approx(heron_areas(l), rel=1e-10)

    def test_tet_decomposition_identity(self):
        rng = np.random.default_rng(11)
        dt = double_tetrahedron()
        for _ in range(10):
            l = random_admissible_lengths(dt, rng)
            assert np.sum(embedded_heights(l)[0] * heron_areas(l)) == pytest.approx(
                3 * tet_geometry(l).volume, rel=1e-10)

    def test_circumcenters_equidistant(self):
        rng = np.random.default_rng(12)
        dt = double_tetrahedron()
        for _ in range(5):
            p = embed_tet(random_admissible_lengths(dt, rng))
            d = np.linalg.norm(p - tet_circumcenter(p), axis=-1)
            assert np.max(d) - np.min(d) < 1e-10
            for k, fv in enumerate(FACE_VERTICES):
                dc = np.linalg.norm(p[list(fv)] - face_circumcenters(p)[k], axis=-1)
                assert np.max(dc) - np.min(dc) < 1e-10

    def test_dual_matches_embedded_heights(self):
        # random metrics include obtuse faces and circumcenters outside the tet
        rng = np.random.default_rng(17)
        dt = double_tetrahedron()
        signs = set()
        for _ in range(40):
            l = random_admissible_lengths(dt, rng)
            ref = oracle_dual(l)
            signs.update(np.sign(embedded_heights(l)[0]))
            assert np.abs(tet_geometry(l).dual - ref).max() < 1e-10 * np.abs(ref).max()
        assert signs == {-1.0, 1.0}

    def test_v_vertex_matches_embedded_heights(self):
        # V_v = (1/3) sum over incident (tet, face) pairs of h_f A_f, the faces
        # of a tet at its local vertex i being all but face i
        rng = np.random.default_rng(18)
        dt = double_tetrahedron()
        for _ in range(10):
            l = random_admissible_lengths(dt, rng)
            ref = np.zeros(dt.num_vertices)
            for tv, tl in zip(dt.tet_vertices, dt.tet_lengths(l)):
                hA = embedded_heights(tl)[0] * heron_areas(tl)
                ref[tv] += (hA.sum() - hA) / 3.0
            assert functionals(dt, l).v_vertex == pytest.approx(ref, rel=1e-10)

    def test_equihedral_faces_acute_and_heights_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            l = random_equihedral_lengths(rng)
            assert np.all(embedded_heights(l)[1] >= -1e-12)
            assert np.all(tet_geometry(l).dual >= -1e-12)
            # all face angles acute
            sides = l[np.asarray(FACE_EDGES)]
            for k in range(3):
                ang = face_angle(sides[..., k], sides[..., (k + 1) % 3],
                                 sides[..., (k + 2) % 3])
                assert np.all(ang < np.pi / 2 + 1e-12)


def dual_lengths(c, lengths):
    return functionals(c, lengths).dual_length


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


# ---------------------------------------------------------------------------
# LAPACK oracle: the kernel builds CM3 and G = A^-1 in closed form from the
# Gram matrix at vertex 0; this builds the 5x5 bordered matrix A and hands it
# to np.linalg.det and np.linalg.inv

_I, _J = np.array(LOCAL_PAIRS).T + 1
_K, _L = np.array([[v for v in range(4) if v not in p] for p in LOCAL_PAIRS]).T + 1
FIELDS = ("cm3", "cm_inverse", "volume", "dihedrals", "dual", "dvolume", "ddihedrals",
          "d2volume")


def cm_matrix(l):
    """The bordered matrix (..., 5, 5) of squared lengths."""
    q = l * l
    A = np.ones(l.shape[:-1] + (5, 5))
    A[..., range(5), range(5)] = 0.0
    A[..., _I, _J] = q
    A[..., _J, _I] = q
    return A


def lapack_geometry(l):
    """The kernel's bundle with CM3, G and the fields read from G replaced
    by their values from LAPACK; dual then follows from the LAPACK G (the
    face areas by Heron's formula either way)."""
    geo = tet_geometry(l)
    A = cm_matrix(l)
    cm, G = np.linalg.det(A), np.linalg.inv(A)
    V = np.sqrt(cm / 288.0)
    cos = G[..., _K, _L] / np.sqrt(G[..., _K, _K] * G[..., _L, _L])
    return dataclasses.replace(
        geo, cm3=cm, volume=V, dihedrals=np.arccos(np.clip(cos, -1.0, 1.0)),
        dvolume=2.0 * l * V[..., None] * G[..., _I, _J], cm_inverse=G)


def lapack_admissible(l):
    """The verdict of the LAPACK route: positive lengths, strict triangle
    inequalities on every face and det A > 0."""
    sides = l[..., np.asarray(FACE_EDGES)]
    faces = np.all(np.sum(sides, axis=-1) > 2.0 * np.max(sides, axis=-1), axis=-1)
    return np.all(l > 0, axis=-1) & faces & (np.linalg.det(cm_matrix(l)) > 0)


def worst_rel(a, b, tet_axes):
    """Largest per-tet error |a - b| relative to max |b| over that tet's entries."""
    trailing = tuple(range(tet_axes, np.ndim(b)))
    return float(np.max(np.max(np.abs(a - b), axis=trailing, initial=0.0)
                        / np.max(np.abs(b), axis=trailing, initial=0.0)))


def assert_matches_lapack(l, rel):
    geo, ref = tet_geometry(l), lapack_geometry(l)
    for name in FIELDS:
        err = worst_rel(getattr(geo, name), getattr(ref, name), l.ndim - 1)
        assert err <= rel, (name, err)


class TestClosedFormAgainstLapack:
    def test_random_tets(self):
        rng = np.random.default_rng(70)
        dt = double_tetrahedron()
        metrics = np.stack([random_admissible_lengths(dt, rng) for _ in range(100)])
        l = dt.tet_lengths(metrics).reshape(200, 6)
        assert_matches_lapack(l, 1e-12)

    def test_six_hundred_cell(self):
        c = six_hundred_cell()
        rng = np.random.default_rng(71)
        for metric in (np.ones(c.num_edges), 1.0 + 0.02 * rng.standard_normal(c.num_edges)):
            assert_matches_lapack(c.tet_lengths(metric), 1e-12)

    @pytest.mark.parametrize("t", [0.5, 0.8, 1.0, 1.2, 1.3, 1.4, 1.41, 1.414, 1.4142, 1.41421])
    def test_diagonal_family(self, t):
        # either route loses accuracy like the conditioning (mean l)^6 / CM3,
        # about 3.5e3 at t = 1.4142 and 1.3e4 at 1.41421, so past a
        # conditioning of 10 the bound grows with it
        l = diagonal_family(t)
        kappa = float(np.mean(l)) ** 6 / float(cayley_menger(l))
        assert_matches_lapack(l, max(1e-12, 1e-13 * kappa))

    def test_metric_stack_equals_its_metrics_bitwise(self):
        c = six_hundred_cell()
        rng = np.random.default_rng(72)
        stack = c.tet_lengths(1.0 + 0.02 * rng.standard_normal((5, c.num_edges)))
        assert stack.shape == (5, 600, 6)
        batch = tet_geometry(stack)
        for i in range(5):
            one = tet_geometry(stack[i])
            for name in FIELDS:
                assert np.array_equal(getattr(batch, name)[i], getattr(one, name)), name

    def test_empty_batch(self):
        geo = tet_geometry(np.empty((0, 6)))
        assert geo.cm_inverse.shape == (0, 5, 5) and geo.dihedrals.shape == (0, 6)
        assert geo.volume.shape == cayley_menger(np.empty((0, 6))).shape == (0,)


def mp_cayley_menger(mpmath, l):
    """CM3 and G = A^-1 of the lengths ``l``, in mpmath at its working precision."""
    A = mpmath.matrix(5, 5)
    for k in range(1, 5):
        A[0, k] = A[k, 0] = 1
    for m, (i, j) in enumerate(LOCAL_PAIRS):
        A[i + 1, j + 1] = A[j + 1, i + 1] = mpmath.mpf(float(l[m])) ** 2
    return mpmath.det(A), A ** -1


class TestAccuracyNearDegeneracy:
    @pytest.mark.parametrize("t", [1.3, 1.41, 1.4142, 1.41421])
    def test_cm3_and_inverse_against_40_digits(self, t):
        mpmath = pytest.importorskip("mpmath")
        l = diagonal_family(t)
        with mpmath.workdps(40):
            cm, G = mp_cayley_menger(mpmath, l)
            geo = tet_geometry(l)
            cm_err = abs(mpmath.mpf(float(geo.cm3)) - cm) / abs(cm)
            G_err = max(abs(mpmath.mpf(float(geo.cm_inverse[a, b])) - G[a, b])
                        for a in range(5) for b in range(5))
            G_scale = max(abs(G[a, b]) for a in range(5) for b in range(5))
            assert float(cm_err) < 1e-10
            assert float(G_err / G_scale) < 1e-10

    @pytest.mark.parametrize("t", [1.3, 1.41, 1.4142, 1.41421, 1.414213])
    def test_dual_against_40_digits(self, t):
        # the kernel's formulas in 40 digits: Heron's areas, h_edge = (l/2) cot
        # of the opposite angle, h_face = G_0k 3V / A_k
        mpmath = pytest.importorskip("mpmath")
        l = diagonal_family(t)
        with mpmath.workdps(40):
            cm, G = mp_cayley_menger(mpmath, l)
            V = mpmath.sqrt(cm / 288)
            h_face, h_edge = [], []
            for k, edges in enumerate(FACE_EDGES):
                sides = [mpmath.mpf(float(l[e])) for e in edges]
                s = sum(sides) / 2
                area = mpmath.sqrt(s * (s - sides[0]) * (s - sides[1]) * (s - sides[2]))
                h_face.append(G[0, k + 1] * 3 * V / area)
                h_edge.append([sides[j] * (sides[j - 2] ** 2 + sides[j - 1] ** 2 - sides[j] ** 2)
                               / (8 * area) for j in range(3)])
            dual = [sum(h_edge[f][s] * h_face[f] for f, s in pairs) / 2 for pairs in EDGE_FACES]
            got = tet_geometry(l).dual
            err = max(abs(mpmath.mpf(float(got[m])) - dual[m]) for m in range(6))
            assert float(err / max(abs(d) for d in dual)) < 1e-10


class TestAdmissibilityVerdicts:
    def test_family_crossing_sqrt2(self):
        dt = double_tetrahedron()
        checked = 0
        for t in np.linspace(1.40, 1.43, 301):
            l = diagonal_family(t)
            if abs(np.linalg.det(cm_matrix(l))) < 1e-12:
                continue
            assert is_admissible(dt, l) == bool(lapack_admissible(l)), t
            checked += 1
        assert checked > 290

    def test_random_samples(self):
        rng = np.random.default_rng(73)
        l = rng.uniform(0.4, 1.6, (4000, 6))
        keep = np.abs(np.linalg.det(cm_matrix(l))) >= 1e-12
        expected = lapack_admissible(l[keep])
        assert 0 < np.count_nonzero(expected) < keep.sum()
        dt = double_tetrahedron()
        got = [is_admissible(dt, x) for x in l[keep]]
        assert np.array_equal(got, expected)

    def test_negative_cm3_keeps_its_sign(self):
        l = diagonal_family(1.5)
        ref = np.linalg.det(cm_matrix(l))
        assert ref < 0
        assert cayley_menger(l) == pytest.approx(ref, rel=1e-12)
        assert not is_admissible(double_tetrahedron(), l)
        with pytest.raises(InadmissibleMetricError, match=r"CM3 = -"):
            tet_geometry(l)

    def test_nan_face_margin_and_nan_cm3_are_rejected(self):
        # finite lengths whose face sums overflow give inf - inf = NaN margins, and
        # lengths whose cofactor products overflow a NaN CM3: neither is positive
        dt = double_tetrahedron()
        bg = [1.0725, 1.1493, 0.9347, 0.9760, 0.9788, 0.9013]
        with np.errstate(over="ignore", invalid="ignore"):
            huge = induced_lengths(dt, bg, [709.0, 709.0, 709.0, -2127.0])
            assert np.all(np.isfinite(huge))
            assert not is_admissible(dt, huge)
            with pytest.raises(InadmissibleMetricError, match="degenerate face"):
                functionals(dt, huge)
            assert np.isnan(cayley_menger(np.full(6, 1e60)))
            assert not is_admissible(dt, np.full(6, 1e60))
            with pytest.raises(InadmissibleMetricError, match="CM3 = nan"):
                tet_geometry(np.full(6, 1e60))


class TestMetricMask:
    """``geometry._admissible`` decides each metric of a stack as ``is_admissible`` does."""

    def test_seeded_dt_metrics(self):
        dt = double_tetrahedron()
        l = np.random.default_rng(80).uniform(0.3, 1.7, (500, 6))
        expected = [is_admissible(dt, x) for x in l]
        assert 0 < sum(expected) < len(l)
        mask = geometry._admissible(dt.tet_lengths(l.reshape(20, 25, 6)))
        assert mask.shape == (20, 25) and mask.dtype == bool
        assert mask.ravel().tolist() == expected

    def test_perturbed_600_cell_metric(self):
        cell = six_hundred_cell()
        l = 1.0 + 0.02 * np.random.default_rng(81).standard_normal((2, cell.num_edges))
        l[1, 17] = 3.0    # longer than two sides of each face at edge 17
        expected = [is_admissible(cell, x) for x in l]
        assert expected == [True, False]
        assert geometry._admissible(cell.tet_lengths(l)).tolist() == expected

    # each case with the test that rejects it; the uniform 1e52 and 1e-60 metrics are
    # Euclidean, but CM3 overflows to NaN and underflows to 0 there, in both verdicts
    @pytest.mark.parametrize("lengths, message", [
        ([np.nan, 1, 1, 1, 1, 1], "positive and finite"),
        ([np.inf, 1, 1, 1, 1, 1], "positive and finite"),
        ([-np.inf, 1, 1, 1, 1, 1], "positive and finite"),
        ([0.0, 1, 1, 1, 1, 1], "positive and finite"),
        ([-1.0, 1, 1, 1, 1, 1], "positive and finite"),
        ([2.0, 1, 1, 1, 1, 1], "degenerate face"),
        (diagonal_family(1.5), "CM3 = -"),
        (np.full(6, 1e52), "CM3 = nan"),
        (np.full(6, 1e-60), "CM3 = 0 "),
    ], ids=["nan", "inf", "-inf", "zero", "negative", "degenerate-face", "cm3-negative",
            "uniform-1e52", "uniform-1e-60"])
    def test_edge_cases(self, lengths, message):
        dt = double_tetrahedron()
        stack = np.array([REGULAR, lengths, REGULAR])
        with pytest.raises(InadmissibleMetricError, match=message):
            geometry.assert_admissible(dt, stack[1])
        assert geometry._admissible(dt.tet_lengths(stack)).tolist() == \
            [is_admissible(dt, x) for x in stack] == [True, False, True]


class TestBoundaryVerdicts:
    """At the boundary of the metric space the mask, ``is_admissible`` and the raised
    messages agree with an oracle of face margins and CM3: on metrics within 3 ulp of where
    random rays from seeded metrics leave it, and on metrics with a collinear face, whose
    CM3 has no sign beyond roundoff (there CM3 > 0 with a positive 2 x 2 Gram minor does
    not decide the verdict; the face margin does)."""

    DT = double_tetrahedron()

    def oracle(self, m):
        """The verdicts (N,) of the dt metrics m (N, 6), their face margins and CM3 (N, 2)."""
        tets = m[:, self.DT.tet_edges]
        with np.errstate(over="ignore", invalid="ignore"):
            sides = tets[..., np.array(FACE_EDGES)]
            margins = (sides.sum(-1) - 2.0 * sides.max(-1)).min(-1)
            cm = cayley_menger(tets)
        return ((margins > 0.0) & (cm > 0.0)).all(-1), margins, cm

    def messages(self, m):
        """The message of each rejected metric, by its row."""
        ok, margins, cm = self.oracle(m)
        positive = (m.min(-1) > 0.0) & (m.max(-1) < np.inf)
        face, tet_m, tet_c = margins.min(-1) > 0.0, margins.argmin(-1), cm.argmin(-1)
        return {i: "edge lengths must be positive and finite" if not positive[i] else
                f"metric not admissible: tet {tet_m[i]} has a degenerate face triangle"
                if not face[i] else
                f"metric not admissible: tet {tet_c[i]} has CM3 = {cm[i].min():.6g} <= 0"
                for i in np.flatnonzero(~ok)}

    def crossings(self, rng, count):
        """Where rays from seeded admissible metrics leave the admissible set, bisected with
        the oracle to the last admissible point (count, 6)."""
        start = random_admissible_lengths(self.DT, rng, size=count)
        ray = rng.standard_normal(start.shape)
        lo, hi = np.zeros(count), np.ones(count)
        while (grow := self.oracle(start + hi[:, None] * ray)[0]).any():
            hi[grow] *= 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            ok = self.oracle(start + mid[:, None] * ray)[0]
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
        return start + lo[:, None] * ray

    def collinear_faces(self, rng, count):
        """Lengths (4 count, 6) of tets whose face f (off vertex f) has its third vertex on
        the line through the other two, f = 0..3."""
        rows = []
        for face in range(4):
            p = rng.standard_normal((count, 4, 3))
            i, j, k = [v for v in range(4) if v != face]
            p[:, k] = p[:, i] + rng.uniform(-0.5, 1.5, (count, 1)) * (p[:, j] - p[:, i])
            rows.append(np.stack([np.linalg.norm(p[:, a] - p[:, b], axis=-1)
                                  for a, b in LOCAL_PAIRS], axis=-1))
        return np.concatenate(rows)

    def test_verdicts_and_messages(self):
        rng = np.random.default_rng(82)
        x = self.crossings(rng, 1400)
        one = rng.integers(0, 6, len(x))
        metrics = [self.collinear_faces(rng, 500)]
        for k in range(-3, 4):
            metrics.append(x + k * np.spacing(x))
            nudged = x.copy()
            nudged[np.arange(len(x)), one] += k * np.spacing(x[np.arange(len(x)), one])
            metrics.append(nudged)
        m = np.concatenate(metrics)
        ok, messages = self.oracle(m)[0], self.messages(m)
        assert 0.3 < ok.mean() < 0.7 and len(m) > 20000
        assert geometry._admissible(self.DT.tet_lengths(m)).tolist() == ok.tolist()
        assert [is_admissible(self.DT, x) for x in m] == ok.tolist()
        for i, message in messages.items():
            with pytest.raises(InadmissibleMetricError) as info:
                geometry.assert_admissible(self.DT, m[i])
            assert str(info.value) == message


def test_no_lapack_in_the_kernel(monkeypatch):
    dt, cell = double_tetrahedron(), six_hundred_cell()
    l6 = 1.0 + 0.02 * np.random.default_rng(74).standard_normal(cell.num_edges)

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    functionals(dt, diagonal_family(1.2))
    functionals(cell, l6)
    assert is_admissible(dt, diagonal_family(1.2))
    assert not is_admissible(dt, diagonal_family(1.5))
    assert tet_geometry(REGULAR).volume == pytest.approx(1 / (6 * np.sqrt(2)), abs=1e-15)
    assert cayley_menger(REGULAR) == pytest.approx(4.0, abs=1e-12)
    assert "np.linalg" not in inspect.getsource(geometry)
