"""The package's public names, pinned: adding, removing or renaming one
shows up here, and the change belongs in CHANGES.md."""

import regge3

PUBLIC = [
    "BoundsReport",
    "Complex",
    "ComplexError",
    "ConformalClass",
    "CurvatureReport",
    "EquihedralPoint",
    "InadmissibleMetricError",
    "SolveTrace",
    "Spectrum",
    "SweepTable",
    "TetGeometry",
    "YamabeEstimate",
    "assert_admissible",
    "bisect_zero",
    "bounds_report",
    "cayley_menger",
    "conformal_direction_eigenvalue",
    "conformal_hessian_fd",
    "cross_ratios",
    "csc_residual",
    "descend_conformal",
    "descend_lengths",
    "diagonal_family",
    "double_tetrahedron",
    "ehr_value",
    "eig_sym",
    "einstein_residual",
    "equihedral_point",
    "family_direction_eigenvalue",
    "find_conformal_crossing",
    "find_tstar",
    "format_complex",
    "from_simplicial_tets",
    "functionals",
    "grad_conformal",
    "grad_lengths",
    "gradient_fd",
    "hessian_fd",
    "hessian_fd_lengths",
    "induced_lengths",
    "is_admissible",
    "is_equihedral",
    "laplacian_matrix",
    "lehr_conformal_hessian_csc",
    "lehr_value",
    "load_complex",
    "normal_matrix",
    "parse_complex",
    "random_admissible_lengths",
    "random_equihedral_lengths",
    "six_hundred_cell",
    "solve_csc",
    "sweep_family",
    "sweep_quantities",
    "tet_geometry",
    "validate",
    "vehr_value",
    "yamabe_constant_estimate",
]


def test_public_names_are_pinned():
    assert sorted(regge3.__all__) == PUBLIC



def test_submodules_stay_attributes():
    # written out, ``__all__`` leaves the submodules out; they are still imported
    for name in ("complexes", "geometry", "curvature", "conformal", "solve"):
        assert name not in regge3.__all__
        assert getattr(regge3, name).__name__ == f"regge3.{name}"
