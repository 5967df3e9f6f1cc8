"""Regge curvature functionals on triangulated piecewise flat 3-manifolds.

Core objects: combinatorial complexes with explicit (possibly
non-simplicial) incidences, metrics as edge length vectors, the
Einstein-Hilbert-Regge functional with its length and volume
normalizations, discrete conformal classes, and the solvers needed to
locate Einstein and constant scalar curvature metrics.
"""

from .complexes import (Complex, ComplexError, double_tetrahedron,
                        six_hundred_cell, from_simplicial_tets,
                        load_complex, parse_complex, format_complex,
                        validate)
from .geometry import (InadmissibleMetricError, TetGeometry, cayley_menger, tet_geometry,
                       is_admissible, assert_admissible)
from .curvature import (CurvatureReport, BoundsReport, functionals, grad_lengths,
                        grad_conformal, hessian_fd, gradient_fd, hessian_fd_lengths,
                        conformal_hessian_fd, laplacian_matrix,
                        normal_matrix, lehr_conformal_hessian_csc,
                        einstein_residual, csc_residual, bounds_report,
                        ehr_value, lehr_value, vehr_value)
from .conformal import (ConformalClass, EquihedralPoint, induced_lengths,
                        cross_ratios, equihedral_point, is_equihedral,
                        random_equihedral_lengths)
from .solve import (Spectrum, SolveTrace, SweepTable, YamabeEstimate, eig_sym,
                    solve_csc, descend_lengths, descend_conformal,
                    yamabe_constant_estimate, bisect_zero, sweep_family,
                    sweep_quantities, diagonal_family, find_tstar,
                    find_conformal_crossing, random_admissible_lengths,
                    family_direction_eigenvalue, conformal_direction_eigenvalue)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport", "Complex", "ComplexError", "ConformalClass", "CurvatureReport",
    "EquihedralPoint", "InadmissibleMetricError", "SolveTrace", "Spectrum", "SweepTable",
    "TetGeometry", "YamabeEstimate", "assert_admissible", "bisect_zero", "bounds_report",
    "cayley_menger", "conformal_direction_eigenvalue", "conformal_hessian_fd",
    "cross_ratios", "csc_residual", "descend_conformal", "descend_lengths",
    "diagonal_family", "double_tetrahedron", "ehr_value", "eig_sym", "einstein_residual",
    "equihedral_point", "family_direction_eigenvalue", "find_conformal_crossing",
    "find_tstar", "format_complex", "from_simplicial_tets", "functionals", "grad_conformal",
    "grad_lengths", "gradient_fd", "hessian_fd", "hessian_fd_lengths", "induced_lengths",
    "is_admissible", "is_equihedral", "laplacian_matrix", "lehr_conformal_hessian_csc",
    "lehr_value", "load_complex", "normal_matrix", "parse_complex",
    "random_admissible_lengths", "random_equihedral_lengths", "six_hundred_cell",
    "solve_csc", "sweep_family", "sweep_quantities", "tet_geometry", "validate",
    "vehr_value", "yamabe_constant_estimate",
]
