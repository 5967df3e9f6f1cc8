"""Regge curvature functionals on triangulated piecewise flat 3-manifolds.

Core objects: combinatorial complexes with explicit (possibly
non-simplicial) incidences, metrics as edge length vectors, the
Einstein-Hilbert-Regge functional with its length and volume
normalizations, discrete conformal classes, and the solvers needed to
locate Einstein and constant scalar curvature metrics.
"""

from .complexes import (Complex, ComplexError, double_tetrahedron,
                        six_hundred_cell, from_simplicial_tets,
                        load_complex, save_complex, parse_complex, format_complex,
                        validate)
from .geometry import (InadmissibleMetricError, TetGeometry, cayley_menger,
                       tet_volume, tet_geometry,
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

__all__ = [name for name in dir() if not name.startswith("_")]
