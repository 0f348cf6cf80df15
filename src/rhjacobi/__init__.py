"""Recurrence coefficients and weighted Cauchy transforms of orthogonal
polynomials for Chebyshev-like weights on unions of disjoint real intervals,
computed by solving a deformed Riemann-Hilbert problem numerically.
Cost per coefficient is independent of its index; an independent quadrature +
Lanczos reference computation is included for verification.
"""

from .auxiliary import AuxData, HSystem, build_hsystem, eval_h, solve_aux, wrap_angle
from .cauchy import Side, cauchy_cheb, cauchy_cheb_table, joukowsky_inv, sqrt_cut
from .chebyshev import (ChebKind, ChebSeries, Interval, cheb_eval, cheb_t_nodes, dct_coeffs,
                        gauss_cheb_rule)
from .errors import (ConvergenceError, DomainError, EndpointError, GeometryError,
                     ImagPartWarning, PrecisionWarning, ResidualWarning, RHJacobiError,
                     SolverError, WeightError)
from .green import GreenData, build_green, eval_R, eval_g, solve_Q
from .oracle import DiscreteMeasure, adaptive_oracle, discretize, tridiagonalize
from .pipeline import (JacobiSegment, RecipApproximation, SolveContext, TodaTrajectory,
                       cauchy_pn, orthonormal_eval, recip_approx, recurrence_range,
                       toda_evolve)
from .rhp import (BandPiece, BlockSolution, Circle, ContourSet, JumpAssembly, RHSolution,
                  build_contours, default_bases, first_order, solve_matrix_rhp)
from .weights import (HExpScale, HFunction, HOne, HPoly, HProduct, HRational,
                      WeightSpec, h_from_config)

__version__ = "0.1.0"
