"""Semi-analytical pressure transients for triple-porosity fractional flow.

Computes the dimensionless wellbore pressure deficit and its Bourdet
log-derivative for a reservoir idealized as rock matrix, fracture network
and vugs, each with its own storage, permeability and Caputo fractional
time order, by assembling the Laplace-space modal solution and inverting
it with the Gaver-Stehfest algorithm.
"""

from .curves import (CurvePoint, bourdet_derivative, log_time_grid,
                     pressure_curve, read_curve, write_curve)
from .inversion import (StehfestScheme, TransformEvaluationError, invert,
                        invert_mp, stehfest_weights)
from .model import (ConsistencyError, DimensionlessTransform, LaplaceAssembly,
                    MTerms, NullSpaceError, PhysicalParams,
                    SingularBoundaryError, TriplePorosityParams,
                    boundary_vectors, characteristic_coefficients,
                    field_pressure_laplace, from_dimensionless,
                    laplace_assembly, m_terms, modal_coefficients,
                    single_medium_pressure_laplace, solve_boundary,
                    to_dimensionless, wellbore_pressure_laplace)
from .roots import (AlphaRoots, CubicCoefficients, RootClassificationError,
                    alpha_roots, solve_cubic_real)
from .specfun import bessel_k0, bessel_k0_scaled, bessel_k1, bessel_k1_scaled

__version__ = "0.1.0"

__all__ = [
    "AlphaRoots", "ConsistencyError", "CubicCoefficients", "CurvePoint",
    "DimensionlessTransform", "LaplaceAssembly", "MTerms", "NullSpaceError",
    "PhysicalParams", "RootClassificationError", "SingularBoundaryError",
    "StehfestScheme", "TransformEvaluationError", "TriplePorosityParams",
    "alpha_roots", "bessel_k0", "bessel_k0_scaled", "bessel_k1",
    "bessel_k1_scaled", "boundary_vectors", "bourdet_derivative",
    "characteristic_coefficients", "field_pressure_laplace",
    "from_dimensionless", "invert", "invert_mp", "laplace_assembly",
    "log_time_grid", "m_terms", "modal_coefficients", "pressure_curve",
    "read_curve", "single_medium_pressure_laplace", "solve_boundary",
    "solve_cubic_real", "stehfest_weights", "to_dimensionless",
    "wellbore_pressure_laplace", "write_curve",
]
