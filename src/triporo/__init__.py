"""Semi-analytical pressure transients for triple-porosity fractional flow.

Computes the dimensionless wellbore pressure deficit and its Bourdet
log-derivative for a reservoir idealized as rock matrix, fracture network
and vugs, each with its own storage, permeability and Caputo fractional
time order, by assembling the Laplace-space modal solution and inverting
it with the Gaver-Stehfest algorithm.
"""

from .curves import (CurvePoint, bourdet_derivative, log_time_grid,
                     pressure_curve, write_curve)
from .inversion import StehfestScheme, TransformEvaluationError, invert
from .model import (DimensionlessTransform, LaplaceAssembly, ModelError,
                    PhysicalParams, TriplePorosityParams, field_pressure_laplace,
                    laplace_assembly, to_dimensionless, wellbore_pressure_laplace)

__version__ = "0.1.0"

__all__ = [
    # parameters
    "TriplePorosityParams", "PhysicalParams", "DimensionlessTransform",
    "to_dimensionless",
    # Laplace space
    "wellbore_pressure_laplace", "laplace_assembly", "LaplaceAssembly",
    "field_pressure_laplace",
    # inversion
    "StehfestScheme", "invert",
    # curves
    "log_time_grid", "pressure_curve", "bourdet_derivative", "CurvePoint",
    "write_curve",
    # errors
    "ModelError", "TransformEvaluationError",
]
