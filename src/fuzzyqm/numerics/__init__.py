"""Foundation layer: grids, quadrature, scalar solvers, dense eigensolvers."""

from .grids import MomentumGrid, OperatorMatrix
from .linalg import apply_d1, derivative_matrix, eig_generalized, eig_sym
from .quadrature import (
    QuadratureRule,
    gauss_legendre,
    integrate,
    integrate_semi_infinite,
    semi_infinite,
)
from .solvers import find_root, golden_section

__all__ = [
    "MomentumGrid",
    "OperatorMatrix",
    "QuadratureRule",
    "apply_d1",
    "derivative_matrix",
    "eig_generalized",
    "eig_sym",
    "find_root",
    "gauss_legendre",
    "golden_section",
    "integrate",
    "integrate_semi_infinite",
    "semi_infinite",
]
