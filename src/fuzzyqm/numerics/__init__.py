"""Foundation layer: grids, quadrature, scalar solvers, dense generalized eigensolver."""

from .grids import MomentumGrid, OperatorMatrix
from .linalg import apply_d1, d2_lags, derivative_matrix, eig_generalized
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
    "d2_lags",
    "derivative_matrix",
    "eig_generalized",
    "find_root",
    "gauss_legendre",
    "golden_section",
    "integrate",
    "integrate_semi_infinite",
    "semi_infinite",
]
