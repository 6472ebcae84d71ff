"""Foundation layer: grids, derivative operators, the scalar minimiser, dense generalized eigensolver."""

from .grids import MomentumGrid, OperatorMatrix
from .linalg import apply_d1, d2_lags, derivative_matrix, eig_generalized
from .solvers import golden_section

__all__ = [
    "MomentumGrid",
    "OperatorMatrix",
    "apply_d1",
    "d2_lags",
    "derivative_matrix",
    "eig_generalized",
    "golden_section",
]
