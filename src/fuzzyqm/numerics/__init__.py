"""Foundation layer: grids, derivative operators, the scalar minimiser, dense generalized eigensolver.

The commands apply derivatives matrix-free (``apply_d1``) or through a lag
vector (``d2_lags``).  The dense ``derivative_matrix`` and ``OperatorMatrix``
are built by no command: the tests use them as oracles, and the benchmark's
tracer counts them.
"""

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
