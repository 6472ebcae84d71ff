"""Foundation layer: grids, derivative operators and the scalar minimiser.

The commands apply the central d/dp matrix-free (``apply_d1``).  The
dense ``derivative_matrix`` (central and sinc) and ``OperatorMatrix`` are
built by no command: the tests use them as oracles, and the benchmark's
tracer counts them.
"""

from .grids import MomentumGrid, OperatorMatrix
from .linalg import apply_d1, derivative_matrix
from .solvers import golden_section

__all__ = [
    "MomentumGrid",
    "OperatorMatrix",
    "apply_d1",
    "derivative_matrix",
    "golden_section",
]
