"""Dense oracles of the matrix-free operators, for the tests only.

No command builds these n x n matrices: ``operators`` applies the same
operators through ``apply_d1``, and the tests compare the two.
"""

import numpy as np

from fuzzyqm.numerics.grids import MomentumGrid, OperatorMatrix
from fuzzyqm.numerics.linalg import derivative_matrix
from fuzzyqm.operators import GridState, SmearingParams


def build_momentum_op(grid: MomentumGrid) -> OperatorMatrix:
    """Momentum is multiplicative in the momentum basis: diag(p)."""
    return OperatorMatrix(np.diag(grid.points).astype(complex), grid, hermitian=True)


def build_position_op(grid: MomentumGrid, scheme: str = "spectral") -> OperatorMatrix:
    """Position as i d/dp.  Both schemes give an exactly Hermitian matrix.

    Boundary rows are truncated (zero assumed outside the grid), so the
    operator is only accurate on states that decay inside the grid.
    """
    d1 = derivative_matrix(grid, 1, scheme)
    return OperatorMatrix(1j * d1.entries, grid, hermitian=True)


def build_fuzzy_position_op(grid: MomentumGrid, s: SmearingParams, scheme: str = "spectral") -> OperatorMatrix:
    """Smeared position G X G with G = diag(exp(-p^2/2m^2)); Hermitian by construction."""
    g = s.gaussian(grid.points, half=True)
    x = build_position_op(grid, scheme)
    return OperatorMatrix(g[:, None] * x.entries * g[None, :], grid, hermitian=True)


def inner(a: GridState, b: GridState) -> complex:
    """<a|b> in the measure of ``a``; both states must sample the same grid points."""
    assert np.array_equal(a.grid.points, b.grid.points), "states live on different grids"
    return complex(np.sum(a.measure_weights() * np.conj(a.samples) * b.samples))
