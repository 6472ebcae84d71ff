"""Dense oracles of the matrix-free operators, and the spacetime probes, for the tests only.

No command builds these n x n matrices: ``operators`` applies the same
operators through ``apply_d1``, and the tests compare the two.  No command
reads the spacetime probes either: ``verify_spacetime_commutator`` reports only
its residual, and the tests apply the same sides to the probes' states.
"""

import numpy as np

from fuzzyqm.numerics.grids import MomentumGrid, OperatorMatrix
from fuzzyqm.numerics.linalg import derivative_matrix
from fuzzyqm.operators import SmearingParams, _spacetime_sides

SNYDER_WIDTH = 0.07  # width, in mass units, of the low-momentum state of the Snyder probe


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


def inner(a: np.ndarray, b: np.ndarray, grid: MomentumGrid, mass: float) -> float:
    """<a|b> of two real oscillator states sampled on ``grid``, in the weighted measure exp(-2p^2/m^2) dp."""
    return float(np.sum(grid.spacing * np.exp(-2.0 * grid.points**2 / mass**2) * a * b))


def spacetime_antihermiticity(axis_grid: MomentumGrid, mass: float) -> tuple[float, float]:
    """Largest |Re<u, A u>| / <u, u> of A = lhs and A = rhs of the spacetime identity over four seeded states.

    Both sides are real operators, so Re<u, A u> = <Re u, A Re u> + <Im u, A Im u>
    and an anti-Hermitian A makes it vanish.  The states are normal draws
    (seed 7) under a Gaussian envelope of width 0.3 cutoff.
    """
    n, cutoff = axis_grid.n, axis_grid.cutoff
    p1, p2, lhs, _, rhs = _spacetime_sides(axis_grid.points, axis_grid.spacing, mass)
    rng = np.random.default_rng(7)
    envelope = np.exp(-(p1**2 + p2**2) / (2.0 * (0.3 * cutoff) ** 2))
    lhs_ah = rhs_ah = 0.0
    for _ in range(4):
        ur = rng.normal(size=(n, n)) * envelope
        ui = rng.normal(size=(n, n)) * envelope
        norm2 = np.sum(ur * ur) + np.sum(ui * ui)  # the forms are quadratic, so h^2 cancels
        lhs_ah = max(lhs_ah, abs(np.sum(ur * lhs(ur)) + np.sum(ui * lhs(ui))) / norm2)
        rhs_ah = max(rhs_ah, abs(np.sum(ur * rhs(ur)) + np.sum(ui * rhs(ui))) / norm2)
    return float(lhs_ah), float(rhs_ah)


def spacetime_snyder_deviation(n: int, mass: float) -> float:
    """Interior max |(lhs - C) chi| / max |C chi| for a low-momentum state chi (the Snyder limit).

    The state has p^2/m^2 of order 0.01 and lives on its own n-point window of
    +-8 ``SNYDER_WIDTH`` m, finer than the check's, so that it stays
    grid-resolved; the same round(0.15 n) edge points are trimmed.
    """
    wn = SNYDER_WIDTH * mass
    ps = np.linspace(-8.0 * wn, 8.0 * wn, n)
    p1, p2, lhs, core, _ = _spacetime_sides(ps, ps[1] - ps[0], mass)
    chi = np.exp(-((p1 - 0.7 * wn) ** 2) / (2.0 * (0.9 * wn) ** 2) - ((p2 + 0.5 * wn) ** 2) / (2.0 * (1.3 * wn) ** 2))
    chi /= np.max(chi)
    k = max(1, int(round(0.15 * n)))
    inner = (slice(k, n - k), slice(k, n - k))
    core_chi = core(chi)
    return float(np.max(np.abs((lhs(chi) - core_chi)[inner])) / np.max(np.abs(core_chi[inner])))
