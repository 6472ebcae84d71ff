"""Fuzzy harmonic oscillator: perturbative spectra and the momentum-space eigenproblem.

With the smeared position operator, the oscillator eigenproblem in the
momentum basis becomes, for phi = exp(-p^2/m^2) psi,

    (m w^2 / 2) [phi'' - (p^2/m^4 - 1/m^2) phi] = (p^2/2m - E) exp(2p^2/m^2) phi.

Three truncations are provided.  ``exact`` solves the full weighted
generalized problem.  The ``quadratic`` and ``quartic`` paths implement the
same order-by-order bookkeeping as the closed-form spectra: the weight
expansion is kept against the kinetic term p^2/2m (up to the stated order)
while the energy-side weight corrections, which enter one perturbative order
higher than the retained shifts, are dropped.  This makes the numeric
spectra directly comparable to the closed forms at their stated accuracy.

On a symmetric grid the problem splits into an even and an odd block.  Each
block is first solved by Rayleigh-Ritz in the Hermite functions of its
parity at scale sqrt(m w), which are the reduced closed-form eigenstates; an
answer is kept only when every wanted pair passes a residual bound, which
puts an eigenvalue of the grid problem next to each kept value.  Where the
harmonic states do not carry the levels (strong coupling, coarse or narrow
grids) the dense block is diagonalised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, RefinementError
from .numerics.grids import MomentumGrid
from .numerics.linalg import WEIGHT_CAP, check_weight, d2_lags, eig_generalized
from .operators import GridState, SmearingParams

_TRUNCATIONS = ("quadratic", "quartic", "exact")
_RITZ_SIZE = 32  # Hermite functions per parity on the Rayleigh-Ritz rung before the dense block
_RITZ_RTOL = 1e-9  # residual bound, relative to the level, for a Ritz pair to be accepted
_GRAM_RCOND = 1e-10  # smallest accepted ratio of the Gram matrix's extreme eigenvalues


@dataclass(frozen=True)
class OscillatorSpec:
    """Oscillator frequency and particle mass (also the smearing scale), in MeV.

    The perturbative formulas are valid for omega much smaller than mass.
    """

    omega: float
    mass: float
    truncation: str = "quadratic"

    def __post_init__(self) -> None:
        if self.omega <= 0 or self.mass <= 0:
            raise ValueError("omega and mass must be positive")
        if self.truncation not in _TRUNCATIONS:
            raise ValueError(f"truncation must be one of {_TRUNCATIONS}")

    @property
    def omega_over_mass(self) -> float:
        return self.omega / self.mass


@dataclass(frozen=True)
class SpectrumResult:
    """Energies in MeV (ascending), how they were obtained, optional eigenfunctions."""

    energies: tuple[float, ...]
    method: str
    eigenfunctions: tuple[GridState, ...] | None = None
    breakdown: tuple[bool, ...] | None = None

    def __post_init__(self) -> None:
        e = np.asarray(self.energies)
        if e.size > 1 and np.any(np.diff(e) <= 0):
            raise ValueError("energies must be strictly increasing")


def harmonic_spectrum_formula(spec: OscillatorSpec, n_max: int) -> SpectrumResult:
    """Displaced harmonic levels E_n = (n+1/2) w - w^2/2m (large-confinement regime)."""
    if spec.truncation != "quadratic":
        raise ContractError("harmonic closed form applies to the quadratic truncation")
    n = np.arange(n_max + 1)
    e = (n + 0.5) * spec.omega - spec.omega**2 / (2.0 * spec.mass)
    return SpectrumResult(tuple(float(v) for v in e), method="formula")


def anharmonic_shift(spec: OscillatorSpec, n: np.ndarray | int) -> np.ndarray | float:
    """n-dependent quartic shift (3 w^2 / 4m)(1 + 2n + 2n^2)."""
    return (3.0 * spec.omega**2 / (4.0 * spec.mass)) * (1.0 + 2.0 * np.asarray(n) + 2.0 * np.asarray(n) ** 2)


def anharmonic_spectrum_formula(spec: OscillatorSpec, n_max: int) -> SpectrumResult:
    """Quartic-regime levels: the displaced harmonic ladder plus the anharmonic shift.

    Levels whose shift exceeds 10% of the harmonic level are flagged: the
    perturbation expansion breaks down for large enough n.
    """
    if spec.truncation != "quartic":
        raise ContractError("anharmonic closed form applies to the quartic truncation")
    n = np.arange(n_max + 1)
    e = (n + 0.5) * spec.omega - spec.omega**2 / (2.0 * spec.mass) + anharmonic_shift(spec, n)
    flags = (3.0 * spec.omega / (4.0 * spec.mass)) * (1.0 + 2.0 * n + 2.0 * n**2) > 0.1 * (n + 0.5)
    return SpectrumResult(tuple(float(v) for v in e), method="formula", breakdown=tuple(bool(f) for f in flags))


def default_grid(spec: OscillatorSpec, n_max: int, n_points: int = 512) -> MomentumGrid:
    """Grid sized to the reduced eigenfunctions (scale sqrt(m w)), capped for the exact weight."""
    coverage = (8.0 + np.sqrt(2.0 * n_max + 2.0)) * np.sqrt(spec.mass * spec.omega)
    cutoff = min(3.7 * spec.mass, coverage)
    return MomentumGrid.symmetric(n_points, cutoff)


def _diagonal_and_weight(spec: OscillatorSpec, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal of A (confinement plus weighted kinetic term) and the weight W at momenta p."""
    w, m = spec.omega, spec.mass
    confinement = (m * w**2 / 2.0) * (p**2 / m**4 - 1.0 / m**2)
    weight = np.ones_like(p)
    if spec.truncation == "quadratic":
        kinetic_weight = weight
    elif spec.truncation == "quartic":
        kinetic_weight = 1.0 + 2.0 * p**2 / m**2 + 2.0 * p**4 / m**4
    else:
        kinetic_weight = weight = np.exp(2.0 * p**2 / m**2)  # check_weight refuses a span above WEIGHT_CAP
    return confinement + (p**2 / (2.0 * m)) * kinetic_weight, weight


def _parity_blocks(spec: OscillatorSpec, grid: MomentumGrid, scheme: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """(A, W) of A phi = E W phi restricted to even and to odd phi, on the left half-grid.

    A = -(m w^2/2) d^2/dp^2 + diag and W are even under p -> -p, so with
    k = n // 2 the even block is A11 + A12 J and the odd block A11 - A12 J:
    the Toeplitz part c[|i - j|] plus or minus its mirror c[n - 1 - i - j],
    i, j < k.  Both are read as sliding windows of c, without index arrays.
    For odd n the middle point p = 0 joins the even block, coupled with a
    factor sqrt(2) in the orthonormal basis (e_i + e_(n-1-i))/sqrt(2).
    """
    n, k = grid.n, grid.n // 2
    c = -(spec.mass * spec.omega**2 / 2.0) * d2_lags(n, grid.spacing, scheme)
    diag, weight = _diagonal_and_weight(spec, grid.points[: n - k])
    # window i of (c[k-1], ..., c[1], c[0], c[1], ..., c[k-1]) at offset j is
    # c[|i + j - k + 1|]; with the windows in reverse order it is c[|i - j|]
    toeplitz = sliding_window_view(np.concatenate([c[k - 1 : 0 : -1], c[:k]]), k)[::-1]
    mirror = sliding_window_view(c[::-1][: 2 * k - 1], k)  # c[n-1-i-j]
    i = np.arange(k)
    even = np.empty((n - k, n - k))
    even[:k, :k] = toeplitz + mirror
    odd = toeplitz - mirror
    if n % 2:
        even[k, :k] = even[:k, k] = np.sqrt(2.0) * c[k - i]
        even[k, k] = c[0]
    even[np.diag_indices(n - k)] += diag
    odd[np.diag_indices(k)] += diag[:k]
    return [(even, weight), (odd, weight[:k])]


def _hermite_basis(spec: OscillatorSpec, points: np.ndarray, count: int) -> np.ndarray:
    """Columns h_0 ... h_(count-1)(p / sqrt(m w)): normalised Hermite functions by their three-term recurrence.

    h_j(x) is proportional to exp(-x^2/2) H_j(x), the reduced form
    exp(-p^2/m^2) psi of the closed-form eigenstates (``eigenfunction``).
    """
    x = points / np.sqrt(spec.mass * spec.omega)
    h = np.empty((x.size, count))
    h[:, 0] = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
    h[:, 1] = np.sqrt(2.0) * x * h[:, 0]
    for j in range(2, count):
        h[:, j] = np.sqrt(2.0 / j) * x * h[:, j - 1] - np.sqrt((j - 1) / j) * h[:, j - 2]
    return h


def _ritz(a: np.ndarray, weight: np.ndarray, basis: np.ndarray, levels: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Lowest ``levels`` Ritz pairs of A x = E W x in span(basis), or None if any fails the residual bound.

    The basis is W-orthonormalised through its Gram matrix; an ill-conditioned
    Gram matrix (functions that leave the grid or are not resolved by it)
    gives None.  A pair (theta, x) is accepted when
    ||A x - theta W x||_(W^-1) <= _RITZ_RTOL |theta| ||x||_W, which puts an
    eigenvalue of the grid problem within that distance of theta (Kato, J.
    Phys. Soc. Jpn. 4, 334 (1949)).  The bound locates an eigenvalue but not
    its index: interlacing only gives theta_i >= lambda_i, so a low level
    with almost no overlap with the basis would be missed.  That none is
    missed in the tested range (w/m from 0.005 to 0.3) rests on the
    comparison with the dense rung (``test_ladder_matches_dense_rung``,
    ``test_parity_blocks_match_full_eigh``).
    """
    g, u = np.linalg.eigh(basis.T @ (weight[:, None] * basis))
    if not g[0] > _GRAM_RCOND * g[-1]:
        return None
    q = basis @ (u / np.sqrt(g))
    aq = a @ q
    theta, y = np.linalg.eigh(q.T @ aq)
    theta, y = theta[:levels], y[:, :levels]
    x = q @ y
    wx = weight[:, None] * x
    residual = np.sqrt(np.sum((aq @ y - theta * wx) ** 2 / weight[:, None], axis=0))
    if np.all(residual <= _RITZ_RTOL * np.abs(theta) * np.sqrt(np.sum(x * wx, axis=0))):
        return theta, x
    return None


def _ladder(
    a: np.ndarray, weight: np.ndarray, basis: np.ndarray, levels: int, vectors: bool
) -> tuple[str, np.ndarray, np.ndarray | None]:
    """(rung, values, columns) of the block A x = E W x from the first rung that answers it.

    The first rung is Rayleigh-Ritz in the columns of ``basis``, skipped when
    it has fewer columns than wanted levels or more than the block size; the
    last is the dense block, which computes columns only with ``vectors``,
    else they are None.
    """
    size = basis.shape[1]
    pairs = _ritz(a, weight, basis, levels) if levels <= size <= a.shape[0] else None
    if pairs is not None:
        return f"ritz{size}", *pairs
    if vectors:
        return "dense", *eig_generalized(a, weight, return_eigenvectors=True)
    return "dense", eig_generalized(a, weight), None


def _parity_solve(
    spec: OscillatorSpec, grid: MomentumGrid, scheme: str, levels: int, vectors: bool
) -> tuple[list[tuple[float, int, np.ndarray | None]], str]:
    """Lowest ``levels`` (energy, parity, block column) of both parity blocks by energy, and the rungs used.

    Each block is solved by ``_ladder`` in the Hermite functions of its parity
    (``_hermite_basis``), sampled like the block's coordinates.  The rungs
    are named "even/odd", e.g. "ritz32/dense".  The block column (on the
    left half-grid, plus the middle point for odd n in the even block) is
    returned only with ``vectors``, else it is None.
    """
    n, k = grid.n, grid.n // 2
    hermite = _hermite_basis(spec, grid.points[: n - k], 2 * _RITZ_SIZE)
    if n % 2:  # coordinates of an even function: sqrt(2) times its sample, but the middle sample itself
        hermite[k] /= np.sqrt(2.0)
    found, rungs = [], []
    for sign, (a, weight) in zip((1, -1), _parity_blocks(spec, grid, scheme)):
        basis = hermite[: a.shape[0], (1 - sign) // 2 :: 2]
        rung, vals, vecs = _ladder(a, check_weight(weight, a.shape[0]), basis, levels, vectors)
        rungs.append(rung)
        found += [(float(e), sign, vecs[:, j] if vectors else None) for j, e in enumerate(vals[:levels])]
    return sorted(found, key=lambda level: level[0])[:levels], "/".join(rungs)


def _mirror_state(spec: OscillatorSpec, grid: MomentumGrid, column: np.ndarray, sign: int) -> GridState:
    """Full-grid eigenfunction psi = exp(p^2/m^2) phi of parity ``sign`` from its block column.

    The left half is mirrored exactly, so psi(-p) = sign psi(p) holds sample
    by sample.  The overall sign makes the largest |psi| on p >= 0 positive,
    the Hermite convention of ``eigenfunction``.
    """
    k = grid.n // 2
    half = np.exp(grid.points[: column.size] ** 2 / spec.mass**2) * column
    if grid.n % 2:  # the even block's middle basis vector is e_k, not (e_i + e_(n-1-i))/sqrt(2)
        half = np.append(half[:k], np.sqrt(2.0) * half[k] if sign > 0 else 0.0)
    s = SmearingParams(spec.mass)
    st = GridState(np.concatenate([half, sign * half[:k][::-1]]), grid, measure="weighted", smearing=s).normalize()
    right = st.samples[k:]  # p >= 0
    if np.real(right[np.argmax(np.abs(right))]) < 0:
        st = GridState(-st.samples, grid, "weighted", s)
    return st


def numeric_spectrum(
    spec: OscillatorSpec,
    n_max: int,
    grid: MomentumGrid | None = None,
    n_points: int = 512,
    scheme: str = "spectral",
    check_refinement: bool = False,
    return_eigenfunctions: bool = False,
) -> SpectrumResult:
    """Lowest n_max+1 levels of the reduced equation on a grid.

    The grid is symmetric and the problem even under p -> -p, so it is solved
    as two half-size blocks, one per parity (see ``_parity_blocks``), and the
    lowest levels of both are merged.  Each block is answered by the first
    rung of a ladder (``_ladder``): Rayleigh-Ritz in the first 32 Hermite
    functions of its parity, kept only when every wanted Ritz pair passes a
    residual bound that puts an eigenvalue of the block within 1e-9 relative
    of it; last the dense block, whose eigenvectors are computed only when
    ``return_eigenfunctions`` asks for the states.  The bound does not show
    that the located eigenvalue is the i-th lowest; the comparison with the
    dense rung in the tests (``test_ladder_matches_dense_rung``) is the
    evidence that no level is skipped for w/m from 0.005 to 0.3.  ``method``
    names the rung of each block as "even/odd", e.g. "ritz32/ritz32" or
    "dense/dense".  The states are exactly even or odd on the grid.
    Dirichlet boundary values are implicit (phi decays inside the grid).
    With ``check_refinement`` the solve is repeated on a grid with doubled
    points and 25% larger cutoff; a relative change above 1e-4 raises
    RefinementError.  Asking for more levels than grid points raises
    ValueError.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if grid is None:
        grid = default_grid(spec, n_max, n_points)
    if n_max + 1 > grid.n:
        raise ValueError(f"n_max + 1 = {n_max + 1} levels exceed the {grid.n} grid points")
    levels, method = _parity_solve(spec, grid, scheme, n_max + 1, return_eigenfunctions)
    energies = np.array([e for e, _, _ in levels])

    if check_refinement:
        fine = MomentumGrid.symmetric(2 * grid.n, 1.25 * grid.cutoff)
        if spec.truncation == "exact" and 2.0 * fine.cutoff**2 / spec.mass**2 > np.log(WEIGHT_CAP):
            fine = MomentumGrid.symmetric(2 * grid.n, grid.cutoff)
        ref = np.array([e for e, _, _ in _parity_solve(spec, fine, scheme, n_max + 1, False)[0]])
        rel = np.max(np.abs(ref - energies) / np.maximum(np.abs(ref), 1e-300))
        if rel > 1e-4:
            raise RefinementError(f"spectrum changed by {rel:.2e} under grid refinement")

    eigenfunctions = None
    if return_eigenfunctions:
        eigenfunctions = tuple(_mirror_state(spec, grid, col, sign) for _, sign, col in levels)
    return SpectrumResult(
        tuple(float(v) for v in energies), method=method, eigenfunctions=eigenfunctions
    )


def eigenfunction(spec: OscillatorSpec, n: int, grid: MomentumGrid) -> GridState:
    """Closed-form level-n eigenfunction of the large-confinement regime.

    psi(p) ~ exp(p^2/m^2 (1 - m/2w)) H_n(p / sqrt(m w)), normalised in the
    weighted measure exp(-2p^2/m^2) dp.  Needs w < m/2 so the Gaussian
    exponent is negative; parity is (-1)^n with n interior nodes.
    """
    if spec.truncation != "quadratic":
        raise ContractError("the closed-form eigenfunction belongs to the quadratic truncation")
    if not spec.omega < spec.mass / 2.0:
        raise ContractError("omega >= mass/2: the closed-form eigenfunction is not normalisable")
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = grid.points
    herm = np.polynomial.hermite.Hermite.basis(n)(p / np.sqrt(spec.mass * spec.omega))
    envelope = np.exp(p**2 / spec.mass**2 * (1.0 - spec.mass / (2.0 * spec.omega)))
    s = SmearingParams(spec.mass)
    return GridState(envelope * herm, grid, measure="weighted", smearing=s).normalize()
