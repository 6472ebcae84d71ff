"""Fuzzy harmonic oscillator: perturbative spectra and the momentum-space eigenproblem.

With the smeared position operator, the oscillator eigenproblem in the
momentum basis becomes, for phi = exp(-p^2/m^2) psi,

    (m w^2 / 2) [phi'' - (p^2/m^4 - 1/m^2) phi] = (p^2/2m - E) exp(2p^2/m^2) phi.

Three truncations are provided.  ``exact`` solves the full weighted
generalized problem.  The ``quadratic`` and ``quartic`` paths implement the
bookkeeping of the closed-form spectra: the weight expansion is kept against
the kinetic term p^2/2m (up to the stated order) and the energy-side weight
corrections are dropped, so the numeric spectra test those closed forms at
their stated accuracy.  The dropped terms are not of higher order: to first
order -E 2p^2/m^2 shifts level n by -2(n + 1/2)^2 w^2/m, the same order as the
retained shift, so ``exact`` levels leave the quartic formula already at
O(w^2/m).  The ``quadratic`` truncation is itself a harmonic oscillator with
levels (n + 1/2) w sqrt(1 + w^2/m^2) - w^2/2m; the closed form is their
O(w^2/m) expansion.

The grid is symmetric, so the problem splits into an even and an odd block.
Each block is first solved by Rayleigh-Ritz in the Hermite functions of its
parity at scale sqrt(m w), which are the reduced closed-form eigenstates; an
answer is kept only when every wanted pair passes a residual bound, which
puts an eigenvalue of the grid problem next to each kept value.  That rung
needs A only on the span of the Hermite functions h, so no block is formed.
A is the second derivative T (Toeplitz on the grid, Toeplitz plus or minus
Hankel in a parity block) plus a diagonal, and only the diagonal (and the
weight) depends on the truncation: the Hermite functions, their product T h
(one FFT convolution of length n per parity), the projection h^T (T h) and
the eigendecomposition of h^T h are cached per grid, m and w
(``_toeplitz_hermite``, two entries for a grid and its refinement).  So the
quadratic, quartic and exact solves on one grid share one transform, and
each forms its 32 x 32 reduced problem from one or two products with h.
Where the harmonic states do not carry the levels (strong coupling, coarse
or narrow grids) the dense block of that parity is assembled and
diagonalised.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
        if not (0.0 < self.omega < np.inf and 0.0 < self.mass < np.inf):  # also refuses nan
            raise ValueError(f"omega and mass must be finite and positive, got {self.omega!r} and {self.mass!r}")
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


def default_grid(spec: OscillatorSpec, n_max: int, n_points: int = 512, states: bool = False) -> MomentumGrid:
    """Grid sized to the reduced eigenfunctions (scale sqrt(m w)), capped at 3.7 m where exp(p^2/m^2) enters.

    The cap keeps the exact weight exp(2p^2/m^2) within WEIGHT_CAP
    (``check_weight``) and, with ``states``, keeps below 1e6 the factor
    exp(p^2/m^2) that turns phi into psi and multiplies phi's roundoff.  The
    quadratic and quartic levels need neither, and a capped grid cuts into
    their reduced states from w/m of about 0.12 up (at n_max = 3).
    """
    coverage = (8.0 + np.sqrt(2.0 * n_max + 2.0)) * np.sqrt(spec.mass * spec.omega)
    capped = states or spec.truncation == "exact"
    return MomentumGrid.symmetric(n_points, min(3.7 * spec.mass, coverage) if capped else coverage)


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


def _parity_block(c: np.ndarray, diag: np.ndarray, sign: int) -> np.ndarray:
    """Dense A of A phi = E W phi restricted to even (``sign`` 1) or odd (-1) phi, on the left half-grid.

    A = -(m w^2/2) d^2/dp^2 + diag is even under p -> -p, so with n = c.size
    and k = n // 2 the even block is A11 + A12 J and the odd block A11 - A12 J:
    the Toeplitz part c[|i - j|] plus or minus its mirror c[n - 1 - i - j],
    i, j < k.  Both are read as sliding windows of c, without index arrays.
    For odd n the middle point p = 0 joins the even block, coupled with a
    factor sqrt(2) in the orthonormal basis (e_i + e_(n-1-i))/sqrt(2).  Only
    the dense rung builds a block, one parity at a time.
    """
    n, k = c.size, c.size // 2
    # window i of (c[k-1], ..., c[1], c[0], c[1], ..., c[k-1]) at offset j is
    # c[|i + j - k + 1|]; with the windows in reverse order it is c[|i - j|]
    toeplitz = sliding_window_view(np.concatenate([c[k - 1 : 0 : -1], c[:k]]), k)[::-1]
    mirror = sliding_window_view(c[::-1][: 2 * k - 1], k)  # c[n-1-i-j]
    if sign < 0:
        a = toeplitz - mirror
    else:
        a = np.empty((n - k, n - k))
        a[:k, :k] = toeplitz + mirror
        if n % 2:
            a[k, :k] = a[:k, k] = np.sqrt(2.0) * c[k:0:-1]
            a[k, k] = c[0]
    a[np.diag_indices(a.shape[0])] += diag[: a.shape[0]]
    return a


def _block_product(c: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """T x for each column x of ``coords`` in its parity block's coordinates: T is A's block without its diagonal.

    Column j holds the coordinates (left half-grid, plus the middle point for
    odd n) of a vector of the even block for even j and of the odd block for
    odd j, as the Hermite functions h_j alternate in parity; an odd column's
    middle row is ignored.  On its m = n - n // 2 coordinates block s is
    c[|i - j|] + s c[n - 1 - i - j] (``_parity_block``): a Toeplitz part, a
    circular convolution of length 2m with the lags -(m - 1) ... m - 1, and a
    Hankel part, the circular correlation with z[t] = c[n - 1 - t], whose
    spectrum is Z times conj(X) for real x.  So one transform of length 2m
    answers both: Y = C X + s Z conj(X), one parity's columns at a time with
    the spectrum multiplied in place.  For odd n the middle point p = 0 is
    its own mirror and both parts see it: its coordinate is scaled by
    1/sqrt(2) on the way in (an odd column's by 0) and on the way out, which
    gives the sqrt(2) coupling of the even block.  T x plus diag times x
    agrees with ``_parity_block`` times the column up to roundoff.
    """
    n, m = c.size, c.size - c.size // 2
    toeplitz = np.fft.rfft(np.concatenate([c[:m], [0.0], c[m - 1 : 0 : -1]]))  # lags 0 ... m-1, -(m-1) ... -1
    hankel = np.fft.rfft(np.append(c[::-1][: 2 * m - 1], 0.0))  # z[t] = c[n-1-t], t <= 2m - 2
    out = np.empty((coords.shape[1], m))
    for parity, sign in ((0, 1.0), (1, -1.0)):
        x = coords[:, parity::2].T
        if n % 2:
            x = x.copy()
            x[:, m - 1] *= np.sqrt(0.5) if sign > 0 else 0.0
        spectrum = np.fft.rfft(x, 2 * m)
        mirrored = np.conj(spectrum)
        mirrored *= sign * hankel
        spectrum *= toeplitz
        spectrum += mirrored
        out[parity::2] = np.fft.irfft(spectrum, 2 * m)[:, :m]
    if n % 2:
        out[:, m - 1] *= np.sqrt(0.5)
    return out.T


class _RitzBasis(NamedTuple):
    """One parity's Hermite functions h in its block coordinates, with what no truncation changes; read-only.

    ``product`` is T h (``_block_product``), ``projected`` is h^T (T h), and
    ``gram``, ``gram_vectors`` are the eigendecomposition of the unit-weight
    Gram matrix h^T h (ascending).
    """

    h: np.ndarray
    product: np.ndarray
    projected: np.ndarray
    gram: np.ndarray
    gram_vectors: np.ndarray


@lru_cache(maxsize=2)
def _toeplitz_hermite(grid: MomentumGrid, mass: float, omega: float) -> tuple[np.ndarray, _RitzBasis, _RitzBasis]:
    """Lag vector c and the even and odd ``_RitzBasis`` of a grid; read-only, cached.

    These are the parts of the parity problem that no truncation changes:
    c is -(m w^2/2) times the spectral second derivative's lag vector, and
    each basis holds the first 32 Hermite functions of its parity at scale
    sqrt(m w) in block coordinates (the middle row divided by sqrt(2) for
    odd n), their ``_block_product`` T h, the projection h^T (T h) and the
    eigendecomposition of h^T h.  The truncation enters only through the
    diagonal and the weight, so the quadratic, quartic and exact solves on
    one grid share one entry.  The key is the grid, which is its size and
    cutoff, m and w.  Two entries hold a grid and its refinement, at 64 n
    floats for the functions and their product, n for c and 4160 for the
    32 x 32 pieces each: about 1.6 MB for n = 1024 and 2048.
    """
    n, k = grid.n, grid.n // 2
    c = -(mass * omega**2 / 2.0) * d2_lags(n, grid.spacing)
    hermite = _hermite_basis(OscillatorSpec(omega, mass), grid.points[: n - k], 2 * _RITZ_SIZE)
    if n % 2:  # coordinates of an even function: sqrt(2) times its sample, but the middle sample itself
        hermite[k] /= np.sqrt(2.0)
    product = _block_product(c, hermite)
    bases = []
    for parity, dim in enumerate((n - k, k)):  # each parity's columns copied together, for plain matrix products
        h, bh = (np.ascontiguousarray(a[:dim, parity::2].T).T for a in (hermite, product))
        bases.append(_RitzBasis(h, bh, h.T @ bh, *np.linalg.eigh(h.T @ h)))
    for a in (c, *bases[0], *bases[1]):
        a.flags.writeable = False  # every truncation on the grid shares the cached arrays
    return c, *bases


def _hermite_basis(spec: OscillatorSpec, points: np.ndarray, count: int) -> np.ndarray:
    """Columns h_0 ... h_(count-1)(p / sqrt(m w)): normalised Hermite functions by their three-term recurrence.

    h_j(x) is proportional to exp(-x^2/2) H_j(x), the reduced form
    exp(-p^2/m^2) psi of the closed-form eigenstates (``eigenfunction``).
    The functions are built as the contiguous rows of a (count, points)
    array and returned as its transposed view, so the recurrence and
    ``_block_product`` run along contiguous memory.
    """
    x = points / np.sqrt(spec.mass * spec.omega)
    h = np.empty((count, x.size))
    h[0] = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
    h[1] = np.sqrt(2.0) * x * h[0]
    for j in range(2, count):
        h[j] = np.sqrt(2.0 / j) * x * h[j - 1] - np.sqrt((j - 1) / j) * h[j - 2]
    return h.T


def _ritz(
    basis: _RitzBasis, diag: np.ndarray, weight: np.ndarray, levels: int, unit_weight: bool
) -> tuple[np.ndarray, np.ndarray] | None:
    """Lowest ``levels`` Ritz pairs of A x = E W x in span(basis.h), or None if the rung cannot answer.

    A = T + diag, so on the basis A is h^T (T h) + h^T (diag h): the cached
    projection plus one product; A itself is not needed.  The basis is
    W-orthonormalised through the eigendecomposition of its Gram matrix,
    the cached one with ``unit_weight`` and h^T (W h) otherwise, and the
    32 x 32 reduced problem is solved in those coordinates S; a Ritz vector
    is x = h (S y) and A x = (T h)(S y) + diag x.  None is returned for a
    basis with fewer columns than wanted levels or more than the block size,
    and for an ill-conditioned Gram matrix (functions that leave the grid or
    are not resolved by it), which is refused before it is divided by.  A
    pair (theta, x) is accepted when
    ||A x - theta W x||_(W^-1) <= _RITZ_RTOL |theta| ||x||_W, which puts an
    eigenvalue of the grid problem within that distance of theta (Kato, J.
    Phys. Soc. Jpn. 4, 334 (1949)).  The bound locates an eigenvalue but not
    its index: interlacing only gives theta_i >= lambda_i, so a low level
    with almost no overlap with the basis would be missed.  That none is
    missed in the tested range (w/m from 0.005 to 0.3) rests on the
    comparison with the dense rung (``test_ladder_matches_dense_rung``,
    ``test_parity_blocks_match_full_eigh``).
    """
    h = basis.h
    if not levels <= h.shape[1] <= h.shape[0]:
        return None
    if unit_weight:
        g, u = basis.gram, basis.gram_vectors
    else:
        g, u = np.linalg.eigh(h.T @ (weight[:, None] * h))
    if not g[0] > _GRAM_RCOND * g[-1]:
        return None
    scale = u / np.sqrt(g)
    theta, y = np.linalg.eigh(scale.T @ (basis.projected + h.T @ (diag[:, None] * h)) @ scale)
    theta, coef = theta[:levels], scale @ y[:, :levels]
    x = h @ coef
    ax = basis.product @ coef + diag[:, None] * x
    wx = weight[:, None] * x
    residual = np.sqrt(np.sum((ax - theta * wx) ** 2 / weight[:, None], axis=0))
    if np.all(residual <= _RITZ_RTOL * np.abs(theta) * np.sqrt(np.sum(x * wx, axis=0))):
        return theta, x
    return None


def _parity_solve(
    spec: OscillatorSpec, grid: MomentumGrid, levels: int, vectors: bool
) -> tuple[list[tuple[float, int, np.ndarray | None]], str]:
    """Lowest ``levels`` (energy, parity, block column) of both parity blocks by energy, and the rungs used.

    Each block is answered by the first rung that can: Rayleigh-Ritz
    (``_ritz``) in the Hermite functions of its parity, from the
    ``_toeplitz_hermite`` cache shared with every truncation on the grid,
    then the dense block (``_parity_block``), assembled only when it is
    reached and with eigenvectors only with ``vectors``.  The rungs are
    named "even/odd", e.g. "ritz32/dense".  The block column (on the left
    half-grid, plus the middle point for odd n in the even block) is
    returned only with ``vectors``, else it is None.
    """
    n, k = grid.n, grid.n // 2
    diag, weight = _diagonal_and_weight(spec, grid.points[: n - k])
    weight = check_weight(weight, n - k)  # the odd block's weight is a part of it
    c, *bases = _toeplitz_hermite(grid, spec.mass, spec.omega)
    found, rungs = [], []
    for sign, dim, basis in zip((1, -1), (n - k, k), bases):
        pairs = _ritz(basis, diag[:dim], weight[:dim], levels, spec.truncation != "exact")
        if pairs is not None:
            rung, (vals, vecs) = f"ritz{_RITZ_SIZE}", pairs
        else:  # the dense block, assembled only here
            rung, a = "dense", _parity_block(c, diag, sign)
            vals, vecs = eig_generalized(a, weight[:dim], True) if vectors else (eig_generalized(a, weight[:dim]), None)
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
    st = GridState(np.concatenate([half, sign * half[:k][::-1]]), grid, SmearingParams(spec.mass)).normalize()
    right = st.samples[k:]  # p >= 0
    if np.real(right[np.argmax(np.abs(right))]) < 0:
        st = GridState(-st.samples, grid, st.smearing)
    return st


def numeric_spectrum(
    spec: OscillatorSpec,
    n_max: int,
    grid: MomentumGrid | None = None,
    n_points: int = 512,
    check_refinement: bool = False,
    return_eigenfunctions: bool = False,
) -> SpectrumResult:
    """Lowest n_max+1 levels of the reduced equation on a grid, with the sinc second derivative.

    The grid is symmetric and the problem even under p -> -p, so it is solved
    as two half-size blocks, one per parity (see ``_parity_block``), and the
    lowest levels of both are merged.  Each block is answered by the first
    rung that can (``_parity_solve``): Rayleigh-Ritz in the first 32 Hermite
    functions of its parity (``_ritz``), kept only when every wanted Ritz
    pair passes a residual bound that puts an eigenvalue of the block within
    1e-9 relative of it; last the dense block, assembled only when this rung
    is reached, whose eigenvectors are computed only when
    ``return_eigenfunctions`` asks for the states.  The bound does not show
    that the located eigenvalue is the i-th lowest; the comparison with the
    dense rung in the tests (``test_ladder_matches_dense_rung``) is the
    evidence that no level is skipped for w/m from 0.005 to 0.3.  ``method``
    names the rung of each block as "even/odd", e.g. "ritz32/ritz32" or
    "dense/dense".  The states are exactly even or odd on the grid.
    What does not depend on the truncation is cached read-only per grid, m
    and w (``_toeplitz_hermite``): per parity the Hermite functions h, their
    product T h with the second derivative (``_block_product``, one FFT of
    length n per parity), the projection h^T (T h) and the eigendecomposition
    of h^T h.  Two entries of about 65 n floats each, about 1.6 MB, hold a
    1024-point grid and its refinement; the three truncations at one w
    transform each grid once, and each Ritz solve adds one product
    h^T (diag h), and for ``exact`` the weighted Gram matrix h^T (W h).
    Without ``grid``, ``default_grid`` sizes it, capped at 3.7 m for
    ``exact`` and when the states are asked for.
    Dirichlet boundary values are implicit (phi decays inside the grid).
    With ``check_refinement`` the solve is repeated on a grid with doubled
    points and 25% larger cutoff; a relative change above 1e-4 raises
    RefinementError.  Asking for more levels than grid points raises
    ValueError.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if grid is None:
        grid = default_grid(spec, n_max, n_points, states=return_eigenfunctions)
    if n_max + 1 > grid.n:
        raise ValueError(f"n_max + 1 = {n_max + 1} levels exceed the {grid.n} grid points")
    levels, method = _parity_solve(spec, grid, n_max + 1, return_eigenfunctions)
    energies = np.array([e for e, _, _ in levels])

    if check_refinement:
        fine = MomentumGrid.symmetric(2 * grid.n, 1.25 * grid.cutoff)
        if spec.truncation == "exact" and 2.0 * fine.cutoff**2 / spec.mass**2 > np.log(WEIGHT_CAP):
            fine = MomentumGrid.symmetric(2 * grid.n, grid.cutoff)
        ref = np.array([e for e, _, _ in _parity_solve(spec, fine, n_max + 1, False)[0]])
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
    return GridState(envelope * herm, grid, SmearingParams(spec.mass)).normalize()
