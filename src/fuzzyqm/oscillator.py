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

The problem is even under p -> -p and is solved per parity.  It is first
solved in the continuum, by Rayleigh-Ritz in the Hermite functions
h_j(p/s) at a scale s near sqrt(m w), whose lowest ones are the reduced
closed-form eigenstates.  The derivative and confinement terms are
pentadiagonal in them in closed form, and the kinetic term and the weight
are polynomials times at most exp(2p^2/m^2), which Gauss-Hermite quadrature
integrates exactly (J. P. Boyd, Chebyshev and Fourier Spectral Methods, 2nd
ed., Dover 2001, ch. 17).  One rung of K = 64, 128 or 256 functions is
assembled per step, the first step's K/2 levels are read from its leading
blocks, and the first K whose levels agree with K/2's answers.  Its levels
are eigenvalues alone, and its vectors are solved for only when the states
are asked for.  No grid enters those levels, and a grid only samples the
states.  Where no K agrees (strong coupling, many levels) each parity's
dense block of the sinc discretisation on a grid is diagonalised.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, OverflowGuardError, RefinementError
from .numerics.grids import MomentumGrid

_TRUNCATIONS = ("quadratic", "quartic", "exact")
_WEIGHT_CAP = 1e12  # largest max(W)/min(W) on a grid for which the dense rung's W^(-1/2) reduction stays accurate
_LADDER = (32, 64, 128, 256)  # Hermite functions on the Galerkin rung, each checked against the one before
_LADDER_RTOL = 1e-10  # largest relative change of a level from K/2 to K functions for the Galerkin rung to answer


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
    """Energies in MeV (ascending), how they were obtained, optional eigenfunctions psi sampled on a grid."""

    energies: tuple[float, ...]
    method: str
    eigenfunctions: tuple[np.ndarray, ...] | None = None
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

    The cap keeps the exact weight exp(2p^2/m^2) within the 1e12 span that
    ``_parity_solve`` accepts and, with ``states``, keeps below 1e6 the factor
    exp(p^2/m^2) that turns phi into psi and multiplies phi's roundoff.  The
    dense rung's quadratic and quartic levels need neither, and a capped grid
    cuts into their reduced states from w/m of about 0.12 up (at n_max = 3).
    """
    coverage = (8.0 + np.sqrt(2.0 * n_max + 2.0)) * np.sqrt(spec.mass * spec.omega)
    capped = states or spec.truncation == "exact"
    return MomentumGrid.symmetric(n_points, min(3.7 * spec.mass, coverage) if capped else coverage)


def _kinetic_and_weight(spec: OscillatorSpec, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kinetic term p^2/2m times the truncation's weight expansion, and the weight W, at momenta p."""
    m = spec.mass
    weight = np.ones_like(p)
    if spec.truncation == "quadratic":
        kinetic_weight = weight
    elif spec.truncation == "quartic":
        kinetic_weight = 1.0 + 2.0 * p**2 / m**2 + 2.0 * p**4 / m**4
    else:
        kinetic_weight = weight = np.exp(2.0 * p**2 / m**2)  # on a grid, _parity_solve refuses a span above _WEIGHT_CAP
    return (p**2 / (2.0 * m)) * kinetic_weight, weight


@lru_cache(maxsize=len(_LADDER))
def _gauss_hermite(count: int) -> tuple[np.ndarray, np.ndarray]:
    """(y, w) of the count-node Gauss-Hermite rule, read-only; numpy.polynomial is first imported here, not at start-up."""
    rule = np.polynomial.hermite.hermgauss(count)
    for a in rule:
        a.flags.writeable = False  # every solve with this count shares the cached arrays
    return rule


def _hermite_basis(x: np.ndarray, count: int) -> np.ndarray:
    """Columns h_0 ... h_(count-1)(x): normalised Hermite functions by their three-term recurrence.

    h_j(x) is proportional to exp(-x^2/2) H_j(x); at x = p / sqrt(m w) it is
    the reduced form exp(-p^2/m^2) psi of the closed-form eigenstates
    (``eigenfunction``).  The functions are built as the contiguous rows of a
    (count, points) array and returned as its transposed view, so the
    recurrence runs along contiguous memory.
    """
    h = np.empty((count, x.size))
    h[0] = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
    h[1] = np.sqrt(2.0) * x * h[0]
    j = np.arange(2, count)
    for k, up, down in zip(range(2, count), np.sqrt(2.0 / j).tolist(), np.sqrt((j - 1) / j).tolist()):
        h[k] = up * x * h[k - 1] - down * h[k - 2]
    return h.T


@lru_cache(maxsize=2 * len(_LADDER))
def _rung(count: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and quadrature-weighted basis q of the K = ``count`` Galerkin rung, read-only.

    x = y / sqrt(beta) are the count + 8 Gauss-Hermite nodes y with weights
    g, and q holds h_0 ... h_(count-1) at x, each node's row times
    sqrt(g / sqrt(beta)) exp(y^2/2), so that q^T diag(f(x)) q integrates
    f h_j h_k dx.  ``quadratic`` and ``quartic`` have beta = 1, so their
    rungs depend on K alone.
    """
    y, gw = _gauss_hermite(count + 8)
    x = y / np.sqrt(beta)
    q = _hermite_basis(x, count) * (np.sqrt(gw / np.sqrt(beta)) * np.exp(y**2 / 2.0))[:, None]
    for a in (x, q):
        a.flags.writeable = False  # every solve at this (K, beta) shares the cached arrays
    return x, q


def _lowest(
    blocks: list[tuple[np.ndarray, np.ndarray | None]], size: int, levels: int
) -> list[tuple[float, int, int]]:
    """(energy, parity, index in its block) of the lowest ``levels`` eigenvalues of the leading size x size blocks."""
    found = [
        (float(e), parity, i)
        for parity, (a, _) in enumerate(blocks)
        for i, e in enumerate(np.linalg.eigvalsh(a[:size, :size])[:levels])
    ]
    return sorted(found)[:levels]


def _galerkin(
    spec: OscillatorSpec, levels: int, points: np.ndarray | None
) -> tuple[list[tuple[float, int, np.ndarray | None]], int] | None:
    """Lowest ``levels`` (energy, parity, phi at ``points``) of the continuum problem and its K, or None.

    Rayleigh-Ritz of A phi = E W phi in the first K Hermite functions
    h_j(p/s), split by parity, at s = lambda sqrt(m w).  ``quadratic`` is a
    harmonic oscillator of stiffness 1 + w^2/m^2, diagonal in the h_j at
    lambda = (1 + w^2/m^2)^(-1/4), so K = 64 answers at every w/m; otherwise
    lambda = 1/(1 + 10 w/m), as the quartic term and the weight narrow the
    states.  In x = p/s, -d^2/dx^2 and x^2 both have the diagonal (2j+1)/2
    and carry -sqrt((j+1)(j+2))/2 and +sqrt((j+1)(j+2))/2 at (j, j+2), so
    -(m w^2/2)(d^2/dp^2 - p^2/m^4 + 1/m^2) is pentadiagonal in closed form.
    The kinetic term and the weight (``_kinetic_and_weight``) are
    polynomials times at most exp(2p^2/m^2) = exp((1 - beta) x^2), with
    beta = 1 - 2s^2/m^2 for ``exact`` and 1 otherwise; against h_j h_k that
    is exp(-beta x^2) times a polynomial of degree at most 2K + 4, which the
    K + 8 Gauss-Hermite nodes y, placed at x = y / sqrt(beta), integrate
    exactly (``_rung``).  lambda keeps beta >= 0.95.  For ``exact`` the
    problem is reduced by the triangular factor R of the weight's Gram
    matrix G = R^T R; otherwise G is the identity.

    One rung is assembled per step, K = 64, 128 and 256, starting at the
    first K whose K/2 still holds ``levels`` functions per parity.  The
    first step reads the K/2 levels from the leading quarter-size block of
    each parity's reduced matrix: K + 8 nodes integrate the K/2 products
    exactly too, and R^-1 is triangular, so that block is the K/2 problem's
    own.  Each later step compares with the step before.  The first K whose
    levels all agree with K/2's within 1e-10 relative answers, and None
    means that no K did.  Every level is an eigenvalue alone (eigvalsh);
    with ``points``, the answering rung's blocks are solved again for their
    eigenvectors c, and phi = sum_j c_j h_j(p/s) is sampled there.  Without
    them phi is None, and the levels are the same bits either way.
    """
    m, w = spec.mass, spec.omega
    if spec.truncation == "quadratic":
        scale = np.sqrt(m * w / np.hypot(1.0, w / m))  # hypot keeps (w/m)^2 from overflowing
    else:
        scale = np.sqrt(m * w) / (1.0 + 10.0 * w / m)
    beta = 1.0 - 2.0 * scale**2 / m**2 if spec.truncation == "exact" else 1.0
    d2, x2 = m * w**2 / (2.0 * scale**2), m * w**2 * scale**2 / (2.0 * m**4)  # coefficients of -d^2/dx^2 and x^2
    previous = None
    for half, count in zip(_LADDER, _LADDER[1:]):
        if half < 2 * levels:
            continue
        x, q = _rung(count, beta)
        kinetic, weight = _kinetic_and_weight(spec, scale * x)
        blocks = []  # (reduced matrix, R^-1 or None) per parity
        for parity in (0, 1):
            j, qp = np.arange(parity, count, 2), q[:, parity::2]
            off = (x2 - d2) * np.sqrt((j[:-1] + 1.0) * (j[:-1] + 2.0)) / 2.0
            a = qp.T @ (kinetic[:, None] * qp) + np.diag(off, 1) + np.diag(off, -1)
            a[np.diag_indices(j.size)] += (d2 + x2) * (j + 0.5) - w**2 / (2.0 * m)
            r = None
            if spec.truncation == "exact":
                # G = R^T R from the QR factors of sqrt(weight) times the nodal basis, without squaring G's
                # condition number; r = R^-1
                r = np.linalg.inv(np.linalg.qr(np.sqrt(weight)[:, None] * qp, mode="r"))
                a = r.T @ a @ r
            blocks.append((a, r))
        found = _lowest(blocks, count // 2, levels)
        energies = np.array([e for e, _, _ in found])
        if previous is None:
            previous = np.array([e for e, _, _ in _lowest(blocks, count // 4, levels)])
        if np.all(np.abs(energies - previous) <= _LADDER_RTOL * np.abs(energies)):
            if points is None:
                return [(e, 1 - 2 * parity, None) for e, parity, _ in found], count
            h = _hermite_basis(points / scale, count)
            vecs = []
            for a, r in blocks:
                c = np.linalg.eigh(a)[1]
                vecs.append(c if r is None else r @ c)
            return [(e, 1 - 2 * parity, h[:, parity::2] @ vecs[parity][:, i]) for e, parity, i in found], count
        previous = energies
    return None


def _parity_block(c: np.ndarray, diag: np.ndarray, sign: int) -> np.ndarray:
    """Dense A of A phi = E W phi restricted to even (``sign`` 1) or odd (-1) phi, on the left half-grid.

    A = -(m w^2/2) d^2/dp^2 + diag is even under p -> -p, so with n = c.size
    and k = n // 2 the even block is A11 + A12 J and the odd block A11 - A12 J:
    the Toeplitz part c[|i - j|] plus or minus its mirror c[n - 1 - i - j],
    i, j < k.  Both are read as sliding windows of c, without index arrays.
    For odd n the middle point p = 0 joins the even block, coupled with a
    factor sqrt(2) in the orthonormal basis (e_i + e_(n-1-i))/sqrt(2).
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


def _parity_solve(
    spec: OscillatorSpec, grid: MomentumGrid, levels: int, vectors: bool
) -> list[tuple[float, int, np.ndarray | None]]:
    """Lowest ``levels`` (energy, parity, phi on the left half-grid) of both dense parity blocks, by energy.

    The second derivative is the sinc one, the symmetric Toeplitz matrix of
    the lags c[|i - j|].  Each block A (``_parity_block``) is solved as
    A phi = E W phi by the symmetric reduction W^(-1/2) A W^(-1/2), with
    eigenvectors only with ``vectors``; without them phi is None.  A weight
    that spans more than _WEIGHT_CAP on the grid (or overflows) raises
    OverflowGuardError: the reduced matrix is then too badly scaled for the
    levels to be trusted.  phi is sampled at the first n - n // 2 grid
    points, which for odd n end at the middle point p = 0.
    """
    n, k = grid.n, grid.n // 2
    p = grid.points[: n - k]
    kinetic, weight = _kinetic_and_weight(spec, p)  # the odd block's weight is a part of the even block's
    if not np.log(np.max(weight)) - np.log(np.min(weight)) <= np.log(_WEIGHT_CAP):  # also catches inf and nan
        raise OverflowGuardError(
            f"weight spans {np.max(weight) / np.min(weight):.2e} > {_WEIGHT_CAP:.0e}; reduce the grid cutoff"
        )
    s = 1.0 / np.sqrt(weight)
    diag = (spec.mass * spec.omega**2 / 2.0) * (p**2 / spec.mass**4 - 1.0 / spec.mass**2) + kinetic
    h, lag = grid.spacing, np.arange(1, n)
    c = np.empty(n)
    c[0] = -np.pi**2 / (3.0 * h**2)
    c[1:] = -2.0 * (-1.0) ** lag / (lag**2 * h**2)
    c *= -(spec.mass * spec.omega**2 / 2.0)
    found = []
    for sign, dim in ((1, n - k), (-1, k)):
        b = np.einsum("i,ij,j->ij", s[:dim], _parity_block(c, diag, sign), s[:dim])
        if vectors:
            vals, vecs = np.linalg.eigh(b)
            vecs = s[:dim, None] * vecs  # phi, normalised in the W-weighted inner product
            if n % 2:  # the even block's middle basis vector is e_k, not (e_i + e_(n-1-i))/sqrt(2); an odd phi is 0 there
                vecs = np.vstack([vecs[:k], np.sqrt(2.0) * vecs[k:] if sign > 0 else np.zeros((1, dim))])
        else:
            vals, vecs = np.linalg.eigvalsh(b), None
        found += [(float(e), sign, None if vecs is None else vecs[:, j]) for j, e in enumerate(vals[:levels])]
    return sorted(found, key=lambda level: level[0])[:levels]


def _normalised(spec: OscillatorSpec, grid: MomentumGrid, psi: np.ndarray) -> np.ndarray:
    """psi scaled to unit norm in the weighted measure exp(-2p^2/m^2) dp on the grid."""
    weights = grid.spacing * np.exp(-(grid.points**2) / spec.mass**2) ** 2
    norm = float(np.sqrt(np.sum(weights * psi**2)))
    if norm == 0:
        raise ValueError("cannot normalise the zero state")
    return psi * (1.0 / norm)


def _mirror_state(spec: OscillatorSpec, grid: MomentumGrid, phi: np.ndarray, sign: int) -> np.ndarray:
    """Full-grid eigenfunction psi = exp(p^2/m^2) phi of parity ``sign`` from phi on the left half-grid.

    ``phi`` holds the first n - n // 2 samples, the middle point p = 0
    included for odd n.  The left half is mirrored exactly, so
    psi(-p) = sign psi(p) holds sample by sample.  psi is normalised in the
    weighted measure, and the overall sign makes the largest |psi| on p >= 0
    positive, the Hermite convention of ``eigenfunction``.
    """
    k = grid.n // 2
    half = np.exp(grid.points[: phi.size] ** 2 / spec.mass**2) * phi
    psi = _normalised(spec, grid, np.concatenate([half, sign * half[:k][::-1]]))
    right = psi[k:]  # p >= 0
    return -psi if right[np.argmax(np.abs(right))] < 0 else psi


def numeric_spectrum(
    spec: OscillatorSpec,
    n_max: int,
    grid: MomentumGrid | None = None,
    n_points: int = 512,
    check_refinement: bool = False,
    return_eigenfunctions: bool = False,
) -> SpectrumResult:
    """Lowest n_max+1 levels of the reduced equation, from the Hermite-Galerkin ladder or the dense grid blocks.

    The problem is even under p -> -p, so it is solved per parity and the
    lowest levels of both parities are merged.  The first rung
    (``_galerkin``) solves the continuum problem by Rayleigh-Ritz in the
    first K Hermite functions, one rung of K = 64, 128 or 256 at a time
    (the first one's leading blocks give K/2), and answers at the first K
    whose levels agree with K/2's within 1e-10 relative.  That agreement is
    its refinement evidence, and its levels depend on no grid, nor on
    whether the states are asked for.
    Where no K agrees, each parity's dense block of the sinc discretisation
    on the grid (``_parity_block``) is diagonalised, with eigenvectors only
    when ``return_eigenfunctions`` asks for the states; Dirichlet boundary
    values are implicit (phi decays inside the grid).  ``method`` names the
    rung of each parity as "even/odd", e.g. "galerkin64/galerkin64" or
    "dense/dense".
    ``grid`` and ``check_refinement`` act only on the dense rung and on the
    state samples.  Without ``grid``, ``default_grid`` sizes it, capped at
    3.7 m for ``exact`` and when the states are asked for.  The states psi =
    exp(p^2/m^2) phi are real arrays of samples on the grid, exactly even or
    odd, normalised in the weighted measure exp(-2p^2/m^2) dp.  With
    ``check_refinement`` a dense answer is repeated on a grid with doubled
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
    answer = _galerkin(spec, n_max + 1, grid.points[: grid.n - grid.n // 2] if return_eigenfunctions else None)
    if answer is not None:
        levels, count = answer
        method = f"galerkin{count}/galerkin{count}"
    else:
        levels, method = _parity_solve(spec, grid, n_max + 1, return_eigenfunctions), "dense/dense"
        if check_refinement:
            fine = MomentumGrid.symmetric(2 * grid.n, 1.25 * grid.cutoff)
            if spec.truncation == "exact" and 2.0 * fine.cutoff**2 / spec.mass**2 > np.log(_WEIGHT_CAP):
                fine = MomentumGrid.symmetric(2 * grid.n, grid.cutoff)
            ref = np.array([e for e, _, _ in _parity_solve(spec, fine, n_max + 1, False)])
            energies = np.array([e for e, _, _ in levels])
            rel = np.max(np.abs(ref - energies) / np.maximum(np.abs(ref), 1e-300))
            if rel > 1e-4:
                raise RefinementError(f"spectrum changed by {rel:.2e} under grid refinement")

    eigenfunctions = None
    if return_eigenfunctions:
        eigenfunctions = tuple(_mirror_state(spec, grid, phi, sign) for _, sign, phi in levels)
    return SpectrumResult(tuple(e for e, _, _ in levels), method=method, eigenfunctions=eigenfunctions)


def eigenfunction(spec: OscillatorSpec, n: int, grid: MomentumGrid) -> np.ndarray:
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
    return _normalised(spec, grid, envelope * herm)
