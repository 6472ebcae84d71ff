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

``numeric_spectrum`` solves the problem per parity, in the continuum, on a
Hermite-Galerkin ladder (``_galerkin``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractError, RefinementError
from .numerics.grids import MomentumGrid

_TRUNCATIONS = ("quadratic", "quartic", "exact")
_LADDER = (32, 64, 128, 256)  # Hermite functions K on the Galerkin rungs (see ``_galerkin``)
_LADDER_RTOL = 1e-10  # largest relative change of a level from K/2 to K functions for the Galerkin rung to answer
MAX_LEVELS = _LADDER[-1] // 4  # levels per solve: the top rung's K/2 must hold every level in each parity
_SCALE_CAP = {"quartic": 0.6, "exact": 0.19}  # s/m at strong coupling; exact's keeps beta = 1 - 2s^2/m^2 >= 0.928


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
        if any(b <= a for a, b in zip(self.energies, self.energies[1:])):
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
    shift = anharmonic_shift(spec, n)
    e = (n + 0.5) * spec.omega - spec.omega**2 / (2.0 * spec.mass) + shift
    flags = shift > 0.1 * (n + 0.5) * spec.omega
    return SpectrumResult(tuple(float(v) for v in e), method="formula", breakdown=tuple(bool(f) for f in flags))


def default_grid(spec: OscillatorSpec, n_max: int, n_points: int = 512) -> MomentumGrid:
    """Grid that samples the states: sized to the reduced eigenfunctions (scale sqrt(m w)), capped at 3.7 m.

    The cap keeps below 1e6 the factor exp(p^2/m^2) that turns phi into psi
    and multiplies phi's roundoff.  It cuts into the reduced states from w/m
    of about 0.12 up (at n_max = 3); no level depends on the grid.
    """
    coverage = (8.0 + np.sqrt(2.0 * n_max + 2.0)) * np.sqrt(spec.mass * spec.omega)
    return MomentumGrid.symmetric(n_points, min(3.7 * spec.mass, coverage))


def _kinetic(spec: OscillatorSpec, p: np.ndarray) -> np.ndarray:
    """Kinetic term p^2/2m times the truncation's expansion of the weight W, at momenta p (a rung's nodes)."""
    m = spec.mass
    kinetic = p**2 / (2.0 * m)
    if spec.truncation == "quartic":
        return kinetic * (1.0 + 2.0 * p**2 / m**2 + 2.0 * p**4 / m**4)
    if spec.truncation == "exact":
        return kinetic * np.exp(2.0 * p**2 / m**2)
    return kinetic


@lru_cache(maxsize=4)
def _gauss_hermite(count: int) -> tuple[np.ndarray, np.ndarray]:
    """(y, w) of the count-node Gauss-Hermite rule, read-only; numpy.polynomial is first imported here, not at start-up."""
    rule = np.polynomial.hermite.hermgauss(count)
    for a in rule:
        a.flags.writeable = False  # every solve with this count shares the cached arrays
    return rule


def _hermite_basis(x: np.ndarray, count: int) -> np.ndarray:
    """Columns h_0 ... h_(count-1)(x), count >= 1: normalised Hermite functions by their three-term recurrence.

    h_j(x) is proportional to exp(-x^2/2) H_j(x), with H_j's sign; at
    x = p / sqrt(m w), h_n is the reduced form exp(-p^2/m^2) psi of the
    closed-form eigenstates (``eigenfunction``).  The functions are built as
    the contiguous rows of a (count, points) array and returned as its
    transposed view, so the recurrence runs along contiguous memory.
    """
    h = np.empty((count, x.size))
    h[0] = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
    h[1:2] = np.sqrt(2.0) * x * h[0]  # no row when count = 1
    j = np.arange(2, count)
    for k, up, down in zip(range(2, count), np.sqrt(2.0 / j).tolist(), np.sqrt((j - 1) / j).tolist()):
        h[k] = up * x * h[k - 1] - down * h[k - 2]
    return h.T


@lru_cache(maxsize=16)
def _rung(count: int, ratio: float) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Nodes x, parity-split quadrature-weighted basis q and R^-1 (or None) of the K = ``count`` rung (``_galerkin``).

    ratio is s/m for ``exact`` and 0 otherwise.  q[parity], of shape
    (K + 8, K/2), holds h_parity, h_(parity+2), ... at x, each node's row
    scaled so that q[parity]^T diag(f(x)) q[parity] integrates f h_j h_k dx;
    R^-1 is (2, K/2, K/2) likewise.  The arrays are read-only.
    """
    beta = 1.0 - 2.0 * ratio**2
    y, gw = _gauss_hermite(count + 8)
    x = y / np.sqrt(beta)
    h = _hermite_basis(x, count) * (np.sqrt(gw / np.sqrt(beta)) * np.exp(y**2 / 2.0))[:, None]
    q = np.stack([h[:, 0::2], h[:, 1::2]])
    inverses = None
    if ratio > 0:
        root_weight = np.sqrt(np.exp(2.0 * (ratio * x) ** 2))
        inverses = np.linalg.inv(np.linalg.qr(root_weight[:, None] * q, mode="r"))
    for a in (x, q) if inverses is None else (x, q, inverses):
        a.flags.writeable = False  # every solve on this rung shares the cached arrays
    return x, q, inverses


def _scale(spec: OscillatorSpec) -> float:
    """The scale s of the Hermite functions h_j(p/s) (see ``_galerkin``)."""
    m, w = spec.mass, spec.omega
    if spec.truncation == "quadratic":
        return np.sqrt(m * w / np.hypot(1.0, w / m))  # hypot keeps (w/m)^2 from overflowing
    root = np.sqrt(m * w)
    weak = m * 2.0 ** (np.round(4.0 * np.log2(root / (1.0 + 10.0 * w / m) / m)) / 4.0)  # nearest quarter octave of m
    return max(weak, min(root / 2.0, _SCALE_CAP[spec.truncation] * m))


def _blocks(spec: OscillatorSpec, scale: float, count: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Galerkin matrices A of the K = ``count`` rung at ``scale``, (2, K/2, K/2) by parity, and R^-1 (``exact``) or None."""
    m, w = spec.mass, spec.omega
    x, q, inverses = _rung(count, scale / m if spec.truncation == "exact" else 0.0)
    kinetic = _kinetic(spec, scale * x)
    d2, x2 = m * w**2 / (2.0 * scale**2), m * w**2 * scale**2 / (2.0 * m**4)  # coefficients of -d^2/dx^2 and x^2
    j = np.arange(count)
    off = (x2 - d2) * np.sqrt((j[:-2] + 1.0) * (j[:-2] + 2.0)) / 2.0  # at (j, j+2) and (j+2, j)
    diagonal = (d2 + x2) * (j + 0.5) - w**2 / (2.0 * m)
    a = q.transpose(0, 2, 1) @ (kinetic[:, None] * q)
    flat, step = a.reshape(2, -1), count // 2 + 1  # views of the new C-contiguous a: each block's diagonals are strided
    flat[:, 1::step] += off.reshape(-1, 2).T  # row p holds parity p's entries, j = p, p + 2, ...
    flat[:, count // 2 :: step] += off.reshape(-1, 2).T
    flat[:, ::step] += diagonal.reshape(-1, 2).T
    return a, inverses


def _lowest(blocks: np.ndarray, size: int, levels: int) -> list[tuple[float, int, int]]:
    """(energy, parity, index in its block) of the lowest ``levels`` eigenvalues of the leading size x size blocks."""
    values = np.linalg.eigvalsh(blocks[:, :size, :size])[:, :levels].tolist()
    return sorted((e, parity, i) for parity, row in enumerate(values) for i, e in enumerate(row))[:levels]


def _galerkin(
    spec: OscillatorSpec, levels: int, points: np.ndarray | None
) -> tuple[list[tuple[float, int, np.ndarray | None]], int]:
    """Lowest ``levels`` (energy, parity, phi at ``points``) of the continuum problem, and the answering K.

    Rayleigh-Ritz of A phi = E W phi in the first K Hermite functions
    h_j(p/s), split by parity (J. P. Boyd, Chebyshev and Fourier Spectral
    Methods, 2nd ed., Dover 2001, ch. 17).

    Scale (``_scale``).  ``quadratic`` is a harmonic oscillator of stiffness
    1 + w^2/m^2, diagonal in the h_j at s = sqrt(m w) (1 + w^2/m^2)^(-1/4).
    Otherwise s = max(sqrt(m w)/(1 + 10 w/m), min(sqrt(m w)/2, c m)), with
    c = 0.6 for ``quartic`` and 0.19 for ``exact``.  The first term holds
    for every w/m <= 0.1 and narrows the basis as the quartic term and the
    weight narrow the states; it is rounded to the nearest m 2^(k/4) in log,
    so that at weak coupling s/m takes values from a fixed set.  The second
    stops it at strong coupling, where it would fall like
    m^(3/2)/(10 sqrt(w)) while the states do not.

    Matrices (``_blocks``).  In x = p/s, -d^2/dx^2 and x^2 both have the
    diagonal (2j+1)/2 and carry -sqrt((j+1)(j+2))/2 and +sqrt((j+1)(j+2))/2
    at (j, j+2), so -(m w^2/2)(d^2/dp^2 - p^2/m^4 + 1/m^2) is pentadiagonal
    in closed form.
    The kinetic term (``_kinetic``) and the weight, W = exp(2p^2/m^2) for
    ``exact`` and 1 otherwise, are polynomials times at most
    exp(2p^2/m^2) = exp((1 - beta) x^2), with
    beta = 1 - 2s^2/m^2 for ``exact`` and 1 otherwise.  Against h_j h_k that
    is exp(-beta x^2) times a polynomial of degree at most 2K + 4, which the
    K + 8 Gauss-Hermite nodes y with weights g, placed at x = y / sqrt(beta),
    integrate exactly once each node's basis row is scaled by
    sqrt(g / sqrt(beta)) exp(y^2/2).  For ``exact`` the problem is reduced by
    the triangular factor R of the weight's Gram matrix G = R^T R, taken
    from the QR of sqrt(W) times each parity's basis columns so as not to
    square G's condition number, which grows like exp(4K s^2/m^2); c keeps
    beta >= 0.928.  Otherwise W = 1, the scaled basis is orthonormal and
    there is no R.  A rung is one stacked (parity, j, k) problem: both
    parities' A come from one batched product q^T diag(kinetic) q of the
    (2, K + 8, K/2) basis, the pentadiagonal terms are added in place on
    strided views of A's diagonals, and ``exact``'s reduction R^-T A R^-1
    is one batched product of (2, K/2, K/2) arrays.

    Cache (``_rung``).  A rung's nodes, its (2, K + 8, K/2) basis and its
    (2, K/2, K/2) R^-1 are built once per K (``quadratic``, ``quartic``) or
    per (K, s/m) (``exact``) and cached read-only, so nearby w share one
    ``exact`` rung.  A solve integrates its kinetic term at the cached nodes
    and adds the pentadiagonal terms.  ``_gauss_hermite`` holds four rules,
    one per K of the ladder (40, 72, 136 and 264 nodes), which every
    truncation and scale shares.  ``_rung`` holds 16: ``quadratic`` and
    ``quartic`` share at most four (s/m = 0), and at weak coupling
    ``exact``'s s/m takes one value per quarter octave, so w/m from 0.005 to
    0.02 builds ten rungs in all (five ``exact`` scales on K = 32, three of
    them also on K = 64, and two at s/m = 0).

    Ladder.  One rung is assembled per K in ``_LADDER`` (32, 64, 128, 256),
    skipping any K whose K/2 holds fewer than ``levels`` functions per
    parity.  The first rung is checked against the K/2 levels of its own
    leading quarter-size blocks, which are the K/2 problem's own (K + 8
    nodes integrate the K/2 products exactly too, and R^-1 is triangular);
    each later rung against the rung before, so it solves only its own K/2
    blocks.  The first K whose levels all agree with K/2's within
    ``_LADDER_RTOL`` relative answers: at weak coupling K = 32 (at n_max = 3
    ``quadratic`` at every w/m, ``quartic`` and ``exact`` up to w/m of about
    0.01).  RefinementError, naming the last K/2-to-K change, means that no
    K did: at n_max = 3, ``exact`` from w/m of about 4 on, while
    ``quadratic`` and ``quartic`` answer at every w/m.  Every level is an
    eigenvalue alone: one eigvalsh call on a rung's stacked blocks (and one
    more on the first rung's quarter-size blocks).  With ``points``, the
    answering rung's stacked blocks are solved again, by one eigh call, for
    their eigenvectors c, and phi = sum_j c_j h_j(p/s) is sampled there;
    without them phi is None.  The levels are the same bits either way.
    """
    scale = _scale(spec)
    previous = None
    for count in _LADDER:
        if count < 4 * levels:
            continue
        blocks, r = _blocks(spec, scale, count)
        if r is not None:
            blocks = r.transpose(0, 2, 1) @ blocks @ r
        found = _lowest(blocks, count // 2, levels)
        energies = [e for e, _, _ in found]
        if previous is None:
            previous = [e for e, _, _ in _lowest(blocks, count // 4, levels)]
        change = [abs(e - p) for e, p in zip(energies, previous)]
        if all(c <= _LADDER_RTOL * abs(e) for c, e in zip(change, energies)):
            if points is None:
                return [(e, 1 - 2 * parity, None) for e, parity, _ in found], count
            h = _hermite_basis(points / scale, count)
            vecs = np.linalg.eigh(blocks)[1]
            if r is not None:
                vecs = r @ vecs
            return [(e, 1 - 2 * parity, h[:, parity::2] @ vecs[parity, :, i]) for e, parity, i in found], count
        previous = energies
    raise RefinementError(
        f"{spec.truncation} levels at w/m = {spec.omega_over_mass:.6g} did not settle: from K = {count // 2} to "
        f"{count} Hermite functions they moved by {max(c / abs(e) for c, e in zip(change, previous)):.2e} relative, "
        f"above {_LADDER_RTOL:.0e}"
    )


def _mirror_state(spec: OscillatorSpec, grid: MomentumGrid, phi: np.ndarray, sign: int) -> np.ndarray:
    """Full-grid eigenfunction psi = exp(p^2/m^2) phi of parity ``sign`` from phi on the left half-grid.

    Every state, numeric or closed form, is built here.  ``phi`` holds the
    first n - n // 2 samples, the middle point p = 0 included for odd n.
    The left half is mirrored exactly, so psi(-p) = sign psi(p) holds
    sample by sample.  psi is normalised in the weighted measure
    exp(-2p^2/m^2) dp, and its sign makes the largest |psi| on p >= 0
    positive: H_n's sign only where the grid holds the outermost lobe.
    """
    k = grid.n // 2
    half = np.exp(grid.points[: phi.size] ** 2 / spec.mass**2) * phi
    psi = np.concatenate([half, sign * half[:k][::-1]])
    weights = grid.spacing * np.exp(-(grid.points**2) / spec.mass**2) ** 2
    norm = float(np.sqrt(np.sum(weights * psi**2)))
    if norm == 0:
        raise ValueError("cannot normalise the zero state")
    psi = psi * (1.0 / norm)
    right = psi[k:]  # p >= 0
    return -psi if right[np.argmax(np.abs(right))] < 0 else psi


def numeric_spectrum(
    spec: OscillatorSpec,
    n_max: int,
    grid: MomentumGrid | None = None,
    n_points: int = 512,
    check_refinement: bool = False,
) -> SpectrumResult:
    """Lowest n_max+1 levels of the reduced equation (``_galerkin``), and with a ``grid`` the states sampled on it.

    ``method`` names the answering rung, e.g. "galerkin64".  No grid enters
    the levels.  The states psi = exp(p^2/m^2) phi are real arrays, exactly
    even or odd, normalised in the weighted measure exp(-2p^2/m^2) dp, with
    the largest |psi| on p >= 0 positive.  More than MAX_LEVELS levels raise
    ValueError; RefinementError means that no rung settled.  ``n_points``
    and ``check_refinement`` are accepted and change nothing.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max + 1 > MAX_LEVELS:
        raise ValueError(f"n_max + 1 = {n_max + 1} levels exceed the {MAX_LEVELS} that the Galerkin ladder solves")
    points = None if grid is None else grid.points[: grid.n - grid.n // 2]
    levels, count = _galerkin(spec, n_max + 1, points)
    eigenfunctions = None if grid is None else tuple(_mirror_state(spec, grid, phi, sign) for _, sign, phi in levels)
    return SpectrumResult(tuple(e for e, _, _ in levels), method=f"galerkin{count}", eigenfunctions=eigenfunctions)


def eigenfunction(spec: OscillatorSpec, n: int, grid: MomentumGrid) -> np.ndarray:
    """Closed-form level-n eigenfunction of the large-confinement regime.

    psi(p) ~ exp(p^2/m^2 (1 - m/2w)) H_n(p / sqrt(m w)), that is
    exp(p^2/m^2) h_n(p / sqrt(m w)), built like every state
    (``_mirror_state``): parity (-1)^n exactly, n interior nodes.  Needs
    w < m/2 so the Gaussian exponent is negative: from w = m/2 on psi grows
    and does not decay in the plain measure dp, though its weighted norm
    stays finite.
    """
    if spec.truncation != "quadratic":
        raise ContractError("the closed-form eigenfunction belongs to the quadratic truncation")
    if not spec.omega < spec.mass / 2.0:
        raise ContractError(
            "omega >= mass/2: the closed-form eigenfunction's envelope exp(p^2/m^2 (1 - m/2w)) grows, "
            "so it does not decay in the plain measure dp"
        )
    if n < 0:
        raise ValueError("n must be nonnegative")
    x = grid.points[: grid.n - grid.n // 2] / np.sqrt(spec.mass * spec.omega)
    return _mirror_state(spec, grid, _hermite_basis(x, n + 1)[:, n], (-1) ** n)
