"""Gaussian-smeared (fuzzy) operator algebra in the momentum basis.

The position operator conjugated with the Gaussian factor exp(-p^2/2m^2)
acquires a noncanonical commutator with momentum, a modified uncertainty
bound, smeared angular-momentum eigenvalues, and noncommuting position
components.  The commutator checks apply the operators matrix-free through
the central ``apply_d1``, the uncertainty report through its own sinc kernel
spectrum, and all of them act on smooth probe states, because entrywise
matrix comparisons are meaningless for difference schemes: the discrete
commutator only represents the continuum one on resolved functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractError
from .numerics.grids import MomentumGrid
from .numerics.linalg import apply_d1

_NORM_TOL = 1e-8
_MAX_AXIS_POINTS = 128  # largest axis of the spacetime check, whose fields hold n^2 samples


@dataclass(frozen=True)
class SmearingParams:
    """Smearing scale: the Gaussian width in momentum space is set by ``mass``.

    mass -> infinity recovers the point-particle operators.
    """

    mass: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"smearing mass must be finite and positive, got {self.mass!r}")

    def gaussian(self, p: np.ndarray, half: bool = False) -> np.ndarray:
        """exp(-p^2/m^2), or its square root when ``half`` is set."""
        denom = 2.0 * self.mass**2 if half else self.mass**2
        return np.exp(-np.asarray(p) ** 2 / denom)


@dataclass
class GridState:
    """Complex samples over a grid, in the plain measure |psi|^2 dp."""

    samples: np.ndarray
    grid: MomentumGrid

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=complex)
        if s.shape != (self.grid.n,):
            raise ValueError(f"samples shape {s.shape} does not match grid size {self.grid.n}")
        self.samples = s

    def norm(self) -> float:
        return float(np.sqrt(self.grid.spacing * np.vdot(self.samples, self.samples).real))


@dataclass(frozen=True)
class UncertaintyReport:
    """Spreads and the Robertson bound for the fuzzy position / momentum pair.

    ``bound`` is half the magnitude of the expected smearing factor; the
    minimal position uncertainty ``dx0`` is defined only when <X><P> >= 0.
    """

    dxf: float
    dp: float
    bound: float
    mean_x: float
    mean_p: float
    dx0: float | None


@dataclass(frozen=True)
class SpacetimeCommutatorReport:
    """Interior max deviation of the two-component fuzzy-position commutator identity on its probe."""

    residual: float


# ----------------------------------------------------------------------------
# commutator checks

_PROBES = ((2.0, 0.0, 0.0), (2.5, 0.8, 0.0), (3.0, 0.0, 1.0), (2.0, -0.5, 0.5))  # (width, x0, p0) in mass units


_PACKETS = 3
_PHASE_BLOCK = 32  # e^{i x0 p} is the outer product of a factor per block of points and one per offset in a block


@lru_cache(maxsize=64)
def _phase_steps(grid: MomentumGrid) -> np.ndarray:
    """The points p_{32a} that open each block of 32, then the offsets b h inside a block; read-only.

    h is linspace's own step 2 cutoff/(n - 1).  ``spacing``, the difference of
    two rounded points, can be off from it by half an ulp of the cutoff, which
    31 offsets and x0 up to 3/scale would turn into phase errors near 1e-13.
    """
    h = 2.0 * grid.cutoff / (grid.n - 1)
    steps = np.concatenate([grid.points[::_PHASE_BLOCK], h * np.arange(_PHASE_BLOCK)])
    steps.flags.writeable = False
    return steps


def random_smooth_state(grid: MomentumGrid, rng: np.random.Generator) -> GridState:
    """Random superposition of three resolved Gaussian wavepackets (for property suites).

    Each packet draws its width, centre p0 and position x0 as three uniforms,
    then its complex amplitude as two normals; mapped as ``rng.uniform`` maps
    them, the stream and the draws are those of one scalar ``uniform`` or
    ``normal`` call each.  A packet is the real envelope exp(-(p - p0)^2/4w^2)
    times the phase e^{i x0 p}, which is factorised on the uniform grid as
    e^{i x0 p_{32a}} e^{i x0 b h} at point j = 32 a + b, so only
    3 (n/32 + 32) complex exponentials are taken.
    """
    scale = grid.cutoff / 8.0
    packets, amps = [], []
    for _ in range(_PACKETS):
        u_width, u_p0, u_x0 = rng.random(3).tolist()
        re, im = rng.standard_normal(2).tolist()
        width = scale * (0.4 + (2.0 - 0.4) * u_width)  # rng.uniform(lo, hi) is lo + (hi - lo) u
        packets.append(((-3.0 + (3.0 + 3.0) * u_x0) / scale, (-2.0 + (2.0 + 2.0) * u_p0) * scale, -0.25 / width**2))
        amps.append(complex(re, im))
    x0, p0, curvature = np.array(packets).T[:, :, None]

    p = grid.points
    factors = np.exp(1j * (x0 * _phase_steps(grid)))
    phase = (factors[:, :-_PHASE_BLOCK, None] * factors[:, None, -_PHASE_BLOCK:]).reshape(_PACKETS, -1)[:, : grid.n]
    envelope = np.exp((p - p0) ** 2 * curvature)
    state = GridState(np.array(amps) @ (envelope * phase), grid)
    if (norm := state.norm()) == 0:
        raise ValueError("cannot normalise the zero state")
    state.samples /= norm
    return state


def verify_commutator_xf_p(grid: MomentumGrid, s: SmearingParams, scheme: str = "central") -> float:
    """Max interior deviation of [X_f, P] acting on the four probe states from i exp(-p^2/m^2).

    Probe widths are in units of the smearing mass; the residual is the
    worst-case interior amplitude of the defect vector divided by the probe's
    peak amplitude, and it decreases as h^2 under grid refinement.
    ``scheme`` is accepted because the benchmark's workload names it;
    "central" is the only scheme, and any other raises ValueError.
    """
    if scheme != "central":
        raise ValueError(f"unknown scheme {scheme!r}")
    p = grid.points
    g = s.gaussian(p, half=True)
    psi = np.stack(
        [
            np.exp(-((p - p0 * s.mass) ** 2) / (2.0 * (width * s.mass) ** 2) + 1j * (x0 / s.mass) * p)
            for width, x0, p0 in _PROBES
        ],
        axis=1,
    )
    k = len(_PROBES)
    # X_f = i G D G on p psi and psi in one call; [X_f, P] psi = X_f(p psi) - p X_f psi
    stacked = g[:, None] * np.concatenate([p[:, None] * psi, psi], axis=1)
    xf = 1j * g[:, None] * apply_d1(stacked, grid.spacing)
    defect = xf[:, :k] - p[:, None] * xf[:, k:] - 1j * s.gaussian(p)[:, None] * psi
    inner = grid.interior_slice()
    return float(np.max(np.max(np.abs(defect[inner]), axis=0) / np.max(np.abs(psi), axis=0)))


def _spacetime_sides(points: np.ndarray, spacing: float, mass: float):
    """The momentum fields p1, p2 and the real operators lhs, C (``core``) and rhs on the grid ``points`` squared.

    They are the sides of the identity in ``verify_spacetime_commutator``, each
    acting matrix-free on an n x n field.
    """
    p1, p2 = points[:, None], points[None, :]
    cp1, cp2 = (2.0 / mass**2) * p1, (2.0 / mass**2) * p2
    g = np.exp(-(p1**2 + p2**2) / (2.0 * mass**2))
    g2 = g * g
    half_g4 = 0.5 * g2 * g2

    def d(fld: np.ndarray, axis: int) -> np.ndarray:
        return apply_d1(fld, spacing, axis)

    def lhs(fld: np.ndarray) -> np.ndarray:
        gf = g * fld
        return g * (d(g2 * d(gf, 0), 1) - d(g2 * d(gf, 1), 0))

    def core(fld: np.ndarray) -> np.ndarray:
        return cp1 * d(fld, 1) - cp2 * d(fld, 0)

    def rhs(fld: np.ndarray) -> np.ndarray:
        return half_g4 * core(fld) + core(half_g4 * fld)  # core is linear

    return p1, p2, lhs, core, rhs


def verify_spacetime_commutator(axis_grid: MomentumGrid, s: SmearingParams) -> SpacetimeCommutatorReport:
    """Check the closed form of the two-component fuzzy-position commutator on one probe.

    With G = exp(-(p1^2+p2^2)/2m^2) and X_fi = G X_i G, working out the
    derivative terms gives the exact operator identity

        [X_f1, X_f2] = (2i/m^2) exp(-2P^2/m^2) (P2 X1 - P1 X2),

    the rotation generator dressed by the (commuting, isotropic) smearing
    factor: the smeared positions stop commuting, with strength 1/m^2.  With
    X_i = i D_i the factors of i cancel, so both sides are real operators,
    applied in real arithmetic: -G (D1 G^2 D2 - D2 G^2 D1) G on the left and,
    with C = -(2/m^2)(P2 D1 - P1 D2), (G^4 C + C G^4)/2 on the right.  That
    symmetrised factor placement keeps the right side exactly anti-Hermitian
    on the grid.  Both sides act matrix-free on a smooth anisotropic probe psi
    of peak 1 (an isotropic one would be useless: the rotation generator
    annihilates it).  The report's ``residual`` is the max of |(lhs - rhs) psi|
    with round(0.15 n) points trimmed from each edge of each axis.  The tests
    check that both sides are anti-Hermitian (on seeded random states) and
    that a low-momentum state feels the undressed combination C (the Snyder
    limit, on a second grid), applying the same ``_spacetime_sides``.
    """
    n = axis_grid.n
    if n > _MAX_AXIS_POINTS:
        raise ValueError(f"axis size {n} exceeds the cap {_MAX_AXIS_POINTS}")
    cutoff = axis_grid.cutoff
    k = max(1, int(round(0.15 * n)))
    p1, p2, lhs, _, rhs = _spacetime_sides(axis_grid.points, axis_grid.spacing, s.mass)

    w1, w2 = 0.15 * cutoff, 0.22 * cutoff
    c1, c2 = 0.08 * cutoff, -0.06 * cutoff
    psi = np.exp(-((p1 - c1) ** 2) / (2.0 * w1**2) - ((p2 - c2) ** 2) / (2.0 * w2**2))
    psi /= np.max(psi)
    return SpacetimeCommutatorReport(float(np.max(np.abs((lhs(psi) - rhs(psi))[k : n - k, k : n - k]))))


# ----------------------------------------------------------------------------
# uncertainties


@lru_cache(maxsize=64)
def _report_table(grid: MomentumGrid, s: SmearingParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What ``uncertainty_report`` needs of a grid and smearing, all read-only.

    G = exp(-p^2/2m^2); the moment rows h [1, p, p^2, G^2]; the spectrum S
    at length 2n of the sinc d/dp kernel D[i, j] = (-1)^(i-j) / ((i-j) h),
    lags 0 ... n-1, a zero, then lags -(n-1) ... -1 wrapped; and -h/2n Im S,
    the weights that turn a padded FFT's power into <phi, i D phi> h by
    Parseval (S is imaginary), each repeated to weigh the squares of a bin's
    real and imaginary parts as they lie interleaved in memory.
    """
    p, h = grid.points, grid.spacing
    g = s.gaussian(p, half=True)
    moments = h * np.stack([np.ones_like(p), p, p * p, g * g])
    k = np.arange(1, grid.n)
    lag = (-1.0) ** k / (k * h)  # D[i, j] at i - j = k
    spectrum = np.fft.fft(np.r_[0.0, lag, 0.0, -lag[::-1]])
    x_weights = np.repeat((-h / (2 * grid.n)) * spectrum.imag, 2)
    for a in (g, moments, spectrum, x_weights):
        a.flags.writeable = False
    return g, moments, spectrum, x_weights


def uncertainty_report(state: GridState, s: SmearingParams) -> UncertaintyReport:
    """Spreads of the fuzzy position and momentum, the Robertson bound, and dx0.

    Requires a normalised state.
    dx0 = (2/m) sqrt(<X><P>) is reported as None when the product <X><P> is
    negative.  X = i D and X_f = i G D G act matrix-free through the sinc
    D, a convolution applied by zero-padded FFT of length 2n.  One product of
    the moment rows with |psi|^2 gives the norm, <p>, <p^2> and <G^2>; one
    FFT of the rows psi and G psi gives <X> and <X_f> by Parseval; one
    inverse FFT gives D G psi, and with it ||X_f psi||^2 = h sum G^2 |D G psi|^2.
    """
    grid, psi = state.grid, state.samples
    n = grid.n
    g, moments, spectrum, x_weights = _report_table(grid, s)
    norm2, mean_p, mean_p2, mean_g2 = (moments @ (psi.real**2 + psi.imag**2)).tolist()
    if abs(math.sqrt(norm2) - 1.0) > _NORM_TOL:
        raise ContractError(f"state is not normalised (norm = {state.norm()!r})")

    padded = np.zeros((2, 2 * n), complex)
    padded[0, :n] = psi
    np.multiply(g, psi, out=padded[1, :n])
    f = np.fft.fft(padded)
    mean_x, mean_xf = (np.square(f.view(float)) @ x_weights).tolist()
    dg_psi = np.fft.ifft(f[1] * spectrum)[:n]
    mean_xf2 = float(moments[3] @ (dg_psi.real**2 + dg_psi.imag**2))  # <Xf^2> via ||Xf psi||^2

    dxf = math.sqrt(max(mean_xf2 - mean_xf**2, 0.0))
    dpu = math.sqrt(max(mean_p2 - mean_p**2, 0.0))
    bound = 0.5 * abs(mean_g2)  # G^2 = exp(-p^2/m^2)
    prod = mean_x * mean_p
    dx0 = (2.0 / s.mass) * math.sqrt(prod) if prod >= 0 else None
    return UncertaintyReport(dxf, dpu, bound, mean_x, mean_p, dx0)


# ----------------------------------------------------------------------------
# fuzzy angular momentum


def fuzzy_angular_eigenvalue(k: int, p_rho: float, s: SmearingParams) -> float:
    """Eigenvalue of the planar fuzzy rotation generator: exp(-p_rho^2/m^2) * k."""
    if not isinstance(k, (int, np.integer)):
        raise TypeError("quantum number k must be an integer")
    if p_rho < 0:
        raise ValueError("radial momentum must be nonnegative")
    return float(k) * float(np.exp(-(p_rho**2) / s.mass**2))

