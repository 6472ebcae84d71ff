"""Gaussian-smeared (fuzzy) operator algebra in the momentum basis.

The position operator conjugated with the Gaussian factor exp(-p^2/2m^2)
acquires a noncanonical commutator with momentum, a modified uncertainty
bound, smeared angular-momentum eigenvalues, and noncommuting position
components.  The commutator checks apply the operators matrix-free through
the central ``apply_d1`` on smooth probe states, because entrywise matrix
comparisons are meaningless for difference schemes: the discrete commutator
only represents the continuum one on resolved functions.  The uncertainty
report needs no grid: its states are sums of Gaussian wavepackets, and each
quantity it reads is a Gaussian integral in closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

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


class PacketState(NamedTuple):
    """psi(p) = sum_k amps[k] exp(-(p - p0[k])^2/4 widths[k]^2 + i x0[k] p): one entry per Gaussian wavepacket."""

    amps: tuple[complex, ...]
    widths: tuple[float, ...]
    p0: tuple[float, ...]
    x0: tuple[float, ...]


@dataclass(frozen=True)
class UncertaintyReport:
    """Spreads and the Robertson bound for the fuzzy position / momentum pair.

    ``bound`` is half the magnitude of the expected smearing factor.
    """

    dxf: float
    dp: float
    bound: float


@dataclass(frozen=True)
class SpacetimeCommutatorReport:
    """Interior max deviation of the two-component fuzzy-position commutator identity on its probe."""

    residual: float


# ----------------------------------------------------------------------------
# commutator checks

_PROBES = ((2.0, 0.0, 0.0), (2.5, 0.8, 0.0), (3.0, 0.0, 1.0), (2.0, -0.5, 0.5))  # (width, x0, p0) in mass units


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

_PACKETS = 3


def _exponents(state: PacketState) -> list[tuple[complex, float, complex, float]]:
    """Each packet a exp(-(p - p0)^2/4w^2 + i x0 p) as (a, c, d, e) of a exp(c p^2 + d p + e)."""
    return [
        (a, -0.25 / w**2, complex(0.5 * q / w**2, x), -0.25 * q * q / w**2)
        for a, w, q, x in zip(state.amps, state.widths, state.p0, state.x0)
    ]


def _gaussian_moments(a: float, b: complex, c: float) -> tuple[complex, complex, float]:
    """The integral M0 of exp(a p^2 + b p + c) over the real line (a < 0), and the mean and variance of its weight.

    So the integrals of p and p^2 times that exponential are M0 mean and M0 (mean^2 + variance).
    """
    return math.sqrt(math.pi / -a) * cmath.exp(c - b * b / (4.0 * a)), -b / (2.0 * a), -0.5 / a


def random_smooth_state(grid: MomentumGrid, rng: np.random.Generator) -> PacketState:
    """Random superposition of three Gaussian wavepackets, normalised, for the grid's window (for property suites).

    Only ``grid.cutoff`` is read: the widths, centres and positions scale with
    cutoff/8.  Each packet draws its width, centre p0 and position x0 as three
    uniforms, then its complex amplitude as two normals; mapped as
    ``rng.uniform`` maps them, the stream and the draws are those of one
    scalar ``uniform`` or ``normal`` call each.  The amplitudes are divided
    by the norm, summed in closed form over the packet pairs.
    """
    scale = grid.cutoff / 8.0
    packets = []
    for _ in range(_PACKETS):
        u_width, u_p0, u_x0 = rng.random(3).tolist()
        re, im = rng.standard_normal(2).tolist()
        width = scale * (0.4 + (2.0 - 0.4) * u_width)  # rng.uniform(lo, hi) is lo + (hi - lo) u
        p0, x0 = (-2.0 + (2.0 + 2.0) * u_p0) * scale, (-3.0 + (3.0 + 3.0) * u_x0) / scale
        packets.append((complex(re, im), width, p0, x0))
    state = PacketState(*zip(*packets))
    terms = _exponents(state)
    norm2 = sum(
        aj.conjugate() * ak * _gaussian_moments(cj + ck, dj.conjugate() + dk, ej + ek)[0]
        for aj, cj, dj, ej in terms
        for ak, ck, dk, ek in terms
    ).real
    if norm2 == 0:
        raise ValueError("cannot normalise the zero state")
    norm = math.sqrt(norm2)
    return state._replace(amps=tuple(a / norm for a in state.amps))


def uncertainty_report(state: PacketState, s: SmearingParams) -> UncertaintyReport:
    """Spreads of the fuzzy position and momentum, and the Robertson bound, in closed form.

    Requires a normalised state.  Packet k is a_k exp(c_k p^2 + d_k p + e_k),
    so conj(psi_j) psi_k is exp(A p^2 + B p + C) with A = c_j + c_k,
    B = conj(d_j) + d_k and C = e_j + e_k, and each quantity is a sum over
    the nine packet pairs of a polynomial moment of degree at most 2.
    G = exp(-p^2/2m^2) only shifts c by -1/2m^2.  The norm, <p> and <p^2>
    take the exponent A, and <G^2> takes A - 1/m^2.  With phi = G psi and
    X_f = i G D G, X_f psi = i G phi' where phi_k' = (2 c'_k p + d_k) phi_k
    and c' = c - 1/2m^2; so <X_f> = i<phi, phi'> takes A - 1/m^2, and
    ||X_f psi||^2, the integral of G^2 |phi'|^2, takes A - 2/m^2.
    """
    shift = 1.0 / s.mass**2
    terms = _exponents(state)
    norm2 = mean_p = mean_p2 = mean_g2 = phi_dphi = mean_xf2 = 0j
    for aj, cj, dj, ej in terms:
        aj, dj, cj1 = aj.conjugate(), dj.conjugate(), cj - 0.5 * shift
        for ak, ck, dk, ek in terms:
            weight, ck1 = aj * ak, ck - 0.5 * shift
            a, b, c = cj + ck, dj + dk, ej + ek
            m0, mean, var = _gaussian_moments(a, b, c)
            norm2 += weight * m0
            mean_p += weight * m0 * mean
            mean_p2 += weight * m0 * (mean * mean + var)
            m0, mean, var = _gaussian_moments(a - shift, b, c)
            mean_g2 += weight * m0
            phi_dphi += weight * m0 * (2.0 * ck1 * mean + dk)
            m0, mean, var = _gaussian_moments(a - 2.0 * shift, b, c)
            # the moments of conj(2 c'_j p + d_j) (2 c'_k p + d_k)
            poly = 4.0 * cj1 * ck1 * (mean * mean + var) + 2.0 * (cj1 * dk + ck1 * dj) * mean + dj * dk
            mean_xf2 += weight * m0 * poly
    if abs(math.sqrt(norm2.real) - 1.0) > _NORM_TOL:
        raise ContractError(f"state is not normalised (norm = {math.sqrt(norm2.real)!r})")

    dxf = math.sqrt(max(mean_xf2.real - phi_dphi.imag**2, 0.0))  # <X_f> = i<phi, phi'> = -Im<phi, phi'>
    dpu = math.sqrt(max(mean_p2.real - mean_p.real**2, 0.0))
    bound = 0.5 * abs(mean_g2.real)  # G^2 = exp(-p^2/m^2)
    return UncertaintyReport(dxf, dpu, bound)


# ----------------------------------------------------------------------------
# fuzzy angular momentum


def fuzzy_angular_eigenvalue(k: int, p_rho: float, s: SmearingParams) -> float:
    """Eigenvalue of the planar fuzzy rotation generator: exp(-p_rho^2/m^2) * k."""
    if not isinstance(k, (int, np.integer)):
        raise TypeError("quantum number k must be an integer")
    if p_rho < 0:
        raise ValueError("radial momentum must be nonnegative")
    return float(k) * float(np.exp(-(p_rho**2) / s.mass**2))

