"""Oracles for the tests only: dense operators and oscillator blocks, the grid uncertainty report, the spacetime probes.

No command builds these n x n matrices: ``operators`` applies the same
operators through ``apply_d1``, and the tests compare the two.  The
oscillator's levels come from its Hermite-Galerkin ladder in the continuum;
its dense sinc parity blocks on a grid (``parity_solve``), built on the
kinetic term and weight written out here (``kinetic_and_weight``), are the
independent oracle of those levels and states.  No command reads the
spacetime probes either: ``verify_spacetime_commutator`` reports only its
residual, and the tests apply the same sides to the probes' states.
``smooth_state_draws`` is the per-packet loop of scalar draws whose stream
``random_smooth_state`` takes in fewer calls.  ``grid_uncertainty_report``
is the oracle of the closed-form ``uncertainty_report``: it takes a state's
samples on a grid (``packet_samples``) and applies the sinc derivative
there, so it shares none of the Gaussian algebra.
"""

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from fuzzyqm.errors import OverflowGuardError
from fuzzyqm.numerics.grids import MomentumGrid, OperatorMatrix
from fuzzyqm.numerics.linalg import derivative_matrix
from fuzzyqm.operators import PacketState, SmearingParams, UncertaintyReport, _spacetime_sides
from fuzzyqm.oscillator import OscillatorSpec, _hermite_basis, _mirror_state

SNYDER_WIDTH = 0.07  # width, in mass units, of the low-momentum state of the Snyder probe
WEIGHT_CAP = 1e12  # largest max(W)/min(W) on a grid for which the dense rung's W^(-1/2) reduction stays accurate


def smooth_state_draws(grid: MomentumGrid, rng: np.random.Generator) -> list[tuple[complex, float, float, float]]:
    """The unnormalised (amplitude, width, p0, x0) of three Gaussian wavepackets, drawn one scalar at a time."""
    scale = grid.cutoff / 8.0
    packets = []
    for _ in range(3):
        width = scale * rng.uniform(0.4, 2.0)
        p0 = rng.uniform(-2.0, 2.0) * scale
        x0 = rng.uniform(-3.0, 3.0) / scale
        amp = rng.normal() + 1j * rng.normal()
        packets.append((amp, width, p0, x0))
    return packets


def packet_samples(state: PacketState, grid: MomentumGrid) -> np.ndarray:
    """The wavepackets of ``state`` summed at the grid's points, one complex exponential per packet and point."""
    p = grid.points
    return sum(
        a * np.exp(-((p - p0) ** 2) / (4.0 * w**2) + 1j * x0 * p)
        for a, w, p0, x0 in zip(state.amps, state.widths, state.p0, state.x0)
    )


def grid_uncertainty_report(psi: np.ndarray, grid: MomentumGrid, s: SmearingParams) -> UncertaintyReport:
    """The spreads and bound of normalised samples psi, with X_f = i G D G and the sinc D, on the grid.

    D[i, j] = (-1)^(i-j) / ((i-j) h) is a Toeplitz matrix, applied as a
    convolution by zero-padded FFT of length 2n: its spectrum is that of the
    lags 0 ... n-1, a zero, then lags -(n-1) ... -1 wrapped.  With
    G = exp(-p^2/2m^2), <X_f> = -h Im<G psi, D G psi> and
    ||X_f psi||^2 = h sum G^2 |D G psi|^2; <p>, <p^2> and <G^2> are h sum of
    p, p^2 and G^2 times |psi|^2.
    """
    n, p, h = grid.n, grid.points, grid.spacing
    g = s.gaussian(p, half=True)
    rho = np.abs(psi) ** 2
    mean_p, mean_p2, mean_g2 = h * np.sum(p * rho), h * np.sum(p * p * rho), h * np.sum(g * g * rho)
    k = np.arange(1, n)
    lag = (-1.0) ** k / (k * h)  # D[i, j] at i - j = k
    spectrum = np.fft.fft(np.r_[0.0, lag, 0.0, -lag[::-1]])
    dg_psi = np.fft.ifft(np.fft.fft(np.r_[g * psi, np.zeros(n)]) * spectrum)[:n]
    mean_xf = -h * np.vdot(g * psi, dg_psi).imag
    mean_xf2 = h * np.sum(g * g * np.abs(dg_psi) ** 2)
    return UncertaintyReport(
        float(np.sqrt(max(mean_xf2 - mean_xf**2, 0.0))),
        float(np.sqrt(max(mean_p2 - mean_p**2, 0.0))),
        float(0.5 * abs(mean_g2)),
    )


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


def kinetic_and_weight(spec: OscillatorSpec, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kinetic term and the weight W of A phi = E W phi at momenta p, written out apart from the oscillator's.

    W = exp(2p^2/m^2) for ``exact`` and 1 otherwise; the kinetic term is p^2/2m
    times W (``exact``), its expansion to p^4/m^4 (``quartic``) or 1 (``quadratic``).
    """
    m = spec.mass
    if spec.truncation == "quadratic":
        return p**2 / (2.0 * m), np.ones_like(p)
    if spec.truncation == "quartic":
        return p**2 / (2.0 * m) * (1.0 + 2.0 * p**2 / m**2 + 2.0 * p**4 / m**4), np.ones_like(p)
    weight = np.exp(2.0 * p**2 / m**2)
    return p**2 / (2.0 * m) * weight, weight


def galerkin_blocks(spec: OscillatorSpec, scale: float, count: int) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Per parity, the Galerkin matrix A of the K = ``count`` rung at ``scale``, and R^-1 (``exact``) or None.

    Assembled anew on every call, where the oscillator reuses each rung's
    cached nodes, basis and R^-1: a fresh count + 8 node Gauss-Hermite rule,
    stretched by 1/sqrt(beta), the kinetic term integrated at its nodes, the
    pentadiagonal derivative and confinement terms in closed form, and for
    ``exact`` R from the QR of sqrt(W) times the nodal basis.
    """
    m, w = spec.mass, spec.omega
    beta = 1.0 - 2.0 * scale**2 / m**2 if spec.truncation == "exact" else 1.0
    y, gw = np.polynomial.hermite.hermgauss(count + 8)
    x = y / np.sqrt(beta)
    q = _hermite_basis(x, count) * (np.sqrt(gw / np.sqrt(beta)) * np.exp(y**2 / 2.0))[:, None]
    kinetic, weight = kinetic_and_weight(spec, scale * x)
    d2, x2 = m * w**2 / (2.0 * scale**2), m * w**2 * scale**2 / (2.0 * m**4)
    blocks = []
    for parity in (0, 1):
        j, qp = np.arange(parity, count, 2), q[:, parity::2]
        off = (x2 - d2) * np.sqrt((j[:-1] + 1.0) * (j[:-1] + 2.0)) / 2.0
        a = qp.T @ (kinetic[:, None] * qp) + np.diag(off, 1) + np.diag(off, -1)
        a[np.diag_indices(j.size)] += (d2 + x2) * (j + 0.5) - w**2 / (2.0 * m)
        r = None
        if spec.truncation == "exact":
            r = np.linalg.inv(np.linalg.qr(np.sqrt(weight)[:, None] * qp, mode="r"))
        blocks.append((a, r))
    return blocks


def parity_block(c: np.ndarray, diag: np.ndarray, sign: int) -> np.ndarray:
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


def parity_solve(
    spec: OscillatorSpec, grid: MomentumGrid, levels: int, vectors: bool
) -> list[tuple[float, int, np.ndarray | None]]:
    """Lowest ``levels`` (energy, parity, phi on the left half-grid) of both dense parity blocks, by energy.

    The second derivative is the sinc one, the symmetric Toeplitz matrix of
    the lags c[|i - j|].  Each block A (``parity_block``) is solved as
    A phi = E W phi by the symmetric reduction W^(-1/2) A W^(-1/2), for its
    lowest ``levels`` eigenvalues alone (LAPACK's syevr, by way of scipy),
    with eigenvectors only with ``vectors``; without them phi is None.  A weight
    that spans more than WEIGHT_CAP on the grid (or overflows) raises
    OverflowGuardError: the reduced matrix is then too badly scaled for the
    levels to be trusted.  phi is sampled at the first n - n // 2 grid
    points, which for odd n end at the middle point p = 0.
    """
    n, k = grid.n, grid.n // 2
    p = grid.points[: n - k]
    kinetic, weight = kinetic_and_weight(spec, p)  # the odd block's weight is a part of the even block's
    if not np.log(np.max(weight)) - np.log(np.min(weight)) <= np.log(WEIGHT_CAP):  # also catches inf and nan
        raise OverflowGuardError(
            f"weight spans {np.max(weight) / np.min(weight):.2e} > {WEIGHT_CAP:.0e}; reduce the grid cutoff"
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
        b = np.einsum("i,ij,j->ij", s[:dim], parity_block(c, diag, sign), s[:dim])
        lowest = [0, min(levels, dim) - 1]
        if vectors:
            vals, vecs = scipy.linalg.eigh(b, subset_by_index=lowest, driver="evr")
            vecs = s[:dim, None] * vecs  # phi, normalised in the W-weighted inner product
            if n % 2:  # the even block's middle basis vector is e_k, not (e_i + e_(n-1-i))/sqrt(2); an odd phi is 0 there
                vecs = np.vstack([vecs[:k], np.sqrt(2.0) * vecs[k:] if sign > 0 else np.zeros((1, vecs.shape[1]))])
        else:
            vals, vecs = scipy.linalg.eigh(b, eigvals_only=True, subset_by_index=lowest, driver="evr"), None
        found += [(float(e), sign, None if vecs is None else vecs[:, j]) for j, e in enumerate(vals)]
    return sorted(found, key=lambda level: level[0])[:levels]


def dense_spectrum(spec: OscillatorSpec, grid: MomentumGrid, levels: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Lowest ``levels`` of the dense parity blocks on ``grid``, and their states psi on the full grid.

    The states are mirrored and normalised as ``numeric_spectrum`` does it, so the two compare sample by sample.
    """
    found = parity_solve(spec, grid, levels, True)
    return np.array([e for e, _, _ in found]), [_mirror_state(spec, grid, phi, sign) for _, sign, phi in found]
