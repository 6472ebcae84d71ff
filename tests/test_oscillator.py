"""Fuzzy oscillator: closed forms, diagonalisation, eigenfunctions."""

import numpy as np
import pytest
import scipy.linalg

from fuzzyqm import oscillator
from fuzzyqm.errors import ContractError, OverflowGuardError, RefinementError
from fuzzyqm.numerics import MomentumGrid, derivative_matrix
from fuzzyqm.oscillator import (
    OscillatorSpec,
    _kinetic_and_weight,
    anharmonic_shift,
    anharmonic_spectrum_formula,
    default_grid,
    eigenfunction,
    harmonic_spectrum_formula,
    numeric_spectrum,
)
from oracles import inner

W, M = 0.01, 1.0  # omega, mass in MeV


# --- closed forms -------------------------------------------------------------


def test_harmonic_levels_value():
    spec = OscillatorSpec(W, M, "quadratic")
    res = harmonic_spectrum_formula(spec, 0)
    # (1/2) * 0.01 - 0.0001/2 = 0.00495
    assert res.energies[0] == pytest.approx(0.00495, rel=1e-12)


def test_harmonic_point_particle_limit():
    spec = OscillatorSpec(1.0, 1e9, "quadratic")
    res = harmonic_spectrum_formula(spec, 3)
    sho = (np.arange(4) + 0.5) * 1.0
    assert np.allclose(res.energies, sho, rtol=1e-9)


def test_harmonic_spacing_exactly_omega():
    spec = OscillatorSpec(W, M, "quadratic")
    e = np.array(harmonic_spectrum_formula(spec, 5).energies)
    assert np.allclose(np.diff(e), W, rtol=0, atol=1e-15)


def test_harmonic_requires_quadratic_truncation():
    with pytest.raises(ContractError):
        harmonic_spectrum_formula(OscillatorSpec(W, M, "quartic"), 2)


def test_anharmonic_ground_level():
    spec = OscillatorSpec(W, M, "quartic")
    res = anharmonic_spectrum_formula(spec, 0)
    expected = 0.5 * W - W**2 / (2 * M) + 3 * W**2 / (4 * M)
    assert res.energies[0] == pytest.approx(expected, rel=1e-12)


def test_anharmonic_spacing_grows_linearly():
    spec = OscillatorSpec(W, M, "quartic")
    e = np.array(anharmonic_spectrum_formula(spec, 6).energies)
    increments = np.diff(e) - W
    # spacing excess is (3 w^2/m)(n+1), strictly increasing
    n = np.arange(6)
    assert np.allclose(increments, 3 * W**2 / M * (n + 1), rtol=1e-9)
    assert np.all(increments > 0)


def test_anharmonic_point_particle_limit():
    spec = OscillatorSpec(1.0, 1e9, "quartic")
    res = anharmonic_spectrum_formula(spec, 3)
    assert np.allclose(res.energies, (np.arange(4) + 0.5) * 1.0, rtol=1e-8)


def test_anharmonic_breakdown_flag():
    # shift exceeds 10% of the level for large n at omega/mass = 0.05
    spec = OscillatorSpec(0.05, 1.0, "quartic")
    res = anharmonic_spectrum_formula(spec, 6)
    assert res.breakdown is not None
    assert res.breakdown[0] is False
    assert res.breakdown[-1] is True


# --- diagonalisation -----------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spec_rejects_non_finite_omega_and_mass(bad):
    with pytest.raises(ValueError, match="finite and positive"):
        OscillatorSpec(bad, M)
    with pytest.raises(ValueError, match="finite and positive"):
        OscillatorSpec(W, bad)


@pytest.mark.parametrize("ratio", [0.01, 0.3])
def test_default_grid_caps_the_cutoff_where_exp_p2_enters(ratio):
    coverage = (8.0 + np.sqrt(8.0)) * np.sqrt(ratio) * M
    capped = min(3.7 * M, coverage)
    for truncation in ("quadratic", "quartic", "exact"):
        spec = OscillatorSpec(ratio * M, M, truncation)
        assert default_grid(spec, 3).cutoff == pytest.approx(capped if truncation == "exact" else coverage, rel=1e-15)
        assert default_grid(spec, 3, states=True).cutoff == pytest.approx(capped, rel=1e-15)


def test_quadratic_diagonalisation_matches_closed_form():
    spec = OscillatorSpec(W, M, "quadratic")
    diag = np.array(numeric_spectrum(spec, 3).energies)
    formula = np.array(harmonic_spectrum_formula(spec, 3).energies)
    budget = 4.0 * (np.arange(4) + 0.5) * (W / M) ** 3 * M
    assert np.all(np.abs(diag - formula) <= budget)


@pytest.mark.parametrize("n_points", [512, 1024])
@pytest.mark.parametrize("ratio", [0.001, 0.01, 0.1, 0.3, 0.5, 1.0])
def test_quadratic_diagonalisation_matches_its_exact_levels(monkeypatch, ratio, n_points):
    # -(m w^2/2) phi'' + (1 + w^2/m^2) p^2/2m phi - (w^2/2m) phi = E phi is a harmonic oscillator:
    # E_n = (n + 1/2) w sqrt(1 + w^2/m^2) - w^2/2m, of which the closed form is the O(w^2/m) expansion
    spec = OscillatorSpec(ratio * M, M, "quadratic")
    n = np.arange(8)
    exact = (n + 0.5) * spec.omega * np.sqrt(1.0 + ratio**2) - spec.omega**2 / (2.0 * M)
    for rung in ("galerkin64/galerkin64", "dense/dense"):  # both rungs are checked; the grid is the dense rung's
        res = numeric_spectrum(spec, 7, n_points=n_points)
        assert res.method == rung
        assert np.max(np.abs(np.array(res.energies) / exact - 1.0)) <= 1e-10
        _dense_rung(monkeypatch)


def test_quartic_diagonalisation_matches_closed_form():
    spec = OscillatorSpec(W, M, "quartic")
    diag = np.array(numeric_spectrum(spec, 3).energies)
    formula = np.array(anharmonic_spectrum_formula(spec, 3).energies)
    shift = anharmonic_shift(spec, np.arange(4))
    assert np.all(np.abs(diag - formula) <= 0.1 * shift)


def test_point_particle_proxy_reaches_plain_sho():
    omega = 0.01
    spec = OscillatorSpec(omega, 1e4 * omega, "quadratic")
    diag = np.array(numeric_spectrum(spec, 3).energies)
    sho = (np.arange(4) + 0.5) * omega
    assert np.all(np.abs(diag - sho) <= 1e-4 * sho)


def test_exact_weight_spectrum_below_anharmonic_formula():
    # the full weighted problem carries the energy-side corrections the
    # perturbative bookkeeping drops; they lower level n by about
    # 2 (n+1/2)^2 w^2/m
    spec_e = OscillatorSpec(W, M, "exact")
    spec_q = OscillatorSpec(W, M, "quartic")
    exact = np.array(numeric_spectrum(spec_e, 3).energies)
    formula = np.array(anharmonic_spectrum_formula(spec_q, 3).energies)
    n = np.arange(4)
    assert np.all(exact < formula)
    assert np.all(np.abs(exact - formula) <= 3.0 * (n + 0.5) ** 2 * (W / M) ** 2 * M)


def test_refinement_stability_invariant(monkeypatch):
    _dense_rung(monkeypatch)  # the Galerkin levels depend on no grid
    spec = OscillatorSpec(W, M, "exact")
    grid = default_grid(spec, 2)
    e1 = np.array(numeric_spectrum(spec, 2, grid=grid).energies)
    fine = MomentumGrid.symmetric(2 * grid.n, 1.25 * grid.cutoff)
    e2 = np.array(numeric_spectrum(spec, 2, grid=fine).energies)
    assert np.max(np.abs(e1 - e2) / np.abs(e2)) <= 1e-6


def test_refinement_error_on_coarse_grid(monkeypatch):
    _dense_rung(monkeypatch)  # the refinement check acts on the dense rung only
    spec = OscillatorSpec(W, M, "quadratic")
    coarse = MomentumGrid.symmetric(12, 0.05)
    with pytest.raises(RefinementError):
        numeric_spectrum(spec, 2, grid=coarse, check_refinement=True)


def test_weight_overflow_guard(monkeypatch):
    _dense_rung(monkeypatch)  # the grid's weight enters the dense rung only
    spec = OscillatorSpec(W, M, "exact")
    wide = MomentumGrid.symmetric(64, 10.0 * M)  # exp(200) weight
    with pytest.raises(OverflowGuardError, match="cutoff"):
        numeric_spectrum(spec, 2, grid=wide)


def test_dense_rung_refuses_a_weight_near_the_float_maximum(monkeypatch):
    # the span is compared in logs: a weight of 1e301 at the grid's edge is refused, not squared into inf
    _dense_rung(monkeypatch)
    spec = OscillatorSpec(W, M, "exact")
    edge = MomentumGrid.symmetric(65, np.sqrt(np.log(1e301) / 2.0) * M)  # odd: p = 0 is held, where the weight is 1
    with pytest.raises(OverflowGuardError, match=r"spans 1.00e\+301 > 1e\+12; reduce the grid cutoff"):
        numeric_spectrum(spec, 2, grid=edge)


_CAP_CUTOFF = np.sqrt(np.log(1e12) / 2.0) * M  # the exact weight exp(2p^2/m^2) spans 1e12 from p = 0 to this cutoff


def test_dense_rung_accepts_weight_spread_at_cap(monkeypatch):
    # an odd grid holds p = 0, so its weight spans exp(2c^2/m^2): 9.5e11 here, and the dense levels stay accurate
    spec = OscillatorSpec(0.3 * M, M, "exact")
    ladder = numeric_spectrum(spec, 3).energies
    _dense_rung(monkeypatch)
    res = numeric_spectrum(spec, 3, grid=MomentumGrid.symmetric(129, (1.0 - 1e-3) * _CAP_CUTOFF))
    assert res.method == "dense/dense"
    assert np.max(np.abs(np.array(res.energies) / ladder - 1.0)) <= 1e-10


def test_dense_rung_rejects_weight_spread_beyond_cap(monkeypatch):
    _dense_rung(monkeypatch)
    spec = OscillatorSpec(0.3 * M, M, "exact")
    with pytest.raises(OverflowGuardError, match=r"spans 1.06e\+12 > 1e\+12; reduce the grid cutoff"):
        numeric_spectrum(spec, 3, grid=MomentumGrid.symmetric(129, (1.0 + 1e-3) * _CAP_CUTOFF))


@pytest.mark.parametrize("n", [8, 9, 64, 65])
@pytest.mark.parametrize("scheme", ["spectral"])
def test_dense_rung_lags_match_dense_matrix(monkeypatch, n, scheme):
    # both parity blocks are read from the lag vector c of the sinc second derivative: the matrix is c[|i - j|]
    spec = OscillatorSpec(W, M, "quadratic")
    grid = MomentumGrid.symmetric(n, 2.0)
    lags, block = [], oscillator._parity_block
    monkeypatch.setattr(oscillator, "_parity_block", lambda c, diag, sign: lags.append(c) or block(c, diag, sign))
    oscillator._parity_solve(spec, grid, 1, False)
    i = np.arange(n)
    want = -(spec.mass * spec.omega**2 / 2.0) * derivative_matrix(grid, 2, scheme).entries
    assert len(lags) == 2 and all(np.array_equal(c[np.abs(i[:, None] - i)], want) for c in lags)


def test_weighted_orthonormality_of_eigenvectors():
    # the generalized problem pairs reduced vectors through its weight; this
    # is the plain overlap of the momentum-space states (the Hamiltonian is
    # Hermitian in the plain measure)
    spec = OscillatorSpec(W, M, "exact")
    grid = default_grid(spec, 3, states=True)
    psis = numeric_spectrum(spec, 3, grid=grid, return_eigenfunctions=True).eigenfunctions
    norms = [np.sqrt(np.sum(np.abs(p) ** 2) * grid.spacing) for p in psis]
    for i in range(4):
        for j in range(4):
            val = np.sum(np.conj(psis[i]) * psis[j]) * grid.spacing / (norms[i] * norms[j])
            assert abs(val - (1.0 if i == j else 0.0)) <= 1e-8


def test_quartic_eigenfunctions_steeper_than_quadratic():
    # stronger (quartic) confinement squeezes the reduced state: smaller <p^2>
    grid = default_grid(OscillatorSpec(W, M, "quadratic"), 1)
    moments = {}
    for trunc in ("quadratic", "quartic"):
        res = numeric_spectrum(OscillatorSpec(W, M, trunc), 1, grid=grid, return_eigenfunctions=True)
        moments[trunc] = [inner(psi, grid.points**2 * psi, grid, M) for psi in res.eigenfunctions]
    for n in (0, 1):
        assert moments["quartic"][n] < moments["quadratic"][n]


def test_more_levels_than_grid_points_rejected():
    spec = OscillatorSpec(W, M, "quadratic")
    with pytest.raises(ValueError, match="grid points"):
        numeric_spectrum(spec, 12, n_points=8)
    assert len(numeric_spectrum(spec, 7, n_points=8).energies) == 8


def _dense_oracle(spec: OscillatorSpec, grid: MomentumGrid, scheme: str) -> tuple[np.ndarray, list[np.ndarray]]:
    """Levels and eigenfunctions from np.linalg.eigh of the full n x n B = W^(-1/2) A W^(-1/2)."""
    kinetic, weight = _kinetic_and_weight(spec, grid.points)
    confinement = (spec.mass * spec.omega**2 / 2.0) * (grid.points**2 / spec.mass**4 - 1.0 / spec.mass**2)
    a = -(spec.mass * spec.omega**2 / 2.0) * derivative_matrix(grid, 2, scheme).entries + np.diag(confinement + kinetic)
    s = 1.0 / np.sqrt(weight)
    vals, vecs = np.linalg.eigh(s[:, None] * a * s[None, :])
    boost = np.exp(grid.points**2 / spec.mass**2) * s
    states = [boost * vecs[:, i] for i in range(4)]
    return vals[:4], [psi / np.sqrt(inner(psi, psi, grid, spec.mass)) for psi in states]


@pytest.mark.parametrize("n", [64, 65, 1024])
@pytest.mark.parametrize("scheme", ["spectral"])  # the oracle's second derivative, the one numeric_spectrum uses
@pytest.mark.parametrize("truncation", ["quadratic", "quartic", "exact"])
def test_parity_blocks_match_full_eigh(monkeypatch, n, scheme, truncation):
    _dense_rung(monkeypatch)
    spec = OscillatorSpec(W, M, truncation)
    grid = default_grid(spec, 3, n)
    res = numeric_spectrum(spec, 3, grid=grid, return_eigenfunctions=True)
    vals, states = _dense_oracle(spec, grid, scheme)
    assert np.max(np.abs(np.array(res.energies) - vals) / np.abs(vals)) <= 1e-10
    for level, (psi, oracle) in enumerate(zip(res.eigenfunctions, states)):
        assert abs(inner(psi, oracle, grid, spec.mass)) >= 1.0 - 1e-10
        assert np.max(np.abs(psi[::-1] - (-1) ** level * psi)) <= 1e-12 * np.max(np.abs(psi))
        right = psi[n // 2 :]  # p >= 0: the largest |psi| there is positive, as in ``eigenfunction``
        assert right[np.argmax(np.abs(right))] > 0


def _dense_rung(monkeypatch) -> None:
    """Make the Galerkin ladder give up, so numeric_spectrum answers from the dense parity blocks."""
    monkeypatch.setattr(oscillator, "_galerkin", lambda *args: None)


_LADDER_CASES = [
    (ratio, truncation, n)
    for ratio in (0.005, 0.02, 0.1, 0.3)
    for truncation in ("quadratic", "quartic", "exact")
    for n in (64, 65, 2048)  # dense 2048-point blocks with states: 0.3 s a case
    # 64 and 65 points leave exact's grid levels 2.5e-9 (w/m = 0.1) and 1.5e-7 (0.3) off the continuum ones
    if n == 2048 or truncation != "exact" or ratio < 0.1
] + [
    (ratio, truncation, 1024) for ratio in (0.005, 0.02) for truncation in ("quadratic", "quartic", "exact")
] + [
    (ratio, "exact", 1024) for ratio in (0.1, 0.3)  # exact's 1024- and 2048-point grids stand in for 65 and 64
]


@pytest.mark.parametrize(
    "ratio, truncation, n", _LADDER_CASES, ids=[f"{r}-{t}-{n}-spectral" for r, t, n in _LADDER_CASES]
)  # the ids end in the dense rung's second derivative
def test_ladder_matches_dense_rung(monkeypatch, ratio, truncation, n):
    # the Galerkin levels are the continuum's: a grid that resolves the states holds the same levels, and
    # the Galerkin states sampled on it are the dense blocks' eigenvectors
    spec = OscillatorSpec(ratio * M, M, truncation)
    grid = default_grid(spec, 3, n, states=True)
    ours = numeric_spectrum(spec, 3, grid=grid, return_eigenfunctions=True)
    assert ours.method.startswith("galerkin")
    _dense_rung(monkeypatch)
    dense = numeric_spectrum(spec, 3, grid=grid, return_eigenfunctions=True)
    assert dense.method == "dense/dense"
    assert np.max(np.abs(np.array(ours.energies) - dense.energies) / np.abs(dense.energies)) <= 1e-10
    for state, oracle in zip(ours.eigenfunctions, dense.eigenfunctions):
        assert inner(state, oracle, grid, spec.mass) >= 1.0 - 1e-10  # same state, same sign


def test_ladder_disagreement_falls_through_to_dense(monkeypatch):
    # exact at w/m = 0.3 needs K = 256: a ladder that stops at 128 finds no agreement and hands over to the grid
    spec = OscillatorSpec(0.3 * M, M, "exact")
    grid = default_grid(spec, 3, 128)
    monkeypatch.setattr(oscillator, "_LADDER", (32, 64, 128))
    res = numeric_spectrum(spec, 3, grid=grid, return_eigenfunctions=True)
    assert res.method == "dense/dense"
    _dense_rung(monkeypatch)
    dense = numeric_spectrum(spec, 3, grid=grid, return_eigenfunctions=True)
    assert res.energies == dense.energies
    assert all(np.array_equal(x, y) for x, y in zip(res.eigenfunctions, dense.eigenfunctions))


_STATES_CASES = [
    pytest.param("quadratic", 0.5, 7, "galerkin64", id="0.5"),
    pytest.param("quadratic", 1.0, 7, "galerkin64", id="1.0"),
    pytest.param("quartic", 0.1, 7, "galerkin64", id="quartic-0.1"),
    pytest.param("quartic", 0.3, 3, "galerkin256", id="quartic-0.3"),
    pytest.param("exact", 0.05, 7, "galerkin128", id="exact-0.05"),
    pytest.param("exact", 0.36, 3, "galerkin256", id="exact-0.36"),
]


@pytest.mark.parametrize("truncation, ratio, n_max, rung", _STATES_CASES)
def test_levels_do_not_depend_on_the_states(truncation, ratio, n_max, rung):
    # asking for the states caps the default grid at 3.7 m, which cuts into these states; the levels use no grid,
    # and they are eigenvalues alone whether or not the answering rung is solved again for its vectors
    spec = OscillatorSpec(ratio * M, M, truncation)
    levels = numeric_spectrum(spec, n_max)
    assert levels.method == f"{rung}/{rung}"
    with_states = numeric_spectrum(spec, n_max, return_eigenfunctions=True)
    assert (with_states.energies, with_states.method) == (levels.energies, levels.method)
    if truncation == "quadratic":
        n = np.arange(n_max + 1)
        exact = (n + 0.5) * spec.omega * np.sqrt(1.0 + ratio**2) - spec.omega**2 / (2.0 * M)
        assert np.max(np.abs(np.array(levels.energies) / exact - 1.0)) <= 1e-10


def _own_rung_levels(spec: OscillatorSpec, count: int, levels: int) -> np.ndarray:
    """Lowest ``levels`` of the count-function Galerkin problem, assembled on its own count + 8 node rule.

    The derivative enters by parts, as the Gram matrix of h_j' = sqrt(j/2) h_(j-1) - sqrt((j+1)/2) h_(j+1),
    not in its closed pentadiagonal form, and each parity is solved against the weight's Gram matrix by
    scipy's generalized eigensolver, not reduced by a QR factor.
    """
    m, w = spec.mass, spec.omega
    if spec.truncation == "quadratic":
        s = np.sqrt(m * w / np.hypot(1.0, w / m))
    else:
        s = np.sqrt(m * w) / (1.0 + 10.0 * w / m)
    beta = 1.0 - 2.0 * s**2 / m**2 if spec.truncation == "exact" else 1.0
    y, gw = np.polynomial.hermite.hermgauss(count + 8)
    h = oscillator._hermite_basis(y, count + 1) * np.sqrt(gw * np.exp(y**2))[:, None]
    j = np.arange(count)
    deriv = np.sqrt(j / 2.0) * np.hstack([np.zeros((y.size, 1)), h[:, : count - 1]]) - np.sqrt((j + 1) / 2.0) * h[:, 1:]
    h = h[:, :count]
    a = (m * w**2 / (2.0 * s**2)) * deriv.T @ deriv + (m * w**2 * s**2 / (2.0 * m**4)) * h.T @ (y[:, None] ** 2 * h)
    a -= w**2 / (2.0 * m) * h.T @ h
    x = y / np.sqrt(beta)  # the kinetic term and the weight carry exp((1 - beta) x^2)
    stretched = oscillator._hermite_basis(x, count) * np.sqrt(gw * np.exp(y**2) / np.sqrt(beta))[:, None]
    kinetic, weight = _kinetic_and_weight(spec, s * x)
    a += stretched.T @ (kinetic[:, None] * stretched)
    g = stretched.T @ (weight[:, None] * stretched)
    found = []
    for parity in (0, 1):
        block = np.ix_(j[parity::2], j[parity::2])
        found += list(scipy.linalg.eigh(a[block], g[block], eigvals_only=True)[:levels])
    return np.sort(found)[:levels]


@pytest.mark.parametrize("ratio", [0.005, 0.3])
@pytest.mark.parametrize("truncation", ["quadratic", "quartic", "exact"])
@pytest.mark.parametrize("n_max", [3, 20])
def test_leading_block_levels_match_their_own_rung(monkeypatch, ratio, truncation, n_max):
    # the first step reads K/2's levels from the leading block of K's reduced matrices; a K/2 problem assembled
    # on its own, smaller rule holds the same levels
    seen = []
    lowest = oscillator._lowest

    def spy(blocks, size, levels):
        found = lowest(blocks, size, levels)
        seen.append((size, blocks[0][0].shape[0], np.array([e for e, _, _ in found])))
        return found

    monkeypatch.setattr(oscillator, "_lowest", spy)
    numeric_spectrum(OscillatorSpec(ratio * M, M, truncation), n_max)
    [(size, full, ours)] = [step for step in seen if step[0] < step[1]]  # read once, on the first rung
    assert size == full // 2
    oracle = _own_rung_levels(OscillatorSpec(ratio * M, M, truncation), 2 * size, n_max + 1)
    assert np.max(np.abs(ours - oracle) / np.abs(oracle)) <= 1e-12


@pytest.mark.parametrize(
    "truncation, ratio, n_max, method",
    [
        ("quartic", 0.439, 3, "galerkin256/galerkin256"),
        ("exact", 0.362, 0, "galerkin128/galerkin128"),
        ("quartic", 0.005, 20, "galerkin128/galerkin128"),
        ("exact", 0.6, 3, "dense/dense"),
    ],
)
def test_answering_rung_is_pinned(truncation, ratio, n_max, method):
    assert numeric_spectrum(OscillatorSpec(ratio * M, M, truncation), n_max).method == method


@pytest.mark.parametrize("n", [16, 17, 64, 65, 509, 1024])  # tiny, odd and prime n among them
@pytest.mark.parametrize("scheme", ["central", "spectral"])
@pytest.mark.parametrize("truncation", ["quadratic", "quartic", "exact"])
def test_block_product_matches_dense_block(n, scheme, truncation):
    # a parity block is P^T A P for the full matrix A, P the orthonormal even or odd basis of the grid; the block
    # takes any symmetric Toeplitz lag vector, and the 3-point one is a banded second case
    spec = OscillatorSpec(W, M, truncation)
    grid = default_grid(spec, 3, n)
    k = n // 2
    second = -(spec.mass * spec.omega**2 / 2.0) * derivative_matrix(grid, 2, scheme).entries
    kinetic, _ = _kinetic_and_weight(spec, grid.points)
    diag = (spec.mass * spec.omega**2 / 2.0) * (grid.points**2 / spec.mass**4 - 1.0 / spec.mass**2) + kinetic
    x = np.random.default_rng(n).standard_normal((n - k, 8))
    for sign in (1, -1):
        a = oscillator._parity_block(second[0], diag, sign)
        dim = a.shape[0]
        assert dim == (n - k if sign > 0 else k)
        basis = np.zeros((n, dim))
        basis[np.arange(k), np.arange(k)] = np.sqrt(0.5)
        basis[n - 1 - np.arange(k), np.arange(k)] = sign * np.sqrt(0.5)
        if dim > k:
            basis[k, k] = 1.0  # the middle point of an odd grid, its own mirror
        want = basis.T @ (second + np.diag(diag)) @ (basis @ x[:dim])
        assert np.max(np.abs(a @ x[:dim] - want)) <= 1e-13 * np.max(np.abs(a)) * np.max(np.abs(x[:dim]))


@pytest.mark.parametrize("n", [64, 65])
def test_hermite_rows_equal_the_column_recurrence(n):
    x = default_grid(OscillatorSpec(W, M), 3, n).points / np.sqrt(M * W)
    columns = np.empty((x.size, 64))
    columns[:, 0] = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
    columns[:, 1] = np.sqrt(2.0) * x * columns[:, 0]
    for j in range(2, 64):
        columns[:, j] = np.sqrt(2.0 / j) * x * columns[:, j - 1] - np.sqrt((j - 1) / j) * columns[:, j - 2]
    h = oscillator._hermite_basis(x, 64)
    assert np.array_equal(h, columns)
    assert h.T.flags.c_contiguous


def test_cold_and_warm_solves_are_bit_identical():
    spec = OscillatorSpec(W, M, "exact")
    oscillator._gauss_hermite.cache_clear()
    oscillator._rung.cache_clear()
    cold = numeric_spectrum(spec, 3, return_eigenfunctions=True)
    warm = numeric_spectrum(spec, 3, return_eigenfunctions=True)
    rules, rungs = oscillator._gauss_hermite.cache_info(), oscillator._rung.cache_info()
    assert (rules.hits, rules.misses) == (0, 1)  # the 72-node rule of K = 64, built by the cold solve alone
    assert (rungs.hits, rungs.misses) == (1, 1)  # the warm solve reuses the rung's nodes and basis
    assert (warm.energies, warm.method) == (cold.energies, cold.method)
    assert all(np.array_equal(x, y) for x, y in zip(warm.eigenfunctions, cold.eigenfunctions))
    for a in (*oscillator._gauss_hermite(72), *oscillator._rung(64, 1.0)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def _record_eigensolves(monkeypatch) -> dict[str, list[tuple[int, ...]]]:
    shapes = {"eigh": [], "eigvalsh": []}
    for name in shapes:
        original = getattr(np.linalg, name)

        def recorder(b, *args, _name=name, _original=original, **kwargs):
            shapes[_name].append(b.shape)
            return _original(b, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorder)
    return shapes


@pytest.mark.parametrize("truncation", ["quadratic", "quartic", "exact"])
def test_harmonic_regime_solves_no_eigenproblem_above_32(monkeypatch, truncation):
    # one rung of K = 64 Hermite functions, 32 in each parity: the levels of both parities' blocks and of their
    # leading 16 x 16 blocks (K/2 = 32), and the vectors only when the states are asked for; no grid is solved
    shapes = _record_eigensolves(monkeypatch)
    for states, vectors in ((False, []), (True, [(32, 32), (32, 32)])):
        res = numeric_spectrum(
            OscillatorSpec(W, M, truncation), 3, n_points=1024, check_refinement=True, return_eigenfunctions=states
        )
        assert res.method == "galerkin64/galerkin64"
        assert shapes == {"eigh": vectors, "eigvalsh": [(32, 32), (32, 32), (16, 16), (16, 16)]}
        for got in shapes.values():
            got.clear()


@pytest.mark.parametrize("truncation", ["quadratic", "quartic", "exact"])
def test_harmonic_regime_assembles_no_block(monkeypatch, truncation):
    def refuse(*args):
        raise AssertionError("a dense parity block was assembled")

    monkeypatch.setattr(oscillator, "_parity_block", refuse)
    res = numeric_spectrum(
        OscillatorSpec(W, M, truncation), 3, n_points=1024, check_refinement=True, return_eigenfunctions=True
    )
    assert res.method == "galerkin64/galerkin64"


@pytest.mark.parametrize("n", [128, 129])
def test_strong_coupling_falls_through_to_half_size_dense_blocks(monkeypatch, n):
    # at w/m = 0.3 the exact weight spans ~1e12 over the grid; on the dense rung each grid is two half-size blocks
    _dense_rung(monkeypatch)
    shapes = _record_eigensolves(monkeypatch)

    def dense_solves():
        found = {name: list(got) for name, got in shapes.items()}
        for got in shapes.values():
            got.clear()
        return found

    spec = OscillatorSpec(0.3 * M, M, "exact")
    half, rest = (n + 1) // 2, n // 2
    assert numeric_spectrum(spec, 3, n_points=n, check_refinement=True).method == "dense/dense"
    assert dense_solves() == {"eigh": [], "eigvalsh": [(half, half), (rest, rest), (n, n), (n, n)]}
    numeric_spectrum(spec, 3, n_points=n, check_refinement=True, return_eigenfunctions=True)
    assert dense_solves() == {"eigh": [(half, half), (rest, rest)], "eigvalsh": [(n, n), (n, n)]}


# --- closed-form eigenfunctions -------------------------------------------------


def test_eigenfunction_ground_state_nodeless_even():
    spec = OscillatorSpec(W, M, "quadratic")
    grid = default_grid(spec, 1)
    vals = eigenfunction(spec, 0, grid)
    assert np.all(vals > 0) or np.all(vals < 0)
    assert np.max(np.abs(vals - vals[::-1])) <= 1e-10 * np.max(np.abs(vals))


def test_eigenfunction_first_excited_odd_one_node():
    spec = OscillatorSpec(W, M, "quadratic")
    grid = default_grid(spec, 1)
    vals = eigenfunction(spec, 1, grid)
    assert np.max(np.abs(vals + vals[::-1])) <= 1e-10 * np.max(np.abs(vals))
    signs = np.sign(vals[np.abs(vals) > 1e-12 * np.max(np.abs(vals))])
    assert np.count_nonzero(np.diff(signs)) == 1


def test_eigenfunction_normalised_in_weighted_measure():
    spec = OscillatorSpec(W, M, "quadratic")
    grid = default_grid(spec, 2)
    psi = eigenfunction(spec, 2, grid)
    assert np.sqrt(inner(psi, psi, grid, M)) == pytest.approx(1.0, abs=1e-12)


def test_eigenfunction_overlap_with_diagonalisation():
    spec = OscillatorSpec(W, M, "quadratic")
    grid = default_grid(spec, 0)
    exact = eigenfunction(spec, 0, grid)
    res = numeric_spectrum(spec, 0, grid=grid, return_eigenfunctions=True)
    overlap = abs(inner(exact, res.eigenfunctions[0], grid, M))
    assert overlap >= 0.999


def test_eigenfunction_rejects_strong_coupling():
    spec = OscillatorSpec(0.6, 1.0, "quadratic")  # omega >= mass/2
    with pytest.raises(ContractError, match="normalisable"):
        eigenfunction(spec, 0, default_grid(spec, 0))
