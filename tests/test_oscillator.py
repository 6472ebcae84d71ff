"""Fuzzy oscillator: closed forms, diagonalisation, eigenfunctions."""

import contextlib
import math

import numpy as np
import pytest
import scipy.linalg

import oracles
from fuzzyqm import oscillator
from fuzzyqm.errors import ContractError, OverflowGuardError, RefinementError
from fuzzyqm.numerics import MomentumGrid, derivative_matrix
from fuzzyqm.oscillator import (
    MAX_LEVELS,
    OscillatorSpec,
    SpectrumResult,
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


@pytest.mark.parametrize("energies", [(1.0, 1.0), (2.0, 1.0), (0.5, 1.0, 0.75)])
def test_spectrum_result_refuses_levels_that_do_not_increase(energies):
    with pytest.raises(ValueError, match="strictly increasing"):
        SpectrumResult(energies, method="formula")


@pytest.mark.parametrize("energies", [(), (1.0,), (-1.0, 0.5, 2.0)])
def test_spectrum_result_takes_increasing_levels(energies):
    assert SpectrumResult(energies, method="formula").energies == energies


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
    # the grid only samples the states, and exp(p^2/m^2) multiplies their roundoff: every truncation's grid covers
    # the reduced states up to 3.7 m (ratio 0.3 reaches the cap, 0.01 does not), and the states are sampled on it
    coverage = (8.0 + np.sqrt(8.0)) * np.sqrt(ratio) * M
    for truncation in ("quadratic", "quartic", "exact"):
        spec = OscillatorSpec(ratio * M, M, truncation)
        grid = default_grid(spec, 3)
        assert grid.cutoff == pytest.approx(min(3.7 * M, coverage), rel=1e-15)
        states = numeric_spectrum(spec, 3, grid=grid).eigenfunctions
        assert all(psi.shape == grid.points.shape for psi in states)


def test_quadratic_diagonalisation_matches_closed_form():
    spec = OscillatorSpec(W, M, "quadratic")
    diag = np.array(numeric_spectrum(spec, 3).energies)
    formula = np.array(harmonic_spectrum_formula(spec, 3).energies)
    budget = 4.0 * (np.arange(4) + 0.5) * (W / M) ** 3 * M
    assert np.all(np.abs(diag - formula) <= budget)


@pytest.mark.parametrize("n_points", [512, 1024])
@pytest.mark.parametrize("ratio", [0.001, 0.01, 0.1, 0.3, 0.5, 1.0])
def test_quadratic_diagonalisation_matches_its_exact_levels(ratio, n_points):
    # -(m w^2/2) phi'' + (1 + w^2/m^2) p^2/2m phi - (w^2/2m) phi = E phi is a harmonic oscillator:
    # E_n = (n + 1/2) w sqrt(1 + w^2/m^2) - w^2/2m, of which the closed form is the O(w^2/m) expansion
    spec = OscillatorSpec(ratio * M, M, "quadratic")
    n = np.arange(8)
    exact = (n + 0.5) * spec.omega * np.sqrt(1.0 + ratio**2) - spec.omega**2 / (2.0 * M)
    res = numeric_spectrum(spec, 7, n_points=n_points)
    assert res.method == "galerkin32"
    dense = oracles.dense_spectrum(spec, _covering_grid(spec, 7, n_points), 8)[0]
    for levels in (np.array(res.energies), dense):  # the ladder and its dense oracle are both checked
        assert np.max(np.abs(levels / exact - 1.0)) <= 1e-10


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


def _dense_levels(spec: OscillatorSpec, grid: MomentumGrid, levels: int) -> np.ndarray:
    return np.array([e for e, _, _ in oracles.parity_solve(spec, grid, levels, False)])


def test_refinement_stability_invariant():
    # the dense oracle's levels hold under a grid with doubled points and 25% larger cutoff
    spec = OscillatorSpec(W, M, "exact")
    grid = default_grid(spec, 2)
    e1 = _dense_levels(spec, grid, 3)
    e2 = _dense_levels(spec, MomentumGrid.symmetric(2 * grid.n, 1.25 * grid.cutoff), 3)
    assert np.max(np.abs(e1 - e2) / np.abs(e2)) <= 1e-6


def test_weight_overflow_guard():
    spec = OscillatorSpec(W, M, "exact")
    wide = MomentumGrid.symmetric(64, 10.0 * M)  # exp(200) weight
    with pytest.raises(OverflowGuardError, match="cutoff"):
        oracles.parity_solve(spec, wide, 3, False)


def test_dense_rung_refuses_a_weight_near_the_float_maximum():
    # the span is compared in logs: a weight of 1e301 at the grid's edge is refused, not squared into inf
    spec = OscillatorSpec(W, M, "exact")
    edge = MomentumGrid.symmetric(65, np.sqrt(np.log(1e301) / 2.0) * M)  # odd: p = 0 is held, where the weight is 1
    with pytest.raises(OverflowGuardError, match=r"spans 1.00e\+301 > 1e\+12; reduce the grid cutoff"):
        oracles.parity_solve(spec, edge, 3, False)


_CAP_CUTOFF = np.sqrt(np.log(1e12) / 2.0) * M  # the exact weight exp(2p^2/m^2) spans 1e12 from p = 0 to this cutoff


def test_dense_rung_accepts_weight_spread_at_cap():
    # an odd grid holds p = 0, so its weight spans exp(2c^2/m^2): 9.5e11 here, and the dense levels stay accurate
    spec = OscillatorSpec(0.3 * M, M, "exact")
    ladder = numeric_spectrum(spec, 3).energies
    dense = _dense_levels(spec, MomentumGrid.symmetric(129, (1.0 - 1e-3) * _CAP_CUTOFF), 4)
    assert np.max(np.abs(dense / ladder - 1.0)) <= 1e-10


def test_dense_rung_rejects_weight_spread_beyond_cap():
    spec = OscillatorSpec(0.3 * M, M, "exact")
    with pytest.raises(OverflowGuardError, match=r"spans 1.06e\+12 > 1e\+12; reduce the grid cutoff"):
        oracles.parity_solve(spec, MomentumGrid.symmetric(129, (1.0 + 1e-3) * _CAP_CUTOFF), 4, False)


@pytest.mark.parametrize("n", [8, 9, 64, 65])
@pytest.mark.parametrize("scheme", ["spectral"])
def test_dense_rung_lags_match_dense_matrix(monkeypatch, n, scheme):
    # both parity blocks are read from the lag vector c of the sinc second derivative: the matrix is c[|i - j|]
    spec = OscillatorSpec(W, M, "quadratic")
    grid = MomentumGrid.symmetric(n, 2.0)
    lags, block = [], oracles.parity_block
    monkeypatch.setattr(oracles, "parity_block", lambda c, diag, sign: lags.append(c) or block(c, diag, sign))
    oracles.parity_solve(spec, grid, 1, False)
    i = np.arange(n)
    want = -(spec.mass * spec.omega**2 / 2.0) * derivative_matrix(grid, 2, scheme).entries
    assert len(lags) == 2 and all(np.array_equal(c[np.abs(i[:, None] - i)], want) for c in lags)


def test_weighted_orthonormality_of_eigenvectors():
    # the generalized problem pairs reduced vectors through its weight; this
    # is the plain overlap of the momentum-space states (the Hamiltonian is
    # Hermitian in the plain measure)
    spec = OscillatorSpec(W, M, "exact")
    grid = default_grid(spec, 3)
    psis = numeric_spectrum(spec, 3, grid=grid).eigenfunctions
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
        res = numeric_spectrum(OscillatorSpec(W, M, trunc), 1, grid=grid)
        moments[trunc] = [inner(psi, grid.points**2 * psi, grid, M) for psi in res.eigenfunctions]
    for n in (0, 1):
        assert moments["quartic"][n] < moments["quadratic"][n]


def test_more_levels_than_the_ladder_holds_rejected():
    # K = 256's leading blocks hold 64 levels; the grid only samples the states, so it limits no level
    spec = OscillatorSpec(W, M, "quadratic")
    assert MAX_LEVELS == 64
    with pytest.raises(ValueError, match="n_max \\+ 1 = 65 levels exceed the 64"):
        numeric_spectrum(spec, MAX_LEVELS)
    assert numeric_spectrum(spec, MAX_LEVELS - 1).method == "galerkin256"
    assert len(numeric_spectrum(spec, 12, n_points=8).energies) == 13


def _dense_oracle(spec: OscillatorSpec, grid: MomentumGrid, scheme: str) -> tuple[np.ndarray, list[np.ndarray]]:
    """Levels and eigenfunctions from np.linalg.eigh of the full n x n B = W^(-1/2) A W^(-1/2)."""
    kinetic, weight = oracles.kinetic_and_weight(spec, grid.points)
    confinement = (spec.mass * spec.omega**2 / 2.0) * (grid.points**2 / spec.mass**4 - 1.0 / spec.mass**2)
    a = -(spec.mass * spec.omega**2 / 2.0) * derivative_matrix(grid, 2, scheme).entries + np.diag(confinement + kinetic)
    s = 1.0 / np.sqrt(weight)
    vals, vecs = np.linalg.eigh(s[:, None] * a * s[None, :])
    boost = np.exp(grid.points**2 / spec.mass**2) * s
    states = [boost * vecs[:, i] for i in range(4)]
    return vals[:4], [psi / np.sqrt(inner(psi, psi, grid, spec.mass)) for psi in states]


@pytest.mark.parametrize("n", [64, 65, 1024])
@pytest.mark.parametrize("scheme", ["spectral"])  # the full matrix's second derivative, the one of the parity blocks
@pytest.mark.parametrize("truncation", ["quadratic", "quartic", "exact"])
def test_parity_blocks_match_full_eigh(n, scheme, truncation):
    spec = OscillatorSpec(W, M, truncation)
    grid = default_grid(spec, 3, n)
    energies, eigenfunctions = oracles.dense_spectrum(spec, grid, 4)
    vals, states = _dense_oracle(spec, grid, scheme)
    assert np.max(np.abs(energies - vals) / np.abs(vals)) <= 1e-10
    for level, (psi, oracle) in enumerate(zip(eigenfunctions, states)):
        assert abs(inner(psi, oracle, grid, spec.mass)) >= 1.0 - 1e-10
        assert np.max(np.abs(psi[::-1] - (-1) ** level * psi)) <= 1e-12 * np.max(np.abs(psi))
        right = psi[n // 2 :]  # p >= 0: the largest |psi| there is positive, as in ``eigenfunction``
        assert right[np.argmax(np.abs(right))] > 0


def _covering_grid(spec: OscillatorSpec, n_max: int, n: int) -> MomentumGrid:
    """n points covering the lowest n_max + 1 reduced states, uncapped: (8 + sqrt(2 n_max + 2)) sqrt(m w)."""
    return MomentumGrid.symmetric(n, (8.0 + np.sqrt(2.0 * n_max + 2.0)) * np.sqrt(spec.mass * spec.omega))


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
] + [
    # strong coupling, on the 3.7 m-capped grid; quartic at 10 is left out, as the cap cuts into its states there
    (ratio, truncation, 1024) for truncation, ratios in (("quartic", (0.5, 1.0, 3.0)), ("exact", (0.6, 1.0, 3.0)))
    for ratio in ratios
]


@pytest.mark.parametrize(
    "ratio, truncation, n", _LADDER_CASES, ids=[f"{r}-{t}-{n}-spectral" for r, t, n in _LADDER_CASES]
)  # the ids end in the dense oracle's second derivative
def test_ladder_matches_dense_rung(ratio, truncation, n):
    # the Galerkin levels are the continuum's: a grid that resolves the states holds the same levels, and
    # the Galerkin states sampled on it are the dense blocks' eigenvectors
    spec = OscillatorSpec(ratio * M, M, truncation)
    grid = default_grid(spec, 3, n)
    ours = numeric_spectrum(spec, 3, grid=grid)
    assert ours.method.startswith("galerkin")
    energies, states = oracles.dense_spectrum(spec, grid, 4)
    assert np.max(np.abs(np.array(ours.energies) - energies) / np.abs(energies)) <= 1e-10
    for state, oracle in zip(ours.eigenfunctions, states):
        assert inner(state, oracle, grid, spec.mass) >= 1.0 - 1e-10  # same state, same sign


def test_ladder_disagreement_raises_refinement_error(monkeypatch):
    # exact at w/m = 0.6 needs K = 256: a ladder that stops at 128 finds no agreement, and no other rung answers
    monkeypatch.setattr(oscillator, "_LADDER", (64, 128))
    spec = OscillatorSpec(0.6 * M, M, "exact")
    with pytest.raises(RefinementError, match=r"^exact levels at w/m = 0.6 did not settle: from K = 64 to 128 "):
        numeric_spectrum(spec, 3, grid=default_grid(spec, 3))


@pytest.mark.parametrize("ratio", [4.0, 5.0])
def test_exact_beyond_the_ladder_raises(ratio):
    # at n_max = 3 the exact ladder answers through w/m = 3.5; K = 128 and 256 disagree from 4 on
    with pytest.raises(RefinementError, match=rf"^exact levels at w/m = {ratio:g} did not settle: from K = 128 to 256"):
        numeric_spectrum(OscillatorSpec(ratio * M, M, "exact"), 3)


_STATES_CASES = [
    pytest.param("quadratic", 0.5, 7, "galerkin32", id="0.5"),
    pytest.param("quadratic", 1.0, 7, "galerkin32", id="1.0"),
    pytest.param("quartic", 0.1, 7, "galerkin64", id="quartic-0.1"),
    pytest.param("quartic", 0.3, 3, "galerkin64", id="quartic-0.3"),
    pytest.param("exact", 0.05, 7, "galerkin128", id="exact-0.05"),
    pytest.param("exact", 0.36, 3, "galerkin128", id="exact-0.36"),
]


@pytest.mark.parametrize("truncation, ratio, n_max, rung", _STATES_CASES)
def test_levels_do_not_depend_on_the_states(truncation, ratio, n_max, rung):
    # the states' default grid is capped at 3.7 m, which cuts into these states; the levels use no grid,
    # and they are eigenvalues alone whether or not the answering rung is solved again for its vectors
    spec = OscillatorSpec(ratio * M, M, truncation)
    levels = numeric_spectrum(spec, n_max)
    assert levels.method == rung
    with_states = numeric_spectrum(spec, n_max, grid=default_grid(spec, n_max))
    assert (with_states.energies, with_states.method) == (levels.energies, levels.method)
    if truncation == "quadratic":
        n = np.arange(n_max + 1)
        exact = (n + 0.5) * spec.omega * np.sqrt(1.0 + ratio**2) - spec.omega**2 / (2.0 * M)
        assert np.max(np.abs(np.array(levels.energies) / exact - 1.0)) <= 1e-10


@pytest.mark.parametrize("truncation", ["quadratic", "quartic", "exact"])
def test_states_come_with_a_grid_and_the_other_options_change_no_bit(truncation):
    # states exactly when a grid is given; n_points and check_refinement move no level and no state sample
    spec = OscillatorSpec(W, M, truncation)
    grid = default_grid(spec, 3, 256)
    bare = numeric_spectrum(spec, 3)
    with_states = numeric_spectrum(spec, 3, grid=grid)
    assert bare.eigenfunctions is None
    assert [psi.shape for psi in with_states.eigenfunctions] == [grid.points.shape] * 4
    assert (with_states.energies, with_states.method) == (bare.energies, bare.method)
    for options in ({"n_points": 8}, {"check_refinement": True}, {"n_points": 2048, "check_refinement": True}):
        res = numeric_spectrum(spec, 3, **options)
        assert (res.energies, res.method, res.eigenfunctions) == (bare.energies, bare.method, None)
        res = numeric_spectrum(spec, 3, grid=grid, **options)
        assert res.energies == bare.energies
        assert all(np.array_equal(x, y) for x, y in zip(res.eigenfunctions, with_states.eigenfunctions))


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
        cap = {"quartic": 0.6, "exact": 0.19}[spec.truncation] * m
        weak = np.sqrt(m * w) / (1.0 + 10.0 * w / m)
        weak = m * 2.0 ** (np.round(4.0 * np.log2(weak / m)) / 4.0)  # to the nearest quarter octave of m
        s = max(weak, min(np.sqrt(m * w) / 2.0, cap))
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
    kinetic, weight = oracles.kinetic_and_weight(spec, s * x)
    a += stretched.T @ (kinetic[:, None] * stretched)
    g = stretched.T @ (weight[:, None] * stretched)
    found = []
    for parity in (0, 1):
        block = np.ix_(j[parity::2], j[parity::2])
        found += list(scipy.linalg.eigh(a[block], g[block], eigvals_only=True)[:levels])
    return np.sort(found)[:levels]


@pytest.mark.parametrize("ratio", [0.005, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("truncation", ["quadratic", "quartic", "exact"])
@pytest.mark.parametrize("n_max", [3, 20])
def test_leading_block_levels_match_their_own_rung(monkeypatch, ratio, truncation, n_max):
    # the first step reads K/2's levels from the leading block of K's reduced matrices; a K/2 problem assembled
    # on its own, smaller rule holds the same levels.  That holds also where the ladder goes on to find no
    # agreement, as for exact from w/m = 0.3 with 21 levels
    seen = []
    lowest = oscillator._lowest

    def spy(blocks, size, levels):
        found = lowest(blocks, size, levels)
        seen.append((size, blocks.shape[1], np.array([e for e, _, _ in found])))
        return found

    monkeypatch.setattr(oscillator, "_lowest", spy)
    with contextlib.suppress(RefinementError):
        numeric_spectrum(OscillatorSpec(ratio * M, M, truncation), n_max)
    [(size, full, ours)] = [step for step in seen if step[0] < step[1]]  # read once, on the first rung
    assert size == full // 2
    oracle = _own_rung_levels(OscillatorSpec(ratio * M, M, truncation), 2 * size, n_max + 1)
    assert np.max(np.abs(ours - oracle) / np.abs(oracle)) <= 1e-12


@pytest.mark.parametrize(
    "truncation, ratio, n_max, method",
    [
        ("quartic", 0.439, 3, "galerkin64"),
        ("exact", 0.362, 0, "galerkin128"),
        ("quartic", 0.005, 20, "galerkin128"),
        ("exact", 0.6, 3, "galerkin256"),
    ],
)
def test_answering_rung_is_pinned(truncation, ratio, n_max, method):
    assert numeric_spectrum(OscillatorSpec(ratio * M, M, truncation), n_max).method == method


@pytest.mark.parametrize("ratio", np.geomspace(0.005, 0.02, 9).tolist())
@pytest.mark.parametrize("truncation", ["quadratic", "quartic", "exact"])
def test_ladder_opening_at_32_matches_the_ladder_from_64(monkeypatch, truncation, ratio):
    # K = 32 answers only where its levels agree with its own K = 16 blocks; where it does, they are those of the
    # ladder that opens at K = 64 to 1e-13, and elsewhere the solve goes on to K = 64 and up
    spec = OscillatorSpec(ratio * M, M, truncation)
    opening = numeric_spectrum(spec, 3)
    monkeypatch.setattr(oscillator, "_LADDER", (64, 128, 256))
    later = numeric_spectrum(spec, 3)
    assert later.method != "galerkin32"
    assert np.max(np.abs(np.array(opening.energies) / np.array(later.energies) - 1.0)) <= 1e-13


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
    kinetic, _ = oracles.kinetic_and_weight(spec, grid.points)
    diag = (spec.mass * spec.omega**2 / 2.0) * (grid.points**2 / spec.mass**4 - 1.0 / spec.mass**2) + kinetic
    x = np.random.default_rng(n).standard_normal((n - k, 8))
    for sign in (1, -1):
        a = oracles.parity_block(second[0], diag, sign)
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


def test_hermite_basis_matches_numpy_hermval():
    # an independent evaluation: h_j(x) = exp(-x^2/2) H_j(x) / sqrt(2^j j! sqrt(pi)) with H_j summed by hermval
    x = np.linspace(-10.0, 10.0, 801)
    h = oscillator._hermite_basis(x, 64)
    for j in range(64):
        norm = np.sqrt(2.0**j * math.factorial(j) * np.sqrt(np.pi))
        want = np.exp(-(x**2) / 2.0) * np.polynomial.hermite.hermval(x, np.eye(64)[j]) / norm
        assert np.max(np.abs(h[:, j] - want)) <= 1e-13 * np.max(np.abs(want))


def test_hermite_basis_of_one_function_is_h0():
    x = np.linspace(-3.0, 3.0, 7)
    h = oscillator._hermite_basis(x, 1)
    assert h.shape == (7, 1)
    assert np.array_equal(h[:, 0], np.pi**-0.25 * np.exp(-(x**2) / 2.0))


def test_cold_and_warm_solves_are_bit_identical():
    spec = OscillatorSpec(W, M, "exact")
    oscillator._gauss_hermite.cache_clear()
    oscillator._rung.cache_clear()
    cold = numeric_spectrum(spec, 3, grid=default_grid(spec, 3))
    warm = numeric_spectrum(spec, 3, grid=default_grid(spec, 3))
    rules, rungs = oscillator._gauss_hermite.cache_info(), oscillator._rung.cache_info()
    assert (rules.hits, rules.misses) == (0, 1)  # the 40-node rule of K = 32, built by the cold solve alone
    assert (rungs.hits, rungs.misses) == (1, 1)  # the warm solve reuses the cold one's nodes, basis and R^-1
    assert (warm.energies, warm.method) == (cold.energies, cold.method)
    assert all(np.array_equal(x, y) for x, y in zip(warm.eigenfunctions, cold.eigenfunctions))


def test_exact_solves_in_one_quarter_octave_share_their_rung():
    # the weak-coupling scale sqrt(m w)/(1 + 10 w/m) is rounded to m 2^(k/4): 0.0909 m and 0.0927 m both round to
    # 2^(-7/2) m, so both exact solves open on one K = 32 rung, built once; the second goes on to K = 64
    oscillator._rung.cache_clear()
    for ratio, method in ((0.01, "galerkin32"), (0.0105, "galerkin64")):
        assert numeric_spectrum(OscillatorSpec(ratio * M, M, "exact"), 3).method == method
    assert oscillator._scale(OscillatorSpec(0.0105 * M, M, "exact")) == 2.0**-3.5 * M
    rungs = oscillator._rung.cache_info()
    assert (rungs.hits, rungs.misses, rungs.currsize) == (1, 2, 2)


@pytest.mark.parametrize("truncation", ["quadratic", "quartic", "exact"])
def test_cached_arrays_are_read_only(truncation):
    # every solve on a rung shares its cached rule, nodes, basis and R^-1; none of them can be written through
    spec = OscillatorSpec(W, M, truncation)
    numeric_spectrum(spec, 3)
    misses = oscillator._rung.cache_info().misses
    x, q, inverses = oscillator._rung(32, oscillator._scale(spec) / M if truncation == "exact" else 0.0)
    assert oscillator._rung.cache_info().misses == misses  # the solve's own entry
    assert q.shape == (2, 40, 16)
    assert (inverses is None) == (truncation != "exact")
    for a in (*oscillator._gauss_hermite(40), x, q, *([] if inverses is None else [inverses])):
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0.0


@pytest.mark.parametrize("count", [32, 64, 256])
@pytest.mark.parametrize("ratio", [0.005, 0.02, 0.3, 3.0])
@pytest.mark.parametrize("truncation", ["quadratic", "quartic", "exact"])
def test_cached_rung_assembles_as_a_direct_assembly(truncation, ratio, count):
    # a solve integrates on its rung's cached nodes and basis and reuses its R^-1; the oracle builds the rule, the
    # basis and the QR anew, one parity at a time.  A is compared before exact's reduction R^-T A R^-1, which
    # magnifies A's last bits by up to the Gram matrix's condition number at K = 256
    spec = OscillatorSpec(ratio * M, M, truncation)
    scale = oscillator._scale(spec)
    a, r = oscillator._blocks(spec, scale, count)
    assert a.shape == (2, count // 2, count // 2)
    assert (r is None) == (truncation != "exact")
    if r is not None:
        assert r.shape == a.shape
    for parity, (want, want_r) in enumerate(oracles.galerkin_blocks(spec, scale, count)):
        assert np.max(np.abs(a[parity] - want)) <= 1e-13 * np.max(np.abs(want))
        assert (want_r is None) == (r is None)
        if r is not None:
            assert np.max(np.abs(r[parity] - want_r)) <= 1e-13 * np.max(np.abs(want_r))


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
    # one rung of K = 32 Hermite functions, 16 in each parity, solved as one stacked (parity, j, k) array: one call
    # for the levels of both parities' blocks, one for those of their leading 8 x 8 blocks (K/2 = 16), and one for
    # the vectors only when the states are asked for; no grid is solved
    shapes = _record_eigensolves(monkeypatch)
    spec = OscillatorSpec(W, M, truncation)
    for states, vectors in ((False, []), (True, [(2, 16, 16)])):
        grid = default_grid(spec, 3, 1024) if states else None
        res = numeric_spectrum(spec, 3, grid=grid, n_points=1024, check_refinement=True)
        assert res.method == "galerkin32"
        assert shapes == {"eigh": vectors, "eigvalsh": [(2, 16, 16), (2, 8, 8)]}
        for got in shapes.values():
            got.clear()


# --- closed-form eigenfunctions -------------------------------------------------


def test_eigenfunction_ground_state_nodeless_even():
    spec = OscillatorSpec(W, M, "quadratic")
    grid = default_grid(spec, 1)
    vals = eigenfunction(spec, 0, grid)
    assert np.all(vals > 0) or np.all(vals < 0)
    assert np.array_equal(vals, vals[::-1])


def test_eigenfunction_first_excited_odd_one_node():
    spec = OscillatorSpec(W, M, "quadratic")
    grid = default_grid(spec, 1)
    vals = eigenfunction(spec, 1, grid)
    assert np.array_equal(vals, -vals[::-1])
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
    res = numeric_spectrum(spec, 0, grid=grid)
    overlap = abs(inner(exact, res.eigenfunctions[0], grid, M))
    assert overlap >= 0.999


@pytest.mark.parametrize("n", [150, 200])
def test_eigenfunction_high_levels_are_finite_normalised_and_exactly_mirrored(n):
    spec = OscillatorSpec(W, M, "quadratic")
    grid = default_grid(spec, n)
    psi = eigenfunction(spec, n, grid)
    assert np.all(np.isfinite(psi))
    assert np.sqrt(inner(psi, psi, grid, M)) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(psi, (-1) ** n * psi[::-1])


@pytest.mark.parametrize("n", [80, 91])
def test_eigenfunction_on_a_capped_grid_follows_the_numeric_sign_rule(n):
    # the 3.7 m cap cuts the outermost lobe off this grid, so the rule, not H_n's leading sign, fixes the sign
    spec = OscillatorSpec(0.1, M, "quadratic")
    grid = default_grid(spec, n)
    assert grid.points[-1] == 3.7 * M
    right = eigenfunction(spec, n, grid)[grid.n // 2 :]  # p >= 0
    assert right[np.argmax(np.abs(right))] > 0


def test_eigenfunction_matches_the_numpy_hermite_closed_form():
    # exp(p^2/m^2 (1 - m/2w)) H_n(p / sqrt(m w)) by numpy's Hermite series on grids the cap leaves whole, where the
    # sign rule is H_n's own sign
    spec = OscillatorSpec(W, M, "quadratic")
    for n in range(61):
        grid = default_grid(spec, n)
        p = grid.points
        want = np.exp(p**2 / M**2 * (1.0 - M / (2.0 * W))) * np.polynomial.hermite.hermval(
            p / np.sqrt(M * W), np.eye(n + 1)[n]
        )
        want /= np.sqrt(inner(want, want, grid, M))
        assert np.max(np.abs(eigenfunction(spec, n, grid) - want)) <= 1e-13 * np.max(np.abs(want))


def test_eigenfunction_rejects_strong_coupling():
    spec = OscillatorSpec(0.6, 1.0, "quadratic")  # omega >= mass/2
    with pytest.raises(ContractError, match="plain measure dp"):
        eigenfunction(spec, 0, default_grid(spec, 0))


@pytest.mark.parametrize("omega", [0.5, 0.6, 3.0])
def test_eigenfunction_refusal_names_the_plain_measure(omega):
    # from w = m/2 on the envelope exp(p^2/m^2 (1 - m/2w)) grows: psi does not decay in dp, while its weighted norm
    # sqrt(m w) int exp(-x^2) H_n(x)^2 dx stays finite, so the refusal names dp and not normalisability
    spec = OscillatorSpec(omega * M, M, "quadratic")
    with pytest.raises(ContractError) as refusal:
        eigenfunction(spec, 1, default_grid(spec, 1))
    assert str(refusal.value) == (
        "omega >= mass/2: the closed-form eigenfunction's envelope exp(p^2/m^2 (1 - m/2w)) grows, "
        "so it does not decay in the plain measure dp"
    )
