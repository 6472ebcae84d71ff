"""Fuzzy oscillator: closed forms, diagonalisation, eigenfunctions."""

import numpy as np
import pytest

from fuzzyqm import oscillator
from fuzzyqm.errors import ContractError, OverflowGuardError, RefinementError
from fuzzyqm.numerics import MomentumGrid, derivative_matrix
from fuzzyqm.operators import GridState, SmearingParams
from fuzzyqm.oscillator import (
    OscillatorSpec,
    _diagonal_and_weight,
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
    for rung in ("ritz32/ritz32", "dense/dense"):  # both rungs are checked
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


def test_refinement_stability_invariant():
    spec = OscillatorSpec(W, M, "exact")
    grid = default_grid(spec, 2)
    e1 = np.array(numeric_spectrum(spec, 2, grid=grid).energies)
    fine = MomentumGrid.symmetric(2 * grid.n, 1.25 * grid.cutoff)
    e2 = np.array(numeric_spectrum(spec, 2, grid=fine).energies)
    assert np.max(np.abs(e1 - e2) / np.abs(e2)) <= 1e-6


def test_refinement_error_on_coarse_grid():
    spec = OscillatorSpec(W, M, "quadratic")
    coarse = MomentumGrid.symmetric(12, 0.05)
    with pytest.raises(RefinementError):
        numeric_spectrum(spec, 2, grid=coarse, check_refinement=True)


def test_weight_overflow_guard():
    spec = OscillatorSpec(W, M, "exact")
    wide = MomentumGrid.symmetric(64, 10.0 * M)  # exp(200) weight
    with pytest.raises(OverflowGuardError, match="cutoff"):
        numeric_spectrum(spec, 2, grid=wide)


def test_weighted_orthonormality_of_eigenvectors():
    # the generalized problem pairs reduced vectors through its weight; this
    # is the plain overlap of the momentum-space states (the Hamiltonian is
    # Hermitian in the plain measure)
    spec = OscillatorSpec(W, M, "exact")
    res = numeric_spectrum(spec, 3, return_eigenfunctions=True)
    grid = res.eigenfunctions[0].grid
    psis = [st.samples for st in res.eigenfunctions]
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
        moments[trunc] = [
            float(np.real(np.sum(st.measure_weights() * grid.points**2 * np.abs(st.samples) ** 2)))
            for st in res.eigenfunctions
        ]
    for n in (0, 1):
        assert moments["quartic"][n] < moments["quadratic"][n]


def test_more_levels_than_grid_points_rejected():
    spec = OscillatorSpec(W, M, "quadratic")
    with pytest.raises(ValueError, match="grid points"):
        numeric_spectrum(spec, 12, n_points=8)
    assert len(numeric_spectrum(spec, 7, n_points=8).energies) == 8


def _dense_oracle(spec: OscillatorSpec, grid: MomentumGrid, scheme: str) -> tuple[np.ndarray, list[GridState]]:
    """Levels and eigenfunctions from np.linalg.eigh of the full n x n B = W^(-1/2) A W^(-1/2)."""
    diag, weight = _diagonal_and_weight(spec, grid.points)
    a = -(spec.mass * spec.omega**2 / 2.0) * derivative_matrix(grid, 2, scheme).entries + np.diag(diag)
    s = 1.0 / np.sqrt(weight)
    vals, vecs = np.linalg.eigh(s[:, None] * a * s[None, :])
    boost = np.exp(grid.points**2 / spec.mass**2) * s
    states = [
        GridState(boost * vecs[:, i], grid, SmearingParams(spec.mass)).normalize() for i in range(4)
    ]
    return vals[:4], states


@pytest.mark.parametrize("n", [64, 65, 1024])
@pytest.mark.parametrize("scheme", ["spectral"])  # the oracle's second derivative, the one numeric_spectrum uses
@pytest.mark.parametrize("truncation", ["quadratic", "quartic", "exact"])
def test_parity_blocks_match_full_eigh(n, scheme, truncation):
    spec = OscillatorSpec(W, M, truncation)
    grid = default_grid(spec, 3, n)
    res = numeric_spectrum(spec, 3, grid=grid, return_eigenfunctions=True)
    vals, states = _dense_oracle(spec, grid, scheme)
    assert np.max(np.abs(np.array(res.energies) - vals) / np.abs(vals)) <= 1e-10
    for level, (ours, oracle) in enumerate(zip(res.eigenfunctions, states)):
        assert abs(inner(ours, oracle)) >= 1.0 - 1e-10
        psi = np.real(ours.samples)
        assert np.max(np.abs(psi[::-1] - (-1) ** level * psi)) <= 1e-12 * np.max(np.abs(psi))
        right = psi[n // 2 :]  # p >= 0: the largest |psi| there is positive, as in ``eigenfunction``
        assert right[np.argmax(np.abs(right))] > 0


def _dense_rung(monkeypatch) -> None:
    """Make every parity block skip the Ritz rungs, so numeric_spectrum answers from the dense blocks."""
    monkeypatch.setattr(oscillator, "_ritz", lambda *args: None)


_LADDER_CASES = [
    (ratio, truncation, n)
    for ratio in (0.005, 0.02, 0.1, 0.3)
    for truncation in ("quadratic", "quartic", "exact")
    for n in (64, 65)
] + [
    (ratio, truncation, 1024) for ratio in (0.005, 0.02) for truncation in ("quadratic", "quartic", "exact")
] + [
    (ratio, "exact", 2048) for ratio in (0.005, 0.02)  # the full weight; 0.4 s a case
]


@pytest.mark.parametrize(
    "ratio, truncation, n", _LADDER_CASES, ids=[f"{r}-{t}-{n}-spectral" for r, t, n in _LADDER_CASES]
)  # the ids end in the second derivative the solve uses
def test_ladder_matches_dense_rung(monkeypatch, ratio, truncation, n):
    spec = OscillatorSpec(ratio * M, M, truncation)
    grid = default_grid(spec, 3, n, states=True)
    ours = numeric_spectrum(spec, 3, grid=grid, return_eigenfunctions=True)
    _dense_rung(monkeypatch)
    dense = numeric_spectrum(spec, 3, grid=grid, return_eigenfunctions=True)
    assert dense.method == "dense/dense"
    assert np.max(np.abs(np.array(ours.energies) - dense.energies) / np.abs(dense.energies)) <= 1e-10
    for state, oracle in zip(ours.eigenfunctions, dense.eigenfunctions):
        assert np.real(inner(state, oracle)) >= 1.0 - 1e-10  # same state, same sign


def test_ritz_rejects_a_basis_that_misses_the_ground_state(monkeypatch):
    # h_2, h_4, ... and h_3, h_5, ...: the residual test must turn both blocks away
    spec = OscillatorSpec(W, M, "exact")
    grid = default_grid(spec, 3, 512)
    hermite = oscillator._hermite_basis
    monkeypatch.setattr(oscillator, "_hermite_basis", lambda spec, p, count: hermite(spec, p, count + 2)[:, 2:])
    res = numeric_spectrum(spec, 3, grid=grid, return_eigenfunctions=True)
    assert res.method == "dense/dense"
    _dense_rung(monkeypatch)
    dense = numeric_spectrum(spec, 3, grid=grid, return_eigenfunctions=True)
    assert res.energies == dense.energies
    assert all(np.array_equal(x.samples, y.samples) for x, y in zip(res.eigenfunctions, dense.eigenfunctions))


@pytest.mark.parametrize("n", [16, 17, 64, 65, 509, 1024])  # tiny, odd and prime n among them
@pytest.mark.parametrize("scheme", ["central", "spectral"])
@pytest.mark.parametrize("truncation", ["quadratic", "quartic", "exact"])
def test_block_product_matches_dense_block(n, scheme, truncation):
    # both products take any symmetric Toeplitz lag vector; the 3-point one is a banded second case
    spec = OscillatorSpec(W, M, truncation)
    grid = default_grid(spec, 3, n)
    k = n // 2
    c = -(spec.mass * spec.omega**2 / 2.0) * derivative_matrix(grid, 2, scheme).entries[0]
    diag, _ = _diagonal_and_weight(spec, grid.points[: n - k])
    x = np.random.default_rng(n).standard_normal((n - k, 8))
    product = oscillator._block_product(c, x) + diag[:, None] * x
    for sign in (1, -1):
        a = oscillator._parity_block(c, diag, sign)
        dim, cols = a.shape[0], slice((1 - sign) // 2, None, 2)
        assert dim == (n - k if sign > 0 else k)
        err = np.max(np.abs(product[:dim, cols] - a @ x[:dim, cols]))
        assert err <= 1e-13 * np.max(np.abs(a)) * np.max(np.abs(x[:dim, cols]))


@pytest.mark.parametrize("n", [64, 65])
def test_hermite_rows_equal_the_column_recurrence(n):
    spec = OscillatorSpec(W, M)
    p = default_grid(spec, 3, n).points
    x = p / np.sqrt(spec.mass * spec.omega)
    columns = np.empty((x.size, 64))
    columns[:, 0] = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
    columns[:, 1] = np.sqrt(2.0) * x * columns[:, 0]
    for j in range(2, 64):
        columns[:, j] = np.sqrt(2.0 / j) * x * columns[:, j - 1] - np.sqrt((j - 1) / j) * columns[:, j - 2]
    h = oscillator._hermite_basis(spec, p, 64)
    assert np.array_equal(h, columns)
    assert h.T.flags.c_contiguous


def _shared(grid: MomentumGrid, mass: float = M, omega: float = W) -> list[np.ndarray]:
    """Every array of the grid's cache entry: c, then each field of the even and the odd basis."""
    c, even, odd = oscillator._toeplitz_hermite(grid, mass, omega)
    return [c, *even, *odd]


def test_shared_product_is_keyed_on_everything_it_reads():
    grid = default_grid(OscillatorSpec(W, M), 3, 64)
    base = _shared(grid)
    assert len(base) == 11
    assert all(a is b for a, b in zip(_shared(grid), base))  # the same key answers from the cache
    rebuilt = MomentumGrid.symmetric(grid.n, grid.cutoff)
    assert rebuilt is not grid
    assert all(a is b for a, b in zip(_shared(rebuilt), base))  # an equal grid built apart shares the entry
    others = [
        _shared(MomentumGrid.symmetric(64, 1.01 * grid.cutoff)),
        _shared(grid, mass=2.0 * M),
        _shared(grid, omega=2.0 * W),
    ]
    for other in others:
        assert not any(np.array_equal(a, b) for a, b in zip(base, other))
    info = oscillator._toeplitz_hermite.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 4, 2)


def test_shared_product_is_read_only():
    for n in (64, 65):
        for a in _shared(default_grid(OscillatorSpec(W, M), 3, n)):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


def test_cold_and_warm_solves_are_bit_identical():
    spec = OscillatorSpec(W, M, "exact")
    numeric_spectrum(OscillatorSpec(W, M, "quadratic"), 3, n_points=1024)  # leaves the grid's entry
    warm = numeric_spectrum(spec, 3, n_points=1024, return_eigenfunctions=True)
    assert oscillator._toeplitz_hermite.cache_info().hits == 1
    oscillator._toeplitz_hermite.cache_clear()
    cold = numeric_spectrum(spec, 3, n_points=1024, return_eigenfunctions=True)
    assert (warm.energies, warm.method) == (cold.energies, cold.method)
    assert all(np.array_equal(x.samples, y.samples) for x, y in zip(warm.eigenfunctions, cold.eigenfunctions))


def test_three_truncations_transform_each_grid_once(monkeypatch):
    # the benchmark's operation: quadratic, quartic and exact at one omega, each checked on the refined grid
    sizes = []
    block_product = oscillator._block_product
    monkeypatch.setattr(oscillator, "_block_product", lambda c, x: sizes.append(c.size) or block_product(c, x))
    for truncation in ("quadratic", "quartic", "exact"):
        numeric_spectrum(OscillatorSpec(0.0123, M, truncation), 3, n_points=1024, check_refinement=True)
    assert sizes == [1024, 2048]


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
    shapes = _record_eigensolves(monkeypatch)
    res = numeric_spectrum(
        OscillatorSpec(W, M, truncation), 3, n_points=1024, check_refinement=True, return_eigenfunctions=True
    )
    assert res.method == "ritz32/ritz32"
    assert shapes["eigh"] and max(max(shape) for shape in shapes["eigh"] + shapes["eigvalsh"]) <= 32


@pytest.mark.parametrize("truncation, solves", [("quadratic", 2), ("quartic", 2), ("exact", 4)])
def test_ritz_on_a_cached_grid_diagonalises_only_its_reduced_problems(monkeypatch, truncation, solves):
    # the unit-weight Gram matrices come from the cache; only exact's weight needs its own, one per parity
    spec = OscillatorSpec(W, M, truncation)
    grid = default_grid(spec, 3, 1024)
    _shared(grid)
    shapes = _record_eigensolves(monkeypatch)
    assert numeric_spectrum(spec, 3, grid=grid).method == "ritz32/ritz32"
    assert shapes == {"eigh": [(32, 32)] * solves, "eigvalsh": []}


@pytest.mark.parametrize("truncation", ["quadratic", "quartic", "exact"])
def test_harmonic_regime_assembles_no_block(monkeypatch, truncation):
    def refuse(*args):
        raise AssertionError("a dense parity block was assembled")

    monkeypatch.setattr(oscillator, "_parity_block", refuse)
    res = numeric_spectrum(
        OscillatorSpec(W, M, truncation), 3, n_points=1024, check_refinement=True, return_eigenfunctions=True
    )
    assert res.method == "ritz32/ritz32"


@pytest.mark.parametrize("n", [128, 129])
def test_strong_coupling_falls_through_to_half_size_dense_blocks(monkeypatch, n):
    # at w/m = 0.3 the exact weight spans ~1e12 over the grid and no Ritz rung passes
    shapes = _record_eigensolves(monkeypatch)

    def dense_solves():
        found = {name: [shape for shape in got if max(shape) > 32] for name, got in shapes.items()}
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
    st = eigenfunction(spec, 0, grid)
    vals = np.real(st.samples)
    assert np.all(vals > 0) or np.all(vals < 0)
    assert np.max(np.abs(vals - vals[::-1])) <= 1e-10 * np.max(np.abs(vals))


def test_eigenfunction_first_excited_odd_one_node():
    spec = OscillatorSpec(W, M, "quadratic")
    grid = default_grid(spec, 1)
    st = eigenfunction(spec, 1, grid)
    vals = np.real(st.samples)
    assert np.max(np.abs(vals + vals[::-1])) <= 1e-10 * np.max(np.abs(vals))
    signs = np.sign(vals[np.abs(vals) > 1e-12 * np.max(np.abs(vals))])
    assert np.count_nonzero(np.diff(signs)) == 1


def test_eigenfunction_normalised_in_weighted_measure():
    spec = OscillatorSpec(W, M, "quadratic")
    st = eigenfunction(spec, 2, default_grid(spec, 2))
    assert st.norm() == pytest.approx(1.0, abs=1e-12)


def test_eigenfunction_overlap_with_diagonalisation():
    spec = OscillatorSpec(W, M, "quadratic")
    grid = default_grid(spec, 0)
    exact = eigenfunction(spec, 0, grid)
    res = numeric_spectrum(spec, 0, grid=grid, return_eigenfunctions=True)
    overlap = abs(inner(exact, res.eigenfunctions[0]))
    assert overlap >= 0.999


def test_eigenfunction_rejects_strong_coupling():
    spec = OscillatorSpec(0.6, 1.0, "quadratic")  # omega >= mass/2
    with pytest.raises(ContractError, match="normalisable"):
        eigenfunction(spec, 0, default_grid(spec, 0))
