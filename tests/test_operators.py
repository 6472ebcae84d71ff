"""Smeared-operator algebra: commutators, uncertainties, angular quantization."""

import numpy as np
import pytest

import fuzzyqm.operators as operators_module
from fuzzyqm.errors import ContractError
from fuzzyqm.numerics import MomentumGrid, derivative_matrix, grids, linalg
from fuzzyqm.operators import (
    GridState,
    SmearingParams,
    fuzzy_angular_eigenvalue,
    random_smooth_state,
    uncertainty_report,
    verify_commutator_xf_p,
    verify_spacetime_commutator,
)
from oracles import (
    SNYDER_WIDTH,
    build_fuzzy_position_op,
    build_momentum_op,
    build_position_op,
    smooth_state_samples,
    spacetime_antihermiticity,
    spacetime_snyder_deviation,
)

MASS = 1.0
S = SmearingParams(MASS)


def _grid(n=256, cutoff=8.0):
    return MomentumGrid.symmetric(n, cutoff)


def gaussian_probe(grid, width, x0=0.0, p0=0.0):
    """Normalised Gaussian wavepacket centred at momentum p0 and position x0.

    With X = i d/dp, a state of mean position x0 carries the phase exp(-i x0 p).
    """
    p = grid.points
    psi = np.exp(-((p - p0) ** 2) / (4.0 * width**2) - 1j * x0 * p)
    state = GridState(psi, grid)
    state.samples /= state.norm()
    return state


# --- momentum / position builders ---------------------------------------------


def test_momentum_op_is_diagonal():
    g = MomentumGrid.symmetric(9, 1.0)
    m = build_momentum_op(g)
    assert np.allclose(np.diag(m.entries), g.points)
    assert np.allclose(m.entries - np.diag(np.diag(m.entries)), 0.0)


def test_momentum_op_acts_pointwise():
    g = _grid()
    st = gaussian_probe(g, 1.0)
    out = build_momentum_op(g).entries @ st.samples
    assert np.allclose(out, g.points * st.samples)


def test_mean_momentum_vanishes_for_even_density():
    g = _grid()
    st = gaussian_probe(g, 1.3)
    mean_p = np.sum(g.points * np.abs(st.samples) ** 2) * g.spacing
    assert abs(mean_p) < 1e-12


def test_position_plane_wave_eigenrelation_improves_with_n():
    # with X = i d/dp the position-x0 plane wave is exp(-i x0 p)
    x0 = 0.8
    errs = []
    for n in (128, 256, 512):
        g = _grid(n)
        x = build_position_op(g, scheme="central").entries
        f = np.exp(-1j * x0 * g.points)
        err = np.abs(x @ f - x0 * f)
        errs.append(np.max(err[g.interior_slice()]))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_mean_position_vanishes_for_real_symmetric_state():
    g = _grid()
    st = gaussian_probe(g, 1.0)
    x = build_position_op(g).entries
    mean_x = np.real(np.sum(np.conj(st.samples) * (x @ st.samples)) * g.spacing)
    assert abs(mean_x) < 1e-10


def test_canonical_commutator_on_probe_states():
    g = _grid(512)
    x = build_position_op(g, scheme="central").entries
    p = g.points
    comm = x * p[None, :] - p[:, None] * x
    st = gaussian_probe(g, 1.5)
    defect = comm @ st.samples - 1j * st.samples
    assert np.max(np.abs(defect[g.interior_slice()])) / np.max(np.abs(st.samples)) < 2e-3


def test_fuzzy_position_point_particle_limit_entrywise():
    g = _grid(64)
    huge = SmearingParams(1e6 * g.cutoff)
    xf = build_fuzzy_position_op(g, huge).entries
    x = build_position_op(g).entries
    scale = np.max(np.abs(x))
    assert np.max(np.abs(xf - x)) <= 1e-8 * scale


def test_fuzzy_position_hermitian_by_construction():
    g = _grid(128)
    xf = build_fuzzy_position_op(g, S).entries
    assert np.max(np.abs(xf - xf.conj().T)) <= 1e-12 * np.max(np.abs(xf))


# --- commutator checks ---------------------------------------------------------


def test_commutator_residual_quarters_under_doubling():
    res = [verify_commutator_xf_p(_grid(n), S) for n in (128, 256, 512, 1024)]
    slopes = [np.log2(res[i] / res[i + 1]) for i in range(3)]
    for s in slopes:
        assert abs(s - 2.0) <= 0.3


def _dense_commutator_residual(op, g, mass, target):
    # the dense oracle: the matrix op*p - p*op on the default probes, minus i*target*psi
    p = g.points
    comm = op * p[None, :] - p[:, None] * op
    worst = 0.0
    for width, x0, p0 in ((2.0, 0.0, 0.0), (2.5, 0.8, 0.0), (3.0, 0.0, 1.0), (2.0, -0.5, 0.5)):
        psi = np.exp(-((p - p0 * mass) ** 2) / (2.0 * (width * mass) ** 2) + 1j * (x0 / mass) * p)
        defect = comm @ psi - 1j * target * psi
        worst = max(worst, np.max(np.abs(defect[g.interior_slice()])) / np.max(np.abs(psi)))
    return worst


def test_commutator_point_particle_limit_equals_canonical():
    # with a huge smearing mass the target reduces to the canonical i*identity
    g = _grid(512)
    res_limit = verify_commutator_xf_p(g, SmearingParams(1e12 * MASS), scheme="central")
    x = build_position_op(g, scheme="central").entries
    assert res_limit == pytest.approx(_dense_commutator_residual(x, g, 1e12 * MASS, 1.0), rel=1e-9)


@pytest.mark.parametrize("scheme", ["central"])  # the one scheme the matrix-free check applies
@pytest.mark.parametrize("n", [128, 256, 512, 1024])
def test_commutator_matches_dense_oracle(n, scheme):
    g = _grid(n, 8.0 * MASS)
    xf = build_fuzzy_position_op(g, S, scheme).entries
    want = _dense_commutator_residual(xf, g, MASS, S.gaussian(g.points))
    assert verify_commutator_xf_p(g, S, scheme) == pytest.approx(want, rel=1e-10)


def test_commutator_regression_value_spectral():
    # frozen regression point: N=1024, cutoff 8m, on the dense sinc reference, so the identity itself is
    # checked to spectral accuracy; the matrix-free check applies the central stencil and refuses any other
    g = _grid(1024, 8.0 * MASS)
    res = _dense_commutator_residual(build_fuzzy_position_op(g, S, "spectral").entries, g, MASS, S.gaussian(g.points))
    assert res <= 1e-4
    for scheme in ("spectral", "upwind"):
        with pytest.raises(ValueError, match="unknown scheme"):
            verify_commutator_xf_p(g, S, scheme)


# the residuals the commutators command writes at its defaults (mass 1, cutoff 6 m)
_SPACETIME_RESIDUALS = {48: 0.0443730674749, 64: 0.0246969808662, 96: 0.0116988817644, 128: 0.00672583259724}


def test_spacetime_commutator_converges_and_is_antihermitian():
    res = {}
    for n, pinned in _SPACETIME_RESIDUALS.items():
        grid = MomentumGrid.symmetric(n, 6.0 * MASS)
        lhs_ah, rhs_ah = spacetime_antihermiticity(grid, MASS)
        assert lhs_ah <= 1e-12
        assert rhs_ah <= 1e-12
        res[n] = verify_spacetime_commutator(grid, S).residual
        assert res[n] == pytest.approx(pinned, rel=1e-11)
    slope = np.log(res[48] / res[96]) / np.log(95 / 47)  # the spacing is 12 m / (n - 1)
    assert abs(slope - 2.0) <= 0.3


def _dense_spacetime_sides(grid, mass):
    """Dense [X_f1, X_f2] and its symmetrised closed form on the n^2 product grid, row-major."""
    n, points = grid.n, grid.points
    d = derivative_matrix(grid, 1, "central").entries
    eye = np.eye(n)
    x1, x2 = 1j * np.kron(d, eye), 1j * np.kron(eye, d)
    p1, p2 = np.repeat(points, n), np.tile(points, n)
    g = np.exp(-(p1**2 + p2**2) / (2.0 * mass**2))
    xf1, xf2 = g[:, None] * x1 * g[None, :], g[:, None] * x2 * g[None, :]
    lhs = xf1 @ xf2 - xf2 @ xf1
    core = (2j / mass**2) * (p2[:, None] * x1 - p1[:, None] * x2)
    g4 = g**4
    rhs = 0.5 * (g4[:, None] * core + core * g4[None, :])
    return lhs, core, rhs, p1.reshape(n, n), p2.reshape(n, n)


@pytest.mark.parametrize("n", [16, 24])
def test_spacetime_commutator_matches_dense_oracle(n):
    grid = MomentumGrid.symmetric(n, 6.0 * MASS)
    k = max(1, int(round(0.15 * n)))
    inner = (slice(k, n - k), slice(k, n - k))

    lhs, _, rhs, p1, p2 = _dense_spacetime_sides(grid, MASS)
    for side in (lhs, rhs):
        assert np.max(np.abs(side + side.conj().T)) <= 1e-14 * np.max(np.abs(side))
    c = grid.cutoff
    psi = np.exp(-((p1 - 0.08 * c) ** 2) / (2.0 * (0.15 * c) ** 2) - ((p2 + 0.06 * c) ** 2) / (2.0 * (0.22 * c) ** 2))
    psi /= psi.max()
    residual = np.max(np.abs(((lhs - rhs) @ psi.ravel()).reshape(n, n)[inner]))

    wn = SNYDER_WIDTH * MASS
    lhs_s, core_s, _, q1, q2 = _dense_spacetime_sides(MomentumGrid.symmetric(n, 8.0 * wn), MASS)
    chi = np.exp(-((q1 - 0.7 * wn) ** 2) / (2.0 * (0.9 * wn) ** 2) - ((q2 + 0.5 * wn) ** 2) / (2.0 * (1.3 * wn) ** 2))
    chi /= chi.max()
    core_chi = (core_s @ chi.ravel()).reshape(n, n)[inner]
    defect = (lhs_s @ chi.ravel()).reshape(n, n)[inner] - core_chi
    snyder = np.max(np.abs(defect)) / np.max(np.abs(core_chi))

    assert verify_spacetime_commutator(grid, S).residual == pytest.approx(residual, rel=1e-10)
    assert spacetime_snyder_deviation(n, MASS) == pytest.approx(snyder, rel=1e-10)


def test_spacetime_point_particle_limit_commutes():
    # fixed momentum window, huge smearing mass: the dressed positions commute
    rep = verify_spacetime_commutator(MomentumGrid.symmetric(48, 6.0), SmearingParams(1e12))
    assert rep.residual <= 1e-12


def test_spacetime_snyder_limit_for_low_momentum_states():
    assert spacetime_snyder_deviation(96, MASS) <= 0.05


def test_spacetime_check_draws_no_random_numbers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a random generator was seeded")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    verify_spacetime_commutator(MomentumGrid.symmetric(48, 6.0 * MASS), S)


def test_spacetime_memory_guard():
    with pytest.raises(ValueError, match="cap"):
        verify_spacetime_commutator(MomentumGrid.symmetric(256, 6.0), S)


# --- uncertainty ----------------------------------------------------------------


def test_uncertainty_requires_normalised_state():
    g = _grid()
    st = GridState(np.exp(-g.points**2).astype(complex), g)
    with pytest.raises(ContractError, match="normalised"):
        uncertainty_report(st, S)


def test_dx0_zero_when_mean_position_vanishes():
    g = _grid()
    rep = uncertainty_report(gaussian_probe(g, 1.0, x0=0.0, p0=0.5), S)
    assert rep.dx0 == pytest.approx(0.0, abs=1e-6)


def test_dx0_undefined_for_negative_product():
    g = _grid()
    rep = uncertainty_report(gaussian_probe(g, 0.8, x0=2.0, p0=-1.0), S)
    assert rep.mean_x * rep.mean_p < 0
    assert rep.dx0 is None


def test_gaussian_point_particle_limit_reaches_canonical_minimum():
    g = _grid(512)
    rep = uncertainty_report(gaussian_probe(g, 1.0), SmearingParams(1e9))
    assert rep.dxf * rep.dp == pytest.approx(0.5, abs=1e-6)
    assert rep.bound == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("scheme", ["spectral"])  # the oracle's derivative, the one uncertainty_report uses
def test_uncertainty_report_matches_dense_oracle(scheme):
    # two grid sizes, 300 not a power of two, 512 at two cutoffs, so that a kernel spectrum keyed on n alone
    # would hand one spacing the other's; and two masses on each grid, alternating state by state, so that a
    # table cached per grid alone would hand one mass the other's G
    rng = np.random.default_rng(20240809)
    for n, cutoff in ((512, 8.0), (512, 5.0), (300, 8.0)):
        g = _grid(n, cutoff)
        p, h = g.points, g.spacing
        x = build_position_op(g, scheme).entries
        smearings = [SmearingParams(mass) for mass in (MASS, 0.6 * MASS)]
        xfs = [build_fuzzy_position_op(g, s, scheme).entries for s in smearings]
        for i in range(20):
            s, xf = smearings[i % 2], xfs[i % 2]
            st = random_smooth_state(g, rng)
            psi = st.samples
            rho = np.abs(psi) ** 2
            mean_xf = np.real(np.vdot(psi, xf @ psi)) * h
            mean_p = np.sum(p * rho) * h
            want = {
                "dxf": np.sqrt(np.sum(np.abs(xf @ psi) ** 2) * h - mean_xf**2),
                "dp": np.sqrt(np.sum(p**2 * rho) * h - mean_p**2),
                "bound": 0.5 * np.sum(s.gaussian(p) * rho) * h,
                "mean_p": mean_p,
            }
            rep = uncertainty_report(st, s)
            for name, value in want.items():
                assert getattr(rep, name) == pytest.approx(value, rel=1e-10), (n, cutoff, s.mass, name)
            assert rep.mean_x == pytest.approx(np.real(np.vdot(psi, x @ psi)) * h, rel=0, abs=1e-10)


def test_uncertainty_report_after_cache_clear_is_bit_identical():
    g = _grid(300)
    st = random_smooth_state(g, np.random.default_rng(11))
    warm = uncertainty_report(st, S)
    assert uncertainty_report(st, S) == warm
    operators_module._report_table.cache_clear()
    assert uncertainty_report(st, S) == warm
    for table in (*operators_module._report_table(g, S), operators_module._phase_steps(g)):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_checks_build_no_dense_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense operator was built")

    assert not {"derivative_matrix", "OperatorMatrix"} & set(vars(operators_module))
    monkeypatch.setattr(linalg, "derivative_matrix", refuse)
    monkeypatch.setattr(grids.OperatorMatrix, "__post_init__", refuse)
    g = _grid(256)
    uncertainty_report(gaussian_probe(g, 1.0, x0=0.5, p0=0.3), S)
    verify_commutator_xf_p(g, S)
    verify_spacetime_commutator(MomentumGrid.symmetric(48, 6.0 * MASS), S)


def test_random_smooth_state_is_plain_and_normalised():
    g = _grid(512)
    rng = np.random.default_rng(20241018)
    for _ in range(20):
        st = random_smooth_state(g, rng)
        assert st.grid is g
        assert abs(st.norm() - 1.0) <= 1e-13


class _ZeroAmplitudes:
    """Stands in for a Generator whose uniform draws are all midpoints and whose amplitude draws are all zero."""

    def random(self, size):
        return np.full(size, 0.5)

    def standard_normal(self, size):
        return np.zeros(size)


def test_random_smooth_state_rejects_the_zero_state():
    with pytest.raises(ValueError, match="zero state"):
        random_smooth_state(_grid(), _ZeroAmplitudes())


@pytest.mark.parametrize("n", [256, 300, 509, 512, 1000])
def test_random_smooth_state_matches_the_per_packet_loop(n):
    # n runs through multiples of the 32-point phase block and sizes that are not; scale = cutoff/8 is not 1
    for cutoff in (0.08, 8.0, 800.0):
        g = _grid(n, cutoff)
        rng, oracle_rng = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(20):
            psi, want = random_smooth_state(g, rng).samples, smooth_state_samples(g, oracle_rng)
            assert np.max(np.abs(psi - want)) <= 1e-14 * np.max(np.abs(want)), (n, cutoff)
            assert rng.random() == oracle_rng.random()  # the same draws, leaving the same stream


def test_plain_norm_matches_the_weighted_sum():
    g = _grid(300)
    rng = np.random.default_rng(300)
    psi = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    assert GridState(psi, g).norm() == pytest.approx(np.sqrt(np.sum(g.spacing * np.abs(psi) ** 2)), rel=1e-14)


def test_robertson_inequality_random_states():
    g = _grid(256)
    rng = np.random.default_rng(20240807)
    for _ in range(1000):
        st = random_smooth_state(g, rng)
        rep = uncertainty_report(st, S)
        assert rep.dxf * rep.dp >= rep.bound - 1e-9


# --- fuzzy angular momentum -------------------------------------------------------


def test_angular_eigenvalue_zero_k():
    assert fuzzy_angular_eigenvalue(0, 2.7, S) == 0.0


def test_angular_eigenvalue_no_smearing_at_zero_momentum():
    assert fuzzy_angular_eigenvalue(3, 0.0, S) == 3.0


def test_angular_eigenvalue_at_mass_scale():
    # exp(-1) * 1
    assert fuzzy_angular_eigenvalue(1, MASS, S) == pytest.approx(0.36787944117144233, rel=1e-15)


def test_angular_eigenvalue_magnitude_decreases():
    vals = [abs(fuzzy_angular_eigenvalue(2, pr, S)) for pr in (0.0, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_angular_quantization_identity():
    # undoing the smearing factor must give back the integer exactly
    for k in (-3, -1, 0, 2, 5):
        for p_rho in (0.0, 0.3, 1.0, 2.5):
            l = fuzzy_angular_eigenvalue(k, p_rho, S)
            recovered = l * np.exp(p_rho**2 / MASS**2)
            assert recovered == pytest.approx(float(k), abs=1e-12)


def test_angular_eigenvalue_rejects_non_integer():
    with pytest.raises(TypeError):
        fuzzy_angular_eigenvalue(1.5, 0.0, S)

