"""Variational Yukawa deuteron: oracles, range-depth relation, couplings."""

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import eval_genlaguerre

from fuzzyqm.constants import DEFAULT_CONSTANTS, PhysicalConstants
from fuzzyqm import deuteron
from fuzzyqm.errors import BracketingError, ContractError, OverflowGuardError, RefinementError
from fuzzyqm.deuteron import (
    ProblemTemplate,
    calibrate_smearing_mass,
    core_radius,
    coupling_report,
    effective_potential,
    energy_expectation,
    exact_depth,
    repulsive_strength,
    solve_depth,
    trial_samples,
    _smeared_kinetic_integral,
)

C = DEFAULT_CONSTANTS
MU = C.reduced_mass
R0_SIGMA = C.r0_sigma_fm  # 0.3596
R1_OMEGA = C.r1_omega_fm  # 0.2529


def _fuzzy(mass):
    return ProblemTemplate(C, smearing_mass=mass)


def closed_form_energy_plain(alpha, V0, r0_fm):
    """Ordinary-case oracle by elementary Gamma integrals.

    E(alpha) = alpha^2 (hbar c)^2 / (2 mu r0^2) - 4 V0 alpha^3 / (2 alpha + 1)^2.
    """
    rt = r0_fm / C.hbar_c
    return alpha**2 / (2.0 * MU * rt**2) - 4.0 * V0 * alpha**3 / (2.0 * alpha + 1.0) ** 2


def closed_min_energy(v0, r0):
    """Minimum of the closed-form ordinary energy over a dense alpha grid."""
    return np.min(closed_form_energy_plain(np.linspace(1e-3, 6.0, 30000), v0, r0))


# --- constants -------------------------------------------------------------------

_POSITIVE_FIELDS = [name for name in C.as_dict() if name != "e0_binding"]


@pytest.mark.parametrize(
    "name, value",
    [(name, v) for name in _POSITIVE_FIELDS for v in (0.0, -1.0, 1e-300, 1e300, np.inf, np.nan)]
    + [("e0_binding", v) for v in (0.0, 2.226, -np.inf, np.nan)],
)
def test_constants_refuse_a_value_outside_their_domain(name, value):
    # every consumer reads the constants unchecked: a zero coupling or range, or an unbound target, is refused here
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        PhysicalConstants(**{name: value})


def test_constants_accept_the_domain_edges_and_refuse_an_unknown_field():
    assert PhysicalConstants(hbar_c=1e-50, r1_omega_fm=1e50, e0_binding=-1e-300).hbar_c == 1e-50
    with pytest.raises(TypeError, match="m_pi"):
        C.with_overrides(m_pi=139.6)


# --- energy functional -----------------------------------------------------------


def test_quadrature_matches_closed_form_across_alpha():
    for v0, r0 in ((660.77, R0_SIGMA), (50.0, 1.43)):
        for alpha in np.linspace(0.1, 5.0, 12):
            quad = energy_expectation(ProblemTemplate(), v0, r0, alpha)
            closed = closed_form_energy_plain(alpha, v0, r0)
            assert quad == pytest.approx(closed, rel=1e-8)


def test_zero_depth_energy_is_pure_kinetic():
    for alpha in (0.3, 1.0, 2.5):
        e = energy_expectation(ProblemTemplate(), 0.0, 0.7, alpha)
        expected = alpha**2 * C.hbar_c**2 / (2 * MU * 0.7**2)
        assert e == pytest.approx(expected, rel=1e-9)
        assert e > 0


def test_reference_depth_binds_near_target():
    # at the reference sigma-range depth the minimum sits within the
    # +/-2% depth budget of the -2.226 MeV binding energy
    e_min = closed_min_energy(660.77, R0_SIGMA)
    assert abs(e_min - C.e0_binding) <= 2.0


def test_fuzzy_point_particle_limit():
    # smearing mass 100x above the 99th-percentile momentum of the trial
    r0, alpha = 1.0, 1.0
    u99 = 8.406 / (2.0 * alpha)  # 99th percentile of the u^2 exp(-2 alpha u) density
    p99 = u99 * C.hbar_c / r0
    ef = energy_expectation(_fuzzy(100.0 * p99), 120.0, r0, alpha)
    eo = energy_expectation(ProblemTemplate(), 120.0, r0, alpha)
    assert abs(ef - eo) <= 1e-4 * abs(eo)


# --- range-depth -----------------------------------------------------------------


def test_ordinary_headline_depth():
    point = solve_depth(R0_SIGMA, ProblemTemplate())
    assert point.depth == pytest.approx(660.77, rel=0.02)


def test_fuzzy_headline_depth_after_calibration():
    cal = calibrate_smearing_mass(C)
    point = solve_depth(R0_SIGMA, ProblemTemplate(C, smearing_mass=cal.mass))
    assert point.depth < 0
    assert point.depth == pytest.approx(-81.0, rel=0.10)


def test_calibration_sweeps_both_candidates():
    cal = calibrate_smearing_mass(C)
    assert set(cal.points) == {"nucleon", "reduced"}
    assert cal.choice in cal.points
    best = min(cal.points, key=lambda k: abs(cal.points[k].depth - cal.target))
    assert cal.choice == best
    assert all(p.r0 == R0_SIGMA for p in cal.points.values())


def test_calibration_refuses_a_scan_edge_candidate():
    # at 0.001 fm both candidates' depth minimisers sit on the alpha = 20 edge; comparing them would pick an edge
    with pytest.raises(
        RefinementError, match="depth at r0=0.001 fm unconverged: the scan falls towards its edge alpha=20,"
    ):
        calibrate_smearing_mass(C.with_overrides(r0_sigma_fm=0.001))


def test_min_energy_monotone_in_depth():
    energies = [closed_min_energy(v0, R0_SIGMA) for v0 in np.linspace(100.0, 900.0, 9)]
    assert all(a > b for a, b in zip(energies, energies[1:]))


def test_depth_root_against_depth_scan_oracle():
    # scan the minimum energy on a 0.01 MeV depth grid around the root
    point = solve_depth(1.0, ProblemTemplate())
    grid = np.arange(point.depth - 0.05, point.depth + 0.05, 0.01)
    gaps = [abs(closed_min_energy(v, 1.0) - C.e0_binding) for v in grid]
    oracle = grid[int(np.argmin(gaps))]
    assert abs(point.depth - oracle) <= 0.01


def test_range_depth_curve_ordinary_matches_closed_form_oracle():
    point = solve_depth(1.43, ProblemTemplate())

    oracle = brentq(lambda v0: closed_min_energy(v0, 1.43) - C.e0_binding, 1.0, 500.0, xtol=1e-8)
    assert point.depth == pytest.approx(oracle, rel=1e-3)


def _cubic_root_alpha(r0):
    """Minimiser of the ordinary V0(alpha): the positive root of 2k a^3 - k a^2 - 2|E_t| a - 3|E_t| = 0."""
    k = C.hbar_c**2 / (2.0 * MU * r0**2)
    e = abs(C.e0_binding)
    (a,) = [z.real for z in np.roots([2.0 * k, -k, -2.0 * e, -3.0 * e]) if abs(z.imag) < 1e-12 and z.real > 0]
    return a


@pytest.mark.parametrize("r0", [R0_SIGMA, 0.72, 1.43])
def test_ordinary_alpha_star_is_the_cubic_root(r0):
    # alpha* shapes every wavefunction the CLI writes, not only the depth
    point = solve_depth(r0, ProblemTemplate())
    assert point.alpha_star == pytest.approx(_cubic_root_alpha(r0), rel=1e-7)


def test_smeared_depth_refinement_evaluation_count(monkeypatch):
    # the scan is one 200-alpha array call; every float call after it is one step of the minimiser
    alphas = []
    original = deuteron._smeared_kinetic_integral

    def counted(alpha, b):
        alphas.append(alpha)
        return original(alpha, b)

    monkeypatch.setattr(deuteron, "_smeared_kinetic_integral", counted)
    solve_depth(R0_SIGMA, ProblemTemplate(C, smearing_mass=MU))
    assert isinstance(alphas[0], np.ndarray) and alphas[0].shape == (200,)
    assert {type(a) for a in alphas[1:]} == {float}
    assert len(alphas) - 1 <= 12  # golden section alone took about 40, Brent to a 1e-9 bracket about 15


@pytest.mark.parametrize("r0", [0.2, R0_SIGMA, 1.0, 1.43])
@pytest.mark.parametrize("smearing_mass", [None, MU])
def test_float_alpha_matches_a_one_element_array(smearing_mass, r0):
    # Brent's floats and the scan's arrays go through the same expressions; only x**3 may round apart
    _, k, b = deuteron._scales(ProblemTemplate(C, smearing_mass=smearing_mass), r0)
    for a in deuteron._ALPHA_SCAN.tolist():
        t, g = deuteron._kinetic_and_binding(k, b, a)
        (t_arr,), (g_arr,) = deuteron._kinetic_and_binding(k, b, np.array([a]))
        assert type(t) is float and type(g) is float
        assert abs(t - t_arr) <= 1e-15 * abs(t_arr) and abs(g - g_arr) <= 1e-15 * g_arr


def test_fuzzy_curve_below_ordinary_everywhere():
    cal = calibrate_smearing_mass(C)
    for r0 in np.linspace(0.25, 1.5, 6).tolist():
        assert solve_depth(r0, ProblemTemplate(C, smearing_mass=cal.mass)).depth < solve_depth(r0, ProblemTemplate()).depth


def test_range_depth_curve_order_independent():
    r0s = [0.4, 0.8, 1.2]
    fwd = [solve_depth(r0, ProblemTemplate()) for r0 in r0s]
    rev = [solve_depth(r0, ProblemTemplate()) for r0 in r0s[::-1]]
    assert fwd == rev[::-1]


def test_solve_depth_flags_alpha_on_scan_edge():
    # at 100 fm the family minimiser (root of the criterion-6 cubic, ~23) lies
    # beyond the alpha bracket, so the scan minimum sits on its 20.0 edge
    with pytest.raises(
        RefinementError, match="depth at r0=100 fm unconverged: the scan falls towards its edge alpha=20,"
    ):
        solve_depth(100.0, ProblemTemplate())


def test_range_depth_curve_records_failures_and_continues():
    # a failed range leaves nothing behind: the next solve equals a fresh one
    fresh = solve_depth(1.0, ProblemTemplate())
    with pytest.raises(RefinementError, match="falls towards its edge"):
        solve_depth(100.0, ProblemTemplate())
    assert solve_depth(1.0, ProblemTemplate()) == fresh


def test_solve_depth_needs_no_depth_bracket():
    # a depth far beyond any fixed V0 bracket: the minimisation form has none
    point = solve_depth(0.05, ProblemTemplate())
    assert point.depth == pytest.approx(33194.6, rel=1e-5)
    assert point.alpha_star == pytest.approx(0.501, abs=1e-3)


# depths of the nested solver (Brent root on V0 around a scan-plus-golden-section
# minimum of adaptive-quadrature energies), recorded before it was replaced by
# the single minimisation min_alpha (T(alpha) - E_t)/g(alpha)
NESTED_SOLVER_DEPTHS = {
    "ordinary": {0.3596: 657.6146466276, 0.72: 173.4796477031, 1.43: 50.0886457741},
    "reduced": {0.2: -337.1893120109, 0.3596: -77.0022634275, 0.56: 0.3685171837, 1.0: 36.3686150540},
}


@pytest.mark.parametrize(
    "variant, r0", [(v, r0) for v, depths in NESTED_SOLVER_DEPTHS.items() for r0 in depths]
)
def test_solve_depth_matches_nested_solver(variant, r0):
    tpl = ProblemTemplate() if variant == "ordinary" else ProblemTemplate(C, smearing_mass=MU)
    want = NESTED_SOLVER_DEPTHS[variant][r0]
    point = solve_depth(r0, tpl)
    # the nested solver's V0 root tolerance was 1e-6 MeV, which dominates near the zero crossing
    assert point.depth == pytest.approx(want, rel=1e-8, abs=1e-6 if r0 == 0.56 else 0.0)


@pytest.mark.parametrize("mass, r0", [(MU, 0.2), (MU, R0_SIGMA), (MU, 1.0), (C.nucleon_mass, 0.56)])
def test_vectorised_smeared_kinetic_matches_scalar_quadrature(mass, r0):
    _, _, b = deuteron._scales(_fuzzy(mass), r0)
    alphas = np.logspace(np.log10(0.01), np.log10(20.0), 41)
    got = _smeared_kinetic_integral(alphas, b)
    for a, value in zip(alphas, got):
        want, _ = quad(
            lambda u: (a**2 * u**2 + 2.0 * a * b * u**3 - 3.0 * b**2 * u**4) * np.exp(-2.0 * b * u**2 - 2.0 * a * u),
            0.0,
            np.inf,
        )
        assert value == pytest.approx(want, rel=1e-9)


def _half_line(f, scale):
    """integral of f over [0, inf), in units of its decay length so that quad sees no narrow peak."""
    return scale * quad(lambda x: f(scale * x), 0.0, np.inf, epsabs=0.0, epsrel=1e-12)[0]


@pytest.mark.parametrize("mass", [MU, C.nucleon_mass])
@pytest.mark.parametrize("r0", [0.05, 10.0])
def test_smeared_kinetic_beyond_the_scan_matches_scalar_quadrature(mass, r0):
    # alpha outside the scan widens the rule's range, a truncation the halving check cannot see
    template = _fuzzy(mass)
    _, k, b = deuteron._scales(template, r0)
    alphas = np.array([1e-3, 50.0, 200.0, 1e6])
    together = _smeared_kinetic_integral(alphas, b)
    for a, value in zip(alphas, together):
        kinetic = _half_line(
            lambda u: (a**2 * u**2 + 2.0 * a * b * u**3 - 3.0 * b**2 * u**4) * np.exp(-2.0 * b * u**2 - 2.0 * a * u),
            1.0 / (2.0 * a + np.sqrt(2.0 * b)),
        )
        norm = _half_line(lambda u: u**2 * np.exp(-2.0 * a * u), 1.0 / (2.0 * a))
        potential = _half_line(lambda u: u * np.exp(-(2.0 * a + 1.0) * u), 1.0 / (2.0 * a + 1.0))
        assert value == pytest.approx(kinetic, rel=1e-9)
        assert _smeared_kinetic_integral(np.array([a]), b)[0] == pytest.approx(kinetic, rel=1e-9)
        want = (k * kinetic - 50.0 * potential) / norm
        assert energy_expectation(template, 50.0, r0, a) == pytest.approx(want, rel=1e-9)


def test_smeared_kinetic_raises_when_rule_doubling_disagrees(monkeypatch):
    # a step of 0.5 in ln u (1.0 for the check rule) is too coarse at alpha = 0.01, for the scan and for a float
    monkeypatch.setattr(deuteron, "_KINETIC_STEP", 0.5)
    deuteron._kinetic_weights.cache_clear()
    try:
        with pytest.raises(RefinementError, match="did not stabilise"):
            solve_depth(R0_SIGMA, ProblemTemplate(C, smearing_mass=MU))
        _, _, b = deuteron._scales(_fuzzy(MU), R0_SIGMA)
        with pytest.raises(RefinementError, match=r"alpha=0\.01 did not stabilise"):
            _smeared_kinetic_integral(0.01, b)
    finally:
        deuteron._kinetic_weights.cache_clear()


def test_trial_samples_guard_overflow():
    psi, _ = trial_samples(_fuzzy(MU), R0_SIGMA, 0.4, np.linspace(1.0, 1200.0, 400))  # the CLI's axis
    assert np.all(np.isfinite(psi)) and np.max(psi) == 1.0
    with pytest.raises(OverflowGuardError, match="exponent"):
        trial_samples(_fuzzy(MU), R0_SIGMA, 0.4, np.linspace(1.0, 40.0 * MU, 400))


# --- core radius -----------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzzy_template():
    cal = calibrate_smearing_mass(C)
    return ProblemTemplate(C, smearing_mass=cal.mass)


def test_core_radius_headline(fuzzy_template):
    res = core_radius(fuzzy_template)
    assert res.r_c == pytest.approx(0.563, abs=0.03)
    assert res.depth_lo < 0 < res.depth_hi


def test_core_radius_bracket_verification(fuzzy_template):
    res = core_radius(fuzzy_template)
    assert solve_depth(res.r_c + 0.1, fuzzy_template).depth > 0
    assert solve_depth(res.r_c - 0.1, fuzzy_template).depth < 0


def _min_kinetic(template, r0):
    _, k, b = deuteron._scales(template, r0)
    _, t_min = deuteron._minimise_over_alpha(lambda a: deuteron._kinetic_and_binding(k, b, a)[0], "kinetic minimum")
    return t_min


def test_min_smeared_kinetic_scales_as_r0_to_minus_four(fuzzy_template):
    # T = 4 k b J(b/alpha^2)/(b/alpha^2) with k b proportional to r0^-4, so min_alpha T r0^4 is one constant
    scaled = [_min_kinetic(fuzzy_template, r0) * r0**4 for r0 in (0.2, R0_SIGMA, 0.72, 1.0)]
    assert scaled[0] == pytest.approx(-0.216151702541, rel=1e-10)
    assert max(scaled) - min(scaled) <= 1e-12 * abs(scaled[0])


def test_core_radius_matches_root_of_the_depth_curve(fuzzy_template):
    # independent oracle: a Brent root of the solved depth curve itself
    oracle = brentq(lambda r: solve_depth(r, fuzzy_template).depth, 0.2, 1.0, xtol=1e-14)
    r_c = core_radius(fuzzy_template).r_c
    assert abs(r_c - oracle) <= 1e-12
    assert abs(solve_depth(r_c, fuzzy_template).depth) <= 1e-9


def test_core_radius_solves_only_the_bracket_ends(fuzzy_template, monkeypatch):
    calls = []

    def counted(r0, template):
        calls.append(r0)
        return solve_depth(r0, template)

    monkeypatch.setattr(deuteron, "solve_depth", counted)
    res = core_radius(fuzzy_template)
    assert calls == [res.bracket_lo, res.bracket_hi] == pytest.approx([0.9 * res.r_c, 1.1 * res.r_c], rel=1e-15)


def test_core_radius_rejects_unconverged_kinetic_minimum(fuzzy_template):
    # the kinetic minimiser at 1 fm, alpha = 0.22 at the calibrated mass, scales as 1/M: below the scan at 30 M
    heavy = ProblemTemplate(C, smearing_mass=30.0 * fuzzy_template.smearing_mass)
    with pytest.raises(
        RefinementError, match=r"kinetic minimum at r0=1 fm unconverged: the scan falls towards its edge alpha=0\.01,"
    ):
        core_radius(heavy)


def test_core_radius_does_not_depend_on_the_sigma_range(fuzzy_template):
    moved = ProblemTemplate(C.with_overrides(r0_sigma_fm=100.0), smearing_mass=fuzzy_template.smearing_mass)
    assert core_radius(moved) == core_radius(fuzzy_template)


def test_core_radius_rejects_a_non_negative_kinetic_minimum(fuzzy_template, monkeypatch):
    # an interior minimum T = 4 k > 0: no range makes the depth negative
    monkeypatch.setattr(deuteron, "_smeared_kinetic_integral", lambda a, b: ((a - 0.6) ** 2 + 1.0) / a**3)
    with pytest.raises(RefinementError, match="not negative: no core"):
        core_radius(fuzzy_template)


def _shallow(template, e0_binding):
    return ProblemTemplate(C.with_overrides(e0_binding=e0_binding), smearing_mass=template.smearing_mass)


def test_core_radius_rejects_unconverged_depth(fuzzy_template):
    # r_c grows as |E_t|^(-1/4), to 28 fm here, and the depth minimiser there falls below the scan's alpha = 0.01:
    # that edge-of-scan depth must not enter the evidence as if it were a depth
    with pytest.raises(
        RefinementError, match=r"depth at r0=28\.25\d* fm unconverged: the scan falls towards its edge alpha=0\.01,"
    ):
        core_radius(_shallow(fuzzy_template, -2.226e-7))


def test_core_radius_requires_fuzzy_variant():
    with pytest.raises(ContractError):
        core_radius(ProblemTemplate())


def test_core_radius_no_sign_change_dump(fuzzy_template):
    # at r_c = 56 fm the depth's negative region lies below the alpha scan, and the scan's interior minimum is
    # positive: the evidence depth is refused where the scan falls towards its edge, not passed on as a depth
    with pytest.raises(
        RefinementError, match=r"depth at r0=50\.2401\d* fm unconverged: the scan falls towards its edge alpha=0\.01,"
    ):
        core_radius(_shallow(fuzzy_template, -2.226e-8))


def test_core_radius_dumps_evidence_without_a_sign_change(fuzzy_template, monkeypatch):
    monkeypatch.setattr(deuteron, "solve_depth", lambda r0, template: deuteron.RangeDepthPoint(r0, 0.5 + r0, 1.0))
    with pytest.raises(BracketingError, match=r"around r_c=0\.5\d+ fm; curve: r0=0\.\d+: 1\.0\d, r0=0\.\d+: 1\.1\d"):
        core_radius(fuzzy_template)


@pytest.mark.parametrize(
    "f, edge",
    [
        # in x = ln alpha: the scan minimum -1 at x = 0, then a second well at x = 4, beyond the scan's x = 3
        (lambda a: -np.exp(-np.log(a) ** 2) - 0.5 * np.exp(-(np.log(a) - 4.0) ** 2), "20"),
        (lambda a: -np.exp(-np.log(a) ** 2) - 0.5 * np.exp(-(np.log(a) + 6.0) ** 2), "0.01"),
    ],
)
def test_minimisation_refuses_a_scan_falling_towards_an_edge(f, edge):
    with pytest.raises(RefinementError, match=rf"^toy unconverged: the scan falls towards its edge alpha={edge},"):
        deuteron._minimise_over_alpha(f, "toy")


# --- repulsive strength and effective interaction ---------------------------------


def test_repulsive_strength_headline_arithmetic():
    v1 = repulsive_strength(660.77, -81.0, R0_SIGMA, R1_OMEGA)
    assert v1 == pytest.approx(1419.07, rel=0.005)


def test_repulsive_strength_vanishes_without_depth_drop():
    assert repulsive_strength(300.0, 300.0, R0_SIGMA, R1_OMEGA) == 0.0


def test_repulsive_strength_linear_in_depth_drop():
    base = repulsive_strength(660.77, -81.0, R0_SIGMA, R1_OMEGA)
    doubled = repulsive_strength(2 * 660.77, 2 * (-81.0), R0_SIGMA, R1_OMEGA)
    assert doubled == pytest.approx(2 * base, rel=1e-12)


def test_effective_potential_tail_attractive():
    v = effective_potential(660.77, 1419.07, R0_SIGMA, R1_OMEGA, np.array([4.0, 6.0, 8.0]))
    assert np.all(v < 0)
    assert np.all(np.abs(v) < 0.1)


def test_effective_potential_sign_regions():
    assert effective_potential(660.77, 1419.07, R0_SIGMA, R1_OMEGA, 0.2) > 0
    assert effective_potential(660.77, 1419.07, R0_SIGMA, R1_OMEGA, 1.0) < 0


def test_effective_potential_zero_crossing_near_ranges():
    f = lambda r: effective_potential(660.77, 1419.07, R0_SIGMA, R1_OMEGA, r)
    crossing = brentq(f, 0.2, 1.0, xtol=1e-10)
    assert 0.5 * R1_OMEGA < crossing < 3.0 * R0_SIGMA


def test_effective_potential_domain_error():
    with pytest.raises(ValueError):
        effective_potential(660.77, 1419.07, R0_SIGMA, R1_OMEGA, 0.0)


# --- couplings --------------------------------------------------------------------


def test_coupling_report_reference_inputs():
    rep = coupling_report(C, 660.77, -81.0)
    assert rep.g_sigma_sq_over_4pi == pytest.approx(1.20, rel=0.01)
    assert rep.g_omega_sq_over_4pi == pytest.approx(1.815, rel=0.01)
    assert rep.ratio == pytest.approx(1.512, rel=0.01)
    assert rep.g_omega_phenom_sq_over_4pi == pytest.approx(11.03, rel=0.02)
    assert rep.phenom_deviation_percent == pytest.approx(1.85, abs=0.2)


def test_coupling_ratio_invariant_under_common_rescaling():
    a = coupling_report(C, 660.77, -81.0)
    b = coupling_report(C, 2 * 660.77, 2 * (-81.0))
    assert b.ratio == pytest.approx(a.ratio, rel=1e-12)
    assert b.g_omega_phenom_sq_over_4pi == pytest.approx(a.g_omega_phenom_sq_over_4pi, rel=1e-12)


# --- exact oracle -----------------------------------------------------------------


def _basis_and_slope(k, lam, u):
    """phi_k(u) = u e^(-lam u) L_k^(1)(2 lam u) and its derivative, from scipy's Laguerre polynomials."""
    y, e = 2.0 * lam * u, np.exp(-lam * u)
    lag = eval_genlaguerre(k, 1, y)
    dlag = -eval_genlaguerre(k - 1, 2, y) if k else 0.0  # d/dy L_k^(1) = -L_(k-1)^(2)
    return u * e * lag, e * ((1.0 - lam * u) * lag + 2.0 * lam * u * dlag)


@pytest.mark.parametrize("lam, kappa", [(1.2, 0.3), (0.9, 0.45)])
def test_laguerre_pencil_matches_quadrature_on_the_basis(lam, kappa):
    # adaptive quadrature on the functions themselves shares nothing with the closed forms or the Gauss-Laguerre sum
    a, b = deuteron._laguerre_pencil(8, lam, kappa)
    w = b @ b.T
    for j, k in [(0, 0), (2, 3), (3, 2), (7, 7), (1, 4), (6, 7)]:
        kinetic = quad(lambda u: _basis_and_slope(j, lam, u)[1] * _basis_and_slope(k, lam, u)[1]
                       + kappa**2 * _basis_and_slope(j, lam, u)[0] * _basis_and_slope(k, lam, u)[0],
                       0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        weight = quad(lambda u: _basis_and_slope(j, lam, u)[0] * _basis_and_slope(k, lam, u)[0] * np.exp(-u) / u,
                      0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        assert a[j, k] == pytest.approx(kinetic, rel=1e-10, abs=1e-12)
        assert w[j, k] == pytest.approx(weight, rel=1e-10, abs=1e-12)
    assert np.count_nonzero(np.triu(a, 2)) == 0  # tridiagonal


@pytest.mark.parametrize("r0", [0.05, R0_SIGMA, 1.43])
def test_ritz_depth_falls_with_the_basis_and_converges(r0):
    _, k, _ = deuteron._scales(ProblemTemplate(), r0)
    kappa = (-C.e0_binding / k) ** 0.5
    lam = max(2.0 * kappa, 1.5 * kappa**0.5)
    depths = []
    for n in (5, 10, 20, 40, 80, 160):  # the lowest V0 of A c = V0 W c, by a dense generalized eigensolver
        a, b = deuteron._laguerre_pencil(n, lam, kappa)
        depths.append(k / scipy.linalg.eigh(b @ b.T, a, eigvals_only=True)[-1])
    # nested bases: each depth is at most the last one, up to the rounding of the converged ones
    assert all(fine <= coarse * (1.0 + 1e-12) for coarse, fine in zip(depths, depths[1:]))
    assert depths[0] > depths[-1] * (1.0 + 1e-6)
    assert depths[-2] == pytest.approx(depths[-1], rel=2e-10)
    assert exact_depth(r0) == pytest.approx(depths[-1], rel=1e-12)


def test_exact_depth_at_the_sigma_range():
    v_exact = exact_depth(R0_SIGMA)
    assert v_exact == pytest.approx(598.71626455, rel=1e-9)
    assert solve_depth(R0_SIGMA, ProblemTemplate()).depth > v_exact


@pytest.mark.parametrize("r0, depth", [(0.72, 164.11059747), (1.43, 48.85080632), (0.05, 28300.273372)])
def test_exact_depth_pinned(r0, depth):
    # 0.05 fm is below the ranges a finite difference on a box of 10/kappa could reach: exp(-r/r0) underflowed there
    assert exact_depth(r0) == pytest.approx(depth, rel=1e-9)


def test_exact_depth_refuses_a_range_its_bases_cannot_resolve():
    with pytest.raises(RefinementError, match=r"exact depth at r0=0\.01 fm unconverged: 698814\.\d+ MeV with 80 "):
        exact_depth(0.01)


def test_problem_inputs_rejected():
    for r0 in (0.0, -1.0, np.inf, np.nan, 1e-300, 1e300):
        with pytest.raises(ValueError, match="range r0 must be positive"):
            solve_depth(r0, ProblemTemplate())
        with pytest.raises(ValueError, match="range r0 must be positive"):
            energy_expectation(_fuzzy(MU), 100.0, r0, 1.0)
        with pytest.raises(ValueError, match="range r0 must be positive"):
            trial_samples(ProblemTemplate(), r0, 1.0, np.linspace(1.0, 10.0, 4))
    for alpha in (0.0, -0.5, np.inf, np.nan):
        with pytest.raises(ValueError, match="alpha must be positive"):
            energy_expectation(ProblemTemplate(), 100.0, 1.0, alpha)
        with pytest.raises(ValueError, match="alpha must be positive"):
            trial_samples(ProblemTemplate(), 1.0, alpha, np.linspace(1.0, 10.0, 4))
    for mass in (0.0, -MU, np.inf, np.nan):
        with pytest.raises(ValueError, match="smearing mass must be finite and positive"):
            ProblemTemplate(C, smearing_mass=mass)


def test_exact_depth_rejects_nonpositive_range():
    for r0 in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="range r0 must be positive"):
            exact_depth(r0)


# (V0 MeV, r0 fm) -> ground energy (MeV) of the Numerov shooting oracle that the
# eigenproblem replaced: outward integration with node counting, h = 0.005 fm,
# 40 fm window.  Each energy is the pair's binding target in depth space.
SHOOTING_ENERGY = {
    (660.77, R0_SIGMA): -9.35271,
    (300.0, 0.6): -20.55435,
    (100.0, 1.0): -4.58367,
    (50.089, 1.43): -2.62394,
    (173.48, 0.72): -3.88321,
}


def test_variational_upper_bound_property():
    for (v0, r0), e in SHOOTING_ENERGY.items():
        constants = C.with_overrides(e0_binding=e)
        v_exact = exact_depth(r0, constants)
        assert v_exact == pytest.approx(v0, rel=3e-4)
        assert solve_depth(r0, ProblemTemplate(constants)).depth >= v_exact


# --- eigenfunction push-out ---------------------------------------------------------


def test_fuzzy_trial_pushed_out_in_momentum(fuzzy_template):
    for r0 in (R0_SIGMA, 0.72):
        vo = solve_depth(r0, ProblemTemplate())
        vf = solve_depth(r0, fuzzy_template)
        # in both measures the radial density is u^2 exp(-2 alpha u), so <p> = 3/(2 alpha r0):
        # a smaller alpha* pushes the state out to larger momenta
        assert vf.alpha_star < vo.alpha_star
