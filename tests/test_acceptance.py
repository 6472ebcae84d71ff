"""End-to-end acceptance criteria, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fuzzyqm.constants import DEFAULT_CONSTANTS
from fuzzyqm.deuteron import (
    ProblemTemplate,
    calibrate_smearing_mass,
    core_radius,
    coupling_report,
    energy_expectation,
    exact_depth,
    repulsive_strength,
    solve_depth,
)
from fuzzyqm.numerics import MomentumGrid, apply_d1
from fuzzyqm.operators import (
    SmearingParams,
    fuzzy_angular_eigenvalue,
    random_smooth_state,
    uncertainty_report,
    verify_commutator_xf_p,
)
from fuzzyqm.oscillator import (
    OscillatorSpec,
    anharmonic_shift,
    anharmonic_spectrum_formula,
    harmonic_spectrum_formula,
    numeric_spectrum,
)

C = DEFAULT_CONSTANTS
CLI = [sys.executable, "-m", "fuzzyqm.cli"]


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _run_cli(out: Path, *args: str) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(CLI + ["--out", str(out), *args], capture_output=True, text=True)
    return time.perf_counter() - t0, proc


def _read_depth(path: Path) -> float:
    body = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    cols = body[0].split(",")
    row = dict(zip(cols, body[1].split(",")))
    return float(row["depth_MeV"])


def test_criterion_1_ordinary_range_depth_headline(tmp_path):
    elapsed, proc = _run_cli(tmp_path, "deuteron", "range-depth", "--variant", "ordinary", "--r0", "0.3596")
    depth = _read_depth(tmp_path / "deuteron_range_depth.csv")
    ok = proc.returncode == 0 and abs(depth / 660.77 - 1.0) <= 0.02 and elapsed <= 10.0
    assert _report(
        "1 (ordinary depth)", ok, f"V0={depth:.2f} MeV vs 660.77 (+/-2%), runtime {elapsed:.1f}s <= 10s"
    )


def test_criterion_2_fuzzy_range_depth_headline(tmp_path):
    elapsed, proc = _run_cli(tmp_path, "deuteron", "range-depth", "--variant", "fuzzy", "--r0", "0.3596")
    depth = _read_depth(tmp_path / "deuteron_range_depth.csv")
    ok = (
        proc.returncode == 0
        and depth < 0.0
        and abs(depth / -81.0 - 1.0) <= 0.10
        and elapsed <= 60.0
    )
    assert _report(
        "2 (fuzzy depth)", ok, f"V0'={depth:.2f} MeV vs -81.0 (+/-10%), negative, runtime {elapsed:.1f}s <= 60s"
    )


@pytest.fixture(scope="module")
def fuzzy_template():
    cal = calibrate_smearing_mass(C)
    return ProblemTemplate(C, smearing_mass=cal.mass)


def test_criterion_3_core_radius(fuzzy_template):
    res = core_radius(fuzzy_template)
    ok = abs(res.r_c - 0.563) <= 0.03 and res.depth_lo * res.depth_hi < 0
    assert _report(
        "3 (core radius)",
        ok,
        f"r_c={res.r_c:.4f} fm vs 0.563 (+/-0.03), bracket depths {res.depth_lo:.1f}/{res.depth_hi:.1f} MeV",
    )


def test_criterion_4_repulsive_strength():
    v1 = repulsive_strength(660.77, -81.0, C.r0_sigma_fm, C.r1_omega_fm)
    ok = abs(v1 / 1419.07 - 1.0) <= 0.005
    assert _report("4 (repulsive strength)", ok, f"V1={v1:.2f} MeV vs 1419.07 (+/-0.5%)")


def test_criterion_5_couplings():
    rep = coupling_report(C, 660.77, -81.0)
    checks = {
        "g_sigma": abs(rep.g_sigma_sq_over_4pi / 1.20 - 1.0) <= 0.01,
        "g_omega": abs(rep.g_omega_sq_over_4pi / 1.815 - 1.0) <= 0.01,
        "ratio": abs(rep.ratio / 1.512 - 1.0) <= 0.01,
        "prediction": abs(rep.g_omega_phenom_sq_over_4pi / 11.03 - 1.0) <= 0.02,
        "deviation noted": abs(rep.phenom_deviation_percent - 1.85) <= 0.2,
    }
    ok = all(checks.values())
    assert _report(
        "5 (couplings)",
        ok,
        f"g_s={rep.g_sigma_sq_over_4pi:.4f}, g_w={rep.g_omega_sq_over_4pi:.4f}, "
        f"ratio={rep.ratio:.4f}, pred={rep.g_omega_phenom_sq_over_4pi:.3f}, "
        f"dev={rep.phenom_deviation_percent:.2f}% vs 10.83; {checks}",
    )


# Exact depths from an independent 3-point finite-difference ground state:
# u'' discretised on r_i = i h, h = R/(n+1), R = 60 fm, u(0) = u(R) = 0; the
# lowest eigenvalue of the tridiagonal Hamiltonian is root-found in V0 until it
# equals the binding energy, at n = 6000, 12000 and 24000.  Richardson
# extrapolation (4 V(2n) - V(n))/3 of the two pairs agrees to 1e-6 MeV
# (164.110598 and 48.850806 MeV), well inside the 1e-4 relative check below.
FINITE_DIFFERENCE_DEPTH = {0.72: 164.1106, 1.43: 48.8508}
# Exact depths from the Numerov shooting oracle that the eigenproblem replaced:
# outward integration with node counting (h = 0.005 fm, 40 fm window) inside a
# Brent root on V0.  It shares no discretisation with exact_depth, whose own
# method is a Rayleigh-Ritz eigenproblem in Laguerre functions.
SHOOTING_DEPTH = {0.72: 164.115770, 1.43: 48.851466}


def _trial_family_min_depth(r0: float) -> float:
    """Smallest depth the trial family exp(-alpha p r0) can bind at E_t.

    From E(alpha) = k alpha^2 - 4 V0 alpha^3/(2 alpha + 1)^2 = E_t, the depth is
    V0(alpha) = (k alpha^2 + |E_t|)(2 alpha + 1)^2/(4 alpha^3) with
    k = (hbar c)^2/(2 mu r0^2); dV0/dalpha = 0 is the cubic
    2k a^3 - k a^2 - 2|E_t| a - 3|E_t| = 0, which has one positive root.
    """
    k = C.hbar_c**2 / (2.0 * C.reduced_mass * r0**2)
    e = abs(C.e0_binding)
    roots = np.roots([2.0 * k, -k, -2.0 * e, -3.0 * e])
    (a,) = [z.real for z in roots if abs(z.imag) < 1e-12 and z.real > 0]
    return (k * a**2 + e) * (2.0 * a + 1.0) ** 2 / (4.0 * a**3)


def test_criterion_6_variational_vs_exact_oracle():
    radii = (0.72, 1.43)
    errors, solver_residual, oracle_residual, shooting_residual = {}, {}, {}, {}
    for r0 in radii:
        v_var = solve_depth(r0, ProblemTemplate()).depth
        v_exact = float(exact_depth(r0))
        errors[r0] = v_var / v_exact - 1.0
        solver_residual[r0] = abs(v_var / _trial_family_min_depth(r0) - 1.0)
        oracle_residual[r0] = abs(v_exact / FINITE_DIFFERENCE_DEPTH[r0] - 1.0)
        shooting_residual[r0] = abs(v_exact / SHOOTING_DEPTH[r0] - 1.0)
    checks = {
        "upper bound": all(errors[r0] >= 0.0 for r0 in radii),
        "decreasing": errors[1.43] < errors[0.72],
        "pion range": errors[1.43] <= 0.05,
        "family minimum": all(solver_residual[r0] <= 1e-6 for r0 in radii),
        "finite difference": all(oracle_residual[r0] <= 1e-4 for r0 in radii),
        "shooting": all(shooting_residual[r0] <= 1e-4 for r0 in radii),
    }
    ok = all(checks.values())
    assert _report(
        "6 (variational vs exact)",
        ok,
        f"signed depth error {100 * errors[0.72]:+.3f}% at 0.72 fm, {100 * errors[1.43]:+.3f}% at 1.43 fm "
        f"(>= 0, decreasing, <= 5% at 1.43 fm); solve_depth vs family minimum "
        f"{solver_residual[0.72]:.1e}/{solver_residual[1.43]:.1e} (<= 1e-6); exact_depth vs finite difference "
        f"{oracle_residual[0.72]:.1e}/{oracle_residual[1.43]:.1e} (<= 1e-4), vs shooting "
        f"{shooting_residual[0.72]:.1e}/{shooting_residual[1.43]:.1e} (<= 1e-4); {checks}",
    )


def test_criterion_7_oscillator_spectra():
    w, m = 0.01, 1.0
    n = np.arange(4)
    t0 = time.perf_counter()
    quad = np.array(numeric_spectrum(OscillatorSpec(w, m, "quadratic"), 3, n_points=1024).energies)
    quart = np.array(numeric_spectrum(OscillatorSpec(w, m, "quartic"), 3, n_points=1024).energies)
    elapsed = time.perf_counter() - t0
    f_quad = np.array(harmonic_spectrum_formula(OscillatorSpec(w, m, "quadratic"), 3).energies)
    f_quart = np.array(anharmonic_spectrum_formula(OscillatorSpec(w, m, "quartic"), 3).energies)
    budget = 4.0 * (n + 0.5) * (w / m) ** 3 * m
    shift = anharmonic_shift(OscillatorSpec(w, m, "quartic"), n)
    quad_ok = np.all(np.abs(quad - f_quad) <= budget)
    quart_ok = np.all(np.abs(quart - f_quart) <= 0.1 * shift)
    ok = bool(quad_ok and quart_ok and elapsed <= 30.0)
    assert _report(
        "7 (oscillator)",
        ok,
        f"quadratic max dev {np.max(np.abs(quad - f_quad)):.2e} (budget {budget[0]:.1e}..{budget[-1]:.1e}), "
        f"quartic max dev/shift {np.max(np.abs(quart - f_quart) / shift):.3f} <= 0.1, "
        f"runtime {elapsed:.1f}s <= 30s at N=1024",
    )


def test_criterion_8_property_suites():
    s = SmearingParams(1.0)
    grid = MomentumGrid.symmetric(256, 8.0)
    rng = np.random.default_rng(8)
    violations = sum(
        1
        for _ in range(1000)
        if (lambda rep: rep.dxf * rep.dp < rep.bound - 1e-9)(uncertainty_report(random_smooth_state(grid, rng), s))
    )

    residuals, spacings = [], []
    for npts in (128, 256, 512, 1024):
        g = MomentumGrid.symmetric(npts, 8.0)
        residuals.append(verify_commutator_xf_p(g, s, scheme="central"))
        spacings.append(g.spacing)
    slope = float(np.polyfit(np.log(spacings), np.log(residuals), 1)[0])
    slope_ok = abs(slope - 2.0) <= 0.3

    # X_f = i G D G and X = i D as the operators' matrix-free route (the central apply_d1) applies them,
    # column by column
    g64 = MomentumGrid.symmetric(64, 8.0)
    g = SmearingParams(1e6 * g64.cutoff).gaussian(g64.points, half=True)
    x = 1j * apply_d1(np.eye(64), g64.spacing)
    xf = 1j * g[:, None] * apply_d1(g[:, None] * np.eye(64), g64.spacing)
    ops_ok = np.max(np.abs(xf - x)) <= 1e-8 * np.max(np.abs(x))

    w = 0.01
    sho = (np.arange(3) + 0.5) * w
    prox = np.array(numeric_spectrum(OscillatorSpec(w, 1e4 * w, "quadratic"), 2).energies)
    osc_ok = np.all(np.abs(prox - sho) <= 1e-4 * sho)

    r0, alpha = 1.0, 1.0
    p99 = 8.406 / (2.0 * alpha) * C.hbar_c / r0
    e_f = energy_expectation(ProblemTemplate(C, smearing_mass=100.0 * p99), 120.0, r0, alpha)
    e_o = energy_expectation(ProblemTemplate(C), 120.0, r0, alpha)
    deut_ok = abs(e_f - e_o) <= 1e-4 * abs(e_o)

    quant_ok = all(
        fuzzy_angular_eigenvalue(k, pr, s) * np.exp(pr**2) == pytest.approx(float(k), abs=1e-12)
        for k in (-2, 0, 1, 4)
        for pr in (0.0, 0.5, 1.5)
    )

    ok = violations == 0 and slope_ok and ops_ok and osc_ok and deut_ok and quant_ok
    assert _report(
        "8 (property suites)",
        ok,
        f"robertson violations={violations}/1000, ladder slope={slope:.3f} (2 +/- 0.3), "
        f"point-particle: operators={ops_ok}, oscillator={osc_ok}, deuteron={deut_ok}; "
        f"angular quantization={quant_ok}",
    )


def test_criterion_9_fuzzy_below_ordinary(fuzzy_template):
    r0s = np.linspace(0.25, 1.5, 10)
    ordinary = [solve_depth(r0, ProblemTemplate()) for r0 in r0s.tolist()]
    fuzzy = [solve_depth(r0, fuzzy_template) for r0 in r0s.tolist()]
    exceptions = [
        (o.r0, o.depth, f.depth) for o, f in zip(ordinary, fuzzy) if not (f.depth < o.depth)
    ]
    ok = len(exceptions) == 0
    assert _report(
        "9 (depth ordering)", ok, f"fuzzy < ordinary at all 10 ranges in [0.25, 1.5] fm; exceptions={exceptions}"
    )
