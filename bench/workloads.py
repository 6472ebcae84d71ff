"""The three benchmark workloads: one operation each, with its output checks.

Each workload object exposes ``run()``, which performs one operation and
returns the list of problems its output checks found (empty when correct).
An exception raised by the program counts as a failed operation; the runner
catches it.  Inputs come only from the seed; the tolerances are the
acceptance tolerances of the test suite and the CLI's budgets.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from fuzzyqm import cli, deuteron, operators, oscillator
from fuzzyqm.numerics.grids import MomentumGrid

# deuteron chain: the headline references and their acceptance tolerances
V0_REF, V0_RTOL = 660.77, 0.02
V0_PRIME_REF, V0_PRIME_RTOL = -81.0, 0.10
RC_REF, RC_ATOL = 0.563, 0.03

# operator checks: CLI defaults (mass 1, cutoff 8 mass, 512-point Robertson grid)
MASS, CUTOFF_MULT, ROBERTSON_POINTS, ROBERTSON_STATES = 1.0, 8.0, 512, 100
LADDER = (128, 256, 512, 1024)
SPACETIME_LADDER = (48, 64, 96, 128)
NOMINAL_ORDER, ORDER_TOL = 2.0, 0.3

# oscillator spectra: omega range over which every truncation passes its budget
OMEGA_RANGE = (0.005, 0.02)
OSC_NMAX, OSC_POINTS = 3, 1024


class DeuteronChain:
    """``fuzzyqm deuteron couplings`` run in-process; the inputs are fixed, the seed is unused."""

    def __init__(self, seed: int, tmp: Path):
        self.out = tmp / "out"
        self.argv = ["--out", str(self.out), "deuteron", "couplings"]
        self.digest: str | None = None
        self.layer_counts: dict[str, float] = {}
        # bound now: a traced run replaces the module's name with a wrapper that has no cache
        self.clear_calibration = deuteron.calibrate_smearing_mass.cache_clear

    def run(self) -> list[str]:
        # every CLI process pays for the calibration sweep, so no operation may reuse it
        self.clear_calibration()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        if code != 0:
            return [f"exit code {code}"]
        files = sorted(p for p in self.out.iterdir() if p.is_file())
        digest = hashlib.sha256()
        for p in files:
            digest.update(p.name.encode() + b"\0" + p.read_bytes())
        self.layer_counts = {"cli.bytes_written": sum(p.stat().st_size for p in files)}
        problems = []
        if self.digest is None:
            self.digest = digest.hexdigest()
        elif digest.hexdigest() != self.digest:
            problems.append("output files differ from the first operation's")
        c = json.loads((self.out / "deuteron_couplings.json").read_text(encoding="utf-8"))["couplings"]
        v0, v0p, rc = c["V0_MeV"], c["V0_prime_MeV"], c["core_radius_fm"]
        if not abs(v0 / V0_REF - 1.0) <= V0_RTOL:
            problems.append(f"V0 = {v0!r} not within {V0_RTOL:.0%} of {V0_REF}")
        if not (v0p < 0 and abs(v0p / V0_PRIME_REF - 1.0) <= V0_PRIME_RTOL):
            problems.append(f"V0' = {v0p!r} not negative within {V0_PRIME_RTOL:.0%} of {V0_PRIME_REF}")
        if not abs(rc - RC_REF) <= RC_ATOL:
            problems.append(f"r_c = {rc!r} fm not within {RC_ATOL} fm of {RC_REF}")
        return problems


def _order(res_a: float, res_b: float, h_a: float, h_b: float) -> float:
    return float(np.log(res_a / res_b) / np.log(h_a / h_b))


class OperatorChecks:
    """The ``commutators`` pipeline through ``operators``: two ladders and the Robertson suite."""

    def __init__(self, seed: int, tmp: Path):
        self.rng = np.random.default_rng(seed)
        self.smearing = operators.SmearingParams(MASS)
        self.layer_counts: dict[str, float] = {}

    def run(self) -> list[str]:
        s = self.smearing
        problems = []
        grids = [MomentumGrid.symmetric(n, CUTOFF_MULT * MASS) for n in LADDER]
        res = [operators.verify_commutator_xf_p(g, s, scheme="central") for g in grids]
        for i in range(1, len(grids)):
            order = _order(res[i - 1], res[i], grids[i - 1].spacing, grids[i].spacing)
            if not abs(order - NOMINAL_ORDER) <= ORDER_TOL:
                problems.append(f"[X_f, P] ladder order {order:.3f} at N={LADDER[i]}")

        axes = [MomentumGrid.symmetric(n, 6.0 * MASS) for n in SPACETIME_LADDER]
        st = [operators.verify_spacetime_commutator(a, s).residual for a in axes]
        order = _order(st[0], st[-1], axes[0].spacing, axes[-1].spacing)
        if not abs(order - NOMINAL_ORDER) <= ORDER_TOL:
            problems.append(f"spacetime commutator ladder order {order:.3f}")

        grid = MomentumGrid.symmetric(ROBERTSON_POINTS, CUTOFF_MULT * MASS)
        violations = 0
        for _ in range(ROBERTSON_STATES):
            rep = operators.uncertainty_report(operators.random_smooth_state(grid, self.rng), s)
            violations += rep.dxf * rep.dp < rep.bound - 1e-9
        if violations:
            problems.append(f"{violations} Robertson violations in {ROBERTSON_STATES} states")
        return problems


class OscillatorSpectra:
    """Quadratic, quartic and exact spectra with the refinement check, omega drawn from the seed."""

    def __init__(self, seed: int, tmp: Path):
        self.rng = np.random.default_rng(seed)
        self.layer_counts: dict[str, float] = {}

    def run(self) -> list[str]:
        omega = float(self.rng.uniform(*OMEGA_RANGE))
        n = np.arange(OSC_NMAX + 1)
        problems = []
        for truncation in ("quadratic", "quartic", "exact"):
            spec = oscillator.OscillatorSpec(omega, MASS, truncation)
            got = np.array(
                oscillator.numeric_spectrum(spec, OSC_NMAX, n_points=OSC_POINTS, check_refinement=True).energies
            )
            # the budgets of ``fuzzyqm oscillator``
            if truncation == "quadratic":
                want = oscillator.harmonic_spectrum_formula(spec, OSC_NMAX).energies
                budget = 4.0 * (n + 0.5) * spec.omega_over_mass**3 * spec.mass
            elif truncation == "quartic":
                want = oscillator.anharmonic_spectrum_formula(spec, OSC_NMAX).energies
                budget = 0.1 * oscillator.anharmonic_shift(spec, n)
            else:
                if not np.all(np.isfinite(got)):
                    problems.append(f"exact spectrum not finite at omega={omega!r}")
                continue
            dev = np.abs(got - np.array(want))
            if np.any(dev > budget):
                problems.append(f"{truncation} levels {dev.tolist()} exceed budget {budget.tolist()} at omega={omega!r}")
        return problems


WORKLOADS = {
    "deuteron-chain": DeuteronChain,
    "operator-checks": OperatorChecks,
    "oscillator-spectra": OscillatorSpectra,
}
