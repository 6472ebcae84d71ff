"""Command-line surface: machine-readable tables and reports for every headline result.

Outputs are deterministic: identical command line plus config produce
byte-identical files (no timestamps; fixed float formatting) on the same
machine with the same numpy, BLAS and BLAS thread count.  Across BLAS
thread counts only the numbers are promised; the oscillator files at
--omega 0.01 in each truncation and at 0.3 and 3 exact were byte-identical
with one and two OpenBLAS threads on a 2-core host.
Exit codes: 0 all checks pass, 1 numerical check failure, 2 usage or config
error, or an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .constants import _SCALE_RANGE, _SPAN, DEFAULT_CONSTANTS, PhysicalConstants
from .errors import BracketingError, ContractError, OverflowGuardError, RefinementError

_NOMINAL_ORDER = 2.0  # central-difference ladder
_ORDER_TOL = 0.3
_MAX_LADDER_POINTS = 65_536  # finest commutator ladder grid, n0 * 2^(levels - 1)
_LADDER_CUTOFF = 8.0  # cutoff of the [X_f, P] ladder, the window the Robertson states are drawn for, in units of --mass
_MAX_GRID_POINTS = 8_192  # --npoints
_HARMONIC_RATIO_MAX = 2.0**52  # --omega/--mass of the quadratic closed form: its spacing w spans two roundings of w^2/2m
_PION_RANGE_FM = 1.43  # range of the pion-range depths and trial wavefunctions


@dataclass
class RunConfig:
    constants: PhysicalConstants
    out: Path
    fmt: str
    command_line: str


def _load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line (expected key=value): {raw!r}")
        k, v = (part.strip() for part in line.split("=", 1))
        if k in out:
            raise ValueError(f"duplicate config key {k!r}")
        out[k] = v
    return out


def _build_run_config(args: argparse.Namespace, argv: list[str]) -> RunConfig:
    overrides = _load_config_file(args.config) if args.config else {}
    known = DEFAULT_CONSTANTS.as_dict()
    unknown = [k for k in overrides if k not in known]
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}")
    constants = DEFAULT_CONSTANTS.with_overrides(**{k: float(v) for k, v in overrides.items()})
    out = Path(args.out or "fuzzyqm_out")
    if any(p.exists() and not p.is_dir() for p in (out, *out.parents)):
        raise ValueError(f"output directory {str(out)!r} names an existing file")
    return RunConfig(constants, out, args.format or "csv", " ".join(argv))


@lru_cache(maxsize=None)
def _row_format(types: tuple[type, ...]) -> str:
    """%-template of a CSV row with cells of these types: floats to 12 significant digits, the rest by str."""
    return ",".join("%.12g" if issubclass(t, float) else "%s" for t in types)


def _header(cfg: RunConfig) -> dict[str, object]:
    """What every output file states first: the tool, the command line and the physical constants in effect."""
    constants = dict(sorted(cfg.constants.as_dict().items()))
    return {"tool": f"fuzzyqm {__version__}", "command": cfg.command_line, "config": constants}


def _write_table(cfg: RunConfig, name: str, columns: list[str], rows: list[list[object]] | np.ndarray) -> Path:
    """Write rows of cells, or a float matrix, as <name>.csv or <name>.json under the output directory, and say so.

    A row list formats each row with the template of its cell types; a float matrix is all floats, so one
    template formats it in a single operation.  JSON goes through ``_write_report``.
    """
    matrix = isinstance(rows, np.ndarray)
    if cfg.fmt == "json":
        cells = rows.tolist() if matrix else rows
        return _write_report(cfg, name, {"columns": columns, "rows": [dict(zip(columns, r)) for r in cells]})
    cfg.out.mkdir(parents=True, exist_ok=True)
    path = cfg.out / f"{name}.csv"
    header = _header(cfg)
    header["config"] = " ".join(f"{k}={v:.12g}" for k, v in header["config"].items())  # all floats
    lines = [f"# {k}: {v}" for k, v in header.items()]
    lines.append(",".join(columns))
    if not matrix:
        lines.extend(_row_format(tuple(map(type, r))) % tuple(r) for r in rows)
    elif rows.size:
        lines.append("\n".join([_row_format((float,) * rows.shape[1])] * len(rows)) % tuple(rows.ravel().tolist()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return path


def _json_cells(obj: object) -> object:
    """``obj`` with each non-finite float (CSV's ``nan`` and ``inf``) replaced by None, which JSON writes as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_cells(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_cells(v) for v in obj]
    return obj


def _write_report(cfg: RunConfig, name: str, payload: dict) -> Path:
    """Write the header and payload as <name>.json under the output directory, and say so; nan and inf are null."""
    cfg.out.mkdir(parents=True, exist_ok=True)
    path = cfg.out / f"{name}.json"
    doc = _json_cells({"header": _header(cfg), **payload})
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return path


# ----------------------------------------------------------------------------
# commutators


def _ladder_order(coarse: tuple[float, float], fine: tuple[float, float]) -> tuple[float, str]:
    """Convergence order of a residual between two (residual, grid spacing) points, and its status."""
    order = float(np.log(coarse[0] / fine[0]) / np.log(coarse[1] / fine[1]))
    return order, "OK" if abs(order - _NOMINAL_ORDER) <= _ORDER_TOL else "FAIL"


def _exit_code(command: str, rows: list[list[object]], status_column: int) -> int:
    """1, said once on stderr, when a written row's status reads FAIL; else 0."""
    if any(r[status_column] == "FAIL" for r in rows):
        print(f"{command}: FAILED invariant (see status column)", file=sys.stderr)
        return 1
    return 0


def cmd_commutators(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .numerics.grids import MomentumGrid
    from .operators import (
        SmearingParams,
        random_smooth_state,
        uncertainty_report,
        verify_commutator_xf_p,
        verify_spacetime_commutator,
    )

    mass = args.mass
    s = SmearingParams(mass)
    rows: list[list[object]] = []

    # [X_f, P] ladder, each order measured against the next coarser grid
    coarse = None
    for n in (args.n0 * 2**k for k in range(args.levels)):
        grid = MomentumGrid.symmetric(n, _LADDER_CUTOFF * mass)
        fine = (verify_commutator_xf_p(grid, s), grid.spacing)
        order, status = _ladder_order(coarse, fine) if coarse else (float("nan"), "-")
        rows.append(["commutator_xf_p", n, fine[0], order, status])
        coarse = fine

    # Robertson inequality over random smooth states, drawn for the ladder's window
    rng = np.random.default_rng(20240801)
    violations = 0
    for _ in range(args.states):
        rep = uncertainty_report(random_smooth_state(grid, rng), s)
        if rep.dxf * rep.dp < rep.bound - 1e-9:
            violations += 1
    rows.append(["robertson", args.states, float(violations), float("nan"), "OK" if violations == 0 else "FAIL"])

    # two-component spacetime commutator ladder, its order measured end to end
    points = []
    for n in (48, 64, 96, 128):
        axis = MomentumGrid.symmetric(n, 6.0 * mass)
        points.append((verify_spacetime_commutator(axis, s).residual, axis.spacing))
        rows.append(["spacetime", n, points[-1][0], float("nan"), "-"])
    rows.append(["spacetime_order", n, points[-1][0], *_ladder_order(points[0], points[-1])])

    _write_table(cfg, "commutators", ["check", "N", "residual", "measured_order", "status"], rows)
    return _exit_code("commutators", rows, 4)


# ----------------------------------------------------------------------------
# oscillator


def cmd_oscillator(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .oscillator import (
        OscillatorSpec,
        anharmonic_shift,
        anharmonic_spectrum_formula,
        default_grid,
        eigenfunction,
        harmonic_spectrum_formula,
        numeric_spectrum,
    )

    spec = OscillatorSpec(args.omega, args.mass, args.truncation)
    quartic = OscillatorSpec(spec.omega, spec.mass, "quartic")
    n = np.arange(args.nmax + 1)
    if spec.truncation == "quadratic":
        formula = harmonic_spectrum_formula(spec, args.nmax)
        # the truncation's own levels, which the closed form expands to O(w^2/m): a right level lies as far from
        # the formula as they do, up to its rounding
        exact = (n + 0.5) * spec.omega * np.sqrt(1.0 + spec.omega_over_mass**2) - spec.omega**2 / (2.0 * spec.mass)
        budget = np.abs(exact - formula.energies) + 1e-9 * np.abs(exact)
        breakdown = (False,) * (args.nmax + 1)
    else:
        formula = anharmonic_spectrum_formula(quartic, args.nmax)
        # a tenth of the anharmonic shift, or 1e-13 of the level where that shift falls below the levels' rounding
        budget = np.maximum(0.1 * anharmonic_shift(quartic, n), 1e-13 * np.abs(formula.energies))
        breakdown = formula.breakdown
    # the levels and the first two anharmonic (diagonalised quartic) eigenfunctions, both solved before any file
    # is written
    grid = default_grid(quartic, 1, args.npoints)
    try:
        diag = numeric_spectrum(spec, args.nmax)
        res = numeric_spectrum(quartic, 1, grid=grid)
    except RefinementError as exc:
        print(f"oscillator: {exc}", file=sys.stderr)
        return 1

    rows: list[list[object]] = []
    for i in range(args.nmax + 1):
        ef, ed = formula.energies[i], diag.energies[i]
        dev = abs(ed - ef)
        status = "-" if spec.truncation == "exact" else "OK" if dev <= budget[i] else "FAIL"
        warn = "perturbative-breakdown" if breakdown[i] else "-"
        rows.append([int(i), ef, ed, dev, dev / abs(ef) if ef else float("nan"), float(budget[i]), status, warn])
    _write_table(
        cfg,
        "oscillator_spectrum",
        ["n", "E_formula_MeV", "E_diag_MeV", "abs_dev_MeV", "rel_dev", "budget_MeV", "status", "warning"],
        rows,
    )

    harm_spec = OscillatorSpec(spec.omega, spec.mass, "quadratic")
    columns = [grid.points]
    for i in (0, 1):
        try:
            harm = eigenfunction(harm_spec, i, grid)
        except ContractError:  # omega >= mass/2: no closed-form state that decays in dp
            harm = np.full(grid.n, np.nan)
        columns += [harm, res.eigenfunctions[i]]
    _write_table(
        cfg,
        "oscillator_eigenfunctions",
        ["p_MeV", "psi_harmonic_n0", "psi_anharmonic_n0", "psi_harmonic_n1", "psi_anharmonic_n1"],
        np.column_stack(columns),
    )
    return _exit_code("oscillator", rows, 6)


# ----------------------------------------------------------------------------
# deuteron


def _parse_r0_list(values: list[str]) -> list[float]:
    """Ranges (fm) from comma-separated --r0 values; ValueError names the first out of range, or a list naming none."""
    lo, hi = _SCALE_RANGE
    out: list[float] = []
    for tok in filter(None, ",".join(values).split(",")):
        try:
            r0 = float(tok)
        except ValueError:
            r0 = float("nan")
        if not lo <= r0 <= hi:
            raise ValueError(f"--r0 must be a positive range in fm, {_SPAN}, got {tok!r}")
        out.append(r0)
    if values and not out:
        raise ValueError(f"--r0 names no range, got {','.join(values)!r}")
    return out


def _argument_error(args: argparse.Namespace) -> str | None:
    """One line naming the first argument outside its domain, or None."""
    lo, hi = _SCALE_RANGE
    if args.command == "commutators":
        checks = [
            (args.levels >= 2, "--levels must be at least 2 to measure a convergence order"),
            (args.n0 >= 8, "--n0 must be at least 8 grid points"),
            (args.n0 <= _MAX_LADDER_POINTS >> max(args.levels - 1, 0),  # a shift builds no huge integer
             f"the finest ladder grid, --n0 * 2^(--levels - 1), must be at most {_MAX_LADDER_POINTS} points"),
            (lo <= args.mass <= hi, f"--mass must be finite and positive, {_SPAN}"),
            (args.states >= 1, "--states must be at least 1 random state"),
        ]
    elif args.command == "oscillator":
        from .oscillator import MAX_LEVELS

        checks = [
            (lo <= args.omega <= hi and lo <= args.mass <= hi, f"--omega and --mass must be finite and positive, {_SPAN}"),
            (args.truncation != "quadratic" or args.omega <= _HARMONIC_RATIO_MAX * args.mass,
             f"--truncation quadratic needs --omega/--mass <= {_HARMONIC_RATIO_MAX:.2g}: w is lost in rounding w^2/2m"),
            (args.nmax >= 0, "--nmax must be nonnegative"),
            (8 <= args.npoints <= _MAX_GRID_POINTS, f"--npoints must lie in [8, {_MAX_GRID_POINTS}] grid points"),
            (args.nmax < MAX_LEVELS, f"--nmax must be at most {MAX_LEVELS - 1}"),
        ]
    else:
        if args.action != "range-depth" and (args.variant is not None or args.r0 is not None):
            return f"deuteron {args.action}: --variant and --r0 apply only to range-depth"
        try:
            _parse_r0_list(args.r0 or [])
        except ValueError as exc:
            return f"deuteron: {exc}"
        return None
    return next((f"{args.command}: {msg}" for ok, msg in checks if not ok), None)


def _fuzzy_template(cfg: RunConfig) -> tuple[ProblemTemplate, dict[str, object], CalibrationResult]:
    """Smeared template at the calibrated mass, its output metadata and the calibration itself."""
    from .deuteron import ProblemTemplate, calibrate_smearing_mass

    cal = calibrate_smearing_mass(cfg.constants)
    meta: dict[str, object] = {
        "variant": "fuzzy",
        "smearing_mass_MeV": cal.mass,
        "smearing_mass_choice": cal.choice,
        "calibration_depths_MeV": {k: p.depth for k, p in sorted(cal.points.items())},
        "calibration_target_MeV": cal.target,
    }
    return ProblemTemplate(cfg.constants, smearing_mass=cal.mass), meta, cal


def cmd_deuteron(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .deuteron import ProblemTemplate, core_radius, coupling_report, effective_potential, solve_depth, trial_samples

    c = cfg.constants
    stage = "calibration"
    try:
        if args.action == "range-depth":
            template = _fuzzy_template(cfg)[0] if args.variant == "fuzzy" else ProblemTemplate(c)
            r0s = _parse_r0_list(args.r0) if args.r0 else [c.r0_sigma_fm]
            rows, reasons = [], []
            for r0 in r0s:  # a range that fails is a NaN row with its reason, and the others go on
                try:
                    p = solve_depth(r0, template)
                    rows.append([p.r0, p.depth, p.alpha_star, bool(np.isfinite(p.depth))])
                except RefinementError as exc:
                    rows.append([r0, float("nan"), float("nan"), False])
                    reasons.append(f"deuteron range-depth: {exc}")
            _write_table(cfg, "deuteron_range_depth", ["r0_fm", "depth_MeV", "alpha_star", "converged"], rows)
            for r0, depth, alpha_star, solved in rows:
                print(f"r0={r0:g} fm: depth={depth:.4f} MeV (alpha*={alpha_star:.4f}, converged={solved})")
            failed = [f"{r0:g}" for r0, _, _, solved in rows if not solved]
            if failed:
                for reason in reasons:
                    print(reason, file=sys.stderr)
                print(f"deuteron range-depth: unconverged at r0 = {', '.join(failed)} fm", file=sys.stderr)
                return 1
            return 0

        fuzzy_tpl, meta, cal = _fuzzy_template(cfg)
        if args.action == "core-radius":
            stage = "core radius"
            res = core_radius(fuzzy_tpl)
            payload = {
                "core_radius_fm": res.r_c,
                "bracket": {
                    "lo_fm": res.bracket_lo,
                    "hi_fm": res.bracket_hi,
                    "depth_at_lo_MeV": res.depth_lo,
                    "depth_at_hi_MeV": res.depth_hi,
                },
                "metadata": meta,
            }
            _write_report(cfg, "deuteron_core_radius", payload)
            print(f"core radius r_c = {res.r_c:.4f} fm (depth sign change {res.depth_lo:.1f} -> {res.depth_hi:.1f} MeV)")
            return 0

        # couplings: the full pipeline
        p_fuz = cal.points[cal.choice]  # the smeared depth at the sigma range, solved by the calibration
        ordinary_tpl = ProblemTemplate(c)
        stage = "ordinary depth"
        p_ord = solve_depth(c.r0_sigma_fm, ordinary_tpl)
        stage = "core radius"
        rc = core_radius(fuzzy_tpl)
        stage = "pion-range depths"
        pion = (solve_depth(_PION_RANGE_FM, ordinary_tpl), solve_depth(_PION_RANGE_FM, fuzzy_tpl))
        # optimal trial states at the pion and sigma ranges (smeared vs ordinary), sampled before any file is
        # written; a solved point's alpha_star is also the energy minimiser at its depth
        stage = "trial wavefunctions"
        p_axis = np.linspace(1.0, 1200.0, 400)
        wavefunctions = {}
        for o, f in (pion, (p_ord, p_fuz)):
            psi_o, _ = trial_samples(ordinary_tpl, o.r0, o.alpha_star, p_axis)
            psi_f, phi_f = trial_samples(fuzzy_tpl, o.r0, f.alpha_star, p_axis)
            wavefunctions[f"{o.r0:g}".replace(".", "p")] = np.column_stack([p_axis, psi_o, psi_f, phi_f])
    except (BracketingError, ContractError, OverflowGuardError, RefinementError) as exc:
        print(f"deuteron {args.action}: stage '{stage}' failed: {exc}", file=sys.stderr)
        return 1

    report = coupling_report(c, p_ord.depth, p_fuz.depth)
    payload = {
        "couplings": {
            "V0_MeV": p_ord.depth,
            "V0_prime_MeV": p_fuz.depth,
            "core_radius_fm": rc.r_c,
            "V1_MeV": report.V1,
            "g_sigma_sq_over_4pi": report.g_sigma_sq_over_4pi,
            "g_omega_sq_over_4pi": report.g_omega_sq_over_4pi,
            "ratio": report.ratio,
            "g_omega_phenom_sq_over_4pi": report.g_omega_phenom_sq_over_4pi,
            "phenom_reference": c.g_omega_phenom_sq_over_4pi,
            "phenom_deviation_percent": report.phenom_deviation_percent,
            "r0_fm": c.r0_sigma_fm,
            "r1_fm": c.r1_omega_fm,
        },
        "metadata": meta,
    }
    _write_report(cfg, "deuteron_couplings", payload)

    r_grid = np.arange(0.05, 3.0001, 0.005)
    v = effective_potential(p_ord.depth, report.V1, c.r0_sigma_fm, c.r1_omega_fm, r_grid)
    _write_table(cfg, "effective_potential", ["r_fm", "V_MeV"], np.column_stack([r_grid, v]))

    for tag, samples in wavefunctions.items():
        _write_table(
            cfg, f"deuteron_wavefunctions_r0_{tag}", ["p_MeV", "psi_ordinary", "psi_fuzzy", "phi_fuzzy"], samples
        )

    print(
        f"V0={p_ord.depth:.2f} MeV, V0'={p_fuz.depth:.2f} MeV, r_c={rc.r_c:.4f} fm, "
        f"V1={report.V1:.2f} MeV, g_sigma^2/4pi={report.g_sigma_sq_over_4pi:.4f}, "
        f"g_omega^2/4pi={report.g_omega_sq_over_4pi:.4f}, ratio={report.ratio:.4f}, "
        f"prediction={report.g_omega_phenom_sq_over_4pi:.4f} "
        f"({report.phenom_deviation_percent:+.2f}% vs {c.g_omega_phenom_sq_over_4pi})"
    )
    return 0


# ----------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fuzzyqm", description=__doc__)
    ap.add_argument("--config", help="key=value config file of physical constants")
    ap.add_argument("--out", help="output directory (default fuzzyqm_out)")
    ap.add_argument("--format", choices=("csv", "json"), help="table format (default csv)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("commutators", help="commutator and uncertainty verification ladder")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--mass", type=float, default=1.0, help="smearing mass (MeV); large = point-particle limit")
    p.add_argument("--n0", type=int, default=128, help="coarsest ladder grid size")
    p.add_argument("--states", type=int, default=1000, help="random states for the uncertainty bound suite")

    p = sub.add_parser("oscillator", help="fuzzy oscillator spectrum: formula vs diagonalisation")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--mass", type=float, required=True)
    p.add_argument("--truncation", choices=("quadratic", "quartic", "exact"), default="quadratic")
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--npoints", type=int, default=512)

    p = sub.add_parser("deuteron", help="range-depth relation, core radius, meson couplings")
    p.add_argument("action", choices=("range-depth", "core-radius", "couplings"))
    p.add_argument("--variant", choices=("ordinary", "fuzzy"), help="range-depth only (default ordinary)")
    p.add_argument("--r0", action="append", help="range-depth only: range(s) in fm, comma separated or repeated")

    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    problem = _argument_error(args)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    try:
        cfg = _build_run_config(args, ["fuzzyqm"] + argv)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "commutators":
            return cmd_commutators(cfg, args)
        if args.command == "oscillator":
            return cmd_oscillator(cfg, args)
        return cmd_deuteron(cfg, args)
    except OSError as exc:  # an output file that cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
