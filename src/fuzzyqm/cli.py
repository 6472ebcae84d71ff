"""Command-line surface: machine-readable tables and reports for every headline result.

Outputs are deterministic: identical command line plus config produce
byte-identical files (no timestamps; fixed float formatting) on the same
machine with the same numpy, BLAS and BLAS thread count.  A different BLAS
thread count can move the last digits of the oscillator's eigensolves.
Exit codes: 0 all checks pass, 1 numerical check failure, 2 usage or config
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .constants import _SCALE_RANGE, _SPAN, DEFAULT_CONSTANTS, PhysicalConstants
from .deuteron import (
    CalibrationResult,
    ProblemTemplate,
    calibrate_smearing_mass,
    core_radius,
    coupling_report,
    effective_potential,
    solve_depth,
    trial_samples,
)
from .errors import BracketingError, ContractError, OverflowGuardError, RefinementError
from .numerics.grids import MomentumGrid
from .operators import SmearingParams, random_smooth_state, uncertainty_report, verify_commutator_xf_p, verify_spacetime_commutator
from .oscillator import (
    OscillatorSpec,
    anharmonic_shift,
    anharmonic_spectrum_formula,
    default_grid,
    eigenfunction,
    harmonic_spectrum_formula,
    numeric_spectrum,
)

_NOMINAL_ORDER = 2.0  # central-difference ladder
_ORDER_TOL = 0.3
_MAX_LADDER_POINTS = 65_536  # finest commutator ladder grid, n0 * 2^(levels - 1)
_LADDER_CUTOFF = 8.0  # cutoff of the [X_f, P] ladder and the Robertson grid, in units of --mass
_ROBERTSON_POINTS = 512  # grid of the Robertson states
_MAX_GRID_POINTS = 8_192  # --npoints
_HARMONIC_RATIO_MAX = 2.0**52  # --omega/--mass of the quadratic closed form: its spacing w spans two roundings of w^2/2m
_PION_RANGE_FM = 1.43  # range of the pion-range depths and trial wavefunctions


class ConfigError(Exception):
    pass


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
            raise ConfigError(f"malformed config line (expected key=value): {raw!r}")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _build_run_config(args: argparse.Namespace, argv: list[str]) -> RunConfig:
    overrides = _load_config_file(args.config) if args.config else {}
    known = DEFAULT_CONSTANTS.as_dict()
    unknown = [k for k in overrides if k not in known]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    constants = DEFAULT_CONSTANTS.with_overrides(**{k: float(v) for k, v in overrides.items()})
    out = Path(args.out or "fuzzyqm_out")
    if any(p.exists() and not p.is_dir() for p in (out, *out.parents)):
        raise ConfigError(f"output directory {str(out)!r} names an existing file")
    return RunConfig(constants, out, args.format or "csv", " ".join(argv))


@lru_cache(maxsize=None)
def _row_format(types: tuple[type, ...]) -> str:
    """%-template of a CSV row with cells of these types: floats to 12 significant digits, the rest by str."""
    return ",".join("%.12g" if issubclass(t, float) else "%s" for t in types)


def _fmt(v: object) -> str:
    return _row_format((type(v),)) % (v,)


def _header(cfg: RunConfig) -> dict[str, object]:
    """What every output file states first: the tool, the command line and the physical constants in effect."""
    constants = dict(sorted(cfg.constants.as_dict().items()))
    return {"tool": f"fuzzyqm {__version__}", "command": cfg.command_line, "config": constants}


def _write_table(cfg: RunConfig, name: str, columns: list[str], rows: list[list[object]] | np.ndarray) -> Path:
    """Write rows of cells, or a float matrix, as <name>.csv or <name>.json under the output directory.

    A row list formats each row with the template of its cell types; a float matrix is all floats, so one
    template formats it in a single operation.
    """
    matrix = isinstance(rows, np.ndarray)
    if cfg.fmt == "json":
        cells = rows.tolist() if matrix else rows
        return _write_report(cfg, name, {"columns": columns, "rows": [dict(zip(columns, r)) for r in cells]})
    cfg.out.mkdir(parents=True, exist_ok=True)
    path = cfg.out / f"{name}.csv"
    header = _header(cfg)
    header["config"] = " ".join(f"{k}={_fmt(v)}" for k, v in header["config"].items())
    lines = [f"# {k}: {v}" for k, v in header.items()]
    lines.append(",".join(columns))
    if not matrix:
        lines.extend(_row_format(tuple(map(type, r))) % tuple(r) for r in rows)
    elif rows.size:
        lines.append("\n".join([_row_format((float,) * rows.shape[1])] * len(rows)) % tuple(rows.ravel().tolist()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_report(cfg: RunConfig, name: str, payload: dict) -> Path:
    cfg.out.mkdir(parents=True, exist_ok=True)
    path = cfg.out / f"{name}.json"
    doc = {"header": _header(cfg), **payload}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


# ----------------------------------------------------------------------------
# commutators


def cmd_commutators(cfg: RunConfig, args: argparse.Namespace) -> int:
    mass = args.mass
    s = SmearingParams(mass)
    rows: list[list[object]] = []
    ok = True

    residuals: list[float] = []
    spacings: list[float] = []
    ns = [args.n0 * 2**k for k in range(args.levels)]
    for n in ns:
        grid = MomentumGrid.symmetric(n, _LADDER_CUTOFF * mass)
        residuals.append(verify_commutator_xf_p(grid, s, scheme="central"))
        spacings.append(grid.spacing)
    for i, n in enumerate(ns):
        if i == 0:
            order, status = float("nan"), "-"
        else:
            order = float(np.log(residuals[i - 1] / residuals[i]) / np.log(spacings[i - 1] / spacings[i]))
            status = "OK" if abs(order - _NOMINAL_ORDER) <= _ORDER_TOL else "FAIL"
            ok &= status == "OK"
        rows.append(["commutator_xf_p", n, residuals[i], order, status])

    # Robertson inequality over random smooth states
    grid = MomentumGrid.symmetric(_ROBERTSON_POINTS, _LADDER_CUTOFF * mass)
    rng = np.random.default_rng(20240801)
    violations = 0
    for _ in range(args.states):
        state = random_smooth_state(grid, rng)
        rep = uncertainty_report(state, s)
        if rep.dxf * rep.dp < rep.bound - 1e-9:
            violations += 1
    status = "OK" if violations == 0 else "FAIL"
    ok &= violations == 0
    rows.append(["robertson", args.states, float(violations), float("nan"), status])

    # two-component spacetime commutator ladder
    st_res: list[float] = []
    st_d: list[float] = []
    st_ns = (48, 64, 96, 128)
    for n in st_ns:
        axis = MomentumGrid.symmetric(n, 6.0 * mass)
        rep2 = verify_spacetime_commutator(axis, s)
        st_res.append(rep2.residual)
        st_d.append(axis.spacing)
        rows.append(["spacetime", n, rep2.residual, float("nan"), "-"])
    st_order = float(np.log(st_res[0] / st_res[-1]) / np.log(st_d[0] / st_d[-1]))
    st_ok = abs(st_order - _NOMINAL_ORDER) <= _ORDER_TOL
    ok &= st_ok
    rows.append(["spacetime_order", st_ns[-1], st_res[-1], st_order, "OK" if st_ok else "FAIL"])

    path = _write_table(cfg, "commutators", ["check", "N", "residual", "measured_order", "status"], rows)
    print(f"wrote {path}")
    if not ok:
        print("commutators: FAILED invariant (see status column)", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------------
# oscillator


def cmd_oscillator(cfg: RunConfig, args: argparse.Namespace) -> int:
    spec = OscillatorSpec(args.omega, args.mass, args.truncation)
    n = np.arange(args.nmax + 1)
    if spec.truncation == "quadratic":
        formula = harmonic_spectrum_formula(spec, args.nmax)
        # the truncation's own levels, which the closed form expands to O(w^2/m): a right level lies as far from
        # the formula as they do, up to its rounding
        exact = (n + 0.5) * spec.omega * np.sqrt(1.0 + spec.omega_over_mass**2) - spec.omega**2 / (2.0 * spec.mass)
        budget = np.abs(exact - formula.energies) + 1e-9 * np.abs(exact)
        breakdown = (False,) * (args.nmax + 1)
    else:
        ref_spec = OscillatorSpec(spec.omega, spec.mass, "quartic")
        formula = anharmonic_spectrum_formula(ref_spec, args.nmax)
        budget = 0.1 * anharmonic_shift(ref_spec, n)
        breakdown = formula.breakdown
    diag = numeric_spectrum(spec, args.nmax, n_points=args.npoints)

    rows: list[list[object]] = []
    ok = True
    for i in range(args.nmax + 1):
        ef, ed = formula.energies[i], diag.energies[i]
        dev = abs(ed - ef)
        if spec.truncation == "exact":
            status = "-"
        else:
            status = "OK" if dev <= budget[i] else "FAIL"
            ok &= status == "OK"
        warn = "perturbative-breakdown" if breakdown and breakdown[i] else "-"
        rows.append([int(i), ef, ed, dev, dev / abs(ef) if ef else float("nan"), float(budget[i]), status, warn])
    path = _write_table(
        cfg,
        "oscillator_spectrum",
        ["n", "E_formula_MeV", "E_diag_MeV", "abs_dev_MeV", "rel_dev", "budget_MeV", "status", "warning"],
        rows,
    )
    print(f"wrote {path}")

    # first two harmonic (closed-form) and anharmonic (diagonalised quartic) eigenfunctions
    quartic = OscillatorSpec(spec.omega, spec.mass, "quartic")
    grid = default_grid(quartic, 1, args.npoints, states=True)
    res = numeric_spectrum(quartic, 1, grid=grid, return_eigenfunctions=True)
    harm_spec = OscillatorSpec(spec.omega, spec.mass, "quadratic")
    columns = [grid.points]
    for i in (0, 1):
        harm = eigenfunction(harm_spec, i, grid) if spec.omega < spec.mass / 2 else np.full(grid.n, np.nan)
        columns += [harm, res.eigenfunctions[i]]
    path2 = _write_table(
        cfg,
        "oscillator_eigenfunctions",
        ["p_MeV", "psi_harmonic_n0", "psi_anharmonic_n0", "psi_harmonic_n1", "psi_anharmonic_n1"],
        np.column_stack(columns),
    )
    print(f"wrote {path2}")
    return 0 if ok else 1


# ----------------------------------------------------------------------------
# deuteron


def _parse_r0_list(values: list[str]) -> list[float]:
    """Ranges (fm) from comma-separated --r0 values; ValueError names the first not positive, or a list naming none."""
    out: list[float] = []
    for tok in filter(None, ",".join(values).split(",")):
        try:
            r0 = float(tok)
        except ValueError:
            r0 = float("nan")
        if not 0.0 < r0 < np.inf:
            raise ValueError(f"--r0 must be a positive range in fm, got {tok!r}")
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
        checks = [
            (lo <= args.omega <= hi and lo <= args.mass <= hi, f"--omega and --mass must be finite and positive, {_SPAN}"),
            (args.truncation != "quadratic" or args.omega <= _HARMONIC_RATIO_MAX * args.mass,
             f"--truncation quadratic needs --omega/--mass <= {_HARMONIC_RATIO_MAX:.2g}: w is lost in rounding w^2/2m"),
            (args.nmax >= 0, "--nmax must be nonnegative"),
            (8 <= args.npoints <= _MAX_GRID_POINTS, f"--npoints must lie in [8, {_MAX_GRID_POINTS}] grid points"),
            (args.nmax < args.npoints, "--nmax must be below --npoints"),
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
            path = _write_table(cfg, "deuteron_range_depth", ["r0_fm", "depth_MeV", "alpha_star", "converged"], rows)
            print(f"wrote {path}")
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
            path = _write_report(cfg, "deuteron_core_radius", payload)
            print(f"wrote {path}")
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
    path = _write_report(cfg, "deuteron_couplings", payload)
    print(f"wrote {path}")

    r_grid = np.arange(0.05, 3.0001, 0.005)
    v = effective_potential(p_ord.depth, report.V1, c.r0_sigma_fm, c.r1_omega_fm, r_grid)
    path2 = _write_table(cfg, "effective_potential", ["r_fm", "V_MeV"], np.column_stack([r_grid, v]))
    print(f"wrote {path2}")

    for tag, samples in wavefunctions.items():
        path3 = _write_table(
            cfg, f"deuteron_wavefunctions_r0_{tag}", ["p_MeV", "psi_ordinary", "psi_fuzzy", "phi_fuzzy"], samples
        )
        print(f"wrote {path3}")

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
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "commutators":
        return cmd_commutators(cfg, args)
    if args.command == "oscillator":
        return cmd_oscillator(cfg, args)
    return cmd_deuteron(cfg, args)


if __name__ == "__main__":
    sys.exit(main())
