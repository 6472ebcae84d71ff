"""Command-line surface: exit codes, file formats, reproducibility."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from fuzzyqm import cli
from fuzzyqm.cli import RunConfig, main
from fuzzyqm.constants import DEFAULT_CONSTANTS, PhysicalConstants
from fuzzyqm.deuteron import ProblemTemplate, calibrate_smearing_mass, solve_depth

CLI = [sys.executable, "-m", "fuzzyqm.cli"]


def run(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    cols = body[0].split(",")
    rows = [dict(zip(cols, l.split(","))) for l in body[1:]]
    return header, rows


def test_invalid_flag_exits_2():
    r = run("--bogus-flag", "oscillator")
    assert r.returncode == 2


def test_negative_nmax_usage_error(tmp_path):
    r = run("--out", str(tmp_path), "oscillator", "--omega", "0.01", "--mass", "1", "--nmax", "-2")
    assert r.returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("deuteron", "range-depth", "--r0", "abc"),
        ("deuteron", "range-depth", "--r0", "-1"),
        ("oscillator", "--omega", "-1", "--mass", "1"),
        ("commutators", "--n0", "4"),
        ("commutators", "--levels", "0"),
        ("commutators", "--levels", "1"),
        ("deuteron", "core-radius", "--variant", "ordinary"),
        ("deuteron", "core-radius", "--r0", "5"),
        ("deuteron", "couplings", "--variant", "fuzzy"),
        ("deuteron", "couplings", "--r0", "5"),
        ("oscillator", "--omega", "0.01", "--mass", "1", "--nmax", "64"),
        ("commutators", "--states", "0"),
        ("oscillator", "--omega", "1e300", "--mass", "1"),
        ("oscillator", "--omega", "0.01", "--mass", "1e300"),
        ("commutators", "--mass", "1e-300", "--levels", "2", "--n0", "16", "--states", "2"),
        ("commutators", "--mass", "1e300", "--levels", "2", "--n0", "16", "--states", "2"),
        ("commutators", "--n0", "1099511627776", "--levels", "2"),
        ("commutators", "--n0", "128", "--levels", "11"),
        ("commutators", "--levels", "1000000000000"),
        ("oscillator", "--omega", "0.01", "--mass", "1", "--npoints", "1099511627776"),
        ("oscillator", "--omega", "0.01", "--mass", "1", "--npoints", "8193"),
    ],
)
def test_out_of_domain_argument_exits_2_with_one_line(tmp_path, capsys, args):
    # in-process: the exit code is main's return value, as under the console script
    code = main(["--out", str(tmp_path), *args])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args",
    [
        ("commutators", "--n0", "8192", "--levels", "4"),
        ("commutators", "--n0", "8", "--levels", "14"),
        ("oscillator", "--omega", "0.01", "--mass", "1", "--npoints", "8192"),
        ("oscillator", "--omega", "0.01", "--mass", "1", "--nmax", "63"),
    ],
)
def test_grid_size_limits_are_inclusive(args):
    assert cli._argument_error(cli.build_parser().parse_args(args)) is None


@pytest.mark.parametrize(
    "args",
    [
        ("oscillator", "--omega", "inf", "--mass", "1"),
        ("oscillator", "--omega", "0.01", "--mass", "inf"),
        ("commutators", "--mass", "inf"),
    ],
)
def test_non_finite_argument_exits_2_with_one_line(tmp_path, capsys, args):
    # in-process: the exit code is main's return value, as under the console script
    out = tmp_path / "o"
    code = main(["--out", str(out), *args])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and "finite and positive" in err
    assert not out.exists()


@pytest.mark.parametrize("r0", [",", "", ",,", " "])
def test_r0_list_naming_no_range_exits_2_with_one_line(tmp_path, capsys, r0):
    # "--r0 ," used to write a header-only deuteron_range_depth.csv and exit 0
    code = main(["--out", str(tmp_path / "o"), "deuteron", "range-depth", "--r0", r0])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("deuteron: --r0 ") and len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_cli_start_does_not_import_numpy_polynomial():
    # every command and every benchmark's setup time pays for what importing the CLI loads
    code = "import sys, fuzzyqm.cli; assert 'numpy.polynomial' not in sys.modules"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_knob = 3\n")
    r = run("--config", str(cfg), "--out", str(tmp_path / "o"), "oscillator", "--omega", "0.01", "--mass", "1")
    assert r.returncode == 2
    assert "no_such_knob" in r.stderr


def test_meson_mass_is_an_unknown_config_key(tmp_path, capsys):
    # the chain reads the meson ranges, never the masses, so a mass is no input
    cfg = tmp_path / "mass.cfg"
    cfg.write_text("m_pi = 139.6\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "deuteron", "couplings"]) == 2
    assert capsys.readouterr().err == "config error: unknown config key 'm_pi'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    [
        "n_points = 4",
        "cutoff_mult = -1",
        "cutoff_mult = 0",
        "cutoff_mult = inf",
        "cutoff_mult = nan",
        "hbar_c = 0",
        "m_proton = -938.272",
        "m_neutron = 0",
        "r1_omega_fm = -0.2529",
        "g_sigma_phenom_sq_over_4pi = inf",
        "g_sigma_phenom_sq_over_4pi = 0",
        "g_omega_phenom_sq_over_4pi = 0",
        "r0_sigma_fm = nan",
        "e0_binding = 0",
        "e0_binding = 2.226",
        "hbar_c = 1e-300",
        "m_proton = 1e-300\nm_neutron = 1e-300",
        "cutoff_mult = 1e300",
        "n_points = 8193",
        "n_points = 1099511627776",
        "out = elsewhere",
        "format = json",
    ],
)
def test_config_value_outside_domain_exits_2_with_one_line(tmp_path, capsys, line):
    # in-process: the exit code is main's return value, as under the console script
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "o"
    code = main(["--config", str(cfg), "--out", str(out), "deuteron", "range-depth", "--variant", "ordinary"])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and line.split()[0] in err
    assert not out.exists()


@pytest.mark.parametrize("config", ["missing.cfg", "."])
def test_unreadable_config_exits_2_with_one_line(tmp_path, capsys, config):
    out = tmp_path / "o"
    code = main(["--config", str(tmp_path / config), "--out", str(out), "deuteron", "range-depth"])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_out_naming_a_file_exits_2_before_any_solve(tmp_path, capsys, monkeypatch, out):
    (tmp_path / "taken").write_text("keep\n")
    monkeypatch.setattr(cli, "solve_depth", lambda *a: pytest.fail("solved before checking --out"))
    code = main(["--out", str(tmp_path / out), "deuteron", "range-depth"])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and "existing file" in err
    assert (tmp_path / "taken").read_text() == "keep\n"


def test_commutators_ladder(tmp_path):
    r = run("--out", str(tmp_path), "commutators", "--levels", "3", "--n0", "64", "--states", "40")
    assert r.returncode == 0, r.stderr
    header, rows = read_csv(tmp_path / "commutators.csv")
    assert any("tool: fuzzyqm" in h for h in header)
    ladder = [row for row in rows if row["check"] == "commutator_xf_p"]
    assert len(ladder) == 3
    assert all(row["status"] in ("OK", "-") for row in rows)


def test_commutators_robertson_margin_is_pinned(tmp_path, monkeypatch):
    # the smallest dxf dp / bound over the default run's 1,000 seeded states: a changed stream or state moves it
    report, ratios = cli.uncertainty_report, []

    def record(state, s):
        rep = report(state, s)
        ratios.append(rep.dxf * rep.dp / rep.bound)
        return rep

    monkeypatch.setattr(cli, "uncertainty_report", record)
    assert main(["--out", str(tmp_path), "commutators"]) == 0
    assert len(ratios) == 1000
    assert min(ratios) == pytest.approx(1.2853489611647373, rel=1e-12)


@pytest.mark.parametrize("check", ["commutator_xf_p", "robertson", "spacetime_order"])
def test_commutators_failing_check_exits_1_with_one_line(tmp_path, capsys, monkeypatch, check):
    # each check made to fail in turn: an [X_f, P] residual flat across the ladder, one state below the
    # Robertson bound, a spacetime residual flat across its ladder; only that check's rows read FAIL
    if check == "commutator_xf_p":
        monkeypatch.setattr(cli, "verify_commutator_xf_p", lambda grid, s: 1e-3)
    elif check == "robertson":
        report, calls = cli.uncertainty_report, []

        def one_below_the_bound(state, s):
            calls.append(state)
            rep = report(state, s)
            return dataclasses.replace(rep, dp=0.0) if len(calls) == 2 else rep

        monkeypatch.setattr(cli, "uncertainty_report", one_below_the_bound)
    else:
        verify = cli.verify_spacetime_commutator
        monkeypatch.setattr(
            cli, "verify_spacetime_commutator", lambda axis, s: dataclasses.replace(verify(axis, s), residual=1e-3)
        )
    assert main(["--out", str(tmp_path), "commutators", "--levels", "3", "--n0", "64", "--states", "4"]) == 1
    assert capsys.readouterr().err.splitlines() == ["commutators: FAILED invariant (see status column)"]
    _, rows = read_csv(tmp_path / "commutators.csv")
    assert {row["check"] for row in rows if row["status"] == "FAIL"} == {check}
    assert all(row["status"] in ("OK", "-") for row in rows if row["check"] != check)
    violations = next(row["residual"] for row in rows if row["check"] == "robertson")
    assert violations == ("1" if check == "robertson" else "0")


def test_commutators_point_particle_mode(tmp_path):
    r = run("--out", str(tmp_path), "commutators", "--levels", "3", "--n0", "64", "--states", "20",
            "--mass", "1e12")
    assert r.returncode == 0, r.stderr


def test_oscillator_table_and_eigenfunctions(tmp_path):
    r = run("--out", str(tmp_path), "oscillator", "--omega", "0.01", "--mass", "1",
            "--truncation", "quartic", "--nmax", "3", "--npoints", "256")
    assert r.returncode == 0, r.stderr
    _, rows = read_csv(tmp_path / "oscillator_spectrum.csv")
    assert len(rows) == 4
    assert all(row["status"] == "OK" for row in rows)
    _, efn = read_csv(tmp_path / "oscillator_eigenfunctions.csv")
    assert {"p_MeV", "psi_harmonic_n0", "psi_anharmonic_n0"} <= set(efn[0])


def test_oscillator_quadratic_ratio_limit_is_named(tmp_path, capsys):
    # above 2^52 the closed-form spacing w drowns in the rounding of w^2/2m
    out = tmp_path / "o"
    code = main(["--out", str(out), "oscillator", "--omega", "1e17", "--mass", "1"])
    err = capsys.readouterr().err
    assert code == 2 and len(err.splitlines()) == 1 and "--omega/--mass <= 4.5e+15" in err
    assert not out.exists()


@pytest.mark.parametrize("omega", ["1", "3"])
def test_oscillator_zero_closed_form_level_has_no_ratio(tmp_path, omega):
    # at w = (2n+1) m the closed-form level n is exactly 0, so its relative deviation is undefined
    r = run("--out", str(tmp_path), "oscillator", "--omega", omega, "--mass", "1")
    assert r.returncode == 0, r.stderr
    _, rows = read_csv(tmp_path / "oscillator_spectrum.csv")
    zero = [row for row in rows if float(row["E_formula_MeV"]) == 0.0]
    assert len(zero) == 1 and zero[0]["n"] == str((int(omega) - 1) // 2) and zero[0]["rel_dev"] == "nan"
    assert all(row["rel_dev"] != "nan" for row in rows if row not in zero)


def test_oscillator_quadratic_strong_coupling_matches_its_exact_levels(tmp_path, capsys):
    # the quadratic truncation is a harmonic oscillator: E_n = (n + 1/2) w sqrt(1 + w^2/m^2) - w^2/2m at every w/m
    assert main(["--out", str(tmp_path), "oscillator", "--omega", "1000", "--mass", "1", "--truncation", "quadratic"]) == 0
    capsys.readouterr()
    _, rows = read_csv(tmp_path / "oscillator_spectrum.csv")
    n = np.arange(len(rows))
    exact = (n + 0.5) * 1000.0 * np.sqrt(1.0 + 1000.0**2) - 1000.0**2 / 2.0
    assert np.max(np.abs(np.array([float(row["E_diag_MeV"]) for row in rows]) / exact - 1.0)) <= 1e-9


def test_oscillator_quadratic_status_holds_right_levels_at_weak_coupling(tmp_path, capsys):
    # at w/m = 1e-8 the levels are right to about 3e-15 relative, while (w/m)^3 m is 1e-24 MeV: the budget is
    # the exact levels' distance from the closed form plus their rounding
    assert main(["--out", str(tmp_path), "oscillator", "--omega", "1e-8", "--mass", "1"]) == 0
    capsys.readouterr()
    _, rows = read_csv(tmp_path / "oscillator_spectrum.csv")
    assert [row["status"] for row in rows] == ["OK"] * 4


def test_oscillator_quadratic_status_fails_a_wrong_level_at_strong_coupling(tmp_path, capsys, monkeypatch):
    # at w/m = 1000 the closed form lies about 1e6 MeV from every exact level; a level a further 1e6 MeV off
    # must fail, where a budget of 4 (n + 1/2) (w/m)^3 m (1.4e10 MeV) let it pass
    solve = cli.numeric_spectrum

    def one_wrong_level(spec, n_max, **kwargs):
        res = solve(spec, n_max, **kwargs)
        if kwargs.get("grid") is not None:
            return res
        return dataclasses.replace(res, energies=res.energies[:-1] + (res.energies[-1] + 1e6,))

    monkeypatch.setattr(cli, "numeric_spectrum", one_wrong_level)
    assert main(["--out", str(tmp_path), "oscillator", "--omega", "1000", "--mass", "1"]) == 1
    assert capsys.readouterr().err.splitlines() == ["oscillator: FAILED invariant (see status column)"]
    _, rows = read_csv(tmp_path / "oscillator_spectrum.csv")
    assert [row["status"] for row in rows] == ["OK", "OK", "OK", "FAIL"]


@pytest.mark.parametrize("nmax", ["3", "63"])
def test_oscillator_quartic_status_holds_right_levels_at_weak_coupling(tmp_path, capsys, nmax):
    # at w/m = 1e-16 a tenth of the anharmonic shift (7.5e-34 MeV at n = 0) lies below one ulp of the level, while
    # the levels are right to about 1e-14 relative: the budget's floor of 1e-13 of the level keeps them OK
    args = ["--out", str(tmp_path), "oscillator", "--truncation", "quartic", "--omega", "1e-16", "--mass", "1"]
    assert main([*args, "--nmax", nmax]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(tmp_path / "oscillator_spectrum.csv")
    assert [row["status"] for row in rows] == ["OK"] * (int(nmax) + 1)


@pytest.mark.parametrize("omega, code", [("3", 0), ("5", 1)])
def test_oscillator_unsettled_ladder_exits_1_with_one_line(tmp_path, capsys, omega, code):
    # at --nmax 3 the exact ladder answers through w/m = 3.5; at 5 it finds no agreement, and no file is written
    out = tmp_path / "o"
    assert main(["--out", str(out), "oscillator", "--truncation", "exact", "--omega", omega, "--mass", "1"]) == code
    err = capsys.readouterr().err
    if code:
        assert err.splitlines() == [
            "oscillator: exact levels at w/m = 5 did not settle: from K = 128 to 256 Hermite functions they moved "
            "by 8.76e-10 relative, above 1e-10"
        ]
        assert not out.exists()
    else:
        assert err == "" and sorted(f.name for f in out.iterdir()) == [
            "oscillator_eigenfunctions.csv",
            "oscillator_spectrum.csv",
        ]


def test_oscillator_eigenfunction_columns_share_a_sign(tmp_path):
    # closed-form and numeric states both follow the Hermite convention: largest |psi| on p >= 0 positive
    r = run("--out", str(tmp_path), "oscillator", "--omega", "0.01", "--mass", "1", "--nmax", "1", "--npoints", "65")
    assert r.returncode == 0, r.stderr
    _, efn = read_csv(tmp_path / "oscillator_eigenfunctions.csv")
    for j in (0, 1):
        assert sum(float(row[f"psi_harmonic_n{j}"]) * float(row[f"psi_anharmonic_n{j}"]) for row in efn) > 0


def test_oscillator_json_format(tmp_path):
    r = run("--out", str(tmp_path), "--format", "json", "oscillator", "--omega", "0.01", "--mass", "1",
            "--nmax", "1", "--npoints", "128")
    assert r.returncode == 0, r.stderr
    doc = json.loads((tmp_path / "oscillator_spectrum.json").read_text())
    assert doc["header"]["tool"].startswith("fuzzyqm")
    assert len(doc["rows"]) == 2


def _strict_json(path: Path):
    def refuse(token):
        raise ValueError(f"{path.name} holds the non-JSON token {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_json_tables_write_non_finite_cells_as_null(tmp_path):
    # RFC 8259 has no NaN or Infinity: a strict parser must read every JSON table, its nan cells as null
    assert main(["--out", str(tmp_path / "c"), "--format", "json", "commutators", "--states", "5"]) == 0
    rows = _strict_json(tmp_path / "c" / "commutators.json")["rows"]
    nulls = [r["check"] for r in rows if r["measured_order"] is None]
    assert nulls == ["commutator_xf_p", "robertson", *["spacetime"] * 4]

    assert main(["--out", str(tmp_path / "o"), "--format", "json", "oscillator", "--omega", "0.6", "--mass", "1"]) == 0
    _strict_json(tmp_path / "o" / "oscillator_spectrum.json")
    rows = _strict_json(tmp_path / "o" / "oscillator_eigenfunctions.json")["rows"]
    assert all(r[f"psi_harmonic_n{j}"] is None for r in rows for j in (0, 1))  # the closed form at w >= m/2
    assert all(isinstance(r["psi_anharmonic_n0"], float) for r in rows)

    args = ["--out", str(tmp_path / "d"), "--format", "json", "deuteron", "range-depth", "--r0", "0.3596,100"]
    assert main(args) == 1
    rows = _strict_json(tmp_path / "d" / "deuteron_range_depth.json")["rows"]
    assert rows[1] == {"r0_fm": 100.0, "depth_MeV": None, "alpha_star": None, "converged": False}
    assert isinstance(rows[0]["depth_MeV"], float)


def test_deuteron_range_depth_headline(tmp_path):
    r = run("--out", str(tmp_path), "deuteron", "range-depth", "--variant", "ordinary", "--r0", "0.3596")
    assert r.returncode == 0, r.stderr
    _, rows = read_csv(tmp_path / "deuteron_range_depth.csv")
    depth = float(rows[0]["depth_MeV"])
    assert abs(depth / 660.77 - 1.0) <= 0.02


def test_deuteron_range_depth_unconverged_exits_1(tmp_path):
    # at 100 fm the optimal alpha lies beyond the scan bracket: recorded as a NaN row, not returned as an answer
    r = run("--out", str(tmp_path), "deuteron", "range-depth", "--variant", "ordinary", "--r0", "100")
    assert r.returncode == 1
    assert r.stderr.splitlines() == [
        "deuteron range-depth: depth at r0=100 fm unconverged: the scan falls towards its edge alpha=20, "
        "beyond which a lower minimum may lie",
        "deuteron range-depth: unconverged at r0 = 100 fm",
    ]
    _, rows = read_csv(tmp_path / "deuteron_range_depth.csv")
    assert rows[0] == {"r0_fm": "100", "depth_MeV": "nan", "alpha_star": "nan", "converged": "False"}


@pytest.mark.parametrize(
    "args", [("range-depth", "--variant", "fuzzy"), ("core-radius",), ("couplings",)], ids=lambda a: a[0]
)
def test_deuteron_scan_edge_calibration_exits_1_with_one_line(tmp_path, capsys, args):
    # at r0_sigma = 0.001 fm both smearing-mass candidates minimise on the alpha scan edge: no candidate is an answer
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("r0_sigma_fm = 0.001\n")
    out = tmp_path / "o"
    code = main(["--config", str(cfg), "--out", str(out), "deuteron", *args])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"deuteron {args[0]}: stage 'calibration' failed: ")
    assert "falls towards its edge alpha=20," in err
    assert not out.exists()


def test_deuteron_overflowing_trial_samples_exit_1_with_one_line(tmp_path, capsys):
    # with 40 MeV nucleons every depth solves, but the smeared trial at 1200 MeV overflows: no file may be written
    cfg = tmp_path / "light.cfg"
    cfg.write_text("m_proton = 40\nm_neutron = 40\n")
    out = tmp_path / "o"
    code = main(["--config", str(cfg), "--out", str(out), "deuteron", "couplings"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("deuteron couplings: stage 'trial wavefunctions' failed: smeared trial exponent ")
    assert len(err.splitlines()) == 1 and not out.exists()


def test_deuteron_constants_override(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("e0_binding = -1.0\n")
    r = run("--config", str(cfg), "--out", str(tmp_path / "o"), "deuteron", "range-depth",
            "--variant", "ordinary", "--r0", "1.0")
    assert r.returncode == 0, r.stderr
    _, rows = read_csv(tmp_path / "o" / "deuteron_range_depth.csv")
    shallower = float(rows[0]["depth_MeV"])
    r2 = run("--out", str(tmp_path / "o2"), "deuteron", "range-depth", "--variant", "ordinary", "--r0", "1.0")
    assert r2.returncode == 0
    _, rows2 = read_csv(tmp_path / "o2" / "deuteron_range_depth.csv")
    assert shallower < float(rows2[0]["depth_MeV"])


def test_scan_falling_towards_its_edge_exits_1_at_calibration(tmp_path, capsys):
    # at this range the depth's scan has an interior minimum of +0.0328 MeV, but it falls towards alpha = 0.01,
    # below which the depth reaches -0.0424 MeV at alpha = 0.004
    cfg = tmp_path / "shallow.cfg"
    cfg.write_text("e0_binding = -2.226e-8\nr0_sigma_fm = 50.2401\n")
    out = tmp_path / "o"
    code = main(["--config", str(cfg), "--out", str(out), "deuteron", "range-depth", "--variant", "fuzzy",
                 "--r0", "50.2401"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("deuteron range-depth: stage 'calibration' failed: depth at r0=50.2401 fm unconverged: ")
    assert "edge alpha=0.01" in err
    assert not out.exists()


def test_every_constant_moves_the_couplings(tmp_path):
    # each field of PhysicalConstants is an input of the chain: raising it by 1% moves a computed coupling value
    # (the report's echoed inputs phenom_reference, r0_fm and r1_fm are left out, as they would move on the echo alone)
    echoed = {"phenom_reference", "r0_fm", "r1_fm"}

    def couplings(name, config):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(config)
        assert main(["--config", str(cfg), "--out", str(tmp_path / name), "deuteron", "couplings"]) == 0
        doc = json.loads((tmp_path / name / "deuteron_couplings.json").read_text())
        return {k: v for k, v in doc["couplings"].items() if k not in echoed}

    base = couplings("base", "")
    fields = DEFAULT_CONSTANTS.as_dict()
    assert not [k for k, v in fields.items() if couplings(k, f"{k} = {1.01 * v!r}\n") == base]


def test_deuteron_core_radius_report(tmp_path):
    r = run("--out", str(tmp_path), "deuteron", "core-radius")
    assert r.returncode == 0, r.stderr
    doc = json.loads((tmp_path / "deuteron_core_radius.json").read_text())
    assert abs(doc["core_radius_fm"] - 0.563) <= 0.03
    assert doc["bracket"]["depth_at_lo_MeV"] < 0 < doc["bracket"]["depth_at_hi_MeV"]
    assert [doc["bracket"]["lo_fm"], doc["bracket"]["hi_fm"]] == pytest.approx(
        [0.9 * doc["core_radius_fm"], 1.1 * doc["core_radius_fm"]], rel=1e-15
    )
    assert doc["metadata"]["smearing_mass_choice"] in ("nucleon", "reduced")


def test_core_radius_evidence_follows_r_c_for_light_nucleons(tmp_path):
    # 80 MeV nucleons put r_c at 2.50 fm, outside any fixed evidence bracket such as [0.2, 1.0] fm
    cfg = tmp_path / "light.cfg"
    cfg.write_text("m_proton = 80\nm_neutron = 80\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "deuteron", "couplings"]) == 0
    r_c = json.loads((tmp_path / "o" / "deuteron_couplings.json").read_text())["couplings"]["core_radius_fm"]
    constants = DEFAULT_CONSTANTS.with_overrides(m_proton=80.0, m_neutron=80.0)
    template = ProblemTemplate(constants, smearing_mass=calibrate_smearing_mass(constants).mass)
    oracle = brentq(lambda r: solve_depth(r, template).depth, 2.0, 3.0, xtol=1e-14)
    assert abs(r_c - oracle) <= 1e-9


def test_deuteron_couplings_pipeline(tmp_path):
    r = run("--out", str(tmp_path), "deuteron", "couplings")
    assert r.returncode == 0, r.stderr
    doc = json.loads((tmp_path / "deuteron_couplings.json").read_text())
    c = doc["couplings"]
    assert abs(c["ratio"] / 1.512 - 1.0) <= 0.1
    assert abs(c["g_omega_phenom_sq_over_4pi"] / 11.03 - 1.0) <= 0.1
    meta = doc["metadata"]
    # V0' is the calibration's depth for the chosen smearing mass, not a second solve
    assert c["V0_prime_MeV"] == meta["calibration_depths_MeV"][meta["smearing_mass_choice"]]
    # effective interaction samples: repulsive at short range, attractive beyond
    _, rows = read_csv(tmp_path / "effective_potential.csv")
    by_r = {float(row["r_fm"]): float(row["V_MeV"]) for row in rows}
    assert by_r[0.2] > 0 > by_r[1.0]
    assert (tmp_path / "deuteron_wavefunctions_r0_1p43.csv").exists()


def test_byte_identical_reruns(tmp_path):
    # identical command line and config must reproduce files byte for byte
    cfg = tmp_path / "c.cfg"
    cfg.write_text("e0_binding = -2.5\n")
    args = ("--config", str(cfg), "--out", str(tmp_path / "a"), "deuteron", "range-depth", "--variant", "ordinary",
            "--r0", "0.5,1.0")
    r1 = run(*args)
    assert r1.returncode == 0, r1.stderr
    first = (tmp_path / "a" / "deuteron_range_depth.csv").read_bytes()
    r2 = run(*args)
    assert r2.returncode == 0
    second = (tmp_path / "a" / "deuteron_range_depth.csv").read_bytes()
    assert first == second
    # the header's config is the physical constants in effect, sorted, and nothing else
    want = dict(sorted({**DEFAULT_CONSTANTS.as_dict(), "e0_binding": -2.5}.items()))
    header, _ = read_csv(tmp_path / "a" / "deuteron_range_depth.csv")
    echo = next(l for l in header if l.startswith("# config: ")).removeprefix("# config: ")
    assert echo == " ".join(f"{k}={v:.12g}" for k, v in want.items())
    assert main(["--format", "json", *args[:2], "--out", str(tmp_path / "j"), *args[4:]]) == 0
    doc = json.loads((tmp_path / "j" / "deuteron_range_depth.json").read_text())
    assert doc["header"]["config"] == want
    assert sorted(want) == sorted(f.name for f in dataclasses.fields(PhysicalConstants))


_TRICKY_CELLS = [
    float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e-300, 1.797e308, 1.0 / 3.0, 1e16,
    np.float64(2.0 / 3.0), np.float64("nan"), np.int64(-7), True, False, 0, "50%", "-", None,
]


def _cell(v):
    # the CSV cell rule: floats (np.float64 included) to 12 significant digits, everything else by str
    return format(v, ".12g") if isinstance(v, float) else str(v)


@pytest.mark.parametrize("cell", _TRICKY_CELLS, ids=repr)
def test_row_format_writes_the_cell_rule(cell):
    assert cli._row_format((type(cell),)) % (cell,) == _cell(cell)


def test_mixed_type_table_writes_the_per_cell_join(tmp_path):
    # laid out like commutators.csv: name, int size, float residual, float order (nan on the first row), status
    columns = ["check", "N", "residual", "measured_order", "status"]
    rows = [
        ["commutator_xf_p", 128, 1.2345678901234e-3, float("nan"), "-"],
        ["commutator_xf_p", 256, np.float64(3.0864e-4), 2.0000000000004, "OK"],
        ["robertson", 1000, 0.0, float("nan"), "OK"],
        ["spacetime", 48, -0.0, float("inf"), "50%"],
        ["mixed", True, None, 1e16, 1.0 / 3.0],
    ]
    cfg = RunConfig(DEFAULT_CONSTANTS, tmp_path, "csv", "fuzzyqm commutators")
    body = cli._write_table(cfg, "table", columns, rows).read_text().splitlines()[4:]
    assert body == [",".join(_cell(v) for v in r) for r in rows]
    cfg.fmt = "json"
    doc = json.loads(cli._write_table(cfg, "table", columns, rows).read_text())
    # JSON has no nan or inf: those cells are null
    want = [dict(zip(columns, (None if isinstance(v, float) and not np.isfinite(v) else v for v in r))) for r in rows]
    assert json.dumps(doc["rows"], sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [3, 0])
def test_float_matrix_table_writes_the_row_bytes(tmp_path, fmt, n_rows):
    # the one-template matrix path and the per-row path must not differ by a byte
    matrix = np.array(
        [[float("nan"), float("inf"), -float("inf")], [-0.0, 1e16, 1.0 / 3.0], [5e-324, 1.797e308, -2.5]]
    )[:n_rows]
    columns = ["a", "b", "c"]
    written = []
    for name, rows in (("matrix", matrix), ("rows", matrix.tolist())):
        cfg = RunConfig(DEFAULT_CONSTANTS, tmp_path / name, fmt, "fuzzyqm deuteron couplings")
        written.append(cli._write_table(cfg, "table", columns, rows).read_bytes())
    assert written[0] == written[1]
    if fmt == "csv":
        assert len(written[0].splitlines()) == 4 + n_rows  # three header lines and the column names


_BOTH_OMEGAS = """
import sys
from fuzzyqm.cli import main
for omega in ("0.3", "3"):
    args = ["--out", f"{sys.argv[1]}/{omega}", "--format", "json", "oscillator", "--omega", omega, "--mass", "1"]
    assert main(args + ["--truncation", "exact"]) == 0
"""


def test_oscillator_numbers_agree_across_blas_thread_counts(tmp_path):
    # the oscillator's eigensolves may round differently on one BLAS thread: bytes may differ, the numbers
    # may not.  Exact at w/m = 0.3 answers with K = 128 Hermite functions and at 3 with K = 256; one process per
    # thread count runs both.  JSON tables carry every float digit, so the bounds compare numbers, not the
    # 12-digit CSV rounding.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    for name, threads in (("default", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        r = subprocess.run([sys.executable, "-c", _BOTH_OMEGAS, str(tmp_path / name)], capture_output=True, text=True,
                           env={**env, **threads})
        assert r.returncode == 0, r.stderr
    for omega in ("0.3", "3"):
        (spec_a, efn_a), (spec_b, efn_b) = (
            [json.loads((out / f"oscillator_{t}.json").read_text()) for t in ("spectrum", "eigenfunctions")]
            for out in (tmp_path / "default" / omega, tmp_path / "one" / omega)
        )
        e_a, e_b = (np.array([row["E_diag_MeV"] for row in s["rows"]]) for s in (spec_a, spec_b))
        assert np.all(np.abs(e_a - e_b) <= 1e-12 * np.abs(e_a))
        for col in efn_a["columns"]:
            a, b = ([row[col] for row in e["rows"]] for e in (efn_a, efn_b))
            if all(v is None for v in a):  # the closed-form state columns at w >= m/2, nan cells written as null
                assert all(v is None for v in b)
                continue
            a, b = np.array(a), np.array(b)
            assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(a))
