"""End-to-end CLI tests: exit codes, CSV contracts, determinism, config precedence."""

from __future__ import annotations

import math


from dipolewell import cli

DEEP = [
    "--mass", "1", "--alpha", "12.5", "--lambda", "1", "--omega", "1e-3", "--radius", "0.1",
]
# small, fast oracle grid for the deep regime
FAST_GRID = ["--grid-points", "800", "--grid-rmax", "1.5"]


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_code_success(capsys):
    code, out, _ = run_cli(["spectrum", *DEEP, "--nmax", "2"], capsys)
    assert code == 0
    assert out.startswith("n,ell,route,energy,kappa,estimated_error\n")


def test_exit_code_usage(capsys):
    code, _, err = run_cli(["spectrum", "--mass", "1"], capsys)  # missing params
    assert code == 1
    assert "usage error" in err
    code2, _, _ = run_cli(["no-such-command"], capsys)
    assert code2 == 1
    code3, _, _ = run_cli(["eval", "GammaLn", "1"], capsys)  # wrong arg count
    assert code3 == 1
    # flag values out of range: thresholds positive and finite, counts >= 1, samples >= 2
    for argv in (
        ["spectrum", *DEEP, "--compare-tol", "-1"],
        ["spectrum", *DEEP, "--x0-threshold", "nan"],
        ["spectrum", *DEEP, "--beta-min", "inf"],
        ["spectrum", *DEEP, "--nmax", "0"],
        ["spectrum", *DEEP, "--nmax", "0", "--route", "exact"],
        ["validate", *DEEP, "--nmax", "0"],
        ["wavefunction", *DEEP, "--n", "0"],
        ["wavefunction", *DEEP, "--samples", "1"],
        ["potential", *DEEP, "--samples", "1"],
        ["potential", *DEEP, "--samples", "0"],
        ["spectrum", *DEEP, "--route", "oracle", "--grid-points", "50"],
        ["validate", *DEEP, "--grid-rmax", "nan"],
        ["sweep-cutoff", *DEEP, "--radii", "nan"],
        # non-finite physical parameters
        ["spectrum", "--mass", "1", "--alpha", "12.5", "--lambda", "1", "--omega", "nan",
         "--radius", "0.1"],
        ["spectrum", *DEEP, "--pz", "nan"],
        ["spectrum", *DEEP, "--mass", "inf"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert "usage error" in err


def test_exit_code_regime_violation(capsys):
    argv = ["spectrum", "--mass", "1", "--alpha", "2", "--lambda", "1",
            "--omega", "1e-3", "--radius", "0.1", "--ell", "2"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "ell^2" in err and "2*m*alpha*lambda^2" in err


def test_exit_code_numerical_failure(capsys):
    # r_max below the cut-off cannot be sampled
    argv = ["wavefunction", *DEEP, "--n", "1", "--rmax", "0.05"]
    code, _, err = run_cli(argv, capsys)
    assert code == 3
    assert "numerical failure" in err
    # a positive --grid-rmax below the cut-off is well formed but has no grid
    code, _, err = run_cli(["validate", *DEEP, "--grid-rmax", "0.05"], capsys)
    assert code == 3
    assert "numerical failure" in err


def test_non_finite_x_is_usage_error(capsys):
    for argv in (
        ["eval", "WhittakerW", "-3", "2.5", "nan"],
        ["eval", "WhittakerW", "-3", "2.5", "inf"],
        ["eval", "WSmallX", "-50", "2.5", "nan"],
        ["eval", "KummerM", "1", "0", "1", "0", "nan"],
        ["potential", *DEEP, "--r", "nan,0.5"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert "usage error" in err


def test_huge_kappa_overflow_is_numerical_failure(capsys):
    # the large-x series, then the Kummer series, overflow double range
    for argv in (
        ["eval", "WhittakerW", "--", "-1e306", "1", "31"],
        ["eval", "WhittakerW", "--", "-1.160238289845834e80", "3.6878550803485646", "0.0175"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, ""), argv
        assert "numerical failure: ConvergenceError" in err


# ---------------------------------------------------------------------------
# spectrum command
# ---------------------------------------------------------------------------


def test_spectrum_asymptotic_rows(capsys):
    code, out, _ = run_cli(["spectrum", *DEEP, "--nmax", "3"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1" and first[2] == "asymptotic"
    assert math.isclose(float(first[3]), -263.6735019649660, rel_tol=1e-12)


def test_spectrum_all_routes_row_count(capsys):
    code, out, _ = run_cli(
        ["spectrum", *DEEP, "--nmax", "2", "--route", "all", *FAST_GRID], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 2 * 3
    # ordered by (n, route): asymptotic, exact, oracle per level
    routes = [ln.split(",")[2] for ln in lines[1:]]
    assert routes == ["asymptotic", "exact", "oracle"] * 2


def test_spectrum_deterministic_output(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for path in (out1, out2):
        code = cli.main(["spectrum", *DEEP, "--nmax", "3", "--out", str(path)])
        assert code == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert b"\r" not in out1.read_bytes()  # LF endings only


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(
        "# test config\nmass = 1\nalpha = 12.5\nlambda = 1\nomega = 1e-3\nradius = 0.1\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(["spectrum", "--config", str(cfg), "--nmax", "1"], capsys)
    assert code == 0
    e_file = float(out.strip().split("\n")[1].split(",")[3])
    # flag overrides the file value of radius (0.1 -> 0.2 quarters the binding)
    code, out, _ = run_cli(
        ["spectrum", "--config", str(cfg), "--radius", "0.2", "--nmax", "1"], capsys
    )
    assert code == 0
    e_flag = float(out.strip().split("\n")[1].split(",")[3])
    b_file = 1e-3 - e_file
    b_flag = 1e-3 - e_flag
    assert math.isclose(b_flag, 0.25 * b_file, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# validate command
# ---------------------------------------------------------------------------


def test_validate_deep_regime(capsys):
    code, out, err = run_cli(["validate", *DEEP, "--nmax", "2", *FAST_GRID], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == cli.VALIDATE_HEADER
    assert len(lines) == 3
    row1 = lines[1].split(",")
    assert row1[-1] == "ok"
    gap_ax = float(row1[5])
    gap_xo = float(row1[6])
    assert 0.10 < gap_ax < 0.13
    assert gap_xo < 1e-3
    assert "max_rel_gap" in err and "regime_ok=true" in err
    # the closed form's 11.5% regime error at n = 1 does not fail the cross-check
    gap = float(err.split("max_gap_exact_oracle=")[1].split()[0])
    assert math.isclose(gap, max(float(ln.split(",")[6]) for ln in lines[1:]), rel_tol=1e-13)
    assert "within_tol=true" in err


def test_validate_shallow_regime_flags(capsys):
    # Lambda = 2, x0 = 0.1: outside both admissibility thresholds
    argv = ["validate", "--mass", "1", "--alpha", "2", "--lambda", "1",
            "--omega", "10", "--radius", "0.1", "--nmax", "1", "--grid-rmax", "5.0"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    row = out.strip().split("\n")[1]
    flags = row.split(",")[-1]
    assert "x0_admissible" in flags
    assert "regime_ok=false" in err


# ---------------------------------------------------------------------------
# sweep-cutoff command
# ---------------------------------------------------------------------------


def test_sweep_cutoff_scaling_column(capsys):
    argv = ["sweep-cutoff", *DEEP, "--radii", "0.2,0.1,0.05,0.025"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "R,E1_asymptotic,E1_exact,R2_binding_asymptotic,status"
    scaled = [float(ln.split(",")[3]) for ln in lines[1:]]
    assert all(abs(s - scaled[0]) <= 1e-12 * scaled[0] for s in scaled)
    e_asym = [float(ln.split(",")[1]) for ln in lines[1:]]
    e_exact = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert all(a > b for a, b in zip(e_asym, e_asym[1:]))  # decreasing with R
    assert all(a > b for a, b in zip(e_exact, e_exact[1:]))
    # halving R quadruples the binding on the closed form
    b = [1e-3 - e for e in e_asym]
    assert math.isclose(b[1], 4 * b[0], rel_tol=1e-12)


def test_sweep_cutoff_validates_radii(capsys):
    code, _, _ = run_cli(["sweep-cutoff", *DEEP, "--radii", "0.1,0.2"], capsys)
    assert code == 1
    code, _, _ = run_cli(["sweep-cutoff", *DEEP, "--radii", "0.1,-0.2"], capsys)
    assert code == 1


# ---------------------------------------------------------------------------
# potential command
# ---------------------------------------------------------------------------


def test_potential_inverse_square_column(capsys):
    argv = ["potential", "--mass", "1", "--alpha", "1", "--lambda", "1",
            "--omega", "0", "--radius", "0.1", "--r", "0.5,1.0,2.0"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,V_effective,status"
    for ln in lines[1:]:
        r, v, status = ln.split(",")
        assert status == "ok"
        assert math.isclose(float(v), -1.0 / float(r) ** 2, rel_tol=1e-15)


def test_potential_forbidden_rows_marked(capsys):
    argv = ["potential", *DEEP, "--r", "0.05,0.5"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1].endswith("forbidden")
    assert lines[2].endswith("ok")
    assert "forbidden region" in err


def test_potential_centrifugal_minimum_location(capsys):
    # ell = 2, alpha lambda^2 = 1: net repulsive 1/r^2 with coefficient 1,
    # minimum at (2/(m w^2))^{1/4}
    argv = ["potential", "--mass", "1", "--alpha", "1", "--lambda", "1",
            "--omega", "1", "--radius", "0.05", "--ell", "2",
            "--rmin", "0.8", "--rmax", "1.6", "--samples", "400",
            "--with-centrifugal"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,V_effective,V_with_centrifugal,status"
    rows = [ln.split(",") for ln in lines[1:]]
    rs = [float(c[0]) for c in rows]
    vc = [float(c[2]) for c in rows]
    r_min_found = rs[vc.index(min(vc))]
    r_star = 2.0 ** 0.25
    grid_step = rs[1] - rs[0]
    assert abs(r_min_found - r_star) <= grid_step


# ---------------------------------------------------------------------------
# eval command
# ---------------------------------------------------------------------------


def test_eval_gamma_ln_one(capsys):
    code, out, _ = run_cli(["eval", "GammaLn", "1", "0"], capsys)
    assert code == 0
    re, im, est = (float(tok) for tok in out.split())
    assert abs(re) < 1e-13 and im == 0.0 and est >= 0.0


def test_eval_kummer_exponential(capsys):
    code, out, _ = run_cli(["eval", "KummerM", "2", "0", "2", "0", "1.5"], capsys)
    assert code == 0
    re, im, _ = (float(tok) for tok in out.split())
    assert math.isclose(re, math.exp(1.5), rel_tol=1e-12)
    assert im == 0.0


def test_eval_whittaker_w_residual(capsys):
    code, out, _ = run_cli(["eval", "WhittakerW", "-3", "2.5", "0.001"], capsys)
    assert code == 0
    value, est, residual = (float(tok) for tok in out.split())
    assert residual < 1e-8
    assert math.isclose(value, -1.461732588113508579913e-5, rel_tol=1e-10)


def test_eval_smallx(capsys):
    code, out, _ = run_cli(["eval", "WSmallX", "-50", "2.5", "1e-5"], capsys)
    assert code == 0
    value, est = (float(tok) for tok in out.split())
    assert est > 0
    w_exact = -5.020630239e-70  # [frozen oracle] W(-50, 2.5i, 1e-5)
    assert abs(value - w_exact) <= 0.10 * abs(w_exact)
    # beta = 200: both value and amplitude are below double range; the
    # command must still answer cleanly with the underflowed zeros
    code2, out2, _ = run_cli(["eval", "WSmallX", "-199.5", "2.5", "1e-5"], capsys)
    assert code2 == 0
    v2, e2 = (float(tok) for tok in out2.split())
    assert v2 == 0.0 and e2 == 0.0


# ---------------------------------------------------------------------------
# wavefunction command
# ---------------------------------------------------------------------------


def test_wavefunction_csv(capsys):
    argv = ["wavefunction", *DEEP, "--n", "1", "--rmax", "0.6", "--samples", "50"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,f"
    assert len(lines) == 51
    f0 = float(lines[1].split(",")[1])
    assert abs(f0) <= 1e-6
    peak = max(abs(float(ln.split(",")[1])) for ln in lines[1:])
    assert peak == 1.0
