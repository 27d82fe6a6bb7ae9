"""End-to-end CLI tests: exit codes, CSV contracts, determinism, config precedence."""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import math
import pathlib
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dipolewell import cli, spectrum
from dipolewell.model import PhysicalParams

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
    # flag values out of range: thresholds positive and finite, counts >= 1, samples >= 2,
    # ranges finite
    for argv in (
        ["validate", *DEEP, "--compare-tol", "-1"],
        ["validate", *DEEP, "--x0-threshold", "nan"],
        ["validate", *DEEP, "--beta-min", "inf"],
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
        ["wavefunction", *DEEP, "--rmax", "nan"],
        ["wavefunction", *DEEP, "--rmax", "inf"],
        ["potential", *DEEP, "--rmax", "inf", "--samples", "3"],
        ["potential", *DEEP, "--rmin", "nan"],
        ["potential", *DEEP, "--rmin=-1e308", "--rmax", "1e308", "--samples", "3"],
        # the verdict flags belong to validate
        ["spectrum", *DEEP, "--compare-tol", "0.1"],
        ["spectrum", *DEEP, "--x0-threshold", "0.1"],
        ["spectrum", *DEEP, "--beta-min", "5"],
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
    # W_{1000, 2.5i}(0.001) leaves double range, though its scaled fields stay finite,
    # and so does the error of the small-x form far outside its range (inf * 0)
    for argv in (["eval", "WhittakerW", "1000", "2.5", "0.001"],
                 ["eval", "WSmallX", "--", "-1e200", "1e10", "1e300"]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, ""), argv
        assert "numerical failure: ConvergenceError" in err
        assert "overflows double range" in err


def test_non_finite_x_is_usage_error(capsys):
    for argv in (
        ["eval", "WhittakerW", "-3", "2.5", "nan"],
        ["eval", "WhittakerW", "-3", "2.5", "inf"],
        ["eval", "WSmallX", "-50", "2.5", "nan"],
        ["potential", *DEEP, "--r", "nan,0.5"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert "usage error" in err


HUGE = str(10**12)


@pytest.mark.parametrize(
    "argv,flag,low,high",
    [
        (["wavefunction"], "--samples", 2, 10**6),
        (["potential"], "--samples", 2, 10**6),
        (["spectrum", "--route", "oracle"], "--grid-points", 100, 10**6),
        (["validate"], "--grid-points", 100, 10**6),
        (["spectrum", "--route", "asymptotic"], "--nmax", 1, 1000),
        (["spectrum", "--route", "exact"], "--nmax", 1, 1000),
        (["validate"], "--nmax", 1, 1000),
        (["wavefunction"], "--n", 1, 1000),
    ],
    ids=["wavefunction_samples", "potential_samples", "oracle_grid_points",
         "validate_grid_points", "asymptotic_nmax", "exact_nmax", "validate_nmax", "level"],
)
def test_absurd_sizes_are_usage_errors(argv, flag, low, high, monkeypatch, capsys):
    # rejected while parsing: a command that ran would allocate or loop over the size
    for name, command in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, name, command._replace(run=None))
    for value in (HUGE, str(high + 1)):
        code, out, err = run_cli([*argv, *DEEP, flag, value], capsys)
        assert (code, out) == (1, "")
        assert err == (f"usage error: argument {flag}: expected a finite int >= {low} "
                       f"and <= {high}, got {value}\n")
    ns = cli._parser().parse_args([*argv, *DEEP, flag, str(high)])
    assert getattr(ns, flag[2:].replace("-", "_")) == high


WEAK = ["--mass", "1", "--alpha", "1e-6", "--lambda", "1", "--omega", "1", "--radius", "0.1"]
HEAVY = [
    "--mass", "1e-10", "--alpha", "1e300", "--lambda", "1", "--omega", "1e-3", "--radius", "1e-5",
]
EXTREME = [
    "--mass", "1e-300", "--alpha", "1e200", "--lambda", "1e10", "--omega", "1e-300",
    "--radius", "1e10",
]


def _printed_words(out: str, err: str) -> set:
    """The CSV cells of stdout and the words and values of stderr's summary."""
    return set(out.replace("\n", ",").split(",")) | set(err.replace("=", " ").split())


@pytest.mark.parametrize(
    "argv,code",
    [
        # a square or 2 m alpha lambda^2 past double range is a usage error
        (["spectrum", *DEEP, "--lambda", "1e200", "--nmax", "1"], 1),
        (["spectrum", *DEEP, "--radius", "1e200", "--nmax", "1"], 1),
        (["spectrum", *DEEP, "--pz", "1e200", "--nmax", "1"], 1),
        (["spectrum", "--config", "{ell_cfg}", "--nmax", "1"], 1),
        (["spectrum", *DEEP, "--ell", "1" + "0" * 400, "--nmax", "1"], 1),
        (["spectrum", *DEEP, "--alpha", "1e300", "--mass", "1e10", "--nmax", "1"], 1),
        (["potential", *DEEP, "--lambda", "1e200"], 1),
        # weak coupling: the closed form's binding underflows to 0, the exact route has no root
        (["spectrum", *WEAK, "--nmax", "1"], 0),
        (["spectrum", *WEAK, "--nmax", "1", "--route", "exact"], 3),
        # omega^2 past double range: no turning radius, so no default grid or profile range
        (["validate", *DEEP, "--omega", "1e200", "--nmax", "1"], 3),
        (["spectrum", *DEEP, "--omega", "1e200", "--nmax", "1", "--route", "all"], 3),
        (["wavefunction", *DEEP, "--omega", "1e200", "--route", "asymptotic"], 3),
        # p_z^2/(2m) past double range is a usage error
        (["spectrum", *EXTREME, "--pz", "1e10"], 1),
        # the closed-form binding leaves double range: R^2 underflows to 0, or
        # its prefactor 2 Lambda^2/(m R^2) overflows
        (["spectrum", *DEEP, "--radius", "1e-200", "--nmax", "1"], 3),
        (["sweep-cutoff", *DEEP, "--radii", "0.1,1e-200"], 3),
        (["spectrum", *HEAVY, "--nmax", "1"], 3),
        (["sweep-cutoff", *HEAVY, "--radii", "1e-5"], 3),
        # kappa = (E - shift)/(2 omega) of a finite level leaves double range
        (["spectrum", *EXTREME, "--omega", "1e-200", "--mass", "1", "--pz", "1"], 3),
        # the R^2 (omega + shift - E1) column of a finite level leaves double range
        (["sweep-cutoff", *EXTREME, "--alpha", "1e300", "--omega", "0", "--radii", "1e10"], 3),
        # levels 1..3 round to one double: exp(-2 pi n / Lambda) is 1 at Lambda ~ 1e110
        (["spectrum", "--mass", "1", "--alpha", "1e200", "--lambda", "1e10", "--omega", "0",
          "--radius", "1e10"], 3),
        # tiny omega: a beta window past 1e154 wide (ITP takes bisection steps), and
        # m omega^2 underflowing to 0 in the outer turning radius
        (["spectrum", *DEEP, "--omega", "1e-160", "--route", "exact"], 0),
        (["spectrum", *DEEP, "--omega", "1e-200", "--route", "exact"], 0),
        (["spectrum", *DEEP, "--omega", "1e-300", "--route", "exact"], 0),
        (["sweep-cutoff", *DEEP, "--omega", "1e-160", "--radii", "0.2,0.1"], 0),
        (["sweep-cutoff", *DEEP, "--omega", "1e-300", "--radii", "0.2,0.1"], 0),
        (["wavefunction", *DEEP, "--omega", "1e-160"], 0),
        (["wavefunction", *DEEP, "--omega", "1e-300"], 3),
        (["validate", *DEEP, "--omega", "1e-160", "--nmax", "1", "--grid-points", "100"], 0),
        (["validate", *DEEP, "--omega", "1e-200", "--nmax", "1", "--grid-points", "100"], 3),
        (["spectrum", *DEEP, "--omega", "1e-200", "--route", "oracle", "--nmax", "1",
          "--grid-points", "100"], 3),
        (["spectrum", *DEEP, "--omega", "1e-300", "--route", "all", "--nmax", "1",
          "--grid-points", "100"], 3),
        # the binding omega + shift - E rounds to 0 in p_z^2/(2m) = 5e19: no relative gap
        (["validate", *DEEP, "--pz", "1e10", "--nmax", "1", "--grid-points", "100"], 3),
    ],
    ids=["lambda", "radius", "pz", "ell_config", "ell_flag", "coupling", "potential",
         "weak", "weak_exact", "validate_omega", "spectrum_all_omega", "wavefunction_omega",
         "energy_shift", "binding_radius", "sweep_binding_radius", "binding_prefactor",
         "sweep_binding_prefactor", "kappa", "sweep_scaled_binding", "level_order",
         "tiny_omega_exact", "tiny_omega_exact_1e-200", "tiny_omega_exact_1e-300",
         "tiny_omega_sweep", "tiny_omega_sweep_1e-300", "tiny_omega_wavefunction",
         "tiny_omega_wavefunction_1e-300", "tiny_omega_validate", "tiny_omega_validate_1e-200",
         "tiny_omega_oracle_1e-200", "tiny_omega_all_1e-300", "validate_pz_binding"],
)
def test_parameter_extremes_exit_with_documented_code(argv, code, tmp_path, capsys, request):
    cfg = tmp_path / "ell.cfg"
    cfg.write_text("mass = 1\nalpha = 12.5\nlambda = 1\nomega = 1e-3\nradius = 0.1\nell = 1e200\n")
    got, out, err = run_cli([a.replace("{ell_cfg}", str(cfg)) for a in argv], capsys)
    assert got == code
    if request.node.callspec.id == "weak":
        assert (out, err) == ("n,ell,route,energy,kappa,estimated_error\n1,0,asymptotic,1,0.5,0\n", "")
    elif code == 0:
        assert not _printed_words(out, err) & {"inf", "-inf", "nan"}
    else:
        assert out == "" and err.count("\n") == 1
        assert err.startswith("usage error: " if code == 1 else "numerical failure: ")


EXTREME_VALUES = [
    "-1", "0", "1e-300", "1e-200", "1e-10", "1", "1e10", "1e200", "1e300", "nan", "inf",
]
CHEAP_COMMANDS = {
    "spectrum": ["--route", "asymptotic"],
    "sweep-cutoff": ["--no-exact"],
    "potential": ["--samples", "3"],
}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(CHEAP_COMMANDS)),
    st.lists(st.sampled_from(EXTREME_VALUES), min_size=6, max_size=6),
)
def test_cheap_commands_exit_with_a_documented_code_property(command, values):
    # any finite or non-finite parameter: exit 0-3 and no exception; exit 0 prints no inf or nan
    names = ("mass", "alpha", "lambda", "omega", "radius", "pz")
    argv = [command, *(f"--{k}={v}" for k, v in zip(names, values)), *CHEAP_COMMANDS[command]]
    if command == "sweep-cutoff":
        argv.append(f"--radii={values[4]}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), argv
    if code == 0:
        cells = set(out.getvalue().replace("\n", ",").split(","))
        assert not cells & {"inf", "-inf", "nan"}, argv


PARAM_NAMES = ("mass", "alpha", "lambda", "omega", "radius", "pz")


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    st.sampled_from(["exact", "asymptotic"]),
    st.sampled_from(["1", "2", "3", "1000"]),
    st.sampled_from([None, "0.05", "0.1", "0.6", "3", "40", "1e160"]),
    st.integers(2, 6),
    st.one_of(st.none(), st.tuples(st.sampled_from(PARAM_NAMES), st.sampled_from(EXTREME_VALUES))),
)
# clipped tail samples whose exponents lie far above the live ones' (exp overflowed)
@example("exact", "1", "40", 300, None)
def test_wavefunction_exits_with_a_documented_code_property(route, n, rmax, samples, extreme):
    # deep.cfg with one parameter at an extreme: exit 0-3 and no exception; exit 0
    # prints the header and one row per sample
    argv = ["wavefunction", *DEEP, "--route", route, "--n", n, "--samples", str(samples)]
    if rmax is not None:
        argv += ["--rmax", rmax]
    if extreme is not None:
        argv.append(f"--{extreme[0]}={extreme[1]}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 0:
        lines = out.getvalue().split("\n")
        assert lines[0] == "r,f" and lines[-1] == "" and len(lines) == samples + 2, argv
        assert not set(",".join(lines[1:]).split(",")) & {"inf", "-inf", "nan"}, argv


SOLVING_COMMANDS = {
    "exact": ["spectrum", "--route", "exact"],
    "oracle": ["spectrum", "--route", "oracle"],
    "all": ["spectrum", "--route", "all"],
    "validate": ["validate"],
}


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(SOLVING_COMMANDS)),
    st.sampled_from(PARAM_NAMES),
    st.sampled_from(EXTREME_VALUES),
)
@example("exact", "omega", "1e-200")  # ITP's (b - a)^2 overflowed on a ~1e201-wide window
@example("validate", "omega", "1e-300")  # m omega^2 underflowed: a division by zero
@example("validate", "pz", "1e10")  # the binding rounds to 0 in the p_z shift: gaps of inf
def test_solving_commands_exit_with_a_documented_code_property(command, name, value):
    # deep.cfg on a 100-point grid with one parameter at an extreme: exit 0-3 and no
    # exception; exit 0 prints no inf or nan
    argv = [*SOLVING_COMMANDS[command], *DEEP, "--nmax", "1", "--grid-points", "100",
            f"--{name}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), argv
    if code == 0:
        assert not _printed_words(out.getvalue(), err.getvalue()) & {"inf", "-inf", "nan"}, argv


# either sign: a large negative kappa reaches the small-x form (beta >= 10), and a
# large negative Re z a log-Gamma far left of the axis
SIGNED_EXTREMES = EXTREME_VALUES + [f"-{v}" for v in EXTREME_VALUES if v != "-1"]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(cli._EVAL_ARGC)),
    st.lists(st.sampled_from(SIGNED_EXTREMES), min_size=5, max_size=5),
)
# beta >= 10 needs kappa <= -9.5, so the draws rarely reach the small-x form
@example("WSmallX", ["-1e300", "1e300", "1e300", "0", "0"])  # 4 mu^2 overflows
@example("WSmallX", ["-1e200", "1e10", "1e300", "0", "0"])  # its error is inf * 0 = nan
def test_eval_exits_with_a_documented_code_property(kind, values):
    # any finite or non-finite argument of either sign: exit 0-3 and no exception;
    # exit 0 prints no inf or nan
    argv = ["eval", kind, "--", *values[:cli._EVAL_ARGC[kind]]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), argv
    if code == 0:
        assert not set(out.getvalue().split()) & {"inf", "-inf", "nan"}, argv


def test_eval_extremes_are_typed_errors(capsys):
    # log-Gamma far left of the axis would take ~|Re z| recurrence steps (forever past
    # 2^53), and 4 mu^2 past double range turns the small-x phase into log(0)
    for argv, message in (
        (["eval", "GammaLn", "--", "-1e10", "1"], "recurrence steps"),
        (["eval", "GammaLn", "--", "-1e300", "1e300"], "recurrence steps"),
        (["eval", "WhittakerW", "--", "1e10", "2.5", "0.001"], "recurrence steps"),
        (["eval", "WSmallX", "--", "-1e300", "1e300", "1e300"], "leaves double range"),
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, ""), argv
        assert err.startswith("numerical failure: DomainError: ") and message in err
        assert err.count("\n") == 1


def test_huge_kappa_overflow_is_numerical_failure(capsys):
    # the large-x series, then the Kummer series, overflow double range
    for argv in (
        ["eval", "WhittakerW", "--", "-1e306", "1", "31"],
        ["eval", "WhittakerW", "--", "-1.160238289845834e80", "3.6878550803485646", "0.0175"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, ""), argv
        assert "numerical failure: ConvergenceError" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rmax", ["1e80", "1e308"])
def test_oracle_matrix_overflow_names_r_max(rmax, capsys):
    # the oracle's matrix leaves double range: once numpy's overflow and
    # invalid-value warnings, then "matrix entries must be finite"
    argv = ["spectrum", *DEEP, "--route", "oracle", "--grid-rmax", rmax]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert "numerical failure: DomainError" in err
    assert f"r_max = {float(rmax):g}" in err and "double range" in err


def _ns_reads(name: str, defs: dict, seen: set) -> set:
    """The ns.<attr> names read by cli function `name` and by every cli
    function it passes ns to."""
    if name in seen or name not in defs:
        return set()
    seen.add(name)
    reads = set()
    for node in ast.walk(defs[name]):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "ns":
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            passed = [*node.args, *(k.value for k in node.keywords)]
            if any(getattr(v, "id", None) == "ns" for v in passed):
                reads |= _ns_reads(node.func.id, defs, seen)
    return reads


def test_every_flag_is_read_by_its_command():
    # a flag that its command never reads changes nothing it prints
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    defs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    parser = cli._parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli._COMMANDS)
    for name, command in cli._COMMANDS.items():
        flags = argparse.ArgumentParser(add_help=False)
        command.add_flags(flags)
        dests = {a.dest for a in flags._actions}
        assert dests == {a.dest for a in sub.choices[name]._actions} - {"help"}, name
        reads = _ns_reads(command.run.__name__, defs, set())
        assert dests <= reads, (name, sorted(dests - reads))


def _full_parse(argv) -> None:
    cli._parser().parse_args(argv)


def _outcome(parse, argv):
    """(exit code, stdout, stderr) of parse(argv), with a usage error reported as main does."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = parse(argv)
        except SystemExit as exc:  # --help
            code = exc.code
        except cli._UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            code = cli.EXIT_USAGE
    return code, out.getvalue(), err.getvalue()


PARSE_ONLY = {  # per command: argv that argparse rejects before the command runs
    "spectrum": [["--nmax", "0"], ["--route", "nope"], ["--grid-points", "x"]],
    "validate": [["--compare-tol", "-1"], ["--grid-scheme", "log"]],  # a removed flag
    "wavefunction": [["--samples", "1"], ["--rmax", "nan"], ["--n", "1.5"]],
    "sweep-cutoff": [[], ["--radii"], ["--mass", "x", "--radii", "0.1"]],
    "potential": [["--rmin", "nan"], ["--samples", "two"]],
    "eval": [[], ["Foo"], ["GammaLn", "x"]],
}


@pytest.mark.parametrize("command", list(PARSE_ONLY))
def test_main_parses_like_the_full_parser(command):
    # main builds only the named command's subparser; its help and usage errors keep
    # the full parser's bytes
    cases = [["--help"], ["-h", "--bogus"], ["--bogus"], ["--radii", "0.1", "--bogus", "7"],
             *PARSE_ONLY[command]]
    for args in cases:
        argv = [command, *args]
        full = _outcome(_full_parse, argv)
        assert full[0] in (0, 1), argv
        assert _outcome(cli.main, argv) == full, argv


def test_main_without_a_command_uses_the_full_parser():
    for argv in ([], ["--help"], ["-h"], ["no-such-command"], ["--mass", "1"], ["eval-"]):
        full = _outcome(_full_parse, argv)
        assert full[0] in (0, 1), argv
        assert _outcome(cli.main, argv) == full, argv


@pytest.mark.parametrize("argv,same_as", [
    (["spectrum", *DEEP, "--pz", "-1e-3"], ["spectrum", *DEEP, "--pz=-1e-3"]),
    (["spectrum", *DEEP, "--pz", "-.5E2"], ["spectrum", *DEEP, "--pz", "-50"]),
    (["eval", "GammaLn", "-1.5e1", "0.5"], ["eval", "GammaLn", "--", "-1.5e1", "0.5"]),
    (["eval", "WhittakerW", "-3E0", "2.5", "1e-3"], ["eval", "WhittakerW", "-3", "2.5", "0.001"]),
    (["potential", *DEEP, "--r", "-1e-3"], ["potential", *DEEP, "--r=-1e-3"]),
    (["potential", *DEEP, "--rmin", "-1e-1", "--rmax", "1", "--samples", "3"],
     ["potential", *DEEP, "--rmin", "-0.1", "--rmax", "1", "--samples", "3"]),
    (["potential", *DEEP, "--r", "-1e-3,2"], ["potential", *DEEP, "--r=-1e-3,2"]),
    (["potential", *DEEP, "--r", "-1,,-2.5E-1"], ["potential", *DEEP, "--r=-1,,-0.25"]),
], ids=["pz", "pz_leading_dot", "eval_gamma_ln", "eval_whittaker_w", "potential_r",
        "potential_rmin", "potential_r_list", "potential_r_list_empty_item"])
def test_negative_numbers_in_exponent_form_are_values(argv, same_as, capsys):
    # any float spelling after a '-' is a value, read as the '=' or '--' form reads it
    result = run_cli(argv, capsys)
    assert result == run_cli(same_as, capsys)
    assert result[0] == 0, result


@pytest.mark.parametrize("argv,message", [
    (["eval", "GammaLn", "-inf", "0"], "GammaLn arguments must be finite"),
    (["eval", "GammaLn", "0", "-NaN"], "GammaLn arguments must be finite"),
    (["spectrum", *DEEP, "--pz", "-inf"], "p_z must be finite"),
    (["potential", *DEEP, "--rmin", "-Infinity"],
     "argument --rmin: expected a finite float, got -Infinity"),
    (["spectrum", *DEEP, "--pz", "-h"], "argument --pz: expected one argument"),
    (["spectrum", *DEEP, "--pz", "--bogus"], "argument --pz: expected one argument"),
    (["eval", "GammaLn", "-e1", "0"], "unrecognized arguments: -e1 0"),
    (["spectrum", *DEEP, "--bogus"], "unrecognized arguments: --bogus"),
    (["potential", *DEEP, "--r", "-x,2"], "argument --r: expected one argument"),
    (["potential", *DEEP, "--r", "-1e-3,x"], "argument --r: expected one argument"),
    (["sweep-cutoff", *DEEP, "--radii", "-0.1,--bogus"],
     "argument --radii: expected one argument"),
    (["sweep-cutoff", *DEEP, "--radii", "-0.1,0.05"], "--radii must be finite and positive"),
], ids=["eval_minus_inf", "eval_minus_nan", "pz_minus_inf", "rmin_minus_infinity",
        "pz_help_flag", "pz_unknown_flag", "eval_no_mantissa", "unknown_flag",
        "r_list_of_a_word", "r_list_ending_in_a_word", "radii_list_with_a_flag",
        "radii_list_negative_first"])
def test_non_numbers_after_a_dash_stay_usage_errors(argv, message, capsys):
    # a comma list of floats that starts with '-' is a value, which its command checks
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == f"usage error: {message}\n"


def test_wavefunction_builds_only_its_own_subparser(monkeypatch, capsys):
    calls = []
    add_argument = argparse._ActionsContainer.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
    argv = ["wavefunction", *DEEP, "--n", "1", "--rmax", "0.6", "--samples", "5"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out.startswith("r,f\n")
    # one -h flag, the nine parameter flags and the command's own four
    assert len(calls) == 14


HELP_FROZEN = pathlib.Path(__file__).parent / "cli_help_frozen.txt"


def _help_table(monkeypatch) -> str:
    """stdout and stderr of `-h` and of an unknown flag for every command, at
    80 columns (argparse wraps help to the terminal width)."""
    monkeypatch.setenv("COLUMNS", "80")
    parts = []
    for name in cli._COMMANDS:
        for flag in ("-h", "--bogus"):
            code, out, err = _outcome(cli.main, [name, flag])
            parts.append(f"=== {name} {flag}: exit {code}\n--- stdout\n{out}--- stderr\n{err}")
    return "".join(parts)


def test_command_help_and_usage_errors_are_frozen(monkeypatch):
    # the bytes main printed while it built the full parser for every command
    # (Python 3.11's argparse layout); after a deliberate change of help or
    # messages, write _help_table's text to the file
    assert _help_table(monkeypatch) == HELP_FROZEN.read_text(encoding="utf-8")


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


def test_config_file_with_a_byte_order_mark(tmp_path, capsys):
    text = "mass = 1\nalpha = 12.5\nlambda = 1\nomega = 1e-3\nradius = 0.1\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    result = run_cli(["spectrum", "--config", str(marked)], capsys)
    assert result == run_cli(["spectrum", "--config", str(plain)], capsys)
    assert result[0] == 0


def test_unwritable_out_path_is_usage_error(tmp_path, capsys):
    for path in (tmp_path / "missing" / "x.csv", tmp_path):  # no such directory; a directory
        code, out, err = run_cli(["spectrum", *DEEP, "--out", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: cannot write output file: "), err
        assert str(path) in err and "Traceback" not in err
        assert err.count("\n") == 1


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


def test_validate_without_route_pairs_prints_no_gap(capsys):
    # Lambda = 120: the exact route raises BracketError, so no level has two
    # routes that a gap could compare; the summary used to print gaps of 0
    argv = ["validate", "--mass", "1", "--alpha", "7200", "--lambda", "1", "--omega", "1e-3",
            "--radius", "0.1", "--nmax", "1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert out.strip().split("\n")[1].endswith(",,,absent:exact:BracketError")
    assert err == ("validate: max_rel_gap=none max_gap_exact_oracle=none "
                   "regime_ok=false within_tol=false\n")


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


@pytest.mark.parametrize("command,flag", [("sweep-cutoff", "--radii"), ("potential", "--r")])
def test_comma_lists_must_be_non_empty(command, flag, capsys):
    # a list of no floats is named as empty; a bad token keeps its own message
    for value in (",", "", " , ,"):
        code, out, err = run_cli([command, *DEEP, f"{flag}={value}"], capsys)
        assert (code, out) == (1, ""), value
        assert f"usage error: {flag} needs a non-empty list" in err
    code, out, err = run_cli([command, *DEEP, flag, "0.1,x"], capsys)
    assert (code, out) == (1, "")
    assert f"bad {flag} list: could not convert string to float: 'x'" in err


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


def test_potential_overflow_rows_marked(capsys):
    # V grows like r^2: past ~1.9e157 on deep.cfg it leaves double range
    code, out, err = run_cli(["potential", *DEEP, "--rmax", "1e200", "--samples", "3"], capsys)
    assert code == 0
    assert out.split("\n")[1:] == [
        "0.10000000000000001,-1249.9999999949998,ok",
        "4.9999999999999998e+199,,overflow",
        "9.9999999999999997e+199,,overflow",
        "",
    ]
    assert err == "warning: 2 radii where the potential leaves double range\n"
    # r * r underflowing to 0 and omega^2 past double range, next to a forbidden row
    for argv, rows in (
        (["--radius", "1e-170", "--r", "1e-170,1e-100", "--with-centrifugal"],
         ["9.9999999999999998e-171,,,overflow",
          "1e-100,-1.2500000000000001e+201,-1.2500000000000001e+201,ok"]),
        (["--omega", "1e200", "--r", "0.05,1"], ["0.050000000000000003,,forbidden", "1,,overflow"]),
    ):
        code, out, err = run_cli(["potential", *DEEP, *argv], capsys)
        assert (code, out.split("\n")[1:-1]) == (0, rows), argv
        assert "1 radii where the potential leaves double range" in err


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


def test_eval_m_kinds_are_usage_errors(capsys):
    # M(a; b; x) and Whittaker M are no eval kinds: W sums its Kummer series itself
    for argv in (["eval", "KummerM", "2", "0", "2", "0", "1.5"],
                 ["eval", "WhittakerM", "-3", "2.5", "0.001"]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert err.startswith("usage error: argument kind: invalid choice"), err
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "-h"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert "{GammaLn,WhittakerW,WSmallX}" in help_text  # the kinds, in the usage line
    assert "KummerM" not in help_text and "WhittakerM" not in help_text


def test_eval_whittaker_w_residual(capsys):
    # W = 2|T| cos(arg T) is real by construction: no imaginary residual is printed
    code, out, _ = run_cli(["eval", "WhittakerW", "-3", "2.5", "0.001"], capsys)
    assert code == 0
    value, est = (float(tok) for tok in out.split())
    assert 0.0 < est < 1e-12 * abs(value)
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


def test_wavefunction_default_rmax_of_deep_level(capsys):
    # E1 = -794.7: 3x the outer turning radius is r = 0.527, past the single lobe
    argv = ["wavefunction", "--mass", "1", "--alpha", "24.5", "--lambda", "1",
            "--omega", "1e-6", "--radius", "0.1", "--n", "1"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    rows = [[float(c) for c in ln.split(",")] for ln in out.strip().split("\n")[1:]]
    assert rows[0] == [0.1, 0.0]
    assert 0.52 < rows[-1][0] < 0.53
    f = [v for _, v in rows[1:] if v != 0.0]
    assert f and all(math.copysign(1.0, v) == math.copysign(1.0, f[0]) for v in f)


def test_wavefunction_rmax_past_double_range(capsys):
    # m omega r_max^2 overflows: a typed error naming r_max, and no numpy
    # RuntimeWarning (the suite turns those into errors)
    argv = ["wavefunction", *DEEP, "--n", "1", "--rmax", "1e160", "--samples", "3"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err == ("numerical failure: DomainError: r_max = 1e+160 puts "
                   "x = m omega r_max^2 past double range\n")


@pytest.mark.parametrize("samples", [2, 3, 50, 512])
def test_wavefunction_csv_is_the_per_row_format(samples, tmp_path, capsys):
    # the rows, formatted in one pass, are _fmt of each r and f, to stdout and to a file
    params = PhysicalParams(1.0, 12.5, 1.0, 1e-3, 0.1)  # DEEP
    profile = spectrum.radial_wavefunction(params, spectrum.quantize_exact(params, 1), None,
                                           samples)
    expect = "r,f\n" + "".join(f"{cli._fmt(r)},{cli._fmt(f)}\n" for r, f in
                               zip(profile.r_samples.tolist(), profile.f_values.tolist()))
    argv = ["wavefunction", *DEEP, "--n", "1"]
    if samples != 512:  # else the default
        argv += ["--samples", str(samples)]
    assert run_cli(argv, capsys) == (0, expect, "")
    path = tmp_path / "profile.csv"
    assert run_cli([*argv, "--out", str(path)], capsys) == (0, "", "")
    assert path.read_bytes() == expect.encode("utf-8")


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
