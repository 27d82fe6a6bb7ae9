"""Golden lock: stdout bytes and exit codes of the README CLI commands.

Each case runs ``cli.main`` in-process on ``tests/golden/deep.cfg`` and
compares its stdout, byte for byte, with ``tests/golden/<name>.out``.  Cases
marked in ``LOCK_STDERR`` (the failing ones, one warning and the ``validate``
summaries) compare stderr with ``tests/golden/<name>.err``, which pins the
error's type, message and precedence and the summary's verdict; every other
case must print nothing to stderr.  After a deliberate change of output,
rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys

import pytest

from dipolewell import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
CFG = str(GOLDEN / "deep.cfg")

# (name, argv, exit code)
CASES = [
    ("spectrum_all", ["spectrum", "--config", CFG, "--nmax", "3", "--route", "all",
                      "--grid-points", "600"], 0),
    ("validate", ["validate", "--config", CFG, "--nmax", "2", "--grid-points", "600"], 0),
    # the default 2000-point grid: the oracle's ladder of 100, 2000 and 4001 points
    ("validate_default_grid", ["validate", "--config", CFG, "--nmax", "2"], 0),
    # k = 21 eigenvectors per grid of the ladder, each refined by inverse iteration;
    # 20 levels bisected on the 2000-point grid, 21 on the 4001-point one
    ("spectrum_oracle_nmax20", ["spectrum", "--config", CFG, "--route", "oracle",
                                "--nmax", "20"], 0),
    # thresholds that fail both regime flags, x0_admissible first
    ("validate_thresholds", ["validate", "--config", CFG, "--nmax", "2", "--grid-points", "600",
                             "--x0-threshold", "1e-6", "--beta-min", "1e5"], 0),
    ("sweep_cutoff", ["sweep-cutoff", "--config", CFG, "--radii", "0.2,0.1,0.05,0.025"], 0),
    ("sweep_cutoff_no_exact", ["sweep-cutoff", "--config", CFG, "--radii", "0.2,0.1,0.05,0.025",
                               "--no-exact"], 0),
    # omega = 0: the closed form still runs, exact quantization is undefined
    ("sweep_cutoff_static", ["sweep-cutoff", "--config", CFG, "--omega", "0",
                             "--radii", "0.2,0.1,0.05"], 0),
    ("wavefunction", ["wavefunction", "--config", CFG, "--n", "1", "--rmax", "0.7"], 0),
    # ~100x the turning radius: the Kummer sums of 13 of the 64 samples pass 1e250
    ("wavefunction_rescaled", ["wavefunction", "--config", CFG, "--n", "1", "--rmax", "30",
                               "--samples", "64"], 0),
    # the closed-form level misses f(R) = 0, which stderr warns about
    ("wavefunction_asymptotic", ["wavefunction", "--config", CFG, "--n", "2",
                                 "--route", "asymptotic", "--rmax", "0.7"], 0),
    ("potential", ["potential", "--config", CFG, "--rmin", "0.1", "--rmax", "1",
                   "--samples", "200"], 0),
    ("eval_gamma_ln", ["eval", "GammaLn", "0.5", "3"], 0),
    ("eval_whittaker_w", ["eval", "WhittakerW", "-3", "2.5", "0.001"], 0),
    ("eval_w_small_x", ["eval", "WSmallX", "-50", "2.5", "1e-5"], 0),
    ("wavefunction_shallow", ["wavefunction", "--mass", "1", "--alpha", "4", "--lambda", "1",
                              "--omega", "1", "--radius", "0.1", "--n", "2"], 0),
    # first sample beyond the large-x switch: the asymptotic series of W diverges
    ("wavefunction_large_x_error", ["wavefunction", "--config", CFG, "--n", "1",
                                    "--rmax", "200"], 3),
    # 3x the outer turning radius as its cancelling form used to give it: far past the
    # turning region, where the Kummer series hits its term cap
    ("wavefunction_kummer_error", ["wavefunction", "--mass", "1", "--alpha", "24.5",
                                   "--lambda", "1", "--omega", "1e-6", "--radius", "0.1",
                                   "--n", "1", "--rmax", "7937.253933193771"], 3),
    # the scalar W of that failing sample: its -i mu Kummer series runs first
    ("eval_whittaker_w_kummer_error", ["eval", "WhittakerW", "--", "-397350221.191409",
                                       "3.5", "0.23194849733152514"], 3),
    # Lambda = 7, x0 = 1e-2: the top of the ladder the beta_hat window used to bracket
    ("spectrum_exact_lambda7", ["spectrum", "--mass", "1", "--alpha", "24.5", "--lambda", "1",
                                "--omega", "1", "--radius", "0.1", "--nmax", "3",
                                "--route", "exact"], 0),
    # Lambda = 8, x0 = 1e-2: strong field, where n = 1 needs the Bessel-K phase start
    ("spectrum_all_lambda8", ["spectrum", "--mass", "1", "--alpha", "32", "--lambda", "1",
                              "--omega", "1", "--radius", "0.1", "--nmax", "3",
                              "--route", "all"], 0),
]
LOCK_STDERR = {"validate", "validate_default_grid", "validate_thresholds",
               "wavefunction_asymptotic", "wavefunction_large_x_error",
               "wavefunction_kummer_error", "eval_whittaker_w_kummer_error"}


def _run(argv: list[str]) -> tuple[int, bytes, bytes]:
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, code):
    got_code, got, got_err = _run(argv)
    assert got_code == code
    assert got == (GOLDEN / f"{name}.out").read_bytes()
    assert got_err == ((GOLDEN / f"{name}.err").read_bytes() if name in LOCK_STDERR else b"")


if __name__ == "__main__":
    for name, argv, code in CASES:
        got_code, got, got_err = _run(argv)
        if got_code != code:
            sys.exit(f"{name}: exit code {got_code}, expected {code}")
        if got_err and name not in LOCK_STDERR:
            sys.exit(f"{name}: unexpected stderr {got_err!r}")
        (GOLDEN / f"{name}.out").write_bytes(got)
        print(f"wrote {name}.out ({len(got)} bytes)")
        if name in LOCK_STDERR:
            (GOLDEN / f"{name}.err").write_bytes(got_err)
            print(f"wrote {name}.err ({len(got_err)} bytes)")
