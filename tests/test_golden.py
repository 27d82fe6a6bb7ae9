"""Golden lock: stdout bytes and exit codes of the README CLI commands.

Each case runs ``cli.main`` in-process on ``tests/golden/deep.cfg`` and
compares its stdout, byte for byte, with ``tests/golden/<name>.out``.  The
``validate`` summary goes to stderr and is not locked.  After a deliberate
change of output, rewrite the files with

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
    ("sweep_cutoff", ["sweep-cutoff", "--config", CFG, "--radii", "0.2,0.1,0.05,0.025"], 0),
    ("wavefunction", ["wavefunction", "--config", CFG, "--n", "1", "--rmax", "0.7"], 0),
    ("potential", ["potential", "--config", CFG, "--rmin", "0.1", "--rmax", "1",
                   "--samples", "200"], 0),
    ("eval_gamma_ln", ["eval", "GammaLn", "0.5", "3"], 0),
    ("eval_kummer_m", ["eval", "KummerM", "0.5", "1", "1", "2", "0.3"], 0),
    ("eval_whittaker_m", ["eval", "WhittakerM", "-3", "2.5", "0.001"], 0),
    ("eval_whittaker_w", ["eval", "WhittakerW", "-3", "2.5", "0.001"], 0),
    ("eval_w_small_x", ["eval", "WSmallX", "-50", "2.5", "1e-5"], 0),
]


def _run(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, code):
    got_code, got = _run(argv)
    assert got_code == code
    assert got == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    for name, argv, code in CASES:
        got_code, got = _run(argv)
        if got_code != code:
            sys.exit(f"{name}: exit code {got_code}, expected {code}")
        (GOLDEN / f"{name}.out").write_bytes(got)
        print(f"wrote {name}.out ({len(got)} bytes)")
