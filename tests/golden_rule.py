"""Golden rule: every number that a change moves in the golden CSVs lies
within the sum of its old and new estimated error.  Run it before the
goldens are rewritten:

    PYTHONPATH=src python tests/golden_rule.py [REV]

It runs each case of test_golden.CASES whose stdout is a `spectrum` or
`validate` CSV twice, with the package at git revision REV (default HEAD)
and with the one on PYTHONPATH, and compares the two outputs cell by cell.
The estimated error of a cell on one side is, for a `spectrum` row, the
row's estimated_error for the energy and itself, and that over 2 omega for
kappa = (E - shift) / (2 omega); for a `validate` row, the estimated_error
of the same route and level in `spectrum --route all` on the same flags for
an energy, and for a gap |E_a - E_b| / |omega + shift - E_a| the two
routes' errors summed over that binding.  Text and empty cells must not
move.  It prints each moved cell with |new - old| / (est_old + est_new) and
the worst ratio of each file, and exits 1 when a ratio exceeds 1 or a
text cell moves.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile

from test_golden import CASES

from dipolewell import cli

ROOT = pathlib.Path(__file__).parents[1]
VALIDATE_ONLY = {"--x0-threshold", "--beta-min", "--compare-tol"}
ROUTES = ("asymptotic", "exact", "oracle")
# stdout of cli.main for each argv in the JSON list argv[1]
_RUN = """import contextlib, io, json, sys
from dipolewell import cli
outs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    outs.append(out.getvalue())
print(json.dumps(outs))
"""


def _outputs(src: str, argvs: list[list[str]]) -> list[str]:
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _RUN, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _companion(argv: list[str]) -> list[str]:
    """`spectrum --route all` on the flags of a `validate` argv."""
    flags = [a for i, a in enumerate(argv[1:])
             if a not in VALIDATE_ONLY and argv[i] not in VALIDATE_ONLY]
    return ["spectrum", *flags, "--route", "all"]


def _params(argv: list[str]):
    parser = cli._Parser(prog="golden_rule")
    cli._COMMANDS[argv[0]].add_flags(parser)
    return cli._build_params(parser.parse_args(argv[1:]))


def _rows(out: str) -> list[list[str]]:
    return [line.split(",") for line in out.splitlines()]


def _cells(argv, out: str, companion: str | None) -> dict:
    """(row, column) -> (text, estimated error or None) of every cell of a CSV."""
    params = _params(argv)
    est = {}  # (n, route) -> estimated_error, from the spectrum CSV itself or the companion
    for n, _, route, _, _, err in _rows(companion or out)[1:]:
        est[n, route] = float(err)
    cells = {}
    header, *rows = _rows(out)
    for i, row in enumerate(rows):
        n = row[0]
        errs = dict.fromkeys(header)
        if companion is None:
            errs.update(energy=est[n, row[2]], kappa=est[n, row[2]] / (2.0 * params.omega),
                        estimated_error=est[n, row[2]])
        else:
            energies = dict(zip(ROUTES, row[2:5]))
            for route in ROUTES:
                errs[f"E_{route}"] = est.get((n, route))
            for col, a, b in (("rel_gap_asym_exact", "asymptotic", "exact"),
                              ("rel_gap_exact_oracle", "exact", "oracle")):
                if (n, a) in est and (n, b) in est:
                    binding = abs(params.omega + params.energy_shift - float(energies[a]))
                    errs[col] = (est[n, a] + est[n, b]) / binding
        for col, text in zip(header, row):
            cells[i, col] = text, errs[col] if text else None
    return cells


def main(rev: str = "HEAD") -> int:
    cases = [(name, argv, _companion(argv) if argv[0] == "validate" else None)
             for name, argv, code in CASES if code == 0 and argv[0] in ("spectrum", "validate")]
    argvs = [argv for _, argv, _ in cases] + [c for _, _, c in cases if c]
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        old = _outputs(os.path.join(tmp, "src"), argvs)
    new = _outputs(str(pathlib.Path(cli.__file__).parents[1]), argvs)
    failed = False
    for name, argv, companion in cases:
        side = [_cells(argv, outs[argvs.index(argv)],
                       companion and outs[argvs.index(companion)]) for outs in (old, new)]
        if set(side[0]) != set(side[1]):
            print(f"{name}: the table's shape moved")
            failed = True
            continue
        worst, moved = 0.0, 0
        for key, (text_old, est_old) in side[0].items():
            text_new, est_new = side[1][key]
            if text_old == text_new:
                continue
            moved += 1
            if est_old is None or est_new is None:
                print(f"{name} row {key[0] + 1} {key[1]}: {text_old!r} -> {text_new!r}")
                failed = True
                continue
            ratio = abs(float(text_new) - float(text_old)) / (est_old + est_new)
            worst = max(worst, ratio)
            failed = failed or not ratio <= 1.0
            print(f"{name} row {key[0] + 1} {key[1]}: {text_old} -> {text_new}  ratio {ratio:.2e}")
        print(f"{name}: {moved} moved cells, worst ratio {worst:.2e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
