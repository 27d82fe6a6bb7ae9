"""Shows that each correctness check of the benchmark rejects a wrong answer.

    python3 perfbench/selftest.py

Runs every workload once (seed 1), confirms that the untouched outputs pass
their checks, then corrupts them one way at a time and confirms that the
checks reject each corruption:

* an exact energy moved by 10x its est_error (both directions, every level),
* an oracle eigenvalue moved by 1e-8 relative (every row of every validate),
* one profile sample with its sign flipped (one per profile).

Exits 0 when every corruption is rejected.  Not collected by pytest.
"""

from __future__ import annotations

import sys

import checks
import run
import workloads

SEED = 1


def outputs_of(workload: str) -> tuple[list, list[dict]]:
    request = {"root": run.ROOT, "workload": workload, "seed": SEED, "rounds": 1,
               "trace": False, "trace_path": ""}
    _, _, result = run.run_worker(request, run.WORKER_TIMEOUT_S)
    return workloads.GENERATORS[workload](SEED), result["outputs"]


def with_csv_cell(csv: str, row: int, col: int, value: str) -> str:
    lines = csv.rstrip("\n").split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def exact_cases(problems, outputs):
    for i, out in enumerate(outputs):
        for sign in (1.0, -1.0):
            bad = dict(out, energy=out["energy"] + sign * 10.0 * out["est_error"])
            yield f"level {i} E {sign:+g}10 est_error", [problems[i]], [bad]


def oracle_cases(problems, outputs):
    for i, out in enumerate(outputs):
        for row in range(problems[i].n):
            e_o = float(checks.parse_csv(out["csv"], checks.VALIDATE_HEADER)[row][4])
            bad = dict(out, csv=with_csv_cell(out["csv"], row, 4, repr(e_o * (1.0 + 1e-8))))
            yield f"validate {i} row {row + 1} E_oracle x(1+1e-8)", [problems[i]], [bad]


def profile_cases(problems, outputs):
    for i, out in enumerate(outputs):
        rows = checks.parse_csv(out["csv"], "r,f")
        # the largest sample that is not the normalizing peak
        f = [abs(float(v)) for _, v in rows]
        peak = max(range(len(f)), key=f.__getitem__)
        j = max((k for k in range(len(f)) if k != peak), key=f.__getitem__)
        flipped = repr(-float(rows[j][1]))
        yield (f"profile {i} sample {j} sign flipped", [problems[i]],
               [dict(out, csv=with_csv_cell(out["csv"], j, 1, flipped))])


CASES = {
    "exact-ladder": exact_cases,
    "oracle-validate": oracle_cases,
    "wavefunction-profile": profile_cases,
}


def main() -> int:
    missed = 0
    for workload, cases in CASES.items():
        problems, outputs = outputs_of(workload)

        def check(p, o):
            return checks.check(workload, p, o, SEED)

        clean = check(problems, outputs)
        if clean:
            print(f"{workload}: untouched outputs rejected: {clean[:3]}")
            return 1
        total = passed = 0
        for label, p, o in cases(problems, outputs):
            total += 1
            if not check(p, o):
                passed += 1
                print(f"{workload}: NOT rejected: {label}")
        missed += passed
        print(f"{workload}: untouched outputs pass; {total - passed} of {total} "
              "corruptions rejected")
    print("selftest:", "PASS" if missed == 0 else f"FAIL ({missed} corruptions passed)")
    return 0 if missed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
