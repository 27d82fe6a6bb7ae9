"""The measured process: imports the program, builds one workload's inputs and
times every problem over a fixed number of interleaved rounds.

run.py starts this script and never imports it, so this process holds only
what the program itself loads (numpy and dipolewell) and its peak resident
memory is the program's.  It reads one JSON request line on stdin, prints
``ready <import seconds>`` once its inputs are built, and, when asked for
rounds, prints one JSON line with the outputs, the start and end of
every problem and the calibration samples.  The
correctness checks run in run.py after this process has ended.

    echo '{"root": ".", "workload": "exact-ladder", "seed": 1, "rounds": 0}' \\
        | python3 perfbench/worker.py
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time


def _load(root: str):
    """Import numpy and the program; returns (cli, spectrum, PhysicalParams, error type)."""
    sys.path.insert(0, os.path.join(root, "src"))
    importlib.import_module("numpy")
    cli = importlib.import_module("dipolewell.cli")
    spectrum = importlib.import_module("dipolewell.spectrum")
    model = importlib.import_module("dipolewell.model")
    errors = importlib.import_module("dipolewell.errors")
    return cli, spectrum, model.PhysicalParams, errors.DipoleWellError


def _solvers(cli, spectrum, params_type, error_type):
    def solve_level(problem):
        """exact-ladder: one spectrum.quantize_exact call."""
        c = problem.config
        params = params_type(c.mass, c.alpha, c.lam, c.omega, c.radius, c.ell, c.pz)
        try:
            lv = spectrum.quantize_exact(params, problem.n)
        except error_type as exc:
            return False, {"error": type(exc).__name__}
        return True, {"energy": lv.energy, "kappa": lv.kappa, "est_error": lv.est_error,
                      "extra_sign_changes": lv.extra_sign_changes}

    def run_cli(problem):
        """oracle-validate and wavefunction-profile: one in-process cli.main call."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(problem.argv))
        csv = out.getvalue()
        return code == 0 and "absent:" not in csv, {"exit": code, "csv": csv,
                                                    "stderr": err.getvalue()}

    return solve_level, run_cli


def main() -> None:
    t_start = time.perf_counter()
    request = json.loads(sys.stdin.readline())
    cli, spectrum, params_type, error_type = _load(request["root"])
    import_s = time.perf_counter() - t_start
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import calibration
    import workloads

    workload = request["workload"]
    problems = workloads.GENERATORS[workload](request["seed"])
    print(f"ready {import_s!r}", flush=True)
    rounds = request["rounds"]
    if rounds == 0:
        return

    solve_level, run_cli = _solvers(cli, spectrum, params_type, error_type)
    solve = solve_level if workload == "exact-ladder" else run_cli
    tracer = None
    if request["trace"]:
        import tracing

        tracer = tracing.Tracer()
    # with tracing on, odd rounds are traced and even rounds are not
    traced_rounds = [tracer is not None and r % 2 == 1 for r in range(rounds)]
    intervals, ok, outputs = [], [], []
    deterministic = True
    sampler = calibration.Sampler()
    sampler.start()
    for traced in traced_rounds:
        if traced:
            tracer.install()
        t_row, ok_row = [], []
        for i, problem in enumerate(problems):
            if traced:
                tracer.problem = i
            t0 = time.perf_counter()
            good, out = solve(problem)
            t_row.append((t0, time.perf_counter()))
            ok_row.append(good)
            if len(outputs) < len(problems):
                outputs.append(out)
            elif out != outputs[i]:
                deterministic = False
        if traced:
            tracer.uninstall()
        intervals.append(t_row)
        ok.append(ok_row)
    sampler.stop()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if workload == "wavefunction-profile":
        # the level behind each profile, for the mpmath checks (not timed)
        for problem, out in zip(problems, outputs):
            good, level = solve_level(problem)
            out["level"] = level if good else None
    if tracer is not None:
        tracer.write(request["trace_path"])
    print(json.dumps({"intervals": intervals, "samples": sampler.samples,
                      "traced": traced_rounds,
                      "ok": ok, "outputs": outputs, "deterministic": deterministic,
                      "peak_rss_kb": peak_rss_kb}), flush=True)


if __name__ == "__main__":
    main()
