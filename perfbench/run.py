"""Benchmark of dipolewell's three routes; see perfbench/README.md.

    python3 perfbench/run.py --workload exact-ladder --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke            # every problem once, all checks

Run from the root of a source tree (the directory holding src/dipolewell).
The program runs in a separate worker process (worker.py) that imports only
numpy and dipolewell; this process times it and runs the checks.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.  The
line before it records the machine, and the full result, with every
per-problem time, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
import calibration  # noqa: E402
import workloads  # noqa: E402

# Rounds of an untraced run at --seconds 15: every problem once per round,
# the same number of rounds on every commit, whatever its speed.  Other
# --seconds scale the rounds in proportion.  On the reference machine a
# round takes ~0.45 s, ~6.7 s and ~1.55 s when it is quiet (the pass_s of
# each workload), and up to 2.4 times that when it is not (README).
ROUNDS_PER_15S = {"exact-ladder": 20, "oracle-validate": 3, "wavefunction-profile": 9}
TRACE_ROUNDS = 4  # untraced, traced, untraced, traced
SETUP_SPAWNS = 5
WORKER_TIMEOUT_S = 150.0  # a run must end within 180 s
# problem_tail_ms: highest percentile with TAIL_BEYOND problems beyond it
TAIL_BEYOND = 10
TAIL_MIN_PROBLEMS = 40


class BenchError(Exception):
    """A worker failed or timed out."""


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the source tree, read from .git without running git; a tree
    that is not a git checkout records 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(request: dict, timeout: float) -> tuple[float, float, dict | None]:
    """Start the worker, time it to its 'ready' line, and wait for it to end.

    Returns (seconds to ready, import seconds the worker measured, result or
    None when no rounds were asked for).
    """
    t0 = time.perf_counter()
    deadline = t0 + timeout
    proc = subprocess.Popen([sys.executable, WORKER], cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE)
    chunks: list[bytes] = []
    t_ready = None
    try:
        proc.stdin.write(json.dumps(request).encode() + b"\n")
        proc.stdin.close()
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchError(f"worker timed out after {timeout:g} s")
            if not select.select([fd], [], [], remaining)[0]:
                continue
            data = os.read(fd, 1 << 16)
            if not data:
                break
            chunks.append(data)
            if t_ready is None and b"\n" in data:
                t_ready = time.perf_counter() - t0
        proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not exit after {timeout:g} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = b"".join(chunks).decode().splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise BenchError(f"worker exited with {proc.returncode} ({request['workload']})")
    return t_ready, float(lines[0].split()[1]), json.loads(lines[-1]) if request["rounds"] else None


def lower_quartile(values: list[float]) -> float:
    """The ((k - 1) // 4 + 1)-th smallest of k values: the fastest of 3, the
    3rd fastest of 9, the 5th fastest of 20."""
    return sorted(values)[(len(values) - 1) // 4]


def per_problem(times: list[list[float]], rounds: list[int], estimator) -> list[float]:
    return [estimator([times[r][i] for r in rounds]) for i in range(len(times[0]))]


def end_to_end(problem_s: list[float], setup: list[float], peak_rss_kb: int) -> dict:
    ordered = sorted(problem_s)
    # with fewer than TAIL_MIN_PROBLEMS problems there is no tail with ten
    # problems beyond it; the slowest problem stands in (README)
    tail = (ordered[-(TAIL_BEYOND + 1)] if len(ordered) >= TAIL_MIN_PROBLEMS
            else ordered[-1])
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "pass_s": {"value": sum(problem_s), "unit": "s"},
        "problem_p50_ms": {"value": statistics.median(problem_s) * 1e3, "unit": "ms"},
        "problem_tail_ms": {"value": tail * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024.0, "unit": "MB"},
    }


def run(workload: str, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    import checks
    import layers

    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{workload}-seed{seed}" + ("-trace" if trace else "") + ("-smoke" if smoke else "")
    trace_path = os.path.join(RESULTS, f"{tag}.spans.jsonl")
    request = {"root": ROOT, "workload": workload, "seed": seed, "rounds": 0,
               "trace": trace, "trace_path": trace_path}

    setup, imports = [], []
    for _ in range(1 if smoke else SETUP_SPAWNS):
        t_ready, import_s, _ = run_worker(request, WORKER_TIMEOUT_S)
        setup.append(t_ready)
        imports.append(import_s)

    if smoke:
        rounds = 1
    elif trace:
        rounds = TRACE_ROUNDS
    else:
        rounds = max(1, round(ROUNDS_PER_15S[workload] * seconds / 15))
    _, _, result = run_worker(dict(request, rounds=rounds), WORKER_TIMEOUT_S)
    flat = [iv for row in result["intervals"] for iv in row]
    measured = calibration.quiet_seconds(flat, result["samples"])
    width = len(result["intervals"][0])
    raw = [[measured[r * width + i][0] for i in range(width)] for r in range(rounds)]
    quiet = [[measured[r * width + i][1] for i in range(width)] for r in range(rounds)]

    problems = workloads.GENERATORS[workload](seed)
    failures = [] if result["deterministic"] else ["outputs differ between rounds"]
    failures += checks.check(workload, problems, result["outputs"], seed)
    attempted = sum(len(row) for row in result["ok"])
    failed = sum(row.count(False) for row in result["ok"])

    untraced = [r for r, traced in enumerate(result["traced"]) if not traced]
    typical = per_problem(quiet, untraced, lower_quartile)
    if trace:
        traced = [r for r, t in enumerate(result["traced"]) if t]
        overhead = sum(per_problem(quiet, traced, lower_quartile)) / sum(typical) - 1.0
        spans = layers.load_spans(trace_path)
        durations = calibration.quiet_seconds([(sp[4], sp[5]) for sp in spans],
                                              result["samples"])
        values = layers.layer_metrics(spans, [quiet_s for _, quiet_s in durations])
        values["setup.import_s"] = statistics.median(imports)
        values["trace.overhead_pct"] = 100.0 * overhead
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        metrics = end_to_end(typical, setup, result["peak_rss_kb"])

    summary = {"correct": not failures, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "smoke": smoke, "rounds": rounds, "problems": len(problems),
              "machine": machine_record(), "setup_s": setup,
              "import_s": imports, "problem_s": typical,
              "times_s": quiet, "raw_times_s": raw,
              "intervals": result["intervals"], "samples": result["samples"],
              "check_failures": failures, "summary": summary}
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for msg in failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    return record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every problem once with all checks (all workloads by default)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dipolewell", "__init__.py")):
        print(f"no program source under {ROOT}/src/dipolewell", file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        ap.error("--workload is required outside --smoke")
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    try:
        records = [run(w, args.seed, args.seconds, bool(args.trace), args.smoke) for w in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for rec in records:
        print(json.dumps({"machine": rec["machine"], "workload": rec["workload"],
                          "seed": rec["seed"], "rounds": rec["rounds"],
                          "problems": rec["problems"]}))
        print(json.dumps(rec["summary"]))
    if args.smoke:
        return 0 if all(rec["summary"]["correct"] for rec in records) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
