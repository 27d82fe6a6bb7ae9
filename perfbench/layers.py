"""Per-layer metrics from the spans of a traced run (see tracing.py).

Times are per call and are the median over the calls of the traced rounds,
rescaled to the quiet reference machine like the end-to-end times;
counts are per level, profile or solve and are means (each traced round
repeats the same calls, so the counts repeat exactly).  A layer that the
workload never calls reports 0: no calls, no time.  Self times subtract the
spans of the direct children named in the docstring of each metric.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

# name -> (unit, what)
PER_LAYER = {
    "setup.import_s": ("s", "fresh-interpreter import of numpy + dipolewell"),
    "cli.main_ms": ("ms", "per cli.main call"),
    "cli.self_ms": ("ms", "cli.main minus its library child spans"),
    "spectrum.quantize_exact_ms": ("ms", "per level"),
    "spectrum.w_evals_per_level": ("count", "W calls inside quantize_exact per level"),
    "spectrum.radial_wavefunction_ms": ("ms", "per profile"),
    "spectrum.w_evals_per_profile": ("count", "W calls inside radial_wavefunction per profile"),
    "special.whittaker_w_us": ("us", "per W call"),
    "special.ln_gamma_us": ("us", "per log-Gamma call"),
    "special.ln_gamma_per_w": ("count", "log-Gamma calls per W call"),
    "special.w_series_us": ("us", "W minus its log-Gamma children"),
    "oracle.fd_eigensolve_ms": ("ms", "per solve"),
    "oracle.sturm_sweeps": ("count", "sturm_count calls per solve"),
    "oracle.sturm_row_steps": ("count", "matrix rows swept per solve"),
    "oracle.sturm_shift_rows": ("count", "rows x shifts per solve"),
    "oracle.sturm_us_per_row_step": ("us", "sturm_count time per row swept"),
    "oracle.eigenvalues_per_sweep": ("count", "eigenvalues delivered per sweep"),
    "oracle.build_tridiag_ms": ("ms", "per matrix"),
    "oracle.fd_other_ms": ("ms", "fd_eigensolve minus its eigensolve and matrix spans"),
    "trace.overhead_pct": ("%", "traced over untraced pass_s, minus 100"),
}


def load_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _median(values: list[float], scale: float) -> float:
    return statistics.median(values) * scale if values else 0.0


def _ratio(num: float, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], durations: list[float]) -> dict[str, float]:
    """All PER_LAYER metrics except setup.import_s and trace.overhead_pct.

    durations[i] is the duration of spans[i] in seconds (rescaled by the
    calibration, like every time the benchmark reports)."""
    dur = {s[0]: d for s, d in zip(spans, durations)}
    name = {s[0]: s[2] for s in spans}
    children: dict[int, list[int]] = defaultdict(list)
    by_name: dict[str, list[int]] = defaultdict(list)
    for sid, parent, span_name, *_ in spans:
        by_name[span_name].append(sid)
        if parent >= 0:
            children[parent].append(sid)

    def times_of(span_name: str) -> list[float]:
        return [dur[s] for s in by_name[span_name]]

    def self_time(sid: int, child_names: tuple[str, ...]) -> float:
        return dur[sid] - sum(dur[c] for c in children[sid] if name[c] in child_names)

    def child_count(parent_name: str, child_name: str) -> int:
        return sum(1 for p in by_name[parent_name] for c in children[p]
                   if name[c] == child_name)

    levels = by_name["spectrum.quantize_exact"]
    profiles = by_name["spectrum.radial_wavefunction"]
    w_calls = by_name["special.whittaker_w"]
    solves = by_name["oracle.fd_eigensolve"]
    sweeps = [s for s in spans if s[2] == "oracle.sturm_count"]
    eig_calls = [s for s in spans if s[2] == "oracle.sturm_tridiag_eigs"]
    rows = sum(s[6]["rows"] for s in sweeps)
    library = ("spectrum.quantize_exact", "spectrum.radial_wavefunction",
               "oracle.fd_eigensolve")
    return {
        "cli.main_ms": _median(times_of("cli.main"), 1e3),
        "cli.self_ms": _median([self_time(s, library) for s in by_name["cli.main"]], 1e3),
        "spectrum.quantize_exact_ms": _median(times_of("spectrum.quantize_exact"), 1e3),
        "spectrum.w_evals_per_level": _ratio(
            child_count("spectrum.quantize_exact", "special.whittaker_w"), len(levels)),
        "spectrum.radial_wavefunction_ms": _median(
            times_of("spectrum.radial_wavefunction"), 1e3),
        "spectrum.w_evals_per_profile": _ratio(
            child_count("spectrum.radial_wavefunction", "special.whittaker_w"), len(profiles)),
        "special.whittaker_w_us": _median(times_of("special.whittaker_w"), 1e6),
        "special.ln_gamma_us": _median(times_of("special.ln_gamma"), 1e6),
        "special.ln_gamma_per_w": _ratio(
            child_count("special.whittaker_w", "special.ln_gamma"), len(w_calls)),
        "special.w_series_us": _median(
            [self_time(s, ("special.ln_gamma",)) for s in w_calls], 1e6),
        "oracle.fd_eigensolve_ms": _median(times_of("oracle.fd_eigensolve"), 1e3),
        "oracle.sturm_sweeps": _ratio(len(sweeps), len(solves)),
        "oracle.sturm_row_steps": _ratio(rows, len(solves)),
        "oracle.sturm_shift_rows": _ratio(
            sum(s[6]["rows"] * s[6]["shifts"] for s in sweeps), len(solves)),
        "oracle.sturm_us_per_row_step": _ratio(
            sum(dur[s[0]] for s in sweeps) * 1e6, rows),
        "oracle.eigenvalues_per_sweep": _ratio(
            sum(s[6]["eigenvalues"] for s in eig_calls), len(sweeps)),
        "oracle.build_tridiag_ms": _median(times_of("oracle.build_tridiag"), 1e3),
        "oracle.fd_other_ms": _median(
            [self_time(s, ("oracle.sturm_tridiag_eigs", "oracle.build_tridiag"))
             for s in solves], 1e3),
    }
