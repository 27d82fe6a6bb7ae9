"""Spans around the calls into each layer of the program, recorded from outside.

The program looks its functions up as module attributes at call time, so
replacing those attributes with timing wrappers sees every call without any
change to the program's source.  A span is (id, parent id, name, problem,
start, end, attrs); the parent is the innermost open span, and ``problem``
is the index of the problem being solved, so the spans of one problem share
it.  Spans are kept in memory and written out, one JSON list per line, when
the traced run ends; run.py derives the per-layer metrics from that file.
"""

from __future__ import annotations

import importlib
import json
import time

import numpy as np


def _sturm_count_attrs(args, kwargs, result):
    diag = args[0]
    shifts = np.atleast_1d(args[2] if len(args) > 2 else kwargs["shifts"])
    return {"rows": len(diag), "shifts": int(shifts.size)}


def _eigs_attrs(args, kwargs, result):
    return {"eigenvalues": len(result)}


# (module, attribute, span name, attrs from (args, kwargs, result)).  The
# Whittaker W binding wrapped is the one spectrum calls; special.whittaker_w_scaled
# itself is only reached from spectrum in the three workloads.
TARGETS = (
    ("dipolewell.cli", "main", "cli.main", None),
    ("dipolewell.spectrum", "quantize_exact", "spectrum.quantize_exact", None),
    ("dipolewell.spectrum", "radial_wavefunction", "spectrum.radial_wavefunction", None),
    ("dipolewell.spectrum", "whittaker_w_scaled", "special.whittaker_w", None),
    ("dipolewell.special", "ln_gamma_complex", "special.ln_gamma", None),
    ("dipolewell.oracle", "fd_eigensolve", "oracle.fd_eigensolve", None),
    ("dipolewell.oracle", "build_tridiag", "oracle.build_tridiag", None),
    ("dipolewell.oracle", "sturm_tridiag_eigs", "oracle.sturm_tridiag_eigs", _eigs_attrs),
    ("dipolewell.oracle", "sturm_count", "oracle.sturm_count", _sturm_count_attrs),
)


class Tracer:
    """Records spans while installed; ``problem`` is set by the caller."""

    def __init__(self) -> None:
        self.spans: list = []
        self.problem = -1
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn, attrs_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else None
            spans[sid] = (sid, parent, name, self.problem, t0, t1, attrs)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, attrs_fn in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, attrs_fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:  # a call that raised leaves its slot empty
                    fh.write(json.dumps(span) + "\n")
