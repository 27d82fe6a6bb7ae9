"""Command-line interface: spectra, cross-route validation, CSV artifacts.

Exit codes: 0 success, 1 usage error, 2 bound-state regime violation,
3 numerical failure.  All CSV output uses a fixed header, LF line endings,
'.' decimal separator, and floats at 17 significant digits (round-trip
exact); human-readable summaries use 15 significant digits.  Output is
deterministic for a fixed configuration.

Configuration precedence: built-in defaults < --config file < command-line
flags.  The config file holds UTF-8 ``key = value`` lines with ``#``
comments, after an optional byte-order mark; keys are mass, alpha, lambda,
omega, radius, ell, pz.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

from . import model, oracle, spectrum
from .errors import DipoleWellError, DomainError, ForbiddenRegion, NoBoundStateRegime
from .model import PhysicalParams
from .oracle import RadialGridSpec
from .solve import (BETA_MIN_DEFAULT, COMPARE_TOL_DEFAULT, ROUTES, X0_ADMISSIBLE_DEFAULT, solve,
                    validate)
from .spectrum import EnergyLevel, Route

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REGIME = 2
EXIT_NUMERICAL = 3

SPECTRUM_HEADER = "n,ell,route,energy,kappa,estimated_error"
VALIDATE_HEADER = (
    "n,ell,E_asymptotic,E_exact,E_oracle,"
    "rel_gap_asym_exact,rel_gap_exact_oracle,regime_flags"
)


class _UsageError(Exception):
    pass


_FLOAT_SPELLING = r"(?:(?:\d[\d_]*\.?[\d_]*|\.\d[\d_]*)(?:e[-+]?\d[\d_]*)?|inf(?:inity)?|nan)"


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage problems (default would be 2), and
    with any float spelling or comma list of them after a '-' taken as a
    value, not an option: argparse's own test (Python 3.11) misses -1e-3,
    -inf and -0.1,0.05, which made `--pz -1e-3` a missing argument."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # list items may be empty, as _float_list skips them
        self._negative_number_matcher = re.compile(
            rf"-{_FLOAT_SPELLING}(?:,(?:[-+]?{_FLOAT_SPELLING})?)*$", re.IGNORECASE)

    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _fmt(x: float) -> str:
    """17 significant digits, round-trip exact."""
    return f"{x:.17g}"


def _fmt15(x: float) -> str:
    return f"{x:.14e}"


def _bounded(kind: type, low: float, high: float = math.inf, *, strict: bool = False):
    """argparse type: a finite `kind` >= low (> low when strict) and <= high."""
    bound = f" {'>' if strict else '>='} {low}" if low > -math.inf else ""
    bound += f" and <= {high}" if high < math.inf else ""

    def parse(text: str):
        value = kind(text)
        if not math.isfinite(value) or not low <= value <= high or (strict and value == low):
            raise argparse.ArgumentTypeError(
                f"expected a finite {kind.__name__}{bound}, got {text}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


_FINITE = _bounded(float, -math.inf)
_POSITIVE = _bounded(float, 0.0, strict=True)
# upper bounds on the size flags, so that an absurd size is a usage error, not
# an allocation that fails (or a run that never ends)
_COUNT = _bounded(int, 1, 1000)
_SAMPLES = _bounded(int, 2, 10**6)
_GRID_POINTS = _bounded(int, 100, 10**6)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="key = value parameter file")
    p.add_argument("--mass", type=float, help="particle mass m")
    p.add_argument("--alpha", type=float, help="polarizability alpha")
    p.add_argument("--lambda", dest="lam", type=float, help="field constant lambda of E = lambda/r")
    p.add_argument("--omega", type=float, help="trap angular frequency omega")
    p.add_argument("--radius", type=float, help="hard-wall cut-off radius R")
    p.add_argument("--ell", type=int, help="angular momentum quantum number (default 0)")
    p.add_argument("--pz", type=float, help="axial momentum p_z (default 0)")
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")


def _add_solve_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-points", type=_GRID_POINTS, default=2000,
                   help="interior grid points for the numeric oracle (default %(default)s)")
    p.add_argument("--grid-rmax", type=_POSITIVE, default=None,
                   help="outer radius for the oracle (default: 3x outer turning point)")


def _spectrum_flags(p: argparse.ArgumentParser) -> None:
    _add_param_flags(p)
    _add_solve_flags(p)
    p.add_argument("--nmax", type=_COUNT, default=3, help="levels n = 1..nmax (default %(default)s)")
    p.add_argument("--route", choices=["asymptotic", "exact", "oracle", "all"],
                   default="asymptotic")


def _validate_flags(p: argparse.ArgumentParser) -> None:
    _add_param_flags(p)
    _add_solve_flags(p)
    p.add_argument("--nmax", type=_COUNT, default=2)
    p.add_argument("--x0-threshold", type=_POSITIVE, default=X0_ADMISSIBLE_DEFAULT,
                   help="x0 smallness threshold for regime flags (default %(default)s)")
    p.add_argument("--beta-min", type=_POSITIVE, default=BETA_MIN_DEFAULT,
                   help="minimum beta for the deep regime flag (default %(default)s)")
    p.add_argument("--compare-tol", type=_POSITIVE, default=COMPARE_TOL_DEFAULT,
                   help="exact-oracle agreement tolerance (default %(default)s)")


def _wavefunction_flags(p: argparse.ArgumentParser) -> None:
    _add_param_flags(p)
    p.add_argument("--n", type=_COUNT, default=1, help="level index (default %(default)s)")
    p.add_argument("--route", choices=["exact", "asymptotic"], default="exact")
    p.add_argument("--rmax", type=_POSITIVE, default=None,
                   help="sampling range end (default: 3x outer turning point)")
    p.add_argument("--samples", type=_SAMPLES, default=512)


def _sweep_cutoff_flags(p: argparse.ArgumentParser) -> None:
    _add_param_flags(p)
    p.add_argument("--radii", required=True,
                   help="comma-separated cut-off radii, positive descending")
    p.add_argument("--no-exact", action="store_true",
                   help="skip the exact-quantization column")


def _potential_flags(p: argparse.ArgumentParser) -> None:
    _add_param_flags(p)
    p.add_argument("--r", default=None, help="comma-separated radii")
    p.add_argument("--rmin", type=_FINITE, default=None)
    p.add_argument("--rmax", type=_FINITE, default=None)
    p.add_argument("--samples", type=_SAMPLES, default=200)
    p.add_argument("--with-centrifugal", action="store_true",
                   help="add the ell^2/(2 m r^2) column")


def _eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", choices=list(_EVAL_ARGC))
    p.add_argument("args", type=float, nargs="*",
                   help="GammaLn re im | WhittakerW kappa mu x | WSmallX kappa mu x")


def _parser() -> _Parser:
    """The top-level parser with a subparser for each command."""
    p = _Parser(
        prog="dipolewell",
        description=(
            "Bound states of a neutral polarizable particle in the inverse-square "
            "potential of a charged cylinder plus a harmonic trap, with a hard-wall "
            "cut-off at the cylinder radius. Parameter precedence: defaults < "
            "--config file < flags."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        command.add_flags(sub.add_parser(name, help=command.help))
    return p


def _build_params(ns: argparse.Namespace) -> PhysicalParams:
    values: dict[str, float] = {}
    try:
        if ns.config:
            try:
                with open(ns.config, encoding="utf-8-sig") as fh:  # skips a byte-order mark
                    values.update(model.parse_config_text(fh.read()))
            except OSError as exc:
                raise _UsageError(f"cannot read config file: {exc}") from exc
        overrides = {
            "mass": ns.mass, "alpha": ns.alpha, "lambda": ns.lam, "omega": ns.omega,
            "radius": ns.radius, "ell": ns.ell, "pz": ns.pz,
        }
        values.update({k: float(v) for k, v in overrides.items() if v is not None})
        return model.params_from_mapping(values)
    except (DomainError, OverflowError) as exc:  # e.g. an --ell past float range
        # bad or missing configuration is a usage problem, not a numerical one
        raise _UsageError(str(exc)) from exc


def _grid_from_flags(ns: argparse.Namespace, params: PhysicalParams, nmax: int) -> RadialGridSpec:
    if ns.grid_rmax is not None:
        return RadialGridSpec(params.cutoff_R, ns.grid_rmax, ns.grid_points)
    return oracle.default_grid(params, nmax, points=ns.grid_points)


def _write(out_path: str, lines: list[str]) -> None:
    payload = "\n".join(lines) + "\n"
    if out_path == "-":
        sys.stdout.write(payload)
    else:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        except OSError as exc:
            raise _UsageError(f"cannot write output file: {exc}") from exc


def _cell(x: float | None) -> str:
    return "" if x is None else _fmt(x)


def _level_row(level: EnergyLevel) -> str:
    return (
        f"{level.n},{level.ell},{level.route},{_fmt(level.energy)},"
        f"{_cell(level.kappa)},{_fmt(level.est_error)}"
    )


def cmd_spectrum(ns: argparse.Namespace) -> int:
    params = _build_params(ns)
    routes = ROUTES if ns.route == "all" else (Route(ns.route),)
    solution = solve(params, ns.nmax, routes, lambda: _grid_from_flags(ns, params, ns.nmax))
    error = solution.first_error()
    if error is not None:
        raise error
    lines = [SPECTRUM_HEADER]
    for n in range(1, ns.nmax + 1):
        lines.extend(_level_row(solution.level(route, n)) for route in solution.outcomes)
    _write(ns.out, lines)
    return EXIT_OK


def cmd_validate(ns: argparse.Namespace) -> int:
    params = _build_params(ns)
    solution, verdict = validate(
        params, ns.nmax, lambda: _grid_from_flags(ns, params, ns.nmax),
        x0_admissible=ns.x0_threshold, beta_min=ns.beta_min, compare_tol=ns.compare_tol)
    lines = [VALIDATE_HEADER]
    for n, (flags, *gaps) in enumerate(verdict.levels, start=1):
        levels = [solution.level(route, n) for route in ROUTES]
        cells = [_cell(None if lv is None else lv.energy) for lv in levels] + [*map(_cell, gaps)]
        lines.append(f"{n},{params.ell},{','.join(cells)},{';'.join(flags) or 'ok'}")
    _write(ns.out, lines)
    gaps = ["none" if g is None else _fmt15(g)
            for g in (verdict.max_rel_gap, verdict.max_gap_exact_oracle)]
    print(f"validate: max_rel_gap={gaps[0]} max_gap_exact_oracle={gaps[1]} "
          f"regime_ok={str(verdict.regime_ok).lower()} "
          f"within_tol={str(verdict.within_tol).lower()}", file=sys.stderr)
    return EXIT_OK


def cmd_wavefunction(ns: argparse.Namespace) -> int:
    params = _build_params(ns)
    if ns.route == "exact":
        level = spectrum.quantize_exact(params, ns.n)
    else:
        level = spectrum.energy_levels_asymptotic(params, ns.n)[-1]
    profile = spectrum.radial_wavefunction(params, level, ns.rmax, ns.samples)
    if profile.boundary_warning:
        print("warning: asymptotic level does not satisfy f(R) = 0 exactly", file=sys.stderr)
    # "%.17g" formats as _fmt does; one % call on one template formats all rows
    r = profile.r_samples.tolist()
    pairs = [0.0] * (2 * len(r))
    pairs[::2], pairs[1::2] = r, profile.f_values.tolist()
    _write(ns.out, ["r,f", "\n".join(["%.17g,%.17g"] * len(r)) % tuple(pairs)])
    return EXIT_OK


def _float_list(text: str, flag: str) -> list[float]:
    """The floats of a comma-separated list; a usage error naming flag if a
    token is not a float or the list is empty."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad {flag} list: {exc}") from exc
    if not values:
        raise _UsageError(f"{flag} needs a non-empty list")
    return values


def cmd_sweep_cutoff(ns: argparse.Namespace) -> int:
    params = _build_params(ns)
    radii = _float_list(ns.radii, "--radii")
    if not all(0 < r < math.inf for r in radii):
        raise _UsageError("--radii must be finite and positive")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise _UsageError("--radii must be strictly descending")
    try:  # a radius whose square leaves double range is a bad flag, as --radius is
        sweep = [replace(params, cutoff_R=R) for R in radii]
    except DomainError as exc:
        raise _UsageError(str(exc)) from exc

    routes = (Route.ASYMPTOTIC,) if ns.no_exact else (Route.ASYMPTOTIC, Route.EXACT)
    lines = ["R,E1_asymptotic,E1_exact,R2_binding_asymptotic,status"]
    for R, at_R in zip(radii, sweep):
        solution = solve(at_R, 1, routes)
        error = solution.first_error()
        e1a, e1x = (solution.level(route, 1) for route in (Route.ASYMPTOTIC, Route.EXACT))
        if e1a is None:  # its error is the first in route order
            raise error
        status = "ok" if error is None else f"exact-failed:{type(error).__name__}"
        lines.append(f"{_fmt(R)},{_fmt(e1a.energy)},{_cell(e1x.energy if e1x else None)},"
                     f"{_fmt(solution.scaled_binding(1))},{status}")
    _write(ns.out, lines)
    return EXIT_OK


def cmd_potential(ns: argparse.Namespace) -> int:
    params = _build_params(ns)
    if ns.r is not None:
        radii = _float_list(ns.r, "--r")
        if not all(math.isfinite(r) for r in radii):
            raise _UsageError("--r values must be finite")
    else:
        lo = ns.rmin if ns.rmin is not None else params.cutoff_R
        hi = ns.rmax if ns.rmax is not None else 10.0 * params.cutoff_R
        if not (lo < hi and math.isfinite(hi - lo)):
            raise _UsageError("need rmin < rmax a finite distance apart")
        step = (hi - lo) / (ns.samples - 1)
        radii = [lo + i * step for i in range(ns.samples)]

    header = "r,V_effective"
    if ns.with_centrifugal:
        header += ",V_with_centrifugal"
    header += ",status"
    lines = [header]
    blank = [""] * (2 if ns.with_centrifugal else 1)
    counts = {"ok": 0, "forbidden": 0, "overflow": 0}
    for r in radii:
        try:
            cells = [_fmt(model.effective_potential(params, r))]
            if ns.with_centrifugal:
                cells.append(_fmt(model.effective_potential(params, r, include_centrifugal=True)))
            status = "ok"
        except ForbiddenRegion:
            cells, status = blank, "forbidden"
        except DomainError:  # the value leaves double range
            cells, status = blank, "overflow"
        counts[status] += 1
        lines.append(",".join([_fmt(r), *cells, status]))
    _write(ns.out, lines)
    for status, where in (("forbidden", "inside the forbidden region r < R"),
                          ("overflow", "where the potential leaves double range")):
        if counts[status]:
            print(f"warning: {counts[status]} radii {where}", file=sys.stderr)
    return EXIT_OK


_EVAL_ARGC = {"GammaLn": 2, "WhittakerW": 3, "WSmallX": 3}


def cmd_eval(ns: argparse.Namespace) -> int:
    from . import special

    want = _EVAL_ARGC[ns.kind]
    if len(ns.args) != want:
        raise _UsageError(f"{ns.kind} takes {want} numeric arguments, got {len(ns.args)}")
    a = ns.args
    if not all(math.isfinite(v) for v in a):
        raise _UsageError(f"{ns.kind} arguments must be finite")
    if ns.kind == "GammaLn":
        res = special.ln_gamma_complex(complex(a[0], a[1]))
        print(f"{_fmt15(res.value.real)} {_fmt15(res.value.imag)} {_fmt15(res.est_error)}")
    elif ns.kind == "WhittakerW":
        value, est = special.whittaker_w_scaled(a[0], a[1], a[2]).finite(a[0], a[1], a[2])
        print(f"{_fmt15(value)} {_fmt15(est)}")
    else:  # WSmallX: its value stays finite, and est_error raises where it would not
        approx = special.whittaker_w_smallx_approx(a[0], a[1])
        print(f"{_fmt15(approx.value(a[2]))} {_fmt15(approx.est_error(a[2]))}")
    return EXIT_OK


class _Command(NamedTuple):
    help: str
    add_flags: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


_COMMANDS = {
    "spectrum": _Command("energy levels by one or all routes", _spectrum_flags, cmd_spectrum),
    "validate": _Command("compare all three routes per level", _validate_flags, cmd_validate),
    "wavefunction": _Command("sample the radial wavefunction of one level",
                             _wavefunction_flags, cmd_wavefunction),
    "sweep-cutoff": _Command("ground level vs cut-off radius R", _sweep_cutoff_flags,
                             cmd_sweep_cutoff),
    "potential": _Command("tabulate the effective potential", _potential_flags, cmd_potential),
    "eval": _Command("point evaluation of the special functions", _eval_flags, cmd_eval),
}


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    try:
        if args and args[0] in _COMMANDS:
            # a named command builds only its own parser, as the full parser
            # builds its subparser: the same prog, help and messages; -h, no
            # command and an unknown command get the full parser
            name = args[0]
            p = _Parser(prog=f"dipolewell {name}")
            _COMMANDS[name].add_flags(p)
            ns = p.parse_args(args[1:])
        else:
            ns = _parser().parse_args(args)
            name = ns.command
        return _COMMANDS[name].run(ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NoBoundStateRegime as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except DipoleWellError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
