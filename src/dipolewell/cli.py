"""Command-line interface: spectra, cross-route validation, CSV artifacts.

Exit codes: 0 success, 1 usage error, 2 bound-state regime violation,
3 numerical failure.  All CSV output uses a fixed header, LF line endings,
'.' decimal separator, and floats at 17 significant digits (round-trip
exact); human-readable summaries use 15 significant digits.  Output is
deterministic for a fixed configuration.

Configuration precedence: built-in defaults < --config file < command-line
flags.  The config file holds UTF-8 ``key = value`` lines with ``#``
comments; keys are mass, alpha, lambda, omega, radius, ell, pz.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from . import model, oracle, spectrum
from .errors import DipoleWellError, DomainError, NoBoundStateRegime
from .model import PhysicalParams
from .oracle import GridScheme, RadialGridSpec
from .solve import ROUTES, solve
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


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage problems (default would be 2)."""

    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _fmt(x: float) -> str:
    """17 significant digits, round-trip exact."""
    return f"{x:.17g}"


def _fmt15(x: float) -> str:
    return f"{x:.14e}"


def _bounded(kind: type, low: float, *, strict: bool = False):
    """argparse type: a finite `kind` >= low (> low when strict)."""

    def parse(text: str):
        value = kind(text)
        if not math.isfinite(value) or value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(
                f"expected a finite {kind.__name__} {'>' if strict else '>='} {low}, got {text}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


_POSITIVE = _bounded(float, 0.0, strict=True)
_COUNT = _bounded(int, 1)
_SAMPLES = _bounded(int, 2)
_GRID_POINTS = _bounded(int, 100)


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
    p.add_argument("--x0-threshold", type=_POSITIVE, default=spectrum.X0_ADMISSIBLE_DEFAULT,
                   help="x0 smallness threshold for regime flags (default %(default)s)")
    p.add_argument("--beta-min", type=_POSITIVE, default=spectrum.BETA_MIN_DEFAULT,
                   help="minimum beta for the deep regime flag (default %(default)s)")
    p.add_argument("--compare-tol", type=_POSITIVE, default=0.05,
                   help="cross-route agreement tolerance in validate (default %(default)s)")
    p.add_argument("--grid-points", type=_GRID_POINTS, default=2000,
                   help="interior grid points for the numeric oracle (default %(default)s)")
    p.add_argument("--grid-rmax", type=_POSITIVE, default=None,
                   help="outer radius for the oracle (default: 3x outer turning point)")
    p.add_argument("--grid-scheme", choices=["log", "uniform"], default="log",
                   help="oracle grid spacing (default %(default)s)")


def build_parser() -> _Parser:
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

    sp = sub.add_parser("spectrum", help="energy levels by one or all routes")
    _add_param_flags(sp)
    _add_solve_flags(sp)
    sp.add_argument("--nmax", type=_COUNT, default=3, help="levels n = 1..nmax (default %(default)s)")
    sp.add_argument("--route", choices=["asymptotic", "exact", "oracle", "all"],
                    default="asymptotic")

    va = sub.add_parser("validate", help="compare all three routes per level")
    _add_param_flags(va)
    _add_solve_flags(va)
    va.add_argument("--nmax", type=_COUNT, default=2)

    wf = sub.add_parser("wavefunction", help="sample the radial wavefunction of one level")
    _add_param_flags(wf)
    wf.add_argument("--n", type=_COUNT, default=1, help="level index (default %(default)s)")
    wf.add_argument("--route", choices=["exact", "asymptotic"], default="exact")
    wf.add_argument("--rmax", type=float, default=None,
                    help="sampling range end (default: 3x outer turning point)")
    wf.add_argument("--samples", type=_SAMPLES, default=512)

    sw = sub.add_parser("sweep-cutoff", help="ground level vs cut-off radius R")
    _add_param_flags(sw)
    sw.add_argument("--radii", required=True,
                    help="comma-separated cut-off radii, positive descending")
    sw.add_argument("--no-exact", action="store_true",
                    help="skip the exact-quantization column")

    po = sub.add_parser("potential", help="tabulate the effective potential")
    _add_param_flags(po)
    po.add_argument("--r", default=None, help="comma-separated radii")
    po.add_argument("--rmin", type=float, default=None)
    po.add_argument("--rmax", type=float, default=None)
    po.add_argument("--samples", type=_SAMPLES, default=200)
    po.add_argument("--with-centrifugal", action="store_true",
                    help="add the ell^2/(2 m r^2) column")

    ev = sub.add_parser("eval", help="point evaluation of the special functions")
    ev.add_argument("kind", choices=["GammaLn", "KummerM", "WhittakerM", "WhittakerW", "WSmallX"])
    ev.add_argument("args", type=float, nargs="*",
                    help="GammaLn re im | KummerM a_re a_im b_re b_im x | "
                         "WhittakerM kappa mu x | WhittakerW kappa mu x | WSmallX kappa mu x")
    return p


def _build_params(ns: argparse.Namespace) -> PhysicalParams:
    values: dict[str, float] = {}
    try:
        if ns.config:
            try:
                with open(ns.config, encoding="utf-8") as fh:
                    values.update(model.parse_config_text(fh.read()))
            except OSError as exc:
                raise _UsageError(f"cannot read config file: {exc}") from exc
        overrides = {
            "mass": ns.mass, "alpha": ns.alpha, "lambda": ns.lam, "omega": ns.omega,
            "radius": ns.radius, "ell": ns.ell, "pz": ns.pz,
        }
        values.update({k: float(v) for k, v in overrides.items() if v is not None})
        return model.params_from_mapping(values)
    except DomainError as exc:
        # bad or missing configuration is a usage problem, not a numerical one
        raise _UsageError(str(exc)) from exc


def _grid_from_flags(ns: argparse.Namespace, params: PhysicalParams, nmax: int) -> RadialGridSpec:
    scheme = GridScheme(ns.grid_scheme)
    if ns.grid_rmax is not None:
        return RadialGridSpec(params.cutoff_R, ns.grid_rmax, ns.grid_points, scheme)
    return replace(oracle.default_grid(params, nmax, points=ns.grid_points), scheme=scheme)


def _write(out_path: str, lines: list[str]) -> None:
    payload = "\n".join(lines) + "\n"
    if out_path == "-":
        sys.stdout.write(payload)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)


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
    solution = solve(
        params, ns.nmax, routes, lambda: _grid_from_flags(ns, params, ns.nmax),
        x0_admissible=ns.x0_threshold, beta_min=ns.beta_min,
    )
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
    if params.omega <= 0:
        raise DomainError("validate requires omega > 0 (all three routes defined)")
    grid = _grid_from_flags(ns, params, ns.nmax)  # bad grid flags fail before any route runs
    solution = solve(
        params, ns.nmax, ROUTES, lambda: grid,
        x0_admissible=ns.x0_threshold, beta_min=ns.beta_min,
    )
    lines = [VALIDATE_HEADER]
    regime_ok = True
    for n in range(1, ns.nmax + 1):
        flags = solution.flags(n)
        regime_ok = regime_ok and not flags
        levels = [solution.level(route, n) for route in ROUTES]
        cells = [_cell(None if lv is None else lv.energy) for lv in levels] + [
            _cell(solution.rel_gap(n, Route.ASYMPTOTIC, Route.EXACT)),
            _cell(solution.rel_gap(n, Route.EXACT, Route.ORACLE)),
        ]
        lines.append(f"{n},{params.ell},{','.join(cells)},{';'.join(flags) or 'ok'}")
    _write(ns.out, lines)
    # the closed form is asymptotic, so only the exact-oracle cross-check is held to the tolerance
    gap_xo = solution.max_gap(Route.EXACT, Route.ORACLE)
    max_gap = max(solution.max_gap(Route.ASYMPTOTIC, Route.EXACT), gap_xo)
    ok = regime_ok and gap_xo <= ns.compare_tol
    print(
        f"validate: max_rel_gap={_fmt15(max_gap)} "
        f"max_gap_exact_oracle={_fmt15(gap_xo)} "
        f"regime_ok={str(regime_ok).lower()} "
        f"within_tol={str(ok).lower()}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_wavefunction(ns: argparse.Namespace) -> int:
    params = _build_params(ns)
    if ns.route == "exact":
        level = spectrum.quantize_exact(params, ns.n)
    else:
        level = spectrum.energy_levels_asymptotic(params, ns.n)[-1]
        print(
            "warning: asymptotic level does not satisfy f(R) = 0 exactly",
            file=sys.stderr,
        )
    r_max = ns.rmax if ns.rmax is not None else 3.0 * oracle.outer_turning_radius(
        params, level.energy
    )
    profile = spectrum.radial_wavefunction(params, level, r_max, ns.samples)
    lines = ["r,f"]
    for r, f in zip(profile.r_samples, profile.f_values):
        lines.append(f"{_fmt(float(r))},{_fmt(float(f))}")
    _write(ns.out, lines)
    return EXIT_OK


def cmd_sweep_cutoff(ns: argparse.Namespace) -> int:
    params = _build_params(ns)
    try:
        radii = [float(tok) for tok in ns.radii.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad --radii list: {exc}") from exc
    if not radii or not all(0 < r < math.inf for r in radii):
        raise _UsageError("--radii must be finite and positive")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise _UsageError("--radii must be strictly descending")

    ref = params.omega + params.energy_shift
    lines = ["R,E1_asymptotic,E1_exact,R2_binding_asymptotic,status"]
    for R in radii:
        p_r = replace(params, cutoff_R=R)
        status = "ok"
        e1a = spectrum.energy_levels_asymptotic(p_r, 1)[0].energy
        scaled = R * R * (ref - e1a)
        e1x = ""
        if not ns.no_exact:
            try:
                e1x = _fmt(spectrum.quantize_exact(p_r, 1).energy)
            except DipoleWellError as exc:
                status = f"exact-failed:{type(exc).__name__}"
        lines.append(f"{_fmt(R)},{_fmt(e1a)},{e1x},{_fmt(scaled)},{status}")
    _write(ns.out, lines)
    return EXIT_OK


def cmd_potential(ns: argparse.Namespace) -> int:
    params = _build_params(ns)
    if ns.r is not None:
        try:
            radii = [float(tok) for tok in ns.r.split(",") if tok.strip()]
        except ValueError as exc:
            raise _UsageError(f"bad --r list: {exc}") from exc
        if not all(math.isfinite(r) for r in radii):
            raise _UsageError("--r values must be finite")
    else:
        lo = ns.rmin if ns.rmin is not None else params.cutoff_R
        hi = ns.rmax if ns.rmax is not None else 10.0 * params.cutoff_R
        if not lo < hi:
            raise _UsageError("need rmin < rmax")
        step = (hi - lo) / (ns.samples - 1)
        radii = [lo + i * step for i in range(ns.samples)]

    header = "r,V_effective"
    if ns.with_centrifugal:
        header += ",V_with_centrifugal"
    header += ",status"
    lines = [header]
    warnings = 0
    for r in radii:
        try:
            v = model.effective_potential(params, r)
            cells = [_fmt(r), _fmt(v)]
            if ns.with_centrifugal:
                cells.append(_fmt(model.effective_potential(params, r, include_centrifugal=True)))
            cells.append("ok")
        except DipoleWellError:
            warnings += 1
            cells = [_fmt(r), ""]
            if ns.with_centrifugal:
                cells.append("")
            cells.append("forbidden")
        lines.append(",".join(cells))
    _write(ns.out, lines)
    if warnings:
        print(f"warning: {warnings} radii inside the forbidden region r < R", file=sys.stderr)
    return EXIT_OK


_EVAL_ARGC = {"GammaLn": 2, "KummerM": 5, "WhittakerM": 3, "WhittakerW": 3, "WSmallX": 3}


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
    elif ns.kind == "KummerM":
        res = special.kummer_m(complex(a[0], a[1]), complex(a[2], a[3]), a[4])
        print(f"{_fmt15(res.value.real)} {_fmt15(res.value.imag)} "
              f"{_fmt15(res.est_error * abs(res.value))}")
    elif ns.kind == "WhittakerM":
        res = special.whittaker_m_imag(a[0], a[1], a[2])
        print(f"{_fmt15(res.value.real)} {_fmt15(res.value.imag)} {_fmt15(res.est_error)}")
    elif ns.kind == "WhittakerW":
        res = special.whittaker_w_scaled(a[0], a[1], a[2])
        print(f"{_fmt15(res.value)} {_fmt15(res.est_error)} {_fmt15(res.imag_residual)}")
    else:  # WSmallX
        approx = special.whittaker_w_smallx_approx(a[0], a[1])
        value = approx.value(a[2])
        # first neglected series correction sets the accuracy scale
        rel = approx.beta * a[2] / math.hypot(1.0, 2.0 * approx.mu) + 1.0 / (24.0 * approx.mu)
        amp = 2.0 * math.exp(approx.log_amplitude) * math.sqrt(a[2])
        print(f"{_fmt15(value)} {_fmt15(rel * amp)}")
    return EXIT_OK


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "validate": cmd_validate,
    "wavefunction": cmd_wavefunction,
    "sweep-cutoff": cmd_sweep_cutoff,
    "potential": cmd_potential,
    "eval": cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        return _COMMANDS[ns.command](ns)
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
