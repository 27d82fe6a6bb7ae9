"""One runner for the three spectrum routes over levels n = 1..n_max.

solve() runs each requested route once: the closed-form ladder, exact
quantization level by level, and one oracle eigensolve for all levels.  Per
route and level it records the EnergyLevel or the DipoleWellError the route
raised, so one failing route does not hide the others.  NoBoundStateRegime
propagates instead: it is a property of the parameters, which every
analytic route meets before any other failure.  Routes are looked up as
module attributes at call time.  validate() runs all three and judges them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

from . import oracle, spectrum
from .errors import DipoleWellError, DomainError, NoBoundStateRegime
from .model import PhysicalParams, derive, is_count, kappa_of_energy
from .oracle import RadialGridSpec
from .spectrum import EnergyLevel, Route

ROUTES = (Route.ASYMPTOTIC, Route.EXACT, Route.ORACLE)
# the closed form is trusted where x0 = m omega R^2 < X0_ADMISSIBLE_DEFAULT
# and beta_n = 1/2 - kappa_n >= BETA_MIN_DEFAULT
X0_ADMISSIBLE_DEFAULT = 0.01
BETA_MIN_DEFAULT = 10.0
COMPARE_TOL_DEFAULT = 0.05  # validate's exact-oracle tolerance; the asymptotic form is exempt

Outcome = Union[EnergyLevel, DipoleWellError]


@dataclass(frozen=True)
class Solution:
    """Outcomes of levels 1..n_max for each requested route, in ROUTES order."""

    params: PhysicalParams
    outcomes: dict[Route, list[Outcome]]

    def level(self, route: Route, n: int) -> EnergyLevel | None:
        """Level n of the route, or None when the route failed or did not run."""
        out = self.outcomes[route][n - 1] if route in self.outcomes else None
        return out if isinstance(out, EnergyLevel) else None

    def first_error(self) -> DipoleWellError | None:
        """The first recorded failure in route order, then level order."""
        errors = (o for outs in self.outcomes.values() for o in outs
                  if isinstance(o, DipoleWellError))
        return next(errors, None)

    def flags(self, n: int, *, x0_admissible: float, beta_min: float) -> list[str]:
        """Closed-form regime failures of level n (x0_admissible when x0 is not
        below x0_admissible, beta_min when beta_n is below beta_min), then
        absent:<route>:<error> in route order."""
        flags = []
        for route, outs in self.outcomes.items():
            out = outs[n - 1]
            if isinstance(out, DipoleWellError):
                flags.append(f"absent:{route}:{type(out).__name__}")
            elif route is Route.ASYMPTOTIC:
                if not derive(self.params).x0 < x0_admissible:
                    flags.append("x0_admissible")
                if not (out.kappa is None or 0.5 - out.kappa >= beta_min):
                    flags.append("beta_min")
        return flags

    def rel_gap(self, n: int, a: Route, b: Route) -> float | None:
        """|E_a - E_b| relative to the binding omega + shift - E_a of level n;
        DomainError where that binding rounds to 0 in the p_z shift."""
        lv_a, lv_b = self.level(a, n), self.level(b, n)
        if lv_a is None or lv_b is None:
            return None
        denom = abs(self.params.omega + self.params.energy_shift - lv_a.energy)
        if not denom > 0:
            raise DomainError(f"the binding omega + p_z^2/(2m) - E of level {n} rounds to 0 "
                              f"(p_z shift p_z^2/(2m) = {self.params.energy_shift:.6g})")
        return abs(lv_a.energy - lv_b.energy) / denom

    def scaled_binding(self, n: int) -> float:
        """R^2 (omega + p_z^2/(2m) - E_n) of the solved closed-form level n."""
        p, R = self.params, self.params.cutoff_R
        scaled = R * R * (p.omega + p.energy_shift - self.level(Route.ASYMPTOTIC, n).energy)
        if not math.isfinite(scaled):
            raise DomainError(f"R^2 times the binding at R = {R} leaves double range")
        return scaled


class Verdict(NamedTuple):
    """Per level n = 1..n_max its (flags, asymptotic-exact rel_gap, exact-oracle rel_gap);
    the largest gaps that exist (else None); whether no level is flagged; and whether,
    too, the exact-oracle gap exists and is within the tolerance of validate."""

    levels: list[tuple[list[str], float | None, float | None]]
    max_rel_gap: float | None
    max_gap_exact_oracle: float | None
    regime_ok: bool
    within_tol: bool


def _attempt(run: Callable[[], object]) -> object:
    try:
        return run()
    except NoBoundStateRegime:
        raise
    except DipoleWellError as exc:
        return exc


def _oracle_levels(
    params: PhysicalParams, n_max: int, grid: Callable[[], RadialGridSpec] | None
) -> list[Outcome]:
    spec = oracle.default_grid(params, n_max) if grid is None else grid()
    result = oracle.fd_eigensolve(params, spec, n_max)
    levels: list[Outcome] = []
    for n, (energy, richardson) in enumerate(
        zip(result.energies(params), result.richardson_error_estimate), start=1
    ):
        kappa = kappa_of_energy(params, energy) if params.omega > 0 else None
        est = richardson / (2.0 * params.mass_m)
        levels.append(EnergyLevel(n, params.ell, energy, Route.ORACLE, kappa, est))
    return levels


def solve(
    params: PhysicalParams,
    n_max: int,
    routes,
    grid: Callable[[], RadialGridSpec] | None = None,
) -> Solution:
    """Run the requested routes (a collection of Route) for n = 1..n_max.

    grid builds the oracle's RadialGridSpec (default: oracle.default_grid).
    It is called only when the oracle route runs, so a failure to build the
    grid is recorded as the oracle's.
    """
    if not (is_count(n_max) and n_max >= 1):
        raise DomainError("n_max must be >= 1")
    runs = {
        Route.ASYMPTOTIC: lambda: spectrum.energy_levels_asymptotic(params, n_max),
        Route.EXACT: lambda: [
            _attempt(lambda: spectrum.quantize_exact(params, n)) for n in range(1, n_max + 1)
        ],
        Route.ORACLE: lambda: _oracle_levels(params, n_max, grid),
    }
    outcomes = {}
    for route in ROUTES:
        if route in routes:
            # a route that solves all levels at once fails them all at once
            out = _attempt(runs[route])
            outcomes[route] = [out] * n_max if isinstance(out, DipoleWellError) else out
    return Solution(params, outcomes)


def validate(params: PhysicalParams, n_max: int, grid: Callable[[], RadialGridSpec], *,
             x0_admissible: float, beta_min: float, compare_tol: float) -> tuple[Solution, Verdict]:
    """All three routes for n = 1..n_max and their Verdict; DomainError for omega <= 0.
    grid() runs next, before any route, so its failure is raised, not recorded."""
    if params.omega <= 0:
        raise DomainError("validate requires omega > 0 (all three routes defined)")
    spec = grid()
    solution = solve(params, n_max, ROUTES, lambda: spec)
    levels = [(solution.flags(n, x0_admissible=x0_admissible, beta_min=beta_min),
               solution.rel_gap(n, Route.ASYMPTOTIC, Route.EXACT),
               solution.rel_gap(n, Route.EXACT, Route.ORACLE)) for n in range(1, n_max + 1)]
    gap_ax, gap_xo = (max((lv[i] for lv in levels if lv[i] is not None), default=None)
                      for i in (1, 2))
    regime_ok = not any(flags for flags, _, _ in levels)
    return solution, Verdict(
        levels, max((g for g in (gap_ax, gap_xo) if g is not None), default=None), gap_xo,
        regime_ok, regime_ok and gap_xo is not None and gap_xo <= compare_tol)
