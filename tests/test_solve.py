"""Tests for the route runner: recorded failures, ordering and gaps, and
validate's verdict on them."""

from __future__ import annotations

import dataclasses
import pathlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dipolewell import model, oracle, spectrum
from dipolewell.errors import DipoleWellError, DomainError, NoBoundStateRegime
from dipolewell.oracle import RadialGridSpec
from dipolewell.solve import (BETA_MIN_DEFAULT, COMPARE_TOL_DEFAULT, ROUTES,
                              X0_ADMISSIBLE_DEFAULT, solve, validate)
from dipolewell.spectrum import Route

from oracles import deep_params

GOLDEN = pathlib.Path(__file__).parent / "golden"

# the thresholds of `validate` when no flag sets them
DEFAULTS = dict(x0_admissible=X0_ADMISSIBLE_DEFAULT, beta_min=BETA_MIN_DEFAULT)
VALIDATE_DEFAULTS = dict(DEFAULTS, compare_tol=COMPARE_TOL_DEFAULT)


def short_grid():
    # on [R, 2R] the oracle's leak check fails for deep_params(), so the oracle is absent
    return RadialGridSpec(0.1, 0.2, 100)


def no_grid():
    raise AssertionError("grid built without the oracle route")


def test_solve_levels_match_the_routes():
    p = deep_params()
    sol = solve(p, 2, (Route.EXACT, Route.ASYMPTOTIC), no_grid)
    assert list(sol.outcomes) == [Route.ASYMPTOTIC, Route.EXACT]  # ROUTES order
    assert sol.first_error() is None
    assert sol.level(Route.ORACLE, 1) is None
    for n in (1, 2):
        assert sol.level(Route.EXACT, n) == spectrum.quantize_exact(p, n)
        assert sol.level(Route.ASYMPTOTIC, n) == spectrum.energy_levels_asymptotic(p, 2)[n - 1]
        assert sol.flags(n, **DEFAULTS) == []


def test_solve_binding_relative_gaps():
    p = deep_params()
    sol = solve(p, 2, (Route.ASYMPTOTIC, Route.EXACT), no_grid)
    e_a = sol.level(Route.ASYMPTOTIC, 1).energy
    e_x = sol.level(Route.EXACT, 1).energy
    gap = sol.rel_gap(1, Route.ASYMPTOTIC, Route.EXACT)
    assert gap == abs(e_a - e_x) / abs(p.omega + p.energy_shift - e_a)
    assert 0.10 < gap < 0.13  # the closed form's regime error at Lambda = 5
    assert sol.rel_gap(1, Route.EXACT, Route.ORACLE) is None
    # validate without an oracle: level 1's gap is the largest, and no exact-oracle gap exists
    _, verdict = validate(p, 2, short_grid, **VALIDATE_DEFAULTS)
    assert verdict.levels[0][1] == gap
    assert verdict.max_rel_gap == gap
    assert verdict.max_gap_exact_oracle is None


def test_rel_gap_of_a_binding_lost_in_the_pz_shift():
    # p_z^2/(2m) = 5e19: omega + shift - E rounds to 0, which gave a gap of inf
    sol = solve(deep_params(p_z=1e10), 1, (Route.ASYMPTOTIC, Route.EXACT), no_grid)
    with pytest.raises(DomainError, match="p_z shift"):
        sol.rel_gap(1, Route.ASYMPTOTIC, Route.EXACT)
    with pytest.raises(DomainError, match="p_z shift"):
        validate(deep_params(p_z=1e10), 1, short_grid, **VALIDATE_DEFAULTS)


def test_solve_records_failures_per_route():
    # omega = 0: the closed form still works, the exact route and the default
    # oracle grid both need omega > 0
    p = deep_params(omega=0.0)
    sol = solve(p, 2, ROUTES)
    assert sol.level(Route.ASYMPTOTIC, 2) is not None
    errors = [sol.outcomes[Route.EXACT][0], sol.outcomes[Route.ORACLE][0]]
    assert all(isinstance(e, DomainError) for e in errors)
    assert sol.first_error() is errors[0]
    assert sol.flags(1, **DEFAULTS) == ["absent:exact:DomainError", "absent:oracle:DomainError"]
    assert [sol.rel_gap(n, Route.ASYMPTOTIC, Route.EXACT) for n in (1, 2)] == [None, None]


def test_validate_refuses_omega_zero_before_building_its_grid():
    with pytest.raises(DomainError, match=r"validate requires omega > 0 \(all three routes"):
        validate(deep_params(omega=0.0), 2, no_grid, **VALIDATE_DEFAULTS)


def test_validate_verdict_is_the_printed_summary():
    # deep.cfg on the `validate` golden's grid: the verdict's gaps are the CSV's
    # cells and its summary the golden's stderr
    values = model.parse_config_text((GOLDEN / "deep.cfg").read_text(encoding="utf-8"))
    p = model.params_from_mapping(values)
    _, verdict = validate(p, 2, lambda: oracle.default_grid(p, 2, points=600),
                          **VALIDATE_DEFAULTS)
    rows = [row.split(",") for row in (GOLDEN / "validate.out").read_text().split("\n")[1:-1]]
    assert verdict.levels == [([], float(row[5]), float(row[6])) for row in rows]
    summary = dict(word.split("=") for word in (GOLDEN / "validate.err").read_text().split()[1:])
    assert summary == {"max_rel_gap": f"{verdict.max_rel_gap:.14e}",
                       "max_gap_exact_oracle": f"{verdict.max_gap_exact_oracle:.14e}",
                       "regime_ok": "true", "within_tol": "true"}
    assert verdict.regime_ok is True and verdict.within_tol is True


def test_validate_verdict_without_route_pairs():
    # Lambda = 120: the exact route raises BracketError, so no gap exists
    p = deep_params(polarizability_alpha=7200.0)
    _, verdict = validate(p, 1, lambda: oracle.default_grid(p, 1), **VALIDATE_DEFAULTS)
    assert verdict == (
        [(["absent:exact:BracketError"], None, None)], None, None, False, False)


@pytest.mark.parametrize(
    "alpha,omega,p_z",
    [(12.5, 1e-3, 0.0), (12.5, 1e-3, 0.3), (32.0, 1.0, 0.0), (4.5, 1.0, 0.3)],
    ids=["deep", "deep_pz", "lambda8", "lambda3_pz"],
)
def test_every_route_scales_with_the_cutoff(alpha, omega, p_z):
    # R -> s R and omega -> omega / s^2 keep x0 = m omega R^2 and Lambda, so
    # E - p_z^2/(2m) scales by 1/s^2: s^2 (E_s - shift) lies within
    # est + s^2 est_s of E - shift.  Powers of two would scale exactly.  Worst
    # |difference| / (est + s^2 est_s): 0.16 closed form, 1.7e-3 exact, 1e-7 oracle
    def routes(p):
        return solve(p, 2, ROUTES, lambda: oracle.default_grid(p, 2, points=600))

    p = deep_params(polarizability_alpha=alpha, omega=omega, p_z=p_z)
    base, shift = routes(p), p.energy_shift
    for s in (0.37, 1.7, 3.0):
        scaled = routes(deep_params(polarizability_alpha=alpha, omega=omega / s**2,
                                    cutoff_R=s * p.cutoff_R, p_z=p_z))
        for route in ROUTES:
            for n in (1, 2):
                a, b = base.level(route, n), scaled.level(route, n)
                gap = abs(s * s * (b.energy - shift) - (a.energy - shift))
                assert gap <= a.est_error + s * s * b.est_error, (route, n, s)


def test_solve_flags_regime_failures_before_absent_routes():
    # Lambda = 2, x0 = 0.1: the closed form fails both thresholds; the oracle's
    # grid ends inside the cut-off, so the oracle fails
    p = deep_params(polarizability_alpha=2.0, omega=10.0)
    sol = solve(p, 1, (Route.ASYMPTOTIC, Route.ORACLE),
                lambda: RadialGridSpec(0.1, 0.05, 600))
    assert sol.flags(1, **DEFAULTS) == ["x0_admissible", "beta_min", "absent:oracle:DomainError"]
    assert sol.flags(1, x0_admissible=0.2, beta_min=BETA_MIN_DEFAULT) == [
        "beta_min", "absent:oracle:DomainError"]
    assert sol.flags(1, x0_admissible=0.2, beta_min=0.1) == ["absent:oracle:DomainError"]


def test_solve_regime_violation_propagates():
    with pytest.raises(NoBoundStateRegime):
        solve(deep_params(ell=6), 1, ROUTES, no_grid)
    with pytest.raises(DomainError):
        solve(deep_params(), 0, ROUTES, no_grid)


# each library entry point that takes a count, and the floats it returns
COUNTED = {
    "binding_energy": lambda c: [spectrum.binding_energy(deep_params(), c)],
    "energy_levels_asymptotic": lambda c: [
        lv.energy for lv in spectrum.energy_levels_asymptotic(deep_params(), c)],
    "quantize_exact": lambda c: [spectrum.quantize_exact(deep_params(), c).energy],
    "radial_wavefunction": lambda c: spectrum.radial_wavefunction(
        deep_params(), spectrum.quantize_exact(deep_params(), 1), None, c).f_values.tolist(),
    "solve": lambda c: [lv.energy for route in ROUTES
                        for lv in solve(deep_params(), c, ROUTES).outcomes[route]],
    "default_grid": lambda c: [oracle.default_grid(deep_params(), c).r_max],
    "fd_eigensolve": lambda c: oracle.fd_eigensolve(
        deep_params(), oracle.default_grid(deep_params(), 2), c).energies(deep_params()),
}


@pytest.mark.parametrize("entry", COUNTED)
def test_counts_must_be_integers(entry):
    # a float or bool count once failed with an untyped TypeError, or answered
    for count in (2.5, 2.0, True):
        with pytest.raises(DomainError):
            COUNTED[entry](count)
    assert COUNTED[entry](np.int64(2)) == COUNTED[entry](2)


def _bits(params, grid):
    """Every float of solve(params, 3, ROUTES, grid) and of the exact n = 1
    profile as float.hex, and each recorded error's type and message."""
    solution = solve(params, 3, ROUTES, grid)
    cells = []
    for outs in solution.outcomes.values():
        for out in outs:
            if isinstance(out, DipoleWellError):
                cells.append((type(out).__name__, str(out)))
            else:
                cells.append(tuple(v.hex() if isinstance(v, float) else v
                                   for v in dataclasses.astuple(out)))
    profile = spectrum.radial_wavefunction(params, solution.level(Route.EXACT, 1), None, 512)
    for values in (profile.r_samples, profile.f_values):
        cells.append(tuple(v.hex() for v in values.tolist()))
    return cells


def test_concurrent_calls_return_the_sequential_floats():
    # the package keeps no shared mutable state, so calls from a thread pool
    # return what the same calls return one after another
    cases = [
        (deep_params(), None),
        (deep_params(ell=1), None),
        (deep_params(p_z=0.5), None),
        (deep_params(), lambda: RadialGridSpec(0.1, 3.0, 500)),  # as --grid-rmax builds it
    ]
    sequential = [_bits(*case) for case in cases]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(lambda case: _bits(*case), cases + cases))
    assert concurrent == sequential + sequential


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: R^2 (omega + p_z^2/2m - E_1) rounds "
                   "to 0 when p_z^2/2m dwarfs the binding")
def test_scaled_binding_survives_a_large_energy_shift():
    p = deep_params(p_z=1e10)
    got = solve(p, 1, [Route.ASYMPTOTIC]).scaled_binding(1)
    assert got == pytest.approx(p.cutoff_R ** 2 * spectrum.binding_energy(p, 1), rel=1e-12)
