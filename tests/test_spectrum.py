"""Tests for the closed-form spectrum, exact quantization, and wavefunctions.

Frozen reference values come from a 40-digit evaluation of the boundary
condition W_{kappa, i mu}(x0) = 0 (see tests/oracles.py); the deep regime
below is m = 1, alpha lambda^2 = 12.5 (Lambda = 5), omega = 1e-3, R = 0.1,
hence x0 = 1e-5.
"""

from __future__ import annotations

import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest

from dipolewell import cli, oracle, special, spectrum
from dipolewell.errors import BracketError, DipoleWellError, DomainError, NoBoundStateRegime
from dipolewell.model import PhysicalParams, derive, energy_of_kappa
from dipolewell.special import whittaker_w_scaled
from dipolewell.spectrum import Route

from oracles import deep_params, mp_whittaker_w_mantissa, s_wave_energies

# exact quantization roots in the deep regime  [frozen, 40-digit oracle]
DEEP_EXACT = {
    1: (146957.0654558166304682, -293.9131309116332609364),
    2: (38396.03072304001757469, -76.79106144608003514938),
    3: (10696.37004467135371005, -21.3917400893427074201),
}


# ---------------------------------------------------------------------------
# closed-form levels
# ---------------------------------------------------------------------------


def test_asymptotic_levels_deep_regime():
    levels = spectrum.energy_levels_asymptotic(deep_params(), 3)
    # E_1 = omega - 5000 * exp(pi/10 - 2) * exp(-2 pi/5)  [frozen oracle]
    assert abs(levels[0].energy - (-263.6735019649660)) < 1e-10 * 263.7
    assert abs(levels[1].energy - (-75.04327959360392)) < 1e-10 * 75.0
    assert [lv.n for lv in levels] == [1, 2, 3]
    assert all(a.energy < b.energy for a, b in zip(levels, levels[1:]))
    assert all(lv.route is Route.ASYMPTOTIC for lv in levels)


def test_asymptotic_geometric_ratio():
    p = deep_params(p_z=0.4)
    ref = p.omega + p.energy_shift
    levels = spectrum.energy_levels_asymptotic(p, 6)
    q = math.exp(-2.0 * math.pi / derive(p).Lambda)
    for a, b in zip(levels, levels[1:]):
        ratio = (ref - b.energy) / (ref - a.energy)
        assert abs(ratio - q) <= 1e-12 * q


def test_asymptotic_kappa_consistency():
    p = deep_params()
    for lv in spectrum.energy_levels_asymptotic(p, 3):
        assert lv.kappa is not None
        assert abs(energy_of_kappa(p, lv.kappa) - lv.energy) <= 1e-12 * abs(lv.energy)


def test_asymptotic_omega_zero_is_finite():
    p = deep_params(omega=0.0)
    levels = spectrum.energy_levels_asymptotic(p, 3)
    assert all(lv.energy < 0 for lv in levels)
    assert all(lv.kappa is None for lv in levels)
    # binding is omega-independent: shifting omega shifts energies rigidly
    p2 = deep_params(omega=2.0)
    levels2 = spectrum.energy_levels_asymptotic(p2, 3)
    for a, b in zip(levels, levels2):
        assert abs((b.energy - a.energy) - 2.0) <= 1e-12 * max(1.0, abs(a.energy))


def test_asymptotic_levels_that_round_together_are_a_domain_error():
    # Lambda ~ 1e110: exp(-2 pi n / Lambda) rounds to 1, so levels 1..3 would print one energy
    p = deep_params(polarizability_alpha=1e200, field_coupling_lambda=1e10, omega=0.0,
                    cutoff_R=1e10)
    assert len(spectrum.energy_levels_asymptotic(p, 1)) == 1
    with pytest.raises(DomainError, match="levels 1 and 2 do not differ"):
        spectrum.energy_levels_asymptotic(p, 3)
    # the binding underflows to 0 and every level sits at omega
    weak = deep_params(polarizability_alpha=1e-6, omega=1.0)
    with pytest.raises(DomainError, match="levels 1 and 2 do not differ"):
        spectrum.energy_levels_asymptotic(weak, 2)


def test_cutoff_scaling_of_binding():
    # R^2 * (omega + shift - E_n) independent of R to 1e-12
    vals = []
    for R in (0.2, 0.1, 0.05, 0.025):
        p = deep_params(cutoff_R=R)
        ref = p.omega + p.energy_shift
        e1 = spectrum.energy_levels_asymptotic(p, 1)[0].energy
        vals.append(R * R * (ref - e1))
    base = vals[0]
    assert all(abs(v - base) <= 1e-12 * base for v in vals)


def test_s_wave_reduction_identity_unit_mass():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = deep_params(
            polarizability_alpha=float(rng.uniform(0.5, 20)),
            field_coupling_lambda=float(rng.uniform(0.5, 2.5)),
            omega=float(rng.uniform(0.0, 0.05)),
            cutoff_R=float(rng.uniform(0.02, 0.5)),
        )
        gen = spectrum.energy_levels_asymptotic(p, 4)
        for a, e_sw in zip(gen, s_wave_energies(p, 4)):
            bind = p.omega + p.energy_shift - a.energy
            assert abs(a.energy - e_sw) <= np.spacing(max(abs(a.energy), bind))


def test_s_wave_reduction_identity_general_mass():
    rng = np.random.default_rng(32)
    for _ in range(20):
        p = deep_params(
            mass_m=float(rng.uniform(0.3, 4.0)),
            polarizability_alpha=float(rng.uniform(0.5, 20)),
        )
        gen = spectrum.energy_levels_asymptotic(p, 3)
        for a, e_sw in zip(gen, s_wave_energies(p, 3)):
            bind = p.omega + p.energy_shift - a.energy
            assert abs(a.energy - e_sw) <= 8.0 * np.spacing(max(abs(a.energy), bind))


def test_binding_decreases_with_ell():
    # coupling 25 allows ell in {0, 1, 2, 3, 4}
    bindings = []
    for ell in (0, 1, 2, 3):
        p = deep_params(ell=ell)
        bindings.append(spectrum.binding_energy(p, 1))
    assert all(a > b for a, b in zip(bindings, bindings[1:]))


def test_positive_levels_with_confinement():
    # witness set: R = 0.01, omega = 5 -> E_8 > 0 while the omega = 0
    # counterpart is all-negative  [frozen oracle: E_8 = +1.01145640184]
    p = deep_params(cutoff_R=0.01, omega=5.0)
    levels = spectrum.energy_levels_asymptotic(p, 10)
    assert levels[6].energy < 0  # n = 7
    assert abs(levels[7].energy - 1.01145640184) < 1e-9 * 5
    assert all(lv.energy > 0 for lv in levels[7:])
    p0 = deep_params(cutoff_R=0.01, omega=0.0)
    assert all(lv.energy < 0 for lv in spectrum.energy_levels_asymptotic(p0, 10))


def test_no_bound_state_regime_propagates():
    p = deep_params(polarizability_alpha=2.0, field_coupling_lambda=1.0, ell=2)
    with pytest.raises(NoBoundStateRegime):
        spectrum.energy_levels_asymptotic(p, 2)
    with pytest.raises(NoBoundStateRegime):
        spectrum.quantize_exact(p, 1)


# ---------------------------------------------------------------------------
# exact quantization
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def deep_exact_levels():
    p = deep_params()
    return {n: spectrum.quantize_exact(p, n) for n in (1, 2, 3)}


def test_quantize_exact_frozen_roots(deep_exact_levels):
    for n, (beta_ref, e_ref) in DEEP_EXACT.items():
        lv = deep_exact_levels[n]
        assert lv.route is Route.EXACT
        assert abs(lv.energy - e_ref) <= 1e-9 * abs(e_ref)
        beta = 0.5 - lv.kappa
        assert abs(beta - beta_ref) <= 1e-9 * beta_ref


def test_quantize_exact_true_sign_change(deep_exact_levels):
    p = deep_params()
    mu = derive(p).mu
    x0 = derive(p).x0
    for lv in deep_exact_levels.values():
        delta = 1e-6 * abs(lv.kappa)
        lo = whittaker_w_scaled(lv.kappa - delta, mu, x0).mantissa
        hi = whittaker_w_scaled(lv.kappa + delta, mu, x0).mantissa
        assert lo * hi < 0
        assert lv.extra_sign_changes == 0


def test_quantize_exact_ladder_spacing(deep_exact_levels):
    # exact roots inherit the geometric spacing within 10% in the deep regime
    p = deep_params()
    ref = p.omega + p.energy_shift
    q = math.exp(-2.0 * math.pi / 5.0)
    b = {n: ref - lv.energy for n, lv in deep_exact_levels.items()}
    assert abs(b[2] / b[1] - q) <= 0.10 * q
    assert abs(b[3] / b[2] - q) <= 0.10 * q


def test_quantize_exact_vs_asymptotic_gaps(deep_exact_levels):
    # [frozen oracle] rel gaps 0.1147, 0.0233, 0.00161 for n = 1, 2, 3
    p = deep_params()
    ref = p.omega + p.energy_shift
    asym = spectrum.energy_levels_asymptotic(p, 3)
    gaps = [
        abs(deep_exact_levels[n].energy - asym[n - 1].energy) / (ref - asym[n - 1].energy)
        for n in (1, 2, 3)
    ]
    assert 0.10 < gaps[0] < 0.13
    assert 0.018 < gaps[1] < 0.03
    assert gaps[2] < 0.005
    assert gaps[0] > gaps[1] > gaps[2]


def test_quantize_exact_gap_independent_of_x0():
    # at fixed Lambda and n the quantization defect depends only on beta*x0,
    # which the closed form pins; shrinking x0 does not shrink the n=1 gap
    p_small = deep_params(omega=1e-5)  # x0 = 1e-7
    ref = p_small.omega + p_small.energy_shift
    e_asym = spectrum.energy_levels_asymptotic(p_small, 1)[0].energy
    e_exact = spectrum.quantize_exact(p_small, 1).energy
    gap = abs(e_exact - e_asym) / (ref - e_asym)
    assert 0.10 < gap < 0.13


def test_quantize_exact_gap_direction_across_lambda():
    # Flagged (non-hard) regime check: at fixed x0 = 1e-5 the n=2 gap
    # between the exact and closed-form routes is measured to *increase*
    # along Lambda in {4, 5, 6} (0.0061, 0.0233, 0.0404 by the 40-digit
    # oracle), because the quantization defect scales with
    # beta_n * x0 = Lambda^2 e^{pi/(2 Lambda) - 2 - 2 pi n/Lambda}, which
    # grows with Lambda.  The regression below pins the measured values
    # and that direction.
    measured = []
    for coupling in (16.0, 25.0, 36.0):  # Lambda = 4, 5, 6
        p = deep_params(polarizability_alpha=coupling / 2.0)
        ref = p.omega + p.energy_shift
        e_a = spectrum.energy_levels_asymptotic(p, 2)[1].energy
        e_x = spectrum.quantize_exact(p, 2).energy
        measured.append(abs(e_x - e_a) / (ref - e_a))
    expected = (0.00605385, 0.023290, 0.0403792)  # [frozen oracle]
    for got, ref_v in zip(measured, expected):
        assert abs(got - ref_v) <= 1e-3 * max(ref_v, 1e-6)
    assert measured[0] < measured[1] < measured[2]


def test_quantize_exact_one_gamma_of_the_order_and_one_series_per_beta(monkeypatch):
    # all W of one root search share (mu, x0): lnGamma(2 i mu) once, and no
    # beta's mantissa twice (the window search and ITP share one cache)
    p = deep_params()
    order = complex(0.0, 2.0 * derive(p).mu)
    gammas, series_a = [], []
    ln_gamma, series = special.ln_gamma_complex, special._kummer_series_scaled

    def counting_ln_gamma(z):
        gammas.append(z)
        return ln_gamma(z)

    def counting_series(a, b, x):
        series_a.append(a)
        return series(a, b, x)

    monkeypatch.setattr(special, "ln_gamma_complex", counting_ln_gamma)
    monkeypatch.setattr(special, "_kummer_series_scaled", counting_series)
    spectrum.quantize_exact(p, 1)
    assert gammas.count(order) == 1
    assert len(gammas) == len(series_a) + 1  # lnGamma(beta + i mu) per W
    assert len(set(series_a)) == len(series_a)


FROZEN_QUANTIZE = pathlib.Path(__file__).parent / "quantize_exact_frozen.txt"
# the same rows as solved by the beta_hat window and bisection, before the phase start and ITP
FROZEN_BISECTION = pathlib.Path(__file__).parent / "quantize_exact_frozen_bisection.txt"


def _quantize_outcome(params: PhysicalParams, n: int) -> str:
    try:
        lv = spectrum.quantize_exact(params, n)
    except DipoleWellError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((lv.energy, lv.kappa, lv.est_error, lv.extra_sign_changes))


def _frozen_rows(path: pathlib.Path) -> list[tuple[PhysicalParams, int, str]]:
    rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 39
    out = []
    for row in rows:
        inputs, want = row.split(" | ")
        n, *floats, ell, pz = inputs.split()
        out.append((PhysicalParams(*map(float, floats), int(ell), float(pz)), int(n), want))
    return out


def test_quantize_exact_frozen_table():
    # every energy, kappa, est_error and extra_sign_changes to the last bit,
    # or the same error: Lambda = 1..12, x0 = 1e-9..36, ell = 1, p_z != 0
    for params, n, want in _frozen_rows(FROZEN_QUANTIZE):
        assert _quantize_outcome(params, n) == want, (params, n)


def test_quantize_exact_moves_within_the_errors_of_the_bisection_table():
    # a level the bisection found moves by at most the sum of both est_errors;
    # a BracketError there either stays one or now agrees with the oracle
    for params, n, want in _frozen_rows(FROZEN_BISECTION):
        if want.startswith("("):
            e_old, _, est_old, _ = ast.literal_eval(want)
            lv = spectrum.quantize_exact(params, n)
            assert abs(lv.energy - e_old) <= est_old + lv.est_error, (params, n)
            continue
        assert want.startswith("BracketError")
        try:
            lv = spectrum.quantize_exact(params, n)
        except BracketError:
            continue
        res = oracle.fd_eigensolve(params, oracle.default_grid(params, n), n)
        est = res.richardson_error_estimate[n - 1] / (2.0 * params.mass_m)
        assert abs(lv.energy - res.energies(params)[n - 1]) <= 2.0 * est, (params, n)


def test_phase_start_solves_the_phase_rule():
    # phi(beta_phi) = n - 1/4; no phase where z = 2 sqrt(beta x0) >= nu
    for lam, x0 in ((1.0, 1e-5), (5.0, 1e-5), (12.0, 1e-2), (2.5, 1e-2)):
        for n in (1, 2, 3, 7):
            beta = spectrum._phase_start(n, lam, x0)
            assert abs(spectrum._phase(beta, lam, x0) - (n - 0.25)) <= 1e-12 * n
    assert math.isnan(spectrum._phase(0.25 * 25.0 / 1e-2, 5.0, 1e-2))  # z = nu
    assert math.isnan(spectrum._phase(1e300, 5.0, 1e-2))


def test_quantize_exact_w_evaluations_per_deep_level(monkeypatch):
    # phase start, window and ITP: about 10 W per level (75 with the bisection)
    calls = []
    w = spectrum.whittaker_w_scaled

    def counting(*args, **kwargs):
        calls.append(args[0])
        return w(*args, **kwargs)

    monkeypatch.setattr(spectrum, "whittaker_w_scaled", counting)
    for n in (1, 2, 3):
        calls.clear()
        spectrum.quantize_exact(deep_params(), n)
        assert 0 < len(calls) <= 15, n


# Lambda in {8, 10, 12} at x0 = 1e-2: the strong-field levels
STRONG = {lam: deep_params(polarizability_alpha=lam * lam / 2.0, omega=1.0) for lam in (8, 10, 12)}


@pytest.fixture(scope="module")
def strong_oracle():
    return {lam: oracle.fd_eigensolve(p, oracle.default_grid(p, 3), 3)
            for lam, p in STRONG.items()}


def test_quantize_exact_agrees_with_the_oracle_in_the_strong_field(strong_oracle):
    # the Richardson estimate tracks the true error to < 0.5 %, so 2x is a margin
    for lam, p in STRONG.items():
        res = strong_oracle[lam]
        for n in (1, 2, 3):
            lv = spectrum.quantize_exact(p, n)
            est = res.richardson_error_estimate[n - 1] / (2.0 * p.mass_m)
            assert abs(lv.energy - res.energies(p)[n - 1]) <= 2.0 * est, (lam, n)


def test_strong_field_spectrum_exits_0(strong_oracle, capsys):
    # this command exited 3 with a BracketError while the window sat on beta_hat
    argv = ["spectrum", "--mass", "1", "--alpha", "32", "--lambda", "1", "--omega", "1",
            "--radius", "0.1", "--nmax", "1", "--route", "exact"]
    assert cli.main(argv) == 0
    e1 = float(capsys.readouterr().out.splitlines()[1].split(",")[3])
    res = strong_oracle[8]
    e_oracle, est = res.energies(STRONG[8])[0], res.richardson_error_estimate[0] / 2.0
    assert round(e_oracle, 3) == -1153.139
    assert abs(e1 - e_oracle) <= 2.0 * est


def test_spectrum_beyond_the_search_range_exits_3(capsys):
    # Lambda = 200 > 32 pi: the first window step 1/16 exceeds the branch
    # spacing 2 pi/Lambda, and the mantissa there is Kummer-cancellation noise
    # whose sign changes lie within a third of a level of n - 1/4
    argv = ["spectrum", "--mass", "1", "--alpha", "20000", "--lambda", "1", "--omega", "1",
            "--radius", "0.1", "--nmax", "3", "--route", "exact"]
    assert cli.main(argv) == 3
    assert "BracketError: no root of W with phase label 1" in capsys.readouterr().err


def test_quantize_exact_est_error_holds_against_mpmath():
    # the 40-digit W changes sign within E +- est_error, and the root's phase
    # lies near n - 1/4; (2.5, 1e-2, 3) has beta < 0, out of the search's reach
    failing = []
    for lam in (2.5, 5.0, 8.0, 12.0):
        for x0 in (1e-6, 1e-4, 1e-2):
            p = deep_params(polarizability_alpha=lam * lam / 2.0, omega=x0 / 0.01)
            mu = derive(p).mu
            for n in (1, 2, 3):
                try:
                    lv = spectrum.quantize_exact(p, n)
                except BracketError:
                    failing.append((lam, x0, n))
                    continue
                dk = lv.est_error / (2.0 * p.omega)
                expo = whittaker_w_scaled(lv.kappa, mu, x0).exponent
                lo = mp_whittaker_w_mantissa(lv.kappa - dk, mu, x0, expo)
                hi = mp_whittaker_w_mantissa(lv.kappa + dk, mu, x0, expo)
                assert lo * hi < 0, (lam, x0, n)
                phi = spectrum._phase(0.5 - lv.kappa, lam, x0)
                assert 0.6 <= phi - (n - 1) <= 0.9, (lam, x0, n)
    assert failing == [(2.5, 1e-2, 3)]


@pytest.mark.parametrize("branch", [-1, 1])
def test_quantize_exact_start_one_branch_off_is_rejected(monkeypatch, branch):
    # started at the neighbouring branch, the search finds the neighbour's
    # root; its phase label is n -+ 1, so the level is refused, not returned
    start = spectrum._phase_start
    lam = derive(deep_params()).Lambda
    monkeypatch.setattr(spectrum, "_phase_start",
                        lambda n, nu, x0: start(n, nu, x0) * math.exp(branch * 2 * math.pi / lam))
    with pytest.raises(BracketError, match="phase label 2 around beta_phi"):
        spectrum.quantize_exact(deep_params(), 2)


def test_quantize_exact_returns_the_labelled_root_among_its_neighbours(monkeypatch):
    # a mantissa with its roots exactly at phi = k - 1/4: from any start within
    # a branch of beta_phi the search returns the n-th root or raises
    p = deep_params()
    d = derive(p)
    start = spectrum._phase_start
    monkeypatch.setattr(spectrum, "_mantissa_at_beta", lambda beta, mu, x0, point: math.sin(
        math.pi * (spectrum._phase(beta, d.Lambda, x0) + 0.25)))
    want = 0.5 - start(2, d.Lambda, d.x0)
    outcomes = []
    for shift in np.linspace(-2.0, 2.0, 17):
        monkeypatch.setattr(spectrum, "_phase_start", lambda n, nu, x0, s=shift:
                            start(n, nu, x0) * math.exp(s * math.pi / d.Lambda))
        try:
            lv = spectrum.quantize_exact(p, 2)
        except BracketError:
            outcomes.append("raised")
            continue
        assert abs(lv.kappa - want) <= 1e-9 * abs(want), shift
        outcomes.append("root")
    assert "root" in outcomes and "raised" in outcomes


def test_quantize_exact_bracket_error_when_window_too_small(monkeypatch):
    # a W without a sign change anywhere in the window: no bracket to bisect
    monkeypatch.setattr(spectrum, "_mantissa_at_beta", lambda beta, mu, x0, point: 1.0)
    with pytest.raises(BracketError):
        spectrum.quantize_exact(deep_params(), 1)


def test_quantize_exact_requires_positive_omega():
    with pytest.raises(DomainError):
        spectrum.quantize_exact(deep_params(omega=0.0), 1)


@pytest.mark.parametrize("omega", [1e-160, 1e-200, 1e-300])
def test_quantize_exact_at_tiny_omega(omega):
    # a beta window ~1e161 wide and more: ITP's (b - a)^2 overflows, and it takes
    # a bisection step; the level is the small-omega limit within its error
    ref = spectrum.quantize_exact(deep_params(omega=1e-9), 1)
    lv = spectrum.quantize_exact(deep_params(omega=omega), 1)
    assert abs(lv.energy - ref.energy) <= lv.est_error + ref.est_error


# ---------------------------------------------------------------------------
# radial wavefunction
# ---------------------------------------------------------------------------


def test_radial_wavefunction_vanishes_at_wall(deep_exact_levels):
    p = deep_params()
    profile = spectrum.radial_wavefunction(p, deep_exact_levels[1], r_max=0.7, samples=400)
    assert abs(profile.f_values[0]) <= 1e-6
    assert np.max(np.abs(profile.f_values)) == 1.0
    assert not profile.boundary_warning


def test_radial_wavefunction_node_counts(deep_exact_levels):
    p = deep_params()
    counts = []
    for n in (1, 2, 3):
        profile = spectrum.radial_wavefunction(
            p, deep_exact_levels[n], r_max=1.4, samples=3000
        )
        # interior sign changes of f, ignoring the r = R boundary zero
        v = profile.f_values
        interior = v[1:] if abs(v[0]) < 1e-6 else v
        s = np.sign(interior[np.abs(interior) > 1e-9])
        counts.append(int(np.sum(s[:-1] * s[1:] < 0)))
    assert counts == [0, 1, 2]


def test_radial_wavefunction_computes_log_gammas_once(deep_exact_levels, monkeypatch):
    # the two log-Gammas of W depend on (kappa, mu) only: once per profile
    calls = []
    ln_gamma = special.ln_gamma_complex

    def counting(z):
        calls.append(z)
        return ln_gamma(z)

    monkeypatch.setattr(special, "ln_gamma_complex", counting)
    spectrum.radial_wavefunction(deep_params(), deep_exact_levels[1], r_max=0.7, samples=512)
    assert len(calls) == 2


def test_radial_wavefunction_w_bits_equal_the_scalar_w(deep_exact_levels, monkeypatch):
    # every sample of the default deep.cfg profiles n = 1..3: the array W's
    # mantissa and exponent carry the scalar W's bits
    seen = []
    array_w = spectrum.whittaker_w_scaled_array

    def recording(kappa, mu, x):
        seen.append((kappa, mu, x, array_w(kappa, mu, x)))
        return seen[-1][3]

    monkeypatch.setattr(spectrum, "whittaker_w_scaled_array", recording)
    for lv in deep_exact_levels.values():
        spectrum.radial_wavefunction(deep_params(), lv, None, 512)
    assert len(seen) == 3
    for kappa, mu, x, (mantissa, exponent) in seen:
        assert len(x) == 512
        ws = [whittaker_w_scaled(kappa, mu, xi) for xi in x.tolist()]
        assert [m.hex() for m in mantissa.tolist()] == [w.mantissa.hex() for w in ws]
        assert [e.hex() for e in exponent.tolist()] == [w.exponent.hex() for w in ws]


@pytest.mark.parametrize("lam", [2.5, 5.0, 7.0])
def test_radial_wavefunction_sums_stay_below_the_rescale(lam, monkeypatch):
    # the profile workload's range at the default r_max, 3x the turning radius:
    # beta x stays below ~9 Lambda^2 / 4, far from the ~8e4 at which a Kummer
    # sum passes 1e250 and the array series hands its samples to the scalar W
    sums = []
    series = special._kummer_series_array

    def recording(a, b, x):
        sums.append(series(a, b, x))
        return sums[-1]

    monkeypatch.setattr(special, "_kummer_series_array", recording)
    for x0 in (1e-6, 1e-3):
        p = PhysicalParams(1.0, 0.5 * lam * lam, 1.0, x0 / 0.01, 0.1)
        for n in (1, 2, 3):
            spectrum.radial_wavefunction(p, spectrum.quantize_exact(p, n), None, 512)
    assert len(sums) == 6
    assert all(s is not None for s in sums)


def test_radial_wavefunction_tail_decay(deep_exact_levels):
    p = deep_params()
    profile = spectrum.radial_wavefunction(p, deep_exact_levels[1], r_max=1.0, samples=800)
    # beyond the outer turning point (~0.21) the magnitude decays monotonically
    # until it reaches the noise clip, which reports exact zeros
    r = profile.r_samples
    mag = np.abs(profile.f_values)
    tail = mag[r > 0.3]
    live = tail[tail > 0]
    assert np.all(np.diff(live) < 0)
    assert len(live) > 100
    # clipped region is a contiguous trailing block of exact zeros
    first_zero = np.argmax(tail == 0) if np.any(tail == 0) else len(tail)
    assert np.all(tail[first_zero:] == 0)


def test_radial_wavefunction_asymptotic_level_warns():
    p = deep_params()
    lv = spectrum.energy_levels_asymptotic(p, 1)[0]
    profile = spectrum.radial_wavefunction(p, lv, r_max=0.7, samples=300)
    assert profile.boundary_warning
    assert abs(profile.f_values[0]) > 1e-6  # visibly nonzero at the wall


def test_radial_wavefunction_domain_checks(deep_exact_levels):
    p = deep_params()
    with pytest.raises(DomainError):
        spectrum.radial_wavefunction(p, deep_exact_levels[1], r_max=0.05, samples=512)
    with pytest.raises(DomainError):
        spectrum.radial_wavefunction(p, deep_exact_levels[1], r_max=0.7, samples=1)
    with pytest.raises(DomainError, match="r_max = 1e[+]160"):
        spectrum.radial_wavefunction(p, deep_exact_levels[1], r_max=1e160, samples=3)
    # an omega = 0 level has no kappa, even when the profile's omega is positive
    no_kappa = dataclasses.replace(deep_exact_levels[1], kappa=None)
    with pytest.raises(DomainError, match="level carries no kappa"):
        spectrum.radial_wavefunction(p, no_kappa, r_max=0.7, samples=3)
