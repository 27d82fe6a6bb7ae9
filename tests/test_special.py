"""Special-function tests: identities, frozen oracle values, live mpmath grids."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolewell import special
from dipolewell.errors import (
    ConvergenceError,
    DomainError,
    ParameterPole,
    PoleError,
    RegimeError,
)

from oracles import (
    mp_kummer,
    mp_lngamma,
    mp_whittaker_m,
    mp_whittaker_w,
    mp_whittaker_w_mantissa,
)

# ---------------------------------------------------------------------------
# complex log-Gamma
# ---------------------------------------------------------------------------


def test_lngamma_at_one_and_half():
    assert abs(special.ln_gamma_complex(1 + 0j).value) < 1e-14
    # Gamma(1/2) = sqrt(pi)  [frozen: log(sqrt(pi)) to 22 digits]
    val = special.ln_gamma_complex(0.5 + 0j).value
    assert abs(val - 0.5723649429247000870717) < 1e-14
    assert abs(val.imag) == 0.0


def test_lngamma_modulus_on_imaginary_axis():
    # |Gamma(2i)| from the reflection identity  [frozen]
    got = abs(cmath.exp(special.ln_gamma_complex(2j).value))
    assert abs(got - 0.07659480939561730998931) < 1e-12


def test_gamma_reflection_identity():
    # |Gamma(iy)|^2 * y * sinh(pi y) = pi
    for y in (0.5, 1.0, 2.0, 5.0):
        g = cmath.exp(special.ln_gamma_complex(complex(0.0, y)).value)
        residual = abs(g) ** 2 * y * math.sinh(math.pi * y)
        assert abs(residual - math.pi) <= 1e-10 * math.pi


def test_gamma_recurrence_random():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 20:
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(z - round(z.real)) < 0.1 and round(z.real) <= 0:
            continue
        lhs = special.ln_gamma_complex(z + 1).value
        rhs = special.ln_gamma_complex(z).value + cmath.log(z)
        # compare as Gamma ratios; branch counts may differ by 2*pi*i
        assert abs(cmath.exp(lhs - rhs) - 1.0) <= 1e-10
        checked += 1


def test_lngamma_against_reference_grid():
    rng = np.random.default_rng(3)
    for _ in range(60):
        z = complex(rng.uniform(-49, 49), rng.uniform(-49, 49))
        if abs(z) > 50 or (z.real < 0.5 and abs(z.imag) < 0.05):
            continue
        n = round(z.real)
        if n <= 0 and abs(z - n) < 0.05:
            continue
        res = special.ln_gamma_complex(z)
        ref = mp_lngamma(z)
        # >= 12 significant digits on |z| <= 50
        assert abs(res.value - ref) <= 1e-12 * max(1.0, abs(ref))
        assert abs(res.value - ref) <= max(res.est_error * 10, 1e-13 * max(1.0, abs(ref)))


def test_lngamma_pole_rejection():
    for bad in (0 + 0j, -1 + 0j, -7 + 1e-14j):
        with pytest.raises(PoleError):
            special.ln_gamma_complex(bad)


# ---------------------------------------------------------------------------
# Kummer M
# ---------------------------------------------------------------------------


def test_kummer_constant_term():
    for a, b in ((2.3 + 1j, 1.5 - 0.5j), (-4.0 + 0j, 0.25 + 0j)):
        assert special.kummer_m(a, b, 0.0).value == 1.0 + 0j


def test_kummer_exponential_identities():
    # M(a, a, x) = e^x  and  M(1, 2, x) = (e^x - 1)/x
    assert abs(special.kummer_m(1, 1, 1.0).value - math.e) < 1e-14
    assert abs(special.kummer_m(1, 2, 1.0).value - (math.e - 1.0)) < 1e-14


def test_kummer_against_reference():
    rng = np.random.default_rng(11)
    for _ in range(40):
        a = complex(rng.uniform(0.3, 30), rng.uniform(-5, 5))
        b = complex(rng.uniform(0.5, 10), rng.uniform(-6, 6))
        x = float(rng.uniform(0, 30))
        res = special.kummer_m(a, b, x)
        ref = mp_kummer(a, b, x)
        assert abs(res.value - ref) <= 1e-10 * abs(ref)


def test_kummer_contiguous_relation():
    # (b - a) M(a-1) + (2a - b + x) M(a) - a M(a+1) = 0
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = complex(rng.uniform(0.5, 15), rng.uniform(-3, 3))
        b = complex(rng.uniform(0.7, 8), rng.uniform(-4, 4))
        x = float(rng.uniform(0.01, 10))
        m_dn = special.kummer_m(a - 1, b, x).value
        m_md = special.kummer_m(a, b, x).value
        m_up = special.kummer_m(a + 1, b, x).value
        resid = (b - a) * m_dn + (2 * a - b + x) * m_md - a * m_up
        scale = max(abs(m_dn), abs(m_md), abs(m_up))
        assert abs(resid) <= 1e-8 * scale


def test_kummer_parameter_pole():
    for b in (0 + 0j, -2 + 0j):
        with pytest.raises(ParameterPole):
            special.kummer_m(1.0, b, 1.0)


def test_kummer_negative_domain():
    with pytest.raises(DomainError):
        special.kummer_m(1.0, 1.0, -0.5)


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_kummer_rejects_non_finite_x(x):
    # raised before the series runs, not as a ConvergenceError after 10000 terms
    with pytest.raises(DomainError):
        special.kummer_m(1.0, 1.0, x)


def test_kummer_cancellation_is_reported():
    # deep negative Re(a) with sizable x cancels; the estimate must own it
    res = special.kummer_m(-30.5 + 0j, 2.5 + 0j, 8.0)
    ref = mp_kummer(-30.5 + 0j, 2.5 + 0j, 8.0)
    assert abs(res.value - ref) <= max(3.0 * res.est_error * abs(ref), 1e-13 * abs(ref))


# ---------------------------------------------------------------------------
# Whittaker M of imaginary order
# ---------------------------------------------------------------------------


def test_whittaker_m_small_x_leading_behavior():
    kappa, mu, x = 1.0, 2.0, 1e-8
    val = special.whittaker_m_imag(kappa, mu, x).value
    lead = cmath.exp(complex(0.5, mu) * cmath.log(x))
    assert abs(val / lead - 1.0) <= 10.0 * x


def test_whittaker_m_frozen_value():
    # kappa=0, mu=1, x=0.5  [frozen from the 40-digit series oracle]
    ref = 0.544643797650347857752 - 0.4596186011989146727401j
    res = special.whittaker_m_imag(0.0, 1.0, 0.5)
    assert abs(res.value - ref) <= 1e-10 * abs(ref)


def test_whittaker_m_against_reference():
    rng = np.random.default_rng(17)
    for _ in range(20):
        kappa = float(rng.uniform(-20, 2))
        mu = float(rng.uniform(0.3, 4))
        x = float(10 ** rng.uniform(-6, 1.2))
        res = special.whittaker_m_imag(kappa, mu, x)
        ref = mp_whittaker_m(kappa, mu, x)
        assert abs(res.value - ref) <= max(1e-11 * abs(ref), 3 * res.est_error)


def test_whittaker_m_conjugation():
    kappa, mu, x = 2.0, 1.5, 0.3
    plus = special.whittaker_m_imag(kappa, mu, x).value
    minus = special.whittaker_m_imag(kappa, -mu, x).value
    assert minus == plus.conjugate()


def test_whittaker_m_rejects_bad_domain():
    with pytest.raises(DomainError):
        special.whittaker_m_imag(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        special.whittaker_m_imag(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        special.whittaker_m_imag(-3.0, 2.5, math.nan)


# ---------------------------------------------------------------------------
# Whittaker W of imaginary order
# ---------------------------------------------------------------------------


def test_whittaker_w_frozen_values():
    # [frozen, 40-digit oracle]
    cases = [
        (0.0, 1.0, 2.0, 0.2309301622065191812697, 1e-10),
        (-3.0, 2.5, 1e-3, -1.461732588113508579913e-5, 1e-10),
        # x = 25: connection route close to the switchover, ~e^x cancellation
        (0.0, 1.0, 25.0, 3.55139453535006561235e-6, 2e-5),
        # x = 40: large-x asymptotic route
        (0.0, 1.0, 40.0, 1.999213036750173271552e-9, 1e-9),
    ]
    for kappa, mu, x, ref, tol in cases:
        res = special.whittaker_w_scaled(kappa, mu, x)
        assert abs(res.value - ref) <= tol * abs(ref)
        assert abs(res.value - ref) <= max(3.0 * res.est_error, 1e-12 * abs(ref))


def test_whittaker_w_realness_residual_structure():
    res = special.whittaker_w_scaled(-3.0, 2.5, 1e-3)
    assert res.imag_residual <= 1e-8


def test_whittaker_w_realness_grid():
    rng = np.random.default_rng(23)
    count = 0
    while count < 100:
        kappa = float(rng.uniform(-40, 2))
        mu = float(rng.uniform(0.3, 6))
        x = float(10 ** rng.uniform(-6, 1.3))
        res = special.whittaker_w_scaled(kappa, mu, x)
        assert res.imag_residual <= 1e-8 * (1.0 + abs(res.mantissa))
        assert math.isfinite(res.mantissa) and math.isfinite(res.exponent)
        count += 1


def test_whittaker_w_scaled_matches_value():
    res = special.whittaker_w_scaled(-5.0, 1.5, 0.2)
    assert res.value == res.mantissa * math.exp(res.exponent)


def test_whittaker_w_scaled_deep_regime_against_reference():
    # beta ~ 1.4e5: the raw value is ~1e-617000, far below double range;
    # the scaled mantissa must still match the reference
    beta = 139000.0
    kappa, mu, x = 0.5 - beta, 2.5, 1e-5
    res = special.whittaker_w_scaled(kappa, mu, x)
    ref_m = mp_whittaker_w_mantissa(kappa, mu, x, res.exponent)
    assert res.value == 0.0  # underflow of the plain value is expected here
    assert abs(res.mantissa - ref_m) <= 1e-8 * max(abs(ref_m), 1e-3)


def test_whittaker_w_connection_vs_asymptotic_switchover():
    # both routes are valid near x = 30 for small kappa; they must agree
    lo = special.whittaker_w_scaled(0.0, 1.0, 29.5)
    hi = special.whittaker_w_scaled(0.0, 1.0, 30.5)
    ref_lo = mp_whittaker_w(0.0, 1.0, 29.5)
    ref_hi = mp_whittaker_w(0.0, 1.0, 30.5)
    assert abs(lo.value - ref_lo) <= max(3 * lo.est_error, 1e-8 * abs(ref_lo))
    assert abs(hi.value - ref_hi) <= max(3 * hi.est_error, 1e-8 * abs(ref_hi))


def test_whittaker_w_domain_errors():
    with pytest.raises(DomainError):
        special.whittaker_w_scaled(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        special.whittaker_w_scaled(0.0, 0.0, 1.0)
    # NaN once took the large-x route and came back with an error of 0
    for x in (math.nan, math.inf):
        with pytest.raises(DomainError):
            special.whittaker_w_scaled(-3.0, 2.5, x)


# ---------------------------------------------------------------------------
# Whittaker W over an array of x
# ---------------------------------------------------------------------------


def _scalar_outcome(kappa, mu, xs):
    """The scalar W at every x, or (type, message) of the first exception."""
    try:
        return [special.whittaker_w_scaled(kappa, mu, x) for x in xs]
    except Exception as exc:
        return type(exc), str(exc)


def _array_outcome(kappa, mu, xs):
    try:
        return special.whittaker_w_scaled_array(kappa, mu, np.array(xs))
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def w_samples(draw):
    """kappa, mu and ascending x in (0, LARGE_X_SWITCH] with |beta| x <= 2e3,
    so that every Kummer series stays within a few hundred terms."""
    mu = draw(st.floats(0.05, 8.0))
    beta = draw(st.one_of(st.floats(-5.0, 5.0), st.floats(-2.0, 6.0).map(lambda u: 10.0**u)))
    x_max = min(special.LARGE_X_SWITCH, 2e3 / max(abs(beta), 1.0))
    xs = draw(st.lists(st.floats(-8.0, 0.0).map(lambda v: x_max * 10.0**v),
                       min_size=1, max_size=16))
    return 0.5 - beta, mu, sorted(xs)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(w_samples())
def test_whittaker_w_array_bit_identical_property(case):
    kappa, mu, xs = case
    assert _array_outcome(kappa, mu, xs) == _scalar_outcome(kappa, mu, xs)


@pytest.mark.parametrize(
    "kappa,mu,xs,error",
    [
        (0.5 - 4e8, 3.5, [1e-3, 0.25, 0.3], ConvergenceError),  # Kummer term cap, 2nd sample
        # the modulus of a finite Kummer sum overflows at the second sample
        (-1.160238289845834e80, 3.6878550803485646, [1e-90, 0.017479403027643454, 0.0317],
         ConvergenceError),
        (-1e306, 1.0, [0.1, 31.0], ConvergenceError),  # log-Gamma overflows at the first sample
        (-1e306, 1.0, [31.0, 0.1], ConvergenceError),  # ... after the large-x series overflows
        (0.5 - 1.5e5, 2.5, [1e-3, 30.5, 0.1], ConvergenceError),  # large-x series diverges
        (0.5 - 1.5e5, 2.5, [30.5, 1e-3], ConvergenceError),  # ... before a connection sample
        (-3.0, 2.5, [0.1, math.nan, 0.2], DomainError),  # non-finite x after a good sample
        (-3.0, 2.5, [-1.0, 0.1], DomainError),
        (-3.0, 0.0, [0.1], DomainError),  # mu <= 0
    ],
    ids=["kummer_cap", "abs_overflow", "log_gamma", "large_x_before_log_gamma", "large_x",
         "large_x_first", "nan_x", "negative_x", "mu_zero"],
)
def test_whittaker_w_array_raises_the_first_scalar_error(kappa, mu, xs, error):
    expect = _scalar_outcome(kappa, mu, xs)
    assert isinstance(expect, tuple) and expect[0] is error
    assert _array_outcome(kappa, mu, xs) == expect


def test_whittaker_w_array_mixed_routes_and_order():
    # connection and large-x samples, unsorted, against the scalar calls
    xs = [29.9, 1e-6, 45.0, 30.0, 0.3, 31.0, 2.0]
    expect = _scalar_outcome(-2.0, 1.5, xs)
    assert len(expect) == len(xs)
    assert _array_outcome(-2.0, 1.5, xs) == expect
    assert special.whittaker_w_scaled_array(-2.0, 1.5, np.array([])) == []


def test_whittaker_w_array_rescaled_sums():
    # deep levels (beta ~ 1.5e5): both Kummer sums pass 1e250 and are rescaled,
    # once at x = 0.7 and up to seven times at x = 29.9, before they converge.
    # W's error estimate reads 0 here, so the sums' relative errors (which
    # carry the rescaled peak) are compared on the series themselves.
    kappa, mu, xs = 0.5 - 1.5e5, 2.5, [0.7, 5.0, 29.9]
    for m in (-mu, mu):
        a, b = complex(0.5 - kappa, m), complex(1.0, 2.0 * m)
        expect = [special._kummer_series_scaled(a, b, x)[:3] for x in xs]
        assert all(ln_scale > 0.0 for _, ln_scale, _ in expect)
        got = special._whittaker_series_array(kappa, m, np.array(xs))
        assert (got.ok, got.error) == (len(xs), None)
        assert list(zip(got.sums, got.ln_scale, got.est_rel)) == expect
    expect = _scalar_outcome(kappa, mu, xs)
    assert len(expect) == len(xs)
    assert _array_outcome(kappa, mu, xs) == expect


# ---------------------------------------------------------------------------
# Gamma asymptotics
# ---------------------------------------------------------------------------


def test_gamma_uniform_phase_is_mu_log_beta():
    beta, mu = 10.0, 1.0
    res = special.gamma_uniform_asymptotic(1.0, beta, complex(0.0, mu))
    assert res.log_value.imag == mu * math.log(beta)


def test_gamma_uniform_ratio_convergence():
    # value-relative error vs exact Gamma; [frozen oracle band] 0.068 at
    # beta=50, mu=2.5, and monotone nonincreasing along doubling beta
    def rel_err(beta, mu):
        asym = special.gamma_uniform_asymptotic(1.0, beta, complex(0.0, mu))
        exact = special.ln_gamma_complex(complex(beta, mu)).value
        return abs(cmath.exp(asym.log_value - exact) - 1.0)

    e50 = rel_err(50.0, 2.5)
    assert 0.05 < e50 < 0.09
    for mu in (2.5, 5.0):
        errs = [rel_err(b, mu) for b in (10.0, 20.0, 40.0, 80.0)]
        assert all(a >= b for a, b in zip(errs, errs[1:]))
    # the 1e-3 level is reached deep in the regime
    assert rel_err(4000.0, 2.5) <= 1e-3


def test_gamma_uniform_est_error_tracks_first_correction():
    beta, mu = 50.0, 2.5
    res = special.gamma_uniform_asymptotic(1.0, beta, complex(0.0, mu))
    exact = special.ln_gamma_complex(complex(beta, mu)).value
    true_err = abs(cmath.exp(res.log_value - exact) - 1.0) * abs(res.value)
    assert 0.3 * true_err <= res.est_error <= 3.0 * true_err


def test_gamma_uniform_domain_errors():
    with pytest.raises(DomainError):
        special.gamma_uniform_asymptotic(-1.0, 10.0, 0j)
    with pytest.raises(DomainError):
        special.gamma_uniform_asymptotic(1.0, 0.5, 0j)


# ---------------------------------------------------------------------------
# small-x cosine approximation of W
# ---------------------------------------------------------------------------


def _scaled_w_zeros(kappa: float, mu: float, x_lo: float, x_hi: float) -> list[float]:
    """Zeros of the full W (scaled mantissa) on a log-dense bracket grid."""
    n = 400
    xs = np.exp(np.linspace(math.log(x_lo), math.log(x_hi), n + 1))
    vals = [special.whittaker_w_scaled(kappa, mu, float(x)).mantissa for x in xs]
    roots = []
    for i in range(n):
        a, b = float(xs[i]), float(xs[i + 1])
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0:
            for _ in range(80):
                m = 0.5 * (a + b)
                fm = special.whittaker_w_scaled(kappa, mu, m).mantissa
                if fa * fm <= 0:
                    b, fb = m, fm
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
    return roots


def test_smallx_log_amplitude_formula():
    beta, mu = 100.0, 2.5
    approx = special.whittaker_w_smallx_approx(0.5 - beta, mu)
    direct = -mu * math.pi + beta - (beta - 0.5) * math.log(beta) - 0.5 * math.log(2 * mu)
    assert approx.log_amplitude == direct
    assert approx.phase_at_x1 == 2 * mu + mu * math.log(beta / (4 * mu * mu)) + math.pi / 4


def test_smallx_regime_gate():
    with pytest.raises(RegimeError):
        special.whittaker_w_smallx_approx(0.5 - 5.0, 2.5)
    approx = special.whittaker_w_smallx_approx(0.5 - 5.0, 2.5, allow_shallow=True)
    assert approx.beta == 5.0


def test_smallx_rejects_non_finite_x():
    approx = special.whittaker_w_smallx_approx(-50.0, 2.5)
    for x in (math.nan, math.inf):
        with pytest.raises(DomainError):
            approx.value(x)
    with pytest.raises(DomainError):
        approx.zeros_in(1e-7, math.inf)


def test_smallx_zeros_match_true_zeros():
    # beta = 200, mu = 2.5, window (0, 1e-3]: every matched zero within 2%
    beta, mu = 200.0, 2.5
    kappa = 0.5 - beta
    approx = special.whittaker_w_smallx_approx(kappa, mu)
    true_zeros = _scaled_w_zeros(kappa, mu, 1e-7, 1e-3)
    approx_zeros = approx.zeros_in(1e-7, 1e-3)
    assert len(true_zeros) == len(approx_zeros) == 7
    rels = [abs(a - t) / t for a, t in zip(approx_zeros, true_zeros)]
    assert max(rels) < 0.02


def test_smallx_approximation_error_decreases_with_beta():
    # sup |W - W_approx| / max|W| over x in [1e-7, 1e-5], evaluated on a
    # shared exponent scale; [frozen oracle] 0.0335 -> 0.0163 -> 0.0142
    def sup_err(beta: float) -> float:
        mu = 2.5
        kappa = 0.5 - beta
        approx = special.whittaker_w_smallx_approx(kappa, mu)
        xs = np.exp(np.linspace(math.log(1e-7), math.log(1e-5), 120))
        scaled = [special.whittaker_w_scaled(kappa, mu, float(x)) for x in xs]
        e_ref = max(w.exponent for w in scaled)
        w_true = np.array([w.mantissa * math.exp(w.exponent - e_ref) for w in scaled])
        w_app = []
        for x in xs:
            m, e = approx.scaled_value(float(x))
            w_app.append(m * math.exp(e - e_ref))
        w_app = np.array(w_app)
        return float(np.max(np.abs(w_true - w_app)) / np.max(np.abs(w_true)))

    errs = [sup_err(b) for b in (100.0, 200.0, 400.0)]
    assert errs[0] > errs[1] > errs[2]
    assert 0.025 < errs[0] < 0.045 and 0.012 < errs[1] < 0.022


def test_smallx_agreement_with_connection_route():
    # kappa = -50: pointwise ratio off by the first Stirling correction,
    # measured 6.5% [frozen oracle]; documented in place of the naive 1%
    w_exact = special.whittaker_w_scaled(-50.0, 2.5, 1e-5).value
    approx = special.whittaker_w_smallx_approx(-50.0, 2.5)
    assert abs(approx.value(1e-5) - w_exact) <= 0.10 * abs(w_exact)


def test_smallx_validity_bound_shape():
    approx = special.whittaker_w_smallx_approx(0.5 - 200.0, 2.5)
    assert 0.0 < approx.valid_below_x < 1.0
