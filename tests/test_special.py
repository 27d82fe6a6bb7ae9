"""Special-function tests: identities, frozen oracle values, live mpmath grids."""

from __future__ import annotations

import cmath
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dipolewell import special, spectrum
from dipolewell.errors import (
    ConvergenceError,
    DipoleWellError,
    DomainError,
    PoleError,
    RegimeError,
)
from dipolewell.model import PhysicalParams

from oracles import (
    mp_kummer,
    mp_lngamma,
    mp_whittaker_m,
    mp_whittaker_w,
    mp_whittaker_w_mantissa,
    reference_whittaker_m_log,
    reference_whittaker_w_connection,
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


def test_lngamma_bounds_the_recurrence(monkeypatch):
    # each step adds 1 to Re z, which past 2^53 no longer moves: refuse instead of looping
    for z in (-1e10 + 1j, -1e300 + 1e300j):
        with pytest.raises(DomainError, match="recurrence steps"):
            special.ln_gamma_complex(z)
    # the bound counts steps exactly, and an input inside it keeps its floats
    inside = special.ln_gamma_complex(-9.4 + 0.5j)
    monkeypatch.setattr(special, "LN_GAMMA_MAX_SHIFTS", 10)
    assert special.ln_gamma_complex(-9.4 + 0.5j) == inside  # 10 steps
    with pytest.raises(DomainError, match="recurrence steps"):
        special.ln_gamma_complex(-9.6 + 0.5j)  # 11 steps
    with pytest.raises(PoleError):  # a pole is still named as one
        special.ln_gamma_complex(-20 + 0j)


# ---------------------------------------------------------------------------
# Kummer series M(a; b; x), as W sums it
# ---------------------------------------------------------------------------


def _kummer(a: complex, b: complex, x: float) -> tuple[complex, float]:
    """M(a; b; x) = s * exp(ln_scale) of the series W sums, and its relative error."""
    s, ln_scale, est_rel = special._kummer_series_scaled(complex(a), complex(b), x)
    return s * math.exp(ln_scale), est_rel


def test_kummer_constant_term():
    for a, b in ((2.3 + 1j, 1.5 - 0.5j), (-4.0 + 0j, 0.25 + 0j)):
        assert _kummer(a, b, 0.0)[0] == 1.0 + 0j


def test_kummer_exponential_identities():
    # M(a, a, x) = e^x  and  M(1, 2, x) = (e^x - 1)/x
    assert abs(_kummer(1, 1, 1.0)[0] - math.e) < 1e-14
    assert abs(_kummer(1, 2, 1.0)[0] - (math.e - 1.0)) < 1e-14


def test_kummer_against_reference():
    rng = np.random.default_rng(11)
    for _ in range(40):
        a = complex(rng.uniform(0.3, 30), rng.uniform(-5, 5))
        b = complex(rng.uniform(0.5, 10), rng.uniform(-6, 6))
        x = float(rng.uniform(0, 30))
        value, _ = _kummer(a, b, x)
        ref = mp_kummer(a, b, x)
        assert abs(value - ref) <= 1e-10 * abs(ref)


def test_kummer_contiguous_relation():
    # (b - a) M(a-1) + (2a - b + x) M(a) - a M(a+1) = 0
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = complex(rng.uniform(0.5, 15), rng.uniform(-3, 3))
        b = complex(rng.uniform(0.7, 8), rng.uniform(-4, 4))
        x = float(rng.uniform(0.01, 10))
        m_dn = _kummer(a - 1, b, x)[0]
        m_md = _kummer(a, b, x)[0]
        m_up = _kummer(a + 1, b, x)[0]
        resid = (b - a) * m_dn + (2 * a - b + x) * m_md - a * m_up
        scale = max(abs(m_dn), abs(m_md), abs(m_up))
        assert abs(resid) <= 1e-8 * scale


def test_kummer_cancellation_is_reported():
    # deep negative Re(a) with sizable x cancels; the estimate must own it
    value, est_rel = _kummer(-30.5 + 0j, 2.5 + 0j, 8.0)
    ref = mp_kummer(-30.5 + 0j, 2.5 + 0j, 8.0)
    assert abs(value - ref) <= max(3.0 * est_rel * abs(ref), 1e-13 * abs(ref))


# ---------------------------------------------------------------------------
# Whittaker M of imaginary order: the reference's own M, from W's Kummer series
# ---------------------------------------------------------------------------


def _whittaker_m(kappa: float, mu_signed: float, x: float) -> tuple[complex, float]:
    """M_{kappa, i*mu_signed}(x) of the reference W and its error estimate."""
    log_m, est_rel = reference_whittaker_m_log(kappa, mu_signed, x)
    value = cmath.exp(log_m)
    return value, est_rel * abs(value)


def test_whittaker_m_small_x_leading_behavior():
    kappa, mu, x = 1.0, 2.0, 1e-8
    val, _ = _whittaker_m(kappa, mu, x)
    lead = cmath.exp(complex(0.5, mu) * cmath.log(x))
    assert abs(val / lead - 1.0) <= 10.0 * x


def test_whittaker_m_frozen_value():
    # kappa=0, mu=1, x=0.5  [frozen from the 40-digit series oracle]
    ref = 0.544643797650347857752 - 0.4596186011989146727401j
    value, _ = _whittaker_m(0.0, 1.0, 0.5)
    assert abs(value - ref) <= 1e-10 * abs(ref)


def test_whittaker_m_against_reference():
    rng = np.random.default_rng(17)
    for _ in range(20):
        kappa = float(rng.uniform(-20, 2))
        mu = float(rng.uniform(0.3, 4))
        x = float(10 ** rng.uniform(-6, 1.2))
        value, est = _whittaker_m(kappa, mu, x)
        ref = mp_whittaker_m(kappa, mu, x)
        assert abs(value - ref) <= max(1e-11 * abs(ref), 3 * est)


def test_whittaker_m_conjugation():
    # the +i mu term of W's connection formula is the conjugate of the -i mu term
    kappa, mu, x = 2.0, 1.5, 0.3
    plus, _ = _whittaker_m(kappa, mu, x)
    minus, _ = _whittaker_m(kappa, -mu, x)
    assert minus == plus.conjugate()


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
    # the two connection-formula terms sum to a real W
    _, residual = reference_whittaker_w_connection(-3.0, 2.5, 1e-3)
    assert residual <= 1e-8


def test_whittaker_w_realness_grid():
    rng = np.random.default_rng(23)
    count = 0
    while count < 100:
        kappa = float(rng.uniform(-40, 2))
        mu = float(rng.uniform(0.3, 6))
        x = float(10 ** rng.uniform(-6, 1.3))
        res = special.whittaker_w_scaled(kappa, mu, x)
        _, residual = reference_whittaker_w_connection(kappa, mu, x)
        assert residual <= 1e-8 * (1.0 + abs(res.mantissa))
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


def _w_outcome(w, kappa, mu, x):
    """w(kappa, mu, x), or (type, message) of the exception it raises."""
    try:
        return w(kappa, mu, x)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def w_points(draw):
    """kappa, mu and x in (0, LARGE_X_SWITCH] with |beta| x <= 2e3."""
    mu = draw(st.one_of(st.floats(0.05, 8.0), st.floats(-14.0, -2.0).map(lambda u: 10.0**u)))
    beta = draw(st.one_of(st.floats(-5.0, 5.0), st.floats(-2.0, 6.0).map(lambda u: 10.0**u)))
    x_max = min(special.LARGE_X_SWITCH, 2e3 / max(abs(beta), 1.0))
    x = draw(st.floats(-8.0, 0.0).map(lambda v: x_max * 10.0**v))
    return 0.5 - beta, mu, x


@settings(derandomize=True, max_examples=40, deadline=None)
@given(w_points())
@example((-3.0, 2.5, 1.0))  # log x = 0: the zero imaginary parts carry a sign
@example((0.5 - 1.5e5, 2.5, 0.7))  # Kummer sums rescaled by 1e-250 once ...
@example((0.5 - 1.5e5, 2.5, 5.0))
@example((0.5 - 1.5e5, 2.5, 29.9))  # ... and up to seven times
@example((-3.0, 1e-6, 0.1))  # tiny mu
@example((-3.0, 1e-13, 0.1))  # lnGamma(2 i mu) at its pole
@example((0.5, 1.0, 0.3))  # beta = 0
@example((3.5, 0.7, 2.0))  # beta = -3
@example((12.5, 1e-7, 1.0))  # beta = -12 with tiny mu, x = 1
@example((0.5 - 397350221.69136536, 3.5, 0.23194849733152514))  # the term cap
def test_whittaker_w_conjugate_half_matches_two_series_reference(case):
    # the +i mu half of W is the conjugate of the -i mu half, bit for bit
    kappa, mu, x = case
    got = _w_outcome(special.whittaker_w_scaled, kappa, mu, x)
    ref = _w_outcome(reference_whittaker_w_connection, kappa, mu, x)
    if isinstance(got, special.WhittakerW):
        w_ref, residual = ref
        assert got == w_ref
        assert residual == 0.0
    else:
        assert got == ref


def test_whittaker_w_computes_half_the_connection_formula(monkeypatch):
    # one scalar W: lnGamma(2 i mu), lnGamma(beta + i mu) and the -i mu series
    calls = {"ln_gamma": 0, "series": 0}
    ln_gamma, series = special.ln_gamma_complex, special._kummer_series_scaled

    def counting_ln_gamma(z):
        calls["ln_gamma"] += 1
        return ln_gamma(z)

    def counting_series(a, b, x):
        calls["series"] += 1
        return series(a, b, x)

    monkeypatch.setattr(special, "ln_gamma_complex", counting_ln_gamma)
    monkeypatch.setattr(special, "_kummer_series_scaled", counting_series)
    special.whittaker_w_scaled(-3.0, 2.5, 1e-3)
    assert calls == {"ln_gamma": 2, "series": 1}


def _prepared_w(kappa, mu, x):
    return special.whittaker_w_scaled(kappa, mu, x, point=special.w_point(mu))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(w_points())
@example((-3.0, 1e-13, 0.1))  # lnGamma(2 i mu) at its pole
@example((-3.0, 3e-13, 0.1))  # just off the pole
@example((0.5, 1.0, 0.3))  # beta = 0: lnGamma(beta + i mu) is finite, the kappa half
@example((-3.0, 2.5, 40.0))  # large-x route: the prepared point goes unused
@example((-3.0, 2.5, 0.0))  # x out of domain
@example((-3.0, -1.0, 0.1))  # mu out of domain
@example((0.5 - 1.5e5, 2.5, 29.9))
def test_whittaker_w_prepared_point_matches_plain_call(case):
    # the kappa-independent half computed once gives the same W, or the same error
    kappa, mu, x = case
    assert _w_outcome(_prepared_w, kappa, mu, x) == _w_outcome(
        special.whittaker_w_scaled, kappa, mu, x)


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
    """The bits (float.hex) of the scalar W's mantissa and exponent at every x,
    or (type, message) of the first exception."""
    try:
        ws = [special.whittaker_w_scaled(kappa, mu, x) for x in xs]
    except Exception as exc:
        return type(exc), str(exc)
    return [(w.mantissa.hex(), w.exponent.hex()) for w in ws]


def _array_outcome(kappa, mu, xs):
    try:
        mantissa, exponent = special.whittaker_w_scaled_array(kappa, mu, np.array(xs))
    except Exception as exc:
        return type(exc), str(exc)
    return [(m.hex(), e.hex()) for m, e in zip(mantissa.tolist(), exponent.tolist())]


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


DESCENDING = (DomainError, "whittaker_w_scaled_array requires ascending x")


@pytest.mark.parametrize(
    "kappa,mu,xs,error",
    [
        (0.5 - 4e8, 3.5, [1e-3, 0.25, 0.3], ConvergenceError),  # Kummer term cap, 2nd sample
        # the modulus of a finite Kummer sum overflows at the second sample
        (-1.160238289845834e80, 3.6878550803485646, [1e-90, 0.017479403027643454, 0.0317],
         ConvergenceError),
        # the first sample hits the term cap after the second one's modulus overflowed
        (-1.160238289845834e80, 3.6878550803485646, [1e-70, 0.017479403027643454],
         ConvergenceError),
        (-1e306, 1.0, [0.1, 31.0], ConvergenceError),  # log-Gamma overflows at the first sample
        # descending x is refused before any W, though the scalar loop would run
        (-1e306, 1.0, [31.0, 0.1], DESCENDING),
        (0.5 - 1.5e5, 2.5, [1e-3, 0.1, 30.5], ConvergenceError),  # large-x series diverges
        (0.5 - 1.5e5, 2.5, [1e-3, 30.5], ConvergenceError),  # ... after one connection sample
        (-3.0, 2.5, [0.1, math.nan, 0.2], DomainError),  # non-finite x after a good sample
        (-3.0, 2.5, [-1.0, 0.1], DomainError),
        (-3.0, 0.0, [0.1], DomainError),  # mu <= 0
        # a good-looking sample fails before a non-finite one is reached
        (0.5 - 4e8, 3.5, [0.25, math.nan], ConvergenceError),
        (-3.0, 0.0, [], None),  # no sample, so nothing to raise, whatever mu
    ],
    ids=["kummer_cap", "abs_overflow", "cap_before_overflow", "log_gamma", "descending_x",
         "large_x", "large_x_first", "nan_x", "negative_x", "mu_zero", "kummer_cap_before_nan",
         "mu_zero_no_x"],
)
def test_whittaker_w_array_raises_the_first_scalar_error(kappa, mu, xs, error):
    if error is DESCENDING:
        expect = DESCENDING
    else:
        expect = _scalar_outcome(kappa, mu, xs)
        if error is None:
            assert expect == []
        else:
            assert isinstance(expect, tuple) and expect[0] is error
    assert _array_outcome(kappa, mu, xs) == expect


def test_whittaker_w_array_mixed_routes_and_order():
    # connection and large-x samples, ascending, against the scalar calls
    xs = [1e-6, 0.3, 2.0, 29.9, 30.0, 31.0, 45.0]
    expect = _scalar_outcome(-2.0, 1.5, xs)
    assert len(expect) == len(xs)
    assert _array_outcome(-2.0, 1.5, xs) == expect
    mantissa, exponent = special.whittaker_w_scaled_array(-2.0, 1.5, np.array([]))
    assert mantissa.shape == exponent.shape == (0,)


@pytest.mark.parametrize("kappa,mu", [(1.3, 0.3), (-0.2, 0.7), (-3.0, 2.5), (0.5 - 1.5e5, 2.5)])
def test_whittaker_w_array_log1p_branch_of_log_x(kappa, mu):
    # cmath.log(x) takes its log1p branch for x in [0.71, 1.73], where numpy's
    # real log rounds differently, and at small |beta| the Kummer sums lie near
    # 1 too, where numpy's complex log does; the tail calls cmath.log per element
    xs = np.linspace(0.71, 1.73, 97).tolist()
    expect = _scalar_outcome(kappa, mu, xs)
    assert len(expect) == len(xs)
    assert _array_outcome(kappa, mu, xs) == expect


def _series_outcome(kappa, mu_signed, xs):
    """(real, imag) hex of the array series' sums at xs, or None."""
    sums = special._whittaker_series_array(kappa, mu_signed, np.array(xs))
    return None if sums is None else [(s.real.hex(), s.imag.hex()) for s in sums.tolist()]


def _scalar_series_outcome(kappa, mu_signed, xs):
    """(real, imag) hex of the scalar series' mantissas at xs, or None where
    the scalar series rescales some sum (its ln_scale is not 0)."""
    a, b = complex(0.5 - kappa, mu_signed), complex(1.0, 2.0 * mu_signed)
    series = [special._kummer_series_scaled(a, b, x) for x in xs]
    if any(ln_scale != 0.0 for _, ln_scale, _ in series):
        return None
    return [(s.real.hex(), s.imag.hex()) for s, _, _ in series]


@pytest.mark.parametrize("lam", [2.5, 7.0])
@pytest.mark.parametrize("x0", [1e-6, 1e-3])
def test_whittaker_series_array_sums_equal_the_scalar_series(lam, x0, monkeypatch):
    # the wavefunction profiles n = 1..3 at the ends of the profile workload's
    # Lambda and x0 ranges: the array sums are the scalar mantissas, both signs
    # of mu, with no scalar rescale anywhere
    seen = []
    series = special._whittaker_series_array

    def recording(kappa, m, x):
        seen.append((kappa, -m, x.tolist()))
        return series(kappa, m, x)

    monkeypatch.setattr(special, "_whittaker_series_array", recording)
    p = PhysicalParams(1.0, 0.5 * lam * lam, 1.0, x0 / 0.01, 0.1)
    for n in (1, 2, 3):
        spectrum.radial_wavefunction(p, spectrum.quantize_exact(p, n), None, 512)
    monkeypatch.undo()
    assert len(seen) == 3
    for kappa, mu, xs in seen:
        for m in (-mu, mu):
            expect = _scalar_series_outcome(kappa, m, xs)
            assert expect is not None and len(expect) == len(xs)
            assert _series_outcome(kappa, m, xs) == expect


@pytest.mark.parametrize("kappa,mu", [(1.3, 0.3), (-0.2, 0.7), (-3.0, 2.5), (0.5 - 1.5e5, 2.5)])
def test_whittaker_series_array_sums_in_the_log1p_band(kappa, mu):
    # the band where cmath.log(x) takes its log1p branch: the sums themselves
    # are pinned here, not only through cmath.log; at beta ~ 1.5e5 the scalar
    # series rescales and the array series gives up
    xs = np.linspace(0.71, 1.73, 97).tolist()
    for m in (-mu, mu):
        assert _series_outcome(kappa, m, xs) == _scalar_series_outcome(kappa, m, xs)
    assert (_scalar_series_outcome(kappa, mu, xs) is None) == (kappa < -1e4)


def test_whittaker_w_array_rescaled_sums():
    # deep levels (beta ~ 1.5e5): both Kummer sums pass 1e250 and are rescaled,
    # once at x = 0.7 and up to seven times at x = 29.9, before they converge.
    # The array series gives up there, and the scalar calls return every sample.
    kappa, mu, xs = 0.5 - 1.5e5, 2.5, [0.7, 5.0, 29.9]
    for m in (-mu, mu):
        a, b = complex(0.5 - kappa, m), complex(1.0, 2.0 * m)
        expect = [special._kummer_series_scaled(a, b, x) for x in xs]
        assert all(ln_scale > 0.0 for _, ln_scale, _ in expect)
        assert special._whittaker_series_array(kappa, m, np.array(xs)) is None
    expect = _scalar_outcome(kappa, mu, xs)
    assert len(expect) == len(xs)
    assert _array_outcome(kappa, mu, xs) == expect


@pytest.mark.parametrize(
    "xs",
    [
        [0.3, 30.0],  # LARGE_X_SWITCH itself takes the connection route
        [30.0, 30.0, 31.0],
        [0.2, 0.2, 0.2, 5.0, 5.0],  # repeated x
        [1e-6, 0.3, 2.0, 29.9],  # all samples in the prefix
        [0.7],  # a single sample
    ],
    ids=["switch_point", "switch_point_repeated", "repeated", "all_prefix", "single"],
)
def test_whittaker_w_array_split_boundaries(xs):
    expect = _scalar_outcome(-2.0, 1.5, xs)
    assert len(expect) == len(xs)
    assert _array_outcome(-2.0, 1.5, xs) == expect


def test_whittaker_w_array_scalar_fallback_values(monkeypatch):
    # where the array series gives up, the scalar calls return every sample
    xs = np.linspace(0.01, 45.0, 64).tolist()
    expect = _scalar_outcome(-2.0, 1.5, xs)
    assert len(expect) == len(xs)
    monkeypatch.setattr(special, "_whittaker_series_array", lambda kappa, m, x: None)
    assert _array_outcome(-2.0, 1.5, xs) == expect


def test_whittaker_w_array_all_large_x_needs_no_log_gamma(monkeypatch):
    xs = [30.5, 31.0, 31.0, 45.0]
    expect = _scalar_outcome(-2.0, 1.5, xs)
    assert len(expect) == len(xs)

    def no_ln_gamma(z):
        raise AssertionError("the large-x route needs no log-Gamma")

    monkeypatch.setattr(special, "ln_gamma_complex", no_ln_gamma)
    assert _array_outcome(-2.0, 1.5, xs) == expect


# ---------------------------------------------------------------------------
# the scalar kernel's bits, frozen
# ---------------------------------------------------------------------------

FROZEN_KERNEL = pathlib.Path(__file__).parent / "special_kernel_frozen.txt"


def _kernel_inputs() -> list[tuple[str, tuple[float, ...]]]:
    """(kind, real arguments) of every row of the frozen kernel table, from a
    seeded grid: exact-ladder's regime (beta 10..1e5, x 1e-8..1e-3, mu
    1.25..3.5, W with and without its prepared point), lnGamma's recurrence
    branch and poles, the series' 1e250 rescale, the large-x route and the
    series' errors (the term cap, a modulus past double range)."""
    rng = random.Random("special-kernel")
    rows = []
    for _ in range(40):
        beta = 10.0 ** rng.uniform(1.0, 5.0)
        x = 10.0 ** rng.uniform(-8.0, -3.0)
        mu = rng.uniform(1.25, 3.5)
        kappa = 0.5 - beta
        rows += [("lngamma", (0.0, 2.0 * mu)), ("lngamma", (0.5 - kappa, mu)),
                 ("series", (0.5 - kappa, -mu, 1.0, -2.0 * mu, x)),
                 ("w", (kappa, mu, x)), ("w_point", (kappa, mu, x))]
    for _ in range(24):
        rows.append(("lngamma", (rng.uniform(-40.0, 0.5), rng.uniform(-15.0, 15.0))))
    rows += [("lngamma", z) for z in ((-2.5, 0.0), (-3.0, 0.0), (0.0, 0.0), (-2.0e7, 1.0))]
    kappa = 0.5 - 1.5e5
    for x in (0.7, 5.0, 29.9):
        rows += [("series", (0.5 - kappa, -2.5, 1.0, -5.0, x)), ("w", (kappa, 2.5, x))]
    for _ in range(8):
        rows.append(("w", (rng.uniform(-4.0, 5.0), rng.uniform(1.25, 3.5),
                           rng.uniform(30.0, 200.0))))
    rows += [("w", (-50.0, 2.5, 29.9)), ("w", (-50.0, 2.5, 40.0)),
             ("series", (0.5, -1.0, 1.0, -2.0, math.nan)),
             ("series", (1.5e308, 1.5e308, 1.0, 0.0, 1.0))]
    return rows


def _kernel_key(kind: str, args: tuple[float, ...]) -> str:
    return " ".join([kind, *map(float.hex, args)])


def _kernel_outcome(kind: str, args: tuple[float, ...]) -> str:
    """float.hex of every returned field, or 'ErrorType: message'."""
    try:
        if kind == "lngamma":
            lg = special.ln_gamma_complex(complex(*args))
            fields = (lg.value.real, lg.value.imag, lg.est_error)
        elif kind == "series":
            s, ln_scale, est_rel = special._kummer_series_scaled(
                complex(*args[:2]), complex(*args[2:4]), args[4])
            fields = (s.real, s.imag, ln_scale, est_rel)
        else:
            kappa, mu, x = args
            point = special.w_point(mu) if kind == "w_point" else None
            fields = special.whittaker_w_scaled(kappa, mu, x, point=point)
    except DipoleWellError as exc:
        return f"{type(exc).__name__}: {exc}"
    return " ".join(map(float.hex, fields))


def test_special_kernel_frozen_table():
    # lnGamma, the Kummer series and W to the last bit, or the same error, on
    # the rows _kernel_inputs() lists
    rows = [ln.split(" | ") for ln in FROZEN_KERNEL.read_text().splitlines()
            if not ln.startswith("#")]
    assert [key for key, _ in rows] == [_kernel_key(*row) for row in _kernel_inputs()]
    for key, want in rows:
        kind, *args = key.split()
        assert _kernel_outcome(kind, tuple(map(float.fromhex, args))) == want, key


# ---------------------------------------------------------------------------
# Gamma asymptotics
# ---------------------------------------------------------------------------


def test_gamma_uniform_phase_is_mu_log_beta():
    beta, mu = 10.0, 1.0
    res = special.gamma_uniform_asymptotic(beta, complex(0.0, mu))
    assert res.imag == mu * math.log(beta)


def test_gamma_uniform_ratio_convergence():
    # value-relative error vs exact Gamma; [frozen oracle band] 0.068 at
    # beta=50, mu=2.5, and monotone nonincreasing along doubling beta
    def rel_err(beta, mu):
        asym = special.gamma_uniform_asymptotic(beta, complex(0.0, mu))
        exact = special.ln_gamma_complex(complex(beta, mu)).value
        return abs(cmath.exp(asym - exact) - 1.0)

    e50 = rel_err(50.0, 2.5)
    assert 0.05 < e50 < 0.09
    for mu in (2.5, 5.0):
        errs = [rel_err(b, mu) for b in (10.0, 20.0, 40.0, 80.0)]
        assert all(a >= b for a, b in zip(errs, errs[1:]))
    # the 1e-3 level is reached deep in the regime
    assert rel_err(4000.0, 2.5) <= 1e-3


def test_gamma_uniform_is_the_bare_form_in_log_space():
    # sqrt(2 pi) e^{-z} z^{z + b - 1/2} in log space, finite where Gamma
    # itself overflows doubles
    z, b = 4000.0, complex(0.0, 2.5)
    res = special.gamma_uniform_asymptotic(z, b)
    assert isinstance(res, complex)
    assert res == 0.5 * math.log(2.0 * math.pi) - z + (z + b - 0.5) * math.log(z)
    assert math.isfinite(res.real) and res.real > 709.0


def test_gamma_uniform_domain_errors():
    for z in (0.5, 0.0, -1.0, -10.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            special.gamma_uniform_asymptotic(z, 0j)
    assert special.gamma_uniform_asymptotic(1.0, 0j) == 0.5 * math.log(2.0 * math.pi) - 1.0


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
    assert special.whittaker_w_smallx_approx(0.5 - 10.0, 2.5).beta == 10.0


def test_smallx_rejects_non_finite_x():
    approx = special.whittaker_w_smallx_approx(-50.0, 2.5)
    for x in (math.nan, math.inf):
        with pytest.raises(DomainError):
            approx.value(x)
        with pytest.raises(DomainError):
            approx.est_error(x)
    with pytest.raises(DomainError):
        approx.zeros_in(1e-7, math.inf)


@pytest.mark.parametrize("kappa,mu", [(-1e300, 1e300), (-50.0, 1e155), (-50.0, 1e-200)])
def test_smallx_ratio_past_double_range(kappa, mu):
    # 4 mu^2 overflows (beta/(4 mu^2) rounds to 0) or underflows to 0
    with pytest.raises(DomainError, match="leaves double range"):
        special.whittaker_w_smallx_approx(kappa, mu)


@pytest.mark.parametrize("kappa,mu", [(-1e200, 1e10), (-10.0, 1e-150)])
def test_smallx_error_past_double_range(kappa, mu):
    # beta x overflows against an envelope of 0 (inf * 0), or the envelope itself
    approx = special.whittaker_w_smallx_approx(kappa, mu)
    with pytest.raises(ConvergenceError, match="error estimate overflows double range"):
        approx.est_error(1e300)
    assert math.isfinite(approx.est_error(1e-5))


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
