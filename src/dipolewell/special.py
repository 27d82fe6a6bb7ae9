"""Special functions of imaginary order used by the radial bound-state problem.

The bound-state machinery needs four ingredients:

* complex log-Gamma (Lanczos rational approximation),
* the Kummer confluent hypergeometric series M(a; b; x),
* Whittaker functions M_{k, i*mu}(x) and W_{k, i*mu}(x) of imaginary
  second index, the latter through the Gamma-weighted connection formula
  that combines M_{k, +i*mu} and M_{k, -i*mu},
* the large-argument approximation of Gamma and the resulting small-x
  cosine approximation of W with amplitude computed in log space.

W decays double-exponentially in the large-|kappa| regime (its magnitude
falls below the smallest double long before the physics stops caring), so
W is evaluated in *scaled* form ``mantissa * exp(exponent)``.  Sign changes
of the mantissa are the quantization condition; the plain value is the
product and may legitimately underflow to zero.

Every operation returns an estimated error next to its value so callers
can tell a true sign change from numerical noise.  All functions are pure;
there is no caching or shared state.

``whittaker_w_scaled_array`` evaluates W at one (kappa, mu) over an array
of x, as a wavefunction profile needs: the four log-Gammas once, and the
two Kummer series of all samples together on numpy arrays that replay
CPython's complex arithmetic operation by operation.  Its results equal
the scalar ``whittaker_w_scaled`` calls field for field (``==``), and it
raises the exception a loop over those calls would raise first.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AccuracyLoss,
    ConvergenceError,
    DipoleWellError,
    DomainError,
    ParameterPole,
    PoleError,
    RegimeError,
)

_TWO_EPS = 2.2e-16
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Lanczos rational approximation, g = 607/128 with 15 coefficients
# (Godfrey's set).  Certified against a 50-digit reference to <= 1e-13
# relative over |z| <= 50 away from poles; see the test suite.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

KUMMER_MAX_TERMS = 10_000
_LN_1E250 = 250.0 * math.log(10.0)  # a Kummer sum's scale step

# Beyond this x the connection formula loses ~exp(x) in cancellation while
# the divergent large-x series of W is already good; switch routes here.
LARGE_X_SWITCH = 30.0


def _require_finite(z: complex, what: str) -> complex:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ConvergenceError(f"{what} produced a non-finite value")
    return z


class GammaLn(NamedTuple):
    value: complex
    est_error: float


class KummerM(NamedTuple):
    value: complex
    est_error: float
    terms: int


class WhittakerM(NamedTuple):
    value: complex
    est_error: float


class WhittakerW(NamedTuple):
    """W_{kappa, i*mu}(x) = value = mantissa * exp(exponent).

    ``imag_residual`` is the conjugate-pair consistency residual
    |Im| / (1 + |Re|) of the two-term combination, measured on the
    mantissa scale.  ``est_error`` estimates the error of ``value``
    (it inherits the exp overflow/underflow of the value itself).
    """

    value: float
    est_error: float
    mantissa: float
    exponent: float
    imag_residual: float


class GammaAsym(NamedTuple):
    value: complex
    est_error: float
    log_value: complex


def ln_gamma_complex(z: complex) -> GammaLn:
    """Principal-branch log-Gamma for complex z.

    Uses the Lanczos approximation on Re(z) >= 1/2 and the exact recurrence
    lnGamma(z) = lnGamma(z+1) - Log(z) (principal logs, valid on the cut
    plane) to shift arguments with smaller real part.  exp(value) equals
    Gamma(z); accuracy is 13+ significant digits for |z| <= 50.

    Raises PoleError if z is within machine distance of 0, -1, -2, ...
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("ln_gamma_complex requires finite z")
    n = round(z.real)
    if n <= 0 and abs(z - n) < 1e-12 * max(1.0, abs(n)):
        raise PoleError(f"Gamma pole at z = {n}")

    shift = 0.0 + 0.0j
    shifts = 0
    w = z
    while w.real < 0.5:
        shift += cmath.log(w)
        w += 1.0
        shifts += 1

    wm = w - 1.0
    s = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[i] / (wm + i)
    t = wm + _LANCZOS_G + 0.5
    val = _HALF_LOG_2PI + (wm + 0.5) * cmath.log(t) - t + cmath.log(s) - shift
    est = 5e-15 * (1.0 + abs(val)) * (1.0 + 0.1 * shifts)
    return GammaLn(_require_finite(val, "ln_gamma_complex"), est)


def _kummer_series_scaled(
    a: complex, b: complex, x: float
) -> tuple[complex, float, float, int]:
    """Kahan-compensated Kummer series with power-of-ten rescaling.

    Returns (mantissa, ln_scale, est_rel_error, terms) with the series sum
    equal to mantissa * exp(ln_scale).  Rescaling keeps the running sum
    representable when the true sum exceeds double range.
    """
    nb = round(b.real)
    if nb <= 0 and abs(b - nb) < 1e-12 * max(1.0, abs(nb)):
        raise ParameterPole(f"Kummer parameter b = {b} at a non-positive integer")

    s = 1.0 + 0.0j
    comp = 0.0 + 0.0j
    t = 1.0 + 0.0j
    ln_scale = 0.0
    peak = 1.0
    small_streak = 0
    k = 0
    while k < KUMMER_MAX_TERMS:
        t = t * ((a + k) * x / ((b + k) * (k + 1.0)))
        y = t - comp
        snew = s + y
        comp = (snew - s) - y
        s = snew
        k += 1
        try:
            mag, tmag = abs(s), abs(t)
        except OverflowError:  # the modulus of a finite complex exceeds double range
            raise _kummer_overflow(a, b, x) from None
        peak = max(peak, mag, tmag)
        if tmag <= 1e-16 * max(mag, 1e-300):
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0
        if mag > 1e250 or tmag > 1e250:
            s *= 1e-250
            comp *= 1e-250
            t *= 1e-250
            peak *= 1e-250
            ln_scale += _LN_1E250
    else:
        raise _kummer_nonconvergence(a, b, x)
    est_rel = _TWO_EPS * (peak / max(abs(s), 1e-300)) + 4e-16
    return s, ln_scale, est_rel, k


def _kummer_nonconvergence(a: complex, b: complex, x: float) -> ConvergenceError:
    return ConvergenceError(
        f"Kummer series failed truncation test after {KUMMER_MAX_TERMS} terms "
        f"(a={a}, b={b}, x={x})"
    )


def _kummer_overflow(a: complex, b: complex, x: float) -> ConvergenceError:
    return ConvergenceError(f"Kummer series magnitude overflows (a={a}, b={b}, x={x})")


class _SeriesArray(NamedTuple):
    """Kummer sums of _whittaker_series_array; entries past ``ok`` are unset."""

    sums: list[complex]
    ln_scale: list[float]
    est_rel: list[float]
    ok: int  # samples before the first failure
    error: Exception | None  # what the scalar series raises at sample ``ok``


def _whittaker_series_array(kappa: float, mu_signed: float, x: np.ndarray) -> _SeriesArray:
    """_kummer_series_scaled of M_{kappa, i*mu_signed} at every x, bit for bit.

    a = 1/2 - kappa + i*mu_signed and b = 1 + 2i*mu_signed, which is never a
    pole.  Each sample runs the scalar loop's operations in the same order on
    float64 pairs: complex products as CPython's _Py_c_prod, the quotient as
    its _Py_c_quot (Smith's ratio/denom, dividing by denom; numpy's complex
    division rounds differently), a float promoted to complex(x, 0.0), and
    magnitudes as hypot.  A sample leaves the active set once it stops; on a
    failure the later samples are dropped, since only the first is raised.
    """
    n = len(x)
    a = complex(0.5 - kappa, mu_signed)
    b = complex(1.0, 2.0 * mu_signed)
    res = np.zeros((4, n))  # final sum (re, im), ln_scale and peak per sample
    live = np.arange(n)
    xs = x
    sr, si = np.ones(n), np.zeros(n)
    cr, ci = np.zeros(n), np.zeros(n)
    tr, ti = np.ones(n), np.zeros(n)
    ln_scale, peak = np.zeros(n), np.ones(n)
    streak = np.zeros(n, dtype=np.int64)
    ok, error = n, None
    k = 0
    with np.errstate(all="ignore"):
        while k < KUMMER_MAX_TERMS and len(live):
            ak = a + k
            bk = (b + k) * (k + 1.0)
            # (a + k) * x, then the quotient by (b + k) * (k + 1.0)
            nr = ak.real * xs - ak.imag * 0.0
            ni = ak.real * 0.0 + ak.imag * xs
            if abs(bk.real) >= abs(bk.imag):
                ratio = bk.imag / bk.real
                denom = bk.real + bk.imag * ratio
                qr = (nr + ni * ratio) / denom
                qi = (ni - nr * ratio) / denom
            else:
                ratio = bk.real / bk.imag
                denom = bk.real * ratio + bk.imag
                qr = (nr * ratio + ni) / denom
                qi = (ni * ratio - nr) / denom
            tr, ti = tr * qr - ti * qi, tr * qi + ti * qr
            yr, yi = tr - cr, ti - ci
            snr, sni = sr + yr, si + yi
            cr, ci = (snr - sr) - yr, (sni - si) - yi
            sr, si = snr, sni
            k += 1
            mag = np.hypot(sr, si)
            tmag = np.hypot(tr, ti)
            big = (mag > 1e250) | (tmag > 1e250)
            if big.any():
                # the scalar abs() of a finite complex overflows where hypot does
                over = (np.isinf(mag) & np.isfinite(sr) & np.isfinite(si)) | (
                    np.isinf(tmag) & np.isfinite(tr) & np.isfinite(ti)
                )
                if over.any():
                    j = int(np.argmax(over))
                    ok, error = int(live[j]), _kummer_overflow(a, b, float(xs[j]))
                    keep = slice(0, j)
                    live, xs, sr, si, cr, ci, tr, ti = (
                        v[keep] for v in (live, xs, sr, si, cr, ci, tr, ti))
                    ln_scale, peak, streak, mag, tmag, big = (
                        v[keep] for v in (ln_scale, peak, streak, mag, tmag, big))
            # peak is never NaN, so fmax keeps max(peak, mag, tmag)'s choice
            peak = np.fmax(np.fmax(peak, mag), tmag)
            small = tmag <= 1e-16 * np.maximum(mag, 1e-300)
            streak = np.where(small, streak + 1, 0)
            done = streak >= 2
            rescale = big & ~done
            if rescale.any():
                f = 1e-250
                sr, si = (np.where(rescale, sr * f - si * 0.0, sr),
                          np.where(rescale, sr * 0.0 + si * f, si))
                cr, ci = (np.where(rescale, cr * f - ci * 0.0, cr),
                          np.where(rescale, cr * 0.0 + ci * f, ci))
                tr, ti = (np.where(rescale, tr * f - ti * 0.0, tr),
                          np.where(rescale, tr * 0.0 + ti * f, ti))
                peak = np.where(rescale, peak * f, peak)
                ln_scale = np.where(rescale, ln_scale + _LN_1E250, ln_scale)
            if done.any():
                res[:, live[done]] = sr[done], si[done], ln_scale[done], peak[done]
                keep = ~done
                live, xs, sr, si, cr, ci, tr, ti = (
                    v[keep] for v in (live, xs, sr, si, cr, ci, tr, ti))
                ln_scale, peak, streak = (v[keep] for v in (ln_scale, peak, streak))
        if len(live):
            ok, error = int(live[0]), _kummer_nonconvergence(a, b, float(xs[0]))
        sums = np.empty(n, dtype=complex)
        sums.real, sums.imag = res[0], res[1]
        est_rel = _TWO_EPS * (res[3] / np.maximum(np.hypot(res[0], res[1]), 1e-300)) + 4e-16
    return _SeriesArray(sums.tolist(), res[2].tolist(), est_rel.tolist(), ok, error)


def kummer_m(a: complex, b: complex, x: float) -> KummerM:
    """Confluent hypergeometric M(a; b; x) = sum_k (a)_k/(b)_k x^k/k!.

    Direct compensated summation for x >= 0.  When Re(a) < 0 the terms
    alternate and the direct sum can cancel badly; in that case the Kummer
    transform M(a,b,x) = e^x M(b-a, b, -x) is also summed and whichever
    route reports the smaller cancellation estimate wins.  The returned
    ``est_error`` is a *relative* bound; severe cancellation is not hidden,
    it is reported.
    """
    if not 0.0 <= x < math.inf:
        raise DomainError("kummer_m requires finite x >= 0")
    a = complex(a)
    b = complex(b)
    s, ln_scale, est, terms = _kummer_series_scaled(a, b, x)
    if a.real < 0.0 and x > 1.0 and est > 1e-12:
        s2, ln2, est2, terms2 = _kummer_series_scaled(b - a, b, -x)
        if est2 < est:
            s, ln_scale, est, terms = s2, ln2 + x, est2, terms2
    value = s * cmath.exp(ln_scale)
    return KummerM(_require_finite(value, "kummer_m"), est, terms)


def _whittaker_m_log(kappa: float, mu_signed: float, x: float) -> tuple[complex, float]:
    """log of M_{kappa, i*mu_signed}(x) (any branch) and its relative error."""
    a = complex(0.5 - kappa, mu_signed)
    b = complex(1.0, 2.0 * mu_signed)
    s, ln_scale, est, _ = _kummer_series_scaled(a, b, x)
    return _m_log_from_sum(mu_signed, x, s, ln_scale), est


def _m_log_from_sum(mu_signed: float, x: float, s: complex, ln_scale: float) -> complex:
    """log M_{kappa, i*mu_signed}(x) from its Kummer sum s * exp(ln_scale)."""
    return (
        complex(-0.5 * x, 0.0)
        + complex(0.5, mu_signed) * cmath.log(x)
        + ln_scale
        + cmath.log(s)
    )


def whittaker_m_imag(kappa: float, mu: float, x: float) -> WhittakerM:
    """Whittaker M of imaginary order:

        M_{kappa, i*mu}(x) = e^{-x/2} x^{1/2 + i*mu} M(1/2 + i*mu - kappa, 1 + 2*i*mu, x)

    For x -> 0 the value divided by x^{1/2 + i*mu} tends to 1.  Either sign
    of mu is accepted; the two signs give complex-conjugate values.
    """
    if not 0.0 < x < math.inf:
        raise DomainError("whittaker_m_imag requires finite x > 0")
    if mu == 0:
        raise DomainError("whittaker_m_imag requires mu != 0")
    log_val, est_rel = _whittaker_m_log(kappa, mu, x)
    value = cmath.exp(log_val)
    return WhittakerM(_require_finite(value, "whittaker_m_imag"), est_rel * abs(value))


def _whittaker_w_connection(kappa: float, mu: float, x: float) -> WhittakerW:
    """Connection-formula route, exact for all x > 0 but cancellation-limited
    for large x:

        W = Gamma(2 i mu)/Gamma(1/2 - kappa + i mu) * M_{kappa,-i mu}
          + Gamma(-2 i mu)/Gamma(1/2 - kappa - i mu) * M_{kappa,+i mu}

    Both terms are computed in log form and recombined on a shared exponent;
    they are complex conjugates, so the result is real up to rounding.
    """
    gammas = _connection_gammas(kappa, mu)
    lm_minus, em1 = _whittaker_m_log(kappa, -mu, x)
    lm_plus, em2 = _whittaker_m_log(kappa, mu, x)
    return _connection_combine(kappa, mu, x, gammas, lm_minus, em1, lm_plus, em2)


def _connection_gammas(kappa: float, mu: float) -> tuple[complex, complex, float]:
    """The x-independent part of the connection formula: the log Gamma
    ratios of the M_{-i mu} and M_{+i mu} terms and their summed errors."""
    beta = 0.5 - kappa
    lg_plus, eg1 = ln_gamma_complex(complex(0.0, 2.0 * mu))
    lg_minus, eg2 = ln_gamma_complex(complex(0.0, -2.0 * mu))
    lg_bp, eg3 = ln_gamma_complex(complex(beta, mu))
    lg_bm, eg4 = ln_gamma_complex(complex(beta, -mu))
    return lg_plus - lg_bp, lg_minus - lg_bm, eg1 + eg2 + eg3 + eg4


def _connection_combine(
    kappa: float,
    mu: float,
    x: float,
    gammas: tuple[complex, complex, float],
    lm_minus: complex,
    em1: float,
    lm_plus: complex,
    em2: float,
) -> WhittakerW:
    """Recombine the two connection-formula terms from log M_{-+ i mu}(x)."""
    lr_minus, lr_plus, eg = gammas
    log_t1 = lr_minus + lm_minus
    log_t2 = lr_plus + lm_plus
    exponent = max(log_t1.real, log_t2.real)
    mc = cmath.exp(log_t1 - exponent) + cmath.exp(log_t2 - exponent)

    mantissa = mc.real
    residual = abs(mc.imag) / (1.0 + abs(mc.real))
    if residual > 1e-8:
        raise AccuracyLoss(
            f"conjugate-pair realness residual {residual:.2e} at "
            f"kappa={kappa}, mu={mu}, x={x}"
        )

    # phase noise of the log pipeline maps onto the mantissa; the |T|/|W|
    # cancellation of the connection formula enters through 1/|mantissa|
    phase_noise = _TWO_EPS * (abs(log_t1) + abs(log_t2)) + 2.0 * (em1 + em2)
    mantissa_err = 2.0 * phase_noise + 4.0 * _TWO_EPS
    value = mantissa * math.exp(exponent) if exponent < 709.0 else math.inf * mantissa
    est = mantissa_err * math.exp(min(exponent, 709.0))
    est += eg * abs(value)
    return WhittakerW(value, est, mantissa, exponent, residual)


def _whittaker_w_asymptotic(kappa: float, mu: float, x: float) -> WhittakerW:
    """Large-x route: divergent asymptotic series truncated at smallest term.

        W ~ e^{-x/2} x^kappa sum_s (-1)^s prod_{j<s}[(beta+j)^2 + mu^2] / (s! x^s)
    """
    beta = 0.5 - kappa
    term = 1.0
    total = 1.0
    abssum = 1.0
    smallest = 1.0
    s = 0
    while s < 400:
        try:
            nxt = -term * ((beta + s) ** 2 + mu * mu) / ((s + 1.0) * x)
        except OverflowError:  # |beta| past 1e154: the terms grow from the first
            break
        if abs(nxt) >= abs(term):
            break
        term = nxt
        total += term
        abssum += abs(term)
        smallest = abs(term)
        s += 1
        if abs(term) < 1e-17 * abs(total):
            break
    est_rel = smallest / max(abs(total), 1e-300) + _TWO_EPS * abssum / max(abs(total), 1e-300)
    if est_rel > 0.3:
        raise ConvergenceError(
            f"large-x asymptotic series for W does not converge at "
            f"kappa={kappa}, mu={mu}, x={x} (est rel error {est_rel:.2e})"
        )
    exponent = -0.5 * x + kappa * math.log(x)
    value = total * math.exp(exponent) if exponent < 709.0 else math.inf * total
    return WhittakerW(value, est_rel * abs(value), total, exponent, 0.0)


def whittaker_w_scaled(kappa: float, mu: float, x: float) -> WhittakerW:
    """W_{kappa, i*mu}(x) in scaled form (see WhittakerW).

    Chooses the connection-formula route for x <= LARGE_X_SWITCH and the
    truncated asymptotic series beyond it.  The scaled form is the one to
    use for root finding: zeros of W are sign changes of the mantissa.  The
    plain value underflows to 0.0 (or overflows) when the exponent leaves
    double range; the scaled fields stay valid.
    """
    if not 0.0 < x < math.inf:
        raise DomainError("whittaker_w requires finite x > 0")
    if mu <= 0:
        raise DomainError("whittaker_w requires mu > 0")
    if x <= LARGE_X_SWITCH:
        return _whittaker_w_connection(kappa, mu, x)
    return _whittaker_w_asymptotic(kappa, mu, x)


def whittaker_w_scaled_array(kappa: float, mu: float, x) -> list[WhittakerW]:
    """whittaker_w_scaled(kappa, mu, xi) for every xi of the array x, in one pass.

    The result equals the scalar calls field for field, and the exception
    raised is the one the scalar loop over x would raise first, with the
    same type and message.  The four log-Gammas are computed once and the
    two Kummer series run over all x <= LARGE_X_SWITCH together as float64
    arrays (see _whittaker_series_array); the log recombination and the
    large-x route stay per sample.  Profiles pass x ascending, but any order
    works.  Root finding (one x, many kappa) keeps the scalar function.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n == 0:
        return []
    bad = ~((x > 0.0) & (x < math.inf))
    limit, pending = n, None  # samples before the first failure, and its exception
    if bad.any():
        limit = int(np.argmax(bad))
        pending = DomainError("whittaker_w requires finite x > 0")
        if limit == 0:
            raise pending
    if mu <= 0:
        raise DomainError("whittaker_w requires mu > 0")

    conn = np.flatnonzero(x[:limit] <= LARGE_X_SWITCH)
    if len(conn):
        try:
            gammas = _connection_gammas(kappa, mu)
        except DipoleWellError as exc:  # raised at the first connection-route sample
            limit, pending, conn = int(conn[0]), exc, conn[:0]
    if len(conn):
        minus = _whittaker_series_array(kappa, -mu, x[conn])
        if minus.ok < len(conn):
            limit, pending, conn = int(conn[minus.ok]), minus.error, conn[: minus.ok]
        plus = _whittaker_series_array(kappa, mu, x[conn])
        if plus.ok < len(conn):
            limit, pending = int(conn[plus.ok]), plus.error

    out = []
    p = 0  # position in conn of the next connection-route sample
    for xi in x[:limit].tolist():
        if xi <= LARGE_X_SWITCH:
            lm_minus = _m_log_from_sum(-mu, xi, minus.sums[p], minus.ln_scale[p])
            lm_plus = _m_log_from_sum(mu, xi, plus.sums[p], plus.ln_scale[p])
            out.append(_connection_combine(
                kappa, mu, xi, gammas, lm_minus, minus.est_rel[p], lm_plus, plus.est_rel[p]))
            p += 1
        else:
            out.append(_whittaker_w_asymptotic(kappa, mu, xi))
    if pending is not None:
        raise pending
    return out


def gamma_uniform_asymptotic(a: float, zeta: float, b: complex) -> GammaAsym:
    """Large-argument approximation

        Gamma(a*zeta + b) ~ sqrt(2*pi) e^{-a*zeta} (a*zeta)^{a*zeta + b - 1/2}

    for fixed a > 0, complex b, and large |zeta| (restricted here to real
    positive a*zeta; the power uses the principal branch).  ``est_error``
    is the magnitude of the first neglected correction, |(6b^2-6b+1)| /
    (12 a zeta) relative to the value.  For a*zeta beyond ~170 the value
    overflows doubles (like Gamma itself); ``log_value`` stays finite and
    is the field to compare against log-Gamma in that range.
    """
    if a <= 0:
        raise DomainError("gamma_uniform_asymptotic requires a > 0")
    if abs(zeta) < 1.0:
        raise DomainError("gamma_uniform_asymptotic requires |zeta| >= 1")
    az = a * zeta
    if az <= 0:
        raise DomainError("gamma_uniform_asymptotic requires a*zeta > 0")
    b = complex(b)
    log_value = _HALF_LOG_2PI - az + (az + b - 0.5) * math.log(az)
    corr = abs(6.0 * b * b - 6.0 * b + 1.0) / (12.0 * az)
    value = cmath.exp(log_value) if log_value.real < 709.0 else complex(math.inf, 0.0)
    return GammaAsym(value, corr * abs(value), log_value)


@dataclass(frozen=True)
class SmallXApprox:
    """Small-x cosine approximation of W_{kappa, i*mu}:

        W(x) ~ 2 A sqrt(x) cos(phase_at_x1 + mu*ln(x))

    with phase_at_x1 = 2*mu + mu*ln(beta/(4*mu^2)) + pi/4 and amplitude

        A = e^{beta - mu*pi} / (sqrt(2*mu) beta^{beta - 1/2})

    held as log_amplitude because e^beta overflows for beta > ~709 and A
    itself underflows once log_amplitude < ~-745.  valid_below_x is the
    heuristic x below which the neglected first series correction stays
    under ~5%.
    """

    log_amplitude: float
    phase_at_x1: float
    valid_below_x: float
    beta: float
    mu: float

    def phase(self, x: float) -> float:
        return self.phase_at_x1 + self.mu * math.log(x)

    def value(self, x: float) -> float:
        m, e = self.scaled_value(x)
        return m * math.exp(e)

    def scaled_value(self, x: float) -> tuple[float, float]:
        """(mantissa, exponent) with W_approx = mantissa * exp(exponent)."""
        if not 0.0 < x < math.inf:
            raise DomainError("scaled_value requires finite x > 0")
        return 2.0 * math.cos(self.phase(x)), self.log_amplitude + 0.5 * math.log(x)

    def zeros_in(self, x_lo: float, x_hi: float) -> list[float]:
        """Zeros of the cosine form inside [x_lo, x_hi], ascending."""
        if not 0.0 < x_lo < x_hi < math.inf:
            raise DomainError("zeros_in requires 0 < x_lo < x_hi < inf")
        out = []
        j_lo = math.floor((self.phase(x_lo) - 0.5 * math.pi) / math.pi) - 1
        j_hi = math.ceil((self.phase(x_hi) - 0.5 * math.pi) / math.pi) + 1
        for j in range(int(j_lo), int(j_hi) + 1):
            x = math.exp(((0.5 + j) * math.pi - self.phase_at_x1) / self.mu)
            if x_lo <= x <= x_hi:
                out.append(x)
        return sorted(out)


def whittaker_w_smallx_approx(
    kappa: float, mu: float, *, allow_shallow: bool = False
) -> SmallXApprox:
    """Construct the small-x cosine approximation of W_{kappa, i*mu}.

    Requires beta = 1/2 - kappa >= 10 (the large-beta regime); pass
    allow_shallow=True to override and accept reduced accuracy.
    """
    if mu <= 0:
        raise DomainError("whittaker_w_smallx_approx requires mu > 0")
    beta = 0.5 - kappa
    if beta <= 0:
        raise DomainError("whittaker_w_smallx_approx requires beta = 1/2 - kappa > 0")
    if beta < 10.0 and not allow_shallow:
        raise RegimeError(
            f"beta = {beta:.3g} < 10: cosine approximation unreliable "
            "(pass allow_shallow=True to force)"
        )
    log_amplitude = (
        -mu * math.pi
        + beta
        - (beta - 0.5) * math.log(beta)
        - 0.5 * math.log(2.0 * mu)
    )
    phase_at_x1 = 2.0 * mu + mu * math.log(beta / (4.0 * mu * mu)) + 0.25 * math.pi
    valid = min(0.9, 0.05 * math.hypot(1.0, 2.0 * mu) / beta)
    return SmallXApprox(log_amplitude, phase_at_x1, valid, beta, mu)
