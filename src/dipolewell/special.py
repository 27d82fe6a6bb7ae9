"""Special functions of imaginary order used by the radial bound-state problem.

The bound-state machinery needs three ingredients:

* complex log-Gamma (Lanczos rational approximation),
* the Whittaker function W_{k, i*mu}(x) of imaginary second index, through
  the Gamma-weighted connection formula that adds a term in M_{k, -i*mu}
  (a Kummer confluent hypergeometric series M(a; b; x)) to its complex
  conjugate,
* the large-argument approximation of log-Gamma and the resulting small-x
  cosine approximation of W with amplitude computed in log space.

W decays double-exponentially in the large-|kappa| regime (its magnitude
falls below the smallest double long before the physics stops caring), so
W is evaluated in *scaled* form ``mantissa * exp(exponent)``.  Sign changes
of the mantissa are the quantization condition; the plain value is the
product and may legitimately underflow to zero.

Every scalar operation returns an estimated error next to its value so
callers can tell a true sign change from numerical noise.  All functions are
pure; there is no caching or shared state.

W computes only the -i*mu term of the connection formula and doubles its
real part (_connection_w); ``w_point`` shares its lnGamma(2 i mu) across a
root search.  ``whittaker_w_scaled_array`` evaluates a wavefunction profile
with the scalar W's bits: its array Kummer series (_kummer_series_array)
replays on the float parts the two operations numpy rounds unlike CPython
(each term's quotient and product), and retires samples in ascending order
or gives the whole profile to the scalar W.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
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
_LANCZOS_TERMS = tuple(enumerate(_LANCZOS_C))[1:]  # (i, c_i) for i >= 1

KUMMER_MAX_TERMS = 10_000
# ln_gamma_complex shifts Re z up by one per step of its recurrence; past this
# many steps it refuses (and past 2^53 a step would not move Re z at all)
LN_GAMMA_MAX_SHIFTS = 10_000_000
_LN_1E250 = 250.0 * math.log(10.0)  # a Kummer sum's scale step

# Beyond this x the connection formula loses ~exp(x) in cancellation while
# the divergent large-x series of W is already good; switch routes here.
LARGE_X_SWITCH = 30.0


class GammaLn(NamedTuple):
    value: complex
    est_error: float


class WhittakerW(NamedTuple):
    """W_{kappa, i*mu}(x) = value = mantissa * exp(exponent).

    ``est_error`` estimates the error of ``value`` (it inherits the exp
    overflow/underflow of the value itself).
    """

    value: float
    est_error: float
    mantissa: float
    exponent: float

    def finite(self, kappa: float, mu: float, x: float) -> tuple[float, float]:
        """(value, est_error); ConvergenceError where either left double range."""
        if not (math.isfinite(self.value) and math.isfinite(self.est_error)):
            raise ConvergenceError(
                f"whittaker_w overflows double range (kappa={kappa}, mu={mu}, x={x})")
        return self.value, self.est_error


def ln_gamma_complex(z: complex) -> GammaLn:
    """Principal-branch log-Gamma for complex z.

    Uses the Lanczos approximation on Re(z) >= 1/2 and the exact recurrence
    lnGamma(z) = lnGamma(z+1) - Log(z) (principal logs, valid on the cut
    plane) to shift arguments with smaller real part.  exp(value) equals
    Gamma(z); accuracy is 13+ significant digits for |z| <= 50.

    Raises PoleError if z is within machine distance of 0, -1, -2, ..., and
    DomainError if the recurrence would take more than LN_GAMMA_MAX_SHIFTS steps.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("ln_gamma_complex requires finite z")
    n = round(z.real)
    if n <= 0 and abs(z - n) < 1e-12 * max(1.0, abs(n)):
        raise PoleError(f"Gamma pole at z = {n}")
    if 0.5 - z.real > LN_GAMMA_MAX_SHIFTS:
        raise DomainError(
            f"ln_gamma_complex: Re z = {z.real} needs more than {LN_GAMMA_MAX_SHIFTS} "
            "recurrence steps")

    shift = 0.0 + 0.0j
    shifts = 0
    w = z
    while w.real < 0.5:
        shift += cmath.log(w)
        w += 1.0
        shifts += 1

    wm = w - 1.0
    s = _LANCZOS_C[0]
    for i, c in _LANCZOS_TERMS:
        s += c / (wm + i)
    t = wm + _LANCZOS_G + 0.5
    val = _HALF_LOG_2PI + (wm + 0.5) * cmath.log(t) - t + cmath.log(s) - shift
    est = 5e-15 * (1.0 + abs(val)) * (1.0 + 0.1 * shifts)
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise ConvergenceError("ln_gamma_complex produced a non-finite value")
    return GammaLn(val, est)


def _kummer_series_scaled(
    a: complex, b: complex, x: float
) -> tuple[complex, float, float]:
    """Kahan-compensated Kummer series M(a; b; x) with power-of-ten rescaling.

    Returns (mantissa, ln_scale, est_rel_error) with the series sum
    equal to mantissa * exp(ln_scale).  Rescaling keeps the running sum
    representable when the true sum exceeds double range.  W's est_error
    comes from est_rel_error, and its b = 1 - 2i mu (mu > 0) is never a pole.
    """
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
            raise ConvergenceError(
                f"Kummer series magnitude overflows (a={a}, b={b}, x={x})") from None
        # peak and the floor as max() keeps them, NaN too: a later value
        # replaces an earlier one only if it compares greater
        if mag > peak:
            peak = mag
        if tmag > peak:
            peak = tmag
        if tmag <= 1e-16 * (1e-300 if 1e-300 > mag else mag):
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
        raise ConvergenceError(
            f"Kummer series failed truncation test after {KUMMER_MAX_TERMS} terms "
            f"(a={a}, b={b}, x={x})"
        )
    est_rel = _TWO_EPS * (peak / max(abs(s), 1e-300)) + 4e-16
    return s, ln_scale, est_rel


def _kummer_series_array(a: complex, b: complex, x: np.ndarray) -> np.ndarray | None:
    """The sums of _kummer_series_scaled(a, b, xi) at every xi of x, bit for
    bit, as a complex array, or None.

    The scalar loop's operations run in the same order on complex arrays s,
    comp and t, since numpy's complex + and - round each part as CPython's
    do.  numpy's complex / and * do not, so each term's quotient is replayed
    on the parts as CPython's _Py_c_quot (Smith's ratio/denom) and its
    product as _Py_c_prod; (a + k) * x is taken part by part, which for
    x > 0 changes only the sign of a zero part that no sum reaches.
    Magnitudes are hypot of the parts, as CPython's abs is.  A sample
    finishes, with its sum recorded, at the term where the scalar loop
    stops.  Small x converge first, so on ascending x the finished samples
    lead the live set and leave it by slicing.  None, and the caller takes
    every sample from the scalar loop, when a later x finishes while an
    earlier one is live, when a live term or partial sum passes 1e250
    (where the scalar loop may rescale or raise, and W = T + conj(T) is
    cancellation noise), or when a sample is still live after
    KUMMER_MAX_TERMS terms.
    """
    n = len(x)
    sums = np.empty(n, dtype=complex)
    head, xs = 0, x  # sums[:head] are recorded, xs = x[head:] are live
    s, comp, t = np.ones(n, complex), np.zeros(n, complex), np.ones(n, complex)
    prev = np.zeros(n, dtype=bool)  # the previous term was small
    k = 0
    with np.errstate(all="ignore"):
        while k < KUMMER_MAX_TERMS and head < n:
            ak = a + k
            bk = (b + k) * (k + 1.0)
            # (a + k) * x, then the quotient by (b + k) * (k + 1.0)
            nr, ni = ak.real * xs, ak.imag * xs
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
            tq = np.empty_like(t)
            tq.real = t.real * qr - t.imag * qi
            tq.imag = t.real * qi + t.imag * qr
            t = tq
            y = t - comp
            snew = s + y
            comp = (snew - s) - y
            s = snew
            k += 1
            mag, tmag = np.hypot(s.real, s.imag), np.hypot(t.real, t.imag)
            # fmax skips one NaN: mag or tmag past 1e250, where the scalar may rescale or raise
            if np.count_nonzero(np.fmax(mag, tmag) > 1e250):
                return None
            small = tmag <= 1e-16 * np.maximum(mag, 1e-300)
            done = small & prev
            prev = small
            nd = np.count_nonzero(done)
            if nd:
                if not done[:nd].all():  # a later x finished while an earlier one is live
                    return None
                sums[head:head + nd] = s[:nd]
                head += nd
                xs, s, comp, t, prev = (v[nd:] for v in (xs, s, comp, t, prev))
    return None if head < n else sums


def w_point(mu: float) -> GammaLn:
    """lnGamma(2 i mu), the kappa- and x-independent half of the connection
    formula, which whittaker_w_scaled(kappa, mu, x, point=...) shares across
    kappa and x."""
    return ln_gamma_complex(complex(0.0, 2.0 * mu))


def _connection_gammas(point: GammaLn, kappa: float, mu: float) -> tuple[complex, float]:
    """The x-independent part of the connection formula: the log Gamma ratio
    of the M_{kappa,-i mu} term and the summed error of both terms' ratios
    (the +i mu ratio is its conjugate, so each error counts twice)."""
    lg, eg = point
    lg_bp, eg3 = ln_gamma_complex(complex(0.5 - kappa, mu))
    return lg - lg_bp, eg + eg + eg3 + eg3


def _connection_w(
    gammas: tuple[complex, float], mu: float, x: float, s: complex, ln_scale: float, em: float
) -> WhittakerW:
    """Connection-formula W from the Kummer sum s * exp(ln_scale) of
    M_{kappa,-i mu}(x) and its relative error em; exact for all x > 0 but
    cancellation-limited for large x:

        W = T + conj(T),  T = Gamma(2 i mu)/Gamma(1/2 - kappa + i mu) * M_{kappa,-i mu}

    so with log T = exponent + i phi, W = 2 cos(phi) exp(exponent).
    """
    lr, eg = gammas
    # log M_{kappa,-i mu}(x) = -x/2 + (1/2 - i mu) log x + log of the sum
    log_t = lr + (complex(-0.5 * x, 0.0) + complex(0.5, -mu) * cmath.log(x)
                  + ln_scale + cmath.log(s))
    exponent = log_t.real
    mantissa = 2.0 * math.cos(log_t.imag)

    # phase noise of the log pipeline maps onto the mantissa; the |T|/|W|
    # cancellation of the connection formula enters through 1/|mantissa|
    phase_noise = 2.0 * _TWO_EPS * abs(log_t) + 4.0 * em
    mantissa_err = 2.0 * phase_noise + 4.0 * _TWO_EPS
    scale = math.exp(min(exponent, 709.0))  # exp(exponent) wherever exponent < 709
    value = mantissa * scale if exponent < 709.0 else math.inf * mantissa
    est = mantissa_err * scale
    est += eg * abs(value)
    return WhittakerW(value, est, mantissa, exponent)


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
    return WhittakerW(value, est_rel * abs(value), total, exponent)


def whittaker_w_scaled(
    kappa: float, mu: float, x: float, *, point: GammaLn | None = None
) -> WhittakerW:
    """W_{kappa, i*mu}(x) in scaled form (see WhittakerW).

    Chooses the connection-formula route for x <= LARGE_X_SWITCH and the
    truncated asymptotic series beyond it.  The scaled form is the one to
    use for root finding: zeros of W are sign changes of the mantissa.  The
    plain value underflows to 0.0 (or overflows) when the exponent leaves
    double range; the scaled fields stay valid.

    ``point``, if given, must be w_point(mu): a root search over kappa at
    fixed (mu, x) computes lnGamma(2 i mu) once.  The result is the same.
    """
    if not 0.0 < x < math.inf:
        raise DomainError("whittaker_w requires finite x > 0")
    if mu <= 0:
        raise DomainError("whittaker_w requires mu > 0")
    if x > LARGE_X_SWITCH:
        return _whittaker_w_asymptotic(kappa, mu, x)
    if point is None:
        point = w_point(mu)
    gammas = _connection_gammas(point, kappa, mu)
    s, ln_scale, em = _kummer_series_scaled(complex(0.5 - kappa, -mu), complex(1.0, -2.0 * mu), x)
    return _connection_w(gammas, mu, x, s, ln_scale, em)


def whittaker_w_scaled_array(kappa: float, mu: float, x) -> tuple[np.ndarray, np.ndarray]:
    """(mantissa, exponent) of whittaker_w_scaled(kappa, mu, xi) at every xi of
    the ascending array x, as two float arrays.

    x must be ascending (DomainError otherwise).  Both arrays equal the
    scalar calls' fields bit for bit, and the exception raised is the one
    the scalar loop over x would raise first.  The prefix x <= LARGE_X_SWITCH
    shares one pair of log-Gammas and runs whittaker_w_scaled's Kummer
    series of all its samples on complex arrays (_kummer_series_array: each
    term's quotient and product are replayed on the float parts, because
    numpy's complex / and * round unlike CPython's); its tail replays
    _connection_w's log T in CPython's operation order, less the zeros that
    x > 0 adds: numpy does the IEEE-exact float arithmetic, while cmath.log
    and math.cos run per element, because numpy's log rounds differently
    (and its cos need not be libm's).  Every other sample is a
    whittaker_w_scaled call: the suffix past LARGE_X_SWITCH, and all of x
    when mu <= 0, when some x is not finite and > 0, or when the array
    series gives up (a later x finished first, a sum past 1e250, or the term
    cap).  Root finding keeps the scalar function.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x[1:] < x[:-1]):
        raise DomainError("whittaker_w_scaled_array requires ascending x")
    split, minus = 0, None
    if mu > 0 and np.all((x > 0.0) & (x < math.inf)):
        split = int(np.searchsorted(x, LARGE_X_SWITCH, side="right"))
    if split:
        lr, _ = _connection_gammas(w_point(mu), kappa, mu)
        minus = _kummer_series_array(complex(0.5 - kappa, -mu), complex(1.0, -2.0 * mu),
                                     x[:split])
    mantissa, exponent = np.empty(0), np.empty(0)
    if minus is None:
        split = 0
    else:
        xp, m = x[:split], -mu
        log_x = np.fromiter(map(cmath.log, xp.tolist()), complex, split)
        log_s = np.fromiter(map(cmath.log, minus.tolist()), complex, split)
        # _connection_w's log_t at ln_scale = 0.0, where log_x.imag is +0.0
        re = -0.5 * xp + 0.5 * log_x.real + log_s.real
        im = m * log_x.real + log_s.imag
        exponent = lr.real + re
        mantissa = 2.0 * np.fromiter(map(math.cos, (lr.imag + im).tolist()), float, split)
    rest = [whittaker_w_scaled(kappa, mu, xi) for xi in x[split:].tolist()]
    return (np.concatenate([mantissa, [w.mantissa for w in rest]]),
            np.concatenate([exponent, [w.exponent for w in rest]]))


def gamma_uniform_asymptotic(z: float, b: complex) -> complex:
    """log Gamma(z + b) by the large-argument approximation (DLMF 5.11)

        Gamma(z + b) ~ sqrt(2*pi) e^{-z} z^{z + b - 1/2}

    for real z >= 1 and complex b; its first neglected correction is
    |6b^2 - 6b + 1| / (12 z) relative to Gamma.  Returned as the log, which
    stays finite where Gamma(z + b) itself overflows doubles (z past ~170).
    DomainError unless 1 <= z < inf.
    """
    if not 1.0 <= z < math.inf:
        raise DomainError("gamma_uniform_asymptotic requires finite z >= 1")
    return _HALF_LOG_2PI - z + (z + complex(b) - 0.5) * math.log(z)


@dataclass(frozen=True)
class SmallXApprox:
    """Small-x cosine approximation of W_{kappa, i*mu}:

        W(x) ~ 2 A sqrt(x) cos(phase_at_x1 + mu*ln(x))

    with phase_at_x1 = 2*mu + mu*ln(beta/(4*mu^2)) + pi/4 and amplitude

        A = e^{beta - mu*pi} / (sqrt(2*mu) beta^{beta - 1/2})

    held as log_amplitude because e^beta overflows for beta > ~709 and A
    itself underflows once log_amplitude < ~-745.
    """

    log_amplitude: float
    phase_at_x1: float
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

    def est_error(self, x: float) -> float:
        """Accuracy scale of value(x): the first neglected series correction
        times the envelope 2 A sqrt(x) (ConvergenceError where not finite)."""
        if not 0.0 < x < math.inf:
            raise DomainError("est_error requires finite x > 0")
        rel = self.beta * x / math.hypot(1.0, 2.0 * self.mu) + 1.0 / (24.0 * self.mu)
        err = rel * (2.0 * math.exp(self.log_amplitude) * math.sqrt(x))
        if not math.isfinite(err):
            raise ConvergenceError("whittaker_w_smallx error estimate overflows double range")
        return err

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


def whittaker_w_smallx_approx(kappa: float, mu: float) -> SmallXApprox:
    """Construct the small-x cosine approximation of W_{kappa, i*mu}.

    Requires beta = 1/2 - kappa >= 10 (the large-beta regime).
    """
    if mu <= 0:
        raise DomainError("whittaker_w_smallx_approx requires mu > 0")
    beta = 0.5 - kappa
    if beta <= 0:
        raise DomainError("whittaker_w_smallx_approx requires beta = 1/2 - kappa > 0")
    if beta < 10.0:
        raise RegimeError(f"beta = {beta:.3g} < 10: cosine approximation unreliable")
    log_amplitude = (
        -mu * math.pi
        + beta
        - (beta - 0.5) * math.log(beta)
        - 0.5 * math.log(2.0 * mu)
    )
    four_mu_sq = 4.0 * mu * mu
    ratio = beta / four_mu_sq if four_mu_sq > 0.0 else math.inf
    if not 0.0 < ratio < math.inf:
        raise DomainError(f"whittaker_w_smallx_approx: beta/(4 mu^2) leaves double range "
                          f"(kappa={kappa}, mu={mu})")
    phase_at_x1 = 2.0 * mu + mu * math.log(ratio) + 0.25 * math.pi
    return SmallXApprox(log_amplitude, phase_at_x1, beta, mu)
