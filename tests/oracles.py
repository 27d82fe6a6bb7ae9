"""Reference values for the test suite.

Extended-precision references (mpmath, 40+ digits) exist only inside the
tests: the package itself is pure double precision.  Every [frozen] constant
in the test modules was produced by one of these functions.  The dedicated
s-wave closed form is a second double-precision arithmetic path for the
ell = 0 reduction identity, the one-midpoint-per-sweep Sturm bisection
(its counts run on Python floats, one shift at a time) is the reference that
the multisection kernel must reproduce bit for bit, the numpy-scalar Thomas
loop the one the oracle's Python-float solve must, and the two-series
connection-formula W the one that W = 2|T| cos(arg T) must.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np

from dipolewell import special
from dipolewell.model import PhysicalParams, derive


def deep_params(**kw) -> PhysicalParams:
    """The parameters of deep.cfg (Lambda = 5, x0 = 1e-5), with overrides."""
    base = dict(mass_m=1.0, polarizability_alpha=12.5, field_coupling_lambda=1.0,
                omega=1e-3, cutoff_R=0.1, ell=0, p_z=0.0)
    base.update(kw)
    return PhysicalParams(**base)


def s_wave_energies(params: PhysicalParams, n_max: int) -> list[float]:
    """Closed-form ell = 0 levels with the prefactor 4 alpha lambda^2 / R^2.

    Algebraically identical to spectrum.energy_levels_asymptotic at ell = 0.
    """
    d = derive(params)
    lam = d.Lambda
    coef = (
        4.0
        * params.polarizability_alpha
        * params.field_coupling_lambda**2
        / params.cutoff_R**2
    )
    energies = []
    for n in range(1, n_max + 1):
        b = coef * math.exp(math.pi / (2.0 * lam) - 2.0) * math.exp(-2.0 * math.pi * n / lam)
        energies.append(params.omega + params.energy_shift - b)
    return energies


def reference_sturm_count(diag, offdiag_sq, shifts) -> np.ndarray:
    """Number of eigenvalues strictly below each shift: the Sturm recurrence
    on Python floats (IEEE double, as numpy's float64), one shift at a time,
    each pivot of magnitude below 1e-290 clamped to -1e-290 if negative and
    to +1e-290 otherwise (so -0.0 to +1e-290)."""
    pivmin = 1e-290
    diag = np.asarray(diag, dtype=float).tolist()
    rows = list(zip(diag[1:], np.asarray(offdiag_sq, dtype=float).tolist()))
    counts = []
    for x in np.atleast_1d(np.asarray(shifts, dtype=float)).tolist():
        q = diag[0] - x
        count = int(q < 0)
        for d_i, e_sq in rows:
            if -pivmin < q < pivmin:  # abs(q) < pivmin
                q = -pivmin if q < 0 else pivmin
            q = d_i - x - e_sq / q
            if q < 0:
                count += 1
        counts.append(count)
    return np.array(counts, dtype=np.int64)


def reference_sturm_eigs(diag, offdiag, k: int) -> list[float]:
    """k smallest eigenvalues by bisection from Gershgorin bounds, one midpoint
    per eigenvalue per Sturm sweep (the arithmetic of LAPACK dstebz's bisection):
    each bracket stops once it is at most 1e-13 of its larger end's magnitude
    or at most 1e-290 wide, tested before each step, as dlaebz retires each
    converged interval."""
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    n = len(diag)
    if n == 1:
        return [float(diag[0])]
    off_sq = offdiag * offdiag
    rad = np.zeros(n)
    rad[:-1] += np.abs(offdiag)
    rad[1:] += np.abs(offdiag)
    lo_bound = float(np.min(diag - rad))
    hi_bound = float(np.max(diag + rad))

    lows = np.full(k, lo_bound)
    highs = np.full(k, hi_bound)
    idx = np.arange(k)
    while True:
        widths = highs - lows
        active = (widths > 1e-13 * np.maximum(np.abs(lows), np.abs(highs))) & (widths > 1e-290)
        if not active.any():
            break
        mids = 0.5 * (lows + highs)
        # each distinct midpoint counted once (0.0 and -0.0 count alike)
        distinct, where = np.unique(mids, return_inverse=True)
        counts = reference_sturm_count(diag, off_sq, distinct)[where]
        go_down = counts > idx
        highs = np.where(active & go_down, mids, highs)
        lows = np.where(active & ~go_down, mids, lows)
    return [float(v) for v in 0.5 * (lows + highs)]


def reference_tridiag_solve(diag, off, rhs) -> np.ndarray:
    """Thomas solve of (tridiag) x = rhs on numpy scalars, a zero pivot of rows
    1.. replaced by 1e-290: the row-by-row solve that the leak check's
    reference_eigenvector iterates, and that the oracle's cyclic-reduction
    solve (oracle._eigenvectors) is compared with."""
    n = len(diag)
    c = np.empty(n - 1)
    d = np.empty(n)
    c[0] = off[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - off[i - 1] * c[i - 1]
        if denom == 0.0:
            denom = 1e-290
        if i < n - 1:
            c[i] = off[i] / denom
        d[i] = (rhs[i] - off[i - 1] * d[i - 1]) / denom
    x = np.empty(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def reference_eigenvector(diag, off, tau: float) -> np.ndarray:
    """Three solves of inverse iteration at the shift of oracle._eigenvectors,
    from a seeded random start, normalized after each:
    the converged vector that the leak check's one-solve eigenvector is held
    against."""
    shifted = diag - (tau + 1e-10 * max(1.0, abs(tau)))
    v = np.random.default_rng(12345).standard_normal(len(diag))
    v /= np.linalg.norm(v)
    for _ in range(3):
        v = reference_tridiag_solve(shifted, off, v)
        v /= np.linalg.norm(v)
    return v


def reference_whittaker_m_log(kappa: float, mu_signed: float, x: float) -> tuple[complex, float]:
    """log M_{kappa, i*mu_signed}(x) (any branch) and its relative error, from
    the package's Kummer sum s * exp(ln_scale) of M(1/2 - kappa + i*mu_signed;
    1 + 2i*mu_signed; x):

        log M = -x/2 + (1/2 + i*mu_signed) log x + ln_scale + log s

    summed left to right, the operation order in which W's connection formula
    adds the same terms, so the two-series W below can be compared bit for bit."""
    a = complex(0.5 - kappa, mu_signed)
    b = complex(1.0, 2.0 * mu_signed)
    s, ln_scale, est = special._kummer_series_scaled(a, b, x)
    log_m = complex(-0.5 * x, 0.0) + complex(0.5, mu_signed) * cmath.log(x)
    return log_m + ln_scale + cmath.log(s), est


def reference_whittaker_w_connection(
    kappa: float, mu: float, x: float
) -> tuple[special.WhittakerW, float]:
    """Connection-formula W with both terms computed from scratch: four
    log-Gammas and the Kummer series of M_{kappa,-i mu}, then of M_{kappa,+i mu},
    recombined as two complex terms on a shared exponent.  Returns W and the
    imaginary residual |Im| / (1 + |Re|) of that sum on the mantissa scale."""
    beta = 0.5 - kappa
    lg_plus, eg1 = special.ln_gamma_complex(complex(0.0, 2.0 * mu))
    lg_minus, eg2 = special.ln_gamma_complex(complex(0.0, -2.0 * mu))
    lg_bp, eg3 = special.ln_gamma_complex(complex(beta, mu))
    lg_bm, eg4 = special.ln_gamma_complex(complex(beta, -mu))
    eg = eg1 + eg2 + eg3 + eg4
    lm_minus, em1 = reference_whittaker_m_log(kappa, -mu, x)
    lm_plus, em2 = reference_whittaker_m_log(kappa, mu, x)
    log_t1 = lg_plus - lg_bp + lm_minus
    log_t2 = lg_minus - lg_bm + lm_plus
    exponent = max(log_t1.real, log_t2.real)
    mc = cmath.exp(log_t1 - exponent) + cmath.exp(log_t2 - exponent)
    residual = abs(mc.imag) / (1.0 + abs(mc.real))
    phase_noise = special._TWO_EPS * (abs(log_t1) + abs(log_t2)) + 2.0 * (em1 + em2)
    mantissa_err = 2.0 * phase_noise + 4.0 * special._TWO_EPS
    value = mc.real * math.exp(exponent) if exponent < 709.0 else math.inf * mc.real
    est = mantissa_err * math.exp(min(exponent, 709.0)) + eg * abs(value)
    return special.WhittakerW(value, est, mc.real, exponent), residual


def mp_lngamma(z: complex, dps: int = 40) -> complex:
    with mp.workdps(dps):
        return complex(mp.loggamma(mp.mpc(z.real, z.imag)))


def mp_kummer(a: complex, b: complex, x: float, dps: int = 40) -> complex:
    with mp.workdps(dps):
        return complex(mp.hyp1f1(mp.mpc(a.real, a.imag), mp.mpc(b.real, b.imag), mp.mpf(x)))


def mp_whittaker_m(kappa: float, mu: float, x: float, dps: int = 40) -> complex:
    with mp.workdps(dps):
        return complex(mp.whitm(mp.mpf(kappa), mp.mpc(0, mu), mp.mpf(x)))


def mp_whittaker_w(kappa: float, mu: float, x: float, dps: int = 40) -> float:
    """Real value of W_{kappa, i mu}(x); asserts the reference imag part is noise."""
    with mp.workdps(dps):
        v = mp.whitw(mp.mpf(kappa), mp.mpc(0, mu), mp.mpf(x))
        assert abs(v.imag) <= 1e-25 * (1 + abs(v.real)), "reference W not real?"
        return float(v.real)


def mp_whittaker_w_mantissa(
    kappa: float, mu: float, x: float, exponent: float, dps: int = 60
) -> float:
    """Reference mantissa W / exp(exponent) for comparing scaled evaluations."""
    with mp.workdps(dps):
        v = mp.whitw(mp.mpf(kappa), mp.mpc(0, mu), mp.mpf(x))
        return float((v / mp.exp(mp.mpf(exponent))).real)


def mp_whittaker_w_root(
    beta_lo: float, beta_hi: float, mu: float, x: float, dps: int = 40
) -> float:
    """Root of W_{1/2 - beta, i mu}(x) = 0 in beta inside the given bracket."""
    with mp.workdps(dps):
        f = lambda b: mp.whitw(mp.mpf("0.5") - b, mp.mpc(0, mu), mp.mpf(x)).real
        return float(mp.findroot(f, (mp.mpf(beta_lo), mp.mpf(beta_hi)),
                                 solver="bisect", tol=1e-30))
