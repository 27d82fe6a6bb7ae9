"""Reference values for the test suite.

Extended-precision references (mpmath, 40+ digits) exist only inside the
tests: the package itself is pure double precision.  Every [frozen] constant
in the test modules was produced by one of these functions.  The dedicated
s-wave closed form is a second double-precision arithmetic path for the
ell = 0 reduction identity, the one-midpoint-per-sweep Sturm bisection is
the reference that the multisection kernel must reproduce bit for bit, and
the numpy-scalar Thomas loop the one the oracle's Python-float solve must.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from dipolewell.model import PhysicalParams, derive


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
        energies.append(params.omega + d.energy_shift_pz - b)
    return energies


def reference_sturm_count(diag, offdiag_sq, shifts) -> np.ndarray:
    """Number of eigenvalues strictly below each shift, one np.where clamp per row."""
    x = np.atleast_1d(np.asarray(shifts, dtype=float))
    pivmin = 1e-290
    q = diag[0] - x
    count = (q < 0).astype(np.int64)
    for i in range(1, len(diag)):
        q = np.where(np.abs(q) < pivmin, np.where(q < 0, -pivmin, pivmin), q)
        q = diag[i] - x - offdiag_sq[i - 1] / q
        count += q < 0
    return count


def reference_sturm_eigs(diag, offdiag, k: int, *, atol=None, rtol: float = 0.0) -> list[float]:
    """k smallest eigenvalues by bisection from Gershgorin bounds, one midpoint
    per eigenvalue per Sturm sweep (the arithmetic of LAPACK dstebz's bisection)."""
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
    if atol is None and rtol == 0.0:
        atol = 1e-12 * float(np.max(np.abs(diag)))
    atol = atol or 0.0

    lows = np.full(k, lo_bound)
    highs = np.full(k, hi_bound)
    idx = np.arange(k)
    for _ in range(220):
        width = highs - lows
        limit = atol + rtol * np.maximum(np.abs(lows), np.abs(highs))
        if np.all(width <= np.maximum(limit, 4e-16 * np.maximum(np.abs(lows), np.abs(highs)))):
            break
        mids = 0.5 * (lows + highs)
        counts = reference_sturm_count(diag, off_sq, mids)
        go_down = counts > idx
        highs = np.where(go_down, mids, highs)
        lows = np.where(go_down, lows, mids)
    return [float(v) for v in 0.5 * (lows + highs)]


def reference_tridiag_solve(diag, off, rhs) -> np.ndarray:
    """Thomas solve of (tridiag) x = rhs on numpy scalars, a zero pivot of rows
    1.. replaced by 1e-290: the loop that oracle._tridiag_solve must reproduce."""
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
