"""Bound-state energies by the two analytic routes, plus radial wavefunctions.

Route 1 (closed form): for small cut-off x0 = m omega R^2 the boundary
condition reduces to a cosine quantization whose branches nu = -n give

    E_n = omega + p_z^2/(2m)
          - (2 [2 m alpha lambda^2 - ell^2] / (m R^2))
            * exp(pi/(2 Lambda) - 2) * exp(-2 pi n / Lambda)

a geometric ladder with binding ratio exp(-2 pi / Lambda) between
consecutive levels.

Route 2 (exact quantization): the n-th energy is the root kappa_n of
W_{kappa, i mu}(x0) = 0 bracketed around the closed-form estimate and
bisected on the *scaled* W mantissa, so the search works even where W
itself underflows double precision.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, DomainError
from .model import (
    DerivedParams, PhysicalParams, derive, energy_of_kappa, kappa_of_energy, outer_turning_radius
)
from .special import WPoint, w_point, whittaker_w_scaled, whittaker_w_scaled_array

# scaled-W mantissas below this are rounding noise in radial_wavefunction
NOISE_FLOOR = 1e-12


class Route(enum.Enum):
    """Which computation produced an energy level."""

    ASYMPTOTIC = "asymptotic"
    EXACT = "exact"
    ORACLE = "oracle"

    def __str__(self) -> str:  # CSV-friendly
        return self.value


@dataclass(frozen=True)
class EnergyLevel:
    """One bound state: level index n >= 1, energy, producing route.

    kappa is None when omega = 0 (the kappa map is undefined there).
    extra_sign_changes flags additional W sign changes seen inside the final
    bracket window of the exact route (reported, not interpreted).
    """

    n: int
    ell: int
    energy: float
    route: Route
    kappa: float | None
    est_error: float
    extra_sign_changes: int = 0


def binding_energy(params: PhysicalParams, n: int) -> float:
    """Closed-form binding omega + shift - E_n (positive, R^-2 scaled):

        b_n = (2 Lambda^2 / (m R^2)) exp(pi/(2 Lambda) - 2) exp(-2 pi n / Lambda)

    Lambda^2 enters directly (not via sqrt-then-square) so the s-wave
    special case reduces to the same arithmetic bit for bit.  DomainError
    where b_n leaves double range.
    """
    return _binding(params, derive(params), n)


def _binding(params: PhysicalParams, d: DerivedParams, n: int) -> float:
    lam = d.Lambda
    lam_sq = params.coupling_strength - float(params.ell) ** 2
    m_r_sq = params.mass_m * params.cutoff_R**2
    coef = 2.0 * lam_sq / m_r_sq if m_r_sq > 0 else math.inf  # m R^2 may underflow to 0
    try:
        b = coef * math.exp(math.pi / (2.0 * lam) - 2.0) * math.exp(-2.0 * math.pi * n / lam)
    except OverflowError:  # weak coupling: the first factor alone leaves double range
        b = coef * math.exp(math.pi / (2.0 * lam) - 2.0 - 2.0 * math.pi * n / lam)
    if not math.isfinite(b):
        raise DomainError(f"closed-form binding of level {n} leaves double range")
    return b


def energy_levels_asymptotic(params: PhysicalParams, n_max: int) -> list[EnergyLevel]:
    """Closed-form levels n = 1..n_max (general ell), strictly increasing in n;
    DomainError where two consecutive levels round to the same double.

    Works for omega >= 0: omega enters only as an additive offset, so the
    omega = 0 limit is taken literally.  Levels outside the validity domain
    are returned too; solve.Solution.flags names their regime failures.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    d = derive(params)
    levels = []
    for n in range(1, n_max + 1):
        b = _binding(params, d, n)
        energy = params.omega + params.energy_shift - b
        if levels and not energy > levels[-1].energy:
            raise DomainError(f"closed-form levels {n - 1} and {n} do not differ in double "
                              f"precision (E = {energy!r})")
        kappa = kappa_of_energy(params, energy) if params.omega > 0 else None
        # double rounding of the exp-ladder: ~couple of ulp on the binding
        est = 8.0 * np.finfo(float).eps * b
        levels.append(EnergyLevel(n, params.ell, energy, Route.ASYMPTOTIC, kappa, est))
    return levels


def _mantissa_at_beta(beta: float, mu: float, x0: float, point: WPoint) -> float:
    return whittaker_w_scaled(0.5 - beta, mu, x0, point=point).mantissa


def quantize_exact(params: PhysicalParams, n: int) -> EnergyLevel:
    """Exact level n: root of W_{kappa, i mu}(x0) = 0 nearest the closed form.

    Brackets beta = 1/2 - kappa inside an expanding multiplicative window
    beta_hat * (1 +/- 2^k * 1e-3) around the closed-form estimate, then
    bisects the scaled-W mantissa until the bracket is narrower than
    1e-12 * max(1, |kappa|).  The window never reaches the neighboring
    geometric branch.  Raises BracketError when no sign change is found.

    Every W shares (mu, x0), so lnGamma(2 i mu) is computed once (w_point),
    and each beta's mantissa once: the anomaly scan reuses the window ends
    and its centre, the first bisection midpoint.
    """
    if params.omega <= 0:
        raise DomainError("quantize_exact requires omega > 0 (use the numeric oracle)")
    if n < 1:
        raise DomainError("level index n must be >= 1")
    d = derive(params)
    mu = d.mu
    x0 = d.x0
    energy_hat = params.omega + params.energy_shift - _binding(params, d, n)
    beta_hat = 0.5 - kappa_of_energy(params, energy_hat)
    if beta_hat <= 0:
        raise BracketError(
            f"closed-form estimate for n={n} gives beta_hat = {beta_hat:.3g} <= 0; "
            "no quantization search possible"
        )
    # stay well inside the current branch: neighbors sit at factors e^{+-2pi/Lambda}
    gap = 1.0 - math.exp(-2.0 * math.pi / d.Lambda)
    window_cap = min(0.35, 0.45 * gap)

    point = w_point(mu)
    seen: dict[float, float] = {}

    def mantissa(beta: float) -> float:
        if beta not in seen:
            seen[beta] = _mantissa_at_beta(beta, mu, x0, point)
        return seen[beta]

    f_hat = mantissa(beta_hat)
    lo = hi = beta_hat
    f_lo = f_hi = f_hat
    bracket = None
    delta = 1e-3
    while delta <= window_cap:
        lo_new, hi_new = beta_hat * (1.0 - delta), beta_hat * (1.0 + delta)
        f_lo_new, f_hi_new = mantissa(lo_new), mantissa(hi_new)
        if f_lo_new * f_lo < 0:
            bracket = (lo_new, lo, f_lo_new, f_lo)
            break
        if f_hi * f_hi_new < 0:
            bracket = (hi, hi_new, f_hi, f_hi_new)
            break
        lo, hi, f_lo, f_hi = lo_new, hi_new, f_lo_new, f_hi_new
        delta *= 2.0
    if bracket is None:
        raise BracketError(
            f"no sign change of W around beta_hat = {beta_hat:.6g} within "
            f"relative window +-{window_cap:.3g} (n={n})"
        )

    b_lo, b_hi, g_lo, g_hi = bracket
    window_lo, window_hi = b_lo, b_hi
    kappa_scale = max(1.0, abs(0.5 - beta_hat))
    tol = 1e-12 * kappa_scale
    while (b_hi - b_lo) > tol:
        mid = 0.5 * (b_lo + b_hi)
        g_mid = mantissa(mid)
        if g_mid == 0.0:
            b_lo = b_hi = mid
            break
        if g_lo * g_mid < 0:
            b_hi, g_hi = mid, g_mid
        else:
            b_lo, g_lo = mid, g_mid
    beta_root = 0.5 * (b_lo + b_hi)

    # anomaly scan: any sign changes other than the converged root
    samples = np.linspace(window_lo, window_hi, 33)
    signs = np.sign([mantissa(b) for b in samples.tolist()])
    changes = int(np.sum(signs[:-1] * signs[1:] < 0))
    extra = max(0, changes - 1)

    kappa_root = 0.5 - beta_root
    energy = energy_of_kappa(params, kappa_root)
    w_root = whittaker_w_scaled(kappa_root, mu, x0, point=point)
    slope_scale = max(abs(g_hi - g_lo) / max(b_hi - b_lo, 1e-300), 1e-300)
    noise_width = abs(w_root.est_error) if w_root.value != 0 else 0.0
    est_kappa = 0.5 * (b_hi - b_lo) + noise_width / slope_scale
    est = 2.0 * params.omega * est_kappa
    return EnergyLevel(
        n, params.ell, energy, Route.EXACT, kappa_root, est, extra_sign_changes=extra
    )


@dataclass(frozen=True)
class RadialProfile:
    """Sampled radial wavefunction f(r) = W_{kappa, i mu}(m omega r^2)/sqrt(m omega r^2).

    Values are rescaled to max |f| = 1 (the solution is only defined up to
    a constant; max-abs normalization is grid-robust).  boundary_warning is
    set when the level does not come from the exact-quantization route, in
    which case f(R) is visibly nonzero.
    """

    r_samples: np.ndarray
    f_values: np.ndarray
    boundary_warning: bool = False


def radial_wavefunction(
    params: PhysicalParams,
    level: EnergyLevel,
    r_max: float | None = None,
    samples: int = 512,
) -> RadialProfile:
    """Sample f(r) on a uniform grid in [R, r_max] and normalize to max|f| = 1.

    r_max defaults to 3x the level's outer turning radius (model).

    Evaluates W in scaled form on a shared exponent, so profiles of deeply
    bound levels (where W itself underflows) stay representable; all
    samples go through one whittaker_w_scaled_array call.  Deep in
    the forbidden tail the scaled mantissa falls below double-precision
    phase resolution; samples with |mantissa| < NOISE_FLOOR are clipped to
    exactly 0 rather than reported as amplified rounding noise.
    """
    if params.omega <= 0:
        raise DomainError("radial_wavefunction requires omega > 0")
    if r_max is None:
        r_max = 3.0 * outer_turning_radius(params, level.energy)
    if r_max <= params.cutoff_R:
        raise DomainError("r_max must exceed the cut-off radius")
    if samples < 2:
        raise DomainError("need at least 2 samples")
    if level.kappa is None:
        raise DomainError("level carries no kappa (omega = 0 route?)")
    if not math.isfinite(params.mass_m * params.omega * r_max * r_max):
        raise DomainError(f"r_max = {r_max} puts x = m omega r_max^2 past double range")
    mu = derive(params).mu
    r = np.linspace(params.cutoff_R, r_max, samples)
    x = params.mass_m * params.omega * r * r
    ws = whittaker_w_scaled_array(level.kappa, mu, x)
    raw = np.array([w.mantissa for w in ws])
    expo = np.array([w.exponent for w in ws])
    mant = np.where(np.abs(raw) >= NOISE_FLOOR, raw, 0.0) / np.sqrt(x)
    ref = float(np.max(expo[mant != 0.0])) if np.any(mant != 0.0) else 0.0
    f = mant * np.exp(expo - ref)
    peak = float(np.max(np.abs(f)))
    if peak == 0.0 or not math.isfinite(peak):
        raise DomainError("wavefunction vanished or overflowed on the whole grid")
    f /= peak
    return RadialProfile(r, f, boundary_warning=level.route is not Route.EXACT)
