"""Bound-state energies by the two analytic routes, plus radial wavefunctions.

Route 1 (closed form): for small cut-off x0 = m omega R^2 the boundary
condition reduces to a cosine quantization whose branches nu = -n give

    E_n = omega + p_z^2/(2m)
          - (2 [2 m alpha lambda^2 - ell^2] / (m R^2))
            * exp(pi/(2 Lambda) - 2) * exp(-2 pi n / Lambda)

a geometric ladder with binding ratio exp(-2 pi / Lambda) between
consecutive levels.

Route 2 (exact quantization): the n-th energy is the root kappa_n of
W_{kappa, i mu}(x0) = 0 bracketed around the Bessel-K phase estimate and
narrowed by ITP on the *scaled* W mantissa, so the search works even where
W itself underflows double precision.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, DomainError
from .model import (
    PhysicalParams, derive, energy_of_kappa, is_count, kappa_of_energy,
    outer_turning_radius,
)
from .special import GammaLn, w_point, whittaker_w_scaled, whittaker_w_scaled_array

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
    extra_sign_changes counts the W sign changes beyond the root's among the
    samples of the exact route's search (reported, not interpreted).
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
    if not is_count(n):
        raise DomainError("level index n must be an integer")
    lam = derive(params).Lambda
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


def _phase(beta: float, nu: float, x0: float) -> float:
    """Uniform Bessel-K phase phi = [nu arccosh(nu/z) - sqrt(nu^2 - z^2)]/pi at
    z = 2 sqrt(beta x0), nan unless 0 < z < nu.  For large beta,
    W_{1/2-beta, i nu/2}(x0) ~ (2/Gamma(beta)) sqrt(x0) K_{i nu}(z) (DLMF 13.21),
    whose zeros sit near phi = n - 1/4 (Dunster, SIAM J. Math. Anal. 21, 1990;
    DLMF 10.45); the closed form is the z -> 0 limit of that rule."""
    z = 2.0 * math.sqrt(beta * x0)
    if not 0.0 < z < nu:
        return math.nan
    return (nu * math.acosh(nu / z) - math.sqrt((nu - z) * (nu + z))) / math.pi


def _phase_start(n: int, nu: float, x0: float) -> float:
    """beta_phi, where phi = n - 1/4, by Newton in ln(beta) from the closed
    form's root: phi is decreasing and convex in ln(beta), so the iterates
    rise monotonically to beta_phi.  nan where phi is not resolved."""
    target = n - 0.25
    beta = nu * nu * math.exp(-2.0 - 2.0 * math.pi * target / nu) / x0 if x0 > 0 else math.nan
    for _ in range(100):
        z = 2.0 * math.sqrt(beta * x0)
        if not 0.0 < z < nu:
            return math.nan
        step = 2.0 * math.pi * (_phase(beta, nu, x0) - target) / math.sqrt((nu - z) * (nu + z))
        if not step > 1e-15:
            break
        beta *= math.exp(step)
    return beta


def energy_levels_asymptotic(params: PhysicalParams, n_max: int) -> list[EnergyLevel]:
    """Closed-form levels n = 1..n_max (general ell), strictly increasing in n;
    DomainError where two consecutive levels round to the same double.

    Works for omega >= 0: omega enters only as an additive offset, so the
    omega = 0 limit is taken literally.  Levels outside the validity domain
    are returned too; solve.Solution.flags names their regime failures.
    """
    if not (is_count(n_max) and n_max >= 1):
        raise DomainError("n_max must be >= 1")
    levels = []
    for n in range(1, n_max + 1):
        b = binding_energy(params, n)
        energy = params.omega + params.energy_shift - b
        if levels and not energy > levels[-1].energy:
            raise DomainError(f"closed-form levels {n - 1} and {n} do not differ in double "
                              f"precision (E = {energy!r})")
        kappa = kappa_of_energy(params, energy) if params.omega > 0 else None
        # double rounding of the exp-ladder: ~couple of ulp on the binding
        est = 8.0 * sys.float_info.epsilon * b
        levels.append(EnergyLevel(n, params.ell, energy, Route.ASYMPTOTIC, kappa, est))
    return levels


def _mantissa_at_beta(beta: float, mu: float, x0: float, point: GammaLn) -> float:
    return whittaker_w_scaled(0.5 - beta, mu, x0, point=point).mantissa


def quantize_exact(params: PhysicalParams, n: int) -> EnergyLevel:
    """Exact level n: the root of W_{kappa, i mu}(x0) = 0 whose phase label is n.

    Widens a window beta_phi * e^{+-delta} around the beta where the Bessel-K
    phase phi = n - 1/4 (_phase) until the scaled-W mantissa changes sign, then
    narrows that bracket by ITP to 1e-12 * max(1, |kappa|); phi + 1/4 at the
    root must round to n, else BracketError (so also wherever Lambda > 32 pi,
    where the first step 1/16 already exceeds the branch spacing 2 pi/Lambda).
    All W share lnGamma(2 i mu) (w_point), and each beta's mantissa is one W.
    """
    if params.omega <= 0:
        raise DomainError("quantize_exact requires omega > 0 (use the numeric oracle)")
    if not (is_count(n) and n >= 1):
        raise DomainError("level index n must be >= 1")
    d = derive(params)
    mu, x0, lam = d.mu, d.x0, d.Lambda
    beta_phi = _phase_start(n, lam, x0)
    if not 0.0 < beta_phi < math.inf:
        raise BracketError(f"no quantization search possible at beta_phi = {beta_phi:.3g} (n={n})")
    tol = 1e-12 * max(1.0, abs(0.5 - beta_phi))
    point = w_point(mu)
    seen: dict[float, float] = {}

    def mantissa(beta: float) -> float:
        if beta not in seen:
            seen[beta] = _mantissa_at_beta(beta, mu, x0, point)
        return seen[beta]

    # neighbouring roots sit near ln(beta) +- 2 pi / Lambda; the label rejects them
    lo = hi = beta_phi
    f_lo = f_hi = mantissa(beta_phi)
    delta = 1.0 / 16.0
    b_lo = b_hi = g_lo = g_hi = math.nan
    while delta <= 2.0 * math.pi / lam:
        lo_new, hi_new = beta_phi * math.exp(-delta), beta_phi * math.exp(delta)
        f_lo_new, f_hi_new = mantissa(lo_new), mantissa(hi_new)
        if f_lo_new * f_lo < 0:
            b_lo, b_hi, g_lo, g_hi = _itp(mantissa, lo_new, lo, f_lo_new, f_lo, tol)
            break
        if f_hi * f_hi_new < 0:
            b_lo, b_hi, g_lo, g_hi = _itp(mantissa, hi, hi_new, f_hi, f_hi_new, tol)
            break
        lo, hi, f_lo, f_hi = lo_new, hi_new, f_lo_new, f_hi_new
        delta *= 2.0
    beta_root = 0.5 * (b_lo + b_hi)
    if not abs(_phase(beta_root, lam, x0) + 0.25 - n) < 0.5:  # phi + 1/4 rounds to n
        raise BracketError(f"no root of W with phase label {n} around beta_phi = "
                           f"{beta_phi:.6g} (n={n})")

    samples = [seen[b] for b in sorted(seen)]
    extra = max(0, sum(a * b < 0 for a, b in zip(samples, samples[1:])) - 1)
    kappa_root = 0.5 - beta_root
    energy = energy_of_kappa(params, kappa_root)
    w_root = whittaker_w_scaled(kappa_root, mu, x0, point=point)
    slope_scale = max(abs(g_hi - g_lo) / max(b_hi - b_lo, 1e-300), 1e-300)
    noise_width = abs(w_root.est_error) if w_root.value != 0 else 0.0
    est = 2.0 * params.omega * (0.5 * max(b_hi - b_lo, tol) + noise_width / slope_scale)
    return EnergyLevel(n, params.ell, energy, Route.EXACT, kappa_root, est, extra)


def _itp(f, a: float, b: float, fa: float, fb: float, tol: float) -> tuple[float, ...]:
    """(a, b, f(a), f(b)): the sign-change bracket of f narrowed to width <= tol by
    ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020) with kappa1 = 0.01 / (b - a),
    kappa2 = 2 and n0 = 1: at most one step more than bisection, superlinear
    on smooth f.  The truncation is at least tol/4, so that a regula falsi
    point stuck at the mantissa's noise still steps across the root."""
    limit = tol * 2.0 ** math.ceil(math.log2(2.0 * (b - a) / tol))  # 2 eps 2^(n_max - j)
    k1 = 0.01 / (b - a)
    while b - a > tol:
        mid = 0.5 * (a + b)
        radius = 0.5 * (limit - (b - a))
        limit *= 0.5
        try:
            delta = max(k1 * (b - a) ** 2, 0.25 * tol)
        except OverflowError:  # a bracket over 1e154 wide: no truncation, a bisection step
            delta = math.inf
        x_f = (fb * a - fa * b) / (fb - fa)
        sigma = math.copysign(1.0, mid - x_f)
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        x = x_t if abs(x_t - mid) <= radius else mid - sigma * radius
        fx = f(x)
        if (fx < 0) == (fa < 0):
            a, fa = x, fx
        else:
            b, fb = x, fx
    return a, b, fa, fb


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
    r_max: float | None,
    samples: int,
) -> RadialProfile:
    """Sample f(r) on a uniform grid in [R, r_max] and normalize to max|f| = 1.

    r_max None means 3x the level's outer turning radius (model).

    Evaluates W in scaled form on a shared exponent, so profiles of deeply
    bound levels (where W itself underflows) stay representable; all
    samples go through one whittaker_w_scaled_array call, which returns
    the scalar W's mantissas and exponents bit for bit.  Deep in
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
    if not (is_count(samples) and samples >= 2):
        raise DomainError("need at least 2 samples")
    if level.kappa is None:
        raise DomainError("level carries no kappa (omega = 0 route?)")
    if not math.isfinite(params.mass_m * params.omega * r_max * r_max):
        raise DomainError(f"r_max = {r_max} puts x = m omega r_max^2 past double range")
    mu = derive(params).mu
    r = np.linspace(params.cutoff_R, r_max, samples)
    x = params.mass_m * params.omega * r * r
    raw, expo = whittaker_w_scaled_array(level.kappa, mu, x)
    mant = np.where(np.abs(raw) >= NOISE_FLOOR, raw, 0.0) / np.sqrt(x)
    live = mant != 0.0  # a clipped sample's exponent may lie far above ref: exp overflows
    ref = float(np.max(expo[live])) if live.any() else 0.0
    f = np.zeros_like(mant)
    f[live] = mant[live] * np.exp(expo[live] - ref)
    peak = float(np.max(np.abs(f)))
    if peak == 0.0 or not math.isfinite(peak):
        raise DomainError("wavefunction vanished or overflowed on the whole grid")
    f /= peak
    return RadialProfile(r, f, boundary_warning=level.route is not Route.EXACT)
