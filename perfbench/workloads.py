"""Seeded inputs of the three workloads.

Everything here is plain Python (``math`` and ``random``) so that the worker
process can build its inputs without importing anything the program does not
import itself, and so that the checks can rebuild the same inputs from the
same seed.  A problem is one call into the program: one ``quantize_exact``
level, one ``dipolewell validate`` or one ``dipolewell wavefunction``.

Physical parameters are generated from the dimensionless ones the method
depends on: Lambda = sqrt(2 m alpha lambda^2 - ell^2) and x0 = m omega R^2.
Mass and radius are drawn too, so that the same (Lambda, x0) never maps to
one fixed set of flags, and lambda is fixed at 1 (alpha then carries the
coupling).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("exact-ladder", "oracle-validate", "wavefunction-profile")

# exact-ladder: configurations per pass, three levels each
LADDER_CONFIGS = 48
LADDER_LAMBDA = (2.5, 7.0)  # BracketError from Lambda ~ 7.5 (CHANGES.md FOUND)
LADDER_LOG10_X0 = (-8.0, -3.0)
BETA_MIN = 10.0

# oracle-validate: grid points and nmax of the seeded configurations; the
# pattern is fixed so that the cost of a pass does not depend on the seed
VALIDATE_GRIDS = ((500, 3), (700, 2), (1000, 2))
VALIDATE_LAMBDA = (3.0, 6.0)
VALIDATE_LOG10_X0 = (-7.0, -4.0)
VALIDATE_RMAX_TURNING = 4.0  # --grid-rmax in units of the top level's turning radius

# wavefunction-profile: configurations, one profile each, n = 1, 2, 3 in turn
PROFILE_CONFIGS = 48
PROFILE_LAMBDA = (2.5, 7.0)
PROFILE_LOG10_X0 = (-6.0, -3.0)  # ConvergenceError below ~1e-6 (CHANGES.md FOUND)
PROFILE_SAMPLES = 512


@dataclass(frozen=True)
class Config:
    mass: float
    alpha: float
    lam: float
    omega: float
    radius: float
    ell: int
    pz: float

    @property
    def lambda_sq(self) -> float:
        """Lambda^2 = 2 m alpha lambda^2 - ell^2."""
        return 2.0 * self.mass * self.alpha * self.lam**2 - float(self.ell) ** 2

    @property
    def x0(self) -> float:
        return self.mass * self.omega * self.radius**2

    @property
    def shift(self) -> float:
        return self.pz**2 / (2.0 * self.mass)

    def flags(self) -> list[str]:
        return [
            "--mass", repr(self.mass), "--alpha", repr(self.alpha),
            "--lambda", repr(self.lam), "--omega", repr(self.omega),
            "--radius", repr(self.radius), "--ell", str(self.ell), "--pz", repr(self.pz),
        ]


# deep.cfg from the project README (Lambda = 5, x0 = 1e-5)
DEEP_CFG = Config(mass=1.0, alpha=12.5, lam=1.0, omega=1e-3, radius=0.1, ell=0, pz=0.0)


@dataclass(frozen=True)
class Problem:
    """One call into the program.  ``argv`` is set for CLI problems."""

    pid: int
    config: Config
    n: int  # level index (exact-ladder, wavefunction-profile) or nmax (oracle-validate)
    argv: tuple[str, ...] = ()
    grid_points: int = 0
    grid_rmax: float = 0.0


def closed_form_beta(lambda_sq: float, x0: float, n: int) -> float:
    """beta_n = 1/2 - kappa_n of the closed-form ladder:
    beta_n x0 = Lambda^2 exp(pi/(2 Lambda) - 2 - 2 pi n / Lambda)."""
    lam = math.sqrt(lambda_sq)
    return lambda_sq * math.exp(math.pi / (2.0 * lam) - 2.0 - 2.0 * math.pi * n / lam) / x0


def closed_form_energy(cfg: Config, n: int) -> float:
    """E_n = omega + p_z^2/(2m) - 2 omega beta_n."""
    return cfg.omega + cfg.shift - 2.0 * cfg.omega * closed_form_beta(cfg.lambda_sq, cfg.x0, n)


def turning_radius(cfg: Config, energy: float) -> float:
    """Outer classical turning point of -alpha lambda^2/r^2 + m omega^2 r^2/2,
    in the cancellation-free form r^2 = c^2 / (m omega^2 (hypot(e, c) - e))."""
    e = energy - cfg.shift
    mw2 = cfg.mass * cfg.omega**2
    c = math.sqrt(2.0 * mw2 * cfg.alpha * cfg.lam**2)
    return math.sqrt(c * c / (mw2 * (math.hypot(e, c) - e)))


def _stratified(rng: random.Random, count: int) -> list[float]:
    """The midpoints of `count` equal strata of [0, 1], in seeded order.

    Used for the inputs the cost of a problem depends on (Lambda, x0), so
    that the cost of a pass hardly depends on the seed: the seed then
    decides which values meet, not which values occur."""
    vals = [(i + 0.5) / count for i in range(count)]
    rng.shuffle(vals)
    return vals


def _between(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


def _config(rng: random.Random, lam_big: float, x0: float, ell: int) -> Config:
    mass = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    radius = math.exp(rng.uniform(math.log(0.05), math.log(0.2)))
    alpha = (lam_big**2 + ell**2) / (2.0 * mass)
    omega = x0 / (mass * radius**2)
    return Config(mass, alpha, 1.0, omega, radius, ell, rng.uniform(0.0, 0.5))


def exact_ladder(seed: int) -> list[Problem]:
    """LADDER_CONFIGS configurations, levels n = 1..3 of each.

    Every level must have closed-form beta >= 10, so x0 is drawn below the
    largest value that keeps beta_3 >= 10 (below 1e-3 only for Lambda < ~4.4)."""
    rng = random.Random(f"exact-ladder:{seed}")
    lams = _stratified(rng, LADDER_CONFIGS)
    xs = _stratified(rng, LADDER_CONFIGS)
    problems: list[Problem] = []
    for u_lam, u_x in zip(lams, xs):
        lam_big = _between(*LADDER_LAMBDA, u_lam)
        beta3_x0 = closed_form_beta(lam_big**2, 1.0, 3)
        top = min(LADDER_LOG10_X0[1], math.log10(beta3_x0 / BETA_MIN))
        x0 = 10.0 ** _between(LADDER_LOG10_X0[0], top, u_x)
        cfg = _config(rng, lam_big, x0, rng.choice((0, 1, 2)))
        for n in (1, 2, 3):
            problems.append(Problem(len(problems), cfg, n))
    return problems


def oracle_validate(seed: int) -> list[Problem]:
    """deep.cfg at the CLI defaults (nmax 2, 2000 points, default grid), then
    seeded configurations on explicit grids whose levels all have beta >= 10."""
    rng = random.Random(f"oracle-validate:{seed}")
    problems = [Problem(0, DEEP_CFG, 2, ("validate", *DEEP_CFG.flags(), "--nmax", "2"),
                        2000, 0.0)]
    lams = _stratified(rng, len(VALIDATE_GRIDS))
    xs = _stratified(rng, len(VALIDATE_GRIDS))
    for i, (points, nmax) in enumerate(VALIDATE_GRIDS):
        lam_big = _between(*VALIDATE_LAMBDA, lams[i])
        top = min(VALIDATE_LOG10_X0[1],
                  math.log10(closed_form_beta(lam_big**2, 1.0, nmax) / BETA_MIN))
        x0 = 10.0 ** _between(VALIDATE_LOG10_X0[0], top, xs[i])
        cfg = _config(rng, lam_big, x0, rng.choice((0, 1, 2)))
        rmax = VALIDATE_RMAX_TURNING * turning_radius(cfg, closed_form_energy(cfg, nmax))
        argv = ("validate", *cfg.flags(), "--nmax", str(nmax),
                "--grid-points", str(points), "--grid-rmax", repr(rmax))
        problems.append(Problem(i + 1, cfg, nmax, argv, points, rmax))
    return problems


def wavefunction_profile(seed: int) -> list[Problem]:
    """PROFILE_CONFIGS configurations, Lambda and x0 stratified within each n."""
    rng = random.Random(f"wavefunction-profile:{seed}")
    per_n = PROFILE_CONFIGS // 3
    lams = {n: _stratified(rng, per_n) for n in (1, 2, 3)}
    xs = {n: _stratified(rng, per_n) for n in (1, 2, 3)}
    problems = []
    for i in range(PROFILE_CONFIGS):
        n = 1 + i % 3
        lam_big = _between(*PROFILE_LAMBDA, lams[n][i // 3])
        x0 = 10.0 ** _between(*PROFILE_LOG10_X0, xs[n][i // 3])
        cfg = _config(rng, lam_big, x0, rng.choice((0, 1, 2)))
        argv = ("wavefunction", *cfg.flags(), "--n", str(n))
        problems.append(Problem(i, cfg, n, argv))
    return problems


GENERATORS = {
    "exact-ladder": exact_ladder,
    "oracle-validate": oracle_validate,
    "wavefunction-profile": wavefunction_profile,
}
