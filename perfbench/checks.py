"""Correctness checks of the program's outputs, made apart from the program.

Nothing here imports dipolewell.  Each check compares an output with a
computation of its own (40-digit mpmath Whittaker W, scipy's tridiagonal
eigensolver on a matrix this module builds from the formulas in the oracle
module's docstring, the closed-form ladder) or with a property the method
must have (ordering in n, node count, f(R) = 0, Richardson consistency).
Every function returns a list of messages, one per rejected output; an
empty list means the outputs passed.
"""

from __future__ import annotations

import math
import random

import mpmath as mp
import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from workloads import PROFILE_SAMPLES, Config, Problem, closed_form_energy, turning_radius

DPS = 40
# exact levels: the root of W must lie within SIGN_WINDOW * est_error of E
SIGN_WINDOW = 4.0
# oracle column vs scipy on the same refined matrix, relative to |tau|
ORACLE_RTOL = 1e-10
# exact vs oracle: within RICHARDSON_FACTOR Richardson estimates
RICHARDSON_FACTOR = 3.0
# closed-form column vs this module's closed form, relative
ASYMPTOTIC_RTOL = 1e-12
# profiles: f(R) and the mpmath comparison, on the max|f| = 1 scale
PROFILE_WALL_ATOL = 1e-6
PROFILE_NODE_FLOOR = 1e-6
PROFILE_MATCH_ATOL = 1e-6
PROFILE_SAMPLES_CHECKED = 6


def stirling_gap_floor(lambda_sq: float) -> float:
    """Level at which the closed-form gap may stop shrinking with n.

    The gap is driven by beta_n x0, which falls with n, but it levels off at
    the error of the Stirling phase of Gamma(i Lambda) inside the closed
    form: a phase error 1/(12 Lambda) moves ln beta_n by 1/(6 Lambda^2).
    Twice that is the floor."""
    return 2.0 / (6.0 * lambda_sq)


def _mu(cfg: Config) -> mp.mpf:
    lam_sq = 2 * mp.mpf(cfg.mass) * mp.mpf(cfg.alpha) * mp.mpf(cfg.lam) ** 2 - cfg.ell**2
    return mp.sqrt(lam_sq) / 2


def _x(cfg: Config, r: float) -> mp.mpf:
    return mp.mpf(cfg.mass) * mp.mpf(cfg.omega) * mp.mpf(r) ** 2


def _w(kappa: mp.mpf, mu: mp.mpf, x: mp.mpf) -> mp.mpf:
    return mp.whitw(kappa, mp.mpc(0, mu), x).real


def level_brackets_root(cfg: Config, energy: float, est_error: float) -> bool:
    """40-digit W_{kappa, i mu}(x0) changes sign across the energy +- a few est_error."""
    with mp.workdps(DPS):
        two_omega = 2 * mp.mpf(cfg.omega)
        kappa = (mp.mpf(energy) - mp.mpf(cfg.pz) ** 2 / (2 * mp.mpf(cfg.mass))) / two_omega
        delta = SIGN_WINDOW * mp.mpf(est_error) / two_omega
        mu, x0 = _mu(cfg), _x(cfg, cfg.radius)
        lo, hi = _w(kappa - delta, mu, x0), _w(kappa + delta, mu, x0)
        return lo * hi < 0


def check_exact_ladder(problems: list[Problem], outputs: list[dict]) -> list[str]:
    bad = []
    by_config: dict[Config, list[tuple[int, float]]] = {}
    for p, out in zip(problems, outputs):
        if "energy" not in out:
            continue
        if not level_brackets_root(p.config, out["energy"], out["est_error"]):
            bad.append(f"level {p.pid} (n={p.n}): no W sign change within "
                       f"{SIGN_WINDOW:g} est_error of E={out['energy']!r}")
        by_config.setdefault(p.config, []).append((p.n, out["energy"]))
    for cfg, levels in by_config.items():
        energies = [e for _, e in sorted(levels)]
        if any(b <= a for a, b in zip(energies, energies[1:])):
            bad.append(f"levels not strictly ordered in n: {sorted(levels)}")
    return bad


def log_grid_tridiag(cfg: Config, r_max: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's log-grid matrix: r = R e^s on `points` interior nodes,
    -v'' + [1/4 + r^2 U(r)] v = tau r^2 v with U = -(Lsq + 1/4)/r^2 + (m w r)^2,
    made symmetric by the congruence with 1/r."""
    lsq = 2.0 * cfg.mass * cfg.alpha * cfg.lam**2 - float(cfg.ell) ** 2
    h = math.log(r_max / cfg.radius) / (points + 1)
    r = cfg.radius * np.exp((np.arange(points) + 1.0) * h)
    q = 0.25 - (lsq + 0.25) + (cfg.mass * cfg.omega) ** 2 * r**4
    return (2.0 / h**2 + q) / r**2, -1.0 / h**2 / (r[:-1] * r[1:])


def reference_taus(cfg: Config, r_max: float, points: int, k: int) -> np.ndarray:
    diag, off = log_grid_tridiag(cfg, r_max, points)
    return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                                lapack_driver="stebz", tol=1e-300)


def default_grid_rmax(cfg: Config, nmax: int) -> float:
    """The CLI's default oracle r_max: 3x the turning point at omega (2 nmax + 1)."""
    return 3.0 * turning_radius(cfg, cfg.omega * (2.0 * nmax + 1.0) + cfg.shift)


def parse_csv(csv: str, header: str) -> list[list[str]]:
    lines = csv.rstrip("\n").split("\n")
    if not lines or lines[0] != header:
        raise ValueError(f"unexpected CSV header {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


VALIDATE_HEADER = ("n,ell,E_asymptotic,E_exact,E_oracle,"
                   "rel_gap_asym_exact,rel_gap_exact_oracle,regime_flags")


def check_oracle_validate(problems: list[Problem], outputs: list[dict]) -> list[str]:
    bad = []
    for p, out in zip(problems, outputs):
        if out.get("exit") != 0:
            continue
        cfg, nmax = p.config, p.n
        try:
            rows = parse_csv(out["csv"], VALIDATE_HEADER)
        except ValueError as exc:
            bad.append(f"validate {p.pid}: {exc}")
            continue
        if [int(r[0]) for r in rows] != list(range(1, nmax + 1)):
            bad.append(f"validate {p.pid}: rows {[r[0] for r in rows]} for nmax={nmax}")
            continue
        r_max = p.grid_rmax or default_grid_rmax(cfg, nmax)
        coarse = reference_taus(cfg, r_max, p.grid_points, nmax)
        fine = reference_taus(cfg, r_max, 2 * p.grid_points + 1, nmax)
        gaps = []
        for row, tau_c, tau_f in zip(rows, coarse, fine):
            n = int(row[0])
            e_a, e_x, e_o = float(row[2]), float(row[3]), float(row[4])
            gaps.append(float(row[5]))
            if row[7] != "ok":
                bad.append(f"validate {p.pid} n={n}: flags {row[7]}")
            e_ref = closed_form_energy(cfg, n)
            if abs(e_a - e_ref) > ASYMPTOTIC_RTOL * abs(e_ref):
                bad.append(f"validate {p.pid} n={n}: closed form {e_a!r} != {e_ref!r}")
            tau_o = 2.0 * cfg.mass * (e_o - cfg.shift)
            if abs(tau_o - tau_f) > ORACLE_RTOL * abs(tau_f):
                bad.append(f"validate {p.pid} n={n}: oracle tau {tau_o!r} != scipy {tau_f!r}")
            richardson = abs(tau_f - tau_c) / 3.0 / (2.0 * cfg.mass)
            if abs(e_x - e_o) > RICHARDSON_FACTOR * richardson:
                bad.append(f"validate {p.pid} n={n}: |E_exact - E_oracle| = "
                           f"{abs(e_x - e_o):.3e} > {RICHARDSON_FACTOR:g} x Richardson "
                           f"{richardson:.3e}")
        floor = stirling_gap_floor(cfg.lambda_sq)
        if any(b >= a and b > floor for a, b in zip(gaps, gaps[1:])):
            bad.append(f"validate {p.pid}: asymptotic gap does not shrink with n: {gaps} "
                       f"(floor {floor:.3g})")
    return bad


def check_wavefunction_profile(
    problems: list[Problem], outputs: list[dict], seed: int
) -> list[str]:
    bad = []
    for p, out in zip(problems, outputs):
        if out.get("exit") != 0:
            continue
        cfg, level = p.config, out.get("level")
        if not level:
            bad.append(f"profile {p.pid}: no level to check against")
            continue
        if not level_brackets_root(cfg, level["energy"], level["est_error"]):
            bad.append(f"profile {p.pid}: level E={level['energy']!r} is not a root of W")
        try:
            rows = parse_csv(out["csv"], "r,f")
        except ValueError as exc:
            bad.append(f"profile {p.pid}: {exc}")
            continue
        r = [float(a) for a, _ in rows]
        f = [float(b) for _, b in rows]
        if len(f) != PROFILE_SAMPLES:
            bad.append(f"profile {p.pid}: {len(f)} samples, want {PROFILE_SAMPLES}")
            continue
        if r[0] != cfg.radius or abs(f[0]) > PROFILE_WALL_ATOL:
            bad.append(f"profile {p.pid}: f(R={r[0]!r}) = {f[0]!r}, want 0")
        signs = [math.copysign(1.0, v) for v in f[1:] if abs(v) > PROFILE_NODE_FLOOR]
        nodes = sum(a != b for a, b in zip(signs, signs[1:]))
        if nodes != p.n - 1:
            bad.append(f"profile {p.pid}: {nodes} nodes for n={p.n}")
        # seeded samples against mpmath, normalized at the sample of largest |f|
        peak = max(range(len(f)), key=lambda i: abs(f[i]))
        candidates = [i for i in range(len(f)) if i != peak]
        rng = random.Random(f"profile-samples:{seed}:{p.pid}")
        picks = rng.sample(candidates, min(PROFILE_SAMPLES_CHECKED, len(candidates)))
        with mp.workdps(DPS):
            kappa, mu = mp.mpf(level["kappa"]), _mu(cfg)

            def ref(i: int) -> mp.mpf:
                x = _x(cfg, r[i])
                return _w(kappa, mu, x) / mp.sqrt(x)

            scale = f[peak] / ref(peak)
            for i in picks:
                want = float(scale * ref(i))
                if abs(f[i] - want) > PROFILE_MATCH_ATOL:
                    bad.append(f"profile {p.pid}: f(r={r[i]!r}) = {f[i]!r}, mpmath {want!r}")
    return bad


def check(workload: str, problems: list[Problem], outputs: list[dict], seed: int) -> list[str]:
    if workload == "exact-ladder":
        return check_exact_ladder(problems, outputs)
    if workload == "oracle-validate":
        return check_oracle_validate(problems, outputs)
    return check_wavefunction_profile(problems, outputs, seed)
