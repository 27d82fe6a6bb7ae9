"""Independent finite-difference eigensolver for the cut-off radial problem.

The radial equation for f(r) is transformed with u = sqrt(r) f into the
self-adjoint form

    -u'' - (Lsq + 1/4)/r^2 u + m^2 omega^2 r^2 u = tau u,     tau = 2m(E - shift)

with u(r_min) = u(r_max) = 0, where Lsq = 2 m alpha lambda^2 - ell^2 (any
sign; the oracle does not require the bound-state regime).  Two grids:

* Uniform in r: plain second-order central differences.
* Log-uniform (r = r_min e^s, s uniform): substituting u = sqrt(r) v gives
      -v'' + [1/4 + r^2 W(r)] v = tau r^2 v
  which is reduced to a standard symmetric tridiagonal problem by the
  diagonal congruence with 1/r.  Near the cut-off the wavefunction
  oscillates uniformly in ln r, so this grid carries constant phase
  density there; it also cancels the -1/(4 r^2) reduction term exactly
  when Lsq = 0.

Eigenvalues come from Sturm multisection that replays bisection exactly (two
numpy calls per matrix row); a half-step grid, its bisection paths predicted
by the coarse eigenvalues and checked by count, gives Richardson estimates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridTooCoarse
from .model import PhysicalParams

RICHARDSON_SPACING_FRACTION = 0.01
BOUNDARY_MASS_LIMIT = 1e-6
STURM_PIVMIN = 1e-290
BISECTION_MAX_STEPS = 220
# bisection steps tested per Sturm sweep: 2**6 - 1 = 63 shifts per eigenvalue
MULTISECTION_DEPTH = 6
# rows x shifts per block of a Sturm sweep (128 KiB of float64)
STURM_BLOCK_ELEMENTS = 16384


class GridScheme(enum.Enum):
    UNIFORM = "uniform"
    LOG_UNIFORM = "log"


@dataclass(frozen=True)
class RadialGridSpec:
    """Discretization of [r_min, r_max] with `points` interior nodes."""

    r_min: float
    r_max: float
    points: int = 2000
    scheme: GridScheme = GridScheme.LOG_UNIFORM

    def __post_init__(self) -> None:
        if not self.r_min < self.r_max:
            raise DomainError("grid requires r_min < r_max")
        if self.points < 100:
            raise DomainError("grid requires at least 100 points")
        if self.scheme is GridScheme.LOG_UNIFORM and self.r_min <= 0:
            raise DomainError("log grid requires r_min > 0")

    def refined(self) -> "RadialGridSpec":
        """Same domain at half the step (2N+1 interior nodes)."""
        return RadialGridSpec(self.r_min, self.r_max, 2 * self.points + 1, self.scheme)

    def nodes(self) -> np.ndarray:
        """Interior node radii."""
        if self.scheme is GridScheme.UNIFORM:
            h = (self.r_max - self.r_min) / (self.points + 1)
            return self.r_min + (np.arange(self.points) + 1.0) * h
        span = math.log(self.r_max / self.r_min)
        h = span / (self.points + 1)
        return self.r_min * np.exp((np.arange(self.points) + 1.0) * h)


@dataclass(frozen=True)
class OracleResult:
    """Lowest eigenvalues tau (ascending) with Richardson error estimates."""

    eigenvalues_tau: list[float]
    grid: RadialGridSpec
    richardson_error_estimate: list[float]

    def energies(self, params: PhysicalParams) -> list[float]:
        return [t / (2.0 * params.mass_m) + params.energy_shift for t in self.eigenvalues_tau]


def _u_potential(params: PhysicalParams, r: np.ndarray) -> np.ndarray:
    lsq = params.coupling_strength - float(params.ell) ** 2  # any sign
    mw = params.mass_m * params.omega
    return -(lsq + 0.25) / (r * r) + (mw * r) ** 2


def build_tridiag(
    params: PhysicalParams, grid: RadialGridSpec, *, inner_bc: str = "wall"
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric tridiagonal (diag, offdiag) whose eigenvalues are tau.

    inner_bc="wall" is the physical hard-wall Dirichlet condition u(r_min)=0.
    inner_bc="regular" (log grid only) imposes the natural s-wave behavior
    u ~ sqrt(r) at the inner edge instead of a wall; this is the right
    condition for cut-off-free limits such as the pure-oscillator check,
    where a Dirichlet wall at small R would add a slowly vanishing ~1/ln(R)
    energy shift of its own.
    """
    r = grid.nodes()
    n = grid.points
    if grid.scheme is GridScheme.UNIFORM:
        if inner_bc != "wall":
            raise DomainError("inner_bc='regular' requires the log grid")
        h = (grid.r_max - grid.r_min) / (n + 1)
        diag = 2.0 / (h * h) + _u_potential(params, r)
        off = np.full(n - 1, -1.0 / (h * h))
        return diag, off
    span = math.log(grid.r_max / grid.r_min)
    h = span / (n + 1)
    if inner_bc == "wall":
        q = 0.25 + r * r * _u_potential(params, r)
        diag = (2.0 / (h * h) + q) / (r * r)
        off = -1.0 / (h * h) / (r[:-1] * r[1:])
        return diag, off
    if inner_bc != "regular":
        raise DomainError("inner_bc must be 'wall' or 'regular'")
    # include the inner node with a reflected (Neumann) condition v'(0) = 0;
    # half-cell weights keep the reduced problem symmetric
    r_full = np.concatenate(([grid.r_min], r))
    q = 0.25 + r_full * r_full * _u_potential(params, r_full)
    a_diag = np.concatenate(([1.0 / (h * h) + 0.5 * q[0]], 2.0 / (h * h) + q[1:]))
    weights = r_full * r_full
    weights = np.concatenate(([0.5 * weights[0]], weights[1:]))
    sqw = np.sqrt(weights)
    diag = a_diag / weights
    off = -1.0 / (h * h) / (sqw[:-1] * sqw[1:])
    return diag, off


def sturm_count(diag: np.ndarray, offdiag_sq: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Number of eigenvalues strictly below each shift (Sturm sequence).

    The pivot q of a row is clamped to +-STURM_PIVMIN (+ for q = -0.0) when
    |q| < STURM_PIVMIN.  Rows run in blocks of about STURM_BLOCK_ELEMENTS
    values, filled with diag - shift by one outer subtraction; a row then
    costs one division and one subtraction, unclamped.  A block in which some
    pivot needs the clamp is recomputed from its first pivot, row by row with
    the clamp, so the counts do not depend on the blocking.
    """
    x = np.atleast_1d(np.asarray(shifts, dtype=float))
    n = len(diag)
    block_rows = max(1, STURM_BLOCK_ELEMENTS // len(x))
    buf = np.empty((min(block_rows, n - 1) + 1, len(x)))  # row 0: the pivot entering a block
    rows = list(buf)
    np.subtract(diag[0], x, out=buf[0])
    count = (buf[0] < 0).astype(np.int64)
    ratio = np.empty_like(x)
    off_sq = offdiag_sq.tolist()
    for start in range(1, n, block_rows):
        stop = min(start + block_rows, n)
        block = buf[: stop - start + 1]
        np.subtract.outer(diag[start:stop], x, out=block[1:])
        e_sq = off_sq[start - 1 : stop - 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            for prev, row, e in zip(rows, rows[1 : len(block)], e_sq):
                np.divide(e, prev, out=ratio)
                np.subtract(row, ratio, out=row)
        if not np.abs(block[:-1]).min() >= STURM_PIVMIN:  # also true on a NaN pivot
            for j, (d, e) in enumerate(zip(diag[start:stop].tolist(), e_sq), 1):
                q = block[j - 1]
                q = np.where(np.abs(q) < STURM_PIVMIN, np.where(q < 0, -STURM_PIVMIN, STURM_PIVMIN), q)
                block[j] = d - x - e / q
        count += (block[1:] < 0).sum(axis=0)
        buf[0] = block[-1]
    return count


def _bisection_tree(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Midpoints of the first MULTISECTION_DEPTH bisection steps of each bracket.

    Row j holds the tree of bracket j in heap order: column 2**level - 1 + p
    is the midpoint of node p at that level, whose children are nodes 2p
    (lower half) and 2p + 1 (upper half) one level down.
    """
    lo = lows[:, None]
    hi = highs[:, None]
    levels = []
    for _ in range(MULTISECTION_DEPTH):
        mid = 0.5 * (lo + hi)
        levels.append(mid)
        lo = np.stack((lo, mid), axis=2).reshape(len(lows), -1)
        hi = np.stack((mid, hi), axis=2).reshape(len(lows), -1)
    return np.concatenate(levels, axis=1)


def _step(lo: np.ndarray, hi: np.ndarray, rows, s, mids: np.ndarray, go_down: np.ndarray) -> None:
    """Bisection step s of the brackets in `rows`: write their brackets after it."""
    hi[rows, s + 1] = np.where(go_down, mids, hi[rows, s])
    lo[rows, s + 1] = np.where(go_down, lo[rows, s], mids)


def _follow_guesses(diag, off_sq, lo, hi, depth: np.ndarray, guesses, converged) -> None:
    """One sweep that counts every midpoint of a path per eigenvalue that
    steps toward guesses[i] until the convergence test passes.  A path is kept
    up to and including its first step whose count disagrees with it, taken
    the way the count says: the kept steps are bisection's own."""
    idx = np.arange(len(depth))
    g = np.asarray(guesses, dtype=float)
    s = 0
    while s < BISECTION_MAX_STEPS and not converged(lo[:, s], hi[:, s]):
        mid = 0.5 * (lo[:, s] + hi[:, s])
        _step(lo, hi, idx, s, mid, g < mid)
        s += 1
    if s:
        mids = 0.5 * (lo[:, :s] + hi[:, :s])
        go_down = sturm_count(diag, off_sq, mids.ravel()).reshape(mids.shape) > idx[:, None]
        wrong = go_down != (g[:, None] < mids)
        wrong[:, -1] = True  # a path right throughout is kept whole
        last = wrong.argmax(axis=1)
        _step(lo, hi, idx, last, mids[idx, last], go_down[idx, last])
        depth[:] = last + 1


def sturm_tridiag_eigs(
    diag, offdiag, k: int, *, atol: float | None = None, rtol: float = 0.0, guesses=None
) -> list[float]:
    """k smallest eigenvalues of a symmetric tridiagonal matrix.

    Sturm-sequence bisection from Gershgorin bounds, run as multisection:
    one sweep counts the eigenvalues below every midpoint of the next
    MULTISECTION_DEPTH bisection steps of each bracket's deepest known one,
    and the steps are replayed from those counts, with the convergence test
    before each.  Optional `guesses` (one per eigenvalue, any values) are
    checked in a first sweep (_follow_guesses).  The result is bit-identical
    to bisecting one midpoint per sweep.  Default absolute tolerance is
    1e-12 * max|diag| (pass atol/rtol to tighten; rtol is relative to the
    eigenvalue magnitude, for strongly graded matrices).
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    n = len(diag)
    if len(offdiag) != max(n - 1, 0):
        raise DomainError("offdiag must have length len(diag) - 1")
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= matrix dimension")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag))):
        raise DomainError("matrix entries must be finite")
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

    def converged(lows: np.ndarray, highs: np.ndarray) -> bool:
        mag = np.maximum(np.abs(lows), np.abs(highs))
        return bool(np.all(highs - lows <= np.maximum(atol + rtol * mag, 4e-16 * mag)))

    # lo[i, s], hi[i, s]: bracket of eigenvalue i after s steps, known for s <= depth[i]
    lo = np.full((k, BISECTION_MAX_STEPS + 2 * MULTISECTION_DEPTH), lo_bound)
    hi = np.full(lo.shape, hi_bound)
    depth = np.zeros(k, dtype=np.int64)
    if guesses is not None:
        _follow_guesses(diag, off_sq, lo, hi, depth, guesses, converged)
    steps = 0
    while steps < BISECTION_MAX_STEPS and not converged(lo[:, steps], hi[:, steps]):
        if depth.min() == steps:  # a sweep for every bracket known < DEPTH steps ahead
            sel = np.flatnonzero(depth < steps + MULTISECTION_DEPTH)
            at, rows = depth[sel], np.arange(len(sel))
            tree = _bisection_tree(lo[sel, at], hi[sel, at])
            counts = sturm_count(diag, off_sq, tree.ravel()).reshape(tree.shape)
            node = np.zeros(len(sel), dtype=np.int64)
            for level in range(MULTISECTION_DEPTH):
                col = (1 << level) - 1 + node
                go_down = counts[rows, col] > sel
                _step(lo, hi, sel, at + level, tree[rows, col], go_down)
                node = 2 * node + ~go_down
            depth[sel] += MULTISECTION_DEPTH
        steps += 1
    return [float(v) for v in 0.5 * (lo[:, steps] + hi[:, steps])]


def _tridiag_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Thomas solve of (tridiag) x = rhs on Python floats (numpy's float64
    arithmetic without its per-scalar cost); a zero pivot becomes 1e-290."""
    c, d, e_prev = [0.0], [0.0], 0.0  # a coupling-free row before row 0
    for a_i, e_i, b_i in zip(diag.tolist(), off.tolist() + [0.0], rhs.tolist()):
        denom = a_i - e_prev * c[-1]
        if denom == 0.0:
            denom = 1e-290
        c.append(e_i / denom)
        d.append((b_i - e_prev * d[-1]) / denom)
        e_prev = e_i
    x = [d[-1]]
    for c_i, d_i in zip(c[-2:0:-1], d[-2:0:-1]):
        x.append(d_i - c_i * x[-1])
    return np.array(x[::-1])


def _eigenvector(diag: np.ndarray, off: np.ndarray, tau: float) -> np.ndarray:
    """Inverse iteration at shift tau (two sweeps are ample for isolated modes)."""
    shifted = diag - (tau + 1e-10 * max(1.0, abs(tau)))
    v = np.random.default_rng(12345).standard_normal(len(diag))
    v /= np.linalg.norm(v)
    for _ in range(3):
        v = _tridiag_solve(shifted, off, v)
        v /= np.linalg.norm(v)
    return v


def outer_turning_radius(params: PhysicalParams, energy: float) -> float:
    """Classical outer turning point of -a l^2/r^2 + m w^2 r^2/2 at the given energy."""
    if params.omega <= 0:
        raise DomainError("outer turning point needs omega > 0")
    al2 = params.polarizability_alpha * params.field_coupling_lambda**2
    mw2 = params.mass_m * params.omega**2
    e = energy - params.energy_shift
    r_sq = (e + math.hypot(e, math.sqrt(2.0 * mw2 * al2))) / mw2
    if r_sq <= 0:
        r_sq = math.sqrt(2.0 * al2 / mw2)
    return math.sqrt(r_sq)


def default_grid(
    params: PhysicalParams, k_levels: int, *, points: int = 2000
) -> RadialGridSpec:
    """Log-uniform grid from the cut-off to 3x the outer turning point of the
    k-th level (estimated from the oscillator ladder as a fallback height)."""
    if params.omega <= 0:
        raise DomainError("default_grid needs omega > 0; supply an explicit grid")
    e_top = params.omega * (2.0 * k_levels + 1.0) + params.energy_shift
    r_turn = outer_turning_radius(params, e_top)
    return RadialGridSpec(params.cutoff_R, 3.0 * r_turn, points, GridScheme.LOG_UNIFORM)


def fd_eigensolve(
    params: PhysicalParams,
    grid: RadialGridSpec,
    k_levels: int,
    *,
    inner_bc: str = "wall",
    outer_wall: bool = False,
) -> OracleResult:
    """k_levels lowest tau eigenvalues with half-step Richardson estimates.

    Raises GridTooCoarse when a Richardson estimate exceeds 1% of the local
    level spacing, and DomainError when the topmost requested eigenfunction
    leaks more than 1e-6 of its mass into the outer 5% of the domain
    (r_max too small).  Pass outer_wall=True when the Dirichlet condition at
    r_max is physical (e.g. a finite annulus); that skips the leak check.
    """
    if not 1 <= k_levels <= grid.points:
        raise DomainError("need 1 <= k_levels <= grid.points")
    k_work = min(k_levels + 1, grid.points)  # one spare level to gauge the spacing
    diag, off = build_tridiag(params, grid, inner_bc=inner_bc)
    coarse = sturm_tridiag_eigs(diag, off, k_work, atol=0.0, rtol=1e-13)
    diag, off = build_tridiag(params, grid.refined(), inner_bc=inner_bc)
    fine = sturm_tridiag_eigs(diag, off, k_work, atol=0.0, rtol=1e-13, guesses=coarse)
    estimates = [abs(f - c) / 3.0 for f, c in zip(fine, coarse)]

    taus = fine[:k_levels]
    ests = estimates[:k_levels]
    for i, est in enumerate(ests):
        below = abs(taus[i] - fine[i - 1]) if i > 0 else math.inf
        above = abs(fine[i + 1] - taus[i]) if i + 1 < len(fine) else math.inf
        spacing = min(below, above)
        if math.isfinite(spacing) and est > RICHARDSON_SPACING_FRACTION * spacing:
            raise GridTooCoarse(
                f"Richardson estimate {est:.3e} for tau_{i + 1} exceeds 1% of the "
                f"level spacing {spacing:.3e}; refine the grid"
            )

    if not outer_wall:
        v = _eigenvector(diag, off, taus[-1])
        tail = max(1, int(0.05 * len(v)))
        boundary_mass = float(np.sum(v[-tail:] ** 2))
        if boundary_mass > BOUNDARY_MASS_LIMIT:
            raise DomainError(
                f"eigenfunction mass {boundary_mass:.2e} within the outer 5% of the "
                f"domain exceeds {BOUNDARY_MASS_LIMIT:.0e}; increase r_max"
            )
    return OracleResult(taus, grid, ests)
