"""Independent finite-difference eigensolver for the cut-off radial problem.

The radial equation for f(r) is transformed with u = sqrt(r) f into the
self-adjoint form

    -u'' - (Lsq + 1/4)/r^2 u + m^2 omega^2 r^2 u = tau u,     tau = 2m(E - shift)

with u(r_min) = u(r_max) = 0, where Lsq = 2 m alpha lambda^2 - ell^2 (any
sign; the oracle does not require the bound-state regime).  The grid is
log-uniform, r = r_min e^s with s uniform: substituting u = sqrt(r) v gives

    -v'' + [1/4 + r^2 W(r)] v = tau r^2 v

which is reduced to a standard symmetric tridiagonal problem by the
diagonal congruence with 1/r.  Near the cut-off the wavefunction oscillates
uniformly in ln r, so this grid carries constant phase density there; it
also cancels the -1/(4 r^2) reduction term exactly when Lsq = 0.

Eigenvalues come from Sturm bisection that reads its counts from a table
local to each call, filled by multisection sweeps (two numpy calls per matrix
row): the steps, and so the floats, are bisection's own whatever the table
holds.  A half-step grid gives Richardson estimates.  Both grids are the top
of a ladder on one domain that starts at a base grid of an eighth of the
points, the only grid solved cold.  Each grid up the ladder is warm-started
from the one below: its eigenvectors, carried to the new nodes by linear
interpolation in ln r and refined by one solve of inverse iteration on the
new matrix, give Rayleigh quotients that predict the bisection paths, and all
their midpoints are counted in the first sweep.
A sweep ends at the first tested rows past which no shift's count can
change what it decides: for each shift, either the count has reached the
number of wanted eigenvalues, or the rows left are diagonally dominant below
the shift (by a margin of STURM_TAIL_ULPS epsilons per magnitude plus
STURM_PIVMIN) and the entering pivot is negative or at least the coupling,
so that no later pivot can turn negative.  The floats do not move; on the
default grids most rows lie in the classically forbidden region past the
outer turning points, never swept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import DomainError, GridTooCoarse
from .model import PhysicalParams

RICHARDSON_SPACING_FRACTION = 0.01
BOUNDARY_MASS_LIMIT = 1e-6
STURM_PIVMIN = 1e-290
BISECTION_MAX_STEPS = 220
# relative width at which a bisection bracket has converged
STURM_RTOL = 1e-13
# bisection steps tested per Sturm sweep: 2**6 - 1 = 63 shifts per eigenvalue
MULTISECTION_DEPTH = 6
# rows x shifts per block of a Sturm sweep (128 KiB of float64)
STURM_BLOCK_ELEMENTS = 16384
# most rows per block, and fewest between two tests for ending a sweep
STURM_BLOCK_ROWS = 128
# margin of sturm_count's tail rule, in machine epsilons of each magnitude
STURM_TAIL_ULPS = 8


@dataclass(frozen=True)
class RadialGridSpec:
    """Log-uniform discretization of [r_min, r_max] with `points` interior nodes."""

    r_min: float
    r_max: float
    points: int

    def __post_init__(self) -> None:
        if not self.r_min < self.r_max:
            raise DomainError("grid requires r_min < r_max")
        if not isinstance(self.points, (int, np.integer)):
            raise DomainError("grid requires an integer number of points")
        if self.points < 100:
            raise DomainError("grid requires at least 100 points")
        if self.r_min <= 0:
            raise DomainError("log grid requires r_min > 0")

    def refined(self) -> "RadialGridSpec":
        """Same domain at half the step (2N+1 interior nodes)."""
        return RadialGridSpec(self.r_min, self.r_max, 2 * self.points + 1)

    @property
    def h(self) -> float:
        """Step in s = ln(r / r_min)."""
        return math.log(self.r_max / self.r_min) / (self.points + 1)

    def nodes(self) -> np.ndarray:
        """Interior node radii."""
        return self.r_min * np.exp((np.arange(self.points) + 1.0) * self.h)


@dataclass(frozen=True)
class OracleResult:
    """Lowest eigenvalues tau (ascending) with Richardson error estimates."""

    eigenvalues_tau: list[float]
    richardson_error_estimate: list[float]

    def energies(self, params: PhysicalParams) -> list[float]:
        return [t / (2.0 * params.mass_m) + params.energy_shift for t in self.eigenvalues_tau]


def _u_potential(params: PhysicalParams, r: np.ndarray) -> np.ndarray:
    lsq = params.coupling_strength - float(params.ell) ** 2  # any sign
    mw = params.mass_m * params.omega
    return -(lsq + 0.25) / (r * r) + (mw * r) ** 2


def build_tridiag(params: PhysicalParams, grid: RadialGridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric tridiagonal (diag, offdiag) whose eigenvalues are tau, with
    the hard-wall Dirichlet condition u = 0 at both ends of the grid.

    Raises DomainError when an entry leaves double range."""
    r = grid.nodes()
    h = grid.h
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        q = 0.25 + r * r * _u_potential(params, r)
        diag = (2.0 / (h * h) + q) / (r * r)
        off = -1.0 / (h * h) / (r[:-1] * r[1:])
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise DomainError(f"the finite-difference matrix leaves double range on the grid "
                          f"from r_min = {grid.r_min:g} to r_max = {grid.r_max:g}")
    return diag, off


def sturm_count(diag: np.ndarray, offdiag_sq: np.ndarray, shifts: np.ndarray, *,
                k: int) -> np.ndarray:
    """Number of eigenvalues strictly below each shift (Sturm sequence),
    capped at k (bisection reads only count > i for i < k; k = len(diag)
    caps nothing).

    The pivot q of a row is clamped to +-STURM_PIVMIN (+ for q = -0.0) when
    |q| < STURM_PIVMIN.  Rows run in blocks of about STURM_BLOCK_ELEMENTS
    values and at most STURM_BLOCK_ROWS rows, filled with diag - shift by
    one outer subtraction; a row then costs one division and one
    subtraction, unclamped.  A block in which some pivot needs the clamp is
    recomputed from its first pivot, row by row with the clamp, so the
    counts do not depend on the blocking.

    Every shift runs in every block, and the sweep ends at the first block
    end at which every shift is settled: no later row can change its capped
    count.  This is tested at block ends at least STURM_BLOCK_ROWS rows
    apart, and a shift is settled when (a) its count has reached k, or (b)
    the pivot q entering the next row j is negative or >= |e_{j-1}|, and
    every row i >= j is dominant by a margin:

        shift + m |shift| < d_i - rad_i - m (|d_i| + rad_i) - STURM_PIVMIN

    with |e| = sqrt(offdiag_sq), the magnitude the pivots divide, rad_i =
    |e_{i-1}| + |e_i| and m = STURM_TAIL_ULPS machine epsilons.  Each later
    pivot is then d_i - shift - e_{i-1}^2/q >= d_i - shift - |e_{i-1}| >=
    |e_i|, and > 0, by induction: the margin is about four times the
    rounding of a row's subtraction, division and square root and of the
    test itself, and STURM_PIVMIN covers the absolute rounding of subnormal
    values.  So the rows left would add nothing to the count of a shift
    settled by (b), and would only raise past k that of a shift settled by
    (a): the capped counts, and the bisection steps taken from them, are
    those of the full sweep.
    """
    x = np.atleast_1d(np.asarray(shifts, dtype=float))
    n = len(diag)
    d = np.asarray(diag, dtype=float)
    e = np.sqrt(offdiag_sq)  # |e| of the pivots' arithmetic; e^2 = inf gives no tail
    rad = np.zeros(n)
    rad[:-1] += e
    rad[1:] += e
    margin = STURM_TAIL_ULPS * np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN in a row: no tail before it
        lower = d - rad - margin * (np.abs(d) + rad) - STURM_PIVMIN
        floor = np.minimum.accumulate(lower[::-1])[::-1]  # floor[j]: min over rows i >= j
        reach = x + margin * np.abs(x)
    q = diag[0] - x  # the pivot entering the next block
    count = (q < 0).astype(np.int64)
    if not len(x):
        return count
    off_sq = offdiag_sq.tolist()
    block_rows = min(STURM_BLOCK_ROWS, max(1, STURM_BLOCK_ELEMENTS // len(x)))
    buf = np.empty((min(block_rows, n - 1) + 1, len(x)))  # row 0: the entering pivot
    buf[0] = q
    rows = list(buf)
    ratio = np.empty_like(x)
    check = 1 + STURM_BLOCK_ROWS
    for start in range(1, n, block_rows):
        stop = min(start + block_rows, n)
        block = buf[: stop - start + 1]
        np.subtract.outer(diag[start:stop], x, out=block[1:])
        e_sq = off_sq[start - 1 : stop - 1]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # redone if clamped
            for prev, row, e_i in zip(rows, rows[1 : len(block)], e_sq):
                np.divide(e_i, prev, out=ratio)
                np.subtract(row, ratio, out=row)
        if not np.abs(block[:-1]).min() >= STURM_PIVMIN:  # also true on a NaN pivot
            for j, (d_j, e_i) in enumerate(zip(diag[start:stop].tolist(), e_sq), 1):
                p = block[j - 1]
                clamp = np.where(p < 0, -STURM_PIVMIN, STURM_PIVMIN)
                p = np.where(np.abs(p) < STURM_PIVMIN, clamp, p)
                block[j] = d_j - x - e_i / p
        count += (block[1:] < 0).sum(axis=0)
        q = buf[0] = block[-1]
        if check <= stop < n:
            check = stop + STURM_BLOCK_ROWS
            if np.all((count >= k) | ((reach < floor[stop]) & ((q < 0) | (q >= e[stop - 1])))):
                break
    return np.minimum(count, k)


def _bisection_grid(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """The next MULTISECTION_DEPTH bisection steps of each bracket, as the
    ascending ends of their 2**MULTISECTION_DEPTH leaves.

    Row j runs from lows[j] to highs[j].  A node of level L spans
    2**(MULTISECTION_DEPTH - L) leaves, and its midpoint, the column halfway
    along it, is 0.5 * (lo + hi) of its two end columns: bisection's own
    arithmetic.  The columns 1 .. 2**MULTISECTION_DEPTH - 1 are the midpoints.
    """
    width = 1 << MULTISECTION_DEPTH
    ends = np.empty((len(lows), width + 1))
    ends[:, 0] = lows
    ends[:, width] = highs
    while width > 1:
        ends[:, width // 2 :: width] = 0.5 * (ends[:, :-1:width] + ends[:, width::width])
        width //= 2
    return ends


def _converged(lows, highs) -> bool:
    """Whether every bracket has converged: its width is at most STURM_RTOL
    times the larger magnitude of its ends."""
    return all(h - lo <= STURM_RTOL * max(abs(lo), abs(h)) for lo, h in zip(lows, highs))


def _halves(lows, highs, mids, down):
    """The brackets after one bisection step: the lower half where down."""
    return ([a if d else m for a, m, d in zip(lows, mids, down)],
            [m if d else b for b, m, d in zip(highs, mids, down)])


def _count_into(table: dict, diag, off_sq, k: int, shifts) -> None:
    """One sturm_count sweep over the shifts not yet in `table`, adding their
    counts (capped at k) to it."""
    fresh = [x for x in dict.fromkeys(shifts) if x not in table]
    if fresh:
        table.update(zip(fresh, sturm_count(diag, off_sq, np.array(fresh), k=k).tolist()))


def sturm_tridiag_eigs(diag, offdiag, k: int, *, guesses=None) -> list[float]:
    """k smallest eigenvalues of a symmetric tridiagonal matrix.

    Sturm-sequence bisection from Gershgorin bounds: before each step every
    bracket is tested for convergence (its width at most STURM_RTOL times the
    larger magnitude of its ends), then eigenvalue i halves its bracket at the
    midpoint 0.5 * (lo + hi), keeping the lower half when more than i
    eigenvalues lie below it.  The counts come from a table local to the
    call, shift -> count.  When a step's midpoint is missing, one sturm_count
    sweep fills it as multisection: each bracket walks ahead through the
    table, and each whose walk ends within MULTISECTION_DEPTH steps adds the
    2**MULTISECTION_DEPTH - 1 midpoints of its next MULTISECTION_DEPTH steps
    from there (_bisection_grid).  A sweep counts each shift not yet in the
    table once, and the table keeps only the counts that some walk reached,
    so it stays small.  Optional `guesses` (one per eigenvalue, any values, NaN
    too) make the first sweep count every midpoint of the path toward each
    guess until the predicted brackets converge.  Whatever the table holds,
    the steps are bisection's own, so the floats are too.
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
    if guesses is not None and np.shape(guesses) != (k,):
        raise DomainError("need one guess per eigenvalue")
    if n == 1:
        return [float(diag[0])]

    off_sq = offdiag * offdiag
    rad = np.zeros(n)
    rad[:-1] += np.abs(offdiag)
    rad[1:] += np.abs(offdiag)
    lows = [float(np.min(diag - rad))] * k
    highs = [float(np.max(diag + rad))] * k
    table: dict[float, int] = {}
    if guesses is not None:
        lo, hi, path = lows, highs, []
        g = np.asarray(guesses, dtype=float).tolist()
        for _ in range(BISECTION_MAX_STEPS):
            if _converged(lo, hi):
                break
            mids = [0.5 * (a + b) for a, b in zip(lo, hi)]
            path += mids
            lo, hi = _halves(lo, hi, mids, [x < m for x, m in zip(g, mids)])
        _count_into(table, diag, off_sq, k, path)
    for step in range(BISECTION_MAX_STEPS):
        if _converged(lows, highs):
            break
        mids = [0.5 * (a + b) for a, b in zip(lows, highs)]
        if not all(m in table for m in mids):
            reached, heads = {}, []
            for i in range(k):  # walk bracket i through the table, at most to the last step
                lo, hi = lows[i], highs[i]
                for ahead in range(BISECTION_MAX_STEPS - step):
                    mid = 0.5 * (lo + hi)
                    if mid not in table:
                        if ahead < MULTISECTION_DEPTH:
                            heads.append((lo, hi))
                        break
                    reached[mid] = table[mid]
                    lo, hi = (lo, mid) if reached[mid] > i else (mid, hi)
            table = reached
            ends = _bisection_grid(*np.array(heads).T)
            _count_into(table, diag, off_sq, k, ends[:, 1:-1].ravel().tolist())
        lows, highs = _halves(lows, highs, mids, [table[m] > i for i, m in enumerate(mids)])
    return [0.5 * (a + b) for a, b in zip(lows, highs)]


def _tridiag_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Thomas solve of (tridiag) x = rhs on Python floats (numpy's float64
    arithmetic without its per-scalar cost); a zero pivot becomes 1e-290."""
    cs, ds = [], []
    c = d = e_prev = 0.0  # a coupling-free row before row 0
    for a_i, e_i, b_i in zip(diag.tolist(), off.tolist() + [0.0], rhs.tolist()):
        denom = a_i - e_prev * c
        if denom == 0.0:
            denom = 1e-290
        c = e_i / denom
        d = (b_i - e_prev * d) / denom
        cs.append(c)
        ds.append(d)
        e_prev = e_i
    x = [d]
    for c_i, d_i in zip(reversed(cs[:-1]), reversed(ds[:-1])):
        d = d_i - c_i * d
        x.append(d)
    x.reverse()
    return np.array(x)


def _eigenvector(diag: np.ndarray, off: np.ndarray, tau: float, start: np.ndarray) -> np.ndarray:
    """Unit eigenvector near the eigenvalue tau: one solve of inverse iteration
    from `start`.  The shift lies 1e-10 |tau| off tau, so the solve damps each
    mode j of `start` against the mode of the eigenvalue tau_w nearest the
    shift by about |shift - tau_w| / |shift - tau_j|.  A solution without a
    finite, nonzero norm gives NaN entries."""
    shifted = diag - (tau + 1e-10 * max(1.0, abs(tau)))
    v = _tridiag_solve(shifted, off, start)
    with np.errstate(invalid="ignore", divide="ignore"):
        return v / np.linalg.norm(v)


def _carry(lower: RadialGridSpec, grid: RadialGridSpec, vectors) -> np.ndarray:
    """The eigenvectors w = r v of `lower`, carried to the nodes of `grid` on
    the same domain: v is smooth in s = ln(r / r_min) and zero at both walls,
    so it is interpolated linearly in s."""
    s_lower = np.arange(lower.points + 2) * lower.h  # both walls and the nodes between
    s = (np.arange(grid.points) + 1.0) * grid.h
    r_lower, r = lower.nodes(), grid.nodes()
    v = np.zeros(lower.points + 2)
    carried = np.empty((len(vectors), grid.points))
    for row, w in zip(carried, vectors):
        v[1:-1] = w / r_lower
        row[:] = np.interp(s, s_lower, v) * r
    return carried


def _rayleigh_quotients(vectors, diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """w^T T w / w^T w of each vector w on the matrix T = (diag, off); NaN
    for a vector without a finite, nonzero norm."""
    w = np.asarray(vectors, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ww = w * w
        quad = (ww * diag).sum(axis=1) + 2.0 * (w[:, :-1] * w[:, 1:] * off).sum(axis=1)
        return quad / ww.sum(axis=1)


def default_grid(
    params: PhysicalParams, k_levels: int, *, points: int = 2000
) -> RadialGridSpec:
    """Log-uniform grid from the cut-off to 3x the outer turning point of the
    k-th level (estimated from the oscillator ladder as a fallback height)."""
    if params.omega <= 0:
        raise DomainError("default_grid needs omega > 0; supply an explicit grid")
    e_top = params.omega * (2.0 * k_levels + 1.0) + params.energy_shift
    r_turn = model.outer_turning_radius(params, e_top)
    return RadialGridSpec(params.cutoff_R, 3.0 * r_turn, points)


def fd_eigensolve(params: PhysicalParams, grid: RadialGridSpec, k_levels: int) -> OracleResult:
    """k_levels lowest tau eigenvalues with half-step Richardson estimates.

    The grid and its half-step refinement are the top of a ladder that
    starts at a base grid on the same domain with max(100, k_levels + 1,
    points // 8) points, left out when it is not smaller than the grid.  Only
    the first grid is solved cold, and its eigenvectors come from one solve
    of inverse iteration each.  Each later grid starts from the eigenvectors
    of the grid below: each is carried to the new nodes (_carry), refined by
    one solve of inverse iteration on the new matrix at the lower grid's
    eigenvalue, and its Rayleigh quotient is the guess for the new
    eigenvalue.  On deep.cfg the guesses lie within about 1e-10 (relative) of
    the eigenvalues of both grids.  The floats are those of plain bisection
    whatever the guesses.

    Raises GridTooCoarse when a Richardson estimate exceeds 1% of the local
    level spacing, and DomainError when the topmost requested eigenfunction
    (the half-step grid's refined vector of that level) leaks more than 1e-6
    of its mass into the outer 5% of the domain (r_max too small).
    """
    if not 1 <= k_levels <= grid.points:
        raise DomainError("need 1 <= k_levels <= grid.points")
    k_work = min(k_levels + 1, grid.points)  # one spare level to gauge the spacing
    base = RadialGridSpec(grid.r_min, grid.r_max, max(100, k_work, grid.points // 8))
    ladder = ([base] if base.points < grid.points else []) + [grid, grid.refined()]
    fine = None
    for lower, upper in zip([None, *ladder], ladder):
        diag, off = build_tridiag(params, upper)
        if lower is None:
            taus = sturm_tridiag_eigs(diag, off, k_work)
            start = np.random.default_rng(12345).standard_normal(upper.points)
            vectors = [_eigenvector(diag, off, tau, start) for tau in taus]
        else:
            vectors = [_eigenvector(diag, off, tau, w)
                       for tau, w in zip(taus, _carry(lower, upper, vectors))]
            taus = sturm_tridiag_eigs(diag, off, k_work,
                                      guesses=_rayleigh_quotients(vectors, diag, off))
        coarse, fine = fine, taus
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

    v = vectors[k_levels - 1]
    tail = max(1, int(0.05 * len(v)))
    boundary_mass = float(np.sum(v[-tail:] ** 2))
    if boundary_mass > BOUNDARY_MASS_LIMIT:
        raise DomainError(
            f"eigenfunction mass {boundary_mass:.2e} within the outer 5% of the "
            f"domain exceeds {BOUNDARY_MASS_LIMIT:.0e}; increase r_max"
        )
    return OracleResult(taus, ests)
