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

Each eigenvalue comes from its own Sturm bisection, which stops at its own
convergence; all of them read their counts from one table local to each call,
which keeps every count that the multisection sweeps (two numpy calls per
matrix row) take: the steps, and so the floats, are bisection's own whatever
the table holds.  A half-step grid gives Richardson estimates.  Both grids are
the top of a ladder on one domain that starts at a base grid of an eighth of
the points, at most BASE_GRID_POINTS.  No grid is bisected cold: the first
grid of the ladder takes LAPACK's eigenvalues of its dense matrix, which a
base grid (never output) uses only as the shifts of its eigenvectors, and an
output grid only as the guesses of its bisection.  Each grid up the ladder is
warm-started from the one below: its eigenvectors, carried to the new nodes
by linear interpolation in ln r and refined by inverse iteration on the new
matrix (one cyclic-reduction solve for all levels), give Rayleigh quotients
that predict the bisection paths until each converges, and all their
midpoints are counted in the first sweep.  A sweep ends at the first tested
rows past which no shift's count can change what it decides: for each shift,
either the count has reached the number of wanted eigenvalues, or the rows
left are diagonally dominant below the shift (by a margin of STURM_TAIL_ULPS
epsilons per magnitude plus STURM_PIVMIN) and the entering pivot is negative
or at least the coupling, so that no later pivot can turn negative.  The
floats do not move; on the default grids most rows lie in the classically
forbidden region past the outer turning points, never swept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import DomainError, GridTooCoarse
from .model import PhysicalParams, is_count

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
# most points of a ladder's base grid, solved densely, unless k_levels + 1 needs more
BASE_GRID_POINTS = 256
# levels x padded rows per group of an inverse-iteration solve (512 KiB of float64)
SOLVE_BLOCK_ELEMENTS = 65536


@dataclass(frozen=True)
class RadialGridSpec:
    """Log-uniform discretization of [r_min, r_max] with `points` interior nodes."""

    r_min: float
    r_max: float
    points: int

    def __post_init__(self) -> None:
        if not self.r_min < self.r_max:
            raise DomainError("grid requires r_min < r_max")
        if not is_count(self.points):
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
    divide, subtract = np.divide, np.subtract  # the row loop's ufuncs, out passed by position
    check = 1 + STURM_BLOCK_ROWS
    for start in range(1, n, block_rows):
        stop = min(start + block_rows, n)
        block = buf[: stop - start + 1]
        np.subtract.outer(diag[start:stop], x, out=block[1:])
        e_sq = off_sq[start - 1 : stop - 1]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # redone if clamped
            for prev, row, e_i in zip(rows, rows[1 : len(block)], e_sq):
                divide(e_i, prev, ratio)
                subtract(row, ratio, row)
        if not np.abs(block[:-1]).min() >= STURM_PIVMIN:  # also true on a NaN pivot
            for j, (d_j, e_i) in enumerate(zip(diag[start:stop].tolist(), e_sq), 1):
                p = block[j - 1]
                clamp = np.where(p < 0, -STURM_PIVMIN, STURM_PIVMIN)
                p = np.where(np.abs(p) < STURM_PIVMIN, clamp, p)
                block[j] = d_j - x - e_i / p
        count += (block[1:] < 0).sum(axis=0, dtype=np.uint8)  # at most STURM_BLOCK_ROWS < 256
        q = buf[0] = block[-1]
        if check <= stop < n:
            check = stop + STURM_BLOCK_ROWS
            if np.all((count >= k) | ((reach < floor[stop]) & ((q < 0) | (q >= e[stop - 1])))):
                break
    return np.minimum(count, k)


def _midpoints(lo: float, hi: float, depth: int) -> list[float]:
    """The midpoints of the next `depth` bisection steps from [lo, hi] on every
    path, ascending: each is 0.5 * (lo + hi) of its bracket, as in bisection."""
    if depth == 0:
        return []
    mid = 0.5 * (lo + hi)
    return [*_midpoints(lo, mid, depth - 1), mid, *_midpoints(mid, hi, depth - 1)]


def _converged(lo: float, hi: float) -> bool:
    """Whether a bracket has converged: its width is at most STURM_RTOL times
    the larger magnitude of its ends."""
    return hi - lo <= STURM_RTOL * max(abs(lo), abs(hi))


def _count_into(table: dict, diag, off_sq, k: int, shifts) -> None:
    """One sturm_count sweep over the shifts not yet in `table`, adding their
    counts (capped at k) to it."""
    fresh = [x for x in dict.fromkeys(shifts) if x not in table]
    if fresh:
        table.update(zip(fresh, sturm_count(diag, off_sq, np.array(fresh), k=k).tolist()))


def sturm_tridiag_eigs(diag, offdiag, k: int, *, guesses) -> list[float]:
    """k smallest eigenvalues of a symmetric tridiagonal matrix.

    Each eigenvalue i is found by its own Sturm-sequence bisection from the
    Gershgorin bounds (as LAPACK's dlaebz retires each interval once it has
    converged): before each step, at most BISECTION_MAX_STEPS, its bracket is
    tested for convergence (width at most STURM_RTOL times the larger
    magnitude of its ends), then halved at the midpoint 0.5 * (lo + hi),
    keeping the lower half when more than i eigenvalues lie below it.  The
    counts come from a table local to the call, shift -> count, that keeps
    every count.  On each pass every eigenvalue walks its bisection through
    the table; one that meets a missing midpoint adds the
    2**MULTISECTION_DEPTH - 1 midpoints of its next MULTISECTION_DEPTH steps
    from there (_midpoints), and one sturm_count sweep counts them all as
    multisection.  The first pass that misses nothing gives each eigenvalue
    as the midpoint of its converged bracket.  `guesses` (None, or one per
    eigenvalue, any values, NaN too) make the first sweep count every
    midpoint of the path toward each guess until that bracket converges.
    Whatever the table holds, the steps are bisection's own, so the floats
    are too.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    n = len(diag)
    if len(offdiag) != max(n - 1, 0):
        raise DomainError("offdiag must have length len(diag) - 1")
    if not (is_count(k) and 1 <= k <= n):
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
    bounds = float(np.min(diag - rad)), float(np.max(diag + rad))
    table: dict[float, int] = {}
    if guesses is not None:
        path = []
        for g in np.asarray(guesses, dtype=float).tolist():
            lo, hi = bounds
            for _ in range(BISECTION_MAX_STEPS):
                if _converged(lo, hi):
                    break
                mid = 0.5 * (lo + hi)
                path.append(mid)
                lo, hi = (lo, mid) if g < mid else (mid, hi)
        _count_into(table, diag, off_sq, k, path)
    while True:
        eigs, shifts = [], []
        for i in range(k):
            lo, hi = bounds
            for _ in range(BISECTION_MAX_STEPS):
                if _converged(lo, hi):
                    break
                mid = 0.5 * (lo + hi)
                if mid not in table:
                    shifts += _midpoints(lo, hi, MULTISECTION_DEPTH)
                    break
                lo, hi = (lo, mid) if table[mid] > i else (mid, hi)
            eigs.append(0.5 * (lo + hi))
        if not shifts:
            return eigs
        _count_into(table, diag, off_sq, k, shifts)


def _eigenvectors(diag: np.ndarray, off: np.ndarray, taus, starts) -> np.ndarray:
    """Unit eigenvectors near the eigenvalues taus, one row each: one solve of
    inverse iteration per level from its entry of `starts`.  The shift lies
    1e-10 |tau| off tau, so the solve damps each mode j of the start against
    the mode of the eigenvalue tau_w nearest the shift by about
    |shift - tau_w| / |shift - tau_j|.  The levels are solved at once, in
    groups of at most SOLVE_BLOCK_ELEMENTS rows in all (one level at least),
    by odd-even cyclic reduction (Hockney 1965; Buzbee, Golub & Nielson 1970)
    on the matrix padded with uncoupled identity rows to 2**p - 1 rows: p
    steps eliminate the even rows into the odd ones, then back-substitution.
    An exact zero pivot becomes STURM_PIVMIN, and a solution without a
    finite, nonzero norm a row of NaN."""
    n = len(diag)
    size = (1 << n.bit_length()) - 1
    shifts = np.add(taus, 1e-10 * np.maximum(1.0, np.abs(taus)))
    vectors = np.empty((len(shifts), n))
    group = max(1, SOLVE_BLOCK_ELEMENTS // size)
    for first in range(0, len(shifts), group):
        rows = slice(first, first + group)
        f = np.zeros((len(vectors[rows]), size))  # the right-hand sides, then the diagonals
        b = f + 1.0
        b[:, :n], f[:, :n] = diag - shifts[rows, None], starts[rows]
        e = np.zeros((len(b), size + 1))  # e[:, i] couples rows i - 1 and i; none at both ends
        e[:, 1:n] = off
        steps = []
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # NaN rows below
            while b.shape[1]:
                piv = b[:, ::2]
                piv[piv == 0.0] = STURM_PIVMIN
                left, right, f_even = e[:, ::2], e[:, 1::2], f[:, ::2]
                up, down = right / piv, left / piv  # each even row's couplings over its pivot
                steps.append((piv, left, right, f_even))
                b = b[:, 1::2] - up[:, :-1] * right[:, :-1] - down[:, 1:] * left[:, 1:]
                f = f[:, 1::2] - up[:, :-1] * f_even[:, :-1] - down[:, 1:] * f_even[:, 1:]
                e = -left * up
            x = np.zeros((len(f), size + 2))  # row i of the solution at i + 1, zero past the ends
            for piv, left, right, f_even in reversed(steps):
                s = (size + 1) // (2 * len(piv[0]))  # the step's even rows: s - 1, 3 s - 1, ...
                near = x[:, :: 2 * s]  # and the rows next to them
                x[:, s :: 2 * s] = (f_even - left * near[:, :-1] - right * near[:, 1:]) / piv
        for row, v in zip(vectors[rows], x[:, 1 : n + 1]):
            norm = np.linalg.norm(v)
            row[:] = v / norm if 0.0 < norm < math.inf else math.nan
    return vectors


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
    for a vector without a finite, nonzero norm.  w^T T w is summed as
    sum s_i w_i^2 - sum e_i (w_i - w_{i+1})^2 with s the row sums of T: the
    large entries cancel within each row, not in the total."""
    w = np.asarray(vectors, dtype=float)
    row_sums = diag + np.concatenate(([0.0], off)) + np.concatenate((off, [0.0]))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ww = w * w
        return ((ww * row_sums).sum(axis=1) - (np.diff(w) ** 2 * off).sum(axis=1)) / ww.sum(axis=1)


def _dense_eigvals(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """All eigenvalues (ascending) of the symmetric tridiagonal (diag, off),
    by LAPACK on its dense matrix."""
    n = len(diag)
    dense = np.diag(diag)
    dense.flat[1 :: n + 1] = off
    dense.flat[n :: n + 1] = off
    return np.linalg.eigvalsh(dense)


def default_grid(
    params: PhysicalParams, k_levels: int, *, points: int = 2000
) -> RadialGridSpec:
    """Log-uniform grid from the cut-off to 3x the outer turning point of the
    k-th level (estimated from the oscillator ladder as a fallback height)."""
    if params.omega <= 0:
        raise DomainError("default_grid needs omega > 0; supply an explicit grid")
    if not is_count(k_levels):
        raise DomainError("default_grid needs an integer k_levels")
    e_top = params.omega * (2.0 * k_levels + 1.0) + params.energy_shift
    r_turn = model.outer_turning_radius(params, e_top)
    return RadialGridSpec(params.cutoff_R, 3.0 * r_turn, points)


def fd_eigensolve(params: PhysicalParams, grid: RadialGridSpec, k_levels: int) -> OracleResult:
    """k_levels lowest tau eigenvalues with half-step Richardson estimates.

    The grid and its half-step refinement are the top of a ladder that
    starts at a base grid on the same domain with max(100, k_levels + 1,
    min(points // 8, BASE_GRID_POINTS)) points, left out when it is not
    smaller than the grid.  The first grid of the ladder takes its estimates
    from one dense LAPACK solve (_dense_eigvals).  A base grid is never
    bisected: its estimates serve only as the shifts of its eigenvectors.
    Without a base they are only the guesses of the grid's bisection.  The
    first grid's eigenvectors come from one solve of inverse iteration each,
    from a seeded random start.  Each later grid starts from the eigenvectors
    of the grid below: each is carried to the new nodes (_carry), refined by
    one solve of inverse iteration on the new matrix at the lower grid's
    eigenvalue (all levels in one call, _eigenvectors), and its Rayleigh
    quotient is the guess for the new eigenvalue.  On deep.cfg the guesses
    lie within about 1e-10 (relative) of the eigenvalues of both grids.  The
    floats are those of plain bisection whatever the guesses.

    Raises GridTooCoarse when a Richardson estimate exceeds 1% of the local
    level spacing, and DomainError when the topmost requested eigenfunction
    (the half-step grid's refined vector of that level) leaks more than 1e-6
    of its mass into the outer 5% of the domain (r_max too small), or is not
    a finite vector.
    """
    if not (is_count(k_levels) and 1 <= k_levels <= grid.points):
        raise DomainError("need 1 <= k_levels <= grid.points")
    k_work = min(k_levels + 1, grid.points)  # one spare level to gauge the spacing
    base = RadialGridSpec(grid.r_min, grid.r_max,
                          max(100, k_work, min(grid.points // 8, BASE_GRID_POINTS)))
    ladder = ([base] if base.points < grid.points else []) + [grid, grid.refined()]
    diag, off = build_tridiag(params, ladder[0])
    fine = _dense_eigvals(diag, off)[:k_work].tolist()
    if ladder[0] is grid:  # no base grid: LAPACK's values are only guesses
        fine = sturm_tridiag_eigs(diag, off, k_work, guesses=fine)
    start = np.random.default_rng(12345).standard_normal(len(diag))
    vectors = _eigenvectors(diag, off, fine, [start] * len(fine))
    for lower, upper in zip(ladder, ladder[1:]):
        diag, off = build_tridiag(params, upper)
        vectors = _eigenvectors(diag, off, fine, _carry(lower, upper, vectors))
        coarse, fine = fine, sturm_tridiag_eigs(
            diag, off, k_work, guesses=_rayleigh_quotients(vectors, diag, off))
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
    if not boundary_mass <= BOUNDARY_MASS_LIMIT:  # a NaN mass fails too
        if math.isnan(boundary_mass):
            raise DomainError("the eigenfunction of the leak check is not a finite vector, "
                              "so its mass within the outer 5% of the domain is unknown")
        raise DomainError(
            f"eigenfunction mass {boundary_mass:.2e} within the outer 5% of the "
            f"domain exceeds {BOUNDARY_MASS_LIMIT:.0e}; increase r_max"
        )
    return OracleResult(taus, ests)
