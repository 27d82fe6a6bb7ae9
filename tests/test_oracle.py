"""Tests for the finite-difference eigensolver and its Sturm kernel."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import j0, y0

from dipolewell import cli, oracle
from dipolewell.errors import DomainError, GridTooCoarse
from dipolewell.model import PhysicalParams
from dipolewell.oracle import RadialGridSpec

from oracles import (deep_params, reference_eigenvector, reference_sturm_count,
                     reference_sturm_eigs, reference_tridiag_solve)

# deep regime: exact E_1, E_2 from the 40-digit quantization oracle
DEEP_E = (-293.9131309116332609364, -76.79106144608003514938)


def oscillator_params(**kw) -> PhysicalParams:
    # alpha ~ 0 switches the dipole term off without leaving the type's domain
    base = dict(
        mass_m=1.0,
        polarizability_alpha=1e-300,
        field_coupling_lambda=1.0,
        omega=1.0,
        cutoff_R=1e-6,
        ell=0,
        p_z=0.0,
    )
    base.update(kw)
    return PhysicalParams(**base)


# ---------------------------------------------------------------------------
# Sturm tridiagonal kernel
# ---------------------------------------------------------------------------


def test_sturm_discrete_laplacian_closed_form():
    n = 120
    diag = np.full(n, 2.0)
    off = np.full(n - 1, -1.0)
    got = oracle.sturm_tridiag_eigs(diag, off, [math.nan] * 6)
    expect = [2.0 - 2.0 * math.cos((j + 1) * math.pi / (n + 1)) for j in range(6)]
    assert max(abs(g - e) for g, e in zip(got, expect)) <= 1e-12


def test_sturm_matches_dense_reference():
    rng = np.random.default_rng(77)
    diag = rng.uniform(-3, 3, size=50)
    off = rng.uniform(-2, 2, size=49)
    got = oracle.sturm_tridiag_eigs(diag, off, [math.nan] * 12)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    expect = np.sort(np.linalg.eigvalsh(dense))[:12]
    assert np.max(np.abs(np.array(got) - expect)) <= 1e-10


def test_sturm_one_by_one():
    assert oracle.sturm_tridiag_eigs([5.0], [], [math.nan]) == [5.0]


def test_sturm_validates_input():
    with pytest.raises(DomainError):
        oracle.sturm_tridiag_eigs([1.0, 2.0], [0.5, 0.5], [math.nan])
    with pytest.raises(DomainError):
        oracle.sturm_tridiag_eigs([1.0, 2.0], [0.5], [math.nan] * 3)
    # non-finite entries once came back as NaN eigenvalues
    with pytest.raises(DomainError):
        oracle.sturm_tridiag_eigs([math.nan, 1.0], [0.5], [math.nan])
    with pytest.raises(DomainError):
        oracle.sturm_tridiag_eigs([1.0, 2.0], [math.inf], [math.nan] * 2)
    # k is the number of guesses, one per eigenvalue: 1-D, 1 <= k <= n
    for guesses in ([0.0, 1.0, 2.0, 3.0], [], 1.0, [[1.0], [2.0]]):
        with pytest.raises(DomainError):
            oracle.sturm_tridiag_eigs([1.0, 2.0, 3.0], [0.5, 0.5], guesses)
    # one guess is a k = 1 solve; it was once broadcast to every eigenvalue
    assert oracle.sturm_tridiag_eigs([1.0, 2.0, 3.0], [0.5, 0.5], [1.0]) == (
        reference_sturm_eigs([1.0, 2.0, 3.0], [0.5, 0.5], 1))


@pytest.mark.parametrize("diag,off", [
    ([1e308, -1e308], [1e308]),  # the squared coupling overflows: once [nan, nan]
    ([1.7e308, 1.7e308], [1e-300]),  # lo + hi overflows: once [inf, inf]
    ([9e307, 9.5e307, 1e307], [1.0, 1.0]),  # once inf for the top two
    ([0.0, 0.0, 0.0], [1e160, 1e160]),  # e^2 overflows too: once [-2e160, 2e160, 2e160]
], ids=["coupling", "sum", "top_two", "wrong_values"])
def test_sturm_rejects_matrices_past_double_range(diag, off):
    with pytest.raises(DomainError, match="double range"):
        oracle.sturm_tridiag_eigs(diag, off, [math.nan] * len(diag))


def test_sturm_near_double_range():
    # twice the top Gershgorin bound is 1.6e308, still finite
    got = oracle.sturm_tridiag_eigs([1e307, 8e307], [1.0], [math.nan] * 2)
    assert got == pytest.approx([1e307, 8e307], rel=1e-13)


def test_sturm_small_eigenvalue_beside_a_huge_one():
    # once 2.967e240: the bracket stopped unconverged at a cap of 220 steps
    got = oracle.sturm_tridiag_eigs([5.0, 1e307], [1.0], [math.nan] * 2)
    assert abs(got[0] - 5.0) <= 1e-12


_GRADED = 10.0 ** np.arange(300, -301, -50)  # 1e300 down to 1e-300
_GRADED_OFF = 1e-2 * np.minimum(_GRADED[1:], 1e150)  # 1e-2 of the smaller row, at most 1e148


@pytest.mark.parametrize("diag,off,sweeps", [
    ([5.0, 1e307], [1.0], 177),
    ([0.0, 0.0, 0.0], [1e150, 1e150], 244),  # a zero eigenvalue
    ([3e-320, 1.0], [1e-200], 161),  # a subnormal one
    (_GRADED, _GRADED_OFF, 327),
], ids=["beside_a_huge_one", "zero", "subnormal", "graded"])
def test_sturm_walks_end_by_the_width_rule(diag, off, sweeps, monkeypatch):
    # each bracket ends at most 1e-13 (relative) or STURM_PIVMIN wide, after
    # more than the 220 steps that once capped every walk
    calls = []
    count = oracle.sturm_count
    monkeypatch.setattr(oracle, "sturm_count",
                        lambda d, o, x: calls.append(len(x)) or count(d, o, x))
    got = oracle.sturm_tridiag_eigs(diag, off, [math.nan] * len(diag))
    assert [x.hex() for x in got] == [x.hex() for x in reference_sturm_eigs(diag, off, len(diag))]
    assert len(calls) <= sweeps


def test_sturm_graded_eigenvalues_keep_relative_accuracy():
    # the eigenvalues are the diagonal's to 1e-50 (relative): the width rule
    # keeps 1e-13 of each down to 1e-250, and 1e-300 lies within STURM_PIVMIN
    got = oracle.sturm_tridiag_eigs(_GRADED, _GRADED_OFF, [math.nan] * len(_GRADED))
    assert got == pytest.approx(sorted(_GRADED), rel=1e-12, abs=oracle.STURM_PIVMIN)


def test_sturm_clamped_pivot_overflows_quietly():
    # a squared coupling over the clamped pivot overflows to inf in the row
    # recompute; once that raised RuntimeWarning (an error under this suite)
    got = oracle.sturm_tridiag_eigs([0.0, 0.0, 0.0], [1e150, 1e150], [math.nan] * 3)
    assert got == reference_sturm_eigs([0.0, 0.0, 0.0], [1e150, 1e150], 3)


def test_sturm_ascending():
    rng = np.random.default_rng(5)
    diag = rng.uniform(-1, 1, size=30)
    off = rng.uniform(-1, 1, size=29)
    got = oracle.sturm_tridiag_eigs(diag, off, [math.nan] * 8)
    assert all(a <= b + 1e-13 for a, b in zip(got, got[1:]))


# ---------------------------------------------------------------------------
# Multisection gives the floats of the one-midpoint bisection of tests/oracles.py
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def deep_matrices():
    """Coarse and refined tridiagonals of deep.cfg at the default grid, and the grid."""
    p = deep_params()
    grid = oracle.default_grid(p, 2)
    return {"coarse": oracle.build_tridiag(p, grid),
            "refined": oracle.build_tridiag(p, grid.refined()), "grid": grid}


@pytest.fixture(scope="module")
def deep_references(deep_matrices):
    """The three lowest eigenvalues of both deep.cfg matrices by reference_sturm_eigs."""
    return {which: reference_sturm_eigs(*deep_matrices[which], 3)
            for which in ("coarse", "refined")}


@pytest.mark.parametrize("which", ["coarse", "refined"])
def test_multisection_bit_identical_on_deep_grids(deep_matrices, deep_references, which):
    diag, off = deep_matrices[which]
    assert oracle.sturm_tridiag_eigs(diag, off, [math.nan] * 3) == deep_references[which]


def _random_tridiag(n: int, seed: int):
    rng = np.random.default_rng(seed)
    return rng.uniform(-3, 3, size=n), rng.uniform(-2, 2, size=n - 1)


@pytest.mark.parametrize(
    "diag,off,k",
    [
        (np.full(120, 2.0), np.full(119, -1.0), 6),  # discrete Laplacian
        (*_random_tridiag(50, 77), 1),
        (*_random_tridiag(50, 78), 50),  # k = n
        (np.array([1.0, 2.0]), np.array([1.0]), 2),  # n = 2
    ],
    ids=["laplacian", "k1", "k_eq_n", "n2"],
)
def test_multisection_bit_identical_small(diag, off, k):
    assert oracle.sturm_tridiag_eigs(diag, off, [math.nan] * k) == (
        reference_sturm_eigs(diag, off, k))


@pytest.mark.parametrize(
    "diag,off,shifts,expect",
    [
        ([1.0, 2.0], [1.0], [1.0], [1]),  # q is exactly 0 after row 0
        ([-0.0, 1.0], [1.0], [0.0], [1]),  # q is -0.0: clamps to +pivmin
        ([1.0, 2.0], [1.0], [1.0, 0.5, 3.0], [1, 1, 2]),  # one shift of three clamps
    ],
)
def test_sturm_count_pivot_clamp(diag, off, shifts, expect):
    diag, off_sq, shifts = np.array(diag), np.array(off) ** 2, np.array(shifts)
    got = oracle.sturm_count(diag, off_sq, shifts).tolist()
    assert got == expect == reference_sturm_count(diag, off_sq, shifts).tolist()


def test_sturm_count_no_shifts():
    diag, off = _random_tridiag(300, 7)
    got = oracle.sturm_count(diag, off * off, np.array([]))
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_sturm_count(diag, off * off, np.array([])))


@pytest.mark.parametrize("shifts", [[-1.0, 2.0, 2.5, 3.0], [2.0]])
def test_sturm_count_one_by_one(shifts):
    diag, off_sq, shifts = np.array([2.0]), np.array([]), np.array(shifts)
    got = oracle.sturm_count(diag, off_sq, shifts)
    assert np.array_equal(got, reference_sturm_count(diag, off_sq, shifts))


# shifts per sweep that give blocks of _B rows in sturm_count
_M = oracle.STURM_BLOCK_ELEMENTS // 4
_B = oracle.STURM_BLOCK_ELEMENTS // _M


@pytest.mark.parametrize(
    "n,zero_rows,m",
    [
        (43, [_B], _M),  # the first row of the second block divides by a -0.0 pivot
        (43, [2 * _B - 1], _M),  # ... the last row of a block
        (43, [41], _M),  # ... the last row of the matrix
        (4 * _B + 1, [_B, 4 * _B - 1], _M),  # n - 1 a multiple of the block rows
        (2, [0], _M),
        (50, [3, 17], 1),  # one shift: the whole matrix in one block
        (30, [0, 7, 20], oracle.STURM_BLOCK_ELEMENTS + 1),  # one row per block
    ],
    ids=["block_first_row", "block_last_row", "last_matrix_row", "exact_multiple", "n2",
         "one_shift", "one_row_blocks"],
)
def test_sturm_count_blocks_match_reference(n, zero_rows, m):
    # unclamped, row j + 1 would divide by -0.0 and count +inf where the
    # clamp to +pivmin gives a negative pivot
    diag, off = _random_tridiag(n, 80 + n)
    shifts = np.linspace(-4.0, 4.0, m)
    shifts[m // 2] = 0.0
    for j in zero_rows:  # at shift 0.0 the pivot of row j - 1 is 10.0, of row j -0.0
        if j:
            diag[j - 1] = 10.0
            off[max(j - 2, 0) : j] = 0.0
        diag[j] = -0.0
        off[j] = 1.0
    off_sq = off * off
    got = oracle.sturm_count(diag, off_sq, shifts)
    assert np.array_equal(got, reference_sturm_count(diag, off_sq, shifts))


@pytest.mark.parametrize(
    "diag,off",
    [
        ([0.0, -0.0, 0.0, -0.0, 0.0], [1.0, 1.0, 1.0, 1.0]),  # eigenvalue 0: STURM_PIVMIN wide
        ([-0.0, 0.0, -0.0, 0.0], [0.5, -2.0, 0.5]),
        # subnormal: the Gershgorin bracket is already within STURM_PIVMIN
        ([-5e-324, -0.0, 0.0, 5e-324], [1e-322, 1e-322, 1e-322]),
    ],
    ids=["zero_eigenvalue", "symmetric", "subnormal"],
)
@pytest.mark.parametrize("guess", [math.nan, 0.0, -0.0], ids=["no_guess", "zero", "minus_zero"])
def test_signed_zero_midpoints_bit_identical(diag, off, guess):
    # symmetric Gershgorin bounds make 0.0 the first midpoint; 0.0 and -0.0
    # compare equal, so a solve counts only one of them, and both give the
    # same count
    k = len(diag)
    got = oracle.sturm_tridiag_eigs(diag, off, [guess] * k)
    assert [x.hex() for x in got] == [x.hex() for x in reference_sturm_eigs(diag, off, k)]


def _bisection_path_midpoints(lo: float, hi: float, depth: int) -> list[float]:
    """The midpoints of every path of `depth` plain bisection steps from [lo, hi],
    each path walked on its own: each node once, at the first path through it."""
    mids = {}
    for path in range(1 << depth):
        a, b, node = lo, hi, 1
        for step in range(depth):
            m = 0.5 * (a + b)
            mids.setdefault(node, m)
            down = not path >> (depth - 1 - step) & 1
            a, b, node = (a, m, 2 * node) if down else (m, b, 2 * node + 1)
    return list(mids.values())


@pytest.mark.parametrize("depth", [0, 1, 2, 6])
@pytest.mark.parametrize(
    "lo,hi",
    [(-1.0, 3.0), (-2.5, -2.5), (5e-324, 5e-324), (0.0, 5e-324), (-5e-324, 1e-320),
     (-1.7e308, 1.7e308), (1.6e308, 1.7e308), (-1.7e308, -1.6e308), (-0.0, 0.0),
     (-293.91313092804558, -293.9131309280456), (1.0, 1.0 + 2.0**-52)],
)
def test_midpoints_are_those_of_bisection_paths(lo, hi, depth):
    # bit for bit the midpoints that plain bisection meets on its 2**depth paths,
    # ascending; an overflowing sum gives inf, as bisection's own does
    got = oracle._midpoints(lo, hi, depth)
    want = _bisection_path_midpoints(lo, hi, depth)
    assert len(got) == (1 << depth) - 1
    assert sorted(x.hex() for x in got) == sorted(x.hex() for x in want)
    assert got == sorted(got)


def test_multisection_many_levels_bit_identical():
    # k = 200: 12600 shifts per sweep
    diag, off = _random_tridiag(400, 79)
    assert oracle.sturm_tridiag_eigs(diag, off, [math.nan] * 200) == (
        reference_sturm_eigs(diag, off, 200))


class _RowsRead(np.ndarray):
    """A view of a diagonal that records the highest row read through it."""

    def __getitem__(self, key):
        stop = key.stop if isinstance(key, slice) else int(key) + 1
        self.rows_read = max(getattr(self, "rows_read", 0), stop)
        return np.asarray(self)[key]


def _count_sweeps(monkeypatch, k: int):
    """(rows read, matrix size, shifts) of each sturm_count sweep of the
    fd_eigensolve of k levels on deep.cfg's default grid."""
    calls = []
    count = oracle.sturm_count

    def counting(diag, offdiag_sq, shifts):
        seen = diag.view(_RowsRead)
        result = count(seen, offdiag_sq, shifts)
        calls.append((seen.rows_read, len(diag), len(shifts)))
        return result

    monkeypatch.setattr(oracle, "sturm_count", counting)
    p = deep_params()
    oracle.fd_eigensolve(p, oracle.default_grid(p, k), k)
    return calls


def test_deep_solve_sweep_count(monkeypatch):
    # one sweep per output grid: each grid's guesses come from two solves of
    # inverse iteration, so the bracket each guess's descent stops at (2**6
    # convergence widths wide) holds its eigenvalue; the sweep counts its two
    # ends and its 63 midpoints, which carry the walk to convergence.  The
    # coarse grid bisects the 2 levels reported (130 shifts, none counted
    # twice, in blocks of 126 rows), the half-step grid the spare level too
    # (195 shifts, blocks of 84 rows), and each sweep stops at the first
    # block end where only rows past the turning points are left: 757 and
    # 1849 rows, 2606 of 6001
    calls = _count_sweeps(monkeypatch, 2)
    assert [n for _, n, _ in calls] == [2000, 4001]
    swept, total, shifts = map(sum, zip(*calls))
    assert total == 6001 and swept <= 2606 and shifts <= 325


def test_deep_solve_sweep_count_many_levels(monkeypatch):
    # k = 20 levels on the coarse grid, 21 with the spare on the fine one: 3
    # sweeps (2 coarse, 1 fine) of 5927 rows and 2729 shifts.  On the coarse
    # grid the guessed bracket of the lowest level fails its check, and the
    # second sweep counts the bracket beside it (64 shifts, 513 rows)
    calls = _count_sweeps(monkeypatch, 20)
    sizes = [n for _, n, _ in calls]
    assert sizes == sorted(sizes) and set(sizes) == {2000, 4001}
    assert len(sizes) <= 3 and sizes.count(4001) == 1
    swept, _, shifts = map(sum, zip(*calls))
    assert swept <= 5927 and shifts <= 2729


@pytest.mark.parametrize("points,k", [(2000, 10), (2000, 20), (100, 2), (100, 100)],
                         ids=["10", "20", "no_base", "k_is_points"])
def test_deep_solve_many_levels_gives_bisection_floats(points, k, monkeypatch):
    # the second inverse-iteration solve and the subtrees of the first sweep
    # take k = 20 from 9 sweeps to 4, and bisecting the spare level on the
    # half-step grid only to 3; both output grids keep plain bisection's
    # floats, hex for hex.  The N-point grid bisects the k levels it reports,
    # the half-step grid also the spare level whose spacing the guard reads
    # (none at k = N).  At 100 points there is no base grid: the output grid
    # is the first of the ladder, and at k = N = 100 the guard raises on the
    # top levels of so coarse a grid
    eigs = oracle.sturm_tridiag_eigs
    solved = []

    def recording(diag, off, guesses):
        taus = eigs(diag, off, guesses)
        solved.append((diag, off, len(guesses), taus))
        return taus

    monkeypatch.setattr(oracle, "sturm_tridiag_eigs", recording)
    p = deep_params()
    grid = oracle.default_grid(p, k, points=points)
    with pytest.raises(GridTooCoarse) if k == points else contextlib.nullcontext():
        res = oracle.fd_eigensolve(p, grid, k)
    assert [(len(diag), k_work) for diag, _, k_work, _ in solved] == [
        (points, k), (2 * points + 1, min(k + 1, points))]
    for diag, off, k_work, taus in solved:
        want = reference_sturm_eigs(diag, off, k_work)
        assert [t.hex() for t in taus] == [t.hex() for t in want]
    if k < points:
        assert res.eigenvalues_tau == taus[:k]  # the half-step grid's


def _perfbench_workloads(monkeypatch):
    """perfbench/workloads.py, which builds the benchmark's inputs."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed,most", [
    (1, [(2, 325), (2, 455), (2, 325), (4, 517)]),
    (2, [(2, 325), (2, 455), (2, 325), (3, 389)]),
    (3, [(2, 325), (2, 455), (2, 325), (3, 389)]),
])
def test_oracle_validate_workload_sweeps(seed, most, monkeypatch):
    # Sturm sweeps and shifts of each `validate` problem of the oracle-validate
    # workload (deep.cfg, then grids of 500, 700 and 1000 points), at most
    # those of today's walk: one sweep per output grid, but on the 1000-point
    # problem, where the guessed brackets of 3, 1 and 1 eigenvalues (seeds
    # 1-3) fail their check and the next sweep counts the bracket beside them
    calls = []
    count = oracle.sturm_count
    monkeypatch.setattr(oracle, "sturm_count",
                        lambda d, o, x: calls.append(len(x)) or count(d, o, x))
    taken = []
    for problem in _perfbench_workloads(monkeypatch).oracle_validate(seed):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(problem.argv)) == 0
        taken.append((len(calls), sum(calls)))
    assert all(t <= m and n <= s for (t, n), (m, s) in zip(taken, most, strict=True)), taken


@st.composite
def tridiagonals(draw):
    """Symmetric tridiagonals with entries spanning eight decades, and a k."""
    n = draw(st.integers(2, 60))

    def entries(size: int) -> np.ndarray:
        mantissas = draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
        exponents = draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
        return np.array([m * 10.0**e for m, e in zip(mantissas, exponents)])

    diag, off = entries(n), entries(n - 1)
    return diag, off, draw(st.integers(1, n))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(tridiagonals())
def test_multisection_bit_identical_property(case):
    diag, off, k = case
    assert oracle.sturm_tridiag_eigs(diag, off, [math.nan] * k) == (
        reference_sturm_eigs(diag, off, k))


# ---------------------------------------------------------------------------
# Early stop: a sweep ends once no later row can change any shift's count
# ---------------------------------------------------------------------------

# the first block end at which sturm_count may end a sweep, for up to 128 shifts
_CHECK = oracle.STURM_BLOCK_ROWS + 1


def _tailed_tridiag(head, e_tail, c_tail, entering, seed, at_floor=False):
    """A random head of `head` rows whose last row is cut off from the rest
    (zero off-diagonal), then a tail coupled by the off-diagonals `e_tail`
    with diag_i = (|e_{i-1}| + |e_i|) + c_i.  The head's last diagonal is
    `entering` (plus the shift one ulp below the tail's Gershgorin floor,
    with at_floor): the pivot entering the tail at shift 0 (at that shift)
    is `entering`, exactly wherever the sum is exact.  Returns diag, off,
    the shifts 0, the floor and one ulp either side of it, and k = n."""
    rng = np.random.default_rng(seed)
    n = head + len(e_tail)
    diag, off = rng.uniform(-3, 3, n), rng.uniform(-2, 2, n - 1)
    e = np.asarray(e_tail, dtype=float)
    off[head - 2] = 0.0
    off[head - 1 :] = e
    rad = e + np.append(e[1:], 0.0)
    diag[head:] = rad + np.asarray(c_tail, dtype=float)
    floor = float(np.min(diag[head:] - rad))
    below = float(np.nextafter(floor, -np.inf))
    diag[head - 1] = entering + (below if at_floor else 0.0)
    shifts = np.array([0.0, below, floor, np.nextafter(floor, np.inf)])
    return diag, off, shifts, n


@st.composite
def tailed_tridiagonals(draw):
    """_tailed_tridiag with the tail starting at an early-stop check or a row
    or two before it, some tail off-diagonals and margins c_i zero, entering
    pivots 0, +-STURM_PIVMIN, NaN, |e| and its neighbours, and a k."""
    e_tail = draw(st.lists(st.integers(0, 30).map(lambda i: i / 10), min_size=1, max_size=6))
    c_tail = draw(st.lists(st.sampled_from([0.0, 1e-3, 1.0]), min_size=len(e_tail),
                           max_size=len(e_tail)))
    e0 = e_tail[0]
    entering = draw(st.sampled_from([0.0, oracle.STURM_PIVMIN, -oracle.STURM_PIVMIN, math.nan,
                                     e0, np.nextafter(e0, -np.inf), np.nextafter(e0, np.inf),
                                     -1.0, 2.5]))
    head = _CHECK - draw(st.integers(0, 2))
    diag, off, shifts, n = _tailed_tridiag(head, e_tail, c_tail, entering,
                                           draw(st.integers(0, 2**32 - 1)), draw(st.booleans()))
    return diag, off, shifts, draw(st.integers(1, n))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(tailed_tridiagonals())
# the edges of the tail rule.  0.1 * 0.1 / 0.1 rounds one ulp above 0.1, so
# the pivot |e| = 0.1 entering a last row at its floor leaves it a pivot of
# -1 ulp there: only the margin keeps the shift one ulp below from settling
@example(_tailed_tridiag(_CHECK, [0.1], [0.0], 0.1, 90))  # floor 0: the ulps of |d| + rad
@example(_tailed_tridiag(_CHECK, [0.1], [1e-3], 0.1, 90, at_floor=True))  # the ulps terms
@example(_tailed_tridiag(_CHECK, [1.0, 1.0], [1.0, 1.0], 0.0, 90))  # clamped to +pivmin
@example(_tailed_tridiag(_CHECK, [1.0, 1.0], [1.0, 1.0], oracle.STURM_PIVMIN, 90))
@example(_tailed_tridiag(_CHECK, [1.0, 1.0], [1.0, 1.0], 0.5, 90))  # 0 < q < |e|
@example(_tailed_tridiag(_CHECK, [1.0, 0.0, 1.0], [1.0, 0.0, 0.0], -oracle.STURM_PIVMIN, 90))
def test_sturm_count_tail_rule_property(case):
    diag, off, shifts, k = case
    off_sq = off * off
    got = oracle.sturm_count(diag, off_sq, shifts)
    assert np.array_equal(got, reference_sturm_count(diag, off_sq, shifts))
    if np.all(np.isfinite(diag)):
        assert oracle.sturm_tridiag_eigs(diag, off, [math.nan] * k) == (
            reference_sturm_eigs(diag, off, k))


def test_sturm_count_tail_rule_pivmin_term():
    # couplings of 1e-300 square to 0, and the tail's diagonal of 1e-300 puts
    # its floor 1e-300 above the shift 0, where the relative margin, 8 ulps of
    # 1e-300, is subnormal: only the STURM_PIVMIN term keeps the shift
    # unsettled, so the sweep reads every row.  Without the term the sweep
    # ends at the first check with the same count: at these scales the rows'
    # arithmetic is exact, so the term decides where a sweep may end, not a
    # count
    n = _CHECK + 50
    diag, _ = _random_tridiag(n, 91)
    diag[_CHECK:] = 1e-300
    off_sq = np.full(n - 1, 1e-300) ** 2
    seen = diag.view(_RowsRead)
    got = oracle.sturm_count(seen, off_sq, np.array([0.0]))
    assert np.array_equal(got, reference_sturm_count(diag, off_sq, [0.0]))
    assert seen.rows_read == n


@pytest.mark.parametrize("which", ["coarse", "refined"])
def test_sturm_count_stops_early_on_deep_grids(deep_matrices, which):
    # shifts at the three lowest eigenvalues settle by the tail rule: the
    # count at the third changes only at row 852 of the coarse grid's 2000.
    # Shifts from one ulp above the third eigenvalue up to the Gershgorin top
    # count every eigenvalue below them, not just the three: the top ones
    # lie above every row's floor, so their sweep reads every row
    diag, off = deep_matrices[which]
    eigs = oracle.sturm_tridiag_eigs(diag, off, [math.nan] * 3)
    seen = diag.view(_RowsRead)
    got = oracle.sturm_count(seen, off * off, np.array(eigs))
    assert np.array_equal(got, reference_sturm_count(diag, off * off, np.array(eigs)))
    assert seen.rows_read <= 0.45 * len(diag)
    above = np.linspace(eigs[2], _gershgorin(diag, off)[1], 9)
    above[0] = np.nextafter(eigs[2], np.inf)
    seen = diag.view(_RowsRead)
    got = oracle.sturm_count(seen, off * off, above)
    assert np.array_equal(got, reference_sturm_count(diag, off * off, above))
    assert got[-1] == seen.rows_read == len(diag)


# ---------------------------------------------------------------------------
# Monotone counts: the premise on which a counted bracket settles every
# bisection step above it.  The Sturm count of a symmetric tridiagonal in
# IEEE arithmetic, each pivot (d_i - x) - e_{i-1}^2 / q clamped away from
# zero, never decreases as the shift x grows (Kahan, "Accurate eigenvalues
# of a symmetric tri-diagonal matrix", Stanford CS41, 1966; Demmel, Dhillon
# & Ren, "On the correctness of some bisection-like parallel eigenvalue
# algorithms in floating point arithmetic", ETNA 3, 1995)
# ---------------------------------------------------------------------------


def _assert_counts_ascend(diag, off, shifts):
    """sturm_count's counts at the shifts, sorted, never decrease."""
    shifts = np.sort(np.asarray(shifts, dtype=float))
    got = oracle.sturm_count(np.asarray(diag, dtype=float), np.asarray(off, dtype=float) ** 2,
                             shifts)
    assert np.all(np.diff(got) >= 0), list(zip(shifts.tolist(), got.tolist()))


def _around(values):
    """Each value and its neighbouring floats, where a count changes."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(tridiagonals(), st.lists(st.floats(-1e5, 1e5), max_size=20))
def test_sturm_counts_ascend_property(case, extra):
    # entries over eight decades, shifts at and one ulp either side of each
    # eigenvalue
    diag, off, _ = case
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    _assert_counts_ascend(diag, off, np.concatenate([_around(np.linalg.eigvalsh(dense)), extra]))


@st.composite
def clamped_tridiagonals(draw):
    """Small integer entries, signed zeros and subnormals, at shifts of the
    same kind: exact arithmetic makes pivots of 0.0, -0.0 and below
    STURM_PIVMIN common, so the clamp and the row-by-row redo run often."""
    n = draw(st.integers(2, 40))
    values = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 5e-324, -5e-324, 1e-300]
    diag = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    off = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1e-160]), min_size=n - 1,
                        max_size=n - 1))
    return np.array(diag), np.array(off)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(clamped_tridiagonals())
def test_sturm_counts_ascend_at_the_clamp_property(case):
    diag, off = case
    shifts = _around([-3.0, -2.0, -1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 1e-300,
                      -1e-300, oracle.STURM_PIVMIN])
    _assert_counts_ascend(diag, off, shifts)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(tailed_tridiagonals())
def test_sturm_counts_ascend_where_the_tail_rule_ends_sweeps_property(case):
    # the shifts at and about the tail's Gershgorin floor, where a sweep ends
    # at its first check, beside shifts above the floor that read every row
    diag, off, shifts, _ = case
    if np.all(np.isfinite(diag)):
        _assert_counts_ascend(diag, off, np.concatenate([shifts, shifts + 1.0, shifts + 4.0]))


@pytest.mark.parametrize("which", ["coarse", "refined"])
def test_sturm_counts_ascend_on_deep_first_sweeps(deep_matrices, deep_guesses, which,
                                                  monkeypatch):
    # the shifts of the first sweep fd_eigensolve makes on each deep.cfg
    # grid (one bisection per guess: 2 on the coarse grid, 3 with the spare
    # level on the refined one)
    diag, off = deep_matrices[which]
    guesses = deep_guesses[len(diag)]
    sweeps = []
    count = oracle.sturm_count
    monkeypatch.setattr(oracle, "sturm_count",
                        lambda d, o, x: sweeps.append(x) or count(d, o, x))
    oracle.sturm_tridiag_eigs(diag, off, guesses)
    monkeypatch.undo()
    _assert_counts_ascend(diag, off, sweeps[0])


# ---------------------------------------------------------------------------
# Warm start: any guesses give the floats of plain bisection
# ---------------------------------------------------------------------------


def _gershgorin(diag, off):
    rad = np.zeros(len(diag))
    rad[:-1] += np.abs(off)
    rad[1:] += np.abs(off)
    return float(np.min(diag - rad)), float(np.max(diag + rad))


@pytest.fixture(scope="module")
def deep_guesses():
    """The guesses fd_eigensolve passes on deep.cfg's default grid, by matrix size."""
    p = deep_params()
    passed = {}
    eigs = oracle.sturm_tridiag_eigs

    def recording(diag, off, guesses):
        passed[len(diag)] = guesses
        return eigs(diag, off, guesses)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "sturm_tridiag_eigs", recording)
        oracle.fd_eigensolve(p, oracle.default_grid(p, 2), 2)
    return passed


@pytest.mark.parametrize("kind", ["exact", "coarse", "rq", "far", "unsorted", "outside",
                                  "midpoint", "nan"])
def test_warm_start_bit_identical(deep_matrices, deep_references, deep_guesses, kind,
                                  monkeypatch):
    diag, off = deep_matrices["refined"]
    ref = deep_references["refined"]
    lo, hi = _gershgorin(diag, off)
    guesses = {
        "exact": ref,
        "coarse": oracle.sturm_tridiag_eigs(*deep_matrices["coarse"], [math.nan] * 3),
        "rq": deep_guesses[len(diag)],
        "far": [r + 0.1 * abs(r) for r in ref],
        "unsorted": ref[::-1],
        "outside": [lo - 1.0, ref[1], 2.0 * hi],
        "midpoint": [ref[0], 0.5 * (lo + hi), ref[2]],  # the first bisection midpoint
        "nan": [ref[0], math.nan, ref[2]],
    }[kind]
    shifts = []  # per sweep
    count = oracle.sturm_count
    monkeypatch.setattr(oracle, "sturm_count",
                        lambda d, o, x: shifts.append(len(x)) or count(d, o, x))
    assert oracle.sturm_tridiag_eigs(diag, off, guesses) == ref
    if kind in ("exact", "unsorted"):  # one sweep certifies every guessed bracket
        assert len(shifts) == 1
    if kind == "nan":
        # the first sweep checks the guessed brackets of eigenvalues 0 and 2;
        # the NaN guess is no guess, so eigenvalue 1 is multisected from the
        # Gershgorin bounds: each sweep counts the 63 midpoints of its next
        # six steps, less those already decided
        assert len(shifts) <= 9 and sum(shifts) <= 695 and max(shifts[1:-1]) <= 63


@pytest.mark.parametrize("kind", ["rq", "nan", "outside", "none"])
def test_first_sweep_counts_the_guessed_paths(deep_matrices, deep_references, deep_guesses,
                                              kind, monkeypatch):
    # the first sweep of the walk from the Gershgorin bracket: a guess within
    # the bounds steps toward itself, uncounted, while the bracket is wider
    # than 2**6 times its convergence width, and the sweep counts the two
    # ends of the bracket it stops at and its 63 midpoints.  A NaN guess or
    # one outside the bounds is no guess: its eigenvalue counts the 63
    # midpoints of the Gershgorin bracket's first six steps, as multisection.
    # All ascending, each once
    diag, off = deep_matrices["refined"]
    ref = deep_references["refined"]
    bounds = _gershgorin(diag, off)
    guesses = {"rq": deep_guesses[len(diag)], "nan": [ref[0], math.nan, ref[2]],
               "outside": [ref[0], bounds[1] + 1.0, ref[2]], "none": [math.nan] * 3}[kind]
    shifts, steps = set(), []
    for g in guesses:
        lo, hi = bounds
        if not lo <= g <= hi:  # no guess
            shifts.update(_bisection_path_midpoints(lo, hi, 6))
            continue
        path = []
        while hi - lo > 64 * 1e-13 * max(abs(lo), abs(hi)):
            mid = 0.5 * (lo + hi)
            path.append(mid)
            lo, hi = (lo, mid) if g < mid else (mid, hi)
        steps.append(len(path))
        shifts.update((lo, hi))
        shifts.update(_bisection_path_midpoints(lo, hi, 6))
    want = sorted(shifts)
    sweeps = []
    count = oracle.sturm_count
    monkeypatch.setattr(oracle, "sturm_count",
                        lambda d, o, x: sweeps.append(x.tolist()) or count(d, o, x))
    assert oracle.sturm_tridiag_eigs(diag, off, guesses) == ref
    assert [x.hex() for x in sweeps[0]] == [x.hex() for x in want]
    # rq: brackets 55, 57 and 59 steps down (whole paths of 61, 63 and 65),
    # 65 shifts each
    assert steps == {"rq": [55, 57, 59], "nan": [55, 59], "outside": [55, 59],
                     "none": []}[kind]
    assert len(want) == {"rq": 195, "nan": 193, "outside": 193, "none": 63}[kind]
    if kind == "rq":  # every bracket holds its eigenvalue: one sweep
        assert len(sweeps) == 1


def test_rayleigh_guesses_are_close(deep_matrices, deep_references, deep_guesses):
    # each eigenvector of the grid below, carried linearly in ln r and refined
    # by two solves of inverse iteration (the second at the first's Rayleigh
    # quotient), gives a Rayleigh quotient 5.7e-14 to 3.3e-13 from the coarse
    # eigenvalues and 4.2e-14 to 5.3e-13 from the fine ones (one solve gave
    # 9.7e-14 to 7.3e-11 and 3.4e-14 to 5.3e-13; 4.0e-13 to 7.4e-11 and
    # 6.5e-15 to 1.2e-11 with the quotient summed over the whole vector and
    # the row-by-row Thomas solve).  The cubic
    # carry without the solve gave 2.1e-10 to 1.7e-9 on the fine grid, where
    # the coarse eigenvalues are 8.2e-6 to 3.7e-5 off.  The base grid is
    # never bisected: LAPACK's eigenvalues of its dense matrix only give the
    # shifts of its eigenvectors.  Each grid is guessed at the levels it
    # bisects: the 2 reported on the coarse grid, and the spare level too on
    # the refined one
    assert {n: len(g) for n, g in deep_guesses.items()} == {2000: 2, 4001: 3}
    for which in ("coarse", "refined"):
        guesses = deep_guesses[len(deep_matrices[which][0])]
        for guess, tau in zip(guesses, deep_references[which][:len(guesses)], strict=True):
            assert abs(guess - tau) <= 1e-12 * abs(tau)


@pytest.mark.parametrize("k,distances", [(2, (3.3e-13, 5.3e-13)), (3, (9.9e-14, 1.0e-12)),
                                         (10, (3.9e-13, 9.4e-13)), (20, (3.1e-13, 1.6e-12))])
def test_guess_distances_hold_on_deep(k, distances, monkeypatch):
    # a worse eigenvector solve shows only as extra sweeps, so each output
    # grid's (N, then 2N + 1) largest relative distance of a guess from its
    # bisection float is held within 2x of what the two inverse-iteration
    # solves give.  One solve gave 7.3e-11, 3.7e-10, 5.1e-8 and 4.6e-5 on the
    # N-point grid (the second solve, at the first's Rayleigh quotients,
    # takes k = 20 to 1.2e-11 over 21 levels, and to 3.1e-13 over the 20
    # that grid bisects without the spare level), and 5.3e-13, 1.0e-12,
    # 9.4e-13 and 2.9e-10 on the 2N + 1-point grid; with the row-by-row
    # Thomas solve and the quotient summed over the whole vector, those lay
    # between 3e-12 and 3.5e-11
    eigs = oracle.sturm_tridiag_eigs
    worst = []

    def recording(diag, off, guesses):
        taus = eigs(diag, off, guesses)
        worst.append(max(abs(g - t) / abs(t) for g, t in zip(guesses, taus, strict=True)))
        return taus

    monkeypatch.setattr(oracle, "sturm_tridiag_eigs", recording)
    p = deep_params()
    oracle.fd_eigensolve(p, oracle.default_grid(p, k), k)
    assert len(worst) == 2
    for got, today in zip(worst, distances):
        assert got <= 2.0 * today


@pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
def test_degenerate_coarse_vectors_give_nan_guesses(deep_matrices, deep_references, bad,
                                                    monkeypatch):
    # a carried vector without a finite, nonzero norm gives a NaN guess, no
    # RuntimeWarning (pytest turns them into errors), and bisection's floats
    carry, eigs = oracle._carry, oracle.sturm_tridiag_eigs
    passed = []

    def degenerate(lower, grid, vectors):  # level 1 only: the leak check reads level 2
        carried = carry(lower, grid, vectors)
        carried[0] = bad
        return carried

    def recording(diag, off, guesses):
        passed.append(guesses)
        return eigs(diag, off, guesses)

    monkeypatch.setattr(oracle, "_carry", degenerate)
    monkeypatch.setattr(oracle, "sturm_tridiag_eigs", recording)
    res = oracle.fd_eigensolve(deep_params(), deep_matrices["grid"], 2)
    coarse, fine = deep_references["coarse"], deep_references["refined"]
    assert res.eigenvalues_tau == fine[:2]
    assert res.richardson_error_estimate == [abs(f - c) / 3.0 for f, c in zip(fine, coarse)][:2]
    assert len(passed) == 2
    for guesses in passed:
        assert math.isnan(guesses[0]) and np.all(np.isfinite(guesses[1:]))


def _outer_mass(v: np.ndarray) -> float:
    """The leak check's mass of a unit vector within the outer 5% of the grid."""
    return float(np.sum(v[-max(1, int(0.05 * len(v))):] ** 2))


@pytest.mark.parametrize("grid", [None, RadialGridSpec(0.1, 0.32, 1200)], ids=["deep", "leaky"])
def test_leak_check_one_solve_matches_three(grid, monkeypatch):
    # the leak check reads the fine grid's vector of the top level from the
    # last of its two solves of inverse iteration (the first at the coarse
    # eigenvalue from the carried coarse vector, the second at the first's
    # Rayleigh quotient from its vector), against three solves at the fine
    # eigenvalue from a random start: deep.cfg's default grid gives 5.0e-70
    # against 6.1e-58 (5.1e-50 after the first solve alone), the leaky grid
    # 8.890886e-3 both ways (7.6e-15 apart; 1.5e-13 after the first solve)
    p = deep_params()
    coarse_grid = grid or oracle.default_grid(p, 2)
    fine_grid = coarse_grid.refined()
    solved = []
    eigenvectors = oracle._eigenvectors

    def recording(diag, off, taus, starts):
        vectors = eigenvectors(diag, off, taus, starts)
        if len(diag) == fine_grid.points:
            solved.append(vectors)
        return vectors

    monkeypatch.setattr(oracle, "_eigenvectors", recording)
    if grid is None:
        oracle.fd_eigensolve(p, coarse_grid, 2)
    else:
        with pytest.raises(DomainError, match="increase r_max"):
            oracle.fd_eigensolve(p, coarse_grid, 2)
    diag, off = oracle.build_tridiag(p, fine_grid)
    tau = oracle.sturm_tridiag_eigs(diag, off, [math.nan] * 2)[-1]
    assert len(solved) == 2
    one = _outer_mass(solved[-1][1])
    three = _outer_mass(reference_eigenvector(diag, off, tau))
    assert abs(one - three) <= 1e-12
    assert (one > oracle.BOUNDARY_MASS_LIMIT) == (grid is not None)


def _reference_fd_eigensolve(params: PhysicalParams, grid: RadialGridSpec, k: int):
    """fd_eigensolve's result from reference_sturm_eigs on the coarse and
    half-step matrices, or the error its checks raise: the spacing rule on
    those floats, and the leak check on reference_eigenvector (whose mass, in
    the message, may differ in its last digits from the oracle's)."""
    k_work = min(k + 1, grid.points)
    coarse = reference_sturm_eigs(*oracle.build_tridiag(params, grid), k_work)
    diag, off = oracle.build_tridiag(params, grid.refined())
    fine = reference_sturm_eigs(diag, off, k_work)
    ests = [abs(f - c) / 3.0 for f, c in zip(fine, coarse)][:k]
    for i, est in enumerate(ests):
        spacing = min(abs(fine[j] - fine[i]) for j in (i - 1, i + 1) if 0 <= j < k_work)
        if est > oracle.RICHARDSON_SPACING_FRACTION * spacing:
            return GridTooCoarse(f"Richardson estimate {est:.3e} for tau_{i + 1} exceeds 1% of "
                                 f"the level spacing {spacing:.3e}; refine the grid")
    mass = _outer_mass(reference_eigenvector(diag, off, fine[k - 1]))
    if mass > oracle.BOUNDARY_MASS_LIMIT:
        return DomainError(f"eigenfunction mass {mass:.2e} within the outer 5% of the domain "
                           f"exceeds 1e-06; increase r_max")
    return fine[:k], ests


@st.composite
def ladder_problems(draw):
    """Parameters of deep.cfg's scale at a drawn Lambda, x0 = m omega R^2 and
    ell, a default grid of N points (N = 100: no base grid) and nmax."""
    lam = draw(st.floats(0.5, 12.0))
    x0 = 10.0 ** draw(st.floats(-9.0, -2.0))
    ell = draw(st.sampled_from([0, 1, 3]))
    points = draw(st.sampled_from([100, 101, 150, 700, 1000, 2001]))
    nmax = draw(st.integers(1, 6))
    p = deep_params(polarizability_alpha=(lam * lam + ell * ell) / 2.0,
                    cutoff_R=math.sqrt(x0 / 1e-3), ell=ell)
    return p, oracle.default_grid(p, nmax, points=points), nmax


@settings(derandomize=True, max_examples=12, deadline=None)
@given(ladder_problems())
def test_ladder_gives_bisection_floats_property(problem):
    # every grid of the ladder is warm-started from the one below, and the
    # floats are still plain bisection's on the coarse and half-step matrices
    p, grid, k = problem
    want = _reference_fd_eigensolve(p, grid, k)
    try:
        res = oracle.fd_eigensolve(p, grid, k)
    except (GridTooCoarse, DomainError) as exc:
        assert type(exc) is type(want)
    else:
        assert (res.eigenvalues_tau, res.richardson_error_estimate) == want


def _hexes(result) -> tuple:
    """fd_eigensolve's floats as hex strings, or its error's type and message."""
    if isinstance(result, Exception):
        return type(result), str(result)
    return tuple([x.hex() for x in floats] for floats in result)


# deep.cfg, problems whose first grid is the output grid (no base), and one
# with a base grid of k_levels + 1 points; the spacing rule raises on the last two
_DEEP = deep_params()
_DENSE_PROBLEMS = {
    "deep": (_DEEP, oracle.default_grid(_DEEP, 2), 2),
    "no_base": (_DEEP, oracle.default_grid(_DEEP, 2, points=100), 2),
    "no_base_oscillator": (oscillator_params(ell=1), RadialGridSpec(1e-6, 12.0, 100), 2),
    "base_of_k_points": (_DEEP, oracle.default_grid(_DEEP, 2, points=120), 104),
    "dense_output_grid": (_DEEP, oracle.default_grid(_DEEP, 2, points=100), 99),
}


@pytest.fixture(scope="module")
def dense_references():
    """_reference_fd_eigensolve of each of _DENSE_PROBLEMS."""
    return {which: _reference_fd_eigensolve(*problem)
            for which, problem in _DENSE_PROBLEMS.items()}


@pytest.mark.parametrize("kind", ["lapack", "shifted", "far", "reversed", "nan", "all_nan"])
@pytest.mark.parametrize("which", list(_DENSE_PROBLEMS))
def test_dense_eigenvalues_are_only_guesses(dense_references, which, kind, monkeypatch):
    # the first grid of the ladder takes its estimates from LAPACK: a base
    # grid uses them as the shifts of its eigenvectors, an output grid as the
    # guesses of its bisection.  Whatever they are, the floats are bisection's,
    # and so is the spacing rule's message.  With every value NaN a base
    # grid's eigenvectors are NaN, and so is the vector the leak check reads
    p, grid, k = _DENSE_PROBLEMS[which]
    eigvalsh = np.linalg.eigvalsh
    perturb = {
        "lapack": lambda w: w,
        "shifted": lambda w: w + 1e-3 * np.abs(w),
        "far": lambda w: w + 0.3 * np.abs(w),
        "reversed": lambda w: w[::-1],
        "nan": lambda w: np.where(np.arange(len(w)) == 0, np.nan, w),
        "all_nan": lambda w: np.full_like(w, np.nan),
    }[kind]
    monkeypatch.setattr(oracle.np.linalg, "eigvalsh", lambda a: perturb(eigvalsh(a)))
    want = dense_references[which]
    if which == "deep" and kind == "all_nan":
        want = DomainError("the eigenfunction of the leak check is not a finite vector, so "
                           "its mass within the outer 5% of the domain is unknown")
    try:
        got = oracle.fd_eigensolve(p, grid, k)
    except (GridTooCoarse, DomainError) as exc:
        got = exc
    else:
        got = got.eigenvalues_tau, got.richardson_error_estimate
    assert _hexes(got) == _hexes(want)


@pytest.mark.parametrize("problem", [
    *[(_DEEP, oracle.default_grid(_DEEP, k), k) for k in range(1, 21)],  # deep.cfg --nmax k
    *_DENSE_PROBLEMS.values(),
    1, 2, 3],  # the problems of the oracle-validate workload's seed
    ids=[*(f"deep_nmax{k}" for k in range(1, 21)), *_DENSE_PROBLEMS,
         *(f"oracle_validate_seed{seed}" for seed in (1, 2, 3))])
def test_fd_eigensolve_always_guesses(problem, monkeypatch):
    # every bisection of a solve starts from guesses, with or without a base
    # grid, each finite and within the Gershgorin bounds: no eigenvalue is
    # multisected cold, so a sweep settles its shifts by the tail rule alone
    # at the cost a warm solve needs
    passed = []
    eigs = oracle.sturm_tridiag_eigs

    def recording(diag, off, guesses):
        passed.append((_gershgorin(diag, off), guesses))
        return eigs(diag, off, guesses)

    monkeypatch.setattr(oracle, "sturm_tridiag_eigs", recording)
    if isinstance(problem, int):
        for command in _perfbench_workloads(monkeypatch).oracle_validate(problem):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(list(command.argv)) == 0
    else:
        with contextlib.suppress(GridTooCoarse):  # the last two _DENSE_PROBLEMS
            oracle.fd_eigensolve(*problem)
    assert passed
    for (lo, hi), guesses in passed:
        assert all(math.isfinite(g) and lo <= g <= hi for g in guesses)


class _Stop(Exception):
    """Ends a solve at its dense eigenvalue solve."""


@pytest.mark.parametrize(
    "points,k,dense",
    [
        (100, 2, 100),  # no base: the output grid is the first grid
        (100, 99, 100),
        (800, 2, 100),
        (2000, 2, 100),  # 12 (k + 1) = 36 points
        (10**6, 2, 100),
        (2000, 10, 132),  # 12 (k + 1)
        (800, 20, 100),  # points // 8
        (2000, 20, 250),
        (4000, 30, 372),
        (4000, 40, 492),
        (4112, 60, oracle.BASE_GRID_POINTS),  # points // 8 = 514
        (300, 150, 151),  # k_levels + 1 points
        (10**6, 999, 1000),
    ],
)
def test_dense_solve_is_capped(points, k, dense, monkeypatch):
    # the one dense eigenvalue solve of a ladder has max(100, k + 1,
    # min(points // 8, BASE_GRID_POINTS, BASE_POINTS_PER_LEVEL (k + 1)))
    # points, or the grid's when that is not fewer: it never exceeds the cap
    # unless k + 1 does
    sizes = []

    def stop(a):
        sizes.append(len(a))
        raise _Stop

    monkeypatch.setattr(oracle.np.linalg, "eigvalsh", stop)
    p = oscillator_params()
    with pytest.raises(_Stop):
        oracle.fd_eigensolve(p, RadialGridSpec(p.cutoff_R, 12.0, points), k)
    assert sizes == [dense] and dense <= max(oracle.BASE_GRID_POINTS, k + 1)


@st.composite
def guessed_tridiagonals(draw):
    """A tridiagonal and k, with guesses near its eigenvalues, far off,
    non-finite, and in either order."""
    diag, off, k = draw(tridiagonals())
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    eigs = np.sort(np.linalg.eigvalsh(dense))[:k].tolist()
    near = st.one_of(st.floats(-1e-9, 1e-9), st.floats(-1.0, 1.0))
    guesses = [
        draw(st.one_of(near.map(lambda r, e=e: e * (1.0 + r)), st.floats(allow_nan=True)))
        for e in eigs
    ]
    if draw(st.booleans()):
        guesses.reverse()
    return diag, off, k, guesses


@settings(derandomize=True, max_examples=40, deadline=None)
@given(guessed_tridiagonals())
def test_warm_start_bit_identical_property(case):
    # each sweep counts ascending shifts, each once, and no shift of one
    # sweep recurs in a later one: a walk adds only shifts strictly inside
    # its tightest counted bracket
    diag, off, k, guesses = case
    sweeps = []
    count = oracle.sturm_count
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "sturm_count",
                   lambda d, o, x: sweeps.append(x.tolist()) or count(d, o, x))
        got = oracle.sturm_tridiag_eigs(diag, off, guesses)
    assert got == reference_sturm_eigs(diag, off, k)
    assert all(np.all(np.diff(x) > 0) for x in sweeps)
    shifts = [x for sweep in sweeps for x in sweep]
    assert len(set(shifts)) == len(shifts)


def _backward_error(diag, off, tau, v, rhs) -> float:
    """Normwise backward error |rhs - A x| / (|A|_F |x| + |rhs|) of x = c v
    for the shifted system A = T - sigma I that _eigenvectors solves at the
    eigenvalue tau, with the scale c of the unit vector v that fits rhs best."""
    a = diag - (tau + 1e-10 * max(1.0, abs(tau)))
    av = a * v
    av[:-1] += off * v[1:]
    av[1:] += off * v[:-1]
    c = (av @ rhs) / (av @ av)
    norm_a = math.sqrt(a @ a + 2.0 * (off @ off))
    return float(np.linalg.norm(rhs - c * av) / (norm_a * abs(c) + np.linalg.norm(rhs)))


def _dominant_tridiag(n: int, rng):
    """Random symmetric tridiagonal matrix whose rows are diagonally dominant
    by 0.5 to 2, with diagonal entries of both signs."""
    off = rng.uniform(-2, 2, size=n - 1)
    rad = np.zeros(n)
    rad[:-1] += np.abs(off)
    rad[1:] += np.abs(off)
    return rng.choice([-1.0, 1.0], size=n) * (rad + rng.uniform(0.5, 2, size=n)), off


@pytest.mark.parametrize("levels", [1, 4])
@pytest.mark.parametrize("kind", ["dominant", "indefinite"])
def test_eigenvectors_backward_error(kind, levels):
    # cyclic reduction pivots without exchanges, so it is held to a small
    # multiple of the backward error of LAPACK's pivoted dense solve: over
    # these 40 matrices per kind (n <= 300; shifts that keep the dominant
    # ones dominant, and at eigenvalues of the indefinite ones) it measured
    # at most 0.35 eps (dominant) and 4.6 eps (indefinite), against 0.19 and
    # 0.12 eps for numpy.linalg.solve
    eps = np.finfo(float).eps
    bound = {"dominant": 1.0, "indefinite": 8.0}[kind] * eps
    for seed in range(20):
        rng = np.random.default_rng([seed, levels, kind == "dominant"])
        n = int(rng.integers(1, 301))
        if kind == "dominant":
            diag, off = _dominant_tridiag(n, rng)
            taus = rng.uniform(-0.4, 0.4, size=levels)
        else:
            diag, off = _random_tridiag(n, seed)
            taus = rng.choice(np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1)
                                                 + np.diag(off, -1)), size=levels)
        starts = rng.standard_normal((levels, n))
        vectors = oracle._eigenvectors(diag, off, taus, starts)
        assert vectors.shape == (levels, n)
        for tau, v, rhs in zip(taus, vectors, starts):
            a = (np.diag(diag - (tau + 1e-10 * max(1.0, abs(tau))))
                 + np.diag(off, 1) + np.diag(off, -1))
            dense = np.linalg.solve(a, rhs)
            assert _backward_error(diag, off, tau, dense / np.linalg.norm(dense), rhs) <= bound
            assert _backward_error(diag, off, tau, v, rhs) <= bound


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 100, 255, 256, 257])
def test_eigenvectors_pad_to_two_to_the_p_minus_one(n):
    # every size pads to 2**p - 1 rows with uncoupled identity rows, which
    # leave the solution of the n rows alone: the unit vectors are those of
    # numpy.linalg.solve on dominant matrices, where both are accurate
    # (2.7e-16 apart at most)
    rng = np.random.default_rng(n)
    diag, off = _dominant_tridiag(n, rng)
    taus = [0.25, -0.3]
    start = rng.standard_normal(n)
    for tau, v in zip(taus, oracle._eigenvectors(diag, off, taus, [start] * 2), strict=True):
        a = (np.diag(diag - (tau + 1e-10 * max(1.0, abs(tau))))
             + np.diag(off, 1) + np.diag(off, -1))
        x = np.linalg.solve(a, start)
        assert np.linalg.norm(v - x / np.linalg.norm(x)) <= 1e-15


@pytest.mark.parametrize("n,row", [(n, row) for n in (6, 7) for row in range(n)])
def test_eigenvectors_exact_zero_pivot_takes_pivmin(n, row):
    # row `row` is uncoupled and its diagonal is the shift of tau = 0 (1e-10):
    # its pivot is exactly zero at the first step (even rows), at a later one
    # or at the last 1 x 1 system (row 3), and STURM_PIVMIN in its place
    # makes the solution the eigenvector of the eigenvalue at the shift
    diag = np.full(n, 2.0)
    off = np.full(n - 1, -0.5)
    diag[row] = 1e-10
    off[max(row - 1, 0) : row + 1] = 0.0
    start = 1e-150 * np.random.default_rng(row).standard_normal(n)  # entries 1e-150 / 1e-290
    [v] = oracle._eigenvectors(diag, off, [0.0], [start])
    assert abs(v[row]) == 1.0
    assert np.max(np.abs(np.delete(v, row))) <= 1e-250


def test_eigenvectors_on_the_deep_half_step_matrix(deep_matrices):
    # the leak check's shifted matrix of 4001 rows, near-singular at each of
    # the three eigenvalues: the unit vectors lie 6.3e-12, 2.0e-12 and 6.2e-13
    # from the row-by-row Thomas solve's, with backward errors of 0.017 eps at
    # most (0.011 eps for the Thomas solve)
    diag, off = deep_matrices["refined"]
    taus = oracle.sturm_tridiag_eigs(diag, off, [math.nan] * 3)
    rhs = np.random.default_rng(81).standard_normal(len(diag))
    for tau, v in zip(taus, oracle._eigenvectors(diag, off, taus, [rhs] * 3), strict=True):
        x = reference_tridiag_solve(diag - (tau + 1e-10 * abs(tau)), off, rhs)
        assert np.linalg.norm(v - x / np.linalg.norm(x)) <= 2e-11
        assert _backward_error(diag, off, tau, v, rhs) <= 0.1 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# fd_eigensolve
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def deep_oracle():
    grid = RadialGridSpec(0.1, 3.0, 1500)
    return oracle.fd_eigensolve(deep_params(), grid, 2)


def test_fd_deep_regime_matches_exact(deep_oracle):
    p = deep_params()
    energies = deep_oracle.energies(p)
    for e_fd, e_ref, rich in zip(energies, DEEP_E, deep_oracle.richardson_error_estimate):
        binding = p.omega - e_ref
        rel = abs(e_fd - e_ref) / binding
        assert rel <= max(rich / (2.0 * p.mass_m) / binding * 3.0, 1e-3)
    assert deep_oracle.eigenvalues_tau[0] < deep_oracle.eigenvalues_tau[1]


def test_fd_full_domain_matches_exact_quantization():
    # oscillator-scale outer radius (r_max = 400 >> turning point): the deep
    # level is unaffected and the agreement stays within Richardson + 1e-3
    from dipolewell import spectrum

    p = deep_params()
    grid = RadialGridSpec(0.1, 400.0, 3000)
    res = oracle.fd_eigensolve(p, grid, 1)
    e_fd = res.energies(p)[0]
    e_ref = spectrum.quantize_exact(p, 1).energy
    binding = p.omega - e_ref
    rich_rel = res.richardson_error_estimate[0] / (2.0 * p.mass_m) / binding
    assert abs(e_fd - e_ref) / binding <= rich_rel + 1e-3


def test_fd_oscillator_limit_p_wave():
    # pure 2D p-wave oscillator: tau = 2 m omega (2k + 2) = 4, 8, 12; the hard
    # wall at R = 1e-6 shifts these by O(R^2), far below the Richardson estimate
    grid = RadialGridSpec(1e-6, 12.0, 2000)
    res = oracle.fd_eigensolve(oscillator_params(ell=1), grid, 3)
    assert len(res.eigenvalues_tau) == 3
    expected = (4.0, 8.0, 12.0)
    for tau, expect, rich in zip(res.eigenvalues_tau, expected, res.richardson_error_estimate):
        assert abs(tau - expect) <= 2.0 * rich + 1e-9


def test_fd_oscillator_wall_shift_is_real_and_logarithmic():
    # with the physical Dirichlet wall the critical-coupling ground state is
    # shifted by ~ 4 omega / ln(2 e^{-2 gamma} / (m omega R^2)); the shift is
    # physics, not discretization, so it must exceed the Richardson estimate
    grid = RadialGridSpec(1e-4, 12.0, 2000)
    res = oracle.fd_eigensolve(oscillator_params(cutoff_R=1e-4), grid, 1)
    shift = res.eigenvalues_tau[0] - 2.0
    predicted = 4.0 / (math.log(2.0 / 1e-8) - 2.0 * 0.5772156649015329)
    assert shift > 100 * res.richardson_error_estimate[0]
    assert abs(shift - predicted) <= 0.05 * predicted


def test_fd_annulus_bessel_check():
    # alpha ~ 0, omega = 0, hard walls at both ends: tau_k = k_n^2 with
    # J0(k R1) Y0(k R2) = J0(k R2) Y0(k R1)   [test-only scipy root oracle]
    r1, r2 = 0.5, 3.0
    p = oscillator_params(omega=0.0, cutoff_R=r1)

    def det(k):
        return j0(k * r1) * y0(k * r2) - j0(k * r2) * y0(k * r1)

    ks, k, f_prev = [], 0.2, det(0.2)
    while len(ks) < 3:
        k2 = k + 0.05
        f2 = det(k2)
        if f_prev * f2 < 0:
            ks.append(brentq(det, k, k2, xtol=1e-14))
        k, f_prev = k2, f2
    expect = [kk * kk for kk in ks]

    # the wall at r2 is physical here, so fd_eigensolve's leak check does not
    # apply: solve its fine grid directly
    grid = RadialGridSpec(r1, r2, 2000).refined()
    diag, off = oracle.build_tridiag(p, grid)
    taus = oracle.sturm_tridiag_eigs(diag, off, [math.nan] * 4)[:3]
    for tau, ref in zip(taus, expect):
        assert abs(tau - ref) <= 1e-5 * ref


def test_fd_grid_convergence_is_second_order():
    p = deep_params()
    taus = []
    for n in (400, 801, 1603):  # successive halvings of the step
        grid = RadialGridSpec(0.1, 3.0, n)
        diag, off = oracle.build_tridiag(p, grid)
        taus.append(oracle.sturm_tridiag_eigs(diag, off, [math.nan])[0])
    d1 = abs(taus[1] - taus[0])
    d2 = abs(taus[2] - taus[1])
    assert 3.2 <= d1 / d2 <= 4.8


def test_fd_variational_monotonicity_nested_domains():
    # same step h in ln r, nested domains: the log grid solves A v = tau
    # diag(r^2) v, whose levels interlace as the domain grows, so tau_k never
    # increases with r_max; the walls at 0.5 and 1 squeeze some level
    p = deep_params(omega=0.5)
    h = math.log(0.5 / 0.1) / 400
    prev = None
    for n in (399, 571, 744):  # r_max ~ 0.5, 1, 2 at fixed h
        grid = RadialGridSpec(0.1, 0.1 * math.exp((n + 1) * h), n)
        diag, off = oracle.build_tridiag(p, grid)
        taus = oracle.sturm_tridiag_eigs(diag, off, [math.nan] * 3)
        if prev is not None:
            assert all(t <= s for t, s in zip(taus, prev))
            assert any(t < s for t, s in zip(taus, prev))
        prev = taus


def test_fd_cutoff_monotonicity():
    # decreasing R strictly decreases tau_1: the fall to the center
    p = deep_params()
    taus = []
    for R in (0.2, 0.1, 0.05):
        grid = RadialGridSpec(R, 3.0, 1000)
        res = oracle.fd_eigensolve(deep_params(cutoff_R=R), grid, 1)
        taus.append(res.eigenvalues_tau[0])
    assert taus[0] > taus[1] > taus[2]


def test_fd_grid_too_coarse():
    # 100 log points resolve the two deepest levels, not the ten lowest
    with pytest.raises(GridTooCoarse):
        oracle.fd_eigensolve(deep_params(), RadialGridSpec(0.1, 3.0, 100), 10)


@pytest.mark.parametrize("points", [2000.0, 2000.5])
def test_grid_rejects_non_integer_points(points):
    # a float count once passed and failed in fd_eigensolve with numpy's TypeError
    with pytest.raises(DomainError):
        RadialGridSpec(0.1, 1.0, points)


@pytest.mark.parametrize("args,message", [
    ((0.1, 1.0, 99), "at least 100 points"),
    ((0.0, 1.0, 100), "r_min > 0"),
])
def test_grid_rejects_too_few_points_and_a_wall_at_zero(args, message):
    with pytest.raises(DomainError, match=message):
        RadialGridSpec(*args)


def test_grid_takes_numpy_integer_points():
    assert RadialGridSpec(0.1, 1.0, np.int64(2000)).refined().points == 4001


def test_fd_rejects_more_levels_than_grid_points():
    with pytest.raises(DomainError):
        oracle.fd_eigensolve(deep_params(), RadialGridSpec(0.1, 1.0, 100), 101)


def test_fd_rmax_too_small():
    # r_max below the turning point of level 2 leaks mass into the boundary
    with pytest.raises(DomainError) as err:
        oracle.fd_eigensolve(deep_params(), RadialGridSpec(0.1, 0.32, 1200), 2)
    assert str(err.value) == ("eigenfunction mass 8.89e-03 within the outer 5% of the domain "
                              "exceeds 1e-06; increase r_max")


def test_leak_check_fails_closed_on_a_nan_vector(monkeypatch):
    # a NaN mass once passed the test mass > limit, and the solve returned
    carry = oracle._carry

    def nan_level_2(lower, grid, vectors):
        carried = carry(lower, grid, vectors)
        carried[1] = math.nan
        return carried

    monkeypatch.setattr(oracle, "_carry", nan_level_2)
    with pytest.raises(DomainError, match="not a finite vector"):
        oracle.fd_eigensolve(deep_params(), RadialGridSpec(0.1, 0.32, 1200), 2)


def test_fd_non_whittaker_regime_still_solves():
    # ell^2 >= 2 m alpha lambda^2: no analytic route, oracle still works
    p = deep_params(polarizability_alpha=2.0, field_coupling_lambda=1.0, ell=3, omega=1.0)
    grid = RadialGridSpec(0.1, 12.0, 1500)
    res = oracle.fd_eigensolve(p, grid, 2)
    assert res.eigenvalues_tau[0] < res.eigenvalues_tau[1]
    assert all(e >= 0 for e in res.richardson_error_estimate)


def test_default_grid_shape():
    p = deep_params()
    grid = oracle.default_grid(p, 2)
    assert grid.r_min == p.cutoff_R
    assert grid.r_max > 3.0 * p.cutoff_R
    steps = np.diff(np.log(grid.nodes()))
    assert grid.nodes()[0] > p.cutoff_R
    assert np.max(np.abs(steps - grid.h)) <= 1e-12 * grid.h
    with pytest.raises(DomainError):
        oracle.default_grid(deep_params(omega=0.0), 1)
