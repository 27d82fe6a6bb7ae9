"""Tests for the finite-difference eigensolver and its Sturm kernel."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import j0, y0

from dipolewell import oracle
from dipolewell.errors import DomainError, GridTooCoarse
from dipolewell.model import PhysicalParams
from dipolewell.oracle import GridScheme, RadialGridSpec

from oracles import reference_sturm_count, reference_sturm_eigs, reference_tridiag_solve

# deep regime: exact E_1, E_2 from the 40-digit quantization oracle
DEEP_E = (-293.9131309116332609364, -76.79106144608003514938)


def deep_params(**kw) -> PhysicalParams:
    """The parameters of deep.cfg (Lambda = 5, x0 = 1e-5), with overrides."""
    base = dict(
        mass_m=1.0,
        polarizability_alpha=12.5,
        field_coupling_lambda=1.0,
        omega=1e-3,
        cutoff_R=0.1,
        ell=0,
        p_z=0.0,
    )
    base.update(kw)
    return PhysicalParams(**base)


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
    got = oracle.sturm_tridiag_eigs(diag, off, 6)
    expect = [2.0 - 2.0 * math.cos((j + 1) * math.pi / (n + 1)) for j in range(6)]
    assert max(abs(g - e) for g, e in zip(got, expect)) <= 1e-12


def test_sturm_matches_dense_reference():
    rng = np.random.default_rng(77)
    diag = rng.uniform(-3, 3, size=50)
    off = rng.uniform(-2, 2, size=49)
    got = oracle.sturm_tridiag_eigs(diag, off, 12, atol=1e-14)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    expect = np.sort(np.linalg.eigvalsh(dense))[:12]
    assert np.max(np.abs(np.array(got) - expect)) <= 1e-10


def test_sturm_one_by_one():
    assert oracle.sturm_tridiag_eigs([5.0], [], 1) == [5.0]


def test_sturm_validates_input():
    with pytest.raises(DomainError):
        oracle.sturm_tridiag_eigs([1.0, 2.0], [0.5, 0.5], 1)
    with pytest.raises(DomainError):
        oracle.sturm_tridiag_eigs([1.0, 2.0], [0.5], 3)
    # non-finite entries once came back as NaN eigenvalues
    with pytest.raises(DomainError):
        oracle.sturm_tridiag_eigs([math.nan, 1.0], [0.5], 1)
    with pytest.raises(DomainError):
        oracle.sturm_tridiag_eigs([1.0, 2.0], [math.inf], 2)


def test_sturm_ascending():
    rng = np.random.default_rng(5)
    diag = rng.uniform(-1, 1, size=30)
    off = rng.uniform(-1, 1, size=29)
    got = oracle.sturm_tridiag_eigs(diag, off, 8)
    assert all(a <= b + 1e-13 for a, b in zip(got, got[1:]))


# ---------------------------------------------------------------------------
# Multisection replays the one-midpoint bisection of tests/oracles.py exactly
# ---------------------------------------------------------------------------

RTOL_13 = dict(atol=0.0, rtol=1e-13)  # the tolerances fd_eigensolve uses


@pytest.fixture(scope="module")
def deep_matrices():
    """Coarse and refined tridiagonals of deep.cfg at the default grid."""
    p = deep_params()
    grid = oracle.default_grid(p, 2)
    return {"coarse": oracle.build_tridiag(p, grid),
            "refined": oracle.build_tridiag(p, grid.refined())}


@pytest.mark.parametrize("which", ["coarse", "refined"])
def test_multisection_bit_identical_on_deep_grids(deep_matrices, which):
    diag, off = deep_matrices[which]
    got = oracle.sturm_tridiag_eigs(diag, off, 3, **RTOL_13)
    assert got == reference_sturm_eigs(diag, off, 3, **RTOL_13)


def _random_tridiag(n: int, seed: int):
    rng = np.random.default_rng(seed)
    return rng.uniform(-3, 3, size=n), rng.uniform(-2, 2, size=n - 1)


@pytest.mark.parametrize(
    "diag,off,k,kw",
    [
        (np.full(120, 2.0), np.full(119, -1.0), 6, {}),  # discrete Laplacian
        (*_random_tridiag(50, 77), 1, RTOL_13),
        (*_random_tridiag(50, 78), 50, {}),  # k = n
        (np.array([1.0, 2.0]), np.array([1.0]), 2, {}),  # n = 2
    ],
    ids=["laplacian", "k1", "k_eq_n", "n2"],
)
def test_multisection_bit_identical_small(diag, off, k, kw):
    assert oracle.sturm_tridiag_eigs(diag, off, k, **kw) == reference_sturm_eigs(
        diag, off, k, **kw)


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


def test_multisection_many_levels_bit_identical():
    # k = 200: 12600 shifts per sweep
    diag, off = _random_tridiag(400, 79)
    assert oracle.sturm_tridiag_eigs(diag, off, 200) == reference_sturm_eigs(diag, off, 200)


def test_deep_solve_sweep_count(monkeypatch):
    # six bisection steps per sweep, the fine grid warm-started from the
    # coarse one: 129 sweeps at one midpoint per sweep, 22 without the warm start
    calls = []
    count = oracle.sturm_count

    def counting(*args):
        calls.append(len(args[2]))
        return count(*args)

    monkeypatch.setattr(oracle, "sturm_count", counting)
    p = deep_params()
    oracle.fd_eigensolve(p, oracle.default_grid(p, 2), 2)
    assert 0 < len(calls) <= 20


@st.composite
def tridiagonals(draw):
    """Symmetric tridiagonals with entries spanning eight decades, and a k."""
    n = draw(st.integers(2, 60))

    def entries(size: int) -> np.ndarray:
        mantissas = draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
        exponents = draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
        return np.array([m * 10.0**e for m, e in zip(mantissas, exponents)])

    diag, off = entries(n), entries(n - 1)
    return diag, off, draw(st.integers(1, n)), draw(st.sampled_from([{}, RTOL_13]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(tridiagonals())
def test_multisection_bit_identical_property(case):
    diag, off, k, kw = case
    assert oracle.sturm_tridiag_eigs(diag, off, k, **kw) == reference_sturm_eigs(
        diag, off, k, **kw)


# ---------------------------------------------------------------------------
# Warm start: any guesses give the floats of plain bisection
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def refined_reference(deep_matrices):
    diag, off = deep_matrices["refined"]
    return reference_sturm_eigs(diag, off, 3, **RTOL_13)


def _gershgorin(diag, off):
    rad = np.zeros(len(diag))
    rad[:-1] += np.abs(off)
    rad[1:] += np.abs(off)
    return float(np.min(diag - rad)), float(np.max(diag + rad))


@pytest.mark.parametrize("kind", ["exact", "coarse", "far", "unsorted", "outside",
                                  "midpoint", "nan"])
def test_warm_start_bit_identical(deep_matrices, refined_reference, kind, monkeypatch):
    diag, off = deep_matrices["refined"]
    ref = refined_reference
    lo, hi = _gershgorin(diag, off)
    guesses = {
        "exact": ref,
        "coarse": oracle.sturm_tridiag_eigs(*deep_matrices["coarse"], 3, **RTOL_13),
        "far": [r + 0.1 * abs(r) for r in ref],
        "unsorted": ref[::-1],
        "outside": [lo - 1.0, ref[1], 2.0 * hi],
        "midpoint": [ref[0], 0.5 * (lo + hi), ref[2]],  # the first bisection midpoint
        "nan": [ref[0], math.nan, ref[2]],
    }[kind]
    calls = []
    count = oracle.sturm_count
    monkeypatch.setattr(oracle, "sturm_count", lambda *a: calls.append(1) or count(*a))
    assert oracle.sturm_tridiag_eigs(diag, off, 3, guesses=guesses, **RTOL_13) == ref
    if kind == "exact":  # one sweep checks the whole path
        assert len(calls) == 1


@st.composite
def guessed_tridiagonals(draw):
    """A tridiagonal and k, with guesses near its eigenvalues, far off,
    non-finite, and in either order."""
    diag, off, k, kw = draw(tridiagonals())
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    eigs = np.sort(np.linalg.eigvalsh(dense))[:k].tolist()
    near = st.one_of(st.floats(-1e-9, 1e-9), st.floats(-1.0, 1.0))
    guesses = [
        draw(st.one_of(near.map(lambda r, e=e: e * (1.0 + r)), st.floats(allow_nan=True)))
        for e in eigs
    ]
    if draw(st.booleans()):
        guesses.reverse()
    return diag, off, k, kw, guesses


@settings(derandomize=True, max_examples=40, deadline=None)
@given(guessed_tridiagonals())
def test_warm_start_bit_identical_property(case):
    diag, off, k, kw, guesses = case
    assert oracle.sturm_tridiag_eigs(diag, off, k, guesses=guesses, **kw) == (
        reference_sturm_eigs(diag, off, k, **kw))


def test_tridiag_solve_matches_numpy_scalar_loop(deep_matrices):
    # the leak check's shifted fine-grid solve, and a random matrix
    diag, off = deep_matrices["refined"]
    tau = oracle.sturm_tridiag_eigs(diag, off, 2, **RTOL_13)[-1]
    shifted = diag - (tau + 1e-10 * abs(tau))
    rng = np.random.default_rng(81)
    rhs = rng.standard_normal(len(diag))
    assert np.array_equal(oracle._tridiag_solve(shifted, off, rhs),
                          reference_tridiag_solve(shifted, off, rhs))
    diag, off = _random_tridiag(300, 82)
    rhs = rng.standard_normal(300)
    assert np.array_equal(oracle._tridiag_solve(diag, off, rhs),
                          reference_tridiag_solve(diag, off, rhs))


# ---------------------------------------------------------------------------
# fd_eigensolve
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def deep_oracle():
    grid = RadialGridSpec(0.1, 3.0, 1500, GridScheme.LOG_UNIFORM)
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
    grid = RadialGridSpec(0.1, 400.0, 3000, GridScheme.LOG_UNIFORM)
    res = oracle.fd_eigensolve(p, grid, 1)
    e_fd = res.energies(p)[0]
    e_ref = spectrum.quantize_exact(p, 1).energy
    binding = p.omega - e_ref
    rich_rel = res.richardson_error_estimate[0] / (2.0 * p.mass_m) / binding
    assert abs(e_fd - e_ref) / binding <= rich_rel + 1e-3


def test_fd_oscillator_limit_regular_bc():
    # pure 2D s-wave oscillator: tau = 2 m omega (2k + 1) = 2, 6, 10
    grid = RadialGridSpec(1e-6, 12.0, 2000, GridScheme.LOG_UNIFORM)
    res = oracle.fd_eigensolve(oscillator_params(), grid, 3, inner_bc="regular")
    for tau, expect, rich in zip(res.eigenvalues_tau, (2.0, 6.0, 10.0), res.richardson_error_estimate):
        assert abs(tau - expect) <= 2.0 * rich + 1e-9


def test_fd_oscillator_wall_shift_is_real_and_logarithmic():
    # with the physical Dirichlet wall the critical-coupling ground state is
    # shifted by ~ 4 omega / ln(2 e^{-2 gamma} / (m omega R^2)); the shift is
    # physics, not discretization, so it must exceed the Richardson estimate
    grid = RadialGridSpec(1e-4, 12.0, 2000, GridScheme.LOG_UNIFORM)
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

    grid = RadialGridSpec(r1, r2, 2000, GridScheme.UNIFORM)
    res = oracle.fd_eigensolve(p, grid, 3, outer_wall=True)
    for tau, ref in zip(res.eigenvalues_tau, expect):
        assert abs(tau - ref) <= 1e-5 * ref


def test_fd_grid_convergence_is_second_order():
    p = deep_params()
    taus = []
    for n in (400, 801, 1603):  # successive halvings of the step
        grid = RadialGridSpec(0.1, 3.0, n, GridScheme.LOG_UNIFORM)
        diag, off = oracle.build_tridiag(p, grid)
        taus.append(oracle.sturm_tridiag_eigs(diag, off, 1, atol=0.0, rtol=1e-13)[0])
    d1 = abs(taus[1] - taus[0])
    d2 = abs(taus[2] - taus[1])
    assert 3.2 <= d1 / d2 <= 4.8


def test_fd_variational_monotonicity_nested_domains():
    # same step h, nested uniform domains: tau_k never increases with r_max
    p = deep_params(omega=0.5)
    h = 6.0 / 1200
    prev = None
    for n in (1199, 1599, 1999):  # r_max = 6, 8, 10 at fixed h
        r_max = 0.1 + (n + 1) * h
        grid = RadialGridSpec(0.1, r_max, n, GridScheme.UNIFORM)
        diag, off = oracle.build_tridiag(p, grid)
        taus = oracle.sturm_tridiag_eigs(diag, off, 3, atol=1e-11)
        if prev is not None:
            assert all(t <= s + 1e-9 for t, s in zip(taus, prev))
        prev = taus


def test_fd_cutoff_monotonicity():
    # decreasing R strictly decreases tau_1: the fall to the center
    p = deep_params()
    taus = []
    for R in (0.2, 0.1, 0.05):
        grid = RadialGridSpec(R, 3.0, 1000, GridScheme.LOG_UNIFORM)
        res = oracle.fd_eigensolve(deep_params(cutoff_R=R), grid, 1)
        taus.append(res.eigenvalues_tau[0])
    assert taus[0] > taus[1] > taus[2]


def test_fd_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        grid = RadialGridSpec(0.1, 3.0, 100, GridScheme.UNIFORM)
        oracle.fd_eigensolve(deep_params(), grid, 2)


def test_fd_rejects_more_levels_than_grid_points():
    with pytest.raises(DomainError):
        oracle.fd_eigensolve(deep_params(), RadialGridSpec(0.1, 1.0, 100), 101)


def test_fd_rmax_too_small():
    # r_max below the turning point of level 2 leaks mass into the boundary
    with pytest.raises(DomainError):
        grid = RadialGridSpec(0.1, 0.32, 1200, GridScheme.LOG_UNIFORM)
        oracle.fd_eigensolve(deep_params(), grid, 2)


def test_fd_non_whittaker_regime_still_solves():
    # ell^2 >= 2 m alpha lambda^2: no analytic route, oracle still works
    p = deep_params(polarizability_alpha=2.0, field_coupling_lambda=1.0, ell=3, omega=1.0)
    grid = RadialGridSpec(0.1, 12.0, 1500, GridScheme.LOG_UNIFORM)
    res = oracle.fd_eigensolve(p, grid, 2)
    assert res.eigenvalues_tau[0] < res.eigenvalues_tau[1]
    assert all(e >= 0 for e in res.richardson_error_estimate)


def test_default_grid_shape():
    p = deep_params()
    grid = oracle.default_grid(p, 2)
    assert grid.r_min == p.cutoff_R
    assert grid.r_max > 3.0 * p.cutoff_R
    assert grid.scheme is GridScheme.LOG_UNIFORM
    with pytest.raises(DomainError):
        oracle.default_grid(deep_params(omega=0.0), 1)
