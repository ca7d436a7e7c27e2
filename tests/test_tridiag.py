import importlib
import math
import warnings
from bisect import bisect_left
from functools import cached_property
from pathlib import Path

import mpmath
import numpy as np
import pytest

import dipole1d.eigensolver as es
import dipole1d.tridiag as tridiag
from dipole1d.cli import run
from dipole1d.eigensolver import DiscreteHamiltonian, Grid, discretize, lowest_eigenvalues
from dipole1d.potentials import Coulomb, PhysicalDipole, PointDipole, RegularizedCoulomb
from dipole1d.tridiag import (
    _count_below,
    _operator,
    eigvalsh_bisect,
    inverse_iteration,
    sturm_count,
)


def _dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def test_closed_form_three_point_laplacian():
    # half the standard (-1, 2, -1) stencil at unit spacing
    diag = np.array([1.0, 1.0, 1.0])
    off = np.array([-0.5, -0.5])
    vals, widths = eigvalsh_bisect(diag, off, 3, tol=1e-12)
    want = np.array([1 - math.sqrt(2) / 2, 1.0, 1 + math.sqrt(2) / 2])
    assert np.max(np.abs(vals - want)) < 1e-11
    assert np.all(widths <= 1e-12)


def test_sturm_count_matches_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(2, 50))
        diag = rng.uniform(-3, 3, size=n)
        off = rng.uniform(-2, 2, size=n - 1)
        ref = np.linalg.eigvalsh(_dense(diag, off))
        for x in rng.uniform(ref[0] - 1, ref[-1] + 1, size=5):
            assert sturm_count(diag, off, float(x)) == int(np.sum(ref < x))


def test_bisection_matches_dense_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(20):
        n = int(rng.integers(16, 51))
        diag = rng.uniform(-2, 2, size=n)
        off = -rng.uniform(0.1, 2.0, size=n - 1)
        ref = np.sort(np.linalg.eigvalsh(_dense(diag, off)))
        k = int(rng.integers(1, n + 1))
        vals, widths = eigvalsh_bisect(diag, off, k)
        assert np.max(np.abs(vals - ref[:k])) <= 1e-9
        assert np.all(widths <= 1e-10)


def test_bisection_handles_decoupled_blocks():
    # zero off-diagonal entry: two independent blocks, degenerate pairs
    diag = np.array([1.0, 2.0, 1.0, 2.0])
    off = np.array([-0.3, 0.0, -0.3])
    ref = np.sort(np.linalg.eigvalsh(_dense(diag, off)))
    vals, _ = eigvalsh_bisect(diag, off, 4, tol=1e-12)
    assert np.max(np.abs(vals - ref)) < 1e-11
    assert vals[0] == pytest.approx(vals[1], abs=1e-11)


def test_gershgorin_contains_spectrum():
    rng = np.random.default_rng(9)
    diag = rng.uniform(-5, 5, size=30)
    off = rng.uniform(-2, 2, size=29)
    lo, hi = _operator(diag, off).ends
    ref = np.linalg.eigvalsh(_dense(diag, off))
    assert lo <= ref[0] and ref[-1] <= hi


def test_inverse_iteration_eigenvector_residual():
    rng = np.random.default_rng(77)
    for _ in range(5):
        n = 40
        diag = rng.uniform(-2, 2, size=n)
        off = -rng.uniform(0.1, 1.5, size=n - 1)
        vals, _ = eigvalsh_bisect(diag, off, 3)
        T = _dense(diag, off)
        for lam in vals:
            v = inverse_iteration(diag, off, float(lam))
            assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-10)
            res = np.linalg.norm(T @ v - lam * v)
            assert res < 1e-6 * np.linalg.norm(T, ord=2)


def test_k_out_of_range():
    diag = np.zeros(5)
    off = -np.ones(4)
    with pytest.raises(ValueError):
        eigvalsh_bisect(diag, off, 0)
    with pytest.raises(ValueError):
        eigvalsh_bisect(diag, off, 6)


def test_exact_zero_pivot_count_matches_dense_oracle():
    # x exactly on a constant diagonal: every other pivot is exactly 0, is
    # floored to -1e-300, and the next e2 / d overflows to inf.  The count
    # stays exact and no warning is raised.
    n, h = 16, 1e-3
    diag = np.full(n, 1.0 / h**2)
    off = np.full(n - 1, -0.5 / h**2)
    ref = np.linalg.eigvalsh(_dense(diag, off))
    x = float(diag[0])
    assert np.min(np.abs(ref - x)) > 1.0  # x is no eigenvalue of this even-n box
    assert sturm_count(diag, off, x) == int(np.sum(ref < x)) == n // 2


# Reference copies of the Sturm and inverse-iteration kernels as they were
# when they read numpy scalars one element at a time.  The list-based kernels
# must reproduce them bit for bit, so the comparisons below use ==, not approx.

_SEED_TINY = 1e-300


def _seed_count_below(diag, off2, x):
    # Number of sign agreements in the LDL^T pivots of T - x*I equals the
    # number of eigenvalues strictly below x (Sturm sequence).
    n = diag.shape[0]
    count = 0
    d = 1.0
    for i in range(n):
        e2 = off2[i - 1] if i > 0 else 0.0
        d = (diag[i] - x) - e2 / d
        if d == 0.0:
            d = -_SEED_TINY
        if d < 0.0:
            count += 1
    return count


def _seed_eigvalsh_bisect(diag, off, k, tol=1e-10, maxit=200):
    diag = np.ascontiguousarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    n = diag.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    off2 = np.ascontiguousarray(off * off)
    lo0, hi0 = _operator(diag, off).ends
    if lo0 == hi0:
        lo0 -= 1.0
        hi0 += 1.0
    values = np.empty(k)
    widths = np.empty(k)
    lo_floor = lo0
    for j in range(k):
        # All eigenvalues are >= the previous one, so reuse its lower edge.
        a, b = lo_floor, hi0
        it = 0
        while b - a > tol and it < maxit:
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:
                break  # bracket at floating-point resolution
            if _seed_count_below(diag, off2, mid) >= j + 1:
                b = mid
            else:
                a = mid
            it += 1
        values[j] = 0.5 * (a + b)
        widths[j] = b - a
        lo_floor = a
    return values, widths


def _seed_solve_shifted(diag, off, lam, rhs):
    # Gaussian elimination with partial pivoting on (T - lam*I) x = rhs.
    # Pivoting introduces a second superdiagonal (u2).
    n = diag.shape[0]
    d = np.empty(n)
    u1 = np.zeros(n)
    u2 = np.zeros(n)
    x = rhs.copy()
    for i in range(n):
        d[i] = diag[i] - lam
    for i in range(n - 1):
        u1[i] = off[i]
    for i in range(n - 1):
        sub = off[i]
        if abs(sub) > abs(d[i]):
            # swap rows i and i+1
            td, tu1, tu2, tx = d[i], u1[i], u2[i], x[i]
            d[i] = sub
            u1[i] = d[i + 1]
            u2[i] = u1[i + 1]
            x[i] = x[i + 1]
            d[i + 1] = tu1
            u1[i + 1] = tu2
            x[i + 1] = tx
            sub = td
        piv = d[i]
        if piv == 0.0:
            piv = _SEED_TINY
            d[i] = piv
        m = sub / piv
        d[i + 1] = d[i + 1] - m * u1[i]
        u1[i + 1] = u1[i + 1] - m * u2[i]
        x[i + 1] = x[i + 1] - m * x[i]
    if d[n - 1] == 0.0:
        d[n - 1] = _SEED_TINY
    x[n - 1] = x[n - 1] / d[n - 1]
    if n > 1:
        x[n - 2] = (x[n - 2] - u1[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - u1[i] * x[i + 1] - u2[i] * x[i + 2]) / d[i]
    return x


def _seed_inverse_iteration_kernel(diag, off, lam, iters):
    n = diag.shape[0]
    v = np.empty(n)
    # deterministic, generic start vector (float-hash; no RNG state needed)
    for i in range(n):
        x = np.sin((i + 1.0) * 12.9898) * 43758.5453
        v[i] = (x - np.floor(x)) - 0.5
    nrm = np.sqrt(np.sum(v * v))
    for i in range(n):
        v[i] /= nrm
    for _ in range(iters):
        w = _seed_solve_shifted(diag, off, lam, v)
        nrm = np.sqrt(np.sum(w * w))
        if nrm == 0.0 or not np.isfinite(nrm):
            break
        for i in range(n):
            v[i] = w[i] / nrm
    return v


def _seed_inverse_iteration(diag, off, lam, iters=3):
    diag = np.ascontiguousarray(diag, dtype=float)
    off = np.ascontiguousarray(off, dtype=float)
    v = _seed_inverse_iteration_kernel(diag, off, float(lam), int(iters))
    if not np.all(np.isfinite(v)):
        scale = max(1.0, float(np.max(np.abs(diag))))
        v = _seed_inverse_iteration_kernel(diag, off, float(lam) + 1e-13 * scale, int(iters))
    return v


def _reference(fn, *args, **kwargs):
    # numpy scalars warn where e2 / d overflows to inf after a zero pivot
    with np.errstate(over="ignore"):
        return fn(*args, **kwargs)


def _random_operators():
    rng = np.random.default_rng(20240)
    for _ in range(12):
        n = int(rng.integers(2, 120))
        diag = rng.uniform(-3, 3, size=n)
        off = -rng.uniform(0.0, 2.0, size=n - 1)
        if n > 4:
            off[int(rng.integers(0, n - 1))] = 0.0  # decoupled blocks
        yield diag, off
    # constant diagonals put bisection midpoints on exact-zero pivots
    for n, h in ((16, 1.0), (33, 1e-3), (64, 1e-2)):
        yield np.full(n, 1.0 / h**2), np.full(n - 1, -0.5 / h**2)


def _grid_operators():
    log_grid = Grid("logarithmic", 1e-5, 200.0, 384)
    dipole_grid = Grid("uniform", -30.0, 30.0, 3001)
    return {
        "coulomb_log_384": (discretize(Coulomb(1.0), log_grid), 3, 1e-11),
        "coulomb_log_769": (discretize(Coulomb(1.0), log_grid.refined()), 3, 1e-11),
        "physical_dipole_3001": (
            discretize(PhysicalDipole(Q=0.2, d=0.5, epsilon=1e-3), dipole_grid), 1, 1e-10),
        "point_dipole_3001": (discretize(PointDipole(0.176), dipole_grid), 1, 1e-10),
        "neumann_cutoff_3200": (
            discretize(RegularizedCoulomb(1.0, 0.0125),
                       Grid("uniform", 0.0, 10.0, 3200, left_bc="neumann")), 1, 1e-10),
        "full_line_cutoff_6399": (
            discretize(RegularizedCoulomb(1.0, 0.2), Grid("uniform", -10.0, 10.0, 6399)),
            1, 1e-10),
    }


def test_sturm_count_bit_identical_to_reference():
    rng = np.random.default_rng(5)
    for diag, off in _random_operators():
        off2 = off * off
        xs = np.concatenate([rng.uniform(diag.min() - 4, diag.max() + 4, size=6), diag[:3]])
        for x in xs:
            want = _reference(_seed_count_below, diag, off2, float(x))
            assert _count_below(diag.tolist(), off2.tolist(), float(x)) == want
            assert sturm_count(diag, off, float(x)) == want


def test_bisection_bit_identical_to_reference_on_random_operators():
    for diag, off in _random_operators():
        k = min(4, diag.shape[0])
        vals, widths = eigvalsh_bisect(diag, off, k)
        want_vals, want_widths = _reference(_seed_eigvalsh_bisect, diag, off, k)
        assert np.array_equal(vals, want_vals)
        assert np.array_equal(widths, want_widths)


def test_inverse_iteration_bit_identical_to_reference_on_random_operators():
    for diag, off in _random_operators():
        vals, _ = eigvalsh_bisect(diag, off, min(3, diag.shape[0]))
        for lam in vals:
            assert np.array_equal(inverse_iteration(diag, off, float(lam)),
                                  _reference(_seed_inverse_iteration, diag, off, float(lam)))


@pytest.mark.parametrize("name", sorted(_grid_operators()))
def test_solvers_bit_identical_to_reference_on_pipeline_grids(name):
    H, k, tol = _grid_operators()[name]
    vals, widths = eigvalsh_bisect(H.diagonal, H.offdiagonal, k, tol=tol)
    want_vals, want_widths = _reference(
        _seed_eigvalsh_bisect, H.diagonal, H.offdiagonal, k, tol=tol)
    assert np.array_equal(vals, want_vals)
    assert np.array_equal(widths, want_widths)
    off2 = H.offdiagonal * H.offdiagonal
    for x in (-1e-8, float(vals[0]), float(vals[-1]) + 1e-3):
        assert sturm_count(H.diagonal, H.offdiagonal, x) == _reference(
            _seed_count_below, H.diagonal, off2, x)
    if H.size <= 1000:  # the log grids: the hydrogen pipeline's eigenvectors
        for lam in vals:
            assert np.array_equal(
                inverse_iteration(H.diagonal, H.offdiagonal, float(lam)),
                _reference(_seed_inverse_iteration, H.diagonal, H.offdiagonal, float(lam)))


def test_off_of_wrong_length_rejected():
    # zip would truncate the pass and the Gershgorin radius would broadcast
    with pytest.raises(ValueError, match="length"):
        eigvalsh_bisect([1.0, 2.0, 3.0], [-1.0], 2)
    with pytest.raises(ValueError, match="length"):
        eigvalsh_bisect([1.0, 2.0], [-1.0, -1.0], 1)
    with pytest.raises(ValueError, match="length"):
        sturm_count([1.0, 2.0, 3.0], [-1.0], 0.0)
    with pytest.raises(ValueError, match="length"):
        inverse_iteration([1.0, 2.0, 3.0], [-1.0], 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_operator_rejected(bad):
    diag = np.array([1.0, 2.0, 3.0])
    off = np.array([-1.0, -1.0])
    bad_diag = diag.copy()
    bad_diag[1] = bad
    bad_off = off.copy()
    bad_off[0] = bad
    for d, o in ((bad_diag, off), (diag, bad_off)):
        with pytest.raises(ValueError, match="finite"):
            eigvalsh_bisect(d, o, 2)
        with pytest.raises(ValueError, match="finite"):
            sturm_count(d, o, 0.0)
        with pytest.raises(ValueError, match="finite"):
            inverse_iteration(d, o, 0.5)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_shift_rejected(x):
    diag = np.array([1.0, 2.0, 3.0])
    off = np.array([-1.0, -1.0])
    with pytest.raises(ValueError, match="x must be finite"):
        sturm_count(diag, off, x)
    with pytest.raises(ValueError, match="lam must be finite"):
        inverse_iteration(diag, off, x)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
def test_bisection_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        eigvalsh_bisect(np.array([1.0, 2.0, 3.0]), np.array([-1.0, -1.0]), 2, tol=tol)


def test_has_eigenvalue_below_matches_sturm_count():
    # the binding predicate's one pass: the count capped at 1
    rng = np.random.default_rng(11)
    seen = set()
    for diag, off in _random_operators():
        diag_l, off2_l = diag.tolist(), (off * off).tolist()
        for x in rng.uniform(diag.min() - 4, diag.max() + 4, size=6):
            want = sturm_count(diag, off, float(x)) >= 1
            assert (_count_below(diag_l, off2_l, float(x), 1) == 1) is want
            seen.add(want)
    assert seen == {True, False}


# The capped pass: _count_below(..., cap) must equal min(full count, cap),
# where the full count is the frozen reference above.

def _well_operator():
    # a Laplacian with one deep row: a pass that stopped before row 4
    # would miss its count at x = 0
    diag = np.full(12, 2.0)
    diag[4] = -5.0
    return diag, np.full(11, -1.0)


def _inf_pivot_operator():
    # x = 1e5 makes rows 0 and 1 exact-zero pivots (-_TINY), across a zero
    # coupling; row 2 then overflows to +inf
    diag = np.array([1e5, 1e5, 3e5, 3e5, 3e5, 3e5, 3e5])
    off = np.array([0.0, -1e5, -1e5, -1e5, -1e5, -1e5])
    return diag, off


def _count_cases():
    rng = np.random.default_rng(606)
    cases = []
    for diag, off in _random_operators():
        lo, hi = _operator(diag, off).ends
        xs = np.concatenate([rng.uniform(lo - 1, hi + 1, size=8), diag[:3]])
        cases.append((diag, off, xs.tolist()))
    # exact-zero couplings: three decoupled blocks
    diag = rng.uniform(1.0, 3.0, size=30)
    off = -rng.uniform(0.1, 1.0, size=29)
    off[[9, 19]] = 0.0
    cases.append((diag, off, rng.uniform(-1.0, 5.0, size=8).tolist() + [float(diag[10])]))
    cases.append((*_well_operator(), [-0.5, 0.0, 0.5]))
    cases.append((*_inf_pivot_operator(), [1e5, 0.0, 2e5]))
    grids = _grid_operators()
    for name in ("coulomb_log_384", "neumann_cutoff_3200", "full_line_cutoff_6399"):
        H, k, tol = grids[name]
        diag, off = H.diagonal, H.offdiagonal
        vals, widths = eigvalsh_bisect(diag, off, k, tol=tol)
        xs = [-1e3, -1e-8, 0.0, 1.0, float(diag[len(diag) // 2])]
        for v, w in zip(vals.tolist(), widths.tolist()):
            xs += [v - w, v - 0.5 * w, v + 0.5 * w, v + w, v - 1e-3, v + 1e-3]
        cases.append((diag, off, xs))
    return cases


def test_early_stopped_count_equals_capped_reference():
    for diag, off, xs in _count_cases():
        off2 = off * off
        diag_l, off2_l = diag.tolist(), off2.tolist()
        for x in xs:
            full = _reference(_seed_count_below, diag, off2, x)
            assert _count_below(diag_l, off2_l, x) == full
            for cap in (1, 2, 3, len(diag)):
                assert _count_below(diag_l, off2_l, x, cap) == min(full, cap)


def test_count_below_reads_memoryviews_as_it_reads_lists():
    # one-pass callers (sturm_count, critical._binds) hand the pass memoryviews
    # of their arrays; the count cases include exact-zero pivots
    cases = _count_cases()
    for H, _, _ in _pipeline_operators().values():
        diag = H.diagonal
        lo, hi = _operator(diag, H.offdiagonal).ends
        xs = [lo, 0.0, float(diag[0]), float(diag[diag.shape[0] // 2]), 0.5 * (lo + hi), hi]
        cases.append((diag, H.offdiagonal, xs))
    for diag, off, xs in cases:
        off2 = off * off
        lists = diag.tolist(), off2.tolist()
        for x in xs:
            for cap in (None, 1, 3):
                want = _count_below(*lists, x, cap)
                assert _count_below(memoryview(diag), memoryview(off2), x, cap) == want
                assert _count_below(memoryview(diag), lists[1], x, cap) == want


def test_sturm_count_reads_strided_and_byte_swapped_arrays():
    rng = np.random.default_rng(77)
    diag = rng.uniform(-3, 3, size=80)
    off = -rng.uniform(0.0, 2.0, size=79)
    for x in rng.uniform(-6, 6, size=8).tolist() + diag[:3].tolist():
        want = sturm_count(diag, off, x)
        wide_diag, wide_off = np.repeat(diag, 2), np.repeat(off, 2)
        assert sturm_count(wide_diag[::2], wide_off[::2], x) == want
        assert sturm_count(diag.astype(">f8"), off.astype(">f8"), x) == want
        assert sturm_count(diag.tolist(), off.tolist(), x) == want


def _mp_sturm_count(diag, off, x, dps=40):
    # the Sturm count of the float64 operator in 40-digit arithmetic
    with mpmath.workdps(dps):
        x = mpmath.mpf(x)
        count, d, e2 = 0, mpmath.mpf(1), mpmath.mpf(0)
        for i, a in enumerate(diag):
            d = (mpmath.mpf(a) - x) - e2 / d
            if d < 0:
                count += 1
            if i < len(off):
                e2 = mpmath.mpf(off[i]) ** 2
        return count


def test_early_stopped_count_matches_exact_arithmetic_on_balmer_grid():
    # n = 384: the float count is exact here, on both sides of each level
    H = discretize(Coulomb(1.0), Grid("logarithmic", 1e-5, 200.0, 384))
    diag, off = H.diagonal, H.offdiagonal
    vals, widths = eigvalsh_bisect(diag, off, 3)
    off2 = off * off
    diag_l, off2_l, off_l = diag.tolist(), off2.tolist(), off.tolist()
    xs = [-1e4, -10.0, 1.0, 1e4]
    for v, w in zip(vals.tolist(), widths.tolist()):
        xs += [v - 1e-9, v - 0.5 * w, v + 0.5 * w, v + 1e-9]
    counts = []
    for x in xs:
        exact = _mp_sturm_count(diag_l, off_l, x)
        assert _count_below(diag_l, off2_l, x) == exact
        assert _count_below(diag_l, off2_l, x, 3) == min(exact, 3)
        counts.append(exact)
    assert counts[:2] == [0, 0] and counts[2] > 3
    assert counts[4:] == [0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3]


def test_off_with_overflowing_square_rejected():
    # e = 1e200 squares to inf; the pass would then meet inf / inf and count
    # 1 level below 0.5 where there are 2.  It is refused before squaring.
    diag, off = [0.0, 0.0, 0.0], [1e200, 1e200]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite square"):
            sturm_count(diag, off, 0.5)
        with pytest.raises(ValueError, match="finite square"):
            eigvalsh_bisect(diag, off, 2)
        with pytest.raises(ValueError, match="finite square"):
            eigvalsh_bisect(diag, [-math.nextafter(tridiag._OFF_MAX, math.inf), 1.0], 2)


@pytest.mark.parametrize("e", [1e150, tridiag._OFF_MAX])
def test_large_off_still_counted_exactly(e):
    # levels 0 and +-sqrt(2) e; the largest |e| with a finite square is
    # accepted.  The shifts stay clear of the dense solver's round-off, e * 1e-16.
    diag, off = np.zeros(3), np.array([e, -e])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = np.linalg.eigvalsh(_dense(diag, off / e)) * e
        for x in (-2.0 * e, -e, -1e-3 * e, 1e-3 * e, e, 2.0 * e):
            assert sturm_count(diag, off, x) == int(np.sum(ref < x))
        assert _count_below(diag.tolist(), (off * off).tolist(), -e, 1) == 1


@pytest.mark.parametrize("diag, off, lam, want", [
    # T - I = [[1, -1], [-1, 1]] is singular: elimination leaves a zero last pivot
    ([2.0, 2.0], [-1.0], 1.0, np.array([1.0, 1.0]) / math.sqrt(2.0)),
    # decoupled rows; lam sits exactly on the middle one
    ([1.0, 2.0, 3.0], [0.0, 0.0], 2.0, np.array([0.0, 1.0, 0.0])),
])
def test_inverse_iteration_retries_an_exact_zero_pivot(diag, off, lam, want):
    # the solve at lam itself meets a zero pivot; the shifted retry must give
    # the eigenvector, not the pseudo-random start vector, and warn nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = inverse_iteration(diag, off, lam)
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
    assert abs(float(np.dot(v, want))) == pytest.approx(1.0, abs=1e-10)


def test_inverse_iteration_raises_when_the_retry_fails_too(monkeypatch):
    monkeypatch.setattr(tridiag, "_inverse_iteration", lambda *args: None)
    with pytest.raises(ValueError, match="inverse iteration failed"):
        inverse_iteration([2.0, 2.0], [-1.0], 1.0)


@pytest.mark.parametrize("lam", [-1.0, 0.3, 1.0, 2.0])
def test_inverse_iteration_single_node(lam):
    assert np.array_equal(inverse_iteration([1.0], [], lam), [1.0])


_FINITE = "operator entries must be finite"
_SQUARE = f"off entries must have a finite square, |off| <= {tridiag._OFF_MAX!r}"


@pytest.mark.parametrize("diag, off, message", [
    ([1.0, math.nan, 3.0], [-1.0, -1.0], _FINITE),
    ([1.0, 2.0, 3.0], [-math.inf, -1.0], _FINITE),
    ([1.0, 2.0, 3.0], [-1e200, -1.0], _SQUARE),
], ids=["diagonal", "coupling", "square"])
def test_each_operator_rule_has_one_refusal(diag, off, message):
    # every front door, on arrays and on the record, refuses a fault with
    # the one text tridiag raises for it
    grid, nodes = Grid("uniform", 0.0, 1.0, 16), np.array([0.25, 0.5, 0.75])
    doors = [
        lambda: eigvalsh_bisect(diag, off, 2),
        lambda: sturm_count(diag, off, 0.0),
        lambda: inverse_iteration(diag, off, 0.5),
        lambda: DiscreteHamiltonian(diag, off, grid, "", nodes),
    ]
    if message == _FINITE and not np.all(np.isfinite(diag)):
        # a record's couplings are checked, so plus and diagonal_plus can
        # only meet a diagonal fault: here V = -lam/|x| overflows to -inf
        H = DiscreteHamiltonian([1.0, 2.0, 3.0], [-1.0, -1.0], grid, "", nodes)
        doors += [lambda: H.plus(Coulomb(1e308)), lambda: H.diagonal_plus(Coulomb(1e308))]
    for door in doors:
        with pytest.raises(ValueError) as info:
            door()
        assert str(info.value) == message


# Seeded bisection: guesses only choose where to count first, so values and
# widths must equal the frozen reference's whatever the guesses are.

def _pipeline_operators():
    # the operators of the balmer and cutoff workloads at seed 0
    log_grid = Grid("logarithmic", 1e-5, 200.0, 384)
    ops = {
        f"coulomb_log_{g.n}": (discretize(Coulomb(1.0), g), 3, 1e-11)
        for g in (log_grid, log_grid.refined(), log_grid.refined().refined())
    }
    neumann = Grid("uniform", 0.0, 10.0, 3200, left_bc="neumann")
    for eps in (0.2, 0.1, 0.05, 0.025, 0.0125):
        ops[f"neumann_cutoff_3200_eps{eps}"] = (
            discretize(RegularizedCoulomb(1.0, eps), neumann), 1, 1e-10)
    ops["full_line_cutoff_6399"] = (
        discretize(RegularizedCoulomb(1.0, 0.2), Grid("uniform", -10.0, 10.0, 6399)), 1, 1e-10)
    return ops


def _guess_sets(levels, k, lo, hi):
    # levels: the k lowest levels, and the next one where it exists
    exact = levels[:k]
    following = np.append(levels[1:k + 1], levels[-1] + 1.0)[:k]  # wrong index
    sets = [exact, following, np.full(k, hi + 1.0), np.full(k, lo - 1.0), np.full(k, -1e300)]
    for d in (1e-12, 1e-6, 1.0):
        sets += [exact - d, exact + d]
    return sets


def _assert_seeded_equals_reference(diag, off, k, tol):
    n = diag.shape[0]
    # The frozen bisection solves level j from the levels below it only, so
    # the first k of its k + 1 levels are those of a k-level solve.
    ref_vals, ref_widths = _reference(_seed_eigvalsh_bisect, diag, off, min(k + 1, n), tol=tol)
    lo, hi = _operator(diag, off).ends
    for guesses in _guess_sets(ref_vals, k, lo, hi):
        vals, widths = eigvalsh_bisect(diag, off, k, tol=tol, guesses=guesses)
        assert np.array_equal(vals, ref_vals[:k])
        assert np.array_equal(widths, ref_widths[:k])


def test_seeded_bisection_bit_identical_to_reference_on_random_operators():
    for diag, off in _random_operators():
        _assert_seeded_equals_reference(diag, off, min(4, diag.shape[0]), 1e-10)


@pytest.mark.parametrize("name", ["coulomb_log_384", "coulomb_log_769", "coulomb_log_1539",
                                  "neumann_cutoff_3200_eps0.0125", "full_line_cutoff_6399"])
def test_seeded_bisection_bit_identical_to_reference_on_pipeline_grids(name):
    H, k, tol = _pipeline_operators()[name]
    _assert_seeded_equals_reference(H.diagonal, H.offdiagonal, k, tol)


def _seed_cell(lo, hi, width, g):
    # the final cell of a plain bisection of [lo, hi] whose switch sits at g
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid >= g:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _cell_rule_probes(lo, hi, width, g, switched):
    # The points a guess g makes _narrow_bracket evaluate, in order, and the
    # cell of g: the cell's lower end and, while ``switched`` (the predicate)
    # holds there, c_lo - w * 8^m, m = 0, 1, ... above lo; otherwise the
    # upper end and, while the predicate fails there, c_hi + w * 8^m below hi.
    c_lo, c_hi = cell = _seed_cell(lo, hi, width, g)
    step = c_hi - c_lo
    xs = []
    if c_lo > lo:
        xs.append(c_lo)
        if switched(c_lo):
            m = 0
            while c_lo - step * 8.0 ** m > lo:
                xs.append(c_lo - step * 8.0 ** m)
                if not switched(xs[-1]):
                    break
                m += 1
            return xs, cell
    m, x = 0, c_hi
    while x < hi:
        xs.append(x)
        if switched(x):
            break
        x = c_hi + step * 8.0 ** m
        m += 1
    return xs, cell


def _step_predicates():
    # (lo, hi, width, switch): a monotone step x >= switch on [lo, hi], with
    # switches at arbitrary doubles, and widths from wide cells down to
    # brackets that end on two adjacent doubles
    rng = np.random.default_rng(29)
    cases = []
    for lo, hi in ((0.0, 2.0), (-3.5, 7.25), (-1e-3, -1e-9), (1e6, 1e6 + 1.0), (-1e300, 1e300)):
        for width in (1e-2 * (hi - lo), 1e-10 * (hi - lo), 5e-324):
            for u in rng.random(4).tolist() + [0.5]:
                s = lo + u * (hi - lo)
                if lo < s <= hi:
                    cases.append((lo, hi, width, s))
            cases.append((lo, hi, width, math.nextafter(lo, math.inf)))
            cases.append((lo, hi, width, hi))
    return cases


def test_narrow_bracket_guess_changes_only_the_evaluations():
    in_cell = 0
    for lo, hi, width, s in _step_predicates():
        xs = []

        def step(x):
            xs.append(x)
            return x >= s

        want = tridiag._narrow_bracket(step, lo, hi, width)
        assert xs and all(lo < x < hi for x in xs)
        c_lo, c_hi = _seed_cell(lo, hi, width, s)  # the switch's own cell
        assert want == (c_lo, c_hi)
        cell = c_hi - c_lo
        guesses = [s, math.nextafter(s, -math.inf), math.nextafter(s, math.inf),
                   s - cell, s + cell, s - 1e3 * cell, s + 1e3 * cell, lo, hi,
                   lo - 1.0, hi + 1.0, 2.0 * lo - hi, 2.0 * hi - lo, 0.5 * (c_lo + c_hi),
                   c_hi, math.nextafter(c_lo, math.inf), c_lo, math.nan, math.inf, -math.inf]
        for g in guesses:
            del xs[:]
            assert tridiag._narrow_bracket(step, lo, hi, width, g) == want, (lo, hi, width, s, g)
            assert len(xs) == len(set(xs)) and all(lo < x < hi for x in xs)
            if math.isfinite(g) and _seed_cell(lo, hi, width, g) == (c_lo, c_hi):
                in_cell += 1
                assert len(xs) <= 2
    assert in_cell > 500


# The bisection used to keep every (shift, count) it had taken in one sorted
# list.  Frozen here as the reference for the per-level brackets, which must
# give the same values and widths from a subset of its passes.  Its seed
# phase is the cell rule, level by level, evaluated through the list.

def _cache_eigvalsh_bisect(diag, off, k, tol, guesses=None):
    lo0, hi0 = _operator(diag, off).ends
    if lo0 == hi0:
        lo0 -= 1.0
        hi0 += 1.0
    off2 = off * off
    diag_l, off2_l = diag.tolist(), off2.tolist()
    shifts, counts = [], []

    def count_at(x):
        i = bisect_left(shifts, x)
        c = tridiag._count_below(diag_l, off2_l, x, k)
        shifts.insert(i, x)
        counts.insert(i, c)
        return c

    def above(x, j):
        i = bisect_left(shifts, x)
        if i < len(shifts) and counts[i] <= j:
            return False
        if i > 0 and counts[i - 1] > j:
            return True
        return count_at(x) > j

    values, widths = np.empty(k), np.empty(k)
    lo_floor = lo0
    for j in range(k):
        if guesses is not None:
            g = float(np.asarray(guesses, dtype=float)[j])
            _cell_rule_probes(lo_floor, hi0, tol, g, lambda x: above(x, j))
        a, b = tridiag._narrow_bracket(lambda x: above(x, j), lo_floor, hi0, tol)
        values[j] = 0.5 * (a + b)
        widths[j] = b - a
        lo_floor = a
    return values, widths


def _assert_brackets_equal_cache(diag, off, k, tol, passes):
    # every guess set and none: equal values and widths, and each pass is one
    # the cache made too; returns the passes the cache made and the passes saved
    levels, _ = _reference(_cache_eigvalsh_bisect, diag, off, min(k + 1, diag.shape[0]), tol)
    lo, hi = _operator(diag, off).ends
    made = saved = 0
    for guesses in [None, *_guess_sets(levels, k, lo, hi)]:
        del passes[:]
        ref_vals, ref_widths = _reference(_cache_eigvalsh_bisect, diag, off, k, tol, guesses)
        ref_shifts = [x for _, x in passes]
        del passes[:]
        vals, widths = eigvalsh_bisect(diag, off, k, tol=tol, guesses=guesses)
        shifts = [x for _, x in passes]
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(widths, ref_widths)
        assert len(shifts) <= len(ref_shifts)
        assert set(shifts) <= set(ref_shifts)
        made += len(ref_shifts)
        saved += len(ref_shifts) - len(shifts)
    return made, saved


def test_level_brackets_equal_the_count_cache_on_random_operators(monkeypatch):
    passes = _record_passes(monkeypatch)
    made = 0
    for diag, off in _random_operators():
        made += _assert_brackets_equal_cache(diag, off, min(4, diag.shape[0]), 1e-10, passes)[0]
    assert made > 1000


def test_a_midpoint_at_an_earlier_shift_costs_no_second_pass(monkeypatch):
    # Level 1 sits just above 0.5, so its bisection moves lo to 0.5 and then
    # counts 3 at 0.75 and 2 at 0.625.  Level 2 (0.7) starts from [0.5, 1]:
    # its first midpoint is 0.75 again, which the cache counted twice, since
    # no shift below 0.75 had a count above 2.
    passes = _record_passes(monkeypatch)
    diag, off = np.array([0.0, 0.5 + 0.5e-10, 0.7, 1.0]), np.zeros(3)
    _, saved = _assert_brackets_equal_cache(diag, off, 3, 1e-10, passes)
    assert saved >= 1
    del passes[:]
    eigvalsh_bisect(diag, off, 3, tol=1e-10)
    shifts = [x for _, x in passes]
    assert shifts.count(0.75) == 1 and len(shifts) == len(set(shifts))


@pytest.mark.parametrize("name", sorted(_pipeline_operators()))
def test_level_brackets_equal_the_count_cache_on_pipeline_grids(name, monkeypatch):
    H, k, tol = _pipeline_operators()[name]
    passes = _record_passes(monkeypatch)
    made, _ = _assert_brackets_equal_cache(H.diagonal, H.offdiagonal, k, tol, passes)
    assert made > 0


def _record_passes(monkeypatch):
    # (rows, shift) of every Sturm pass made from here on
    passes = []
    count_below = tridiag._count_below

    def recording(diag, off2, x, *args):
        passes.append((len(diag), x))
        return count_below(diag, off2, x, *args)

    monkeypatch.setattr(tridiag, "_count_below", recording)
    return passes


def _expected_seeded_passes(diag, off, k, tol, guesses):
    # (shifts, widened): every shift the seeded bisection counts, in order,
    # and how many of them a cell end moved out to.  Level by level: the cell
    # rule's probes, then the plain bisection from the last level's lower
    # edge; a shift is counted only when no shift counted before decides it.
    lo0, hi0 = _operator(diag, off).ends
    counted = []

    def exceeds(x, j):
        if any(y >= x and c <= j for y, c in counted):
            return False
        if any(y <= x and c > j for y, c in counted):
            return True
        counted.append((x, sturm_count(diag, off, x)))
        return counted[-1][1] > j

    widened = 0
    lo_floor = lo0
    for j, g in enumerate(guesses):
        g = float(g)
        probes, cell = _cell_rule_probes(lo_floor, hi0, tol, g, lambda x: exceeds(x, j))
        widened += len([x for x in probes if x not in cell])
        lo, hi = lo_floor, hi0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if exceeds(mid, j):
                hi = mid
            else:
                lo = mid
        lo_floor = lo
    return [x for x, _ in counted], widened


@pytest.mark.parametrize("name", sorted(_pipeline_operators()))
def test_a_seed_in_its_cell_takes_two_passes(name, monkeypatch):
    # seeds at the midpoints and at the upper ends of the final brackets: each
    # level is counted at the two ends of its bracket and nowhere else
    H, k, tol = _pipeline_operators()[name]
    ends = []
    narrow_bracket = tridiag._narrow_bracket

    def recording(*args):
        ends.append(narrow_bracket(*args))
        return ends[-1]

    monkeypatch.setattr(tridiag, "_narrow_bracket", recording)
    vals, widths = eigvalsh_bisect(H, None, k, tol=tol)
    monkeypatch.setattr(tridiag, "_narrow_bracket", narrow_bracket)
    passes = _record_passes(monkeypatch)
    for guesses in (vals, [hi for _, hi in ends]):
        del passes[:]
        got_vals, got_widths = eigvalsh_bisect(H, None, k, tol=tol, guesses=guesses)
        assert np.array_equal(got_vals, vals) and np.array_equal(got_widths, widths)
        shifts = [x for _, x in passes]
        assert len(shifts) == 2 * k
        for j in range(k):
            assert (shifts[2 * j], shifts[2 * j + 1]) == ends[j]


def test_seeds_widen_until_they_bracket(monkeypatch):
    passes = _record_passes(monkeypatch)
    ops = [(diag, off, min(3, diag.shape[0]), 1e-10) for diag, off in _random_operators()]
    H, k, tol = _pipeline_operators()["neumann_cutoff_3200_eps0.0125"]
    ops.append((H.diagonal, H.offdiagonal, k, tol))
    widened = 0
    for diag, off, k, tol in ops:
        levels, _ = _reference(_seed_eigvalsh_bisect, diag, off, min(k + 1, diag.shape[0]), tol=tol)
        lo, hi = _operator(diag, off).ends
        for guesses in _guess_sets(levels, k, lo, hi):
            want, moved = _expected_seeded_passes(diag, off, k, tol, guesses)
            del passes[:]
            eigvalsh_bisect(diag, off, k, tol=tol, guesses=guesses)
            assert [x for _, x in passes] == want
            widened += moved
    assert widened > 100  # the bad guesses did make the cell ends move out


def test_sturm_count_monotone_near_pipeline_levels():
    # The seeds and the per-level brackets both assume the float count is
    # monotone in x.  Check it across each level's transition, on 401
    # consecutive doubles and on a +-1e-9 window, with and without the cap.
    for H, k, tol in _pipeline_operators().values():
        diag, off = H.diagonal, H.offdiagonal
        off2 = off * off
        diag_l, off2_l = diag.tolist(), off2.tolist()
        # tol below every spacing: each bracket ends on two adjacent doubles
        vals, _ = eigvalsh_bisect(diag, off, k, tol=5e-324)
        for j, v in enumerate(vals.tolist()):
            lower, upper = [v], [v]
            for _ in range(200):
                lower.append(math.nextafter(lower[-1], -math.inf))
                upper.append(math.nextafter(upper[-1], math.inf))
            doubles = lower[:0:-1] + upper
            window = np.linspace(v - 1e-9, v + 1e-9, 41).tolist()
            for xs in (doubles, window):
                for cap in (None, k):
                    counts = [_count_below(diag_l, off2_l, x, cap) for x in xs]
                    assert counts == sorted(counts)
                    assert counts[0] <= j < counts[-1]


@pytest.mark.parametrize("guesses", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]],
                                     [1.0, math.nan, 3.0], [1.0, 2.0, math.inf], 1.0])
def test_bad_guesses_rejected(guesses):
    with pytest.raises(ValueError, match="guesses"):
        eigvalsh_bisect(np.array([1.0, 2.0, 3.0]), np.array([-1.0, -1.0]), 3, guesses=guesses)
    # also through lowest_eigenvalues, which hands its guesses on unchanged
    with pytest.raises(ValueError, match="guesses"):
        lowest_eigenvalues(_hamiltonian([1.0, 2.0, 3.0], [-1.0, -1.0]), 3, guesses=guesses)


# Seeded eigen solves: whatever the guesses, and however _rayleigh_seeds
# sharpened them, the spectrum must equal the unseeded one.

def _hamiltonian(diag, off):
    # lowest_eigenvalues reads only the entries; the grid is a placeholder
    diag = np.asarray(diag, dtype=float)
    return DiscreteHamiltonian(diag, np.asarray(off, dtype=float),
                               Grid("uniform", 0.0, 1.0, 16), "test operator",
                               np.arange(float(diag.shape[0])))


def _record_seeds(monkeypatch):
    # the guesses lowest_eigenvalues hands to the bisection, one list per solve
    seeds = []
    bisect = es.eigvalsh_bisect

    def recording(*args, guesses=None, **kwargs):
        seeds.append(None if guesses is None else [float(g) for g in guesses])
        return bisect(*args, guesses=guesses, **kwargs)

    monkeypatch.setattr(es, "eigvalsh_bisect", recording)
    return seeds


def _assert_same_spectrum(sp, ref):
    for name in ("energies", "bracket_widths", "node_counts"):
        assert np.array_equal(getattr(sp, name), getattr(ref, name)), name


def _assert_seeded_solve_equals_unseeded(H, k, tol, seeds):
    ref = lowest_eigenvalues(H, k, tol=tol)
    levels = lowest_eigenvalues(H, min(k + 1, H.size), tol=tol).energies
    lo, hi = _operator(H.diagonal, H.offdiagonal).ends
    for guesses in _guess_sets(levels, k, lo, hi):
        del seeds[:]
        _assert_same_spectrum(lowest_eigenvalues(H, k, tol=tol, guesses=guesses), ref)
        assert len(seeds) == 1 and len(seeds[0]) == k


def test_seeded_solve_bit_identical_to_unseeded_on_random_operators(monkeypatch):
    seeds = _record_seeds(monkeypatch)
    for diag, off in _random_operators():
        _assert_seeded_solve_equals_unseeded(_hamiltonian(diag, off), min(4, diag.shape[0]),
                                             1e-10, seeds)


@pytest.mark.parametrize("name", ["coulomb_log_384", "coulomb_log_769", "coulomb_log_1539"])
def test_seeded_solve_bit_identical_to_unseeded_on_balmer_grids(name, monkeypatch):
    H, k, tol = _pipeline_operators()[name]
    seeds = _record_seeds(monkeypatch)
    _assert_seeded_solve_equals_unseeded(H, k, tol, seeds)
    # a guess at the next level sends the Rayleigh quotient to that level:
    # the seed is wrong, and the spectrum above must not have noticed
    levels = lowest_eigenvalues(H, k + 1, tol=tol).energies
    wrong = tridiag._rayleigh_seeds(H, levels[1:], tol)
    assert wrong == pytest.approx(levels[1:].tolist(), abs=1e-9)
    _assert_same_spectrum(lowest_eigenvalues(H, k, tol=tol, guesses=wrong),
                          lowest_eigenvalues(H, k, tol=tol))
    # Balmer guesses become seeds far closer to the levels than they were
    balmer = np.array([-0.5, -0.125, -1.0 / 18.0])
    seeded = np.array(tridiag._rayleigh_seeds(H, balmer, tol))
    assert np.all(np.abs(seeded - levels[:k]) < 1e-3 * np.abs(balmer - levels[:k]))


def test_seed_solve_failure_keeps_the_raw_guess(monkeypatch):
    # 2.0 is an exact eigenvalue, and the retry shift 2.0 + 1e-13 * 2.0000000000002
    # rounds onto the third diagonal entry: both inverse-iteration attempts at
    # 2.0 meet an exact zero pivot
    H = _hamiltonian([1.0, 2.0, 2.0000000000002], [0.0, 0.0])
    with pytest.raises(ValueError, match="inverse iteration failed"):
        inverse_iteration(H.diagonal, H.offdiagonal, 2.0)
    ref = lowest_eigenvalues(H, 3)
    seeds = tridiag._rayleigh_seeds(H, [1.01, 2.0, 2.01], 1e-10)
    _assert_same_spectrum(lowest_eigenvalues(H, 3, guesses=seeds), ref)
    assert seeds[1] == 2.0                       # the raw guess
    assert abs(seeds[0] - 1.0) < 1e-9            # Rayleigh quotients
    assert abs(seeds[2] - 2.0000000000002) < 1e-9


def test_non_finite_rayleigh_quotient_keeps_the_raw_guess(monkeypatch):
    H, k, tol = _pipeline_operators()["coulomb_log_384"]
    ref = lowest_eigenvalues(H, k, tol=tol)
    bad = -0.49
    real = tridiag._inverse_iteration
    shifts = []

    def nan_at_bad(diag, off, lam, *args):
        # at the guess ``bad``, a vector whose Rayleigh quotient is NaN
        shifts.append(lam)
        return np.full_like(diag, math.nan) if lam == bad else real(diag, off, lam, *args)

    monkeypatch.setattr(tridiag, "_inverse_iteration", nan_at_bad)
    seeds = tridiag._rayleigh_seeds(H, [bad, -0.125, -1.0 / 18.0], tol)
    assert shifts.count(bad) == 2  # a NaN quotient takes the further solves
    _assert_same_spectrum(lowest_eigenvalues(H, k, tol=tol, guesses=seeds), ref)
    assert seeds[0] == bad
    assert seeds[1:] == pytest.approx(ref.energies[1:].tolist(), abs=1e-9)


# The Rayleigh seeds as they were computed through a callback: the first
# dgtsv solve called ``settled(v)``, which stored v's Rayleigh quotient and
# decided whether the next two solves were needed.  Frozen here with its own
# start vector, its own solve loop and its own retry, as the reference the
# two-call _rayleigh_seeds must reproduce bit for bit, solve for solve.

def _callback_inverse_iteration(diag, off, lam, v, settled):
    from scipy.linalg.lapack import dgtsv

    shifted = diag - lam
    for i in range(3):
        _, _, _, w, info = dgtsv(off, shifted, off, v)
        if info != 0:
            return None
        with np.errstate(over="ignore"):
            nrm = np.sqrt(np.sum(w * w))
        if nrm == 0.0 or not np.isfinite(nrm):
            return None
        v = w / nrm
        if i == 0 and settled(v):
            break
    return v


def _callback_rayleigh_seeds(H, guesses, tol):
    diag, off = H.diagonal, H.offdiagonal

    def quotient(v):
        with np.errstate(over="ignore", invalid="ignore"):
            hv = diag * v
            hv[:-1] += off * v[1:]
            hv[1:] += off * v[:-1]
            return float(np.dot(v, hv))

    x = np.sin(np.arange(1.0, H.size + 1.0) * 12.9898) * 43758.5453
    start = (x - np.floor(x)) - 0.5
    start = start / np.sqrt(np.sum(start * start))
    xs = [float(x) for x in guesses]
    seeds = []
    for j, g in enumerate(xs):
        gap = min((abs(g - y) for i, y in enumerate(xs) if i != j), default=0.0)
        first = []  # (v, theta) after the first solve

        def settled(v, g=g, gap=gap):
            first.append((v, quotient(v)))
            return (first[-1][1] - g) ** 2 <= gap * tol / 64.0

        v = _callback_inverse_iteration(diag, off, g, start, settled)
        if v is None:
            scale = max(1.0, float(np.max(np.abs(diag))))
            v = _callback_inverse_iteration(diag, off, g + 1e-13 * scale, start, settled)
        theta = g
        if v is not None:
            theta = first[-1][1] if first and first[-1][0] is v else quotient(v)
        seeds.append(theta if math.isfinite(theta) else g)
    return seeds


def _seed_cases(monkeypatch, tmp_path):
    # (H, guesses, tol): the three rungs of the perfbench balmer argv at
    # seeds 0 and 11 and the 401-row rung of hydrogen --n 200, each with the
    # guesses the ladder gives it; a lone guess; and the operator on which
    # both attempts at the guess 2.0 meet an exact zero pivot
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads").WORKLOADS
    cases = []
    rayleigh_seeds = es._rayleigh_seeds

    def recording(H, guesses, tol):
        cases.append((H, [float(g) for g in guesses], tol))
        return rayleigh_seeds(H, guesses, tol)

    monkeypatch.setattr(es, "_rayleigh_seeds", recording)
    for argv in (workloads["balmer"].make(0).argv, workloads["balmer"].make(11).argv):
        assert run(argv + ["--out", str(tmp_path / "o")]) == 0
    assert run(["hydrogen", "--n", "200", "--out", str(tmp_path / "o")]) == 0
    cases[6:] = [case for case in cases[6:] if case[0].size == 401]
    monkeypatch.setattr(es, "_rayleigh_seeds", rayleigh_seeds)
    assert [H.size for H, _, _ in cases] == [384, 769, 1539] * 2 + [401]
    cases.append((cases[0][0], [-0.5], 1e-10))
    cases.append((_hamiltonian([1.0, 2.0, 2.0000000000002], [0.0, 0.0]), [1.01, 2.0, 2.01], 1e-10))
    return cases


def test_rayleigh_seeds_equal_the_callback_seeds(monkeypatch, tmp_path):
    import scipy.linalg.lapack as lapack

    cases = _seed_cases(monkeypatch, tmp_path)
    solves = []
    dgtsv = lapack.dgtsv

    def counting(*args, **kwargs):
        solves.append(len(args[1]))
        return dgtsv(*args, **kwargs)

    monkeypatch.setattr(lapack, "dgtsv", counting)
    for H, guesses, tol in cases:
        del solves[:]
        want = _callback_rayleigh_seeds(H, guesses, tol)
        want_solves = len(solves)
        del solves[:]
        assert tridiag._rayleigh_seeds(H, guesses, tol) == want
        assert len(solves) == want_solves > 0


def test_vectorless_solves_keep_the_raw_guesses(monkeypatch):
    # an inverse iteration would load scipy: lowest_eigenvalues solves no
    # vector, neither for its seeds nor for its node counts
    def no_vectors(*args, **kwargs):
        raise AssertionError("inverse iteration on a vectorless solve")

    monkeypatch.setattr(tridiag, "_inverse_iteration", no_vectors)
    seeds = _record_seeds(monkeypatch)
    H, k, tol = _pipeline_operators()["coulomb_log_384"]
    lowest_eigenvalues(H, k, tol=tol, guesses=[-0.5, -0.125, -0.05])
    assert seeds == [[-0.5, -0.125, -0.05]]


def _cached_views(obj):
    # the names of the cached_property views ``obj`` has built
    return {name for name in vars(obj)
            if isinstance(getattr(type(obj), name, None), cached_property)}


def test_solve_checks_the_operator_and_builds_each_view_once(monkeypatch):
    # the bisection and the node counts share one operator check, whatever
    # k is.  The check is the record's, when it is built (one _Couplings,
    # which the potential's operator shares), so the solve checks no arrays;
    # and it builds each view of the operator once, and no view beyond these
    calls = {"_operator": 0, "_Couplings": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in calls:
        fn = counting(name, getattr(tridiag, name))
        for module in (tridiag, es):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fn)
    H = discretize(Coulomb(1.0), Grid("logarithmic", 1e-5, 200.0, 384))
    k, tol = 3, 1e-11
    lowest_eigenvalues(H, k, tol=tol, guesses=[-0.5, -0.125, -1.0 / 18.0])
    want = {"_operator": 0, "_Couplings": 1}
    assert calls == want
    assert _cached_views(H) == {"diag_list", "ends"}
    assert _cached_views(H.couplings) == {"off2", "abs_off", "radius", "blocks"}
    # a second solve on the same operator builds no view again
    lowest_eigenvalues(H, k, tol=tol)
    assert calls == want


@pytest.mark.parametrize("k", [0, -1, 385])
def test_vector_solve_refuses_k_before_any_rayleigh_seed(k, monkeypatch):
    # a k the operator does not have is refused, with the bisection's own
    # message, and no guess is solved for
    calls = []
    inverse_iteration = tridiag._inverse_iteration

    def counted(*args):
        calls.append(args)
        return inverse_iteration(*args)

    monkeypatch.setattr(tridiag, "_inverse_iteration", counted)
    H = discretize(Coulomb(1.0), Grid("logarithmic", 1e-5, 200.0, 384))
    for guesses in ([-0.5, -0.125, -1.0 / 18.0], None):
        with pytest.raises(ValueError) as info:
            lowest_eigenvalues(H, k, guesses=guesses)
        assert str(info.value) == f"k must be in [1, 384], got {k}"
    with pytest.raises(ValueError) as info:
        eigvalsh_bisect(H, None, k)
    assert str(info.value) == f"k must be in [1, 384], got {k}"
    assert calls == []


@pytest.mark.parametrize("argv, rows, bound", [
    # the full-line check, seeded from the even-sector level it reproduces:
    # the two ends of the seed's bisection cell
    (["cutoff-sweep", "--lambda", "1.0", "--epsilon", "0.2,0.1,0.05,0.025,0.0125",
      "--domain", "0:10.0", "--n", "3200"], 6399, 2),
    # three grids, each seeded with the Rayleigh quotients of its guesses
    # (the Balmer levels, then the rungs' predictions): two passes per level
    # and grid, 18 (467 without guesses, 21 when each seed was counted at
    # theta -+ tol/4)
    (["hydrogen", "--lambda", "1.0", "--states", "3", "--n", "384", "--domain", "1e-05:200.0"],
     None, 18),
    # grids 4,096 / 8,193 / 16,387: 18 passes (23 at theta -+ tol/4)
    (["hydrogen", "--n", "4096"], None, 18),
    # the float count's switch points lie up to 5.9e-10 from the Rayleigh
    # quotients here, about 60 cells of width tol = 1e-11, so the cell ends
    # often move out: 60 passes (62 at theta -+ tol/4), with the Balmer
    # guesses on every rung and with the predictions alike
    (["hydrogen", "--lambda", "3"], None, 60),
], ids=["cutoff-full-line", "balmer", "hydrogen-4096", "hydrogen-lambda-3"])
def test_seeded_solves_take_few_passes(argv, rows, bound, monkeypatch, tmp_path):
    passes = _record_passes(monkeypatch)
    assert run(argv + ["--out", str(tmp_path / "o")]) == 0
    assert 1 <= len([n for n, _ in passes if rows is None or n == rows]) <= bound


_BALMER_ARGV = ["hydrogen", "--lambda", "1.0", "--states", "3", "--n", "384",
                "--domain", "1e-05:200.0"]


@pytest.mark.parametrize("argv, rows, bound", [
    (_BALMER_ARGV, [384, 769, 1539], 18),
    (["hydrogen", "--n", "4096"], [4096, 8193, 16387], 18),
], ids=["balmer", "hydrogen-4096"])
def test_hydrogen_solves_vectors_on_the_printed_rung_only(argv, rows, bound, monkeypatch,
                                                           tmp_path):
    # Three rungs of three levels, one _rayleigh_seeds call per rung, and no
    # vector for the node counts.  The first rung's Balmer guesses lie far
    # from their levels and take three dgtsv solves each; the finer rungs'
    # predictions lie close and take one: 15 solves (36 when every seed took
    # three and the printed rung also solved its vectors).
    import scipy.linalg.lapack as lapack

    seeded, solves = [], []
    rayleigh_seeds, dgtsv = es._rayleigh_seeds, lapack.dgtsv

    def recording_seeds(H, *args):
        seeded.append(len(H))
        return rayleigh_seeds(H, *args)

    def counting_dgtsv(*args, **kwargs):
        solves.append(len(args[1]))
        return dgtsv(*args, **kwargs)

    monkeypatch.setattr(es, "_rayleigh_seeds", recording_seeds)
    monkeypatch.setattr(lapack, "dgtsv", counting_dgtsv)
    passes = _record_passes(monkeypatch)
    assert run(argv + ["--out", str(tmp_path / "o")]) == 0
    assert seeded == rows
    assert len(solves) == 15
    assert len(passes) <= bound


@pytest.mark.parametrize("seed", range(12))
def test_perfbench_balmer_takes_two_passes_per_level(seed, monkeypatch, tmp_path):
    # every seed of the benchmark's balmer argv: 3 rungs x 3 levels, each
    # seed in its level's final cell
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    argv = importlib.import_module("workloads").WORKLOADS["balmer"].make(seed).argv
    passes = _record_passes(monkeypatch)
    assert run(argv + ["--out", str(tmp_path / "o")]) == 0
    assert len(passes) == 18


def test_rungs_solve_from_the_prediction_seeds(monkeypatch):
    # each rung is seeded by _rayleigh_seeds from its guesses: the Balmer
    # levels, then the wall-shifted Balmer level W plus a quarter of the
    # first rung's distance from it, then the h^2 prediction from the two
    # rungs below; the ladder makes the passes of those seeded solves and
    # no other
    grid = Grid("logarithmic", 1e-5, 200.0, 384)
    balmer = np.array([-0.5, -0.125, -1.0 / 18.0])
    wall = balmer * (1.0 - 4.0 * 1e-5 / np.arange(1.0, 4.0))
    passes = _record_passes(monkeypatch)
    result = es.hydrogen_spectrum(grid=grid)
    ladder = list(passes)
    del passes[:]
    E, spectra = [], []
    for i, g in enumerate((grid, grid.refined(), grid.refined().refined())):
        if i == 0:
            guesses = balmer
        elif i == 1:
            guesses = wall + (E[0] - wall) / 4.0
        else:
            guesses = E[1] + (E[1] - E[0]) / 4.0
        H = discretize(Coulomb(1.0), g)
        spectra.append(lowest_eigenvalues(H, 3, tol=es._HYDROGEN_TOL,
                                          guesses=tridiag._rayleigh_seeds(H, guesses,
                                                                          es._HYDROGEN_TOL)))
        E.append(spectra[-1].energies)
    assert ladder == passes
    assert len(ladder) == 18
    assert np.array_equal(result.energies_by_level, np.vstack(E))
    _assert_same_spectrum(result.spectrum, spectra[-1])
    assert result.spectrum.node_counts.tolist() == [0, 1, 2]
    # the predictions lie within 1e-8 of each rung's levels (Balmer lies
    # 3e-6 to 5e-5 from them)
    assert np.all(np.abs(wall + (E[0] - wall) / 4.0 - E[1]) < 1e-8)
    assert np.all(np.abs(E[1] + (E[1] - E[0]) / 4.0 - E[2]) < 1e-8)


# ------------------------------------------------ cut-off seeds at the wall
_CUTOFF_ARGV = ["cutoff-sweep", "--lambda", "1.0", "--epsilon", "0.2,0.1,0.05,0.025,0.0125",
                "--domain", "0:10.0", "--n", "3200"]
_CUTOFF_KW = dict(lam=1.0, eps_list=(0.2, 0.1, 0.05, 0.025, 0.0125), L=10.0, n=3200)


def _perfbench_cutoff_args(seed):
    # cutoff_sweep's arguments from the perfbench `cutoff` argv at ``seed``
    argv = importlib.import_module("workloads").WORKLOADS["cutoff"].make(seed).argv

    def arg(flag):
        return argv[argv.index(flag) + 1]

    eps = tuple(float(e) for e in arg("--epsilon").split(","))
    return dict(lam=float(arg("--lambda")), eps_list=eps,
                L=float(arg("--domain").split(":")[1]), n=int(arg("--n")))


def _record_cap_solves(monkeypatch):
    # (H, guesses, spectrum) of every even-sector solve from here on
    solves = []
    solve = es.lowest_eigenvalues

    def recording(H, k, **kwargs):
        sp = solve(H, k, **kwargs)
        if H.grid.left_bc == "neumann":
            solves.append((H, kwargs.get("guesses"), sp))
        return sp

    monkeypatch.setattr(es, "lowest_eigenvalues", recording)
    return solves


@pytest.mark.parametrize("seed", [*range(11), None],
                         ids=[*(f"seed-{s}" for s in range(11)), "default"])
def test_cutoff_cap_levels_equal_the_frozen_bisection(seed, monkeypatch):
    # every cap is seeded by _wall_level, within the bisection tolerance of
    # its level, and still lands on the bytes of the unseeded frozen bisection
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    solves = _record_cap_solves(monkeypatch)
    result = es.cutoff_sweep(**({} if seed is None else _perfbench_cutoff_args(seed)))
    assert len(solves) == len(result.epsilons) == 5
    for H, guesses, sp in solves:
        want_vals, want_widths = _reference(
            _seed_eigvalsh_bisect, H.diagonal, H.offdiagonal, 1, tol=es._CUTOFF_TOL)
        assert np.array_equal(sp.energies, want_vals)
        assert np.array_equal(sp.bracket_widths, want_widths)
        assert abs(guesses[0] - want_vals[0]) < es._CUTOFF_TOL


def test_cached_views_equal_fresh_ones(monkeypatch):
    # each view a record built once equals the one built fresh from its
    # arrays, after solves have read it: on every pipeline operator, and on
    # the five caps of the default sweep, which share one kinetic operator's
    # coupling views
    records = []
    for H, k, tol in _pipeline_operators().values():
        lowest_eigenvalues(H, k, tol=tol)
        records.append(H)
    solves = _record_cap_solves(monkeypatch)
    es.cutoff_sweep()
    caps = [H for H, _, _ in solves]
    assert len(caps) == 5 and len({id(H.couplings) for H in caps}) == 1
    for H in records + caps:
        diag, off = H.diagonal, H.offdiagonal
        assert H.diag_list == diag.tolist()
        assert H.couplings.off2 == (off * off).tolist()
        assert H.ends == _operator(diag, off).ends
        cuts = [i + 1 for i, e in enumerate(off.tolist()) if e == 0.0]
        assert H.couplings.blocks == list(zip([0, *cuts], [*cuts, len(diag)]))


def test_cutoff_sweep_builds_one_kinetic_part_per_grid(monkeypatch):
    # the five caps share the half line's kinetic operator; the full-line
    # check builds its own
    grids = []
    kinetic_part = es._kinetic_part

    def counted(spec, grid):
        grids.append(grid)
        return kinetic_part(spec, grid)

    monkeypatch.setattr(es, "_kinetic_part", counted)
    es.cutoff_sweep(**_CUTOFF_KW)
    assert [(g.left_bc, g.n) for g in grids] == [("neumann", 3200), ("dirichlet", 6399)]


def test_cutoff_sweep_checks_each_diagonal_once(monkeypatch):
    # two kinetic parts and six operators made by plus (five caps and the
    # full-line check): each diagonal is checked once, when its record is built
    rows = []
    diagonal = tridiag._diagonal

    def counted(diag, off):
        rows.append(len(diag))
        return diagonal(diag, off)

    for module in (tridiag, es):
        monkeypatch.setattr(module, "_diagonal", counted)
    es.cutoff_sweep(**_CUTOFF_KW)
    assert sorted(rows) == [3200] * 6 + [6399] * 2


def test_cutoff_caps_take_few_passes(monkeypatch, tmp_path):
    # 10 passes on the five caps and 2 on the full-line check: the two ends
    # of each seed's bisection cell; without the _wall_level seeds the caps
    # take 260
    passes = _record_passes(monkeypatch)
    assert run(_CUTOFF_ARGV + ["--out", str(tmp_path / "o")]) == 0
    assert len(passes) <= 12


def _cap_operator(eps, lam=1.0, L=10.0, n=3200):
    return discretize(RegularizedCoulomb(lam, eps), Grid("uniform", 0.0, L, n, left_bc="neumann"))


@pytest.mark.parametrize("diag, off, x", [
    # the last row's backward pivot is exactly 0 at x = 2
    (np.full(16, 2.0), np.full(15, -1.0), 2.0),
    # ... and the pivot of row 14 at x = 0: d_15 = 1, d_14 = 1 - 1 / 1
    (np.ones(16), np.full(15, -1.0), 0.0),
    # ... and row 2's, below a zero coupling: d_3 = 3, d_2 = 0 - 0 / 3
    (np.array([1.0, 1.0, 0.0, 3.0]), np.array([-1.0, -1.0, 0.0]), 0.0),
])
def test_wall_level_refuses_a_zero_backward_pivot(diag, off, x):
    # a pivot D_i <= 0 with i >= 1 puts x at or above the trailing block's
    # lowest level; the sweep stops there, before dividing by it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tridiag._wall_level(_hamiltonian(diag, off), x, -10.0, 10.0) is None


def test_wall_level_stops_on_a_zero_pivot_at_the_wall():
    # D_0 = 1 - 1 / 1 = 0 at x = 0: x is the level, and the step is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tridiag._wall_level(_hamiltonian(np.ones(2), [-1.0]), 0.0, -1.0, 1.0) == 0.0


def test_wall_level_refuses_a_start_above_the_trailing_block():
    # at eps = 0.2 the trailing block T[1:, 1:] (the odd sector, near -0.5)
    # has a level below -0.3: Newton from there would climb to +2.6
    H = _cap_operator(0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tridiag._wall_level(H, -0.3, -5.0, math.inf) is None
        g = tridiag._wall_level(H, -5.0, -5.0, math.inf)
    level = eigvalsh_bisect(H.diagonal, H.offdiagonal, 1)[0][0]
    assert abs(g - level) < 1e-10


def test_wall_level_reads_the_block_above_a_zero_coupling():
    # a zero coupling inside the rows the last sweep reads (about 900 here)
    # decouples the rows below it: the guess is the lowest level of the
    # block that holds row 0
    H = _cap_operator(0.0125)
    off = H.offdiagonal.copy()
    off[300] = 0.0
    block = eigvalsh_bisect(H.diagonal[:301], off[:300], 1)[0][0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = tridiag._wall_level(_hamiltonian(H.diagonal, off), -10.0, -80.0, -10.0)
    assert abs(g - block) < 1e-10
    assert block > eigvalsh_bisect(H.diagonal, H.offdiagonal, 1)[0][0] + 1e-6


@pytest.mark.parametrize("bias", ["measured", "underestimated"])
@pytest.mark.parametrize("eps", [0.2, 0.1, 0.05, 0.0125])
def test_wall_level_lands_from_any_start(eps, bias, monkeypatch):
    # from E (1 -+ r), wherever that lies in [floor, T[1:, 1:]'s lowest level)
    # (the starts a Newton step on D_0 can use), the guess lands within the
    # bisection tolerance 1e-10 of the bisected level: the last step comes
    # from a converged point, even from a start so near the level that a
    # shallow first step measures only the truncation's bias (as r = 1e-3
    # and 3e-3 above it do).  The last step's own size proves it: with the
    # tail's bias taken as 1e-12 e^(-2K), the steps reach K = _WALL_K_LAST
    # too early, and the guess still lands.
    if bias == "underestimated":
        monkeypatch.setattr(tridiag, "_WALL_BIAS", 1e-12)
    H = _cap_operator(eps)
    level = eigvalsh_bisect(H.diagonal, H.offdiagonal, 1, tol=es._CUTOFF_TOL)[0][0]
    trailing = eigvalsh_bisect(H.diagonal[1:], H.offdiagonal[1:], 1)[0][0]
    floor = -1.0 / eps
    starts = [level * (1.0 - sign * r) for r in (1e-6, 1e-4, 1e-3, 3e-3, 1e-2, 1e-1, 0.5)
              for sign in (1.0, -1.0)]
    starts = [x for x in starts if floor <= x < trailing]
    assert len(starts) >= 13
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in starts:
            g = tridiag._wall_level(H, x, floor, math.inf)
            assert g is not None and abs(g - level) < es._CUTOFF_TOL, x


@pytest.mark.parametrize("eps", [(0.2, 0.1999), (0.2, 0.1999998), (0.1, 0.0999, 0.0998),
                                 (0.2, 0.2 * (1.0 - 1e-9)), (0.2, 0.2 * (1.0 - 1e-12))],
                         ids=lambda eps: ",".join(map(repr, eps)))
def test_nearly_equal_caps_keep_their_seeds(eps, monkeypatch):
    # a cap's guess may round above the last cap's level, or land there from
    # the truncation's bias: it is kept, within the bisection tolerance of the
    # level, and the cap takes the two passes of a seed in its cell, or three
    # (a cap bisected without a guess takes 52)
    solves = _record_cap_solves(monkeypatch)
    passes = _record_passes(monkeypatch)
    result = es.cutoff_sweep(1.0, eps, L=10.0, n=3200)
    assert len(solves) == len(eps)
    for _, guesses, sp in solves:
        assert guesses is not None
        assert abs(guesses[0] - sp.energies[0]) < es._CUTOFF_TOL
    assert result.energies == tuple(float(sp.energies[0]) for _, _, sp in solves)
    assert len(passes) <= 3 * len(eps) + 2


def test_extrapolated_level_predicts_the_next_cap():
    # kappa = sqrt(-2E) through the last caps, as a polynomial in ln(epsilon):
    # on the perfbench caps it predicts the third within 6 % and the fourth
    # and fifth within 4e-3; it gives nan where it has no polynomial to fit
    eps = (0.2, 0.1, 0.05, 0.025, 0.0125)
    levels = es.cutoff_sweep(1.0, eps, L=10.0, n=3200).energies
    for i, bound in ((2, 0.06), (3, 4e-3), (4, 4e-3)):
        guess = es._extrapolated_level(eps[:i], levels[:i], eps[i])
        assert abs(guess - levels[i]) < bound * abs(levels[i])
    a = math.nextafter(0.2, 0.0)
    b = math.nextafter(a, 0.0)
    assert math.log(a) == math.log(b)  # two caps, one ln(epsilon)
    nan_cases = [((), (), 0.1), ((0.2,), (levels[0],), 0.1), ((0.2, 0.1), (levels[0], 0.0), 0.05),
                 ((a, b), levels[:2], 0.1)]
    for args in nan_cases:
        assert math.isnan(es._extrapolated_level(*args))


@pytest.mark.parametrize("eps", [(0.4, 0.2), (1.0,)])
def test_cutoff_sweep_on_the_minimum_grid(eps, monkeypatch):
    # 16 nodes: the sweeps reach the far wall, and the seeds still land
    solves = _record_cap_solves(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = es.cutoff_sweep(1.0, eps, L=1.6, n=16)
    assert len(solves) == len(eps)
    for (H, guesses, sp), energy in zip(solves, result.energies):
        assert guesses is not None
        assert abs(guesses[0] - energy) < es._CUTOFF_TOL
        assert np.array_equal(sp.energies, eigvalsh_bisect(H.diagonal, H.offdiagonal, 1)[0])


def test_cutoff_sweep_restarts_a_cap_at_the_well_floor(monkeypatch):
    # a wide cap in a deep well: the trailing block's lowest level (the odd
    # state of the cap's box) lies below the level of the cap before, so the
    # start there gives no guess, and the start at the floor -lam/epsilon does
    starts = []
    wall_level = es._wall_level

    def recorded(H, x, lo, hi):
        g = wall_level(H, x, lo, hi)
        starts.append((x, g))
        return g

    monkeypatch.setattr(es, "_wall_level", recorded)
    result = es.cutoff_sweep(8.0, (4.0, 1.0), L=8.0, n=200)
    assert [x for x, _ in starts] == [-2.0, result.energies[0], -8.0]
    assert starts[1][1] is None
    for (_, g), energy in zip(starts[::2], result.energies):
        assert abs(g - energy) < es._CUTOFF_TOL


@pytest.mark.parametrize("bad", ["start-above-trailing", "wrong-guess", "no-guess"])
def test_cutoff_sweep_levels_do_not_depend_on_the_seeds(bad, monkeypatch):
    want = es.cutoff_sweep(**_CUTOFF_KW)
    wall_level = es._wall_level

    def spoiled(H, x, lo, hi):
        if bad == "start-above-trailing":
            return wall_level(H, -0.3, lo, hi)
        if bad == "wrong-guess":
            g = wall_level(H, x, lo, hi)
            return None if g is None else g + 0.5
        return None

    monkeypatch.setattr(es, "_wall_level", spoiled)
    got = es.cutoff_sweep(**_CUTOFF_KW)
    assert got.energies == want.energies
    assert got.full_line_check == want.full_line_check

