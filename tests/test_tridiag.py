import math

import numpy as np
import pytest

from dipole1d.eigensolver import Grid, discretize
from dipole1d.potentials import Coulomb, PhysicalDipole, PointDipole, RegularizedCoulomb
from dipole1d.tridiag import (
    _count_below,
    count_sign_changes,
    eigvalsh_bisect,
    gershgorin_bounds,
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
    lo, hi = gershgorin_bounds(diag, off)
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


def test_count_sign_changes():
    assert count_sign_changes(np.array([1.0, 2.0, 1.0])) == 0
    assert count_sign_changes(np.array([1.0, -1.0, 1.0])) == 2
    assert count_sign_changes(np.array([1.0, 1e-14, -1.0])) == 1
    assert count_sign_changes(np.array([0.0, 0.0])) == 0
    x = np.sin(np.linspace(0.01, 3 * math.pi - 0.01, 200))
    assert count_sign_changes(x) == 2


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
    lo0, hi0 = gershgorin_bounds(diag, off)
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
