"""Symmetric tridiagonal eigenvalues by Sturm-sequence bisection.

Self-contained: the Sturm count gives guaranteed index bracketing, which the
node-theorem checks elsewhere rely on, so no LAPACK-backed solver is used on
this path.  Eigenvectors come from inverse iteration with a pivoted
tridiagonal solve.  The kernels loop over ``tolist()`` copies of the operator:
Python float arithmetic is the same IEEE double arithmetic as numpy float64,
at a fraction of the cost of reading numpy scalars one at a time.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import islice

import numpy as np

__all__ = [
    "sturm_count",
    "gershgorin_bounds",
    "eigvalsh_bisect",
    "inverse_iteration",
    "count_sign_changes",
]

_TINY = 1e-300


def _count_below(diag, off2, x):
    # Number of sign agreements in the LDL^T pivots of T - x*I equals the
    # number of eigenvalues strictly below x (Sturm sequence).  A pivot of
    # exactly 0 is floored to -_TINY; the next e2 / d may then overflow to
    # inf, which IEEE arithmetic carries through correctly.
    d = diag[0] - x
    if d == 0.0:
        d = -_TINY
    count = 1 if d < 0.0 else 0
    for a, e2 in zip(islice(diag, 1, None), off2):
        d = (a - x) - e2 / d
        if d == 0.0:
            d = -_TINY
        if d < 0.0:
            count += 1
    return count


def sturm_count(diag: np.ndarray, off: np.ndarray, x: float) -> int:
    """Count eigenvalues of tridiag(diag, off) strictly below x."""
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    if off.shape[0] != diag.shape[0] - 1:
        raise ValueError("off must have length n - 1")
    return _count_below(diag.tolist(), (off * off).tolist(), float(x))


def gershgorin_bounds(diag: np.ndarray, off: np.ndarray) -> tuple[float, float]:
    """Interval certain to contain the whole spectrum."""
    diag = np.asarray(diag, dtype=float)
    off = np.abs(np.asarray(off, dtype=float))
    radius = np.zeros_like(diag)
    radius[:-1] += off
    radius[1:] += off
    return float(np.min(diag - radius)), float(np.max(diag + radius))


def eigvalsh_bisect(
    diag: np.ndarray,
    off: np.ndarray,
    k: int,
    tol: float = 1e-10,
    maxit: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest eigenvalues, each bisected to a bracket below ``tol``.

    Returns (values, widths): bracket midpoints and final bracket widths.
    Index bracketing is exact because the Sturm count is monotone in x.
    Every count taken is kept, so a bisection step that an earlier count
    already decides costs no Sturm pass.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    n = diag.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    lo0, hi0 = gershgorin_bounds(diag, off)
    if lo0 == hi0:
        lo0 -= 1.0
        hi0 += 1.0
    diag_l = diag.tolist()
    off2 = (off * off).tolist()
    shifts: list[float] = []  # every shift counted so far, ascending
    counts: list[int] = []    # their Sturm counts, nondecreasing with them
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
            # above: mid lies above eigenvalue j, i.e. count(mid) >= j + 1
            i = bisect_left(shifts, mid)
            if i < len(shifts) and counts[i] <= j:
                above = False  # a shift >= mid has at most j eigenvalues below
            elif i > 0 and counts[i - 1] > j:
                above = True  # a shift < mid already has j + 1 below
            else:
                c = _count_below(diag_l, off2, mid)
                shifts.insert(i, mid)
                counts.insert(i, c)
                above = c > j
            if above:
                b = mid
            else:
                a = mid
            it += 1
        values[j] = 0.5 * (a + b)
        widths[j] = b - a
        lo_floor = a
    return values, widths


def _factor_shifted(diag, off, lam):
    # Gaussian elimination with partial pivoting on T - lam*I.  Pivoting
    # introduces a second superdiagonal (u2).  Returns the pivots, both
    # superdiagonals, the multipliers and which steps swapped rows, so that
    # every solve with this shift reuses one factorization.
    n = len(diag)
    d = [a - lam for a in diag]
    u1 = off + [0.0]
    u2 = [0.0] * n
    mult = [0.0] * (n - 1)
    swap = [False] * (n - 1)
    for i in range(n - 1):
        sub = off[i]
        if abs(sub) > abs(d[i]):
            # swap rows i and i+1
            td, tu1, tu2 = d[i], u1[i], u2[i]
            d[i] = sub
            u1[i] = d[i + 1]
            u2[i] = u1[i + 1]
            d[i + 1] = tu1
            u1[i + 1] = tu2
            sub = td
            swap[i] = True
        piv = d[i]
        if piv == 0.0:
            piv = _TINY
            d[i] = piv
        m = sub / piv
        mult[i] = m
        d[i + 1] = d[i + 1] - m * u1[i]
        u1[i + 1] = u1[i + 1] - m * u2[i]
    if d[n - 1] == 0.0:
        d[n - 1] = _TINY
    return d, u1, u2, mult, swap


def _solve_shifted(factors, rhs):
    # (T - lam*I) x = rhs from the factors of _factor_shifted: the same row
    # operations on rhs, then back substitution.
    d, u1, u2, mult, swap = factors
    n = len(d)
    x = list(rhs)
    for i in range(n - 1):
        if swap[i]:
            x[i], x[i + 1] = x[i + 1], x[i]
        x[i + 1] = x[i + 1] - mult[i] * x[i]
    x[n - 1] = x[n - 1] / d[n - 1]
    if n > 1:
        x[n - 2] = (x[n - 2] - u1[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - u1[i] * x[i + 1] - u2[i] * x[i + 2]) / d[i]
    return x


@lru_cache(maxsize=4)
def _start_vector(n):
    # deterministic, generic unit start vector (float-hash; no RNG state needed)
    v = np.empty(n)
    for i in range(n):
        x = np.sin((i + 1.0) * 12.9898) * 43758.5453
        v[i] = (x - np.floor(x)) - 0.5
    v /= np.sqrt(np.sum(v * v))
    v.flags.writeable = False
    return v


def _inverse_iteration(diag, off, lam, iters):
    factors = _factor_shifted(diag, off, lam)
    v = _start_vector(len(diag))
    for _ in range(iters):
        w = np.array(_solve_shifted(factors, v.tolist()))
        nrm = np.sqrt(np.sum(w * w))
        if nrm == 0.0 or not np.isfinite(nrm):
            break
        v = w / nrm
    return v


def inverse_iteration(
    diag: np.ndarray,
    off: np.ndarray,
    lam: float,
    iters: int = 3,
) -> np.ndarray:
    """Unit eigenvector estimate for the eigenvalue nearest lam."""
    diag = np.asarray(diag, dtype=float)
    diag_l = diag.tolist()
    off_l = np.asarray(off, dtype=float).tolist()
    v = _inverse_iteration(diag_l, off_l, float(lam), int(iters))
    if not np.all(np.isfinite(v)):
        # retry with a tiny relative shift away from an exact pivot kill
        scale = max(1.0, float(np.max(np.abs(diag))))
        v = _inverse_iteration(diag_l, off_l, float(lam) + 1e-13 * scale, int(iters))
    return np.array(v)  # a copy: v may still be the cached start vector


def count_sign_changes(v: np.ndarray, rel_tol: float = 1e-8) -> int:
    """Strict sign changes of v, ignoring entries below rel_tol * max|v|."""
    v = np.asarray(v, dtype=float)
    vmax = float(np.max(np.abs(v)))
    if vmax == 0.0:
        return 0
    keep = v[np.abs(v) > rel_tol * vmax]
    signs = np.sign(keep)
    return int(np.count_nonzero(signs[1:] != signs[:-1]))
