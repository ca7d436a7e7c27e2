"""Symmetric tridiagonal eigenvalues by Sturm-sequence bisection.

Eigenvalues come from Sturm-sequence bisection: the count gives guaranteed
index bracketing, which the node-theorem checks elsewhere rely on.  The Sturm
kernel loops over Python floats: Python float arithmetic is the same IEEE
double arithmetic as numpy float64, at a fraction of the cost of reading
numpy scalars one at a time.  Where the floats come from depends on how many
passes an operator gets.  ``eigvalsh_bisect`` counts one operator tens of
times, so it copies the diagonal and the squared couplings to lists once and
every pass reuses them.  A caller that makes one pass per operator
(``sturm_count``, and the dipole scan's binding predicate ``critical._binds``)
reads its arrays in place through memoryviews, which yield the same doubles
but build each only when the pass reaches its row.  On the 3001-node
dipole-scan operator at d = 0.05 and p = 0.0125 (2-vCPU Xeon VM, Python
3.11.7, one pinned CPU), ``tolist()`` of the diagonal takes 52 us; the
predicate's pass, capped at one level and stopping after 1,608 rows, takes
154 us with that copy and 115 us in place; a full pass takes 329 us with
both copies and 275 us in place.

Eigenvectors come from inverse iteration, each solve LAPACK's ``dgtsv``:
Gaussian elimination with partial pivoting on the general tridiagonal matrix
(Anderson et al., LAPACK Users' Guide, 3rd ed., SIAM 1999).  scipy is
imported only there, so importing the package does not load it.
``_eigenvectors`` runs the inverse iterations at many shifts from one start
vector, for callers that have already checked the operator.

A Sturm pass stops as soon as its answer is decided.  A bisection step only
asks whether count(x) > j for some j < k, so the pass may stop once the count
reaches k.  And once the LDL^T pivots reach rows that are diagonally dominant
enough at x, no later pivot can be negative (Barth, Martin and Wilkinson
1967): ``_tail_certificate`` proves this row by row in the same float
operations the pass performs, once per operator, so the early stop gives the
exact count that the full pass gives.

A caller that already knows roughly where each level lies (an analytic
level, the same level of a symmetric reduction) passes it as a guess;
``eigensolver.lowest_eigenvalues`` first sharpens a guess to a Rayleigh
quotient when it solves for vectors anyway, so a seed is then usually
within a rounding error of its level and brackets it in two passes.  A
lowest level whose vector peaks at row 0, as the even sector's does at a
Neumann wall, gets such a seed without vectors and without scipy:
``_wall_level`` iterates the Rayleigh quotient of the twisted factorization
at twist index 0, which needs only the backward pivots of T - x*I, from a
start the caller knows (``eigensolver.cutoff_sweep`` starts each cap at the
last cap's level).  The five caps of the perfbench ``cutoff`` argv then
take 14 passes instead of 260.

Given guesses, the bisection first counts at the two shifts g -+ tol/4
around each guess g, widening a side by a factor of 8 until the two counts
bracket the level.  Why tol/4: the final bisection bracket is wider than
tol/2, so the last midpoints near the level mostly fall outside a seeded
bracket of width tol/2, where its two counts already decide them; from
g -+ tol, about two of them per level needed a pass.  A smaller first half-width saves fewer
passes than its widening costs where the float count's switch point lies up
to 5.9e-10 from the Rayleigh quotient, as on the default hydrogen grids at
lam = 3 (62 passes at tol/4, 63 at tol, 69 at tol/8).  The midpoints stay
those of the plain bisection from the Gershgorin interval.

What the counts taken so far know is kept as one bracket per level:
below[j], the largest shift counted with count <= j, and above[j], the
smallest shift counted with count >= j + 1; each pass updates all k of them.
The float Sturm count is monotone in the shift (Kahan 1966; Demmel, Dhillon
and Ren, ETNA 3, 1995), so a midpoint at or below below[j] has count <= j
and one at or above above[j] has count > j, and only a midpoint strictly
between them needs a pass.  No count taken says more about level j than
these two ends do: a shift with count <= j lies at or below below[j], one
with count > j at or above above[j].  So the brackets hold exactly what a
list of every (shift, count) would, a midpoint equal to an earlier shift
costs no second pass, and a count capped at k still decides count > j for
every j < k.  A midpoint inside a seeded bracket is decided as a pass at it
would decide it: values and widths do not depend on the guesses, only the
number of passes does.

Entries |e| whose square overflows are refused, because the pass would then
meet inf / inf and miscount.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
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
_DENORM = 5e-324  # the smallest positive double
_OFF_MAX = math.sqrt(sys.float_info.max)  # the largest |e| whose square is finite
_SEED_FIRST = 0.25  # first half-width of a seed's bracket, in units of tol
_SEED_WIDEN = 8.0  # factor by which a seed that fails to bracket its level moves out
_SOLVES = 3  # dgtsv solves per inverse iteration
_NODE_RTOL = 1e-8  # entries below this fraction of max|v| carry no sign
_WALL_K_FIRST = 3.0  # e-folds of decay a _wall_level sweep keeps on its first step
_WALL_K_LAST = 14.0  # ... on its last step: a truncation shift near e^-28 relative
_WALL_K_RATE = 2.0  # K after a step of relative size r is -_WALL_K_RATE * ln(r)
_WALL_STEPS = 12  # _wall_level steps before its guess is dropped


def _operator(diag, off):
    # float arrays of tridiag(diag, off); the early-stop proof needs finite
    # entries, and the pass needs finite squares e^2: an inf e^2 meets inf / inf
    # and miscounts silently
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    if diag.ndim != 1 or off.shape != (diag.shape[0] - 1,):
        raise ValueError("off must have length n - 1")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise ValueError("diag and off must be finite")
    if not np.all(np.abs(off) <= _OFF_MAX):
        raise ValueError(f"off entries must have a finite square, |off| <= {_OFF_MAX!r}")
    return diag, off


def _shift(x, name="x") -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def _count_below(diag, off2, x, cap=None, tail=None):
    # Number of sign agreements in the LDL^T pivots of T - x*I equals the
    # number of eigenvalues strictly below x (Sturm sequence).  A pivot of
    # exactly 0 is floored to -_TINY; the next e2 / d may then overflow to
    # inf, which IEEE arithmetic carries through correctly.
    #
    # The pass returns early in two cases.  (1) The count reaches ``cap``:
    # it returns cap, i.e. min(count, cap).  (2) ``tail`` is
    # _tail_certificate(...) = (bound, floor), and a pivot d_i >= bound[i]
    # occurs at a row i >= start - 1, where start is the first row with
    # floor[start] >= x: every row from start on then has a threshold
    # t >= x.  IEEE rounding is monotone, so d_{i-1} >= b_{i-1} > 0 gives
    # fl(e2 / d_{i-1}) <= r_i, x <= t_i gives fl(a_i - x) >= fl(a_i - t_i),
    # and so d_i >= fl(fl(a_i - t_i) - r_i) >= b_i: no later pivot is zero or
    # negative, and the count so far is the exact count.
    n = len(diag)
    if cap is None:
        cap = n
    bound, first = (), n  # first: the first row whose pivot may end the pass
    if tail is not None:
        bound, floor = tail
        first = max(bisect_left(floor, x) - 1, 0)
    d = diag[0] - x
    if d == 0.0:
        d = -_TINY
    count = 1 if d < 0.0 else 0
    if count == cap or (first == 0 and d >= bound[0]):
        return count
    first = max(first, 1)
    for a, e2 in zip(islice(diag, 1, first), off2):
        d = (a - x) - e2 / d
        if d <= 0.0:
            if d == 0.0:
                d = -_TINY
            count += 1
            if count == cap:
                return count
    # bound leads the zip: without a tail it is empty, and the loop ends
    # before islice steps a memoryview through rows the pass has read
    for b, a, e2 in zip(islice(bound, first, None), islice(diag, first, None),
                        islice(off2, first - 1, None)):
        d = (a - x) - e2 / d
        if d >= b:
            return count
        if d <= 0.0:
            if d == 0.0:
                d = -_TINY
            count += 1
            if count == cap:
                return count
    return count


def _tail_certificate(diag, off, off2):
    # The per-operator certificate of _count_below: the lists (bound, floor).
    # Row i gets b_i = |e_i| (the smallest positive double where e_i = 0 and
    # on the last row), r_i = fl(e2_{i-1} / b_{i-1}) and a threshold t_i
    # checked to satisfy fl(fl(a_i - t_i) - r_i) >= b_i in exactly the float
    # operations of the pass.  Rows where that fails get t_i = -inf.  floor
    # holds the suffix minima of t, so it is ascending.
    n = diag.shape[0]
    b = np.full(n, _DENORM)
    b[:-1] = np.where(off == 0.0, _DENORM, np.abs(off))
    r = np.zeros(n)
    r[1:] = off2 / b[:-1]  # inf where e2 overflowed
    usable = np.isfinite(r)
    r[~usable] = 0.0  # kept out of inf - inf; those rows get -inf below
    with np.errstate(over="ignore"):  # a threshold below -DBL_MAX is -inf, still sound
        t = (diag - r) - b
        ok = usable & (((diag - t) - r) >= b)
        # Rounding can leave the first guess a few ulps short: retry once
        # with a margin on the scale of the rounding errors.
        retry = usable & ~ok
        t[retry] -= 4.0 * np.finfo(float).eps * (np.abs(diag) + r + b)[retry]
        ok |= retry & (((diag - t) - r) >= b)
    t[~ok] = -np.inf
    floor = np.minimum.accumulate(t[::-1])[::-1]
    return b.tolist(), floor.tolist()


def sturm_count(diag: np.ndarray, off: np.ndarray, x: float) -> int:
    """Count eigenvalues of tridiag(diag, off) strictly below x."""
    diag, off = _operator(diag, off)
    return _count_below(memoryview(diag), memoryview(off * off), _shift(x))


def _narrow_bracket(predicate, lo: float, hi: float, width: float) -> tuple[float, float]:
    """Bisect [lo, hi], where ``predicate`` is false at lo and true at hi,
    until hi - lo <= ``width`` or no float lies strictly between the ends."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _gershgorin(diag, off):
    # gershgorin_bounds of an operator _operator already checked
    off = np.abs(off)
    radius = np.zeros_like(diag)
    radius[:-1] += off
    radius[1:] += off
    return float(np.min(diag - radius)), float(np.max(diag + radius))


def gershgorin_bounds(diag: np.ndarray, off: np.ndarray) -> tuple[float, float]:
    """Interval certain to contain the whole spectrum."""
    return _gershgorin(*_operator(diag, off))


def eigvalsh_bisect(
    diag: np.ndarray,
    off: np.ndarray,
    k: int,
    tol: float = 1e-10,
    guesses=None,
) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest eigenvalues, each bisected to a bracket below ``tol``.

    Returns (values, widths): bracket midpoints and final bracket widths.  A
    bracket stops short of ``tol`` only when no float lies strictly between
    its ends; its width is then that float spacing.
    Index bracketing is exact because the Sturm count is monotone in x.
    Each level keeps the closest shifts counted on either side of it so far
    (see the module docstring), so a bisection step that an earlier count
    already decides costs no Sturm pass.  Each pass stops once its count
    reaches k or the tail certificate settles it; a count capped at k still
    decides every question count(x) > j with j < k exactly.

    ``guesses`` (optional, one finite value per level) only choose where to
    count first.  Level j is counted at g - delta and g + delta, delta =
    tol/4: a seed within a rounding error of its level then brackets it in
    those two passes, and most of the last midpoints fall outside that
    bracket and need no pass of their own (see the module docstring).  A
    side that does not bracket level j (count(g - delta) > j, or
    count(g + delta) <= j) moves out by a factor of 8 and is counted again,
    up to the Gershgorin interval.  Then the bisection runs as without
    guesses, from the same bracket through the same midpoints.  The float
    Sturm count is monotone in the shift (Kahan 1966; Demmel, Dhillon and Ren,
    ETNA 3, 1995), so a midpoint inside a seeded bracket gets the decision a
    pass would give, and values and widths do not depend on the guesses; a
    good guess only saves the passes far from the level's bracket edges.
    """
    diag, off = _operator(diag, off)
    n = diag.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if guesses is not None:
        guesses = np.asarray(guesses, dtype=float)
        if guesses.shape != (k,):
            raise ValueError(f"guesses must hold one value per level, k = {k}")
        if not np.all(np.isfinite(guesses)):
            raise ValueError("guesses must be finite")
    lo0, hi0 = _gershgorin(diag, off)
    if lo0 == hi0:
        lo0 -= 1.0
        hi0 += 1.0
    off2 = off * off
    tail = _tail_certificate(diag, off, off2)
    diag_l, off2_l = diag.tolist(), off2.tolist()
    below = [-math.inf] * k  # below[j]: the largest shift counted with count <= j
    above = [math.inf] * k   # above[j]: the smallest shift counted with count >= j + 1

    def count_at(x):
        c = _count_below(diag_l, off2_l, x, k, tail)
        for i in range(c):
            if x < above[i]:
                above[i] = x
        for i in range(c, k):
            if x > below[i]:
                below[i] = x
        return c

    if guesses is not None:
        for j, g in enumerate(guesses.tolist()):
            g = min(max(g, lo0), hi0)
            delta = _SEED_FIRST * tol
            while g - delta > lo0 and count_at(g - delta) > j:
                delta *= _SEED_WIDEN
            delta = _SEED_FIRST * tol
            while g + delta < hi0 and count_at(g + delta) <= j:
                delta *= _SEED_WIDEN

    values = np.empty(k)
    widths = np.empty(k)
    lo_floor = lo0
    for j in range(k):
        # All eigenvalues are >= the previous one, so reuse its lower edge.
        # A midpoint at or below below[j] has at most j eigenvalues below it,
        # one at or above above[j] at least j + 1: only one strictly between
        # them costs a pass.
        lo, hi = lo_floor, hi0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if mid <= below[j]:
                lo = mid
            elif mid >= above[j] or count_at(mid) > j:
                hi = mid
            else:
                lo = mid
        values[j] = 0.5 * (lo + hi)
        widths[j] = hi - lo
        lo_floor = lo
    return values, widths


def _decay_table(diag, abs_off, x):
    # (last, decay) at the shift x: last is the row after the last
    # classically allowed row, and decay[j] the decay in e-folds from row
    # last to row last + j + 1.  Row i decays by the factor rho < 1 with
    # rho + 1/rho = (a_i - x) / |e_i|; an exact 0 coupling decays at once.
    # Every row decays faster at a lower shift, so a table taken at x keeps
    # at least as many e-folds at every shift below x.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (diag[:-1] - x) / abs_off
        allowed = np.flatnonzero(~(t > 2.0))
        last = int(allowed[-1]) + 1 if allowed.size else 0
        return last, np.cumsum(np.arccosh(0.5 * t[last:]))


def _wall_level(diag, off, x, lo, hi):
    # A guess at the lowest level of tridiag(diag, off), for an operator
    # whose lowest vector peaks at row 0 (the even sector at a Neumann wall),
    # from the start x, with no product by T and no scipy.  None when a step
    # leaves [lo, hi], meets a value that is not finite or a shift at or
    # above the lowest level of the trailing block T[1:, 1:], or when
    # _WALL_STEPS steps do not settle.
    #
    # The backward (UDU^T) pivots D_i of T - x*I give z_0 = 1 and
    # z_{i+1} = -e_i z_i / D_{i+1}, for which (T - x*I) z = D_0 e_0 exactly:
    # the twisted factorization at twist index 0 (Fernando, SIMAX 18(4),
    # 1997; Parlett and Dhillon, LAA 267, 1997).  ||z||^2 = S_0 builds up in
    # the same sweep as S_i = 1 + (e_i^2 / D_{i+1}^2) S_{i+1}, and x + D_0 / S_0
    # is the Rayleigh quotient of z.  It is also the Newton step on D_0(x),
    # whose derivative is -S_0.  Below the trailing block's lowest level,
    # where every D_i with i >= 1 is positive, each D_i with i >= 1 falls as
    # x rises, so |z| and S_0 grow: D_0 falls and is concave there, and its
    # one root is the lowest level.  A start above the level falls
    # monotonically onto it; one below overshoots above it first.
    # Chebyshev's correction, with the derivative of S_0 taken from the last
    # two steps, lifts the order of the steps above 2.
    #
    # Each sweep starts K e-folds past the last classically allowed row, as
    # if a Dirichlet wall stood there, which raises the level by about
    # e^(-2K) relative.  K grows with the convergence, keeping the
    # truncation below the next step's error, and the step at
    # K = _WALL_K_LAST is the last.  A decay table serves every step at or
    # below the shift it was taken at; the lists hold the rows that the last
    # step would read, in the order a sweep reads them.
    n = diag.shape[0]
    abs_off = np.abs(off)
    off2 = off * off
    K = _WALL_K_FIRST
    table_x = -math.inf
    x_prev = s_prev = None
    for _ in range(_WALL_STEPS):
        if x > table_x:
            table_x = x
            last, decay = _decay_table(diag, abs_off, x)
            top = min(last + int(np.searchsorted(decay, _WALL_K_LAST)), n - 1)
            diag_r = diag[:top + 1][::-1].tolist()
            off2_r = off2[:top][::-1].tolist()
        skip = top - min(last + int(np.searchsorted(decay, K)), n - 1)
        d = diag_r[skip] - x
        s = 1.0
        for a, e2 in zip(diag_r[skip + 1:], off2_r[skip:]):
            if d <= 0.0:  # x is at or above the trailing block's lowest level
                return None
            q = e2 / d
            s = 1.0 + q / d * s
            d = (a - x) - q
        step = d / s
        if x_prev is not None and x != x_prev:  # Chebyshev's correction
            c = 0.5 * (s - s_prev) / (x - x_prev) * step / s
            if abs(c) < 0.5:
                step *= 1.0 - c
        x_prev, s_prev = x, s
        theta = x + step
        if not (math.isfinite(theta) and math.isfinite(s) and lo <= theta <= hi):
            return None
        if K == _WALL_K_LAST:
            return theta
        r = abs(step) / max(abs(theta), _TINY)  # the step, relative
        K = min(max(_WALL_K_FIRST, -_WALL_K_RATE * math.log(r) if r else math.inf), _WALL_K_LAST)
        x = theta
    return None


def _start_vector(n):
    # deterministic, generic unit start vector (float-hash; no RNG state needed)
    x = np.sin(np.arange(1.0, n + 1.0) * 12.9898) * 43758.5453
    v = (x - np.floor(x)) - 0.5
    return v / np.sqrt(np.sum(v * v))


def _inverse_iteration(diag, off, lam, v):
    # None where a solve fails: see inverse_iteration
    from scipy.linalg.lapack import dgtsv

    shifted = diag - lam
    for _ in range(_SOLVES):
        _, _, _, w, info = dgtsv(off, shifted, off, v)
        if info != 0:
            return None
        with np.errstate(over="ignore"):
            nrm = np.sqrt(np.sum(w * w))
        if nrm == 0.0 or not np.isfinite(nrm):
            return None
        v = w / nrm
    return v


def _eigenvectors(diag, off, shifts, start):
    # Row i: inverse_iteration(diag, off, shifts[i]) from the unit start
    # vector ``start``, or NaN where the shift is not finite or both attempts
    # fail.  The operator is taken as checked: float arrays of matching shape
    # with finite entries.
    n = diag.shape[0]
    rows = np.full((len(shifts), n), math.nan)
    scale = None
    for i, lam in enumerate(shifts):
        if not math.isfinite(lam):
            continue
        if n == 1:
            rows[i] = 1.0  # dgtsv's wrapper refuses n = 1
            continue
        v = _inverse_iteration(diag, off, lam, start)
        if v is None:
            # retry with a tiny relative shift away from an exact pivot kill
            if scale is None:
                scale = max(1.0, float(np.max(np.abs(diag))))
            v = _inverse_iteration(diag, off, lam + 1e-13 * scale, start)
        if v is not None:
            rows[i] = v
    return rows


def _failure(lam):
    # the error of an inverse iteration whose retry failed too
    return ValueError(f"inverse iteration failed at lam = {lam!r} and at the shifted retry")


def inverse_iteration(
    diag: np.ndarray,
    off: np.ndarray,
    lam: float,
) -> np.ndarray:
    """Unit eigenvector estimate for the eigenvalue nearest lam.

    Each of the three solves is LAPACK's ``dgtsv``.  A solve that meets
    an exact zero pivot, or gives a zero or overflowing norm, fails the
    attempt, which is then repeated once at lam + 1e-13 * max(1, max|diag|);
    ValueError if that fails too.
    """
    diag, off = _operator(diag, off)
    lam = _shift(lam, "lam")
    v = _eigenvectors(diag, off, [lam], _start_vector(diag.shape[0]))[0]
    if np.isnan(v[0]):
        raise _failure(lam)
    return v


def count_sign_changes(v: np.ndarray) -> int:
    """Strict sign changes of v, ignoring entries below 1e-8 * max|v|."""
    v = np.asarray(v, dtype=float)
    vmax = float(np.max(np.abs(v)))
    if vmax == 0.0:
        return 0
    keep = v[np.abs(v) > _NODE_RTOL * vmax]
    signs = np.sign(keep)
    return int(np.count_nonzero(signs[1:] != signs[:-1]))
