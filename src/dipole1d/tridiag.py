"""Symmetric tridiagonal eigenvalues by Sturm-sequence bisection.

Eigenvalues come from Sturm-sequence bisection: the count gives guaranteed
index bracketing, which the node-theorem checks elsewhere rely on.  The Sturm
kernel loops over Python floats: Python float arithmetic is the same IEEE
double arithmetic as numpy float64, at a fraction of the cost of reading
numpy scalars one at a time.  Where the floats come from depends on how many
passes an operator gets.  A bisection counts one operator tens of times, so
it reads list views that the operator builds once, each on first use.
``_Couplings`` holds what depends on the couplings alone, once they have
been checked: e^2 as a list, |e|, the Gershgorin radii and the coupling half
of the tail certificate.  One ``_Couplings`` serves every diagonal added to
it, as the caps of ``eigensolver.cutoff_sweep`` share their kinetic
operator's.  ``_Tridiagonal`` (which ``eigensolver.DiscreteHamiltonian``
extends) adds what depends on the diagonal: the diagonal as a list, the
Gershgorin ends and the certificate's threshold floor, the last kept as a
memoryview because it only feeds ``bisect_left``.  ``_Couplings`` and
``_diagonal`` check every operator, from arrays (``_operator``) or a record,
and ``eigvalsh_bisect`` builds these views for its one solve.  A caller that
makes one pass per operator (``sturm_count``, and the dipole scan's binding
predicate ``critical._binds``) reads its diagonal in place through a
memoryview, which yields the same doubles but builds each only when the
pass reaches its row, and builds none of the diagonal's views: a pass that
stops early then pays only for the rows it reads.

Node counts need no vectors.  Exact-zero couplings (pinned zeros) split the
operator into blocks, listed once per set of couplings (``_Couplings.blocks``).
On a block whose couplings are negative, as ``DiscreteHamiltonian`` makes
them, the vector of the j-th lowest level has exactly j sign changes (the
discrete oscillation theorem; Gantmacher and Krein, Oscillation Matrices and
Kernels), so ``_block_indices`` gives a level its Sturm index in its block.

Vectors are solved in one place, ``_inverse_iteration``, for the public
``inverse_iteration`` and for ``_rayleigh_seeds``, the seeds of
``eigensolver.hydrogen_spectrum``; no node count or eigenvalue needs one.
Each solve is LAPACK's ``dgtsv``: Gaussian elimination with partial pivoting
on the general tridiagonal matrix (Anderson et al., LAPACK Users' Guide, 3rd
ed., SIAM 1999).  scipy is imported only there, so importing the package,
and every pipeline that solves no vector, does not load it.

A Sturm pass stops as soon as its answer is decided.  A bisection step only
asks whether count(x) > j for some j < k, so the pass may stop once the count
reaches k.  And once the LDL^T pivots reach rows that are diagonally dominant
enough at x, no later pivot can be negative (Barth, Martin and Wilkinson
1967): a tail certificate proves this row by row in the same float
operations the pass performs, its coupling half (``_coupling_certificate``)
once per set of couplings and its threshold half (``_threshold_floor``) once
per operator, so the early stop gives the exact count that the full pass
gives.

A caller that already knows roughly where each level lies (an analytic
level, the same level of a symmetric reduction) passes it as a guess;
``eigensolver.hydrogen_spectrum`` first sharpens a guess to the Rayleigh
quotient of an inverse iteration at it (``_rayleigh_seeds``), so a seed is
then usually within a rounding error of its level and brackets it in two
passes.  A lowest level whose vector peaks at row 0, as the even sector's
does at a Neumann wall, gets such a seed without vectors and without scipy:
``_wall_level`` iterates the Rayleigh quotient of the twisted factorization
at twist index 0, which needs only the backward pivots of T - x*I, from a
start the caller knows (``eigensolver.cutoff_sweep`` starts each cap at the
level the caps already solved predict).  A sweep does not read the rows
where the vector has decayed: it starts K e-folds past the turning point
with the decaying root of that row's own recurrence, a transparent tail
that shifts the level a thousand times less than a Dirichlet wall there
would, and K grows only as the steps converge.  The five caps of the
perfbench ``cutoff`` argv then take 10 or 11 passes instead of 260, and
their 19 sweeps read 12,980 rows.

``_narrow_bracket`` is the one bisection loop here, and it uses a guess the
same way for every monotone predicate, a Sturm count at a shift or the
oscillation test of ``eigensolver.find_alpha_crit``.  It first replays its
own midpoints toward the guess, with no evaluation, as if the switch sat at
the guess: they end in the final cell [c_lo, c_hi] that the bisection would
end in.  It evaluates the predicate at c_lo and c_hi, and moves an end that
does not bracket the switch out by the cell width times _SEED_WIDEN^m,
m = 0, 1, ..., until it does.  Then it bisects from the same interval
through the same midpoints as without a guess, and decides a midpoint at or
below a point found false, or at or above one found true, without an
evaluation.  The predicate is monotone, so each such decision is the one an
evaluation would give: the bracket is the unguessed one, bit for bit.  Every
midpoint of the replay lies outside its open final cell, so when the cell's
two ends bracket the switch each midpoint falls as in the replay, and the
cell is returned as it is: a guess in the switch's own cell costs exactly
the two evaluations at its ends, and one a cell or two off costs one or two
more.

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
every j < k.  A midpoint that a guess's counts decide is decided as a pass
at it would decide it: values and widths do not depend on the guesses, only the
number of passes does.

Entries |e| whose square overflows are refused, because the pass would then
meet inf / inf and miscount.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from functools import cached_property
from itertools import islice

import numpy as np

__all__ = [
    "sturm_count",
    "eigvalsh_bisect",
    "inverse_iteration",
]

_TINY = 1e-300
_DENORM = 5e-324  # the smallest positive double
_OFF_MAX = math.sqrt(sys.float_info.max)  # the largest |e| whose square is finite
_SEED_WIDEN = 8.0  # factor by which a guess's cell end that misses the switch moves out
_SOLVES = 3  # dgtsv solves per inverse iteration
_WALL_K_FIRST = 1.5  # e-folds of decay a _wall_level sweep keeps on its first step:
# a bias of 2e-4 relative or less, where a Newton step from 2 % off lands
_WALL_K_LAST = 11.0  # ... on its last step: a truncation shift below e^-28 relative
_WALL_BIAS = 4e-3  # K e-folds of transparent tail shift the level by at most this times e^-2K
_WALL_SETTLED = 1e-6  # relative error from which one step at _WALL_K_LAST lands on the level
_WALL_LIFT = 0.01  # a decay table is taken this far above the shift, relative
_WALL_STEPS = 12  # _wall_level steps before its guess is dropped


def _diagonal(diag, off) -> np.ndarray:
    # diag as the checked diagonal of tridiag(diag, off), off a float array:
    # one row more than off, and finite entries, as the early-stop proof needs
    diag = np.asarray(diag, dtype=float)
    if diag.ndim != 1 or off.shape != (diag.shape[0] - 1,):
        raise ValueError("off must have length n - 1")
    if not np.all(np.isfinite(diag)):
        raise ValueError("operator entries must be finite")
    return diag


def _operator(diag, off) -> "_Tridiagonal":
    # the checked _Tridiagonal of the arrays tridiag(diag, off)
    off = np.asarray(off, dtype=float)
    return _Tridiagonal(_diagonal(diag, off), _Couplings(off))


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
    # it returns cap, i.e. min(count, cap).  (2) ``tail`` is the tail
    # certificate (bound, floor) of the operator (the ``couplings.bound`` and
    # ``floor`` of its _Tridiagonal), and a pivot d_i >= bound[i]
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


def _coupling_certificate(off, off2):
    # The half of the tail certificate that reads only the couplings: the
    # arrays (b, r, usable).  Row i gets b_i = |e_i| (the smallest positive
    # double where e_i = 0 and on the last row) and r_i = fl(e2_{i-1} /
    # b_{i-1}); rows where r_i overflowed are not usable, and their r_i is
    # set to 0 to keep them out of inf - inf.
    n = off.shape[0] + 1
    b = np.full(n, _DENORM)
    b[:-1] = np.where(off == 0.0, _DENORM, np.abs(off))
    r = np.zeros(n)
    r[1:] = off2 / b[:-1]  # inf where e2 overflowed
    usable = np.isfinite(r)
    r[~usable] = 0.0
    return b, r, usable


def _threshold_floor(diag, b, r, usable):
    # The half of the tail certificate that reads the diagonal: each row gets
    # a threshold t_i checked to satisfy fl(fl(a_i - t_i) - r_i) >= b_i in
    # exactly the float operations of the pass, or -inf where that fails
    # (and on rows that are not usable).  Returns the suffix minima of t, an
    # ascending array.
    with np.errstate(over="ignore"):  # a threshold below -DBL_MAX is -inf, still sound
        t = (diag - r) - b
        ok = usable & (((diag - t) - r) >= b)
        # Rounding can leave the first guess a few ulps short: retry once
        # with a margin on the scale of the rounding errors.
        retry = usable & ~ok
        t[retry] -= 4.0 * np.finfo(float).eps * (np.abs(diag) + r + b)[retry]
        ok |= retry & (((diag - t) - r) >= b)
    t[~ok] = -np.inf
    return np.minimum.accumulate(t[::-1])[::-1]


class _Couplings:
    """What a Sturm bisection reads of the couplings ``off`` of tridiag(., off),
    whatever the diagonal: each view is built on first use and kept, so every
    operator that shares these couplings shares the views.  Construction
    refuses couplings that are not finite and those whose square is not: the
    pass reads e^2, and an inf e^2 meets inf / inf and miscounts silently."""

    def __init__(self, off):
        off = np.asarray(off, dtype=float)
        if not np.all(np.isfinite(off)):
            raise ValueError("operator entries must be finite")
        if not np.all(np.abs(off) <= _OFF_MAX):
            raise ValueError(f"off entries must have a finite square, |off| <= {_OFF_MAX!r}")
        self.off = off

    @cached_property
    def off2(self) -> list:
        # the squared couplings, as every Sturm pass reads them
        return (self.off * self.off).tolist()

    @cached_property
    def abs_off(self) -> np.ndarray:
        return np.abs(self.off)

    @cached_property
    def radius(self) -> np.ndarray:
        # the Gershgorin radius of each row
        radius = np.zeros(self.off.shape[0] + 1)
        radius[:-1] += self.abs_off
        radius[1:] += self.abs_off
        return radius

    @cached_property
    def certificate(self):
        # _coupling_certificate's (b, r, usable)
        return _coupling_certificate(self.off, self.off * self.off)

    @cached_property
    def bound(self) -> list:
        # the b of the tail certificate, as _count_below reads it
        return self.certificate[0].tolist()

    @cached_property
    def blocks(self) -> list:
        # (start, stop) of each block: the runs of rows between exact-zero couplings
        cuts = (np.flatnonzero(self.off == 0.0) + 1).tolist()
        return list(zip([0, *cuts], [*cuts, self.off.shape[0] + 1]))


class _Tridiagonal:
    """tridiag(diagonal, couplings.off) with the views a bisection reads.

    ``diagonal`` is a float array that ``_diagonal`` checked against the
    :class:`_Couplings` ``couplings``.  The views of the diagonal are built
    on first use, at most once per operator, and kept; a caller that makes
    one pass reads ``memoryview(diagonal)`` instead and builds none of them.
    """

    def __init__(self, diagonal, couplings):
        self.diagonal = diagonal
        self.couplings = couplings

    def __len__(self) -> int:
        # the number of rows
        return self.diagonal.shape[0]

    @cached_property
    def diag_list(self) -> list:
        return self.diagonal.tolist()

    @cached_property
    def ends(self) -> tuple[float, float]:
        # the Gershgorin interval, certain to hold the whole spectrum
        radius = self.couplings.radius
        return float(np.min(self.diagonal - radius)), float(np.max(self.diagonal + radius))

    @cached_property
    def floor(self) -> memoryview:
        # the floor of the tail certificate; it only feeds bisect_left, which
        # reads a memoryview without a tolist() of every row
        return memoryview(_threshold_floor(self.diagonal, *self.couplings.certificate))


def sturm_count(diag: np.ndarray, off: np.ndarray, x: float) -> int:
    """Count eigenvalues of tridiag(diag, off) strictly below x."""
    op = _operator(diag, off)
    off = op.couplings.off
    return _count_below(memoryview(op.diagonal), memoryview(off * off), _shift(x))


def _narrow_bracket(predicate, lo: float, hi: float, width: float,
                    guess: float | None = None) -> tuple[float, float]:
    """Bisect [lo, hi], where ``predicate`` is false at lo and true at hi,
    until hi - lo <= ``width`` or no float lies strictly between the ends.

    ``guess`` (optional) is where the predicate is thought to switch; it
    only chooses where to evaluate first (see the module docstring).  The
    midpoints the bisection would take if the switch sat at the guess give,
    with no evaluation, the final cell [c_lo, c_hi] it would end in; the
    predicate is evaluated at c_lo and, unless that is already true, at c_hi.
    An end that does not bracket the switch moves out by the cell width times
    ``_SEED_WIDEN``**m, m = 0, 1, ..., until it does or it reaches lo or hi.
    When the cell's own ends bracket the switch, every midpoint of the
    bisection falls as it did in the replay, and the cell is returned.
    Otherwise the bisection runs as without a guess, and a midpoint at or
    below the largest point found false, or at or above the smallest found
    true, is decided without an evaluation.  For a monotone predicate the
    result is the one without a guess, and a guess in the switch's own final
    cell costs exactly the two evaluations at its ends (fewer where an end
    is lo or hi).  A guess that is not finite is ignored.
    """
    false_at, true_at = lo, hi  # the closest points known to be false and true

    def bisect(decide, lo, hi):
        while hi - lo > width:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if decide(mid):
                hi = mid
            else:
                lo = mid
        return lo, hi

    if guess is not None and math.isfinite(guess):
        c_lo, c_hi = bisect(lambda mid: mid >= guess, lo, hi)  # no evaluation
        step = c_hi - c_lo
        if c_lo > lo and predicate(c_lo):
            true_at, x, scale = c_lo, c_lo - step, _SEED_WIDEN
            while x > lo and predicate(x):
                true_at, x, scale = x, c_lo - step * scale, scale * _SEED_WIDEN
            false_at = max(x, lo)
        else:
            false_at, x, scale = c_lo, c_hi, 1.0
            while x < hi and not predicate(x):
                false_at, x, scale = x, c_hi + step * scale, scale * _SEED_WIDEN
            true_at = min(x, hi)
        # the switch lies in the guess's cell: each midpoint falls as in the replay
        if (false_at, true_at) == (c_lo, c_hi):
            return c_lo, c_hi
    return bisect(lambda mid: mid >= true_at or (mid > false_at and predicate(mid)), lo, hi)


def eigvalsh_bisect(
    diag: np.ndarray | _Tridiagonal,
    off: np.ndarray | None,
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
    count first.  Level j is solved by ``_narrow_bracket`` with its guess g:
    the Sturm counts at the two ends of the final bisection cell that holds
    g, an end that does not bracket level j moved out by the cell width
    times 8^m until it does or it reaches the interval's end, then the
    bisection as without guesses, from the same interval through the same
    midpoints (see the module docstring).  The float Sturm count is monotone
    in the shift (Kahan 1966; Demmel, Dhillon and Ren, ETNA 3, 1995), so a
    midpoint those counts decide gets the decision a pass would give, and
    values and widths do not depend on the guesses.  A seed within its
    level's own cell, as a Rayleigh quotient within a rounding error usually
    is, costs exactly two passes.

    ``diag`` and ``off`` are the entries, checked by ``_operator``.  A
    :class:`_Tridiagonal` such as ``eigensolver.DiscreteHamiltonian``, checked
    when it was built, is passed as ``diag`` with ``off`` None: the bisection
    reads its views, built on first use and kept, so once per operator.
    """
    op = diag if off is None and isinstance(diag, _Tridiagonal) else _operator(diag, off)
    if not 1 <= k <= len(op):
        raise ValueError(f"k must be in [1, {len(op)}], got {k}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if guesses is not None:
        guesses = np.asarray(guesses, dtype=float)
        if guesses.shape != (k,):
            raise ValueError(f"guesses must hold one value per level, k = {k}")
        if not np.all(np.isfinite(guesses)):
            raise ValueError("guesses must be finite")
    lo0, hi0 = op.ends
    if lo0 == hi0:
        lo0 -= 1.0
        hi0 += 1.0
    diag_l, off2_l = op.diag_list, op.couplings.off2
    tail = op.couplings.bound, op.floor
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

    values = np.empty(k)
    widths = np.empty(k)
    lo_floor = lo0
    for j, g in enumerate([None] * k if guesses is None else guesses.tolist()):
        # All eigenvalues are >= the previous one, so reuse its lower edge.
        # A shift at or below below[j] has at most j eigenvalues below it,
        # one at or above above[j] at least j + 1: only one strictly between
        # them costs a pass.
        lo, hi = _narrow_bracket(
            lambda x: x >= above[j] or (x > below[j] and count_at(x) > j), lo_floor, hi0, tol, g)
        values[j] = 0.5 * (lo + hi)
        widths[j] = hi - lo
        lo_floor = lo
    return values, widths


def _block_indices(op: _Tridiagonal, values, widths) -> list:
    # The index within its block of each of the k lowest levels ``values``,
    # bisected to brackets of ``widths``.  Each block's Sturm count is taken
    # at every bracket end, ascending; the levels between two ends are each
    # block's next ones, listed block by block, and level j is the j-th
    # listed: levels of two blocks within a bracket of each other (the
    # degenerate pairs of a mirror-symmetric operator) go in block order.
    blocks = op.couplings.blocks
    if len(blocks) == 1:
        return list(range(len(values)))
    diag_l, off2_l = op.diag_list, op.couplings.off2
    views = [(diag_l[a:b], off2_l[a:b - 1]) for a, b in blocks]
    ends = {*(values - 0.5 * widths).tolist(), *(values + 0.5 * widths).tolist()}
    indices, below = [], [0] * len(blocks)
    # inf counts every row: the list reaches k even if an end rounded inward
    for x in [*sorted(ends), math.inf]:
        counts = [_count_below(d, e2, x) for d, e2 in views]
        indices += [i for c0, c1 in zip(below, counts) for i in range(c0, c1)]
        below = counts
        if len(indices) >= len(values):
            break
    return indices[:len(values)]


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


def _wall_level(op: _Tridiagonal, x, lo, hi):
    # A guess at the lowest level of the _Tridiagonal ``op``, for an operator
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
    # Each sweep starts at the row m that lies K e-folds of decay past the
    # last classically allowed row, with the decaying root
    # D_m = c/2 + sqrt(c^2/4 - e_m^2), c = a_m - x, of row m's own recurrence:
    # the sweep is exact for an operator whose rows past m repeat row m.
    # z then decays past m by rho_m = |e_m| / D_m a row, the factor whose
    # logarithm _decay_table sums, and its tail sums to S_m = 1 / (1 - rho_m^2),
    # which is also -dD_m/dx: the step stays Newton's on the truncated D_0,
    # and S_0 barely moves when K does, as Chebyshev's correction needs.  Only
    # the operator's true last row keeps D = c.  This transparent tail lowers
    # the level by 5e-4 to 3.5e-3 times e^(-2K) relative (capped Coulomb wells,
    # caps 0.2 to 0.0125, K = 3 to 9), where a Dirichlet wall at row m + 1
    # raises it by about e^(-2K): K = 11 holds the shift below e^(-28), for
    # which a Dirichlet wall needs K = 14.
    #
    # A step of relative size r at K leaves theta about
    # err = _WALL_BIAS e^(-2K) + r^2 / 2 off, the tail's bias plus Newton's
    # error.  Once err <= _WALL_SETTLED the next step is at K = _WALL_K_LAST,
    # and a step there is the last when its own size is at most
    # _WALL_SETTLED: it came from a converged point, and lands within
    # _WALL_SETTLED^2 / 2 of the level.  A start near the level thus cannot
    # end on a first step that measured the tail's bias instead of its error.
    # Before that, the next sweep keeps a bias of half the error its step can
    # reach, err^2 / 2, but none below _WALL_SETTLED / 2, so that the step
    # after it can be the last.  A decay table serves every step at or below
    # the shift it was taken at.  It is taken _WALL_LIFT above the shift: the
    # steps climb toward the level from the tail's lower one as K grows, and a
    # start a few per mille below the level overshoots it by less than that.
    # The reversed slices of op's lists hold the rows that a sweep at
    # K = _WALL_K_LAST would read, in the order a sweep reads them, and the
    # coupling past each (0.0 past the true last row).
    diag, abs_off = op.diagonal, op.couplings.abs_off
    diag_l, off2_l = op.diag_list, op.couplings.off2
    n = len(diag_l)
    K = _WALL_K_FIRST
    table_x = -math.inf
    x_prev = s_prev = None
    for _ in range(_WALL_STEPS):
        if x > table_x:
            table_x = x + _WALL_LIFT * abs(x)
            last, decay = _decay_table(diag, abs_off, table_x)
            top = min(last + int(np.searchsorted(decay, _WALL_K_LAST)), n - 1)
            diag_r = diag_l[top::-1]
            off2_r = off2_l[top::-1] if top < n - 1 else [0.0, *off2_l[::-1]]
        skip = top - min(last + int(np.searchsorted(decay, K)), n - 1)
        cm, e2 = diag_r[skip] - x, off2_r[skip]
        h = 0.25 * cm * cm - e2  # > 0 but for rounding: row m decays at table_x >= x
        if e2 and h > 0.0:
            root = math.sqrt(h)
            d = 0.5 * cm + root
            s = d / (root + root)
        else:  # the true last row or an exact 0 coupling, where D = c is exact, or no root
            d, s = cm, 1.0
        for a, e2 in zip(diag_r[skip + 1:], off2_r[skip + 1:]):
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
        r = abs(step) / max(abs(theta), _TINY)  # the step, relative
        if K == _WALL_K_LAST and r <= _WALL_SETTLED:
            return theta
        err = _WALL_BIAS * math.exp(-2.0 * K) + 0.5 * r * r  # theta's, relative
        if err <= _WALL_SETTLED:
            K = _WALL_K_LAST
        else:  # the next sweep's bias: half the error its step can reach
            bias = 0.5 * max(0.5 * err * err, _WALL_SETTLED)
            K = min(max(_WALL_K_FIRST, 0.5 * math.log(_WALL_BIAS / bias)), _WALL_K_LAST)
        x = theta
    return None


def _rayleigh_quotient(op: _Tridiagonal, v) -> float:
    # v^T T v; inf or NaN where it overflows
    with np.errstate(over="ignore", invalid="ignore"):
        tv = op.diagonal * v
        tv[:-1] += op.couplings.off * v[1:]
        tv[1:] += op.couplings.off * v[:-1]
        return float(np.dot(v, tv))


def _rayleigh_seeds(op: _Tridiagonal, guesses, tol: float) -> list:
    # Sharpen each guess g to theta = v^T T v, v the inverse iteration at g
    # from one unit start vector.  |theta - lambda| <= ||T v - theta v||^2 /
    # gap (Parlett, The Symmetric Eigenvalue Problem, ch. 4), and one dgtsv
    # solve leaves theta about (theta - g)^2 / gap off: it is kept when
    # (theta - g)^2 <= gap * tol / 64, gap the distance to the nearest other
    # guess, and _SOLVES - 1 more solves from its vector follow otherwise
    # (always, for a lone guess or a theta that is not finite).  A guess
    # whose solves fail or whose theta is not finite is kept as is.
    diag, off = op.diagonal, op.couplings.off
    start = _start_vector(len(op))
    xs = [float(x) for x in guesses]
    seeds = []
    for j, g in enumerate(xs):
        gap = min((abs(g - y) for i, y in enumerate(xs) if i != j), default=0.0)
        v = _inverse_iteration(diag, off, g, start, 1)
        theta = g if v is None else _rayleigh_quotient(op, v)
        if v is not None and not (theta - g) ** 2 <= gap * tol / 64.0:
            v = _inverse_iteration(diag, off, g, v, _SOLVES - 1)
            theta = g if v is None else _rayleigh_quotient(op, v)
        seeds.append(theta if math.isfinite(theta) else g)
    return seeds


def _start_vector(n):
    # deterministic, generic unit start vector (float-hash; no RNG state needed)
    x = np.sin(np.arange(1.0, n + 1.0) * 12.9898) * 43758.5453
    v = (x - np.floor(x)) - 0.5
    return v / np.sqrt(np.sum(v * v))


def _inverse_iteration(diag, off, lam, v, solves=_SOLVES):
    # v after ``solves`` dgtsv solves of (T - lam*I) w = v, each normalized,
    # from the unit vector v.  A solve that meets an exact zero pivot, or
    # gives a zero or overflowing norm, fails the attempt, which is repeated
    # once from v at lam + 1e-13 * max(1, max|diag|); None where that fails
    # too.  The operator is taken as checked: float arrays of matching shape
    # with finite entries.
    if diag.shape[0] == 1:
        return np.ones(1)  # dgtsv's wrapper refuses n = 1
    from scipy.linalg.lapack import dgtsv

    for attempt in range(2):
        if attempt:
            lam += 1e-13 * max(1.0, float(np.max(np.abs(diag))))
        shifted = diag - lam
        w = v
        for _ in range(solves):
            _, _, _, w, info = dgtsv(off, shifted, off, w)
            with np.errstate(over="ignore"):
                nrm = np.sqrt(np.sum(w * w))
            if info != 0 or nrm == 0.0 or not np.isfinite(nrm):
                break
            w = w / nrm
        else:
            return w
    return None


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
    op = _operator(diag, off)
    lam = _shift(lam, "lam")
    v = _inverse_iteration(op.diagonal, op.couplings.off, lam, _start_vector(len(op)))
    if v is None:
        raise ValueError(f"inverse iteration failed at lam = {lam!r} and at the shifted retry")
    return v
