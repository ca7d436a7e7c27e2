"""The headline numbers: exact, estimated and numerically recovered critical
dipole moments, plus the exploratory two-centre separation scan.

In atomic units the dipole coupling is alpha = 2p, so the binding threshold
alpha = 1/4 pins the critical moment at exactly p = 0.125 q*a_B; in SI that is
pi*eps0*hbar^2 / (2 q m).  The back-of-envelope route (ionization distance of
the 1D atom against a perturbing charge) lands at p = 2 q*a_B, high by the
exact factor 16.  The numerical route recovers 1/4 from the zero-energy
oscillation threshold on widening (delta, L) windows, extrapolating the
documented 1/ln^2(L/delta) window bias to zero.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .eigensolver import (
    DEFAULT_TOL_ALPHA,
    DEFAULT_WINDOWS,
    AlphaCritEstimate,
    DiscreteHamiltonian,
    Grid,
    GridAlignmentError,
    _kinetic_part,
    _log_span,
    find_alpha_crit,
)
from .potentials import PhysicalDipole, PointDipole
from .tridiag import _count_below, _narrow_bracket
from .units import ConstantSet, atomic_to_si, bohr_radius

__all__ = [
    "ALPHA_CRIT",
    "P_CRIT_AU",
    "P_ESTIMATE_AU",
    "ExtrapolationError",
    "p_crit_exact",
    "p_crit_estimate",
    "ionization_distance",
    "estimate_to_exact_ratio",
    "NumericCriticalMoment",
    "p_crit_numeric",
    "CriticalReport",
    "critical_report",
    "DipoleScanRow",
    "DipoleScanResult",
    "physical_dipole_scan",
]

ALPHA_CRIT = 0.25
# alpha = 2p in atomic units, so the threshold coupling maps algebraically to
# p = 1/8 q*a_B; kept as the exact binary fraction on purpose.
P_CRIT_AU = ALPHA_CRIT / 2.0
P_ESTIMATE_AU = 2.0


class ExtrapolationError(RuntimeError):
    """Window-bias extrapolation got data inconsistent with shrinking bias."""


def p_crit_exact(c: ConstantSet) -> float:
    """Smallest dipole moment that binds: pi*eps0*hbar^2 / (2 q m).

    Evaluated in the unit system of ``c`` (C*m for SI constants, q*a_B for
    atomic-unit constants).  This is the moment whose coupling
    2 m p q / (4 pi eps0 hbar^2) equals exactly 1/4.
    """
    return math.pi * c.epsilon0 * c.hbar**2 / (2.0 * c.q_electron * c.m_electron)


def ionization_distance(c: ConstantSet, Q: float | None = None) -> float:
    """Distance at which a charge Q tears the 1D atom apart.

    Equating the Coulomb repulsion q Q / (4 pi eps0 d) with the ground-state
    binding q Q / (8 pi eps0 a_B(Q)) gives d = 2 a_B(Q).
    """
    return 2.0 * bohr_radius(c, Q)


def p_crit_estimate(c: ConstantSet) -> float:
    """Rough critical moment Q * d(Q) = 8 pi eps0 hbar^2 / (q m); the charge
    cancels, and the result sits a factor 16 above :func:`p_crit_exact`."""
    return 8.0 * math.pi * c.epsilon0 * c.hbar**2 / (c.q_electron * c.m_electron)


def estimate_to_exact_ratio() -> float:
    """Exactly 16: the shared factor pi*eps0*hbar^2/(q m) cancels
    algebraically, leaving 8 / (1/2)."""
    return 8.0 / 0.5


@dataclass(frozen=True)
class NumericCriticalMoment:
    """Critical moment recovered from window scans, in q*a_B.

    ``half_width`` is a rigorous propagation of the per-window bisection
    half-widths through the linear extrapolation in 1/ln^2(L/delta); the bias
    model itself is exact for this ODE, so the bar is dominated by bisection
    tolerance (or by the float spacing, when that ended a bisection first).
    """

    p_au: float
    half_width: float
    alpha_intercept: float
    alpha_half_width: float
    per_window: tuple[AlphaCritEstimate, ...]


def p_crit_numeric(
    windows: tuple[tuple[float, float], ...] = DEFAULT_WINDOWS,
    tol_alpha: float = DEFAULT_TOL_ALPHA,
) -> NumericCriticalMoment:
    """Extrapolate the detected oscillation thresholds to an infinite window.

    Each window (delta, L) yields a threshold 1/4 + (pi/ln(L/delta))^2 up to
    bisection tolerance; fitting the estimates linearly in z = 1/ln^2(L/delta)
    and reading the intercept removes the bias.  Windows must come with
    finite, strictly increasing ln(L/delta), and the measured thresholds must
    strictly decrease accordingly or :class:`ExtrapolationError` is raised.
    """
    if len(windows) < 2:
        raise ValueError("need at least 2 windows to extrapolate")
    log_ratios = [_log_span(d, L) for d, L in windows]
    if any(b <= a for a, b in zip(log_ratios[:-1], log_ratios[1:])):
        raise ValueError("windows must have strictly increasing ln(L/delta)")

    estimates = tuple(find_alpha_crit(d, L, tol_alpha=tol_alpha) for d, L in windows)
    alphas = np.array([e.value for e in estimates])
    if np.any(np.diff(alphas) >= 0.0):
        raise ExtrapolationError(
            "detected thresholds do not decrease as the window widens: "
            f"{alphas.tolist()}"
        )

    z = 1.0 / np.array(log_ratios) ** 2
    zbar = float(np.mean(z))
    szz = float(np.sum((z - zbar) ** 2))
    m = len(windows)
    # intercept = sum_i c_i alpha_i for the ordinary least-squares line
    coeff = 1.0 / m - zbar * (z - zbar) / szz
    intercept = float(np.dot(coeff, alphas))
    # every alpha_i is within its bisection half-width (at most tol_alpha,
    # unless the float spacing stopped the bisection first) of the exact
    # biased threshold, so the intercept is within hw * sum|c_i| of 1/4
    hw = max(tol_alpha, max(e.half_width for e in estimates))
    alpha_half_width = hw * float(np.sum(np.abs(coeff)))
    return NumericCriticalMoment(
        p_au=intercept / 2.0,
        half_width=alpha_half_width / 2.0,
        alpha_intercept=intercept,
        alpha_half_width=alpha_half_width,
        per_window=estimates,
    )


@dataclass(frozen=True)
class CriticalReport:
    """Everything about the critical moment in one record.

    ``p_crit_exact_au`` is the algebraic 1/8 and ``ratio_estimate_to_exact``
    the algebraic 16; both are exact by construction, not floating-point
    accidents.
    """

    alpha_crit_numeric: float
    alpha_crit_half_width: float
    p_crit_exact_au: float
    p_crit_exact_si: float
    p_crit_numeric_au: float
    p_crit_numeric_half_width: float
    p_crit_numeric_si: float
    p_estimate_au: float
    p_estimate_si: float
    ratio_estimate_to_exact: float
    windows: tuple[tuple[float, float], ...]
    per_window: tuple[AlphaCritEstimate, ...]
    constants_label: str


def critical_report(
    c: ConstantSet | None = None,
    windows: tuple[tuple[float, float], ...] = DEFAULT_WINDOWS,
    tol_alpha: float = DEFAULT_TOL_ALPHA,
) -> CriticalReport:
    """Assemble the full critical-moment report in both unit systems."""
    if c is None:
        c = ConstantSet()
    numeric = p_crit_numeric(windows, tol_alpha=tol_alpha)
    return CriticalReport(
        alpha_crit_numeric=numeric.alpha_intercept,
        alpha_crit_half_width=numeric.alpha_half_width,
        p_crit_exact_au=P_CRIT_AU,
        p_crit_exact_si=p_crit_exact(c),
        p_crit_numeric_au=numeric.p_au,
        p_crit_numeric_half_width=numeric.half_width,
        p_crit_numeric_si=atomic_to_si(c, "dipole_moment", numeric.p_au),
        p_estimate_au=P_ESTIMATE_AU,
        p_estimate_si=p_crit_estimate(c),
        ratio_estimate_to_exact=estimate_to_exact_ratio(),
        windows=tuple(tuple(w) for w in windows),
        per_window=numeric.per_window,
        constants_label=c.provenance_label,
    )


@dataclass(frozen=True)
class DipoleScanRow:
    """Outcome of one separation: the moment where binding switches on, or an
    inconclusive bracket.

    ``status`` is ``"bisected"`` when the onset was bracketed,
    ``"binds_everywhere"`` when even the bracket bottom already binds (the
    capped two-centre model has no critical moment in the bracket), and
    ``"no_binding"`` when not even the bracket top binds on this domain.
    """

    d: float
    p_critical: float | None
    bracket: tuple[float, float]
    conclusive: bool
    status: str


@dataclass(frozen=True)
class DipoleScanResult:
    """EXPLORATORY: numerically-critical moments of the two-centre dipole.

    The capped two-centre model and the finite solve box are modelling
    choices, so these numbers probe the expectation that the critical moment
    does not depend on the charge separation; they do not assert it.
    ``point_dipole_reference`` is the same existence bisection run with the
    ideal point dipole on the same grid, the d -> 0 comparison target.  It
    is the zero-energy threshold of the point dipole's N-row lattice on
    x < 0 and depends on N alone, not on h: 0.17595 at N = 1,500 and
    0.15178 at N = 60,000 (the default grid).  Its distance from 1/8 is
    the ln N window bias, 2p - 1/4 ~ pi^2 / (ln N + 2.6)^2, not a solver
    error.  Its bisection starts from :func:`_point_threshold_guess`.
    """

    rows: tuple[DipoleScanRow, ...]
    point_dipole_reference: float | None
    epsilon: float
    domain: tuple[float, float]
    n: int
    spread: float | None
    exploratory: bool = True
    note: str = (
        "exploratory: two-centre cap and finite box are modelling choices; "
        "the separation-independence of the critical moment is an expectation "
        "this table reports on, not a result it asserts"
    )


def _binds(spec, kin: DiscreteHamiltonian) -> bool:
    """Whether ``spec`` has a level below zero energy on the grid of ``kin``.

    ``kin`` is the operator of ``spec``'s family at V = 0 (the kinetic
    operator, built and checked once per family by ``physical_dipole_scan``),
    so a predicate only adds the potential (``kin.diagonal_plus(spec)``, the
    diagonal of the operator ``discretize`` builds, refused as ``discretize``
    refuses it) and reads the squared couplings that ``kin`` keeps as a list.

    The discrete oscillation theorem at zero energy: the Sturm count of the
    operator at 0 is the number of levels strictly below 0, so binding is
    that count being >= 1.  One Sturm pass, which stops at the first
    negative pivot, exact on the discrete operator, with no eigenvalue
    bisected.  The pass reads the diagonal in place through a memoryview,
    which yields the same doubles as ``tolist()`` but builds them only for
    the rows it reaches; no operator record or list view of it is built.
    """
    return _count_below(memoryview(kin.diagonal_plus(spec)), kin.couplings.off2, 0.0, 1) == 1


# the moment bracket around the exact point value, and its bisection width
_P_LO = P_CRIT_AU / 10.0
_P_HI = P_CRIT_AU * 10.0
_TOL_P = 1e-3
_MATCH_ROWS = 16  # rows the point-dipole guess runs exactly before the closed form takes over
_GUESS_STEPS = 40  # root-finder steps before the guess gives up


def _log_gamma(z: complex) -> complex:
    # Stirling's series for log Gamma(z) less ln(2 pi) / 2, through the z^-7
    # term: the first term left out is below 2e-14 for |z| >= 16
    w = 1.0 / (z * z)
    return ((z - 0.5) * cmath.log(z) - z
            + (1.0 / 12.0 - w * (1.0 / 360.0 - w * (1.0 / 1260.0 - w / 1680.0))) / z)


def _wall_phase(nu: float, n: int) -> float | None:
    # The phase of the zero-energy solution at the wall row n + 1, less
    # pi / 2, at alpha = 2p = 1/4 + nu^2; None when the solution already
    # has a node in the rows run exactly.
    p = 0.125 + 0.5 * nu * nu
    v, v_next = 0.0, 1.0
    for j in range(1, _MATCH_ROWS + 1):
        v, v_next = v_next, (2.0 - 2.0 * p / (j * j)) * v_next - v
    if not v > 0.0:
        return None
    a, b = complex(0.75, 0.5 * nu), complex(0.25, -0.5 * nu)
    r = (_MATCH_ROWS + a) / (_MATCH_ROWS + b)  # y_{J+1} / y_J
    start = math.atan2(v * r.real - v_next, v * r.imag)  # arg(c y_J), v_J = 2 Re(c y_J)
    turn = (_log_gamma(n + 1 + a) - _log_gamma(n + 1 + b)
            - _log_gamma(_MATCH_ROWS + a) + _log_gamma(_MATCH_ROWS + b)).imag
    return start + turn - 0.5 * math.pi


def _point_threshold_guess(n: int) -> float | None:
    """The moment p^ at which the point dipole's n-row operator on x < 0
    first has a level below 0, to about 1e-5; None when n < 4 * _MATCH_ROWS
    or a step is not finite.

    With rows j = 1..n at x = -j h and Dirichlet walls at j = 0 and n + 1,
    the operator is (T - p diag(1/j^2)) / h^2, T = tridiag(-1/2, 1, -1/2),
    so p^ depends on n alone.  It is the smallest p at which the zero-energy
    solution, v_{j+1} = (2 - 2p / j^2) v_j - v_{j-1} with v_0 = 0 and
    v_1 = 1, has a node by row n + 1.  The recurrence runs exactly over the
    first J = _MATCH_ROWS rows.  From there v_j = 2 Re(c y_j), matched at
    rows J and J + 1, where y_j = Gamma(j + 3/4 + i nu/2) / Gamma(j + 1/4 -
    i nu/2) with alpha = 2p = 1/4 + nu^2 solves the recurrence with p / j^2
    replaced by p / (j^2 - (1/4 - i nu/2)^2), an O(j^-4) change.  Stirling's
    series carries the phase of c y_j to row n + 1, and p^ is where it
    reaches pi / 2.  Less pi / 2, the phase tends to -pi as nu -> 0 (the
    phase at row J tends to -pi / 2, the turn after it to 0) and grows with
    nu, so a secant from (0, -pi), kept inside the bracket the steps so far
    have found, finds that nu.
    """
    if n < 4 * _MATCH_ROWS:
        return None
    lo, hi = 0.0, math.inf
    prev, f_prev = 0.0, -math.pi
    nu = math.pi / (math.log(n + 1.0) + 2.5)  # the window law nu ~ pi / (ln n + 2.5)
    for _ in range(_GUESS_STEPS):
        f = _wall_phase(nu, n)
        if f is not None and not math.isfinite(f):
            return None
        if f is None or f > 0.0:
            hi = nu
        else:
            lo = nu
        step = math.nan
        if f is not None and f != f_prev:
            step, prev, f_prev = nu - f * (nu - prev) / (f - f_prev), nu, f
        if not lo < step < hi:  # no secant step, or one outside the bracket
            step = 2.0 * nu if hi == math.inf else 0.5 * (lo + hi)
        if abs(step - nu) <= 1e-12 * nu:
            return 0.125 + 0.5 * step * step
        nu = step
    return None


def _bisect_p(spec_at, kin: DiscreteHamiltonian, guess: float | None = None):
    """(p_c, bracket, status) of the binding onset in p over [_P_LO, _P_HI],
    where ``spec_at(p)`` is the configuration at moment p and ``kin`` its
    family's kinetic operator.

    A bottom that binds decides the row without a Sturm pass at the top.
    At fixed d and epsilon (and for the point dipole) H(p) = K + p U is
    affine in p, so the lowest level lam(p), a minimum of the affine
    functions <v, H(p) v> over unit v, is concave; and lam(0) > 0, the
    lowest level of the Dirichlet-box kinetic operator K.  The moments that
    bind therefore form a half-line [p^, inf), and with _P_HI = 100 _P_LO
    concavity gives lam(_P_HI) <= 100 lam(_P_LO) - 99 lam(0) < -99 lam(0).
    On the 60 bohr box of the default domain that is below -0.13 hartree
    (lam(0) ~ pi^2 / (2 * 60^2) = 1.4e-3).  Rounding is far smaller: of
    order eps/h^2 ~ 6e-13 hartree in the count on the 3001-node grid, and
    eps * max|V| ~ 1e-11 hartree in the entries at epsilon = 1e-3.  So the
    top binds whenever the bottom does.  The top's operator is still formed
    and checked, so a configuration that only the top would refuse is
    refused as before.

    ``guess`` (optional) is where the onset is thought to be, and changes
    only the number of Sturm passes.  Both ends' operators are formed and
    checked first, so every refusal is the one without a guess.  Then
    ``_narrow_bracket`` narrows the whole bracket from the guess, and the
    predicate is evaluated only at a returned end that is _P_LO or _P_HI:
    an interior end was found false (or true) by a pass, or decided by one.
    This needs the float predicate itself, not only lam(p), to be monotone
    in p, and it is for an operator whose potential is negative on every
    row, as the point dipole's on x < 0: each diagonal entry
    fl(k_i + fl(p / c_i)), c_i < 0, is nonincreasing in p because rounding
    is monotone, and Kahan's proof that the float Sturm count at a shift x
    is nondecreasing in x uses only that every fl(a_i - x) is nonincreasing
    in x, so it holds entry by entry.  ``_narrow_bracket`` then returns the
    unguessed bracket bit for bit, whatever the guess, and a guess in the
    final cell costs the two passes at the cell's ends.
    """
    def binds(p: float) -> bool:
        return _binds(spec_at(p), kin)

    if guess is None:
        if binds(_P_LO):
            kin.diagonal_plus(spec_at(_P_HI))
            return None, (_P_LO, _P_HI), "binds_everywhere"
        if not binds(_P_HI):
            return None, (_P_LO, _P_HI), "no_binding"
        lo, hi = _narrow_bracket(binds, _P_LO, _P_HI, _TOL_P)
    else:
        kin.diagonal_plus(spec_at(_P_LO))
        kin.diagonal_plus(spec_at(_P_HI))
        lo, hi = _narrow_bracket(binds, _P_LO, _P_HI, _TOL_P, guess)
        if lo == _P_LO and binds(_P_LO):
            return None, (_P_LO, _P_HI), "binds_everywhere"
        if hi == _P_HI and not binds(_P_HI):
            return None, (_P_LO, _P_HI), "no_binding"
    return 0.5 * (lo + hi), (lo, hi), "bisected"


def physical_dipole_scan(
    d_list: tuple[float, ...] = (1.0, 0.5, 0.2, 0.1, 0.05),
    epsilon: float = 1e-3,
    domain: tuple[float, float] = (-30.0, 30.0),
    n: int | None = None,
) -> DipoleScanResult:
    """For each separation d, bisect the moment p = Q d (varying Q) for the
    onset of a bound state of the two-centre capped dipole on ``domain``.

    The bracket is [p_crit/10, p_crit*10] around the exact point value,
    bisected to a width of 1e-3 q*a_B; a bracket without a predicate sign
    change marks the row inconclusive rather than guessing.  The binding
    moments form a half-line (the lowest level is concave in p, see
    :func:`_bisect_p`), so a row whose bracket bottom binds is
    ``binds_everywhere`` after that one Sturm pass.  A point-dipole
    reference value on the identical grid is included for the d -> 0
    comparison.
    """
    d_list = tuple(float(d) for d in d_list)
    if not d_list:
        raise ValueError("d_list must not be empty")
    if any(not (math.isfinite(d) and d > 0.0) for d in d_list):
        raise ValueError("every separation d must be finite and > 0")
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError("epsilon must be finite and > 0")
    a, b = float(domain[0]), float(domain[1])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"domain ends must be finite, got {a!r}:{b!r}")
    if not (a < 0.0 < b):
        raise ValueError("domain must straddle the origin")
    if n is None:
        h_target = min(epsilon / 2.0, min(d_list) / 8.0)
        nodes = (b - a) / h_target
        if not math.isfinite(nodes):
            raise ValueError(f"the default node count overflows for the domain {a!r}:{b!r}")
        n = int(math.ceil(nodes))
    if n % 2 == 0:
        n += 1  # odd count puts a node on the origin for the reference run
    grid = Grid("uniform", a, b, n)

    # PhysicalDipole has no pinned zeros: one kinetic operator serves every
    # Q, d and epsilon.  It is built from the scan's first configuration, so a
    # spec that cannot be built fails here as the first predicate would.
    two_centre = _kinetic_part(PhysicalDipole(Q=_P_LO / d_list[0], d=d_list[0],
                                              epsilon=epsilon), grid)
    rows = []
    for d in d_list:
        def spec_at(p: float, d=d) -> PhysicalDipole:
            return PhysicalDipole(Q=p / d, d=d, epsilon=epsilon)

        p_c, bracket, status = _bisect_p(spec_at, two_centre)
        rows.append(
            DipoleScanRow(d=d, p_critical=p_c, bracket=bracket,
                          conclusive=p_c is not None, status=status)
        )

    try:
        point = _kinetic_part(PointDipole(_P_LO), grid)
        p_ref, _, _ = _bisect_p(PointDipole, point, _point_threshold_guess(len(point)))
    except GridAlignmentError:
        p_ref = None  # asymmetric domain: no grid node on the origin

    conclusive = [r.p_critical for r in rows if r.conclusive]
    spread = (max(conclusive) - min(conclusive)) if len(conclusive) >= 2 else None
    return DipoleScanResult(
        rows=tuple(rows),
        point_dipole_reference=p_ref,
        epsilon=epsilon,
        domain=(a, b),
        n=n,
        spread=spread,
    )
