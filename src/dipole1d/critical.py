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

import math
from dataclasses import dataclass

import numpy as np

from .eigensolver import (
    DEFAULT_WINDOWS,
    AlphaCritEstimate,
    Grid,
    GridAlignmentError,
    discretize,
    find_alpha_crit,
)
from .potentials import PhysicalDipole, PointDipole
from .tridiag import sturm_count
from .units import ConstantSet, bohr_radius, dipole_atomic_to_si

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
    tolerance.
    """

    p_au: float
    half_width: float
    alpha_intercept: float
    alpha_half_width: float
    per_window: tuple[AlphaCritEstimate, ...]


def p_crit_numeric(
    windows: tuple[tuple[float, float], ...] = DEFAULT_WINDOWS,
    tol_alpha: float = 1e-4,
) -> NumericCriticalMoment:
    """Extrapolate the detected oscillation thresholds to an infinite window.

    Each window (delta, L) yields a threshold 1/4 + (pi/ln(L/delta))^2 up to
    bisection tolerance; fitting the estimates linearly in z = 1/ln^2(L/delta)
    and reading the intercept removes the bias.  Windows must come with
    strictly increasing ln(L/delta), and the measured thresholds must strictly
    decrease accordingly or :class:`ExtrapolationError` is raised.
    """
    if len(windows) < 2:
        raise ValueError("need at least 2 windows to extrapolate")
    log_ratios = [math.log(L / d) for d, L in windows]
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
    # every alpha_i is within tol_alpha of the exact biased threshold, so the
    # intercept is within tol_alpha * sum|c_i| of 1/4
    alpha_half_width = tol_alpha * float(np.sum(np.abs(coeff)))
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
    tol_alpha: float = 1e-4,
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
        p_crit_numeric_si=dipole_atomic_to_si(c, numeric.p_au),
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
    ideal point dipole on the same grid, the d -> 0 comparison target.
    """

    rows: tuple[DipoleScanRow, ...]
    point_dipole_reference: float | None
    epsilon: float
    domain: tuple[float, float]
    n: int
    Q_nominal: float
    bind_threshold: float
    spread: float | None
    exploratory: bool = True
    note: str = (
        "exploratory: two-centre cap and finite box are modelling choices; "
        "the separation-independence of the critical moment is an expectation "
        "this table reports on, not a result it asserts"
    )


def _binds(spec, grid: Grid, bind_threshold: float) -> bool:
    """Whether ``spec`` has a level below ``bind_threshold`` on ``grid``.

    The discrete oscillation theorem: the Sturm count of the operator at
    ``bind_threshold`` is the number of levels strictly below it, so binding
    is that count being >= 1.  One Sturm pass, and exact on the discrete
    operator, with no eigenvalue bisected.
    """
    H = discretize(spec, grid)
    return sturm_count(H.diagonal, H.offdiagonal, bind_threshold) >= 1


def _bisect_p(predicate, p_lo: float, p_hi: float, tol_p: float):
    bottom, top = predicate(p_lo), predicate(p_hi)
    if bottom and top:
        return None, (p_lo, p_hi), "binds_everywhere"
    if not top:
        return None, (p_lo, p_hi), "no_binding"
    lo, hi = p_lo, p_hi
    while hi - lo > tol_p:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), (lo, hi), "bisected"


def physical_dipole_scan(
    d_list: tuple[float, ...] = (1.0, 0.5, 0.2, 0.1, 0.05),
    epsilon: float = 1e-3,
    domain: tuple[float, float] = (-30.0, 30.0),
    Q_nominal: float = 1.0,
    n: int | None = None,
    bind_threshold: float = -1e-8,
    tol_p: float = 1e-3,
    bracket_factor: float = 10.0,
) -> DipoleScanResult:
    """For each separation d, bisect the moment p = Q d (varying Q) for the
    onset of a bound state of the two-centre capped dipole on ``domain``.

    The bracket is [p_crit/factor, p_crit*factor] around the exact point
    value; a bracket without a predicate sign change marks the row
    inconclusive rather than guessing.  A point-dipole reference value on the
    identical grid is included for the d -> 0 comparison.
    """
    d_list = tuple(float(d) for d in d_list)
    if any(not d > 0.0 for d in d_list):
        raise ValueError("every separation d must be > 0")
    if not epsilon > 0.0:
        raise ValueError("epsilon must be > 0")
    a, b = float(domain[0]), float(domain[1])
    if not (a < 0.0 < b):
        raise ValueError("domain must straddle the origin")
    if n is None:
        h_target = min(epsilon / 2.0, min(d_list) / 8.0)
        n = int(math.ceil((b - a) / h_target))
    if n % 2 == 0:
        n += 1  # odd count puts a node on the origin for the reference run
    grid = Grid("uniform", a, b, n)

    p_lo = P_CRIT_AU / bracket_factor
    p_hi = P_CRIT_AU * bracket_factor

    rows = []
    for d in d_list:
        def binds(p: float, d=d) -> bool:
            return _binds(PhysicalDipole(Q=p / d, d=d, epsilon=epsilon), grid, bind_threshold)

        p_c, bracket, status = _bisect_p(binds, p_lo, p_hi, tol_p)
        rows.append(
            DipoleScanRow(d=d, p_critical=p_c, bracket=bracket,
                          conclusive=p_c is not None, status=status)
        )

    def point_binds(p: float) -> bool:
        return _binds(PointDipole(p), grid, bind_threshold)

    try:
        p_ref, _, _ = _bisect_p(point_binds, p_lo, p_hi, tol_p)
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
        Q_nominal=Q_nominal,
        bind_threshold=bind_threshold,
        spread=spread,
    )
