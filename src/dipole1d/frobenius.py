"""Power-series solution of the scaled inverse-square equation near y = 0.

The equation in question is

    -psi''(y) - (alpha/y^2) psi(y) = -xi psi(y),        y > 0,

with alpha the dimensionless dipole coupling and xi = -2mE/hbar^2.  Writing
psi(y) = sum_j a_j y^(j+nu) pins nu to a root of the indicial equation
nu(nu-1) + alpha = 0 and couples the coefficients two apart:

    [(nu+j+2)(nu+j+1) + alpha] a_{j+2} = xi a_j,        a_1 = 0,

so every odd coefficient vanishes.  The two indicial roots

    nu_pm = (1 +- sqrt(1 - 4 alpha)) / 2

collide at alpha = 1/4 and move off the real axis beyond it, where the local
solutions oscillate as y^(1/2) exp(+-i sqrt(alpha - 1/4) ln y).  That switch
from power-law to oscillatory behaviour at alpha = 1/4 is the criticality
this package is built around.

Complex arithmetic is used throughout so a single code path covers all alpha;
real solutions for alpha > 1/4 are real linear combinations of the two
branches.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "IndicialPair",
    "indicial_roots",
    "SeriesSolution",
    "series_coefficients",
    "eval_series",
    "ode_residual",
    "recursion_residuals",
    "DegenerateRecursionError",
    "SeriesTruncationError",
    "DEFAULT_N",
]

DEFAULT_N = 30
_TAIL_TOL = 1e-8  # eval_series refuses a tail proxy at or above this
_RESIDUAL_FLOOR = 1e-12  # the least scale ode_residual divides the defect by


class DegenerateRecursionError(ValueError):
    """A recursion denominator (nu+j+2)(nu+j+1)+alpha vanished exactly.

    Happens only for real nu, i.e. alpha <= 1/4, when the two indicial roots
    differ by an even integer.  ``index`` is the offending j.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(
            f"recursion denominator vanishes at j = {index}; "
            "the chosen branch is resonant"
        )


class SeriesTruncationError(ValueError):
    """Requested evaluation point is outside the trusted truncation range."""


@dataclass(frozen=True)
class IndicialPair:
    """The two roots of nu(nu-1) + alpha = 0, principal square root.

    By Vieta, nu_plus + nu_minus = 1 exactly and nu_plus * nu_minus = alpha;
    both real parts equal 1/2 once alpha > 1/4.
    """

    nu_plus: complex
    nu_minus: complex


def indicial_roots(alpha: float) -> IndicialPair:
    """Leading exponents (1 +- sqrt(1 - 4 alpha)) / 2 of the local solutions."""
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    s = cmath.sqrt(complex(1.0 - 4.0 * alpha, 0.0))
    return IndicialPair(nu_plus=(1.0 + s) / 2.0, nu_minus=(1.0 - s) / 2.0)


@dataclass(frozen=True)
class SeriesSolution:
    """Truncated Frobenius solution: psi(y) = sum_{j=0..N} a[j] y^(j+nu)."""

    alpha: float
    xi: float
    nu: complex
    a: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=complex)
        object.__setattr__(self, "a", a)
        if a.ndim != 1 or a.shape[0] < 1:
            raise ValueError("coefficient array must be 1D and non-empty")

    @property
    def order(self) -> int:
        """Largest stored power offset N."""
        return self.a.shape[0] - 1


def _denominator(nu: complex, j: int, alpha: float) -> complex:
    return (nu + j + 2) * (nu + j + 1) + alpha


def series_coefficients(
    alpha: float,
    xi: float,
    nu: complex,
    N: int = DEFAULT_N,
) -> SeriesSolution:
    """Generate coefficients a_0..a_N of the Frobenius series.

    a_0 = 1, a_1 = 0 and with it every odd coefficient; even coefficients follow
    a_{j+2} = xi a_j / [(nu+j+2)(nu+j+1) + alpha].  A vanishing denominator
    (possible only for real nu, on the resonant lower branch) raises
    :class:`DegenerateRecursionError` carrying the offending j.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    if not (math.isfinite(alpha) and math.isfinite(xi)):
        raise ValueError("alpha and xi must be finite")
    a = np.zeros(N + 1, dtype=complex)
    a[0] = 1.0
    for j in range(0, N - 1, 2):
        den = _denominator(nu, j, alpha)
        if den == 0:
            raise DegenerateRecursionError(j)
        a[j + 2] = xi * a[j] / den
    return SeriesSolution(alpha=alpha, xi=xi, nu=complex(nu), a=a)


def recursion_residuals(s: SeriesSolution) -> np.ndarray:
    """Residual a_{j+2} - xi a_j / den_j for every stored even j.

    This is the identity the generator enforces, so for generated solutions
    every entry is exactly zero (bitwise); it is the machine-checkable form of
    the two-term recursion.
    """
    out = []
    for j in range(0, s.order - 1, 2):
        den = _denominator(s.nu, j, s.alpha)
        if den == 0:
            raise DegenerateRecursionError(j)
        out.append(s.a[j + 2] - s.xi * s.a[j] / den)
    return np.asarray(out, dtype=complex)


def _tail_estimate(s: SeriesSolution, y: float) -> float:
    """A-posteriori truncation proxy |a_L y^L / a_0| for the last nonzero L >= 1.

    A series whose coefficients terminate (xi = 0 gives the pure power
    a_0 y^nu) has zero tail everywhere.
    """
    if y <= 0.0:
        raise ValueError("y must be positive")
    nonzero = np.nonzero(np.abs(s.a[1:]))[0]
    if nonzero.size == 0:
        return 0.0
    L = int(nonzero[-1]) + 1
    return float(abs(s.a[L]) * y**L / abs(s.a[0]))


def _horner(coeffs: np.ndarray, y: float) -> complex:
    acc = complex(0.0)
    for c in coeffs[::-1]:
        acc = acc * y + c
    return acc


def eval_series(s: SeriesSolution, y: float) -> complex:
    """Evaluate psi(y) = y^nu * sum_j a_j y^j at y > 0.

    Evaluation is refused (SeriesTruncationError) where the tail proxy
    |a_L y^L / a_0| of the last nonzero coefficient reaches 1e-8, so answers
    carry a bounded truncation error instead of silently degrading at large y.
    """
    try:
        y = float(y)
    except (TypeError, ValueError):
        raise ValueError("y must be a finite real number") from None
    if not math.isfinite(y):
        raise ValueError("y must be a finite real number")
    if y <= 0.0:
        raise ValueError("series is defined for y > 0")
    est = _tail_estimate(s, y)
    if est >= _TAIL_TOL:
        raise SeriesTruncationError(
            f"truncation tail estimate {est:.3e} exceeds {_TAIL_TOL:.1e} at y = {y!r}; "
            "increase N or shrink y"
        )
    return complex(y) ** s.nu * _horner(s.a, y)


def _eval_d2(s: SeriesSolution, y: float) -> complex:
    """Term-wise second derivative sum_j a_j (j+nu)(j+nu-1) y^(j+nu-2)."""
    j = np.arange(s.a.shape[0])
    c2 = s.a * (j + s.nu) * (j + s.nu - 1)
    return complex(y) ** (s.nu - 2) * _horner(c2, y)


def ode_residual(s: SeriesSolution, y: float) -> float:
    """Scaled defect |-psi'' - (alpha/y^2) psi + xi psi| / max(|psi|/y^2, 1e-12).

    Uses exact term-wise differentiation of the stored series, so for a
    generated solution the only leftover is the truncated coupling of the last
    stored coefficient.
    """
    if y <= 0.0:
        raise ValueError("y must be positive")
    psi = complex(y) ** s.nu * _horner(s.a, y)
    res = -_eval_d2(s, y) - (s.alpha / y**2) * psi + s.xi * psi
    scale = max(abs(psi) / y**2, _RESIDUAL_FLOOR)
    return abs(res) / scale

