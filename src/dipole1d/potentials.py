"""The five 1D potential families and the points where their states vanish.

All parameters and coordinates are in hartree atomic units, where the Coulomb
strength per unit source charge kappa = q/(4*pi*eps0) equals 1.  The families:

* ``Coulomb(lam)``               V(x) = -lam/|x|
* ``RegularizedCoulomb(lam,eps)`` V(x) = -lam/max(|x|, eps)  (plateau cap)
* ``PointDipole(p)``             V(x) = p/(x|x|), odd, attractive for x < 0
* ``PhysicalDipole(Q,d,eps)``    two opposite capped Coulomb centres at +-d/2
* ``InverseSquare(alpha)``       V(y) = -alpha/(2 y^2) on y > 0 (scaled form)

Each family carries its own formula (``potential``), its pinned zeros
(``pinned_zeros``: its singular points, where the wavefunction is required to
vanish, which is the boundary condition under which the 1D hydrogen spectrum
is the Balmer series), its cap width (``cap``: the distance from each centre
within which a capped family's potential is flat, None for the uncapped
families) and its record layout (``KIND`` and ``RECORD``).  Every
evaluation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Coulomb",
    "RegularizedCoulomb",
    "PointDipole",
    "PhysicalDipole",
    "InverseSquare",
    "PotentialSpec",
    "SingularPointError",
    "eval_potential_grid",
    "family_for_keys",
    "spec_to_record",
    "spec_from_record",
]


class SingularPointError(ValueError):
    """Evaluation or grid placement hit a singular point of the potential."""

    def __init__(self, point: float, message: str | None = None):
        self.point = point
        super().__init__(message or f"potential is singular at x = {point!r}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _finite(*vals: float) -> bool:
    return all(math.isfinite(v) for v in vals)


@dataclass(frozen=True)
class Coulomb:
    """Attractive Coulomb well -lam/|x|.  lam = 0 degenerates to a free particle."""

    KIND = "coulomb"
    RECORD = (("lambda", "lam"),)
    cap = None

    lam: float

    def __post_init__(self) -> None:
        _require(_finite(self.lam) and self.lam >= 0.0, "lam must be finite and >= 0")

    @property
    def pinned_zeros(self) -> tuple[float, ...]:
        return () if self.lam == 0.0 else (0.0,)

    def potential(self, xs: np.ndarray) -> np.ndarray:
        if self.lam == 0.0:
            return np.zeros_like(xs)
        return -self.lam / np.abs(xs)


@dataclass(frozen=True)
class RegularizedCoulomb:
    """Coulomb well capped at -lam/epsilon inside |x| <= epsilon."""

    KIND = "regularized_coulomb"
    RECORD = (("lambda", "lam"), ("epsilon", "epsilon"))
    pinned_zeros = ()

    lam: float
    epsilon: float

    def __post_init__(self) -> None:
        _require(_finite(self.lam, self.epsilon) and self.lam > 0.0, "lam must be finite and > 0")
        _require(self.epsilon > 0.0, "epsilon must be > 0")

    @property
    def cap(self) -> float:
        return self.epsilon

    def potential(self, xs: np.ndarray) -> np.ndarray:
        return -self.lam / np.maximum(np.abs(xs), self.epsilon)


@dataclass(frozen=True)
class PointDipole:
    """Idealized dipole p/(x|x|): attractive for x < 0, repulsive for x > 0."""

    KIND = "point_dipole"
    RECORD = (("p", "p"),)
    pinned_zeros = (0.0,)
    cap = None

    p: float

    def __post_init__(self) -> None:
        _require(_finite(self.p) and self.p > 0.0, "p must be finite and > 0")

    def potential(self, xs: np.ndarray) -> np.ndarray:
        return self.p / (xs * np.abs(xs))


@dataclass(frozen=True)
class PhysicalDipole:
    """Two opposite charges +-Q at x = +-d/2, each capped within distance epsilon.

    Sign convention matches :class:`PointDipole`: repulsive far right,
    attractive far left, and V(-x) = -V(x) exactly.  The d -> 0 limit at
    fixed p = Q*d reproduces the point dipole to O(d^2) away from the origin.
    """

    KIND = "physical_dipole"
    RECORD = (("Q", "Q"), ("d", "d"), ("epsilon", "epsilon"))
    pinned_zeros = ()

    Q: float
    d: float
    epsilon: float

    def __post_init__(self) -> None:
        _require(
            _finite(self.Q, self.d, self.epsilon)
            and self.Q > 0.0 and self.d > 0.0 and self.epsilon > 0.0,
            "Q, d and epsilon must be finite and > 0",
        )

    @property
    def cap(self) -> float:
        return self.epsilon

    def potential(self, xs: np.ndarray) -> np.ndarray:
        half = 0.5 * self.d
        return self.Q * (
            1.0 / np.maximum(np.abs(xs - half), self.epsilon)
            - 1.0 / np.maximum(np.abs(xs + half), self.epsilon)
        )


@dataclass(frozen=True)
class InverseSquare:
    """Inverse-square well on the half line y > 0 in its scaled form.

    The defining equation -psi'' - (alpha/y^2) psi = -xi psi is H psi = E psi
    with V(y) = -alpha/(2 y^2) hartree and E = -xi/2, so ``alpha`` is directly
    the coupling, with binding threshold 1/4.  InverseSquare(2p) on y is the
    point dipole p at x = -y.
    """

    KIND = "inverse_square"
    RECORD = (("alpha", "alpha"),)
    pinned_zeros = (0.0,)
    cap = None

    alpha: float

    def __post_init__(self) -> None:
        _require(_finite(self.alpha), "alpha must be finite")

    def potential(self, xs: np.ndarray) -> np.ndarray:
        return -0.5 * self.alpha / (xs * xs)


PotentialSpec = Union[Coulomb, RegularizedCoulomb, PointDipole, PhysicalDipole, InverseSquare]

_FAMILIES = {
    cls.KIND: cls
    for cls in (Coulomb, RegularizedCoulomb, PointDipole, PhysicalDipole, InverseSquare)
}


def eval_potential_grid(spec: PotentialSpec, xs: np.ndarray) -> np.ndarray:
    """V in hartree on an array of positions in Bohr radii; the caller
    guarantees that no position is a singular point of ``spec``."""
    return spec.potential(np.asarray(xs, dtype=float))


def family_for_keys(keys) -> type:
    """The family whose record keys (``RECORD``, without ``kind``) are exactly
    ``keys``; ValueError when no family takes that set."""
    keys = set(keys)
    for cls in _FAMILIES.values():
        if keys == {key for key, _ in cls.RECORD}:
            return cls
    layouts = "; ".join(", ".join(key for key, _ in cls.RECORD) for cls in _FAMILIES.values())
    raise ValueError(f"no potential family takes exactly {sorted(keys)}; the families "
                     f"take {layouts}")


def spec_to_record(spec: PotentialSpec) -> dict[str, str]:
    """Flatten a potential to the key=value record used by the CLI and config
    files.  All parameters are atomic units."""
    cls = _FAMILIES.get(getattr(spec, "KIND", None))
    if cls is None:
        raise TypeError(f"unknown potential spec {type(spec).__name__}")
    rec = {"kind": cls.KIND}
    for key, attr in cls.RECORD:
        rec[key] = repr(getattr(spec, attr))
    return rec


def spec_from_record(record: dict[str, str]) -> PotentialSpec:
    """Inverse of :func:`spec_to_record`; values may be strings or numbers."""
    try:
        kind = record["kind"]
    except KeyError:
        raise ValueError("potential record needs a 'kind' key") from None
    try:
        cls = _FAMILIES[kind]
    except KeyError:
        raise ValueError(f"unknown potential kind {kind!r}") from None
    kwargs = {}
    for key, attr in cls.RECORD:
        if key not in record:
            raise ValueError(f"potential kind {kind!r} needs key {key!r}")
        kwargs[attr] = float(record[key])
    extra = set(record) - {"kind", *(key for key, _ in cls.RECORD)}
    if extra:
        raise ValueError(f"unexpected keys for kind {kind!r}: {sorted(extra)}")
    return cls(**kwargs)
