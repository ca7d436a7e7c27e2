"""Physical constants, the hartree atomic-unit system and unit conversions.

All solver computation in this package happens in hartree atomic units
(hbar = m = q = 1, 4*pi*eps0 = 1).  SI values enter and leave only through an
explicit :class:`ConstantSet`, so no formula ever mixes unit systems silently.
The same formulas evaluate in either system: feed them :data:`CODATA` for SI
answers or :data:`ATOMIC_UNITS` for atomic-unit answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ConstantSet",
    "CODATA",
    "ATOMIC_UNITS",
    "bohr_radius",
    "hartree_energy",
    "alpha_from_p",
    "ATOMIC_UNIT_SI",
    "si_to_atomic",
    "atomic_to_si",
]


@dataclass(frozen=True)
class ConstantSet:
    """The four constants every dimensionful formula in this package uses.

    Defaults are the CODATA 2022 recommended SI values.  All four must be
    strictly positive; nothing else is assumed, so a consistent rescaled set
    (such as :data:`ATOMIC_UNITS`) works everywhere.
    """

    hbar: float = 1.054571817e-34        # J*s
    m_electron: float = 9.1093837139e-31  # kg
    q_electron: float = 1.602176634e-19   # C
    epsilon0: float = 8.8541878188e-12    # F/m
    provenance_label: str = "CODATA 2022"

    def __post_init__(self) -> None:
        for name in ("hbar", "m_electron", "q_electron", "epsilon0"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and strictly positive")


CODATA = ConstantSet()

ATOMIC_UNITS = ConstantSet(
    hbar=1.0,
    m_electron=1.0,
    q_electron=1.0,
    epsilon0=1.0 / (4.0 * math.pi),
    provenance_label="hartree atomic units",
)


def bohr_radius(c: ConstantSet, Q: float | None = None) -> float:
    """Length scale 4*pi*eps0*hbar^2 / (q Q m) for nuclear charge Q.

    Q defaults to the elementary charge of ``c``, giving the ordinary Bohr
    radius.  Scales as 1/Q.
    """
    if Q is None:
        Q = c.q_electron
    if not (math.isfinite(Q) and Q > 0.0):
        raise ValueError("charge Q must be finite and strictly positive")
    return 4.0 * math.pi * c.epsilon0 * c.hbar**2 / (c.q_electron * Q * c.m_electron)


def hartree_energy(c: ConstantSet) -> float:
    """Energy unit hbar^2 / (m a_B^2)."""
    return c.hbar**2 / (c.m_electron * bohr_radius(c) ** 2)


def alpha_from_p(c: ConstantSet, p: float) -> float:
    """Dimensionless dipole coupling 2 m p q / (4*pi*eps0*hbar^2).

    ``p`` is a dipole moment in the unit system of ``c``.  In atomic units
    this reduces to 2p with p measured in q*a_B.  Only p > 0 is meaningful
    for the attractive-side problem, so p <= 0 is rejected.
    """
    if not (math.isfinite(p) and p > 0.0):
        raise ValueError("dipole moment p must be finite and strictly positive")
    return 2.0 * c.m_electron * p * c.q_electron / (
        4.0 * math.pi * c.epsilon0 * c.hbar**2
    )


# The SI value of one atomic unit, per dimension: a_B in m, E_h in J, q*a_B in
# C*m and E_h*a_B in J*m (a Coulomb strength is an energy times a length).
ATOMIC_UNIT_SI = {
    "length": bohr_radius,
    "energy": hartree_energy,
    "dipole_moment": lambda c: c.q_electron * bohr_radius(c),
    "coulomb_strength": lambda c: hartree_energy(c) * bohr_radius(c),
}


def _unit(c: ConstantSet, dimension: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{dimension.replace('_', ' ')} must be finite")
    return ATOMIC_UNIT_SI[dimension](c)


def si_to_atomic(c: ConstantSet, dimension: str, value: float) -> float:
    """Convert ``value`` of ``dimension``, a key of :data:`ATOMIC_UNIT_SI`,
    from SI to atomic units."""
    return value / _unit(c, dimension, value)


def atomic_to_si(c: ConstantSet, dimension: str, value: float) -> float:
    """Convert ``value`` of ``dimension``, a key of :data:`ATOMIC_UNIT_SI`,
    from atomic units to SI."""
    return value * _unit(c, dimension, value)
