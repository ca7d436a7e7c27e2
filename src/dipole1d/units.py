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
    "dipole_si_to_atomic",
    "dipole_atomic_to_si",
    "length_si_to_atomic",
    "length_atomic_to_si",
    "energy_si_to_atomic",
    "energy_atomic_to_si",
    "coulomb_strength_si_to_atomic",
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

    @property
    def kappa(self) -> float:
        """Coulomb strength per unit source charge, q/(4*pi*eps0)."""
        return self.q_electron / (4.0 * math.pi * self.epsilon0)


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


def _dipole_unit_si(c: ConstantSet) -> float:
    return c.q_electron * bohr_radius(c)


def dipole_si_to_atomic(c: ConstantSet, p_si: float) -> float:
    """Convert a dipole moment in C*m to multiples of q*a_B."""
    if not math.isfinite(p_si):
        raise ValueError("dipole moment must be finite")
    return p_si / _dipole_unit_si(c)


def dipole_atomic_to_si(c: ConstantSet, p_au: float) -> float:
    """Convert a dipole moment in multiples of q*a_B to C*m."""
    if not math.isfinite(p_au):
        raise ValueError("dipole moment must be finite")
    return p_au * _dipole_unit_si(c)


def length_si_to_atomic(c: ConstantSet, x_si: float) -> float:
    """Convert metres to Bohr radii."""
    if not math.isfinite(x_si):
        raise ValueError("length must be finite")
    return x_si / bohr_radius(c)


def length_atomic_to_si(c: ConstantSet, x_au: float) -> float:
    """Convert Bohr radii to metres."""
    if not math.isfinite(x_au):
        raise ValueError("length must be finite")
    return x_au * bohr_radius(c)


def energy_si_to_atomic(c: ConstantSet, e_si: float) -> float:
    """Convert joules to hartree."""
    if not math.isfinite(e_si):
        raise ValueError("energy must be finite")
    return e_si / hartree_energy(c)


def energy_atomic_to_si(c: ConstantSet, e_au: float) -> float:
    """Convert hartree to joules."""
    if not math.isfinite(e_au):
        raise ValueError("energy must be finite")
    return e_au * hartree_energy(c)


def coulomb_strength_si_to_atomic(c: ConstantSet, lam_si: float) -> float:
    """Convert a Coulomb strength (energy*length, J*m) to hartree*a_B."""
    if not math.isfinite(lam_si):
        raise ValueError("Coulomb strength must be finite")
    return lam_si / (hartree_energy(c) * bohr_radius(c))
