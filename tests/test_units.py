import math

import pytest

from dipole1d.units import (
    ATOMIC_UNIT_SI,
    ATOMIC_UNITS,
    CODATA,
    ConstantSet,
    alpha_from_p,
    atomic_to_si,
    bohr_radius,
    hartree_energy,
    si_to_atomic,
)


def test_default_bohr_radius():
    # independent regrouping of the same CODATA product as a cross-check
    c = CODATA
    expected = 4.0 * math.pi * c.epsilon0 * (c.hbar / c.q_electron) ** 2 / c.m_electron
    a = bohr_radius(c)
    assert a == pytest.approx(expected, rel=1e-14)
    assert a == pytest.approx(5.29e-11, rel=1e-3)
    assert 5.0e-11 < a < 5.6e-11


def test_bohr_radius_atomic_units_identity():
    assert bohr_radius(ATOMIC_UNITS) == pytest.approx(1.0, rel=1e-12)


def test_bohr_radius_inverse_charge_scaling():
    for c in (CODATA, ATOMIC_UNITS):
        q = c.q_electron
        base = bohr_radius(c, q)
        assert bohr_radius(c, 2 * q) == pytest.approx(base / 2, rel=1e-13)
        assert bohr_radius(c, 4 * q) == pytest.approx(base / 4, rel=1e-13)


def test_bohr_radius_rejects_bad_charge():
    with pytest.raises(ValueError):
        bohr_radius(CODATA, 0.0)
    with pytest.raises(ValueError):
        bohr_radius(CODATA, -1.0)


def test_alpha_from_p_atomic():
    assert alpha_from_p(ATOMIC_UNITS, 0.125) == pytest.approx(0.25, rel=1e-14)
    assert alpha_from_p(ATOMIC_UNITS, 1.0) == pytest.approx(2.0, rel=1e-14)


def test_alpha_from_p_headline_si_value():
    # the published rounded value lands within 1% of coupling 1/4
    assert alpha_from_p(CODATA, 1.052e-30) == pytest.approx(0.25, rel=1e-2)


def test_alpha_from_p_rejects_nonpositive():
    with pytest.raises(ValueError):
        alpha_from_p(CODATA, 0.0)
    with pytest.raises(ValueError):
        alpha_from_p(CODATA, -1e-30)


def test_dipole_unit_value():
    assert atomic_to_si(CODATA, "dipole_moment", 1.0) == pytest.approx(8.478e-30, rel=1e-3)
    assert atomic_to_si(CODATA, "dipole_moment", 0.0) == 0.0


def test_dipole_round_trip_20_magnitudes():
    for k in range(20):
        p = 10.0 ** (-35 + 2 * k)
        rt = si_to_atomic(CODATA, "dipole_moment", atomic_to_si(CODATA, "dipole_moment", p))
        assert abs(rt - p) <= 1e-12 * p
    rt = si_to_atomic(CODATA, "dipole_moment", atomic_to_si(CODATA, "dipole_moment", 0.125))
    assert abs(rt - 0.125) <= 1e-12


@pytest.mark.parametrize("dimension, si_value", [
    ("length", 5.29177e-11), ("energy", 4.35974e-18), ("dipole_moment", 8.47836e-30),
    ("coulomb_strength", 2.30708e-28),
])
def test_unit_table(dimension, si_value):
    unit = ATOMIC_UNIT_SI[dimension](CODATA)
    assert unit == pytest.approx(si_value, rel=1e-5)
    assert atomic_to_si(CODATA, dimension, 2.0) == 2.0 * unit
    assert si_to_atomic(CODATA, dimension, 2.0 * unit) == 2.0
    assert ATOMIC_UNIT_SI[dimension](ATOMIC_UNITS) == pytest.approx(1.0, rel=1e-12)
    for convert in (si_to_atomic, atomic_to_si):
        with pytest.raises(ValueError, match="must be finite"):
            convert(CODATA, dimension, math.nan)


def test_hartree_energy_value():
    assert hartree_energy(CODATA) == pytest.approx(4.3597e-18, rel=1e-3)
    assert hartree_energy(ATOMIC_UNITS) == pytest.approx(1.0, rel=1e-12)


def test_constant_set_rejects_nonpositive():
    with pytest.raises(ValueError):
        ConstantSet(hbar=0.0)
    with pytest.raises(ValueError):
        ConstantSet(epsilon0=-1.0)
    with pytest.raises(ValueError):
        ConstantSet(m_electron=float("nan"))
