import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipole1d.frobenius import (
    DegenerateRecursionError,
    SeriesSolution,
    SeriesTruncationError,
    eval_series,
    indicial_roots,
    ode_residual,
    recursion_residuals,
    series_coefficients,
)


def test_indicial_examples():
    pair = indicial_roots(0.0)
    assert pair.nu_plus == 1.0 and pair.nu_minus == 0.0
    pair = indicial_roots(3.0 / 16.0)
    assert pair.nu_plus == pytest.approx(0.75, rel=1e-14)
    assert pair.nu_minus == pytest.approx(0.25, rel=1e-14)
    pair = indicial_roots(0.25)
    assert pair.nu_plus == pair.nu_minus == 0.5
    pair = indicial_roots(2.0)
    assert pair.nu_plus == pytest.approx(0.5 + 1j * math.sqrt(7) / 2, rel=1e-14)
    assert pair.nu_minus == pytest.approx(0.5 - 1j * math.sqrt(7) / 2, rel=1e-14)


@settings(max_examples=1000)
@given(st.floats(-5.0, 5.0))
def test_indicial_vieta(alpha):
    pair = indicial_roots(alpha)
    assert abs(pair.nu_plus + pair.nu_minus - 1.0) <= 1e-12
    assert abs(pair.nu_plus * pair.nu_minus - alpha) <= 1e-12 * max(1.0, abs(alpha))


@given(st.floats(0.2500001, 10.0))
def test_supercritical_roots_off_axis(alpha):
    pair = indicial_roots(alpha)
    assert pair.nu_plus.imag > 0.0
    assert pair.nu_plus.real == pytest.approx(0.5)
    assert pair.nu_minus == pair.nu_plus.conjugate()


def test_series_hand_computed_coefficients():
    s = series_coefficients(3.0 / 16.0, 1.0, 0.75, N=4)
    assert s.a[2] == pytest.approx(0.2, rel=1e-15)
    assert s.a[4] == pytest.approx((1.0 / 5.0) / 18.0, rel=1e-15)


def test_series_terminates_for_zero_xi():
    s = series_coefficients(1.3, 0.0, indicial_roots(1.3).nu_plus, N=10)
    assert np.all(s.a[1:] == 0.0)


def test_series_odd_coefficients_vanish():
    rng = np.random.default_rng(3)
    for _ in range(20):
        alpha = float(rng.uniform(-2, 2))
        xi = float(rng.uniform(-3, 3))
        nu = indicial_roots(alpha).nu_plus
        s = series_coefficients(alpha, xi, nu, N=21)
        assert np.all(s.a[1::2] == 0.0)


def test_recursion_residuals_exactly_zero():
    rng = np.random.default_rng(5)
    for _ in range(20):
        alpha = float(rng.uniform(-2, 2))
        xi = float(rng.uniform(-3, 3))
        nu = indicial_roots(alpha).nu_plus
        s = series_coefficients(alpha, xi, nu, N=30)
        assert np.all(recursion_residuals(s) == 0.0)


def test_resonant_branch_raises():
    # alpha = -3/4 puts the lower root a full even step below the upper one
    nu_minus = indicial_roots(-0.75).nu_minus
    with pytest.raises(DegenerateRecursionError) as err:
        series_coefficients(-0.75, 1.0, nu_minus, N=10)
    assert err.value.index == 0


def test_eval_pure_power():
    s = series_coefficients(3.0 / 16.0, 0.0, 0.75, N=4)
    for y in (0.1, 0.5, 2.0, 7.0):
        assert eval_series(s, y) == complex(y) ** 0.75


def test_eval_rejects_bad_y():
    s = series_coefficients(3.0 / 16.0, 1.0, 0.75, N=10)
    with pytest.raises(ValueError):
        eval_series(s, 0.0)
    with pytest.raises(ValueError):
        eval_series(s, -1.0)


def test_eval_refuses_outside_trust_region():
    s = series_coefficients(3.0 / 16.0, 1.0, 0.75, N=6)
    with pytest.raises(SeriesTruncationError):
        eval_series(s, 10.0)


def test_ode_residual_small_in_trust_region():
    s = series_coefficients(3.0 / 16.0, 1.0, 0.75, N=30)
    assert ode_residual(s, 0.1) < 1e-10
    for y in np.linspace(0.01, 0.5, 25):
        assert ode_residual(s, float(y)) < 1e-8


def test_ode_residual_shrinks_with_order():
    # the truncation defect falls with N until it reaches the
    # coefficient-rounding floor (~1e-16 relative), where it stalls
    r8 = ode_residual(series_coefficients(3.0 / 16.0, 1.0, 0.75, N=8), 0.5)
    r15 = ode_residual(series_coefficients(3.0 / 16.0, 1.0, 0.75, N=15), 0.5)
    r30 = ode_residual(series_coefficients(3.0 / 16.0, 1.0, 0.75, N=30), 0.5)
    assert r15 < r8
    assert r30 <= r15
    assert r30 < 1e-14


def test_near_origin_oscillatory_form():
    # one-term series equals a0 y^(1/2) e^(+-i sqrt(alpha-1/4) ln y) exactly
    for alpha in (0.3, 0.5, 2.0):
        pair = indicial_roots(alpha)
        w = math.sqrt(alpha - 0.25)
        for nu, sign in ((pair.nu_plus, 1.0), (pair.nu_minus, -1.0)):
            s = SeriesSolution(alpha=alpha, xi=0.0, nu=nu, a=np.array([1.0 + 0j]))
            for y in (1e-4, 1e-2, 0.3):
                want = math.sqrt(y) * cmath.exp(sign * 1j * w * math.log(y))
                assert eval_series(s, y) == pytest.approx(want, rel=1e-14)


def test_series_matches_direct_integration():
    from scipy.integrate import solve_ivp

    alpha, xi = 3.0 / 16.0, 1.0
    nu = 0.75
    s = series_coefficients(alpha, xi, nu, N=30)
    a = s.a.real
    j = np.arange(a.shape[0])

    y0 = 0.01
    psi0 = float(np.sum(a * y0 ** (j + nu)))
    dpsi0 = float(np.sum(a * (j + nu) * y0 ** (j + nu - 1)))

    def rhs(y, state):
        return [state[1], (xi - alpha / y**2) * state[0]]

    ys = np.linspace(0.01, 0.5, 50)
    ivp = solve_ivp(rhs, (ys[0], ys[-1]), [psi0, dpsi0], t_eval=ys,
                    rtol=1e-12, atol=1e-14, method="DOP853")
    assert ivp.success
    series_vals = np.array([eval_series(s, float(y)).real for y in ys])
    rel = np.abs(series_vals - ivp.y[0]) / np.abs(series_vals)
    assert np.max(rel) < 1e-6


def test_series_input_validation():
    with pytest.raises(ValueError):
        series_coefficients(0.1, 1.0, 0.5, N=1)
