import math

import numpy as np
import pytest

import dipole1d.critical as crit
from dipole1d.critical import (
    P_CRIT_AU,
    ExtrapolationError,
    critical_report,
    estimate_to_exact_ratio,
    ionization_distance,
    p_crit_estimate,
    p_crit_exact,
    p_crit_numeric,
    physical_dipole_scan,
)
from dipole1d.eigensolver import (
    AlphaCritEstimate,
    Grid,
    _rk4_node_count,
    discretize,
    find_alpha_crit,
    lowest_eigenvalues,
    window_bias,
)
from dipole1d.potentials import PhysicalDipole, PointDipole
from dipole1d.units import ATOMIC_UNITS, CODATA, ConstantSet, alpha_from_p, bohr_radius


def test_exact_value_atomic_units():
    assert P_CRIT_AU == 0.125
    assert p_crit_exact(ATOMIC_UNITS) == pytest.approx(0.125, rel=1e-14)


def test_exact_value_si_headline():
    assert p_crit_exact(CODATA) == pytest.approx(1.052e-30, rel=1e-2)


def test_exact_value_consistent_with_coupling():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        c = ConstantSet(
            hbar=10.0 ** rng.uniform(-36, 2),
            m_electron=10.0 ** rng.uniform(-32, 2),
            q_electron=10.0 ** rng.uniform(-20, 2),
            epsilon0=10.0 ** rng.uniform(-13, 2),
            provenance_label="randomized",
        )
        assert abs(alpha_from_p(c, p_crit_exact(c)) - 0.25) <= 1e-12


def test_unit_path_independence():
    from dipole1d.units import dipole_atomic_to_si

    via_au = dipole_atomic_to_si(CODATA, P_CRIT_AU)
    direct = p_crit_exact(CODATA)
    assert abs(via_au - direct) <= 1e-12 * direct


def test_estimate_values():
    assert p_crit_estimate(ATOMIC_UNITS) == pytest.approx(2.0, rel=1e-14)
    assert ionization_distance(ATOMIC_UNITS) == pytest.approx(2.0, rel=1e-12)
    assert ionization_distance(CODATA) == pytest.approx(2 * bohr_radius(CODATA), rel=1e-14)
    assert p_crit_estimate(CODATA) == pytest.approx(1.70e-29, rel=5e-3)


def test_estimate_charge_cancels():
    d1 = ionization_distance(CODATA, CODATA.q_electron)
    d2 = ionization_distance(CODATA, 3 * CODATA.q_electron)
    assert d2 == pytest.approx(d1 / 3, rel=1e-13)
    # p = Q d is what cancels the charge
    assert 3 * CODATA.q_electron * d2 == pytest.approx(CODATA.q_electron * d1, rel=1e-13)


def test_ratio_is_exactly_sixteen():
    assert estimate_to_exact_ratio() == 16.0
    assert p_crit_estimate(CODATA) / p_crit_exact(CODATA) == pytest.approx(16.0, rel=1e-14)


def test_numeric_default_windows():
    num = p_crit_numeric()
    assert abs(num.p_au - 0.125) <= num.half_width
    assert abs(num.p_au - 0.125) <= 0.005
    assert num.alpha_intercept == pytest.approx(0.25, abs=1e-3)
    biases = [e.value for e in num.per_window]
    assert biases[0] > biases[1] > biases[2]


def test_numeric_single_window_is_biased_high():
    est = find_alpha_crit(1e-8, 1e8, tol_alpha=1e-4)
    assert est.value / 2.0 == pytest.approx(0.1287, abs=1e-3)
    assert est.value / 2.0 > 0.125


def test_numeric_window_validation():
    with pytest.raises(ValueError):
        p_crit_numeric(windows=((1e-8, 1e8),))
    with pytest.raises(ValueError):
        p_crit_numeric(windows=((1e-8, 1e8), (1e-7, 1e7)))


def test_numeric_extrapolation_error(monkeypatch):
    def fake_find(delta, L, tol_alpha=1e-4, bracket=(0.0, 2.0)):
        return AlphaCritEstimate(
            value=0.26, half_width=tol_alpha, delta=delta, L=L,
            predicted_threshold=window_bias(delta, L),
        )

    monkeypatch.setattr(crit, "find_alpha_crit", fake_find)
    with pytest.raises(ExtrapolationError):
        p_crit_numeric(windows=((1e-6, 1e6), (1e-8, 1e8)))


def test_critical_report_fields():
    windows = ((1e-5, 1e5), (1e-6, 1e6), (1e-7, 1e7))
    rep = critical_report(CODATA, windows=windows)
    assert rep.p_crit_exact_au == 0.125
    assert rep.ratio_estimate_to_exact == 16.0
    assert rep.p_crit_exact_si == pytest.approx(1.052e-30, rel=1e-2)
    assert abs(rep.alpha_crit_numeric - 0.25) <= rep.alpha_crit_half_width
    assert rep.windows == windows
    assert len(rep.per_window) == 3
    assert rep.p_crit_numeric_si == pytest.approx(rep.p_crit_exact_si, rel=5e-2)


def test_dipole_scan_statuses_and_reference():
    r = physical_dipole_scan(
        d_list=(0.5, 0.1), epsilon=4e-3, domain=(-15.0, 15.0),
    )
    assert r.exploratory
    by_d = {row.d: row for row in r.rows}
    assert by_d[0.5].status == "bisected" and by_d[0.5].conclusive
    assert 0.0 < by_d[0.5].p_critical < 1.25
    # the capped two-centre well already binds at the bracket bottom for
    # small separations: no critical moment exists inside the bracket
    assert by_d[0.1].status == "binds_everywhere"
    assert not by_d[0.1].conclusive
    assert by_d[0.1].p_critical is None
    assert r.point_dipole_reference is not None
    assert 0.125 < r.point_dipole_reference < 0.25  # window-biased threshold


def test_dipole_scan_no_binding_status():
    r = physical_dipole_scan(
        d_list=(0.5,), epsilon=4e-3, domain=(-15.0, 15.0), bind_threshold=-1e6,
    )
    assert r.rows[0].status == "no_binding"
    assert r.spread is None
    assert r.point_dipole_reference is None


def test_dipole_scan_asymmetric_domain_skips_reference():
    r = physical_dipole_scan(
        d_list=(0.5,), epsilon=4e-3, domain=(-12.0, 9.0),
    )
    assert r.point_dipole_reference is None
    assert r.rows[0].status in ("bisected", "binds_everywhere", "no_binding")


def test_dipole_scan_validation():
    with pytest.raises(ValueError):
        physical_dipole_scan(d_list=(0.0,), epsilon=1e-3)
    with pytest.raises(ValueError):
        physical_dipole_scan(d_list=(1.0,), epsilon=-1.0)
    with pytest.raises(ValueError):
        physical_dipole_scan(d_list=(1.0,), epsilon=1e-3, domain=(1.0, 2.0))


def _bisection_binds(spec, grid, bind_threshold):
    # the binding predicate as a bisected ground state: E0 < threshold
    sp = lowest_eigenvalues(discretize(spec, grid), 1, want_vectors=False)
    return float(sp.energies[0]) < bind_threshold


def test_binds_matches_bisected_ground_state_on_dipole_scan_grid():
    grid = Grid("uniform", -30.0, 30.0, 3001)
    bracket = (P_CRIT_AU / 10.0, P_CRIT_AU * 10.0)
    # the point-dipole onset on this grid is at p = 0.17595 (dipole-limit)
    ladder = [0.1759 + 2e-4 * k for k in range(-5, 6)]
    on_ladder = []
    for p in ladder:
        want = _bisection_binds(PointDipole(p), grid, -1e-8)
        assert crit._binds(PointDipole(p), grid, -1e-8) is want
        on_ladder.append(want)
    assert on_ladder == sorted(on_ladder) and on_ladder[0] is False and on_ladder[-1] is True
    ends = [PointDipole(p) for p in bracket]
    ends += [PhysicalDipole(Q=p / d, d=d, epsilon=1e-3)
             for d in (1.0, 0.5, 0.2, 0.1, 0.05) for p in bracket]
    for spec in ends:
        assert crit._binds(spec, grid, -1e-8) is _bisection_binds(spec, grid, -1e-8)


# Reference copy of the RK4 node count before its loop invariants were
# hoisted; the hoisted loop must return the identical (count, drift, scale).
def _seed_rk4_node_count(coef, v0, span, nsteps):
    # u'' = coef * u in s = ln y, with coef = 1/4 - alpha.  The quadratic
    # Q = u'^2 - coef u^2 is exactly conserved; its drift flags step failure.
    h = span / nsteps
    u = 0.0
    v = v0
    q0 = v * v - coef * u * u
    scale = abs(q0)
    count = 0
    last_sign = 0
    for _ in range(nsteps):
        k1u = v
        k1v = coef * u
        k2u = v + 0.5 * h * k1v
        k2v = coef * (u + 0.5 * h * k1u)
        k3u = v + 0.5 * h * k2v
        k3v = coef * (u + 0.5 * h * k2u)
        k4u = v + h * k3v
        k4v = coef * (u + h * k3u)
        u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        mag = v * v + abs(coef) * u * u
        if mag > scale:
            scale = mag
        s = 0
        if u > 0.0:
            s = 1
        elif u < 0.0:
            s = -1
        if s != 0:
            if last_sign != 0 and s != last_sign:
                count += 1
            last_sign = s
    drift = abs((v * v - coef * u * u) - q0)
    return count, drift, scale


def test_rk4_node_count_bit_identical_to_reference():
    alphas = (-1.0, 0.0, 0.1, 0.2499, 0.25, 0.2501, 0.26, 0.3, 0.5, 1.0, 3.0)
    windows = ((1e-3, 10.0), (1e-2, 1e2), (1e-4, 1e4), (1e-6, 1e6), (1e-8, 1e8), (1e-12, 1e12),
               (1e-16, 1e16))
    counts = set()
    for alpha in alphas:
        for delta, L in windows:
            span = math.log(L / delta)
            nsteps = max(256, int(math.ceil(span * 128)))
            args = (0.25 - alpha, math.sqrt(delta), span, nsteps)
            got = _rk4_node_count(*args)
            assert got == _seed_rk4_node_count(*args)
            counts.add(got[0])
    assert len(counts) > 5  # zero and many-node solutions both covered
