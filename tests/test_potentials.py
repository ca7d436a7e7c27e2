import numpy as np
import pytest

from dipole1d.eigensolver import Grid, discretize
from dipole1d.potentials import (
    Coulomb,
    InverseSquare,
    PhysicalDipole,
    PointDipole,
    RegularizedCoulomb,
    SingularPointError,
    eval_potential_grid,
    spec_from_record,
    spec_to_record,
)


def test_point_dipole_values():
    vals = eval_potential_grid(PointDipole(1.0), [-2.0, 2.0])
    assert vals == pytest.approx([-0.25, 0.25], rel=1e-14)


def test_point_dipole_oddness():
    pd = PointDipole(0.7)
    rng = np.random.default_rng(7)
    xs = rng.uniform(1e-3, 50.0, size=100)
    assert np.array_equal(eval_potential_grid(pd, xs), -eval_potential_grid(pd, -xs))


def test_regularized_coulomb_branches():
    vals = eval_potential_grid(RegularizedCoulomb(1.0, 0.1), [0.05, 0.2])
    assert vals == pytest.approx([-10.0, -5.0], rel=1e-14)


def test_regularized_coulomb_continuity_and_floor():
    rc = RegularizedCoulomb(2.0, 0.3)
    eps = rc.epsilon
    inner, outer = eval_potential_grid(rc, [eps * (1 - 1e-16), eps])
    assert inner == outer  # both branches give -lam/eps at the cap edge
    xs = np.linspace(-5, 5, 1001)
    vals = eval_potential_grid(rc, xs)
    assert np.all(vals >= -rc.lam / rc.epsilon)


def test_coulomb_values_and_singularity():
    c = Coulomb(1.0)
    assert eval_potential_grid(c, [2.0]) == pytest.approx([-0.5], rel=1e-14)


def test_coulomb_free_particle_degenerate_case():
    free = Coulomb(0.0)
    assert eval_potential_grid(free, [0.5]).tolist() == [0.0]
    assert free.pinned_zeros == ()


def test_point_dipole_singularity():
    # discretize refuses a grid node on the singular point x = 0
    g = Grid("uniform", 0.0, 10.0, 100, left_bc="neumann")
    with pytest.raises(SingularPointError) as err:
        discretize(PointDipole(1.0), g)
    assert err.value.point == 0.0


def test_inverse_square_domain():
    # the scaled form: -alpha / (2 y^2) hartree
    sq = InverseSquare(0.5)
    assert eval_potential_grid(sq, [2.0]) == pytest.approx([-0.0625], rel=1e-14)


@pytest.mark.parametrize("p", [0.125, 0.3, 1.0, 2.7, 1e-6, 1e6])
def test_inverse_square_is_the_point_dipole_mirrored(p):
    # alpha = 2p: InverseSquare(2p) on y > 0 is PointDipole(p) on x = -y, bit for bit
    y = np.concatenate([np.geomspace(1e-6, 1e3, 257), np.linspace(0.01, 30.0, 311)])
    sq = eval_potential_grid(InverseSquare(2.0 * p), y)
    dip = eval_potential_grid(PointDipole(p), -y)
    assert np.array_equal(sq, dip)


def test_physical_dipole_matches_point_dipole_far_away():
    phys = PhysicalDipole(Q=1.0, d=0.01, epsilon=1e-6)
    want = eval_potential_grid(PointDipole(0.01), [-2.0])[0]
    got = eval_potential_grid(phys, [-2.0])[0]
    assert got == pytest.approx(-0.0025, abs=2e-5)
    assert got == pytest.approx(want, abs=2e-5)


def test_physical_dipole_antisymmetry_at_origin():
    phys = PhysicalDipole(Q=1.0, d=1.0, epsilon=1e-3)
    assert eval_potential_grid(phys, [0.0]).tolist() == [0.0]


def test_physical_dipole_second_order_convergence():
    # fixed moment p = Q*d: the deviation from the ideal dipole drops 4x
    # when the separation halves
    p = 0.01
    xs = np.concatenate([np.linspace(1, 10, 200), -np.linspace(1, 10, 200)])
    ideal = eval_potential_grid(PointDipole(p), xs)
    sups = []
    for d in (0.02, 0.01, 0.005):
        phys = PhysicalDipole(Q=p / d, d=d, epsilon=1e-9)
        sups.append(np.max(np.abs(eval_potential_grid(phys, xs) - ideal)))
    assert sups[0] > sups[1] > sups[2]
    assert sups[0] / sups[1] == pytest.approx(4.0, rel=0.15)
    assert sups[1] / sups[2] == pytest.approx(4.0, rel=0.15)


def test_physical_dipole_sup_vanishes_with_separation():
    p = 0.01
    xs = np.linspace(1, 10, 100)
    ideal = eval_potential_grid(PointDipole(p), xs)
    sup = []
    for d in (1e-2, 1e-3, 1e-4):
        phys = PhysicalDipole(Q=p / d, d=d, epsilon=1e-12)
        sup.append(np.max(np.abs(eval_potential_grid(phys, xs) - ideal)))
    assert sup[-1] < 1e-9


def test_classify_point_dipole():
    assert PointDipole(1.0).pinned_zeros == (0.0,)


def test_classify_coulomb():
    assert Coulomb(1.0).pinned_zeros == (0.0,)


def test_classify_regularized_coulomb():
    assert RegularizedCoulomb(1.0, 0.1).pinned_zeros == ()


def test_classify_inverse_square():
    for alpha in (0.5, 0.0, -0.5):
        assert InverseSquare(alpha).pinned_zeros == (0.0,)


def test_classify_physical_dipole_plateau():
    assert PhysicalDipole(1.0, 1.0, 1e-3).pinned_zeros == ()
    big_cap = PhysicalDipole(1.0, 0.5, 1.0)
    assert big_cap.pinned_zeros == ()
    # the overlapping caps cancel the potential on |x| <= eps - d/2 = 0.75
    plateau = eval_potential_grid(big_cap, np.linspace(-0.75, 0.75, 31))
    assert np.all(plateau == 0.0)
    assert np.all(eval_potential_grid(big_cap, [-0.76, -5.0]) < 0.0)
    assert np.all(eval_potential_grid(big_cap, [0.76, 5.0]) > 0.0)


def test_sign_regions_match_evaluation():
    rng = np.random.default_rng(11)
    cases = (
        (PointDipole(0.4), ((-50.0, 0.0),), ((0.0, 50.0),)),
        (Coulomb(2.0), ((-50.0, 0.0), (0.0, 50.0)), ()),
        (RegularizedCoulomb(1.0, 0.2), ((-50.0, 50.0),), ()),
        (PhysicalDipole(1.0, 0.3, 1e-3), ((-50.0, 0.0),), ((0.0, 50.0),)),
        (InverseSquare(1.2), ((0.0, 50.0),), ()),
        (InverseSquare(-0.5), (), ((0.0, 50.0),)),
    )
    for spec, attractive, repulsive in cases:
        for lo, hi in attractive:
            xs = rng.uniform(lo + 1e-6, hi - 1e-6, size=20)
            assert np.all(eval_potential_grid(spec, xs) < 0.0)
        for lo, hi in repulsive:
            xs = rng.uniform(lo + 1e-6, hi - 1e-6, size=20)
            assert np.all(eval_potential_grid(spec, xs) > 0.0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        RegularizedCoulomb(0.0, 0.1)
    with pytest.raises(ValueError):
        RegularizedCoulomb(1.0, 0.0)
    with pytest.raises(ValueError):
        PointDipole(0.0)
    with pytest.raises(ValueError):
        PhysicalDipole(1.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        InverseSquare(float("inf"))
    with pytest.raises(ValueError):
        Coulomb(-1.0)


@pytest.mark.parametrize(
    "spec",
    [
        Coulomb(1.5),
        RegularizedCoulomb(2.0, 0.25),
        PointDipole(0.125),
        PhysicalDipole(0.5, 2.0, 1e-4),
        InverseSquare(-0.3),
    ],
)
def test_record_round_trip(spec):
    assert spec_from_record(spec_to_record(spec)) == spec


def test_record_rejects_bad_input():
    with pytest.raises(ValueError):
        spec_from_record({"lambda": "1.0"})
    with pytest.raises(ValueError):
        spec_from_record({"kind": "coulomb"})
    with pytest.raises(ValueError):
        spec_from_record({"kind": "hydrogenic", "lambda": "1"})
    with pytest.raises(ValueError):
        spec_from_record({"kind": "coulomb", "lambda": "1", "p": "2"})
