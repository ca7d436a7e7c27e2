import json
import math

import numpy as np
import pytest

import dipole1d.eigensolver as es
from dipole1d.cli import run
from dipole1d.eigensolver import (
    DEFAULT_HYDROGEN_GRID,
    BracketError,
    ConvergenceError,
    DiscreteHamiltonian,
    Grid,
    GridAlignmentError,
    ResolutionError,
    Spectrum,
    check_resolution,
    cutoff_sweep,
    discretize,
    find_alpha_crit,
    hydrogen_grid,
    hydrogen_spectrum,
    lowest_eigenvalues,
    richardson_step,
    window_bias,
    zero_energy_node_count,
)
from dipole1d.potentials import (
    Coulomb,
    InverseSquare,
    PhysicalDipole,
    PointDipole,
    RegularizedCoulomb,
)


# ------------------------------------------------------------------- grids


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid("uniform", 1.0, 0.0, 100)
    with pytest.raises(ValueError):
        Grid("uniform", 0.0, 1.0, 8)
    with pytest.raises(ValueError):
        Grid("logarithmic", 0.0, 1.0, 100)
    with pytest.raises(ValueError):
        Grid("logarithmic", 1e-5, 1.0, 100, left_bc="neumann")
    with pytest.raises(ValueError):
        Grid("chebyshev", 0.0, 1.0, 100)


def test_grid_nodes_uniform():
    g = Grid("uniform", 0.0, 1.0, 19)
    assert g.spacing == pytest.approx(0.05, rel=1e-15)
    assert g.nodes[0] == pytest.approx(0.05)
    assert g.nodes[-1] == pytest.approx(0.95)
    gn = Grid("uniform", 0.0, 1.0, 20, left_bc="neumann")
    assert gn.nodes[0] == 0.0
    assert gn.nodes[-1] == pytest.approx(0.95)


def test_grid_nodes_logarithmic():
    g = Grid("logarithmic", 1e-4, 100.0, 99)
    s = np.log(g.nodes)
    assert np.allclose(np.diff(s), g.spacing, rtol=1e-10)
    assert g.nodes[0] > 1e-4 and g.nodes[-1] < 100.0


def test_grid_refined_halves_spacing():
    for g in (Grid("uniform", -3.0, 5.0, 33),
              Grid("logarithmic", 1e-5, 200.0, 64),
              Grid("uniform", 0.0, 2.0, 32, left_bc="neumann")):
        assert g.refined().spacing == pytest.approx(g.spacing / 2, rel=1e-15)


# ------------------------------------------------------------- discretize


def test_box_operator_entries():
    g = Grid("uniform", 0.0, 4.0, 31)
    H = discretize(Coulomb(0.0), g)
    h = g.spacing
    assert np.allclose(H.diagonal, 1.0 / h**2)
    assert np.allclose(H.offdiagonal, -0.5 / h**2)


def test_box_discrete_eigenvalues_closed_form():
    n = 64
    g = Grid("uniform", 0.0, math.pi, n)
    H = discretize(Coulomb(0.0), g)
    sp = lowest_eigenvalues(H, 4, tol=1e-12)
    h = g.spacing
    k = np.arange(1, 5)
    exact = (1.0 - np.cos(k * math.pi / (n + 1))) / h**2
    assert np.max(np.abs(sp.energies - exact)) < 1e-10


def test_box_converges_to_continuum():
    g = Grid("uniform", 0.0, math.pi, 2001)
    sp = lowest_eigenvalues(discretize(Coulomb(0.0), g), 1)
    assert sp.energies[0] == pytest.approx(0.5, rel=1e-5)


def test_box_richardson_rate():
    # second-order scheme: error estimates shrink ~4x per spacing halving
    g = Grid("uniform", 0.0, math.pi, 128)
    E = []
    for _ in range(4):
        E.append(lowest_eigenvalues(discretize(Coulomb(0.0), g), 1, tol=1e-13).energies[0])
        g = g.refined()
    d1, d2, d3 = E[1] - E[0], E[2] - E[1], E[3] - E[2]
    assert d1 / d2 == pytest.approx(4.0, rel=0.1)
    assert d2 / d3 == pytest.approx(4.0, rel=0.1)
    extrap, est = richardson_step(E[-2], E[-1])
    assert abs(extrap - 0.5) < abs(E[-1] - 0.5) / 100


def test_point_dipole_assembled_on_attractive_side():
    g = Grid("uniform", -10.0, 10.0, 4001)
    H = discretize(PointDipole(1.0), g)
    assert np.all(H.nodes < 0.0)
    assert H.size == 2000
    assert np.all(H.offdiagonal < 0.0)
    assert "x < 0" in H.bc_note


def test_point_dipole_alignment_error():
    g = Grid("uniform", -10.0, 10.0, 4000)  # even count: no node on the origin
    with pytest.raises(GridAlignmentError):
        discretize(PointDipole(1.0), g)


def test_full_line_coulomb_decouples_at_origin():
    g = Grid("uniform", -40.0, 40.0, 3999)
    H = discretize(Coulomb(1.0), g)
    assert int(np.sum(H.offdiagonal == 0.0)) == 1
    sp = lowest_eigenvalues(H, 4)
    # mirror-symmetric halves: levels come in exactly degenerate pairs
    assert sp.energies[1] - sp.energies[0] < 1e-8
    assert sp.energies[3] - sp.energies[2] < 1e-8
    assert sp.energies[0] == pytest.approx(-0.5, rel=5e-4)


def test_inverse_square_domain_guard():
    with pytest.raises(ValueError):
        discretize(InverseSquare(0.2), Grid("uniform", -1.0, 1.0, 99))


def test_grid_node_on_singularity_rejected():
    from dipole1d.potentials import SingularPointError

    g = Grid("uniform", 0.0, 10.0, 100, left_bc="neumann")  # node exactly at 0
    with pytest.raises(SingularPointError):
        discretize(Coulomb(1.0), g)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(
            energies=np.array([1.0, 0.0]),
            node_counts=np.array([0, 1]),
            bracket_widths=np.array([0.0, 0.0]),
        )
    with pytest.raises(ValueError):
        Spectrum(
            energies=np.array([0.0, 1.0]),
            node_counts=np.array([0]),
            bracket_widths=np.array([0.0, 0.0]),
        )


def test_lowest_eigenvalues_k_validation():
    H = discretize(Coulomb(0.0), Grid("uniform", 0.0, 1.0, 32))
    with pytest.raises(ValueError):
        lowest_eigenvalues(H, 0)
    with pytest.raises(ValueError):
        lowest_eigenvalues(H, 33)


# ----------------------------------------------------------- node theorem


def test_node_theorem_box():
    sp = lowest_eigenvalues(discretize(Coulomb(0.0), Grid("uniform", 0.0, 5.0, 501)), 6)
    assert list(sp.node_counts) == [0, 1, 2, 3, 4, 5]


def test_node_theorem_hydrogen():
    g = Grid("logarithmic", 1e-5, 200.0, 2048)
    sp = lowest_eigenvalues(discretize(Coulomb(1.0), g), 4)
    assert list(sp.node_counts) == [0, 1, 2, 3]


def test_node_theorem_regularized_coulomb_full_line():
    g = Grid("uniform", -30.0, 30.0, 3001)
    sp = lowest_eigenvalues(discretize(RegularizedCoulomb(1.0, 0.5), g), 5)
    assert list(sp.node_counts) == [0, 1, 2, 3, 4]


def _dense_block_node_counts(H, k):
    # The oracle: each block of H (the rows between exact-zero couplings) by
    # a dense eigh, each vector's sign changes counted over the entries above
    # 1e-8 max|v|, and the node counts of the k lowest levels of all blocks
    d, e = H.diagonal, H.offdiagonal
    cuts = [0, *(np.flatnonzero(e == 0.0) + 1).tolist(), H.size]
    levels = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        off = e[a:b - 1]
        values, vectors = np.linalg.eigh(np.diag(d[a:b]) + np.diag(off, 1) + np.diag(off, -1))
        for lam, v in zip(values, vectors.T):
            signs = np.sign(v[np.abs(v) > 1e-8 * np.max(np.abs(v))])
            levels.append((lam, int(np.count_nonzero(signs[1:] != signs[:-1]))))
    return [count for _, count in sorted(levels)[:k]]


def test_node_counts_are_per_block_on_the_decoupled_line(tmp_path):
    # spectrum --lambda 1: a pinned zero at the origin splits the default
    # line into two mirror blocks, so the levels come in degenerate pairs,
    # one per block, and each pair shares its node count
    out = tmp_path / "o"
    assert run(["spectrum", "--lambda", "1", "--states", "6", "--format", "both",
                "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "o.json").read_text())
    assert "node counts are per block" in doc["config"]["bc_note"]
    H = discretize(Coulomb(1.0), Grid("uniform", -30.0, 30.0, 4001))
    assert len(H.couplings.blocks) == 2
    assert doc["node_counts"] == _dense_block_node_counts(H, 6) == [0, 0, 1, 1, 2, 2]


def test_node_counts_are_per_block_on_a_random_three_block_operator():
    # weak disorder, and the lower half of the spectrum: a strongly
    # disordered block localizes its vectors, as every block does near the
    # top of its band, and a node between two localized humps then falls
    # below the oracle's 1e-8 cut
    rng = np.random.default_rng(31)
    for _ in range(5):
        n = int(rng.integers(30, 80))
        d = rng.uniform(-0.5, 0.5, size=n)
        e = -rng.uniform(0.5, 1.5, size=n - 1)
        e[rng.choice(n - 1, size=2, replace=False)] = 0.0
        H = DiscreteHamiltonian(d, e, Grid("uniform", 0.0, 1.0, 16), "test operator",
                                np.arange(float(n)))
        assert len(H.couplings.blocks) == 3
        sp = lowest_eigenvalues(H, n // 2)
        assert sp.node_counts.tolist() == _dense_block_node_counts(H, n // 2)


# -------------------------------------------------------------- hydrogen


def test_hydrogen_balmer_levels():
    g = Grid("logarithmic", 1e-5, 200.0, 4096)
    r = hydrogen_spectrum(1.0, 3, refine_levels=1, grid=g)
    assert r.relative_errors[0] < 5e-3
    assert r.relative_errors[1] < 1e-2
    assert r.relative_errors[2] < 1e-2
    assert r.balmer == pytest.approx([-0.5, -0.125, -1.0 / 18.0])


def test_hydrogen_ground_state_is_finite():
    # refining the grid does not send E1 to -infinity; it settles near -1/2
    g = Grid("logarithmic", 1e-5, 200.0, 2048)
    r = hydrogen_spectrum(1.0, 1, refine_levels=2, grid=g)
    assert np.all(np.diff(r.estimates_by_level[:, 0]) < 0.0)
    assert r.extrapolated[0] == pytest.approx(-0.5, rel=1e-3)


def test_hydrogen_coulomb_scaling():
    # E_n(lam) = lam^2 E_n(1) at the matched scaled grid x -> x/lam
    lam = 2.0
    g1 = Grid("logarithmic", 1e-5, 200.0, 2048)
    g2 = Grid("logarithmic", 1e-5 / lam, 200.0 / lam, 2048)
    e1 = lowest_eigenvalues(discretize(Coulomb(1.0), g1), 3).energies
    e2 = lowest_eigenvalues(discretize(Coulomb(lam), g2), 3).energies
    assert np.max(np.abs(e2 / e1 - lam**2)) < 1e-6


def test_hydrogen_rejects_bad_inputs():
    with pytest.raises(ValueError):
        hydrogen_spectrum(0.0)
    with pytest.raises(ValueError):
        hydrogen_spectrum(1.0, 0)
    with pytest.raises(ValueError):
        hydrogen_spectrum(1.0, 3, refine_levels=0)


def test_hydrogen_grid_is_the_default_in_bohr_radii():
    assert hydrogen_grid() == DEFAULT_HYDROGEN_GRID
    assert hydrogen_grid(1.0) == DEFAULT_HYDROGEN_GRID
    g = hydrogen_grid(1e3)
    assert (g.kind, g.n, g.left_bc) == (DEFAULT_HYDROGEN_GRID.kind, DEFAULT_HYDROGEN_GRID.n,
                                        DEFAULT_HYDROGEN_GRID.left_bc)
    assert (g.x_min, g.x_max) == (1e-5 / 1e3, 200.0 / 1e3)
    for lam in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="lam"):
            hydrogen_grid(lam)


class _Solved(Exception):
    pass


@pytest.mark.parametrize("lam, x_min, refused", [
    (1.0, 1e-5, False),       # the default grid: 4e-5
    (1e3, 1e-8, False),       # the default grid at lam = 1e3
    (1.0, 2.4e-4, False),     # 9.6e-4, just inside the bound
    (1.0, 2.6e-4, True),      # 1.04e-3, just outside
    (1e3, 1e-5, True),        # lam = 1e3 on the lam = 1 grid: 4e-2
    (1e154, 1e-5, True),      # 4e149
])
def test_hydrogen_refuses_an_unresolved_inner_wall(monkeypatch, lam, x_min, refused):
    # 4 lam x_min is the first-order wall shift of the ground level, relative;
    # a refused grid is refused before any solve
    def solved(*args, **kwargs):
        raise _Solved

    monkeypatch.setattr(es, "discretize", solved)
    grid = Grid("logarithmic", x_min, 200.0, 64)
    if refused:
        with pytest.raises(ValueError, match="inner wall"):
            hydrogen_spectrum(lam, grid=grid)
    else:
        with pytest.raises(_Solved):
            hydrogen_spectrum(lam, grid=grid)


@pytest.mark.parametrize("lam, x_max, n_states, refused", [
    (1.0, 200.0, 8, False),   # the default grid: 2n^2 + 6n = 176
    (1.0, 200.0, 9, True),    # 216 > 200
    (1.0, 36.0, 3, False),    # exactly 2n^2 + 6n
    (1.0, 35.9, 3, True),
    (1e3, 0.2, 8, False),     # the default grid at lam = 1e3
    (1e3, 0.2, 9, True),
    (1.0, 10.0, 1, False),    # 8
    (1.0, 10.0, 2, True),     # 20: the wall sits one decay length past level 2 turning at 8
])
def test_hydrogen_refuses_an_outer_wall_inside_the_highest_level(monkeypatch, lam, x_max,
                                                                 n_states, refused):
    # level n turns at 2n^2/lam and decays on the length n/lam; the wall must
    # sit six decay lengths past the turning point, checked before any solve
    def solved(*args, **kwargs):
        raise _Solved

    monkeypatch.setattr(es, "discretize", solved)
    grid = Grid("logarithmic", 1e-5 / lam, x_max, 64)
    if refused:
        with pytest.raises(ValueError, match="outer wall"):
            hydrogen_spectrum(lam, n_states, grid=grid)
    else:
        with pytest.raises(_Solved):
            hydrogen_spectrum(lam, n_states, grid=grid)


@pytest.mark.parametrize("n_states", [1, 3, 8])
def test_hydrogen_outer_wall_at_the_bound_moves_the_top_level_below_1e_3(n_states):
    # the wall at x_max = 2n^2 + 6n against one at x = 1000 on the same log
    # spacing, so only the outer wall differs between the two operators
    h = math.log(200.0 / 1e-5) / 2049

    def top_level(x_max):
        m = round(math.log(x_max / 1e-5) / h) - 1
        g = Grid("logarithmic", 1e-5, 1e-5 * math.exp(h * (m + 1)), m)
        sp = lowest_eigenvalues(discretize(Coulomb(1.0), g), n_states, tol=1e-13)
        return sp.energies[-1]

    near, far = top_level(2 * n_states**2 + 6 * n_states), top_level(1000.0)
    assert abs(near - far) < 1e-3 * abs(far)


def test_hydrogen_levels_at_large_lambda_match_balmer():
    # the default geometry read in Bohr radii 1/lam resolves lam = 1e3 as it
    # resolves lam = 1, with energies exactly lam^2 times larger in the
    # continuum and within the bisection tolerance on the grid
    base = Grid("logarithmic", 1e-5, 200.0, 1024)
    r1 = hydrogen_spectrum(1.0, 3, refine_levels=1, grid=base)
    lam = 1e3
    r = hydrogen_spectrum(lam, 3, refine_levels=1,
                          grid=Grid("logarithmic", 1e-5 / lam, 200.0 / lam, 1024))
    assert np.all(r.relative_errors < 1e-4)
    assert r.energies_by_level / lam**2 == pytest.approx(r1.energies_by_level, rel=1e-9)
    assert r.relative_errors == pytest.approx(r1.relative_errors, rel=1e-4)


def test_discretize_refuses_overflowing_entries():
    # the lam = 1e154 default grid starts at x = 1e-159: e^(-2s) / h^2 and
    # lam / x overflow; the refusal is a ValueError, not a RuntimeWarning
    with pytest.raises(ValueError, match="operator entries must be finite"):
        discretize(Coulomb(1e154), Grid("logarithmic", 1e-159, 2e-152, 64))


def test_discrete_hamiltonian_refuses_couplings_whose_square_overflows():
    # a Sturm pass reads e^2, which must be finite: |e| <= sqrt(DBL_MAX)
    g = Grid("uniform", 0.0, 1.0, 16)
    e_max = math.sqrt(np.finfo(float).max)
    es.DiscreteHamiltonian(np.zeros(16), np.full(15, -e_max), g, "", g.nodes)
    for e in (-math.nextafter(e_max, math.inf), -1e155):
        with pytest.raises(ValueError, match="off entries must have a finite square"):
            es.DiscreteHamiltonian(np.zeros(16), np.full(15, e), g, "", g.nodes)


def test_discrete_hamiltonian_raises_a_hamiltonians_own_rules():
    # nodes that match the diagonal and couplings <= 0 are the record's
    # rules; the length rule is tridiag's, with its text
    g = Grid("uniform", 0.0, 1.0, 16)
    with pytest.raises(ValueError, match="nodes must hold one position per diagonal entry"):
        es.DiscreteHamiltonian(np.zeros(16), np.full(15, -1.0), g, "", g.nodes[:-1])
    with pytest.raises(ValueError, match="off-diagonal kinetic couplings must be <= 0"):
        es.DiscreteHamiltonian(np.zeros(16), np.full(15, 1.0), g, "", g.nodes)
    with pytest.raises(ValueError, match="off must have length n - 1"):
        es.DiscreteHamiltonian(np.zeros(16), np.full(16, -1.0), g, "", g.nodes)


def test_hydrogen_convergence_guard(monkeypatch):
    calls = {"i": 0}

    def fake_lowest(H, k, tol=1e-10, guesses=None):
        # fabricated non-shrinking ladder
        e = np.array([-0.5 + 0.01 * (calls["i"] % 2)])
        calls["i"] += 1
        return Spectrum(
            energies=e,
            node_counts=np.zeros(1, dtype=int),
            bracket_widths=np.zeros(1),
        )

    monkeypatch.setattr(es, "lowest_eigenvalues", fake_lowest)
    with pytest.raises(ConvergenceError) as err:
        hydrogen_spectrum(1.0, 1, refine_levels=3,
                          grid=Grid("logarithmic", 1e-5, 200.0, 64))
    assert err.value.diagnostics is not None


def test_eigenvalue_monotone_in_attraction():
    g = Grid("logarithmic", 1e-5, 200.0, 1024)
    prev = None
    for lam in (0.5, 1.0, 2.0):
        e = lowest_eigenvalues(discretize(Coulomb(lam), g), 3).energies
        if prev is not None:
            assert np.all(e <= prev + 1e-12)
        prev = e
    g2 = Grid("logarithmic", 1e-4, 1e4, 1024)
    prev = None
    for alpha in (0.1, 0.2, 0.3, 0.6):
        e = lowest_eigenvalues(discretize(InverseSquare(alpha), g2), 3).energies
        if prev is not None:
            assert np.all(e <= prev + 1e-12)
        prev = e


# ----------------------------------------------------------- cutoff sweep


def test_cutoff_sweep_divergence_signature():
    r = cutoff_sweep(1.0, (0.2, 0.1, 0.05), L=30.0)
    assert r.monotone_decreasing
    assert all(e < -0.5 for e in r.energies)
    eps0, even, full = r.full_line_check
    assert eps0 == 0.2
    assert even == pytest.approx(full, abs=1e-7)


def test_cutoff_sweep_large_cap_is_shallow():
    r = cutoff_sweep(1.0, (10.0,), L=60.0, n=4000)
    assert abs(r.energies[0]) < 0.5


def test_cutoff_sweep_validation():
    with pytest.raises(ValueError):
        cutoff_sweep(1.0, (0.1, 0.2), L=30.0)
    with pytest.raises(ValueError):
        cutoff_sweep(1.0, (), L=30.0)
    with pytest.raises(ResolutionError) as err:
        cutoff_sweep(1.0, (0.2, 0.001), L=30.0, n=1000)
    assert err.value.epsilon == 0.001


@pytest.mark.parametrize("n", [0, -3, 15])
def test_cutoff_sweep_refuses_too_few_nodes_before_dividing_by_them(n):
    # n = 0 used to end in ZeroDivisionError from h = L / n
    with pytest.raises(ValueError, match="grid needs at least 16 points"):
        cutoff_sweep(n=n)


def test_check_resolution_refuses_a_cap_below_two_grid_steps():
    grid = Grid("uniform", -20.0, 20.0, 801)
    h = grid.spacing
    for spec in (RegularizedCoulomb(1.0, 1.9 * h), PhysicalDipole(2.0, 0.5, 1.9 * h)):
        with pytest.raises(ResolutionError) as err:
            check_resolution(spec, grid)
        assert (err.value.epsilon, err.value.spacing) == (spec.epsilon, h)
    # two steps exactly are resolved, as in cutoff_sweep
    check_resolution(RegularizedCoulomb(1.0, 2.0 * h), grid)
    check_resolution(PhysicalDipole(2.0, 0.5, 2.0 * h), grid)
    # the uncapped families have nothing to resolve
    for spec in (Coulomb(1.0), PointDipole(1.0), InverseSquare(1.0)):
        assert spec.cap is None
        check_resolution(spec, grid)
    # logarithmic grids are not checked
    check_resolution(RegularizedCoulomb(1.0, 1e-9), Grid("logarithmic", 1e-5, 200.0, 384))


# ----------------------------------------------- zero-energy oscillation


def test_node_count_examples():
    assert zero_energy_node_count(0.5, 1e-8, 1e8) == 5
    assert zero_energy_node_count(0.2, 1e-8, 1e8) == 0
    assert zero_energy_node_count(0.25, 1e-8, 1e8) == 0
    assert zero_energy_node_count(-1.0, 1e-6, 1e6) == 0


def test_node_count_matches_analytic_oracle():
    rng = np.random.default_rng(99)
    for _ in range(12):
        alpha = float(rng.uniform(0.3, 4.0))
        delta = 10.0 ** float(rng.uniform(-11, -5))
        L = 10.0 ** float(rng.uniform(3, 9))
        want = int(math.floor(math.sqrt(alpha - 0.25) * math.log(L / delta) / math.pi))
        assert zero_energy_node_count(alpha, delta, L) == want


def test_node_count_scale_covariance():
    for s in (3.7, 0.02, 11.0):
        assert zero_energy_node_count(0.5, s * 1e-8, s * 1e8) == \
            zero_energy_node_count(0.5, 1e-8, 1e8)


def test_node_count_overflowing_window_rejected():
    # L/delta overflows to inf: refused as invalid input, not an OverflowError
    with pytest.raises(ValueError, match="not finite"):
        zero_energy_node_count(0.5, 1e-320, 1e10)


def test_node_count_validation():
    with pytest.raises(ValueError):
        zero_energy_node_count(0.5, 1.0, 0.5)
    with pytest.raises(ValueError):
        zero_energy_node_count(0.5, -1.0, 10.0)


# -------------------------------------------------------- threshold scan


def test_find_alpha_crit_window_bias():
    est = find_alpha_crit(1e-8, 1e8, tol_alpha=1e-4)
    assert est.half_width <= 1e-4
    assert abs(est.value - est.predicted_threshold) <= est.half_width + 1e-12
    assert est.value == pytest.approx(0.2573, abs=2e-4)


def test_find_alpha_crit_bias_shrinks_with_window():
    est1 = find_alpha_crit(1e-8, 1e8)
    est2 = find_alpha_crit(1e-12, 1e12)
    assert est2.value < est1.value
    assert abs(est2.value - window_bias(1e-12, 1e12)) <= est2.half_width + 1e-12
    assert est2.value == pytest.approx(0.2532, abs=2e-4)


def test_find_alpha_crit_bracket_errors():
    # ln(L/delta) = ln 2 puts the window threshold at 1/4 + (pi / ln 2)^2,
    # about 20.8: no coupling in [0, 2] oscillates on it
    with pytest.raises(BracketError):
        find_alpha_crit(1.0, 2.0)


def test_find_alpha_crit_validation():
    with pytest.raises(ValueError):
        find_alpha_crit(1.0, 0.5)
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            find_alpha_crit(1e-8, 1e8, tol_alpha=tol)


def test_find_alpha_crit_tolerance_below_float_spacing():
    # the bisection stops at adjacent floats and reports their half-width
    est = find_alpha_crit(1e-8, 1e8, tol_alpha=1e-17)
    assert 1e-17 < est.half_width <= math.ulp(est.value)
    assert abs(est.value - est.predicted_threshold) <= est.half_width + 1e-12
