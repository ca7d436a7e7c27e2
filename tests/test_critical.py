import importlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import dipole1d.critical as crit
import dipole1d.eigensolver as eigensolver
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
    IntegrationError,
    discretize,
    find_alpha_crit,
    lowest_eigenvalues,
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
    from dipole1d.units import atomic_to_si

    via_au = atomic_to_si(CODATA, "dipole_moment", P_CRIT_AU)
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
    def fake_find(delta, L, tol_alpha=1e-4):
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
    # a box narrower than the separation confines the two-centre level above
    # zero energy even at the bracket top; the scale-free point dipole still
    # has an onset in the same box
    r = physical_dipole_scan(d_list=(0.5,), epsilon=4e-3, domain=(-0.2, 0.2))
    assert r.rows[0].status == "no_binding"
    assert not r.rows[0].conclusive and r.rows[0].p_critical is None
    assert r.spread is None


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


def test_numeric_half_width_covers_float_spacing_stop():
    # below the float spacing the per-window half-widths, not tol_alpha,
    # bound the error, and the propagated bar must cover them
    num = p_crit_numeric(tol_alpha=1e-17)
    widest = max(e.half_width for e in num.per_window)
    assert widest > 1e-17
    assert num.alpha_half_width >= widest


def _bisection_binds(spec, grid):
    # the binding predicate as a bisected ground state: E0 < 0
    sp = lowest_eigenvalues(discretize(spec, grid), 1)
    return float(sp.energies[0]) < 0.0


def _kinetic_operator(spec, grid):
    # what physical_dipole_scan hands _binds: the operator of spec's family
    # at V = 0, which keeps its squared couplings
    return eigensolver._kinetic_part(spec, grid)


def test_binds_matches_bisected_ground_state_on_dipole_scan_grid():
    grid = Grid("uniform", -30.0, 30.0, 3001)
    bracket = (P_CRIT_AU / 10.0, P_CRIT_AU * 10.0)
    point = _kinetic_operator(PointDipole(bracket[0]), grid)
    two_centre = _kinetic_operator(PhysicalDipole(Q=1.0, d=1.0, epsilon=1e-3), grid)
    # the point-dipole onset on this grid is at p = 0.17595 (dipole-limit)
    ladder = [0.1759 + 2e-4 * k for k in range(-5, 6)]
    on_ladder = []
    for p in ladder:
        want = _bisection_binds(PointDipole(p), grid)
        assert crit._binds(PointDipole(p), point) is want
        on_ladder.append(want)
    assert on_ladder == sorted(on_ladder) and on_ladder[0] is False and on_ladder[-1] is True
    for p in bracket:
        assert crit._binds(PointDipole(p), point) is _bisection_binds(PointDipole(p), grid)
        for d in (1.0, 0.5, 0.2, 0.1, 0.05):
            spec = PhysicalDipole(Q=p / d, d=d, epsilon=1e-3)
            assert crit._binds(spec, two_centre) is _bisection_binds(spec, grid)


def test_binds_refuses_the_operators_discretize_refuses():
    grid = Grid("uniform", -30.0, 30.0, 3001)
    # Q / |x - d/2| overflows at the nodes next to the centre at x = 0.5
    spec = PhysicalDipole(Q=1e307, d=1.0, epsilon=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="entries must be finite"):
            discretize(spec, grid)
        with pytest.raises(ValueError, match="entries must be finite"):
            crit._binds(spec, _kinetic_operator(spec, grid))
        # couplings -1/(2 h^2) whose square overflows
        with pytest.raises(ValueError, match="finite square"):
            _kinetic_operator(spec, Grid("uniform", -1e-75, 1e-75, 3001))


# Reference copy of the one-piece discretize that _kinetic_part and the
# potential sum replaced; both must give the same bytes.
@np.errstate(over="ignore", invalid="ignore")
def _seed_discretize(spec, grid):
    nodes = grid.nodes
    n = nodes.shape[0]
    atol = 1e-9 * max(abs(grid.x_min), abs(grid.x_max), 1.0)
    notes = []
    drop = np.zeros(n, dtype=bool)
    for p in spec.pinned_zeros:
        if not (grid.x_min + atol < p < grid.x_max - atol):
            continue
        idx = int(np.argmin(np.abs(nodes - p)))
        assert abs(nodes[idx] - p) <= atol
        drop[idx] = True
        notes.append(f"interior Dirichlet zero at x = {p!r} decouples the operator: "
                     "node counts are per block")
    if isinstance(spec, PointDipole) and grid.x_max > atol and grid.x_min < -atol:
        drop |= nodes > -atol
        notes = [n_ for n_ in notes if "decouples" not in n_]
        notes.append("point dipole: assembled on the x < 0 subgrid, Dirichlet at the origin")
    keep = np.nonzero(~drop)[0]
    act_nodes = nodes[keep]
    h = grid.spacing
    if grid.kind == "uniform":
        kin_diag = np.full(n, 1.0 / h**2)
        kin_off = np.full(n - 1, -0.5 / h**2)
        if grid.left_bc == "neumann":
            kin_off[0] = -1.0 / (math.sqrt(2.0) * h**2)
            notes.append(
                "left Neumann wall (even-parity mirror reduction), "
                "first coupling carries the 1/sqrt(2) symmetrizer"
            )
        else:
            notes.append(f"uniform grid, Dirichlet walls at {grid.x_min!r} and {grid.x_max!r}")
    else:
        s = grid._s_ladder()
        w_left = np.exp(-2.0 * (s - 0.5 * h))
        w_right = np.exp(-2.0 * (s + 0.5 * h))
        kin_diag = 0.5 * (w_left + w_right) / h**2 - 0.375 * np.exp(-2.0 * s)
        kin_off = -0.5 * w_right[:-1] / h**2
        notes.append(
            "logarithmic grid x = e^s with u = e^(s/2) psi; operator "
            "-(1/2)(e^(-2s) u')' - (3/8) e^(-2s) u + V(e^s) u, Dirichlet in u at both walls"
        )
    if isinstance(spec, InverseSquare):
        notes.append("inverse-square scaled form: V = -alpha/(2 y^2), eigenvalues are -xi/2")
    diag = kin_diag[keep] + spec.potential(act_nodes)
    adjacent = keep[1:] == keep[:-1] + 1
    off = np.where(adjacent, kin_off[keep[:-1]], 0.0)
    return diag, off, act_nodes, "; ".join(notes)


@pytest.mark.parametrize("spec, grid", [
    (Coulomb(0.0), Grid("uniform", 0.0, math.pi, 64)),
    (RegularizedCoulomb(1.0, 0.2), Grid("uniform", 0.0, 10.0, 800, left_bc="neumann")),
    (Coulomb(1.0), Grid("logarithmic", 1e-5, 200.0, 384)),
    (Coulomb(1.0), Grid("uniform", -10.0, 10.0, 401)),  # interior pinned zero at 0
    (PointDipole(0.2), Grid("uniform", -30.0, 30.0, 3001)),  # the x < 0 subgrid
    (InverseSquare(1.25), Grid("logarithmic", 1e-3, 30.0, 2048)),
    (PhysicalDipole(Q=0.2, d=0.5, epsilon=1e-3), Grid("uniform", -30.0, 30.0, 3001)),
])
def test_discretize_bit_identical_to_one_piece_reference(spec, grid):
    diag, off, nodes, note = _seed_discretize(spec, grid)
    H = discretize(spec, grid)
    assert H.diagonal.tobytes() == diag.tobytes()
    assert H.offdiagonal.tobytes() == off.tobytes()
    assert H.nodes.tobytes() == nodes.tobytes()
    assert H.bc_note == note
    kin = eigensolver._kinetic_part(spec, grid)
    assert (kin.diagonal + spec.potential(kin.nodes)).tobytes() == diag.tobytes()
    assert kin.offdiagonal.tobytes() == off.tobytes() and kin.bc_note == note


def test_dipole_scan_builds_two_kinetic_parts_and_never_discretizes(monkeypatch):
    # the perfbench `dipole-scan` argv at seed 0: --d 1.0,0.5,0.2,0.1,0.05 --n 3001
    def no_discretize(spec, grid):
        raise AssertionError("physical_dipole_scan must not call discretize")

    parts, binds = [], []
    kinetic_part, binds_fn = crit._kinetic_part, crit._binds

    def counted_part(spec, grid):
        parts.append(type(spec))
        return kinetic_part(spec, grid)

    def counted_binds(spec, kin):
        binds.append(type(spec))
        return binds_fn(spec, kin)

    monkeypatch.setattr(eigensolver, "discretize", no_discretize)
    monkeypatch.setattr(crit, "_kinetic_part", counted_part)
    monkeypatch.setattr(crit, "_binds", counted_binds)
    res = physical_dipole_scan(d_list=(1.0, 0.5, 0.2, 0.1, 0.05), n=3001)
    assert parts == [PhysicalDipole, PointDipole]
    assert len(binds) == 7
    assert binds.count(PhysicalDipole) == 5  # every row binds at the bracket bottom
    assert binds.count(PointDipole) == 2  # its guess lies in its final cell
    assert res.point_dipole_reference is not None


def test_dipole_scan_reads_each_diagonal_in_place(monkeypatch):
    # one Sturm pass per operator: each predicate reads its diagonal through
    # a memoryview, and no list view beyond the squared couplings is built
    kinetic, diagonals = [], []
    kinetic_part, count_below = crit._kinetic_part, crit._count_below

    def recorded_part(spec, grid):
        kinetic.append(kinetic_part(spec, grid))
        return kinetic[-1]

    def recorded_count(diag, *args):
        diagonals.append(diag)
        return count_below(diag, *args)

    monkeypatch.setattr(crit, "_kinetic_part", recorded_part)
    monkeypatch.setattr(crit, "_count_below", recorded_count)
    physical_dipole_scan(d_list=(1.0, 0.5, 0.2, 0.1, 0.05), n=3001)
    assert len(diagonals) == 7 and all(isinstance(d, memoryview) for d in diagonals)
    for kin in kinetic:
        assert "off2" in vars(kin.couplings)
        assert not {"diag_list", "ends", "floor"} & set(vars(kin))
        assert not {"abs_off", "radius", "certificate", "bound"} & set(vars(kin.couplings))


@pytest.mark.parametrize("n", [None, 3001])
def test_dipole_scan_refuses_an_empty_separation_list(n):
    with pytest.raises(ValueError, match="d_list must not be empty"):
        physical_dipole_scan(d_list=(), n=n)


def test_binds_is_nondecreasing_in_p_on_the_dipole_scan_grid():
    # the half-line of binding moments that lets _bisect_p stop after a
    # bottom that binds: on a ladder through every onset, _binds switches once
    grid = Grid("uniform", -30.0, 30.0, 3001)
    ladder = np.geomspace(1e-4, P_CRIT_AU * 10.0, 41).tolist()
    point = _kinetic_operator(PointDipole(P_CRIT_AU), grid)
    two_centre = _kinetic_operator(PhysicalDipole(Q=1.0, d=1.0, epsilon=1e-3), grid)
    configurations = [(PointDipole, point)] + [
        (lambda p, d=d: PhysicalDipole(Q=p / d, d=d, epsilon=1e-3), two_centre)
        for d in (1.0, 0.5, 0.2, 0.1, 0.05)
    ]
    for spec_at, kin in configurations:
        on_ladder = [crit._binds(spec_at(p), kin) for p in ladder]
        assert on_ladder == sorted(on_ladder)
        assert on_ladder[0] is False and on_ladder[-1] is True


# Reference copy of the _bisect_p that always counted at both bracket ends.
def _seed_bisect_p(predicate):
    bottom, top = predicate(crit._P_LO), predicate(crit._P_HI)
    if bottom and top:
        return None, (crit._P_LO, crit._P_HI), "binds_everywhere"
    if not top:
        return None, (crit._P_LO, crit._P_HI), "no_binding"
    lo, hi = crit._narrow_bracket(predicate, crit._P_LO, crit._P_HI, crit._TOL_P)
    return 0.5 * (lo + hi), (lo, hi), "bisected"


def test_bisect_p_matches_the_two_predicate_reference(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    bisect_p, statuses, guessed = crit._bisect_p, set(), []

    def compared(spec_at, kin, guess=None):
        got = bisect_p(spec_at, kin, guess)
        assert got == _seed_bisect_p(lambda p: crit._binds(spec_at(p), kin))
        statuses.add(got[2])
        guessed.append(guess is not None)
        return got

    monkeypatch.setattr(crit, "_bisect_p", compared)
    for seed in range(11):  # the perfbench dipole-scan argv
        argv = workloads.WORKLOADS["dipole-scan"].make(seed).argv
        d_list = tuple(float(d) for d in argv[argv.index("--d") + 1].split(","))
        physical_dipole_scan(d_list=d_list, n=int(argv[argv.index("--n") + 1]))
    physical_dipole_scan(domain=(-0.2, 0.2))  # rows that bind nowhere in the bracket
    assert statuses == {"bisected", "binds_everywhere", "no_binding"}
    assert guessed.count(True) == 12  # the point-dipole reference of each scan


def _lattice_binds(p, n):
    # the zero-energy recurrence of (T - p diag(1/j^2)) on rows j = 1..n,
    # unscaled: a node by the wall row n + 1 is a level below 0
    v, v_next = 0.0, 1.0
    for j in range(1, n + 1):
        v, v_next = v_next, (2.0 - 2.0 * p / (j * j)) * v_next - v
        if v_next <= 0.0:
            return True
    return False


def _lattice_threshold(n, tol=1e-12):
    # the point dipole's threshold on n rows, bisected on the float recurrence
    lo, hi = P_CRIT_AU, 10.0 * P_CRIT_AU
    assert not _lattice_binds(lo, n) and _lattice_binds(hi, n)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _lattice_binds(mid, n) else (mid, hi)
    return 0.5 * (lo + hi)


def test_point_threshold_guess_is_within_2e_5_of_the_lattice_threshold():
    # the closed-form tail drops O(j^-4) terms past row 16: the guess is
    # stated to lie within 2e-5 of the threshold, a thirtieth of the
    # dipole scan's 6.04e-4 final cell
    mpmath = pytest.importorskip("mpmath")
    for n in (64, 100, 400, 1500, 3000, 10**4, 6 * 10**4):
        exact = _lattice_threshold(n)
        if n <= 1500:  # the float recurrence against a 30-digit one
            def wall(p):
                v, v_next = mpmath.mpf(0), mpmath.mpf(1)
                for j in range(1, n + 1):
                    v, v_next = v_next, (2 - 2 * p / (j * j)) * v_next - v
                return v_next
            with mpmath.workdps(30):
                assert abs(float(mpmath.findroot(wall, exact)) - exact) <= 1e-10
        assert abs(crit._point_threshold_guess(n) - exact) <= 2e-5


def test_point_threshold_guess_never_raises_on_few_rows():
    for n in range(1, 201):
        guess = crit._point_threshold_guess(n)
        assert (guess is None) is (n < 4 * crit._MATCH_ROWS)
        assert guess is None or math.isfinite(guess)


@pytest.mark.parametrize("domain, n", [((-30.0, 30.0), 3001), ((-0.2, 0.2), 801)])
def test_a_point_dipole_guess_changes_only_the_cost(domain, n, monkeypatch):
    # the seed-0 dipole-scan grid, and the default grid of the -0.2:0.2 box
    kin = _kinetic_operator(PointDipole(P_CRIT_AU), Grid("uniform", *domain, n))
    want = crit._bisect_p(PointDipole, kin)
    assert want[2] == "bisected"
    lo, hi = want[1]
    exact = _lattice_threshold(len(kin))
    assert lo < exact < hi
    cell = hi - lo
    guesses = [None, crit._P_LO, crit._P_HI, math.nan, math.inf, -1.0, lo, hi]
    guesses += [exact + k * cell for k in range(-3, 4)]
    for guess in guesses:
        assert crit._bisect_p(PointDipole, kin, guess) == want, guess

    binds_fn, passes = crit._binds, []

    def counted_binds(spec, kin):
        passes.append(spec.p)
        return binds_fn(spec, kin)

    monkeypatch.setattr(crit, "_binds", counted_binds)
    assert crit._bisect_p(PointDipole, kin, crit._point_threshold_guess(len(kin))) == want
    assert passes == [lo, hi]


def test_a_guess_keeps_the_statuses_without_an_onset():
    # two-centre rows that bind at the bracket bottom, and rows that do not
    # bind at its top: a guess anywhere leaves the status and bracket alone
    cases = [((-30.0, 30.0), 3001, 1.0, "binds_everywhere"),
             ((-0.2, 0.2), 801, 1.0, "no_binding")]
    for domain, n, d, status in cases:
        grid = Grid("uniform", *domain, n)
        kin = _kinetic_operator(PhysicalDipole(Q=1.0, d=d, epsilon=1e-3), grid)

        def spec_at(p, d=d):
            return PhysicalDipole(Q=p / d, d=d, epsilon=1e-3)

        want = (None, (crit._P_LO, crit._P_HI), status)
        assert crit._bisect_p(spec_at, kin) == want
        for guess in (crit._P_LO, 0.2, crit._P_HI, math.nan):
            assert crit._bisect_p(spec_at, kin, guess) == want


def test_point_dipole_binds_is_nondecreasing_through_its_final_cell():
    # the float monotonicity the guessed bisection rests on: a dense ladder
    # through the final cell, and every double next to the float switch
    grid = Grid("uniform", -30.0, 30.0, 3001)
    kin = _kinetic_operator(PointDipole(P_CRIT_AU), grid)
    _, (lo, hi), _ = crit._bisect_p(PointDipole, kin)
    ladder = np.linspace(lo - (hi - lo), hi + (hi - lo), 241).tolist()
    on_ladder = [crit._binds(PointDipole(p), kin) for p in ladder]
    assert on_ladder == sorted(on_ladder) and not on_ladder[0] and on_ladder[-1]
    below, above = lo, hi
    while math.nextafter(below, above) < above:
        mid = 0.5 * (below + above)
        if crit._binds(PointDipole(mid), kin):
            above = mid
        else:
            below = mid
    near = [below]
    for _ in range(64):
        near.insert(0, math.nextafter(near[0], 0.0))
        near.append(math.nextafter(near[-1], 1.0))
    on_floats = [crit._binds(PointDipole(p), kin) for p in near]
    assert on_floats == [False] * 65 + [True] * 64


def test_a_configuration_only_the_bracket_top_refuses_is_still_refused(monkeypatch):
    # d/2 on a grid node and 1/epsilon finite: Q/epsilon at that node stays
    # finite at the bracket bottom and overflows at the top, while the other
    # centre's well already binds at the bottom
    grid = Grid("uniform", -30.0, 30.0, 3001)
    d = 2.0 * float(grid.nodes[np.searchsorted(grid.nodes, 0.3)])
    binds_fn, passes = crit._binds, []

    def counted_binds(spec, kin):
        passes.append(binds_fn(spec, kin))
        return passes[-1]

    monkeypatch.setattr(crit, "_binds", counted_binds)
    with pytest.raises(ValueError, match="operator entries must be finite"):
        physical_dipole_scan(d_list=(d,), epsilon=6e-309, n=3001)
    assert passes == [True]  # the bottom bound; the top was refused without a pass
    # with a guess both ends are formed first, so the refusal comes before any pass
    kin = _kinetic_operator(PhysicalDipole(Q=1.0, d=d, epsilon=6e-309), grid)
    with pytest.raises(ValueError, match="operator entries must be finite"):
        crit._bisect_p(lambda p: PhysicalDipole(Q=p / d, d=d, epsilon=6e-309), kin, 0.2)
    assert passes == [True]


# Reference copy of the stepped RK4 node count that the closed-form
# propagator count replaced; its counts and gate decisions must agree.
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


def _seed_node_count(alpha, delta, L, steps_per_unit=128, drift_tol=1e-6):
    # None where the stepped gate refuses the run; a non-finite drift or
    # scale counts as a refusal (the stepped gate itself let it through)
    span = math.log(L / delta)
    nsteps = max(256, int(math.ceil(span * steps_per_unit)))
    count, drift, scale = _seed_rk4_node_count(0.25 - alpha, math.sqrt(delta), span, nsteps)
    if not drift <= drift_tol * scale or not math.isfinite(scale):
        return None
    return count


def _node_count(alpha, delta, L, steps_per_unit=128):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolver, "_STEPS_PER_UNIT", steps_per_unit)
        try:
            return zero_energy_node_count(alpha, delta, L)
        except IntegrationError:
            return None


# perfbench `threshold` windows at seed 0: ln(L/delta) = 8k ln 10
THRESHOLD_WINDOWS = tuple((10.0 ** (-4 * k), 10.0 ** (4 * k)) for k in range(1, 5))


def test_rk4_node_count_bit_identical_to_reference():
    alphas = (-1.0, 0.0, 0.1, 0.2499, 0.25, 0.2501, 0.26, 0.3, 0.5, 1.0, 3.0)
    windows = ((1e-3, 10.0), (1e-2, 1e2), (1e-4, 1e4), (1e-6, 1e6), (1e-8, 1e8), (1e-12, 1e12),
               (1e-16, 1e16))
    counts = set()
    for alpha in alphas:
        for delta, L in windows:
            got = _node_count(alpha, delta, L)
            assert got == _seed_node_count(alpha, delta, L)
            counts.add(got)
    assert len(counts) > 5  # zero and many-node solutions both covered

    # K |theta| / pi evaluates to exactly 1.0 and 3.0 here: u_K = 0 ends the
    # run without a sign change, and the stepped loop agrees
    for alpha, delta, L, want in ((0.36634517718277004, 1e-3, 10.0, 0),
                                  (0.31544416216527055, 1e-8, 1e8, 2)):
        assert _node_count(alpha, delta, L) == _seed_node_count(alpha, delta, L) == want

    # every bisection midpoint: bisection ends right at each window's
    # threshold, where K theta / pi ~ 1
    for delta, L in THRESHOLD_WINDOWS:
        lo, hi = 0.0, 2.0
        while hi - lo > 2.0 * 1e-9:
            mid = 0.5 * (lo + hi)
            want = _seed_node_count(mid, delta, L)
            assert _node_count(mid, delta, L) == want
            if want >= 1:
                hi = mid
            else:
                lo = mid
        assert find_alpha_crit(delta, L, tol_alpha=1e-9).value == 0.5 * (lo + hi)

    # K = 256 steps over ln(L/delta) = 80 for steps_per_unit 1 and 3, so
    # h y = 2 sqrt(2), the edge of RK4's imaginary-axis stability interval,
    # sits at alpha = 1/4 + 8 / h^2; there |R| = 1 and theta < 0.
    h = 80.0 / 256
    edge = 0.25 + 8.0 / (h * h)
    alphas = (0.2, 0.2501, 0.3, 1.0, 4.0, 20.0, 0.999 * edge, edge, 1.001 * edge)
    refused = 0
    for spu in (1, 3, 16, 128):
        for alpha in alphas:
            want = _seed_node_count(alpha, math.exp(-40.0), math.exp(40.0), spu)
            assert _node_count(alpha, math.exp(-40.0), math.exp(40.0), spu) == want
            refused += want is None
    assert _node_count(edge, math.exp(-40.0), math.exp(40.0), 1) == 155
    assert 0 < refused < 4 * len(alphas)


# find_alpha_crit(delta, L, tol_alpha=1e-9) on THRESHOLD_WINDOWS, recorded
# from the stepped RK4 loop: (value, half_width, predicted_threshold)
STEPPED_THRESHOLDS = (
    (0.27908629458397627, 9.313225746154785e-10, 0.27908629429566806),
    (0.2572715738788247, 9.313225746154785e-10, 0.257271573573917),
    (0.253231811337173, 9.313225746154785e-10, 0.2532318104772965),
    (0.2518178941681981, 9.313225746154785e-10, 0.25181789339347926),
)


def test_critical_scan_thresholds_byte_identical():
    for (delta, L), want in zip(THRESHOLD_WINDOWS, STEPPED_THRESHOLDS):
        est = find_alpha_crit(delta, L, tol_alpha=1e-9)
        assert (est.value, est.half_width, est.predicted_threshold) == want


@pytest.mark.parametrize("tol_alpha", [1e-4, 1e-9, 1e-15])
def test_find_alpha_crit_certifies_each_window_in_three_predicate_calls(tol_alpha, monkeypatch):
    # alpha = 2, then the two ends of the final bisection cell that holds the
    # closed-form onset of the RK4 count; the result is the plain bisection's
    calls = []
    count = eigensolver.zero_energy_node_count

    def counted(alpha, delta, L):
        calls.append(alpha)
        return count(alpha, delta, L)

    for delta, L in THRESHOLD_WINDOWS + eigensolver.DEFAULT_WINDOWS:
        def oscillates(a):
            return count(a, delta, L) >= 1

        lo, hi = crit._narrow_bracket(oscillates, 0.0, 2.0, 2.0 * tol_alpha)
        with monkeypatch.context() as mp:
            mp.setattr(eigensolver, "zero_energy_node_count", counted)
            del calls[:]
            est = find_alpha_crit(delta, L, tol_alpha=tol_alpha)
        assert len(calls) <= 3
        assert (est.value, est.half_width) == (0.5 * (lo + hi), 0.5 * (hi - lo))
