"""Acceptance gate: one test per shipped claim, each printing a verdict line.

Run with ``pytest -sv tests/test_acceptance.py`` to see the per-criterion
lines as they pass.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dipole1d.cli import run
from dipole1d.critical import (
    critical_report,
    estimate_to_exact_ratio,
    p_crit_exact,
    p_crit_numeric,
)
from dipole1d.eigensolver import (
    DEFAULT_HYDROGEN_GRID,
    Grid,
    cutoff_sweep,
    discretize,
    hydrogen_spectrum,
    lowest_eigenvalues,
    zero_energy_node_count,
)
from dipole1d.frobenius import (
    eval_series,
    indicial_roots,
    ode_residual,
    recursion_residuals,
    series_coefficients,
)
from dipole1d.potentials import InverseSquare
from dipole1d.tridiag import eigvalsh_bisect
from dipole1d.units import CODATA, atomic_to_si


@contextmanager
def criterion(num, claim):
    try:
        yield
    except BaseException:
        print(f"criterion {num} FAIL: {claim}", flush=True)
        raise
    print(f"criterion {num} PASS: {claim}", flush=True)


def test_criterion_1_balmer_reproduction(tmp_path):
    with criterion(1, "hydrogen levels match the Balmer form at default grid, < 10 s"):
        out = tmp_path / "h.json"
        t0 = time.perf_counter()
        code = run(["hydrogen", "--lambda", "1", "--states", "3",
                    "--format", "json", "--out", str(out)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        doc = json.loads(out.read_text())
        rel = doc["relative_errors"]
        assert rel[0] <= 0.005
        assert rel[1] <= 0.01
        assert rel[2] <= 0.01
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_2_finite_ground_state():
    with criterion(2, "E1 refinement estimates shrink and extrapolate to -1/2 (0.2%)"):
        r = hydrogen_spectrum(1.0, 1, refine_levels=3)
        est = r.estimates_by_level[:, 0]
        assert np.all(np.diff(est) < 0.0), f"estimates {est}"
        assert abs(r.extrapolated[0] - (-0.5)) <= 0.002 * 0.5


# ground-state energies at the pinned default sweep grid (L = 60, n = 19200),
# recorded from the first run of this deterministic configuration
_CUTOFF_GOLDEN = {
    0.2: -2.8094105769361093,
    0.1: -4.549353706000364,
    0.05: -7.0572279903969655,
    0.025: -10.504890738233192,
    0.0125: -15.062607083447398,
}


def test_criterion_3_cutoff_divergence():
    with criterion(3, "capped-Coulomb E0 falls strictly as the cap shrinks, < 60 s"):
        t0 = time.perf_counter()
        r = cutoff_sweep(1.0, (0.2, 0.1, 0.05, 0.025, 0.0125), L=60.0)
        elapsed = time.perf_counter() - t0
        assert r.monotone_decreasing
        assert r.energies[-1] < 2.0 * r.energies[0]
        for eps, e in zip(r.epsilons, r.energies):
            assert e == pytest.approx(_CUTOFF_GOLDEN[eps], rel=1e-6)
        eps0, even, full = r.full_line_check
        assert even == pytest.approx(full, abs=1e-7)
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_4_critical_coupling():
    with criterion(4, "oscillation counts exact on 50 random windows; threshold 0.250(10)"):
        rng = np.random.default_rng(20260810)
        for _ in range(50):
            alpha = float(rng.uniform(0.26, 4.0))
            delta = 10.0 ** float(rng.uniform(-12, -4))
            L = 10.0 ** float(rng.uniform(2, 10))
            want = int(math.floor(math.sqrt(alpha - 0.25) * math.log(L / delta) / math.pi))
            got = zero_energy_node_count(alpha, delta, L)
            assert got == want, (alpha, delta, L, got, want)
        num = p_crit_numeric()
        assert abs(num.alpha_intercept - 0.25) <= 0.01


def test_criterion_5_headline_number():
    with criterion(5, "p_crit: SI within 1%, numeric within 5%, ratio exactly 16"):
        assert abs(p_crit_exact(CODATA) - 1.052e-30) / 1.052e-30 <= 0.01
        num = p_crit_numeric()
        p_si = atomic_to_si(CODATA, "dipole_moment", num.p_au)
        assert abs(p_si - 1.052e-30) / 1.052e-30 <= 0.05
        assert estimate_to_exact_ratio() == 16.0


def test_criterion_6_frobenius_suite():
    with criterion(6, "series identities: odd zeros, exact recursion, tiny defects"):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            alpha = float(rng.uniform(-5.0, 5.0))
            pair = indicial_roots(alpha)
            assert abs(pair.nu_plus + pair.nu_minus - 1.0) <= 1e-12
            assert abs(pair.nu_plus * pair.nu_minus - alpha) <= 1e-12 * max(1.0, abs(alpha))
        s = series_coefficients(3.0 / 16.0, 1.0, 0.75, N=30)
        assert np.all(s.a[1::2] == 0.0)
        assert np.all(recursion_residuals(s) == 0.0)
        for y in np.linspace(0.01, 0.5, 50):
            assert ode_residual(s, float(y)) < 1e-8

        from scipy.integrate import solve_ivp

        a = s.a.real
        j = np.arange(a.shape[0])
        y0 = 0.01
        psi0 = float(np.sum(a * y0 ** (j + 0.75)))
        dpsi0 = float(np.sum(a * (j + 0.75) * y0 ** (j + 0.75 - 1)))
        ys = np.linspace(0.01, 0.5, 50)
        ivp = solve_ivp(
            lambda y, st: [st[1], (1.0 - (3.0 / 16.0) / y**2) * st[0]],
            (ys[0], ys[-1]), [psi0, dpsi0], t_eval=ys,
            rtol=1e-12, atol=1e-14, method="DOP853",
        )
        series_vals = np.array([eval_series(s, float(y)).real for y in ys])
        assert np.max(np.abs(series_vals - ivp.y[0]) / np.abs(series_vals)) < 1e-6


def test_criterion_7_subcritical_absence():
    with criterion(7, "alpha = 0.20: no oscillation and no bound level below -1e-8"):
        assert zero_energy_node_count(0.2, 1e-8, 1e8) == 0
        grid = Grid("logarithmic", 1e-8, 1e8, DEFAULT_HYDROGEN_GRID.n)
        sp = lowest_eigenvalues(discretize(InverseSquare(0.2), grid), 3)
        assert np.all(sp.energies >= -1e-8), sp.energies


def test_criterion_8_oracle_equivalence():
    with criterion(8, "Sturm bisection agrees with dense eigensolver to 1e-9"):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(5, 51))
            diag = rng.uniform(-3, 3, size=n)
            off = rng.uniform(-2, 2, size=n - 1)
            dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            ref = np.sort(np.linalg.eigvalsh(dense))
            vals, _ = eigvalsh_bisect(diag, off, n)
            assert np.max(np.abs(vals - ref)) <= 1e-9


_DETERMINISM_CASES = (
    ["convert", "--pcrit-si"],
    ["series", "--alpha", "2.0", "--xi", "0.5", "--nterms", "12"],
    ["spectrum", "--lambda", "1", "--grid", "log", "--domain", "1e-5:200",
     "--n", "1024", "--states", "2"],
    ["hydrogen", "--n", "1024", "--refine-levels", "1", "--format", "both"],
    ["cutoff-sweep", "--epsilon", "0.2,0.1", "--domain", "0:20", "--format", "both"],
    ["critical-scan", "--windows", "1e-5:1e5,1e-6:1e6,1e-7:1e7", "--format", "json"],
    ["dipole-limit", "--d", "0.5", "--epsilon", "4e-3", "--domain", "-10:10"],
)


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical configurations produce byte-identical data files"):
        for argv in _DETERMINISM_CASES:
            paths = []
            for tag in ("a", "b"):
                out = tmp_path / f"{'_'.join(argv[:1])}_{tag}"
                code = run(argv + ["--out", str(out)])
                assert code in (0, 3)
                produced = sorted(out.parent.glob(out.name + "*"))
                assert produced
                paths.append([p.read_bytes() for p in produced])
            assert paths[0] == paths[1], f"run bytes differ for {argv}"
