#!/usr/bin/env python3
"""Self-tests of the benchmark: the oracles flag perturbed outputs.

    python3 perfbench/selftest.py

Exact outputs pass each workload's oracle; each perturbation (a level off,
a node count swapped, a window off the bias formula, a broken parity check,
a changed status, CSV and JSON disagreeing, an unexpected exit code) is
flagged and counted as a failed invocation.  The tracing tests import the
program from the checkout's src/.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from workloads import CUTOFF_CAPS, WORKLOADS  # noqa: E402
from tracing import Target, Tracer  # noqa: E402


def _csv(columns: list[str], rows: list[tuple]) -> str:
    lines = ["# command=test", ",".join(columns)]
    lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in r) for r in rows]
    return "\n".join(lines) + "\n"


def balmer_output(lam: float = 1.1):
    energies = [-(lam**2) / (2.0 * n * n) * (1.0 - 4e-5) for n in (1, 2, 3)]
    obj = {"energies_hartree": energies, "node_counts": [0, 1, 2]}
    csv_text = _csv(["n", "energy_hartree"], [(i + 1, e) for i, e in enumerate(energies)])
    return {"lam": lam, "states": 3}, obj, csv_text


def threshold_output():
    windows = [(1e-4, 1e4), (1e-8, 1e8), (1e-12, 1e12)]
    hats = [oracles.window_bias(d, L) + 3e-10 for d, L in windows]
    obj = {
        "alpha_crit_numeric": 0.25 + 3e-10, "alpha_crit_half_width": 1.1e-9,
        "p_crit_exact_au": 0.125, "ratio_estimate_to_exact": 16.0,
        "windows": [list(w) for w in windows],
    }
    rows = [(d, L, math.log(L / d), a, 9.3e-10, a) for (d, L), a in zip(windows, hats)]
    csv_text = _csv(["delta", "L", "ln_ratio", "alpha_hat", "half_width",
                     "predicted_threshold"], rows)
    return {"windows": windows}, obj, csv_text


def cutoff_output():
    levels = [-2.8, -4.5, -7.0]
    eps = [0.2, 0.1, 0.05]
    energies = [e * (1.0 + 1e-4) for e in levels]
    obj = {
        "ground_energies_hartree": energies, "monotone_decreasing": True,
        "full_line_check": [eps[0], energies[0], energies[0] * (1.0 + 1e-12)],
    }
    csv_text = _csv(["epsilon", "ground_energy_hartree"], list(zip(eps, energies)))
    return {"lam": 1.0, "epsilons": eps, "unit_lambda_levels": levels}, obj, csv_text


def dipole_output():
    d_list = [1.0, 0.1, 0.01]
    rows = [{"d": d, "critical_p_au": None, "bracket": list(oracles.DIPOLE_BRACKET),
             "conclusive": False, "status": "binds_everywhere"} for d in d_list]
    obj = {"rows": rows, "point_dipole_reference_au": oracles.DIPOLE_P_REF}
    csv_text = _csv(["d", "status"], [(d, "binds_everywhere") for d in d_list])
    return {"d_list": d_list}, obj, csv_text


class OracleTests(unittest.TestCase):
    def assertPasses(self, check, params, obj, csv_text):
        _, problems = check(params, obj, csv_text)
        self.assertEqual(problems, [])

    def assertFlagged(self, check, params, obj, csv_text):
        _, problems = check(params, obj, csv_text)
        self.assertNotEqual(problems, [])

    def test_balmer(self):
        params, obj, csv_text = balmer_output()
        self.assertPasses(oracles.check_balmer, params, obj, csv_text)
        bad = copy.deepcopy(obj)
        bad["energies_hartree"][1] *= 1.001
        self.assertFlagged(oracles.check_balmer, params, bad, csv_text)
        bad = copy.deepcopy(obj)
        bad["node_counts"] = [0, 2, 1]
        self.assertFlagged(oracles.check_balmer, params, bad, csv_text)
        self.assertFlagged(oracles.check_balmer, params, obj,
                           csv_text.replace(repr(obj["energies_hartree"][2]), "-0.05"))

    def test_threshold(self):
        params, obj, csv_text = threshold_output()
        self.assertPasses(oracles.check_threshold, params, obj, csv_text)
        bad = copy.deepcopy(obj)
        bad["alpha_crit_numeric"] = 0.25 + 1e-7
        self.assertFlagged(oracles.check_threshold, params, bad, csv_text)
        hat = repr(oracles.window_bias(1e-8, 1e8) + 3e-10)
        off = repr(oracles.window_bias(1e-8, 1e8) + 1e-6)
        self.assertFlagged(oracles.check_threshold, params, obj, csv_text.replace(hat, off, 1))
        bad = copy.deepcopy(obj)
        bad["ratio_estimate_to_exact"] = 15.0
        self.assertFlagged(oracles.check_threshold, params, bad, csv_text)

    def test_cutoff(self):
        params, obj, csv_text = cutoff_output()
        self.assertPasses(oracles.check_cutoff, params, obj, csv_text)
        bad = copy.deepcopy(obj)
        bad["full_line_check"][2] *= 1.0 + 1e-6
        self.assertFlagged(oracles.check_cutoff, params, bad, csv_text)
        bad = copy.deepcopy(obj)
        bad["ground_energies_hartree"][2] = bad["ground_energies_hartree"][1] * 0.99
        self.assertFlagged(oracles.check_cutoff, params, bad, csv_text)
        bad = copy.deepcopy(obj)
        bad["monotone_decreasing"] = False
        self.assertFlagged(oracles.check_cutoff, params, bad, csv_text)

    def test_dipole_scan(self):
        params, obj, csv_text = dipole_output()
        self.assertPasses(oracles.check_dipole_scan, params, obj, csv_text)
        bad = copy.deepcopy(obj)
        bad["rows"][1]["status"] = "bisected"
        self.assertFlagged(oracles.check_dipole_scan, params, bad, csv_text)
        bad = copy.deepcopy(obj)
        bad["point_dipole_reference_au"] += 0.01
        self.assertFlagged(oracles.check_dipole_scan, params, bad, csv_text)
        self.assertFlagged(oracles.check_dipole_scan, params, obj,
                           csv_text.replace("binds_everywhere", "no_binding", 1))

    def test_threshold_headline_counts_whole_half_widths(self):
        params, obj, csv_text = threshold_output()
        accuracy, _ = oracles.check_threshold(params, obj, csv_text)
        self.assertEqual(accuracy["alpha_crit_err_bound"], 1.1e-9)
        worse = copy.deepcopy(obj)
        worse["alpha_crit_numeric"] = 0.25 + 1.5e-9
        accuracy, problems = oracles.check_threshold(params, worse, csv_text)
        self.assertEqual(problems, [])
        self.assertEqual(accuracy["alpha_crit_err_bound"], 2.2e-9)


def capped_coulomb_ground_state(eps: float) -> float:
    """Continuum even ground state of -psi''/2 - psi/max(|x|, eps) = E psi.

    Inside the cap the even solution is cos(k x) with k^2 = 2(E + 1/eps);
    outside it is the decaying Whittaker function W_{nu,1/2}(2 x / nu) with
    E = -1/(2 nu^2).  Matching log-derivatives at x = eps gives E.  The far
    Dirichlet wall of the discrete problem (x = 10) shifts E by about
    exp(-20 / nu) < 1e-17, so it is left out.  The coupling is 1.
    """
    import mpmath as mp

    def mismatch(kap):
        k = mp.sqrt(2 / eps_mp - kap**2)
        nu = 1 / kap
        z = 2 * kap * eps_mp
        w = mp.whitw(nu, 0.5, z)
        dw_dz = ((z / 2 - nu) * w - mp.whitw(nu + 1, 0.5, z)) / z
        return -k * mp.tan(k * eps_mp) - 2 * kap * dw_dz / w

    with mp.workdps(20):
        eps_mp = mp.mpf(eps)
        # Scan down from the bottom of the well to the first sign change:
        # that is the deepest level.  For kappa > 1 (nu < 1) W has no positive
        # zeros, so the mismatch is continuous over the scan.
        hi = mp.sqrt(2 / eps_mp) * mp.mpf("0.999")
        f_hi = mismatch(hi)
        while True:
            lo = hi * mp.mpf("0.97")
            if lo <= 1:
                raise ValueError(f"no ground state found for eps = {eps!r}")
            f_lo = mismatch(lo)
            if f_lo * f_hi <= 0:
                break
            hi, f_hi = lo, f_lo
        kap = mp.findroot(mismatch, (lo, hi), solver="anderson")
        return float(-(kap**2) / 2)


@unittest.skipUnless(importlib.util.find_spec("mpmath"), "mpmath is not installed")
class ContinuumLevelTests(unittest.TestCase):
    def test_constants_match_the_whittaker_matching(self):
        self.assertEqual(sorted(oracles.CAPPED_COULOMB_LEVELS), sorted(CUTOFF_CAPS))
        for eps, level in oracles.CAPPED_COULOMB_LEVELS.items():
            self.assertAlmostEqual(capped_coulomb_ground_state(eps) / level, 1.0, delta=1e-14)

    def test_grid_level_converges_to_the_continuum(self):
        # the continuum level against the grid value at h = 1/320 (the CLI
        # default grid), whose O(h^2) error at the largest cap is 1.5e-5
        e = oracles.CAPPED_COULOMB_LEVELS[0.2]
        self.assertLess(abs(e - -2.8094105769361093) / 2.8094, 5e-5)


class FakeCli:
    """Stands in for dipole1d.cli: writes fixed outputs, returns a fixed code."""

    def __init__(self, obj: dict, csv_text: str, code: int):
        self.obj, self.csv_text, self.code = obj, csv_text, code

    def run(self, argv):
        out = Path(argv[argv.index("--out") + 1])
        out.with_suffix(".json").write_text(json.dumps(self.obj), encoding="utf-8")
        out.with_suffix(".csv").write_text(self.csv_text, encoding="utf-8")
        return self.code


class ClientTests(unittest.TestCase):
    def _client(self, obj, csv_text, code, params):
        case = workloads.Case(["hydrogen"], 0, params)
        return bench.Client(FakeCli(obj, csv_text, code), WORKLOADS["balmer"],
                            case, Path(self.tmp.name), bench.Timer())

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def test_failures_feed_fail_ratio(self):
        params, obj, csv_text = balmer_output()
        good = self._client(obj, csv_text, 0, params)
        good.invoke()
        self.assertEqual((good.attempted, good.failed), (1, 0))
        bad_obj = copy.deepcopy(obj)
        bad_obj["energies_hartree"][0] *= 1.01
        for client in (self._client(bad_obj, csv_text, 0, params),
                       self._client(obj, csv_text, 2, params),
                       self._client({}, csv_text, 0, params)):
            client.invoke()
            self.assertEqual((client.attempted, client.failed), (1, 1), client.problems)


class WorkloadTests(unittest.TestCase):
    def test_seeds(self):
        for name in ("balmer", "dipole-scan", "threshold"):
            make = WORKLOADS[name].make
            self.assertEqual(make(7).argv, make(7).argv)
            self.assertNotEqual(make(7).argv, make(8).argv)
        self.assertEqual(WORKLOADS["dipole-scan"].make(0).argv[2], "1.0,0.5,0.2,0.1,0.05")

    def test_seeded_inputs_keep_the_exact_answer(self):
        for seed in range(1, 30):
            lam = WORKLOADS["balmer"].make(seed).params["lam"]
            self.assertTrue(0.8 <= lam <= 1.25)
            d_list = WORKLOADS["dipole-scan"].make(seed).params["d_list"]
            self.assertTrue(all(0.004 <= d <= 1.0 for d in d_list))
            self.assertEqual(len(set(d_list)), 5)
            base = WORKLOADS["threshold"].make(0).params["windows"]
            windows = WORKLOADS["threshold"].make(seed).params["windows"]
            for (d, L), (d0, L0) in zip(windows, base):
                self.assertAlmostEqual(math.log(L / d), math.log(L0 / d0), delta=1e-12)


class TracingTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = bench.load_cli()

    def test_wraps_every_alias_and_restores(self):
        import numpy as np
        tridiag = sys.modules["dipole1d.tridiag"]
        original = tridiag.sturm_count
        tracer = Tracer((Target("tridiag.sturm_count", "tridiag", "sturm_count",
                                lambda a, k: float(len(a[0]))),
                         Target("tridiag.gone", "tridiag", "no_such_function",
                                lambda a, k: 0.0)))
        with tracer:
            self.assertIsNot(self.cli.sturm_count, original)
            self.assertEqual(self.cli.sturm_count(np.array([1.0, 2.0, 3.0]),
                                                  np.array([-0.1, -0.1]), 2.5), 2)
        self.assertIs(self.cli.sturm_count, original)
        self.assertIs(tridiag.sturm_count, original)
        totals = tracer.totals()
        self.assertEqual(totals["tridiag.sturm_count"].calls, 1)
        self.assertEqual(totals["tridiag.sturm_count"].work, 3.0)
        self.assertEqual(tracer.absent, ["tridiag.gone"])

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        with tempfile.TemporaryDirectory() as tmp, tracer:
            self.cli.run(["spectrum", "--alpha", "1", "--domain", "0.01:10", "--n", "200",
                          "--states", "1", "--format", "json", "--out", f"{tmp}/out.json"])
        totals = tracer.totals()
        run = totals["cli.run"]
        self.assertEqual(run.calls, 1)
        self.assertEqual(totals["tridiag.eigvalsh_bisect"].calls, 1)
        self.assertLess(run.self_s, run.s)
        self.assertGreaterEqual(run.self_s, 0.0)


if __name__ == "__main__":
    unittest.main()
