import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import dipole1d.cli as cli
import dipole1d.eigensolver as eigensolver
from dipole1d.cli import run
from dipole1d.eigensolver import ConvergenceError
from dipole1d.potentials import PotentialSpec
from dipole1d.units import ATOMIC_UNIT_SI


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _csv_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:]]


def test_convert_pcrit(tmp_path, capsys):
    assert run(["convert", "--pcrit-si"]) == 0
    out = capsys.readouterr().out
    header, rows = _csv_rows(out)
    values = {r[0]: r for r in rows}
    p = float(values["p_crit_exact"][2])
    assert abs(p - 1.052e-30) / 1.052e-30 < 1e-2
    assert float(values["estimate_to_exact_ratio"][1]) == 16.0


def test_convert_si_suffix(capsys):
    assert run(["convert", "--p", "1.052e-30si"]) == 0
    out = capsys.readouterr().out
    header, rows = _csv_rows(out)
    values = {r[0]: r for r in rows}
    alpha = float(values["alpha"][1])
    assert alpha == pytest.approx(0.25, rel=1e-2)


def test_convert_requires_input(capsys):
    assert run(["convert"]) == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["nan", "-inf", "inf"])
def test_convert_refuses_a_non_finite_alpha(alpha, capsys):
    # nan and -inf used to print an alpha row and exit 0; inf blamed the
    # dipole moment it maps to
    assert run(["convert", "--alpha", alpha]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: code=invalid alpha must be finite, got {alpha}\n"


def test_spectrum_inverse_square_without_a_domain_names_the_grid_and_the_fix(capsys):
    # the default spectrum grid is the uniform -30:30, which reaches y < 0
    assert run(["spectrum", "--alpha", "1.25"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: code=usage inverse-square problems are posed on y > 0")
    assert "x_min = -30;" in captured.err
    assert "--grid log --domain A:B with 0 < A" in captured.err
    # an explicit domain on y < 0 is refused by the library, which names it
    assert run(["spectrum", "--alpha", "1.25", "--domain", "-5:5"]) == 1
    assert "but the grid starts at x_min = -5.0" in capsys.readouterr().err


def test_spectrum_matches_library(tmp_path):
    out = tmp_path / "box.csv"
    code = run(["spectrum", "--lambda", "0.0", "--domain", "0:3.141592653589793",
                "--grid", "uniform", "--n", "64", "--states", "3",
                "--out", str(out)])
    assert code == 0
    header, rows = _csv_rows(out.read_text())
    assert header[:3] == ["index", "energy_hartree", "node_count"]
    from dipole1d.eigensolver import Grid, discretize, lowest_eigenvalues
    from dipole1d.potentials import Coulomb

    sp = lowest_eigenvalues(
        discretize(Coulomb(0.0), Grid("uniform", 0.0, math.pi, 64)), 3
    )
    for j, row in enumerate(rows):
        assert float(row[1]) == sp.energies[j]
        assert int(row[2]) == sp.node_counts[j]


@pytest.mark.parametrize("x_min", ["1e-30", "1e-60"])
def test_spectrum_bisection_runs_to_its_tolerance(x_min, capsys):
    # a log grid reaching down to x_min spans a Gershgorin interval of about
    # x_min^-2 hartree; however many halvings that takes, every level is
    # bisected to the 1e-10 tolerance and its bracket holds it
    assert run(["spectrum", "--lambda", "1", "--grid", "log", "--domain", f"{x_min}:1",
                "--n", "256", "--states", "2"]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    from dipole1d.eigensolver import Grid, discretize
    from dipole1d.potentials import Coulomb
    from dipole1d.tridiag import sturm_count

    H = discretize(Coulomb(1.0), Grid("logarithmic", float(x_min), 1.0, 256))
    assert len(rows) == 2
    for j, row in enumerate(rows):
        value, width = float(row[1]), float(row[3])
        assert width <= 1e-10
        assert sturm_count(H.diagonal, H.offdiagonal, value - width / 2) <= j
        assert sturm_count(H.diagonal, H.offdiagonal, value + width / 2) >= j + 1


def test_spectrum_negative_domain_token():
    assert run(["spectrum", "--p", "1", "--domain", "-20:0",
                "--n", "512", "--states", "1", "--out", "/dev/null"]) == 0


def test_spectrum_requires_potential(capsys):
    assert run(["spectrum", "--domain", "0:1", "--n", "64"]) == 1
    assert "no potential" in capsys.readouterr().err


@pytest.mark.parametrize("family", typing.get_args(PotentialSpec), ids=lambda f: f.KIND)
def test_every_potential_key_is_reachable_from_spectrum(family, capsys):
    # each record key is a spectrum flag --KEY with a declared dimension, and
    # giving exactly a family's flags solves that family
    keys = [key for key, _ in family.RECORD]
    for key in keys:
        _, dimension = cli._POTENTIAL_FLAGS[key]
        assert dimension == "dimensionless" or dimension in ATOMIC_UNIT_SI
    argv = ["spectrum", "--domain", "0.01:10", "--n", "200", "--states", "1"]
    for key in keys:
        argv += [f"--{key}", "0.5"]
    assert run(argv) == 0
    assert f"# kind={family.KIND}\n" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [
    ["--lambda", "1", "--p", "1"],
    ["--p", "1", "--epsilon", "0.1"],
    ["--p", "1", "--alpha", "0.5"],
    ["--Q", "2", "--d", "0.5"],
    ["--epsilon", "0.1"],
])
def test_flags_matching_no_family_exit_1(flags, capsys):
    # no flag is dropped: a flag set that is not exactly one family's is refused
    assert run(["spectrum", *flags, "--domain", "-20:0", "--n", "512", "--states", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: code=usage no potential family takes exactly")


@pytest.mark.parametrize("flags", [
    ["--alpha", "1si"],
    ["--Q", "2si", "--d", "0.5", "--epsilon", "0.1"],
])
def test_si_suffix_on_a_dimensionless_flag_is_a_usage_error(flags, capsys):
    assert run(["spectrum", *flags, "--domain", "0.01:10", "--n", "200"]) == 1
    assert capsys.readouterr().err == (
        "error: code=usage an 'si' suffix makes no sense for a dimensionless value\n")


def test_hydrogen_json(tmp_path):
    out = tmp_path / "h.json"
    code = run(["hydrogen", "--n", "1024", "--refine-levels", "1",
                "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "hydrogen"
    assert doc["balmer_hartree"] == pytest.approx([-0.5, -0.125, -1 / 18])
    assert max(doc["relative_errors"]) < 1e-2
    assert doc["node_counts"] == [0, 1, 2]


def test_series_tables(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["series", "--alpha", "0.1875", "--xi", "1", "--nterms", "6",
                "--out", str(out)]) == 0
    text = out.read_text()
    assert "# table=coefficients" in text
    assert "# table=residuals" in text
    coeff_section = text.split("# table=coefficients")[1].split("# table=residuals")[0]
    rows = [l.split(",") for l in coeff_section.strip().splitlines()[1:]]
    assert float(rows[2][1]) == pytest.approx(0.2, rel=1e-15)
    assert all(float(r[1]) == 0.0 for r in rows[1::2])  # odd coefficients


def test_series_requires_alpha(capsys):
    assert run(["series"]) == 1


def test_critical_scan_json(tmp_path):
    out = tmp_path / "c.json"
    code = run(["critical-scan", "--windows", "1e-5:1e5,1e-6:1e6,1e-7:1e7",
                "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["alpha_crit_numeric"] == pytest.approx(0.25, abs=1e-3)
    assert doc["ratio_estimate_to_exact"] == 16.0
    assert doc["p_crit_exact_au"] == 0.125


def test_cutoff_sweep_csv(tmp_path):
    out = tmp_path / "cut.csv"
    code = run(["cutoff-sweep", "--epsilon", "0.2,0.1", "--domain", "0:20",
                "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "# monotone_decreasing=true" in text
    header, rows = _csv_rows(text)
    energies = [float(r[1]) for r in rows]
    assert energies[1] < energies[0] < -0.5


def test_dipole_limit_inconclusive_exit(tmp_path):
    out = tmp_path / "dl.csv"
    code = run(["dipole-limit", "--d", "0.1", "--epsilon", "4e-3",
                "--domain", "-15:15", "--out", str(out)])
    assert code == 3
    assert "binds_everywhere" in out.read_text()


def test_const_override_changes_output(capsys):
    assert run(["convert", "--pcrit-si"]) == 0
    base = capsys.readouterr().out
    assert run(["convert", "--pcrit-si", "--const", "hbar=2.1e-34"]) == 0
    changed = capsys.readouterr().out
    assert base != changed
    base_val = float(_csv_rows(base)[1][0][2])
    new_val = float(_csv_rows(changed)[1][0][2])
    assert new_val != base_val


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind=coulomb\nlambda=1.0\nepsilon0=8.8e-12\n")
    out = tmp_path / "spec.csv"
    code = run(["spectrum", "--config", str(cfg), "--grid", "log",
                "--domain", "1e-5:200", "--n", "1024", "--states", "1",
                "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "kind=coulomb" in text
    assert "CODATA 2022 with overrides" in text


def test_unknown_constant_rejected(capsys):
    assert run(["convert", "--pcrit-si", "--const", "planck=1"]) == 1


def test_unknown_config_key_rejected(tmp_path, capsys):
    # a key that is neither a constant nor part of a potential record is a
    # typo, not a setting to drop
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind=physical_dipole\nQ=2\nd=0.5\nepsilon=0.01\nfoo=3\n")
    assert run(["spectrum", "--config", str(cfg), "--n", "401", "--domain", "-5:5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: code=usage unknown config key 'foo'")


def test_malformed_number(capsys):
    assert run(["spectrum", "--p", "abc", "--domain", "-5:0", "--n", "64"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: code=")
    assert "\n" not in err.strip()


def test_unknown_flag(capsys):
    assert run(["hydrogen", "--frobnicate", "3"]) == 1


def test_dipole_limit_has_no_Q_flag(capsys):
    assert run(["dipole-limit", "--Q", "2"]) == 1
    assert "code=usage" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    # a NaN used to be refused as "epsilon must be > 0" or "d must be > 0"
    (["--epsilon", "nan"], "epsilon must be finite and > 0"),
    (["--d", "nan"], "every separation d must be finite and > 0"),
    (["--d", "1,nan"], "every separation d must be finite and > 0"),
    (["--d", "1,inf"], "every separation d must be finite and > 0"),
    (["--epsilon", "inf"], "epsilon must be finite and > 0"),
    (["--epsilon", "0"], "epsilon must be finite and > 0"),
])
def test_dipole_limit_names_a_value_that_is_not_finite(args, message, capsys):
    assert run(["dipole-limit", *args, "--n", "301"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: code=invalid {message}\n"


def test_critical_scan_overflowing_window_is_invalid(capsys):
    assert run(["critical-scan", "--windows", "1e-8:1e8,1e-320:1e10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: code=invalid")
    assert "\n" not in err.strip()


@pytest.mark.parametrize("windows, message", [
    # both L/delta overflow to inf, which used to read as ln(L/delta) not increasing
    ("1e-300:1e300,1e-301:1e301", "log(L/delta) is not finite for delta = 1e-300, L = 1e+300"),
    # delta = 0 used to escape run() as a ZeroDivisionError
    ("0:1e8,1e-8:1e8", "need 0 < delta < L, both finite"),
])
def test_critical_scan_refuses_a_window_whose_span_is_not_finite(windows, message, capsys):
    assert run(["critical-scan", "--windows", windows]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: code=invalid {message}\n"


def test_critical_scan_window_too_short_to_oscillate_is_a_bracket_error(capsys):
    # ln(L/delta) = ln 2 and ln 3 put the window thresholds far above alpha = 2
    assert run(["critical-scan", "--windows", "1:2,1:3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: code=bracket ")


def test_critical_scan_tolerance_below_float_spacing(capsys):
    assert run(["critical-scan", "--tol-alpha", "1e-17"]) == 0


def test_critical_scan_infinite_tolerance_is_invalid(capsys):
    assert run(["critical-scan", "--tol-alpha", "inf"]) == 1
    assert capsys.readouterr().err.startswith("error: code=invalid tol_alpha")


def test_selftest_subcommand_is_gone(capsys):
    # its checks live in tier-1 (tests/test_acceptance.py and the unit tests)
    assert run(["selftest"]) == 1
    assert "code=usage" in capsys.readouterr().err


def test_hydrogen_overflowing_lambda_is_invalid(monkeypatch, capsys):
    # lam^2 overflows, so the Balmer levels cannot be formed: refused up front
    def no_solve(*args, **kwargs):
        raise AssertionError("no solve expected")

    monkeypatch.setattr(eigensolver, "discretize", no_solve)
    assert run(["hydrogen", "--lambda", "1e200", "--n", "64", "--refine-levels", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: code=invalid lam^2 must be finite")
    assert "\n" not in err.strip()


def test_grid_alignment_error_prints_a_plain_float(capsys):
    assert run(["spectrum", "--lambda", "1", "--n", "64"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: code=invalid interior pinned zero at x = 0.0 is not on a "
                   "grid node (nearest node -0.4615384615384599)\n")


def _scipy_after(runs):
    # exit codes, and the scipy modules a fresh interpreter has loaded after
    # importing dipole1d.cli and calling run on each argv
    code = ("import sys\nfrom dipole1d.cli import run\n"
            f"codes = [run(argv) for argv in {runs!r}]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    return proc.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported lazily by the inverse iteration of hydrogen's seeds;
    # the CLI's start-up time (perfbench's setup_s) must not pay for it
    assert _scipy_after([]) == "[] []"


def test_vectorless_pipelines_leave_scipy_unloaded():
    # cutoff-sweep (whose full-line check passes guesses), dipole-limit,
    # critical-scan and spectrum (whose node counts come from Sturm counts,
    # a decoupled operator's too) need no eigenvectors, so no seed or solve
    # may import scipy
    runs = [["cutoff-sweep", "--epsilon", "0.2,0.1", "--domain", "0:20"],
            ["dipole-limit", "--d", "1.0,0.5", "--n", "601"],
            ["critical-scan", "--windows", "1e-5:1e5,1e-6:1e6"],
            ["spectrum", "--p", "1", "--domain", "-20:0", "--n", "64"],
            ["spectrum", "--lambda", "1", "--n", "65"]]
    assert _scipy_after(runs) == "[0, 3, 0, 0, 0] []"
    # the check can see the import: hydrogen's Rayleigh seeds do load it
    assert _scipy_after([["hydrogen", "--n", "64"]]) != "[0] []"


def test_hydrogen_default_grid_is_read_in_bohr_radii(capsys):
    # without --domain the default geometry is scaled by 1/lam, the domain
    # the benchmark's seeds pass explicitly
    lam = 1.1
    assert run(["hydrogen", "--lambda", repr(lam), "--n", "384"]) == 0
    scaled = capsys.readouterr().out
    assert run(["hydrogen", "--lambda", repr(lam), "--n", "384",
                "--domain", f"{1e-5 / lam!r}:{200.0 / lam!r}"]) == 0
    assert capsys.readouterr().out == scaled


def test_hydrogen_large_lambda_matches_balmer(tmp_path):
    out = tmp_path / "h"
    assert run(["hydrogen", "--lambda", "1e3", "--n", "1024", "--refine-levels", "1",
                "--format", "both", "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "h.json").read_text())
    assert doc["config"]["x_min"] == "1e-08"
    balmer = -1e6 / (2.0 * np.arange(1, 4) ** 2)
    assert doc["balmer_hartree"] == pytest.approx(balmer.tolist(), rel=1e-15)
    assert np.all(np.abs(np.array(doc["energies_hartree"]) - balmer) < 1e-4 * np.abs(balmer))


@pytest.mark.parametrize("argv, message", [
    # lam = 1e3 on the lam = 1 geometry: the wall shifts E1 by 4e-2 relative
    (["hydrogen", "--lambda", "1e3", "--domain", "1e-5:200", "--n", "64"], "inner wall"),
    # the lam = 1e154 default grid starts at x = 1e-159, where the entries overflow
    (["hydrogen", "--lambda", "1e154", "--n", "64", "--refine-levels", "1"], "must be finite"),
    # level 3 turns at x = 18 and needs 2n^2 + 6n = 36 Bohr radii
    (["hydrogen", "--domain", "1e-5:10", "--n", "1024", "--refine-levels", "1"], "outer wall"),
    # the default x_max = 200 holds at most 8 levels: 2n^2 + 6n = 216 for n = 9
    (["hydrogen", "--states", "9", "--n", "64"], "outer wall"),
    # 2n^2 + 6n is compared as an exact int, so no n_states overflows it
    (["hydrogen", "--states", str(10**400), "--n", "64"], "outer wall"),
])
def test_hydrogen_unresolved_grids_fail_closed(argv, message, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: code=invalid ")
    assert message in captured.err


@pytest.mark.parametrize("argv, message", [
    (["cutoff-sweep", "--domain", "0:inf"], "L must be finite"),
    (["dipole-limit", "--domain", "-inf:30"], "domain ends must be finite"),
    # finite ends whose default node count overflows
    (["cutoff-sweep", "--domain", "0:1e308"], "node count"),
    (["dipole-limit", "--domain", "-1e308:1e308"], "node count"),
    # finite ends so close that the grid spacing h has h^2 == 0
    (["dipole-limit", "--domain", "-1e-160:1e-160", "--n", "3001"], "grid spacing h = "),
    (["spectrum", "--Q", "1", "--d", "0.5", "--epsilon", "0.1",
      "--domain", "-1e-160:1e-160", "--n", "3001"], "grid spacing h = "),
    # finite ends so far apart that h^2 overflows
    (["cutoff-sweep", "--domain", "0:1e300", "--epsilon", "1e299", "--n", "100"],
     "h^2 overflows"),
    (["spectrum", "--p", "1", "--domain", "-1e300:1e300", "--n", "101"], "h^2 overflows"),
    (["dipole-limit", "--domain", "-1e300:1e300", "--n", "101"], "h^2 overflows"),
])
def test_non_finite_domains_are_invalid(argv, message, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: code=invalid ")
    assert message in captured.err
    assert "\n" not in captured.err.strip()


@pytest.mark.parametrize("argv, err", [
    (["dipole-limit", "--d="], "code=invalid d_list must not be empty"),
    (["spectrum", "--p", "1", "--domain="], "code=usage --domain needs a:b, got ''"),
    (["hydrogen", "--domain="], "code=usage --domain needs a:b, got ''"),
    (["cutoff-sweep", "--domain="], "code=usage --domain needs a:b, got ''"),
    (["dipole-limit", "--domain="], "code=usage --domain needs a:b, got ''"),
    (["critical-scan", "--windows="], "code=usage --windows is empty"),
    (["convert", "--pcrit-si", "--config="], "code=usage --config is empty"),
    (["series", "--alpha", "0.3", "--ys="], "code=usage --ys has an empty entry, got ''"),
    (["series", "--alpha", "0.3", "--ys", "0.1,,0.2"],
     "code=usage --ys has an empty entry, got '0.1,,0.2'"),
    # an empty entry inside a list used to be dropped, and the run went on
    (["cutoff-sweep", "--epsilon", "0.2,,0.1"],
     "code=usage --epsilon has an empty entry, got '0.2,,0.1'"),
    (["cutoff-sweep", "--epsilon", "0.2, "],
     "code=usage --epsilon has an empty entry, got '0.2, '"),
    (["dipole-limit", "--d", "1,,0.5"], "code=usage --d has an empty entry, got '1,,0.5'"),
    (["critical-scan", "--windows", "1e-4:1e4,,1e-8:1e8"],
     "code=usage --windows has an empty entry, got '1e-4:1e4,,1e-8:1e8'"),
    # n = 0 used to end in ZeroDivisionError
    (["cutoff-sweep", "--n", "0"], "code=invalid grid needs at least 16 points"),
])
def test_an_empty_flag_value_is_refused_not_read_as_absent(argv, err, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_perfbench_traced_names_exist(monkeypatch, capsys):
    # perfbench records a traced function that a rename removed as absent,
    # and its per-layer metrics then read 0 without failing anything
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    case = workloads.WORKLOADS["dipole-scan"].make(workloads.DEFAULT_SEED)
    with tracing.Tracer() as tracer:
        code = run(case.argv)
    capsys.readouterr()
    assert tracer.absent == []
    assert code == case.expected_exit
    assert tracer.totals()["critical.predicate"].calls == 7


def test_perfbench_selftest_passes():
    # the benchmark's tracer wraps names the CLI module imports (its alias test
    # wraps dipole1d.cli.sturm_count), so a CLI import change can break it
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_convergence_maps_to_exit_2(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise ConvergenceError("fabricated stall", diagnostics=None)

    monkeypatch.setattr(cli, "hydrogen_spectrum", boom)
    assert run(["hydrogen", "--n", "64"]) == 2
    assert "code=convergence" in capsys.readouterr().err


def test_a_node_count_numpy_refuses_exits_1_naming_it(capsys):
    # 4 L / epsilon = 2.4e302 nodes: numpy refuses the count before allocating
    assert run(["cutoff-sweep", "--epsilon", "1e-300"]) == 1
    n = math.ceil(4.0 * 60.0 / 1e-300)
    assert capsys.readouterr().err == (
        f"error: code=invalid a grid of n = {n} nodes is too large to allocate\n")


def test_a_node_count_that_cannot_be_allocated_exits_1_naming_it(monkeypatch, capsys):
    # a grid of 10^12 nodes would need 8 TB: the allocation fails, simulated
    # here so that no test asks the machine for it
    arange = np.arange

    def refusing(*args, **kwargs):
        if len(args) == 2 and args[1] - args[0] > 10**9:
            raise MemoryError("Unable to allocate 7.28 TiB for an array")
        return arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", refusing)
    assert run(["cutoff-sweep", "--epsilon", "0.2", "--n", "1000000000000"]) == 1
    assert capsys.readouterr().err == (
        "error: code=invalid a grid of n = 1000000000000 nodes is too large to allocate\n")


def test_memory_error_maps_to_exit_1(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(1000000000000,) and data type float64")

    monkeypatch.setattr(cli, "cutoff_sweep", boom)
    assert run(["cutoff-sweep", "--epsilon", "0.2", "--n", "1000000000000"]) == 1
    assert capsys.readouterr().err == (
        "error: code=invalid out of memory: Unable to allocate 7.28 TiB for an array "
        "with shape (1000000000000,) and data type float64\n")


def test_format_both_requires_out(capsys):
    assert run(["convert", "--pcrit-si", "--format", "both"]) == 1


def test_format_both_without_out_rejected_before_solving(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise ConvergenceError("the pipeline ran", diagnostics=None)

    monkeypatch.setattr(cli, "hydrogen_spectrum", boom)
    assert run(["hydrogen", "--format", "both"]) == 1
    assert "code=usage" in capsys.readouterr().err


def test_format_both_writes_pair(tmp_path):
    out = tmp_path / "pair"
    assert run(["convert", "--pcrit-si", "--format", "both", "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "pair.json").read_text())
    assert doc["command"] == "convert"
    assert (tmp_path / "pair.csv").read_text().startswith("# command=convert")


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "--pcrit-si"],
        ["series", "--alpha", "0.5", "--nterms", "8"],
        ["spectrum", "--lambda", "1", "--grid", "log", "--domain", "1e-5:200",
         "--n", "1024", "--states", "2"],
        ["cutoff-sweep", "--epsilon", "0.2,0.1", "--domain", "0:20"],
        ["critical-scan", "--windows", "1e-5:1e5,1e-6:1e6"],
    ],
)
def test_byte_identical_reruns(tmp_path, argv):
    a = tmp_path / "a.out"
    b = tmp_path / "b.out"
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert _read(a) == _read(b)


# sha256 of stdout and of the --format both files, recorded from the solver
# whose Sturm passes walked every row (the benchmark's seed-0 argv and the
# cutoff-sweep default) and from the bisection without guesses (hydrogen
# --n 4096).  The spectrum, series, convert and critical-scan pins cover the
# remaining table shapes: a two-table CSV, empty cells and the library's
# default windows.  Outputs carry no paths or timestamps; the JSON does carry
# the package version.  Plain stdout is the CSV text.
@pytest.mark.parametrize("flags", [["--lambda", "1", "--epsilon", "0.05"],
                                   ["--Q", "2", "--d", "0.5", "--epsilon", "0.01"]])
def test_spectrum_refuses_a_cap_the_uniform_grid_does_not_resolve(flags, capsys):
    # h = 40 / 802 is about 0.05, above half of either cap
    assert run(["spectrum", *flags, "--domain", "-20:20", "--n", "801"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: code=invalid cut-off epsilon = {float(flags[-1])!r} is below "
                            f"the resolvable scale for grid spacing h = {40.0 / 802!r}\n")
    # a logarithmic grid is not checked
    assert run(["spectrum", "--lambda", "1", "--epsilon", "1e-4", "--grid", "log",
                "--domain", "1e-5:200", "--n", "256", "--states", "1"]) == 0


_GOLDEN = [
    (["hydrogen", "--lambda", "1.0", "--states", "3", "--n", "384", "--domain", "1e-05:200.0"],
     0, "8752e26bab62b81aad9947d0f1957b5feb8e2d9c205185c5a2a8a395eef93cd7",
     "564fc3ad19847520e9f2d3d0210790af07d70ceeb2810d105d3279f64e638b2b"),
    (["dipole-limit", "--d", "1.0,0.5,0.2,0.1,0.05", "--n", "3001"],
     3, "e01f75b2b3a8b1df6ff97991000828e97b7cbafde648e5cafd2e793bf8a0dbf9",
     "7acd01af5f536175abc3d1be9b1e8e9c9414b59b0bd7f26af53cebf75c37771c"),
    (["critical-scan", "--windows",
      "0.0001:10000.0,1e-08:100000000.0,1e-12:1000000000000.0,1e-16:1e+16", "--tol-alpha", "1e-9"],
     0, "5d005fbad0471b40981146952f2c01b0e2360188e24d0876910fa9cd9271ab5a",
     "f2fab53b8c12a1184f0d63a7021a189202db0efb3ab19125cd605ca81f3beead"),
    (["cutoff-sweep", "--lambda", "1.0", "--epsilon", "0.2,0.1,0.05,0.025,0.0125",
      "--domain", "0:10.0", "--n", "3200"],
     0, "fc3d0c5808d77b76b92fd142202e4d2b94223673f45fb1dceaa0d6f8bad56f8d",
     "bbe35ff14c3207f35f99b3437e07a6039d0c19d4f77989cc56a84d487e809db0"),
    (["cutoff-sweep"],
     0, "561d9cc70fe7931ef4182c1678d790cf22066eb7ec8f3c1a9c8116406ecb55ab",
     "d275517bd482e182e1fa5b61bfa49e59253b0bf48548dd4d8b7d7059e3d376c2"),
    # grids 4,096 / 8,193 / 16,387
    (["hydrogen", "--n", "4096"],
     0, "58dbba61cf396e4840321cfd2b7f86cf2db24c71c475a527545a1e588168de3d",
     "85a08d95f93473946c940d06802d8c3de2525a097adc55c44c8636f228c8b7a4"),
    (["spectrum", "--p", "1", "--domain", "-20:0", "--n", "512", "--states", "2"],
     0, "d5cd22ebe28a8673de5b99614f58b5bf859f2f7fb205ff096a68dbe013bfdabd",
     "e033d6722c391e19a4b5a66a9fd30768a3a00ebc0092fbd8b1b0a4f210e8ce6f"),
    # the inverse-square family, posed in its scaled form
    (["spectrum", "--alpha", "1.25", "--grid", "log", "--domain", "1e-3:30", "--n", "2048",
      "--states", "3"],
     0, "d6cf48dfb8b44bf9366a5101bf0b6b4d6baa8c8a0ce6cc2553d52c1066cb7752",
     "2a25dac1b8d022eb00702e74ab64ee54e84751b9d08ba595ef53d57f154fd49f"),
    # two CSV tables, each under its own "# table=" line
    (["series", "--alpha", "0.5", "--nterms", "8"],
     0, "f453f981f7663ab5cff578d01aafb8dd758b13dcc5032dc61ac12932e53cefbc",
     "a6ba763bb6775d185e66cb46067439f1f80fbb3b26077527ad071033ce58cd07"),
    # rows without an SI value: empty CSV cells, JSON null
    (["convert", "--p", "1", "--energy", "1", "--length", "1", "--alpha", "0.5"],
     0, "79523689261e219b231f4babd1d2ef624fa1d1419e0ebd819e28320d2f640e4c",
     "dfa381089ce76ea5bfa1067c2bc31af35a81ccb78b442601680f33cb9cd6c78c"),
    (["critical-scan"],
     0, "39eaa33c68cc4ad27137ef835743eea31bbdee9ca01bf41a6aadf2b56a9f3625",
     "018ccdbb5b8d416f4c1f7de97daf3ac1ac114cb984ee6f1bc219f2e0e67055aa"),
    # the capped Coulomb and two-centre families, and every "si" dimension
    (["spectrum", "--lambda", "1", "--epsilon", "0.1", "--domain", "-20:20", "--n", "801",
      "--states", "3"],
     0, "4dd37f0fde5f557363283957f41b3c2f3db7b851b0614bf23b24ffb1ed25ccbb",
     "52c1bdbc8587dd2886a43ddc23fd15836cc97d25f66a6fd227671b598ebc1052"),
    # h = 5 epsilon: refused as unresolved, with no output; --n 10001 resolves it
    (["spectrum", "--Q", "2", "--d", "0.5", "--epsilon", "0.01", "--domain", "-20:20",
      "--n", "801", "--states", "2"],
     1, None, None),
    (["spectrum", "--Q", "2", "--d", "0.5", "--epsilon", "0.01", "--domain", "-20:20",
      "--n", "10001", "--states", "2"],
     0, "ac56c7b1dba3ba970367d86d5a996348c894d6f63bf815726b70b126f29feef6",
     "4c3ed38620ec7f13018596f5a828895cbf0e5aed951374cb929d0f53c144c13c"),
    (["spectrum", "--Q", "2", "--d", "2.6e-11si", "--epsilon", "5e-13si",
      "--domain", "-1e-9si:1e-9si", "--n", "801", "--states", "2"],
     1, None, None),
    (["spectrum", "--Q", "2", "--d", "2.6e-11si", "--epsilon", "5e-13si",
      "--domain", "-1e-9si:1e-9si", "--n", "10001", "--states", "2"],
     0, "867b41494348744247afc5e3440cdb39ae96d9078abcab271929dd85c94d231a",
     "2e59ef70b2926fbed51e3853a66ac90a45c6b021420c2060dfa75d660f4111cf"),
    (["convert", "--p", "1e-30si", "--energy", "4e-18si", "--length", "5e-11si",
      "--alpha", "0.3", "--pcrit-si"],
     0, "4e37ac6b9119863ec18fdfe9e08d31164b736862951521c0050bf1cce92987ed",
     "b2c5e46407167a53bbb4d7c8ebd1e7d5131fbe7c0198dabbb68ac05435e8c3f6"),
    (["spectrum", "--lambda", "2.3e-28si", "--grid", "log", "--domain", "1e-5:200",
      "--n", "1024", "--states", "2"],
     0, "de1cf0a38af23dddbe5495d511a8d3c39fa3ba6bc7cb5a18b64763a879dd7bf9",
     "7adab1f91ea988dacd072c736b4285bc7a8718f760060873426bd85096832842"),
    # a pinned zero at 0 splits the line into two blocks: node counts per
    # block, 0, 0, 1, 1, 2, 2 for three degenerate pairs
    (["spectrum", "--lambda", "1", "--states", "6"],
     0, "5e1d4d487be7b793c53c8654562c72bfe76062f8888f7c42db0b1837cb5742a7",
     "f21da3418e0642424e631816ed9e7cf1b5df6de052cbb477671cf119d377a421"),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv, code, csv_sha, json_sha", _GOLDEN,
                         ids=["balmer", "dipole-scan", "threshold", "cutoff", "cutoff-sweep",
                              "hydrogen-4096", "spectrum-p", "spectrum-alpha", "series", "convert",
                              "critical-scan", "spectrum-capped", "spectrum-two-centre",
                              "spectrum-two-centre-resolved", "spectrum-two-centre-si",
                              "spectrum-two-centre-si-resolved", "convert-si",
                              "spectrum-lambda-si", "spectrum-decoupled"])
def test_output_bytes_match_golden(argv, code, csv_sha, json_sha, tmp_path, capsys):
    assert run(argv) == code
    captured = capsys.readouterr()
    out = tmp_path / "o"
    if csv_sha is None:
        # refused before any output
        assert captured.out == ""
        assert captured.err.startswith("error: code=invalid ")
        assert run(argv + ["--format", "both", "--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []
        return
    assert _sha(captured.out.encode()) == csv_sha
    assert run(argv + ["--format", "both", "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _sha(_read(str(out) + ".csv")) == csv_sha
    assert _sha(_read(str(out) + ".json")) == json_sha


def test_csv_output_renders_no_json(monkeypatch, capsys):
    # --format csv (the default) writes no JSON, so it encodes none either
    calls = []
    monkeypatch.setattr(cli.json, "dumps", lambda *a, **k: calls.append(a) or "")
    assert run(["cutoff-sweep", "--epsilon", "0.2,0.1", "--domain", "0:20",
                "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("# command=cutoff-sweep\n")
    assert calls == []
