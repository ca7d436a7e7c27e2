#!/usr/bin/env python3
"""Benchmark of the dipole1d CLI pipelines, timed end to end, gated by oracles.

    python3 perfbench/run.py --workload balmer --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/`` and nowhere else.  One client in this process calls the
public CLI entry ``dipole1d.cli.run(argv)`` again and again (closed loop, one
invocation at a time) for ``--seconds`` seconds, each time with
``--format both`` so both emitters are on the timed path.  A first, untimed
invocation warms the process.  Every invocation's exit code and output files
are checked against the workload's exact oracle (``oracles.py``).

Times are reported at a reference CPU speed.  On a shared host the speed of
one CPU can drift by up to 2x within seconds, independently of the other
CPUs.  So the process pins itself to one CPU, times a fixed probe loop right
before and right after every timed call, and scales the call's wall time by
``REFERENCE_PROBE_S`` over the mean of the two probe times.  The raw times
are printed alongside.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced invocations and reports per-layer metrics from the
traced ones (``tracing.py``), plus the tracing overhead.

Informational lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits with code 2, printing no result, when the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread: the process is pinned to one CPU

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from tracing import LayerTotals, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Case  # noqa: E402

SETUP_REPEATS = 9
MIN_TIMED = 5
PROBE_REPEATS = 3
PROBE_SIZE = 2000
PROBE_PASSES = 3
REFERENCE_PROBE_S = 0.003
UNITS = {"wall_s": "s", "setup_s": "s", "oracle_rel_err": "1"}


class ProgramUnavailable(RuntimeError):
    pass


def load_cli():
    """Import dipole1d.cli from this checkout's src/ only."""
    if not (SRC / "dipole1d").is_dir():
        raise ProgramUnavailable(f"no dipole1d package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import dipole1d.cli as cli
    except ImportError as exc:
        raise ProgramUnavailable(f"cannot import dipole1d.cli: {exc}") from exc
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ProgramUnavailable(f"dipole1d.cli came from {cli.__file__}, not {SRC}")
    return cli


def pin_to_one_cpu() -> int | None:
    """Keep this process, and the interpreters it starts, on one CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Timer:
    """Times calls, each between two probes: raw and speed-scaled seconds.

    The probe is a Sturm-style recurrence over numpy scalars: element access,
    float arithmetic and object churn.  Its speed tracks the host's drift in
    both the bisection and the RK4 workloads far better than a loop of plain
    float arithmetic does (run-to-run spread 0.03-0.04 against 0.13-0.16).
    """

    def __init__(self):
        import numpy as np

        self.diag = np.linspace(0.0, 1.0, PROBE_SIZE)
        self.off2 = self.diag * self.diag
        self.last_probe = self.probe()
        self.probes = [self.last_probe]

    def probe(self) -> float:
        """Fastest of a few runs of the fixed probe loop: the CPU speed now."""
        diag, off2 = self.diag, self.off2
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            count = 0
            for _ in range(PROBE_PASSES):
                d = 1.0
                for i in range(PROBE_SIZE):
                    d = (diag[i] - 0.3) - off2[i] / d
                    if d == 0.0:
                        d = -1e-300
                    if d < 0.0:
                        count += 1
            best = min(best, time.perf_counter() - t0)
        return best

    def time(self, fn):
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        before, self.last_probe = self.last_probe, self.probe()
        self.probes.append(self.last_probe)
        return result, wall, wall * REFERENCE_PROBE_S / (0.5 * (before + self.last_probe))


def measure_setup(timer: Timer) -> tuple[list[float], list[float]]:
    """Raw and scaled times for a fresh interpreter to import the CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def start():
        return subprocess.run([sys.executable, "-c", "import dipole1d.cli"], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120)

    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc, wall, wall_scaled = timer.time(start)
        if proc.returncode != 0:
            raise ProgramUnavailable(f"fresh import failed: {proc.stderr.strip()[-400:]}")
        raw.append(wall)
        scaled.append(wall_scaled)
    return raw, scaled


def fingerprint(cpu: int | None) -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu_model": cpu_model or platform.processor() or None,
        "platform": platform.platform(),
    }


class Client:
    """Runs one workload's invocations and gates each against its oracle."""

    def __init__(self, cli, workload, case: Case, out_dir: Path, timer: Timer):
        self.cli = cli
        self.workload = workload
        self.case = case
        self.out = out_dir / workload.name
        self.timer = timer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.accuracy: dict = {}
        self.headline: list[float] = []

    def invoke(self) -> tuple[float, float]:
        """One invocation; returns its raw and speed-scaled wall times."""
        for suffix in (".csv", ".json"):
            self.out.with_suffix(suffix).unlink(missing_ok=True)
        argv = self.case.argv + ["--format", "both", "--out", str(self.out)]
        errors: list[str] = []

        def call():
            try:
                # looked up at call time, so a traced run sees the traced entry
                return self.cli.run(argv)
            except Exception:  # the loop keeps running; the failure is counted
                errors.append(f"uncaught: {traceback.format_exc(limit=3)}")
                return None

        gc.collect()
        self.attempted += 1
        code, wall, scaled = self.timer.time(call)
        if errors:
            self._fail(errors)
        else:
            self._check(code)
        return wall, scaled

    def _check(self, code: int) -> None:
        if code != self.case.expected_exit:
            self._fail([f"exit code {code}, expected {self.case.expected_exit}"])
            return
        try:
            csv_text = self.out.with_suffix(".csv").read_text(encoding="utf-8")
            obj = json.loads(self.out.with_suffix(".json").read_text(encoding="utf-8"))
            accuracy, problems = self.workload.check(self.case.params, obj, csv_text)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            self._fail([f"unreadable output: {exc!r}"])
            return
        if problems:
            self._fail(problems)
            return
        self.accuracy = accuracy
        self.headline.append(self.workload.headline(accuracy))

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)


def layer_metrics(t: dict[str, LayerTotals], absent: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation."""
    def get(label: str) -> LayerTotals:
        return t.get(label, LayerTotals())

    def rate(work: float, s: float) -> float:
        return work / s if s > 0 else 0.0

    run = get("cli.run")
    znc = get("eigensolver.zero_energy_node_count")
    fac = get("eigensolver.find_alpha_crit")
    m = {
        "cli.run.s": run.s,
        "cli.self_s": run.self_s,
        "pipeline.s": sum(v.s for k, v in t.items() if k.startswith("pipeline.")),
        "critical.predicate_calls": float(get("critical.predicate").calls),
        "critical.predicate.s": get("critical.predicate").s,
        "eigensolver.find_alpha_crit.calls": float(fac.calls),
        "eigensolver.find_alpha_crit.s": fac.s,
        "eigensolver.node_counts_per_window": znc.calls / fac.calls if fac.calls else 0.0,
        "eigensolver.zero_energy_node_count.calls": float(znc.calls),
        "eigensolver.zero_energy_node_count.s": znc.s,
        "eigensolver.zero_energy_node_count.log_span_per_s": rate(znc.work, znc.s),
    }
    for label, fields in (
        ("eigensolver.discretize", ("calls", "s", "self_s", "nodes")),
        ("potentials.eval_potential_grid", ("calls", "s", "nodes")),
        ("eigensolver.lowest_eigenvalues", ("calls", "s", "self_s")),
        ("tridiag.eigvalsh_bisect", ("calls", "s", "self_s", "nodes")),
        ("tridiag.inverse_iteration", ("calls", "s")),
        ("tridiag.sturm_count", ("calls", "s")),
        ("tridiag.sturm_pass", ("calls",)),
    ):
        tot = get(label)
        for f in fields:
            m[f"{label}.{f}"] = float(tot.work if f == "nodes" else getattr(tot, f))
    sp = get("tridiag.sturm_pass")
    m["tridiag.sturm_pass.nodes_per_s"] = rate(sp.work, sp.s)
    m["trace.absent_functions"] = float(len(absent))
    return m


def layer_unit(name: str) -> str:
    if name.endswith(("calls", ".nodes", "_functions", "per_window")):
        return "count"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "s"


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[workload_name]
    cpu = pin_to_one_cpu()
    timer = Timer()
    try:
        cli = load_cli()
        setup_raw, setup_scaled = measure_setup(timer)
    except ProgramUnavailable as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    case = workload.make(seed)
    print(json.dumps({"fingerprint": fingerprint(cpu)}))
    print(json.dumps({"workload": workload.name, "seed": seed, "argv": case.argv,
                      "expected_exit": case.expected_exit}))

    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    plain: list[tuple[float, float]] = []    # (raw, scaled) per untraced call
    traced: list[tuple[float, float]] = []
    per_layer: list[dict[str, float]] = []
    tracer = Tracer()
    try:
        client = Client(cli, workload, case, out_dir, timer)
        start = time.perf_counter()
        client.invoke()  # warm-up: gated, not reported, inside the time budget
        while True:
            done = len(plain) >= MIN_TIMED and (not trace or len(traced) >= MIN_TIMED)
            typical = statistics.median(raw for raw, _ in plain + traced) if done else 0.0
            # stop before a call that would likely end past the budget
            if done and time.perf_counter() - start + typical > seconds:
                break
            if trace and len(traced) < len(plain):
                tracer.reset()
                with tracer:
                    traced.append(client.invoke())
                per_layer.append(layer_metrics(tracer.totals(), tracer.absent))
            else:
                plain.append(client.invoke())
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it

    wall_scaled = statistics.median(s for _, s in plain)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {
        "wall_samples": len(plain),
        "wall_raw_median_s": statistics.median(r for r, _ in plain),
        "wall_raw_min_s": min(r for r, _ in plain),
        "wall_raw_max_s": max(r for r, _ in plain),
        "setup_raw_median_s": statistics.median(setup_raw),
        "probe_median_s": statistics.median(timer.probes),
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": client.failed / client.attempted,
        "accuracy": client.accuracy,
    }
    if trace:
        metrics = {k: statistics.median(d[k] for d in per_layer) for k in per_layer[0]}
        metrics["trace.overhead_ratio"] = statistics.median(s for _, s in traced) / wall_scaled
        metrics["process.peak_rss_mb"] = peak_rss_mb
        info["traced_samples"] = len(traced)
        info["absent"] = tracer.absent
        # share of each traced invocation's own wall time (cli.run.s)
        info["share_of_wall"] = {
            k[:-2]: statistics.median(d[k] / d["cli.run.s"] for d in per_layer)
            for k in ("tridiag.eigvalsh_bisect.s", "tridiag.inverse_iteration.s",
                      "eigensolver.zero_energy_node_count.s", "eigensolver.discretize.s",
                      "critical.predicate.s", "cli.self_s")
        }
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {
            "wall_s": wall_scaled,
            "setup_s": statistics.median(setup_scaled),
            "oracle_rel_err": statistics.median(client.headline) if client.headline else 1.0,
        }
        units = UNITS
    print(json.dumps(info))
    for problem in client.problems[:20]:
        print(f"FAIL {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
