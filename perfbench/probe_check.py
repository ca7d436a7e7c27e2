#!/usr/bin/env python3
"""Check that the speed probe of run.py also tracks compiled code.

    python3 perfbench/probe_check.py

run.py scales every timed call by a pure-Python probe.  The program's hot
loops are interpreted now, but a LAPACK backend would move them into
compiled code, whose speed need not drift with the interpreter's.  This
script starts RUNS fresh processes one after another.  Each pins itself to
one CPU like run.py and, for SECONDS seconds, alternates two calls, each
timed between probes by run.py's Timer:

* ``python``: one ``cutoff`` invocation of the CLI (interpreted Sturm
  bisection);
* ``lapack``: ``scipy.linalg.eigh_tridiagonal`` for the 3 lowest levels of
  a 60,000-node Coulomb operator (LAPACK dstebz, the backend of a
  compiled solver).

It then prints, for each kind, the spread over the runs of the per-run
medians, raw and scaled: the distance between the first and third
quartiles over the median, as in record_baseline.py.  The scaling serves
compiled code too if the scaled spread of ``lapack`` stays well within the
0.25 bound of ``wall_s``.  Needs scipy; exits with code 2 without it.
"""

from __future__ import annotations

import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

RUNS = 8
SECONDS = 20.0
LAPACK_N = 60000


def one_run() -> None:
    """Alternate the two calls for SECONDS; print (kind, raw, scaled) rows."""
    import numpy as np
    import scipy.linalg

    from run import Timer, load_cli, pin_to_one_cpu
    from workloads import WORKLOADS

    pin_to_one_cpu()
    timer = Timer()
    cli = load_cli()
    x = np.linspace(1e-3, 60.0, LAPACK_N)
    h = x[1] - x[0]
    diag = 1.0 / h**2 - 1.0 / x
    off = np.full(LAPACK_N - 1, -0.5 / h**2)

    def lapack():
        return scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                             select_range=(0, 2), tol=1e-12)

    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        argv = WORKLOADS["cutoff"].make(0).argv + ["--format", "both", "--out", f"{tmp}/c"]
        calls = {"python": lambda: cli.run(argv), "lapack": lapack}
        for fn in calls.values():
            fn()  # warm-up
        rows = []
        end = time.perf_counter() + SECONDS
        while time.perf_counter() < end:
            for kind, fn in calls.items():
                _, raw, scaled = timer.time(fn)
                rows.append((kind, raw, scaled))
    print(json.dumps(rows))


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    if "--one" in sys.argv[1:]:
        one_run()
        return 0
    if importlib.util.find_spec("scipy") is None:
        sys.stderr.write("probe_check: scipy is not installed\n")
        return 2
    medians: dict[tuple[str, int], list[float]] = {}
    for i in range(RUNS):
        proc = subprocess.run([sys.executable, __file__, "--one"], capture_output=True,
                              text=True, timeout=SECONDS + 120, check=True)
        rows = json.loads(proc.stdout.strip().splitlines()[-1])
        for kind in ("python", "lapack"):
            for col in (1, 2):
                medians.setdefault((kind, col), []).append(
                    statistics.median(r[col] for r in rows if r[0] == kind))
        print(f"run {i + 1}/{RUNS}: {len(rows) // 2} pairs", flush=True)
    for (kind, col), values in medians.items():
        label = "raw" if col == 1 else "scaled"
        print(f"{kind:6s} {label:6s} spread {spread(values):.4f}  medians "
              + " ".join(f"{v:.4f}" for v in values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
