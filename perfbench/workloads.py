"""The benchmark's four workloads: seeded CLI argv plus the oracle that gates it.

``WORKLOADS[name].make(seed)`` returns a :class:`Case`: the argv handed to
``dipole1d.cli.run`` (the program sees nothing else), the exit code the
contract expects, and the parameters the oracle needs.  Seed 0 is the
canonical input; every other seed perturbs only inputs that leave the work
and the exact answer's accuracy unchanged, so timings and accuracy figures
from different seeds are comparable.

Where a seed changes the Coulomb strength lam, it scales the domain (and the
caps) by 1/lam as well.  x -> x / lam maps the problem exactly onto the
lam = 1 problem with energies times lam^2, so the grid, the solver's work and
the relative errors stay put while the inputs change.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from oracles import (
    ALPHA_CRIT,
    CAPPED_COULOMB_LEVELS,
    check_balmer,
    check_cutoff,
    check_dipole_scan,
    check_threshold,
)

DEFAULT_SEED = 0

BALMER_N = 384
DIPOLE_N = 3001
CUTOFF_N = 3200
CUTOFF_CAPS = (0.2, 0.1, 0.05, 0.025, 0.0125)
CUTOFF_L = 10.0
DIPOLE_D = (1.0, 0.5, 0.2, 0.1, 0.05)
THRESHOLD_WINDOWS = 4


@dataclass(frozen=True)
class Case:
    argv: list[str]
    expected_exit: int
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], Case]
    check: Callable[[dict, dict, str], tuple[dict, list[str]]]
    # oracle_rel_err: the workload's headline accuracy figure, relative to
    # its exact answer, computed from the check's accuracy dict
    headline: Callable[[dict], float]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _lam(seed: int) -> float:
    return 1.0 if seed == DEFAULT_SEED else _log_uniform(random.Random(seed), 0.8, 1.25)


def _make_balmer(seed: int) -> Case:
    lam = _lam(seed)
    argv = [
        "hydrogen", "--lambda", repr(lam), "--states", "3", "--n", str(BALMER_N),
        "--domain", f"{1e-5 / lam!r}:{200.0 / lam!r}",
    ]
    return Case(argv, 0, {"lam": lam, "states": 3})


def _make_dipole_scan(seed: int) -> Case:
    if seed == DEFAULT_SEED:
        d_list = list(DIPOLE_D)
    else:
        # d >= 0.004 keeps d/8 >= epsilon/2, the regime in which the default
        # grid rule would not depend on d; the grid here is fixed anyway.
        rng = random.Random(seed)
        d_set: set[float] = set()
        while len(d_set) < len(DIPOLE_D):
            d_set.add(float(f"{_log_uniform(rng, 0.004, 1.0):.4g}"))
        d_list = sorted(d_set, reverse=True)
    argv = ["dipole-limit", "--d", ",".join(repr(d) for d in d_list), "--n", str(DIPOLE_N)]
    return Case(argv, 3, {"d_list": d_list})


def _make_threshold(seed: int) -> Case:
    # Window k spans ln(L/delta) = 8k ln 10.  A seed shifts both ends of each
    # window by the same number of decades: the oscillation count, and so
    # the exact detected threshold, depend on L/delta only.
    rng = random.Random(seed)
    windows = []
    for k in range(1, THRESHOLD_WINDOWS + 1):
        shift = 0.0 if seed == DEFAULT_SEED else rng.uniform(-3.0, 3.0)
        windows.append((10.0 ** (-4 * k + shift), 10.0 ** (4 * k + shift)))
    argv = [
        "critical-scan", "--windows", ",".join(f"{d!r}:{L!r}" for d, L in windows),
        "--tol-alpha", "1e-9",
    ]
    return Case(argv, 0, {"windows": windows})


def _make_cutoff(seed: int) -> Case:
    lam = _lam(seed)
    eps = [c / lam for c in CUTOFF_CAPS]
    argv = [
        "cutoff-sweep", "--lambda", repr(lam), "--epsilon", ",".join(repr(e) for e in eps),
        "--domain", f"0:{CUTOFF_L / lam!r}", "--n", str(CUTOFF_N),
    ]
    levels = [CAPPED_COULOMB_LEVELS[c] for c in CUTOFF_CAPS]
    return Case(argv, 0, {"lam": lam, "epsilons": eps, "unit_lambda_levels": levels})


WORKLOADS = {
    w.name: w
    for w in (
        Workload("balmer", _make_balmer, check_balmer,
                 lambda acc: acc["balmer_max_rel_err"]),
        Workload("dipole-scan", _make_dipole_scan, check_dipole_scan,
                 lambda acc: acc["dipole_ref_rel_err"]),
        Workload("threshold", _make_threshold, check_threshold,
                 lambda acc: acc["alpha_crit_err_bound"] / ALPHA_CRIT),
        Workload("cutoff", _make_cutoff, check_cutoff,
                 lambda acc: acc["cutoff_max_rel_err"]),
    )
}
