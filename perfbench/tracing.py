"""Per-layer tracing from outside the program.

A :class:`Tracer` wraps public functions of the ``dipole1d`` modules at
every name a caller looks them up by: each module attribute that is the
original function object is replaced, so ``dipole1d.eigensolver.
eigvalsh_bisect`` and ``dipole1d.tridiag.eigvalsh_bisect`` are both traced.
A target that no longer exists (a later change deleted or renamed it) is
recorded as absent instead of failing.

Every call becomes a span (name, parent span, start, end, work) kept in
memory.  A span's self time is its duration minus the durations of the spans
it directly caused.  Nothing inside the program changes.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _size_of_first(args, kwargs) -> float:
    return float(len(args[0]))


def _grid_n(args, kwargs) -> float:
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return float(grid.n)


def _operator_size(args, kwargs) -> float:
    H = args[0] if args else kwargs["H"]
    return float(H.size)


def _xs_len(args, kwargs) -> float:
    return float(len(args[1] if len(args) > 1 else kwargs["xs"]))


def _log_span(args, kwargs) -> float:
    delta = args[1] if len(args) > 1 else kwargs["delta"]
    L = args[2] if len(args) > 2 else kwargs["L"]
    return math.log(L / delta)


def _no_work(args, kwargs) -> float:
    return 0.0


@dataclass(frozen=True)
class Target:
    label: str        # name the metrics use
    module: str       # defining module under dipole1d
    attr: str         # attribute in that module
    work: Callable    # (args, kwargs) -> work units of one call


TARGETS = (
    Target("cli.run", "cli", "run", _no_work),
    Target("pipeline.hydrogen_spectrum", "eigensolver", "hydrogen_spectrum", _no_work),
    Target("pipeline.cutoff_sweep", "eigensolver", "cutoff_sweep", _no_work),
    Target("pipeline.critical_report", "critical", "critical_report", _no_work),
    Target("pipeline.physical_dipole_scan", "critical", "physical_dipole_scan", _no_work),
    Target("critical.predicate", "critical", "_binds", _no_work),
    Target("eigensolver.find_alpha_crit", "eigensolver", "find_alpha_crit", _no_work),
    Target("eigensolver.zero_energy_node_count", "eigensolver", "zero_energy_node_count",
           _log_span),
    Target("eigensolver.discretize", "eigensolver", "discretize", _grid_n),
    Target("potentials.eval_potential_grid", "potentials", "eval_potential_grid", _xs_len),
    Target("eigensolver.lowest_eigenvalues", "eigensolver", "lowest_eigenvalues",
           _operator_size),
    Target("tridiag.eigvalsh_bisect", "tridiag", "eigvalsh_bisect", _size_of_first),
    Target("tridiag.inverse_iteration", "tridiag", "inverse_iteration", _size_of_first),
    Target("tridiag.sturm_count", "tridiag", "sturm_count", _size_of_first),
    # one Sturm pass: the kernel the bisection calls once per step
    Target("tridiag.sturm_pass", "tridiag", "_count_below", _size_of_first),
)


@dataclass
class LayerTotals:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0


class Tracer:
    """Collects spans while installed; ``with tracer:`` patches and restores."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []   # [label, parent index, t0, t1, work]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _wrap(self, label: str, fn, work: Callable):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            try:
                units = work(args, kwargs)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                units = 0.0  # a changed signature loses the work count, not the call
            idx = len(spans)
            spans.append([label, stack[-1] if stack else -1, 0.0, 0.0, units])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][2] = t0
                spans[idx][3] = t1

        try:
            functools.update_wrapper(traced, fn)
        except (AttributeError, TypeError):
            pass
        return traced

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "dipole1d" or name.startswith("dipole1d."))]
        self.absent = []
        for t in self.targets:
            home = sys.modules.get(f"dipole1d.{t.module}")
            original = getattr(home, t.attr, None)
            if original is None:
                self.absent.append(t.label)
                continue
            traced = self._wrap(t.label, original, t.work)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)
                        self._patches.append((m, key, original))
        return self

    def __exit__(self, *exc):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()
        return False

    def totals(self) -> dict[str, LayerTotals]:
        """Calls, total time, self time and work per label over all spans."""
        out: dict[str, LayerTotals] = defaultdict(LayerTotals)
        child_s = [0.0] * len(self.spans)
        for label, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        for i, (label, _, t0, t1, work) in enumerate(self.spans):
            tot = out[label]
            tot.calls += 1
            tot.s += t1 - t0
            tot.self_s += (t1 - t0) - child_s[i]
            tot.work += work
        return out

    def reset(self) -> None:
        self.spans.clear()
