#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise its steadiness.

    python3 perfbench/record_baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload, runs ``run.py`` for ``run_seconds`` of BENCHMARK.json once
per seed (one at a time, each in its own process), then prints, for every
end-to-end metric, the median over the seeds and the spread: the distance
between the first and third quartiles (``statistics.quantiles(values, n=4)``)
as a share of the median.  It adds one traced run per workload at the default
seed.  ``--out`` writes all results, with the environment fingerprint, as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, list[dict]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    info = [json.loads(line) for line in lines[:-1] if line.startswith("{")]
    return json.loads(lines[-1]), info


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    report: dict = {"seconds": RUN_SECONDS, "seeds": seeds, "workloads": {}}
    for name in WORKLOADS:
        runs = []
        for seed in seeds:
            result, info = run_once(name, seed, 0)
            report.setdefault("fingerprint", info[0]["fingerprint"])
            runs.append({"seed": seed, "result": result, "info": info[-1]})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for metric in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            summary[metric] = {"median": statistics.median(values),
                               "spread": spread(values) if len(values) > 1 else 0.0}
            print(f"  {name} {metric}: median {summary[metric]['median']:.6g} "
                  f"spread {summary[metric]['spread']:.4f}", flush=True)
        result, info = run_once(name, DEFAULT_SEED, 1)
        traced = {"seed": DEFAULT_SEED, "result": result, "info": info[-1]}
        print(f"  {name} traced: correct={result['correct']} "
              f"share_of_wall={json.dumps(info[-1]['share_of_wall'])}", flush=True)
        report["workloads"][name] = {"summary": summary, "runs": runs, "traced": traced}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
