"""Run the benchmark several times per workload and summarise the spread.

    python3 benchmark/collect.py --runs 10 --out benchmark/results/BENCH_seed.json

Every workload in BENCHMARK.json runs ``--runs`` times untraced, with seeds
1 to ``--runs``, then once traced with seed 1.  For each end-to-end metric the
summary holds every value, the median and the quartiles, and the spread: the
distance between the quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median.  ``benchmark/results/BENCH_seed.json`` is the baseline;
every other set run on the same commit is kept in
``benchmark/results/repeat-sets/``, so that shifts between sets stay visible.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One ``run.py`` run; returns (result line, environment)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    lines = proc.stdout.splitlines()
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    return json.loads(lines[-1]), env


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(q2) if q2 else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(1, args.runs + 1):
            result, env = run_once(workload, seed, seconds, 0)
            results.append(result)
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in result["metrics"].items()}, flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {name: summarise([r["metrics"][name]["value"] for r in results])
                           for name in bounds},
        }
        for name, stats in entry["end_to_end"].items():
            stats["bound"] = bounds[name]
            print(f"  {name}: median {stats['median']:.6g} spread {stats['spread']:.4f} "
                  f"(bound/3 {bounds[name] / 3:.4f})", flush=True)
        traced, _ = run_once(workload, 1, seconds, 1)
        entry["traced"] = {"seed": 1, "attempted": traced["attempted"],
                           "failed": traced["failed"],
                           "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        entry["environment"] = env
        summary["workloads"][workload] = entry
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
