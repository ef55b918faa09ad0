"""zetagamma benchmark: run one workload in a fresh child process and report.

    python3 benchmark/run.py --workload deep-k --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the child imports ``zetagamma`` from the
checkout's ``src/``.  Set-up time is the median over several probe children,
each timed from its spawn until ``zetagamma.cli`` is imported and ready.  With
``--trace 0`` the worker child repeats the workload's op list for about
``--seconds`` and reports each op's fastest run, summed over the op list
(the end-to-end metrics); with ``--trace 1`` it runs the op list once to warm
up, then three times untraced and three times traced, alternating, and
reports the per-layer metrics of the last traced pass.  Every op's output is
checked; failed checks count in ``failed`` and never abort the run.  The last
stdout line is the result as one JSON object.  Workloads, metrics and units
are listed in BENCHMARK.json at the root of the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

#: Probe children timed for ``setup_s``, after one untimed warm-up probe
#: that fills the byte-code and file caches.  Half run before the workload
#: and half after it, so that the median spans the run's machine states.
SETUP_SAMPLES = 20
#: Whole-run budget; every child is killed and waited for past it.
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _run_child(args: list[str], deadline: float) -> tuple[float, dict, dict]:
    """Start the child; returns (seconds until ready, ready record, last record)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=ROOT,
                            env=_child_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready_line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {args} ran past the {TIME_LIMIT_S:.0f} s budget")
    if proc.returncode != 0 or not ready_line:
        raise BenchError(f"child {args} exited with code {proc.returncode}")
    lines = rest.splitlines()
    return ready_s, json.loads(ready_line), json.loads(lines[-1]) if lines else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S

    try:
        if not (ROOT / "src" / "zetagamma" / "cli.py").is_file():
            raise BenchError(f"no zetagamma sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        specs = spec["per_layer" if args.trace else "end_to_end"]
        _run_child(["--probe"], deadline)
        probes = [_run_child(["--probe"], deadline) for _ in range(SETUP_SAMPLES // 2)]
        _, _, result = _run_child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        probes += [_run_child(["--probe"], deadline) for _ in range(SETUP_SAMPLES // 2)]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    if args.trace:
        for key in ("numpy_import_s", "zetagamma_import_s"):
            metrics[f"setup.{key}"] = statistics.median(p[1][key] for p in probes)
    else:
        metrics["setup_s"] = statistics.median(p[0] for p in probes)

    missing = [m["name"] for m in specs if m["name"] not in metrics]
    if missing:
        print(f"benchmark error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print("environment " + json.dumps(result["environment"]))
    print(f"workload {args.workload} seed {args.seed}: {len(result['passes'])} passes, "
          f"{result['nominal_terms']} nominal terms per pass, "
          f"pass walls {['%.4f' % w for w in result['passes']]} s")
    for m in specs:
        print(f"{m['name']}: {metrics[m['name']]:.6g} {m['unit']}")
    print(f"ops: {result['attempted']}")
    print(f"ops_failed: {result['failed']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
