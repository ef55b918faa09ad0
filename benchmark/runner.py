"""Run one workload's op list in this process and report its metrics as JSON.

Ops run through ``zetagamma.cli.main`` with their stdout and stderr
captured, one after another: a closed loop with one client, each op waiting
for the previous one.  ``child.py`` is the entry point; the functions here are
importable on their own, for the tests.
"""

import argparse
import importlib.util
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy
import zetagamma.cli
from zetagamma import series, summation

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
#: Scratch files (the oracle's zeros file, span dumps) go here, inside the checkout.
WORKDIR = ROOT / ".bench_build"
#: Untraced and traced passes alternated in a traced run; ``trace.overhead_s``
#: compares the fastest pass of each kind.
TRACE_PAIRS = 3


@dataclass
class Pass:
    """One pass over an op list: per-op seconds, outcomes and values.

    ``elapsed`` is the pass's own wall time, checks and capture included.
    """

    times: list
    reasons: list
    values: list
    elapsed: float


def run_op(op: workloads.Op) -> tuple[float, int, str]:
    """Run one CLI command in-process; returns (seconds, exit code, stdout)."""
    summation.set_num_workers(1)  # every op starts like a fresh CLI process
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = zetagamma.cli.main(list(op.argv))
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed op, never a crashed benchmark
        code = -1
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    if code != 0:
        print(f"op {' '.join(op.argv)} exited {code}: {err.getvalue().strip()}",
              file=sys.stderr)
    return elapsed, code, out.getvalue()


def check_op(op: workloads.Op, code: int, stdout: str) -> tuple:
    try:
        return op.check(code, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}", ()


def run_pass(ops: list, tracer: spans.Tracer | None = None) -> Pass:
    times, reasons, values = [], [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        elapsed, code, stdout = run_op(op)
        times.append(elapsed)
        reason, vals = check_op(op, code, stdout)
        if reason is not None:
            print(f"FAILED {' '.join(op.argv)}: {reason}", file=sys.stderr)
        reasons.append(reason)
        values.append(vals)
    return Pass(times, reasons, values, time.perf_counter() - start)


def worker_invariance_ok() -> bool:
    """A k = 3e5 alternating trig sum is bit-identical at 1 and 2 workers."""
    params = series.SeriesParams(0.5, 14.1347251417347, 300_000)
    sums = []
    for workers in (1, 2):
        summation.set_num_workers(workers)
        ts = series.trig_sums(params, alternating=True)
        sums.append((ts.cos_sum, ts.sin_sum))
    summation.set_num_workers(1)
    if sums[0] != sums[1]:
        print(f"FAILED worker invariance: {sums[0]} != {sums[1]}", file=sys.stderr)
    return sums[0] == sums[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    # Read .git directly: the checkout may not be a repository, and git
    # itself would search the parent directories.
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(ops: list) -> dict:
    workers = max(int(op.argv[op.argv.index("--threads") + 1]) if "--threads" in op.argv
                  else 1 for op in ops)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "DEFAULT_CHUNK": summation.DEFAULT_CHUNK,
        "workers": workers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--probe", action="store_true",
                        help="only import the CLI and report the import times")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(zetagamma.cli.__file__).resolve().parents:
        print(f"zetagamma was imported from {zetagamma.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    if args.probe:
        return 0
    if args.workload is None:
        parser.error("--workload is required without --probe")

    ops = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    attempted = failed = 0
    if args.workload in workloads.WORKER_INVARIANCE:
        attempted += 1
        failed += not worker_invariance_ok()

    if args.trace:
        # The first pass in a process pays one-off costs (lazy imports, cold
        # caches), so it is left out of the untraced-vs-traced comparison.
        passes = [run_pass(ops)]
        untraced_walls, traced_walls = [], []
        for _ in range(TRACE_PAIRS):
            untraced = run_pass(ops)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_pass(ops, tracer)
            finally:
                tracer.uninstall()
            passes += [untraced, traced]
            untraced_walls.append(untraced.elapsed)
            traced_walls.append(traced.elapsed)
            for i, op in enumerate(ops):
                if untraced.values[i] != traced.values[i]:
                    print(f"FAILED {' '.join(op.argv)}: traced output differs",
                          file=sys.stderr)
                    failed += 1
        # Spans and shares come from the last traced pass alone.
        tracer.write(WORKDIR / "trace" / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = spans.layer_metrics(tracer.spans, traced.elapsed,
                                      min(traced_walls) - min(untraced_walls))
    else:
        passes = []
        start = time.perf_counter()
        # Start another pass while at least half of one still fits in --seconds.
        while not passes or (time.perf_counter() - start
                             + passes[-1].elapsed / 2 <= args.seconds):
            passes.append(run_pass(ops))
        # Each op's fastest run, summed over the op list: the statistic that
        # stays steady when the machine's speed flips between two levels for
        # seconds at a time (a median flips with it).
        wall = sum(min(times) for times in zip(*(p.times for p in passes)))
        nominal = sum(op.nominal_terms for op in ops)
        metrics = {
            "wall_s": wall,
            "mterms_per_s": nominal / wall / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    attempted += sum(len(p.reasons) for p in passes)
    failed += sum(r is not None for p in passes for r in p.reasons)
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "passes": [p.elapsed for p in passes],
        "nominal_terms": sum(op.nominal_terms for op in ops),
        "environment": environment(ops),
        "metrics": metrics,
    }))
    return 0

