"""Span recorder for the benchmark's traced run, and the per-layer metrics.

The recorder wraps public functions of the ``zetagamma`` modules at every
module attribute that names them, which is where callers look them up (for
example ``zetagamma.series.chunked_parallel_pair_sum`` and
``zetagamma.fixedpoint.offdiag_factorized``).  The term callbacks handed to
the chunked sums are wrapped too, so evaluating terms is a child span of
summation.  Spans stay in memory and are written out once, at the end.
Nothing under ``src/`` changes; timed runs install no wrappers at all.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

SUMMATION = ("summation.chunked_parallel_sum", "summation.chunked_parallel_pair_sum")
TERMS = "series.terms"

#: Functions whose self time is reported as a share of the traced wall time.
#: A share stays meaningful on a workload that never reaches the function.
SHARED = (
    "series.gamma_type1", "series.gamma_type2", "series.offdiag_factorized",
    "series.trig_sums", "series.offdiag_naive",
    "fixedpoint.g_of_t", "fixedpoint.f_of_t", "fixedpoint.iterate_fixed_point",
    "tables.build_table", "bench.bench_offdiag",
    "zeros.load_catalog", "zeros.get_zero",
)
TRACED = SUMMATION + SHARED + ("cli.main",)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    op: int | None
    start: float
    end: float
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records one span per call of each function in ``TRACED``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, parent, start, end, attrs) -> None:
        # list.append is atomic, so term callbacks on worker threads may record.
        self.spans.append(Span(next(self._ids), parent, name, self.op, start, end, attrs))

    def _wrap(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            attrs: dict = {}
            if before is not None:
                bound = signature.bind(*args, **kwargs)
                before(self, sid, bound, attrs)
                args, kwargs = bound.args, bound.kwargs
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, name, self.op, start, end, attrs))
            if after is not None:
                after(result, attrs)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every ``zetagamma`` module attribute bound to a traced function."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "zetagamma" or n.startswith("zetagamma.")]
        for name in TRACED:
            layer, func = name.split(".")
            original = getattr(sys.modules[f"zetagamma.{layer}"], func)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _before_summation(tracer: Tracer, sid: int, bound, attrs: dict) -> None:
    bound.apply_defaults()
    args = bound.arguments
    workers = args["workers"]
    if workers is None:
        workers = sys.modules["zetagamma.summation"].get_num_workers()
    attrs.update(k=max(int(args["k"]), 0), workers=int(workers))
    term_fn = next(iter(args.values()))  # the term callback is the first parameter
    name = next(iter(args))

    def traced_terms(idx):
        start = time.perf_counter()
        out = term_fn(idx)
        end = time.perf_counter()
        arrays = out if isinstance(out, tuple) else (out,)
        tracer._record(TERMS, sid, start, end, {
            "indices": int(len(idx)),
            "bytes": sum(int(np.asarray(a).nbytes) for a in arrays)})
        return out

    args[name] = traced_terms


def _before_naive(tracer: Tracer, sid: int, bound, attrs: dict) -> None:
    k = bound.arguments["params"].k
    attrs["pairs"] = k * (k - 1) // 2


def _after_iterate(trace, attrs: dict) -> None:
    attrs["iterations"] = len(trace.iterates) - 1


def _after_table(result, attrs: dict) -> None:
    attrs["rows"] = len(result[1])


def _after_bench(reports, attrs: dict) -> None:
    limit = sys.modules["zetagamma.bench"].MAX_ALLOWED_DIFF
    attrs["gate_margin"] = max((r.max_abs_diff for r in reports), default=0.0) / limit


_BEFORE = {
    "summation.chunked_parallel_sum": _before_summation,
    "summation.chunked_parallel_pair_sum": _before_summation,
    "series.offdiag_naive": _before_naive,
}
_AFTER = {
    "fixedpoint.iterate_fixed_point": _after_iterate,
    "tables.build_table": _after_table,
    "bench.bench_offdiag": _after_bench,
}


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: duration minus the union of child intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    result: dict[str, float] = defaultdict(float)
    for s in spans:
        result[s.name] += (s.end - s.start) - _union_length(children[s.id], s.start, s.end)
    return result


def layer_metrics(spans: list[Span], traced_wall: float, overhead_s: float) -> dict:
    """Per-layer metrics of one traced pass over a workload's op list.

    ``traced_wall`` is the pass's wall time measured around the whole pass,
    output checks included, so that it does not depend on the spans: shares
    and ``trace.coverage`` divide by it.  ``overhead_s`` is the measured cost
    of tracing, reported as is.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    self_s = self_times(spans)

    def attr_sum(names, key):
        return sum(s.attrs[key] for n in names for s in by_name[n])

    summation_calls = sum(len(by_name[n]) for n in SUMMATION)
    terms = attr_sum(SUMMATION, "k")
    summation_self = sum(self_s[n] for n in SUMMATION)
    term_spans = by_name[TERMS]
    terms_s = sum(s.end - s.start for s in term_spans)
    indices = sum(s.attrs["indices"] for s in term_spans)
    naive_pairs = attr_sum(["series.offdiag_naive"], "pairs")
    naive_self = self_s["series.offdiag_naive"]
    top = sum(s.end - s.start for s in by_name["cli.main"])

    metrics = {
        "summation.calls": summation_calls,
        "summation.terms": terms,
        "summation.chunks": len(term_spans),
        "summation.computed_bytes": sum(s.attrs["bytes"] for s in term_spans),
        "summation.workers": max((s.attrs["workers"] for n in SUMMATION
                                  for s in by_name[n]), default=0),
        "summation.self_s": summation_self,
        "summation.ns_per_term": summation_self / terms * 1e9 if terms else 0.0,
        "series.terms_s": terms_s,
        "series.terms_ns_per_term": terms_s / indices * 1e9 if indices else 0.0,
        "series.offdiag_naive.calls": len(by_name["series.offdiag_naive"]),
        "series.offdiag_naive.pairs": naive_pairs,
        "series.offdiag_naive.mpairs_per_s":
            naive_pairs / naive_self / 1e6 if naive_pairs else 0.0,
        "fixedpoint.iterations": attr_sum(["fixedpoint.iterate_fixed_point"], "iterations"),
        "fixedpoint.f_of_t.calls": len(by_name["fixedpoint.f_of_t"]),
        "fixedpoint.g_of_t.calls": len(by_name["fixedpoint.g_of_t"]),
        "tables.build_table.calls": len(by_name["tables.build_table"]),
        "tables.rows": attr_sum(["tables.build_table"], "rows"),
        "bench.gate_margin": max((s.attrs["gate_margin"]
                                  for s in by_name["bench.bench_offdiag"]), default=0.0),
        "zeros.load_catalog.calls": len(by_name["zeros.load_catalog"]),
        "zeros.get_zero.calls": len(by_name["zeros.get_zero"]),
        "cli.main.calls": len(by_name["cli.main"]),
        "cli.main.self_s": self_s["cli.main"],
        "trace.overhead_s": overhead_s,
        "trace.coverage": top / traced_wall,
    }
    for name in SHARED:
        metrics[f"{name}.self_share"] = self_s[name] / traced_wall
    return metrics

