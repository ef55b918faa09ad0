"""Tests of the benchmark itself.

    python3 -m pytest benchmark/test_benchmark.py -q

They run small ops in-process through the same runner the benchmark child
uses, plus two short end-to-end runs of ``run.py`` on the ``tables`` workload.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import runner  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import zetagamma.bench  # noqa: E402
import zetagamma.cli  # noqa: E402
import zetagamma.tables  # noqa: E402
from zetagamma import FixedPointMap, iterate_fixed_point  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRIC_MAP = json.loads((HERE / "metric_map.json").read_text(encoding="utf-8"))


def _g_iterates(k, iters=3):
    return iterate_fixed_point(FixedPointMap.G_MAP, workloads.G_Y0, k, iters,
                               1e-12).iterates[1:]


def _bench_op(tmp_path, k_list=(60,)):
    path = tmp_path / "zeros.txt"
    workloads.write_zeros_file(path, [21.5])
    return workloads.bench_op(path, 1, 21.5, k_list)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tables", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name}: ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert f"ops: {result['attempted']}" in lines
    assert "ops_failed: 0" in lines


def test_wrong_reference_counts_as_failed(monkeypatch):
    right = _g_iterates(2000)
    wrong = (right[0], right[1] + 1e-3, right[2])
    result = runner.run_pass([workloads.iterate_op(2000, expected=right),
                              workloads.iterate_op(2000, expected=wrong)])
    assert result.reasons[0] is None
    assert "deviate" in result.reasons[1]

    monkeypatch.setitem(zetagamma.tables.REF_ZERO_SWEEP, 1000, 14.2)
    (reason,) = runner.run_pass([workloads.table_op("T4")]).reasons
    assert "exceeds" in reason


def test_tripped_bench_gate_counts_as_failed(monkeypatch, tmp_path):
    op = _bench_op(tmp_path)
    assert runner.run_pass([op]).reasons == [None]
    factorized = zetagamma.bench.offdiag_factorized
    monkeypatch.setattr(zetagamma.bench, "offdiag_factorized",
                        lambda params, alternating: factorized(params, alternating) + 1e-6)
    (reason,) = runner.run_pass([op]).reasons
    assert reason == "exit code 1"


def test_traced_and_untraced_runs_agree(tmp_path):
    k = 3000
    main = zetagamma.cli.main
    ops = [workloads.gamma_op(k, expected=0.5774, tol=1e-3),
           workloads.iterate_op(k, expected=_g_iterates(k)),
           workloads.table_op("T4"),
           workloads.gamma_op(k, threads=2, expected=0.5774, tol=1e-3)]
    oracle = _bench_op(tmp_path, k_list=(50, 80))
    untraced = runner.run_pass(ops + [oracle])
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = runner.run_pass(ops + [oracle], tracer)
    finally:
        tracer.uninstall()
    assert zetagamma.cli.main is main
    assert untraced.reasons == traced.reasons == [None] * 5
    assert untraced.values == traced.values

    metrics = spans.layer_metrics(tracer.spans, traced.elapsed,
                                  traced.elapsed - untraced.elapsed)
    factorized_terms = workloads.BENCH_REPEATS * 2 * (50 + 80)
    assert metrics["summation.terms"] == sum(op.nominal_terms for op in ops) + factorized_terms
    assert metrics["series.offdiag_naive.pairs"] == \
        workloads.BENCH_REPEATS * (50 * 49 // 2 + 80 * 79 // 2)
    assert metrics["fixedpoint.iterations"] == 3
    assert metrics["summation.workers"] == 2
    assert metrics["cli.main.calls"] == 5
    assert 0 < metrics["trace.coverage"] < 1
    assert set(metrics) | {"setup.numpy_import_s", "setup.zetagamma_import_s"} == \
        {m["name"] for m in SPEC["per_layer"]}


def test_reference_iterates_match_fsum_oracle():
    def g_fsum(t, k):
        x = t * math.log(k)
        cos_sum = math.fsum(math.cos(t * math.log(n)) / math.sqrt(n) for n in range(1, k + 1))
        return math.cos(x) / math.sin(x) * (
            (0.25 + t * t) / (math.sqrt(k) * math.cos(x)) * cos_sum - 0.5)

    y = workloads.G_Y0
    for expected in workloads.G_ITERATES:
        y = g_fsum(y, workloads.DEEP_K)
        assert y == pytest.approx(expected, abs=1e-12)


def test_self_time_subtracts_union_of_children():
    span = spans.Span
    recorded = [span(1, None, "a", 0, 0.0, 10.0), span(2, 1, "b", 0, 1.0, 4.0),
                span(3, 1, "b", 0, 3.0, 5.0), span(4, 1, "b", 0, 8.0, 12.0)]
    self_s = spans.self_times(recorded)
    assert self_s["a"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert self_s["b"] == pytest.approx(3.0 + 2.0 + 4.0)


def test_spec_matches_workloads_and_metric_map(tmp_path):
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert list(METRIC_MAP["workloads"]) == list(workloads.WORKLOADS)
    zeros_file = str(tmp_path / "oracle-zeros-seed0.txt")
    for name, entry in METRIC_MAP["workloads"].items():
        ops = workloads.WORKLOADS[name](0, tmp_path)
        assert [" ".join(op.argv).replace(zeros_file, "F") for op in ops] == entry["ops"]
        assert sum(op.nominal_terms for op in ops) == entry["nominal_terms"]
    mapped = {name for row in METRIC_MAP["per_layer"] for name in row["metrics"]}
    assert mapped == {m["name"] for m in SPEC["per_layer"]}


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
