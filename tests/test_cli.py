"""Command-line interface: outputs, formats, and exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import zetagamma
from zetagamma import ConsistencyError, FixedPointStatus, FixedPointTrace
from zetagamma.cli import RUNTIME_WARN_K, main

T1_GAMMA_TYPE1_K1E5 = 0.577218164898902
T1_GAMMA_TYPE2_K10 = 0.624430642787654


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gamma_type1_value_and_metadata(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--method", "type1",
                           "--q", "1", "--k", "100000")
    assert code == 0
    lines = out.splitlines()
    assert abs(float(lines[0]) - T1_GAMMA_TYPE1_K1E5) <= 1e-9
    assert "method=type1" in lines[1] and "q=1" in lines[1]


def test_gamma_type2_small_k(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--method", "type2",
                           "--q", "1", "--k", "10")
    assert code == 0
    assert abs(float(out.splitlines()[0]) - T1_GAMMA_TYPE2_K10) <= 1e-9


def test_gamma_json_mode(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--json", "--method", "type2",
                           "--q", "2", "--k", "100")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["value", "method", "q", "t_q", "k"]
    assert payload["method"] == "type2" and payload["q"] == 2
    assert payload["t_q"] == 21.0220396387716
    assert math.isfinite(payload["value"])


def test_gamma_catalog_miss_exits_2(capsys):
    code, _, err = run_cli(capsys, "gamma", "--method", "type1",
                           "--q", "11", "--k", "100")
    assert code == 2
    assert "nearest" in err


def test_gamma_domain_error_exits_3(capsys):
    code, _, err = run_cli(capsys, "gamma", "--method", "type1",
                           "--q", "1", "--k", "1")
    assert code == 3
    assert "k" in err


def test_gamma_k_above_direct_cap_exits_3(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "gamma", "--method", "type1",
                             "--q", "1", "--k", "1000000001")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "cap" in err


def test_zeros_file_flag(capsys, tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("2.5\n7.5\n")
    code, out, _ = run_cli(capsys, "gamma", "--zeros-file", str(path),
                           "--method", "type1", "--q", "2", "--k", "50")
    assert code == 0
    assert "t_q=7.5" in out


def test_zero_iterate_csv_and_exit(capsys):
    code, out, err = run_cli(capsys, "zero-iterate", "--map", "g",
                             "--y0", "14.1347251417347", "--k", "100000",
                             "--iters", "1", "--tol", "1e-12")
    assert code == 0  # MAX_ITERS exits 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["iteration", "value"]
    assert len(rows) == 3
    assert abs(float(rows[2][1]) - 14.1347251417347) <= 1e-2
    assert "status:" in err


def test_zero_iterate_diverged_exits_4(capsys):
    code, _, _ = run_cli(capsys, "zero-iterate", "--map", "g",
                         "--y0", "5.0", "--k", "1000", "--iters", "50")
    assert code == 4


def test_zero_iterate_singular_exits_5(capsys):
    y0 = (math.pi / 2.0) / math.log(1000)
    code, _, _ = run_cli(capsys, "zero-iterate", "--map", "g",
                         "--y0", str(y0), "--k", "1000", "--iters", "5")
    assert code == 5


def test_zero_iterate_non_finite_y0_exits_3(capsys):
    code, _, err = run_cli(capsys, "zero-iterate", "--map", "g",
                           "--y0", "inf", "--k", "1000", "--iters", "5")
    assert code == 3
    assert "y0" in err


@pytest.mark.parametrize("k", [RUNTIME_WARN_K - 1, RUNTIME_WARN_K])
def test_zero_iterate_warns_from_runtime_warn_k(capsys, monkeypatch, k):
    def one_iterate(map_, y0, k, iters, tol):
        return FixedPointTrace(iterates=(y0,), k=k,
                               status=FixedPointStatus.MAX_ITERS,
                               final_residual=None, map=map_, tol=tol)

    monkeypatch.setattr("zetagamma.cli.iterate_fixed_point", one_iterate)
    code, _, err = run_cli(capsys, "zero-iterate", "--map", "g",
                           "--y0", "14.2", "--k", str(k), "--iters", "1")
    assert code == 0
    assert err.startswith("warning: ") == (k >= RUNTIME_WARN_K)


@pytest.mark.parametrize("map_name, message", [
    ("g", "error: t log k = inf is not finite at t=1e+308, k=100\n"),
    ("f", "error: t log k = inf is not finite at t=1e+308, k=100\n"),
])
def test_zero_iterate_phase_overflow_exits_3_with_one_line(map_name, message):
    # t log n overflows binary64: a typed error, with no traceback and no
    # numpy warning on stderr.
    src = str(Path(zetagamma.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "zetagamma.cli", "zero-iterate", "--map",
         map_name, "--y0", "1e308", "--k", "100", "--iters", "2"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == message


def test_bench_phase_overflow_exits_3_with_one_line(tmp_path):
    # The brute-force oracle at an ordinate whose t log(m/n) overflows: a
    # typed error, with no numpy warning on stderr.
    zeros = tmp_path / "zeros.txt"
    zeros.write_text("1 1e308\n")
    src = str(Path(zetagamma.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "zetagamma.cli", "bench", "--zeros-file",
         str(zeros), "--q", "1", "--k", "100"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: non-finite term in summation input\n"


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_zero_iterate_bad_tol_exits_3(capsys, tol):
    code, out, err = run_cli(capsys, "zero-iterate", "--map", "g",
                             "--y0", "14", "--k", "100", "--iters", "2",
                             "--tol", tol)
    assert code == 3
    assert out == ""
    assert "tol" in err


def test_zero_iterate_refuses_an_iteration_count_past_the_cap(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "zero-iterate", "--map", "g",
                             "--y0", "14.2", "--k", "1000", "--iters",
                             "1000000000000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "max_iters" in err


def test_zeros_file_non_finite_ordinate_exits_2(capsys, tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("14.1\ninf\n")
    code, _, err = run_cli(capsys, "gamma", "--zeros-file", str(path),
                           "--method", "type1", "--q", "1", "--k", "50")
    assert code == 2
    assert "line 2" in err


def test_zero_iterate_json(capsys):
    code, out, _ = run_cli(capsys, "zero-iterate", "--json", "--map", "f",
                           "--y0", "14.2", "--k", "1000", "--iters", "3")
    payload = json.loads(out)
    assert list(payload) == ["map", "k", "tol", "status", "final_residual",
                             "iterates", "period"]
    assert payload["map"] == "f"
    assert len(payload["iterates"]) >= 2
    assert code in (0, 4, 5)


def test_zero_iterate_cycle_exits_0_with_its_period(capsys):
    # From 14.2 at k = 1000 the g map returns to an earlier iterate bit for
    # bit, in steps too large for --tol 0: the run stops there, however many
    # steps --iters allows.
    argv = ("zero-iterate", "--map", "g", "--y0", "14.2", "--k", "1000",
            "--iters", "10000", "--tol", "0")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--json")
    assert time.perf_counter() - start < 1.0
    payload = json.loads(out)
    assert code == 0 and payload["status"] == "cycle"
    period = payload["period"]
    assert period >= 2 and payload["iterates"][-1] == \
        payload["iterates"][-1 - period]
    code, _, err = run_cli(capsys, *argv)
    assert code == 0 and err.startswith("status: cycle (")
    assert err.endswith(f", period={period})\n")


def test_tables_t1_default_shape(capsys):
    code, out, _ = run_cli(capsys, "tables", "--id", "T1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "gamma_type1", "gamma_type2",
                       "dev_type1", "dev_type2"]
    assert len(rows) == 6
    for row in rows[1:]:
        assert float(row[3]) <= 1e-9 and float(row[4]) <= 1e-9
    assert "\r" not in out


def test_tables_k_override_single_row(capsys):
    code, out, _ = run_cli(capsys, "tables", "--id", "T1", "--k", "10")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert len(rows) == 2
    assert rows[1][0] == "10"
    assert float(rows[1][4]) <= 1e-9


def test_tables_out_file_and_json(capsys, tmp_path):
    out_path = tmp_path / "t4.csv"
    code, _, _ = run_cli(capsys, "tables", "--id", "T4",
                         "--out", str(out_path))
    assert code == 0
    rows = list(csv.reader(out_path.open()))
    assert rows[0] == ["k", "zero_estimate", "dev"]
    assert len(rows) == 6

    code, out, _ = run_cli(capsys, "tables", "--json", "--id", "T4",
                           "--k", "100")
    payload = json.loads(out)
    assert payload["table_id"] == "T4"
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["dev"] <= 1e-6


def test_tables_unwritable_out_exits_1(capsys, tmp_path):
    out_path = tmp_path / "missing" / "t1.csv"
    code, out, err = run_cli(capsys, "tables", "--id", "T1", "--k", "10",
                             "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}")
    assert not out_path.exists()


def test_tables_q_subset(capsys):
    code, out, _ = run_cli(capsys, "tables", "--id", "T5", "--q", "1,3")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert [r[0] for r in rows[1:]] == ["1", "3"]
    for row in rows[1:]:
        assert float(row[3]) <= 1e-6


def test_tables_off_domain_row_warns_and_exits_0(capsys):
    # Zero 2 leaves the f map's domain at k = 10 only.
    code, out, err = run_cli(capsys, "tables", "--id", "T4", "--q", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["10", "", ""]
    assert len(rows) == 6 and all(row[1] for row in rows[2:])
    assert err.startswith("warning: table T4 row k=10: inverted term ")
    assert err.endswith(", k=10\n") and err.count("\n") == 1

    code, out, err_json = run_cli(capsys, "tables", "--json", "--id", "T4",
                                  "--q", "2")
    assert code == 0 and err_json == err
    assert json.loads(out)["rows"][0] == {"k": 10, "zero_estimate": None,
                                          "dev": None}


def test_bench_csv_and_cap(capsys):
    code, out, _ = run_cli(capsys, "bench", "--k", "200,400", "--q", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "t", "naive_seconds", "factorized_seconds",
                       "max_abs_diff"]
    assert len(rows) == 3
    assert float(rows[1][4]) <= 1e-10

    code, _, err = run_cli(capsys, "bench", "--k", "100000", "--q", "1")
    assert code == 3
    assert "cap" in err


def test_bench_json_keys(capsys):
    code, out, _ = run_cli(capsys, "bench", "--json", "--k", "50,60")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["reports"]
    assert [r["k"] for r in payload["reports"]] == [50, 60]
    for report in payload["reports"]:
        assert list(report) == ["k", "t", "naive_seconds",
                                "factorized_seconds", "max_abs_diff"]


def test_bench_cap_error_names_no_cli_option(capsys):
    code, out, err = run_cli(capsys, "bench", "--k", "100000", "--q", "1")
    assert code == 3
    assert out == ""
    assert err == "error: k=100000 exceeds the brute-force cap 50000\n"


@pytest.mark.parametrize("ks", ["2000,60000", "50000,60000"])
def test_bench_refuses_a_k_past_the_cap_before_any_timing(capsys, monkeypatch,
                                                          ks):
    # Every k is checked against the cap before the first k is timed: a
    # k past it later in the list does not wait for the others' timings.
    timed = []
    monkeypatch.setattr("zetagamma.bench._median_time",
                        lambda fn: timed.append(fn) or (0.0, fn()))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bench", "--k", ks)
    assert time.perf_counter() - start < 1.0
    assert (code, out, timed) == (3, "", [])
    assert err == "error: k=60000 exceeds the brute-force cap 50000\n"


def test_threads_flag_does_not_change_output(capsys):
    _, base, _ = run_cli(capsys, "gamma", "--method", "type1",
                         "--q", "3", "--k", "20000")
    _, multi, _ = run_cli(capsys, "gamma", "--threads", "4", "--method",
                          "type1", "--q", "3", "--k", "20000")
    assert multi == base
    # reset the worker default for later tests
    from zetagamma import set_num_workers

    set_num_workers(1)


def test_threads_zero_exits_3(capsys):
    code, out, err = run_cli(capsys, "gamma", "--threads", "0", "--method",
                             "type1", "--q", "1", "--k", "100")
    assert code == 3
    assert out == ""
    assert err == "error: worker count must be >= 1\n"


def test_bench_consistency_error_exits_1(capsys, monkeypatch):
    def disagree(t, k_list):
        raise ConsistencyError("routes disagree")

    monkeypatch.setattr("zetagamma.cli.bench_offdiag", disagree)
    code, out, err = run_cli(capsys, "bench", "--k", "10")
    assert code == 1
    assert out == ""
    assert err == "error: routes disagree\n"


@pytest.mark.parametrize("make", ["missing", "directory", "not_utf8"])
def test_unreadable_zeros_file_exits_2_without_traceback(tmp_path, make):
    path = tmp_path / "zeros.txt"
    if make == "directory":
        path.mkdir()
    elif make == "not_utf8":
        path.write_bytes(b"\xff\xfe14.1\n")
    src = str(Path(zetagamma.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "zetagamma.cli", "gamma", "--zeros-file",
         str(path), "--method", "type1", "--q", "1", "--k", "50"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: cannot read {path}: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("tables", "--id", "T2", "--q", ""),
    ("tables", "--id", "T5", "--q", ","),
    ("bench", "--k", ","),
    ("bench", "--k", ""),
])
def test_empty_integer_list_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected at least one integer" in captured.err
