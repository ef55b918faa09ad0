"""Benchmark harness: equivalence gating and the complexity gap."""

from dataclasses import astuple

import numpy as np
import pytest

from zetagamma import DomainError, OracleCapError, bench, bench_offdiag, series
from zetagamma.bench import CSV_HEADER

T1 = 14.1347251417347


def test_empty_list_gives_empty_reports():
    assert bench_offdiag(T1, []) == []


def test_reports_agree_and_serialize(monkeypatch):
    monkeypatch.setattr(bench, "REPEATS", 1)
    reports = bench_offdiag(T1, [500, 1000])
    assert len(reports) == 2
    for rep in reports:
        assert rep.max_abs_diff <= 1e-11
        row = astuple(rep)
        assert len(row) == len(CSV_HEADER)
        assert row[0] == rep.k and row[1] == T1


def test_factorized_beats_naive_at_10k():
    (rep,) = bench_offdiag(T1, [10_000])
    assert rep.factorized_seconds < rep.naive_seconds
    assert rep.max_abs_diff <= 1e-10


def test_cap_violation():
    with pytest.raises(OracleCapError):
        bench_offdiag(T1, [100_000])


def test_cap_is_read_at_call_time(monkeypatch):
    timed = []
    monkeypatch.setattr(bench, "_median_time",
                        lambda fn: timed.append(fn) or (0.0, fn()))
    monkeypatch.setattr(series, "ORACLE_CAP", 20)
    with pytest.raises(OracleCapError, match="cap 20"):
        bench_offdiag(T1, [10, 21])
    assert timed == []


@pytest.mark.parametrize("bad", [10.7, 10.0, True])
def test_k_must_be_an_integer(bad, monkeypatch):
    # A float k is refused, not truncated, and a bool is not k = 1; the
    # whole list is checked before any route is timed.
    timed = []
    monkeypatch.setattr(bench, "_median_time",
                        lambda fn: timed.append(fn) or (0.0, fn()))
    with pytest.raises(DomainError, match="k must be an integer"):
        bench_offdiag(T1, [10, bad])
    assert timed == []
    (rep,) = bench_offdiag(T1, [np.int64(10)])
    assert rep.k == 10 and type(rep.k) is int
