"""Timing harness: brute-force vs factorized off-diagonal summation.

The factorized route turns the O(k^2) pair sum into O(k); this module
measures the gap and, more importantly, refuses to report timings unless
the two routes agree to 1e-10, so a benchmark run doubles as a
correctness gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Sequence

from . import series
from .errors import ConsistencyError, OracleCapError
from .series import SeriesParams, offdiag_factorized, offdiag_naive
from .summation import _check_positive_int

#: Reports with a larger naive/factorized discrepancy abort the run.
MAX_ALLOWED_DIFF = 1e-10

#: Timed runs of each route per k; a report keeps their median.
#: ``benchmark/workloads.py`` mirrors it as ``BENCH_REPEATS``.
REPEATS = 3


@dataclass(frozen=True)
class BenchReport:
    """One timed naive-vs-factorized comparison at a single (k, t).

    ``oracle_threads`` is the number of threads the brute-force oracle ran
    on (see ``series.offdiag_naive``): ``naive_seconds`` depends on it, so
    timings from different hosts compare only with it.
    """

    k: int
    t: float
    naive_seconds: float
    factorized_seconds: float
    max_abs_diff: float
    oracle_threads: int


CSV_HEADER = tuple(f.name for f in fields(BenchReport))


def _median_time(fn) -> tuple[float, float]:
    # Monotonic wall clock, median of REPEATS runs; returns (seconds, value).
    times = []
    value = None
    for _ in range(REPEATS):
        start = time.monotonic()
        value = fn()
        times.append(time.monotonic() - start)
    times.sort()
    return times[len(times) // 2], value


def bench_offdiag(t: float, k_list: Sequence[int]) -> list[BenchReport]:
    """Time both off-diagonal routes on identical inputs.

    Uses the alternating variant (the production gamma route), timed
    ``REPEATS`` times per route and k.  Each k in ``k_list`` must be an
    integer (a float or a bool is a ``DomainError``) and at most
    ``series.ORACLE_CAP``, read at call time (``OracleCapError``); the
    whole list is checked before any timing.  Raises
    ``ConsistencyError`` if any discrepancy exceeds ``MAX_ALLOWED_DIFF``.
    """
    ks = [_check_positive_int(k, "k") for k in k_list]
    cap = series.ORACLE_CAP
    for k in ks:
        if k > cap:
            raise OracleCapError(f"k={k} exceeds the brute-force cap {cap}")
    reports = []
    for k in ks:
        params = SeriesParams(0.5, t, k)
        naive_s, naive_v = _median_time(
            lambda: offdiag_naive(params, alternating=True))
        fact_s, fact_v = _median_time(
            lambda: offdiag_factorized(params, alternating=True))
        diff = abs(naive_v - fact_v)
        if diff > MAX_ALLOWED_DIFF:
            raise ConsistencyError(
                f"naive and factorized off-diagonal sums disagree by {diff:.3e} "
                f"at k={k}, t={t!r} (limit {MAX_ALLOWED_DIFF:.1e})")
        reports.append(BenchReport(k=k, t=t, naive_seconds=naive_s,
                                   factorized_seconds=fact_s, max_abs_diff=diff,
                                   oracle_threads=series._naive_plan(k)[1]))
    return reports
