"""Fixed-point maps and the iteration experiment."""

import math
import time
from dataclasses import asdict

import pytest

from zetagamma import series
from zetagamma import (
    DomainError,
    FixedPointMap,
    FixedPointStatus,
    SingularGuardError,
    builtin_catalog,
    f_of_t,
    g_of_t,
    iterate_fixed_point,
)
from zetagamma.summation import MAX_DIRECT_K

T1 = 14.1347251417347
T3 = 25.0108575801457


def test_f_reference_rows():
    assert abs(f_of_t(T1, 10) - 30.2497502548065) <= 1e-6
    assert abs(f_of_t(T1, 10**5) - 14.1347605815184) <= 1e-6
    assert abs(f_of_t(T3, 10**5) - 25.0109204581271) <= 1e-6


def test_t_squared_reference_value():
    ref = 14.1347605815184 ** 2
    assert abs(f_of_t(T1, 10**5) ** 2 - ref) <= 2e-4 * ref


def test_f_singular_domain():
    # At k=2 and t log 2 = pi the inverted term goes negative.
    with pytest.raises(SingularGuardError):
        f_of_t(math.pi / math.log(2.0), 2)


def test_f_preconditions():
    with pytest.raises(DomainError):
        f_of_t(-1.0, 100)
    with pytest.raises(DomainError):
        f_of_t(T1, 1)


def test_g_near_fixed_point():
    assert abs(g_of_t(T1, 10**5) - T1) <= 1e-2


def test_g_residual_shrinks_from_coarse_to_fine():
    # Not monotone in k for every zero (trig-phase amplification), but the
    # k=1e5 residual always beats k=1e3 for the first ten ordinates.
    for zero in builtin_catalog().zeros[:10]:
        coarse = abs(g_of_t(zero.t, 10**3) - zero.t)
        fine = abs(g_of_t(zero.t, 10**5) - zero.t)
        assert fine < coarse
        assert fine < 0.1


def test_g_map_iterates_at_one_million():
    # The first three iterates from 14.2 at k = 1e6, computed with math.fsum
    # over math.cos terms (benchmark/workloads.py, G_ITERATES).
    trace = iterate_fixed_point(FixedPointMap.G_MAP, 14.2, 10**6, 3, 0.0)
    expected = (14.198621169951432, 14.197263681284214, 14.19592709869613)
    assert len(trace.iterates) == 4
    for got, want in zip(trace.iterates[1:], expected):
        assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("t, k", [
    *((14.2, k) for k in (2, 4097, 16384, 16385, 100003, 10**6)),
    (236.5, 300000)])
def test_g_reads_the_real_part_of_partial_zeta(t, k):
    # g's cosine sum is Re S(1/2 + it, k) from the shared traversal, bit for
    # bit: the same n^-1/2 row and kernel, the sine half skipped.  A sum of
    # cos/sqrt(n) instead of cos * n^-1/2 differs at (14.2, 16385).
    x = t * math.log(k)
    c, s = math.cos(x), math.sin(x)
    cos_sum = series.partial_zeta(0.5, t, k).real
    expected = (c / s) * ((0.25 + t * t) / (math.sqrt(k) * c) * cos_sum - 0.5)
    assert g_of_t(t, k).hex() == expected.hex()


def test_g_singular_guard():
    k = 1000
    with pytest.raises(SingularGuardError):
        g_of_t((math.pi / 2.0) / math.log(k), k)


def test_g_refuses_k_above_direct_cap_quickly():
    start = time.perf_counter()
    with pytest.raises(DomainError, match="cap"):
        g_of_t(14.2, MAX_DIRECT_K + 1)
    assert time.perf_counter() - start < 1.0


def test_iterate_converged_on_loose_tolerance():
    trace = iterate_fixed_point(FixedPointMap.G_MAP, T1, 10**5, 5, 1e-2)
    assert trace.status is FixedPointStatus.CONVERGED
    assert len(trace.iterates) == 2
    assert abs(trace.iterates[1] - T1) <= 1e-2
    assert trace.final_residual <= 1e-2


def test_iterate_max_iters():
    trace = iterate_fixed_point(FixedPointMap.G_MAP, T1, 10**5, 2, 0.0)
    assert trace.status is FixedPointStatus.MAX_ITERS
    assert len(trace.iterates) == 3
    assert trace.final_residual > 0.0


def test_iterate_diverged():
    trace = iterate_fixed_point(FixedPointMap.G_MAP, 5.0, 1000, 50, 1e-12)
    assert trace.status is FixedPointStatus.DIVERGED
    assert trace.iterates[-1] <= 0.0 or trace.iterates[-1] >= 50.0


def test_iterate_singular_guard_status():
    k = 1000
    y0 = (math.pi / 2.0) / math.log(k)
    trace = iterate_fixed_point(FixedPointMap.G_MAP, y0, k, 5, 1e-12)
    assert trace.status is FixedPointStatus.SINGULAR_GUARD
    assert len(trace.iterates) >= 1
    assert trace.iterates[0] == y0
    assert trace.final_residual is None


def test_iterate_f_map_terminates_with_definite_status():
    trace = iterate_fixed_point(FixedPointMap.F_MAP, 14.2, 1000, 50, 1e-12)
    assert trace.status in set(FixedPointStatus)
    assert len(trace.iterates) >= 2


def test_iterate_f_map_sums_harmonic_once_per_run(chunked_sums):
    # k is fixed for the run: H_k once, then one traversal per step.  The
    # iterates are pinned to those of the map summing H_k at every step,
    # and equal chained f_of_t calls bit for bit.
    trace = iterate_fixed_point(FixedPointMap.F_MAP, 14.2, 1000, 3, 0.0)
    assert chunked_sums.k == [1000] * 4
    assert [y.hex() for y in trace.iterates] == [
        "0x1.c666666666666p+3", "0x1.cd62c1605b27cp+3",
        "0x1.ae7431d9fead5p+3", "0x1.ec89c22f1e1bep+3"]
    chained = [14.2]
    for _ in range(3):
        chained.append(f_of_t(chained[-1], 1000))
    assert trace.iterates == tuple(chained)


def test_iterate_deterministic():
    a = iterate_fixed_point(FixedPointMap.G_MAP, 14.2, 10**4, 10, 1e-12)
    b = iterate_fixed_point(FixedPointMap.G_MAP, 14.2, 10**4, 10, 1e-12)
    assert a.iterates == b.iterates
    assert a.status is b.status


def test_iterate_preconditions():
    with pytest.raises(DomainError):
        iterate_fixed_point(FixedPointMap.G_MAP, -1.0, 100, 5, 1e-12)
    with pytest.raises(DomainError):
        iterate_fixed_point(FixedPointMap.G_MAP, 14.2, 100, 0, 1e-12)
    for name in ("g", "f", None):
        with pytest.raises(DomainError, match="FixedPointMap"):
            iterate_fixed_point(name, 14.0, 100, 3, 0.0)


@pytest.mark.parametrize("max_iters, tol", [
    (5, math.nan), (5, -1.0), (5, math.inf), (2.5, 1e-12), (True, 1e-12),
])
def test_iterate_rejects_bad_tol_and_max_iters(max_iters, tol):
    with pytest.raises(DomainError):
        iterate_fixed_point(FixedPointMap.G_MAP, 14.2, 1000, max_iters, tol)


@pytest.mark.parametrize("call", [
    lambda: f_of_t(math.inf, 100),
    lambda: g_of_t(math.inf, 100),
    lambda: g_of_t(1e308, 100),
    lambda: f_of_t(1e308, 100),
    lambda: iterate_fixed_point(FixedPointMap.G_MAP, math.inf, 100, 5, 1e-12),
], ids=["f_of_t", "g_of_t", "g_of_t_phase_overflow", "f_of_t_phase_overflow",
        "iterate_fixed_point"])
def test_non_finite_ordinate_rejected(call):
    with pytest.raises(DomainError, match="finite"):
        call()


def test_trace_serialization_shapes():
    # The CLI renders a trace as asdict, in field order, enums by value.
    trace = iterate_fixed_point(FixedPointMap.G_MAP, T1, 10**4, 2, 0.0)
    payload = asdict(trace)
    assert list(payload) == ["map", "k", "tol", "status", "final_residual",
                             "iterates"]
    assert payload["map"] is FixedPointMap.G_MAP
    assert payload["status"] is FixedPointStatus.MAX_ITERS
    assert payload["iterates"][0] == T1 and len(payload["iterates"]) == 3
