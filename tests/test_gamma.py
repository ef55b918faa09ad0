"""Gamma estimates: route consistency and convergence behavior."""

import math

import numpy as np
import pytest

from zetagamma import series
from zetagamma import (
    EULER_GAMMA,
    DomainError,
    GammaMethod,
    SeriesParams,
    builtin_catalog,
    f_of_t,
    g_of_t,
    gamma_type1,
    gamma_type2,
    offdiag_naive,
)
from zetagamma.summation import chunked_parallel_sum

T1 = 14.1347251417347


def test_gamma_type1_matches_naive_route():
    # Same quantity through the O(k^2) oracle, k = 1e3: agreement to 1e-10.
    for k in (100, 1000):
        fact = gamma_type1(T1, k).value
        naive = -offdiag_naive(SeriesParams(0.5, T1, k), alternating=True) \
            - math.log(k)
        assert abs(fact - naive) <= 1e-10


def test_gamma_type2_matches_naive_route():
    for k in (100, 1000):
        fact = gamma_type2(T1, k).value
        naive = k / (0.25 + T1 * T1) \
            - offdiag_naive(SeriesParams(0.5, T1, k - 1), alternating=False) \
            - math.log(k - 1)
        assert abs(fact - naive) <= 1e-10


def test_gamma_type1_convergence_direction():
    errors = [abs(gamma_type1(T1, 10**j).value - EULER_GAMMA)
              for j in range(1, 6)]
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_gamma_estimate_metadata():
    est = gamma_type1(T1, 100, q=1)
    assert est.method is GammaMethod.ALT_TYPE1
    assert est.q == 1 and est.k == 100 and est.t_q == T1
    est2 = gamma_type2(T1, 100)
    assert est2.method is GammaMethod.NONALT_TYPE2
    assert est2.q is None
    # numpy scalars are stored as the Python float and int they hold.
    est3 = gamma_type1(np.float64(T1), np.int64(100))
    assert type(est3.t_q) is float and type(est3.k) is int
    assert est3 == gamma_type1(T1, 100)


def test_gamma_preconditions():
    with pytest.raises(DomainError):
        gamma_type1(T1, 1)
    with pytest.raises(DomainError):
        gamma_type2(T1, 1)
    with pytest.raises(DomainError):
        gamma_type1(-3.0, 100)
    with pytest.raises(DomainError):
        gamma_type2(0.0, 100)


def _zero_t(q):
    return next(z.t for z in builtin_catalog().zeros if z.q == q)


# k on both sides of multiples of 4096 and of the default chunk length,
# 16384; t from the first, the 100th and the 100000th zero (t ~ 7.5e4 > k).
@pytest.mark.parametrize("q", [1, 100, 100_000])
@pytest.mark.parametrize("k", [2, 3, 4096, 4097, 4098, 8193, 16384, 16385])
def test_gamma_estimates_bit_identical_to_lone_calls(k, q):
    t = _zero_t(q)
    (pair,) = series._gamma_pairs([k], [(t, q)])
    lone = (gamma_type1(t, k, q=q), gamma_type2(t, k, q=q))
    assert [e.value.hex() for e in pair] == [e.value.hex() for e in lone]
    assert pair == lone


def test_gamma_estimates_validates_like_lone_calls():
    for bad in [(T1, 1), (0.0, 10), (-T1, 10), (math.inf, 10), (T1, 10.0),
                (T1, True), (None, 10), (True, 10), ("14", 10), (1j, 10)]:
        with pytest.raises(DomainError):
            series._gamma_pairs([bad[1]], [(bad[0], None)])
        with pytest.raises(DomainError):
            series._gamma_pairs([100, bad[1]], [(T1, 1), (bad[0], None)])


def _sum_to(t, m):
    # S(1/2 + it, m), each weighted trig column rebuilt from the half-angle
    # tangent u = tan((t/2) log n) and r = n^-1/2/(1 + u^2) as
    # n^-1/2 cos = (1 - u^2) r and -n^-1/2 sin = (-2u) r, through its own
    # chunked sum of unsigned terms.
    def column(trig):
        def terms(idx):
            nf = idx.astype(np.float64)
            u = np.tan(0.5 * t * np.log(nf))
            r = (1.0 / np.sqrt(nf)) / (u * u + 1.0)
            return (1.0 - u * u) * r if trig == 0 else -2.0 * u * r
        return chunked_parallel_sum(terms, m)

    return complex(column(0), column(1))


def _estimates_from_columns(t, k):
    # type1 and type2 built from separate chunked sums: the plain sums at
    # k//2, k and k - 1, and H at k and k - 1.  The alternating sum at k is
    # 2^(1-s) S(s, k//2) - S(s, k).
    def off(z, last):
        return z.real * z.real + z.imag * z.imag \
            - chunked_parallel_sum(lambda n: 1.0 / n, last)

    alt = 2.0 ** (1.0 - complex(0.5, t)) * _sum_to(t, k // 2) - _sum_to(t, k)
    plain = _sum_to(t, k - 1)
    return (-off(alt, k) - math.log(k),
            k / (0.25 + t * t) - off(plain, k - 1) - math.log(k - 1))


@pytest.mark.parametrize("k", [2, 3, 4096, 4097, 8192, 8193, 16385])
def test_estimates_match_signed_and_cut_column_sums(k):
    # The traversal reads every sum of all zeros and all k off one unsigned
    # array per trig factor, as prefix ends inside the reduction; each value
    # must equal the columns summed one by one, also when other k share the
    # traversal.
    zeros = [(_zero_t(q), q) for q in (1, 2, 100, 100_000)]
    expected = [[v.hex() for v in _estimates_from_columns(t, k)]
                for t, _ in zeros]
    assert [[e.value.hex() for e in (gamma_type1(t, k), gamma_type2(t, k))]
            for t, _ in zeros] == expected
    assert [[e.value.hex() for e in pair]
            for pair in series._gamma_pairs([k], zeros)] == expected
    shared = series._gamma_pairs([3, k, 2 * k + 1, k], zeros)
    for row in (shared[4:8], shared[12:]):
        assert [[e.value.hex() for e in pair] for pair in row] == expected


@pytest.mark.parametrize("op, calls", [
    (lambda k: gamma_type1(T1, k), 2),
    (lambda k: g_of_t(14.2, k), 1),
    (lambda k: f_of_t(14.2, k), 2),
], ids=["gamma_type1", "g_of_t", "f_of_t"])
def test_chunked_sum_calls_per_op(chunked_sums, op, calls):
    # The benchmark counts the terms of an op through the chunked sums, and
    # its traced run must equal k per sum: pin the calls, their k and the
    # indices handed to the callbacks.
    k = 3000
    op(k)
    assert chunked_sums.k == [k] * calls
    assert sum(chunked_sums.indices) == calls * k
