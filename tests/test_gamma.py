"""Gamma estimates: route consistency and convergence behavior."""

import math

import pytest

from zetagamma import (
    EULER_GAMMA,
    DomainError,
    GammaMethod,
    SeriesParams,
    builtin_catalog,
    gamma_type1,
    gamma_type2,
    offdiag_naive,
)
from zetagamma.series import gamma_estimates

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


# k on both sides of the 4096-term chunk boundaries; t from the first, the
# 100th and the 100000th zero (t ~ 7.5e4 > k).
@pytest.mark.parametrize("q", [1, 100, 100_000])
@pytest.mark.parametrize("k", [2, 3, 4096, 4097, 4098, 8193])
def test_gamma_estimates_bit_identical_to_lone_calls(k, q):
    t = _zero_t(q)
    pair = gamma_estimates(t, k, q=q)
    lone = (gamma_type1(t, k, q=q), gamma_type2(t, k, q=q))
    assert [e.value.hex() for e in pair] == [e.value.hex() for e in lone]
    assert pair == lone


def test_gamma_estimates_validates_like_lone_calls():
    for bad in [(T1, 1), (0.0, 10), (-T1, 10), (math.inf, 10), (T1, 10.0),
                (T1, True)]:
        with pytest.raises(DomainError):
            gamma_estimates(*bad)
