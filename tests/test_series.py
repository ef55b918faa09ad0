"""Series-core operations against independent oracles and closed forms."""

import itertools
import math
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from zetagamma import series as series_module
from zetagamma.summation import (
    MAX_DIRECT_K,
    chunked_parallel_pair_sum,
    chunked_parallel_sum,
)
from zetagamma import (
    EULER_GAMMA,
    DomainError,
    EulerMaclaurinOrder,
    OracleCapError,
    SeriesParams,
    builtin_catalog,
    em_rhs,
    harmonic_asymptotic,
    harmonic_partial_sum,
    offdiag_factorized,
    offdiag_naive,
    partial_zeta,
    stieltjes_estimate,
    trig_sums,
    zeta_em,
)

T1 = 14.1347251417347
T2 = 21.0220396387716


# ----------------------------- harmonic sums ------------------------------

def test_harmonic_trivial():
    assert harmonic_partial_sum(1) == 1.0
    assert harmonic_partial_sum(2) == 1.5


def test_harmonic_exact_rational_oracle():
    h10 = sum(Fraction(1, n) for n in range(1, 11))
    assert h10 == Fraction(7381, 2520)
    assert abs(harmonic_partial_sum(10) - float(h10)) <= 1e-15
    h100 = float(sum(Fraction(1, n) for n in range(1, 101)))
    assert abs(harmonic_partial_sum(100) - h100) <= 1e-14


def test_harmonic_rejects_zero():
    with pytest.raises(DomainError):
        harmonic_partial_sum(0)


def test_bool_rejected_where_integer_expected():
    with pytest.raises(DomainError):
        harmonic_partial_sum(True)
    with pytest.raises(DomainError):
        SeriesParams(0.5, T1, True)
    with pytest.raises(DomainError):
        stieltjes_estimate(True, 100)


@pytest.mark.parametrize("call", [
    lambda: em_rhs(math.inf, 10),
    lambda: harmonic_asymptotic(10, 0.5, 2.5),
    lambda: harmonic_asymptotic(10, 0.5, True),
    lambda: harmonic_asymptotic(10, math.nan, 2),
    lambda: harmonic_asymptotic(10, math.inf, 2),
    lambda: harmonic_asymptotic(10, -math.inf, 2),
    lambda: harmonic_asymptotic(10, 0.5, 9),
    lambda: harmonic_asymptotic(10**400, 0.5, 2),
    lambda: em_rhs(14.1, 10**400),
    lambda: harmonic_partial_sum(10**5000),
    # (log m)^(n+1) leaves binary64 from n = 270 at m = 1e6, the terms'
    # (log j)^n from n = 300: no OverflowError, no numpy overflow warning.
    lambda: stieltjes_estimate(270, 10**6),
    lambda: stieltjes_estimate(300, 10**6),
    # n^-sigma past binary64: no numpy overflow warning ahead of the error.
    lambda: partial_zeta(-1e6, 0.0, 10),
    lambda: partial_zeta(-400.0, 1.0, 10, True),
    lambda: zeta_em(-400.0, 0.0, 10),
    # t log k past binary64: no ZeroDivisionError from the complex power.
    lambda: em_rhs(1e308, 10),
], ids=["em_rhs_inf", "n_terms_float", "n_terms_bool",
        "gamma_nan", "gamma_inf", "gamma_-inf", "n_terms_past_table",
        "harmonic_asymptotic_k_past_binary64", "em_rhs_k_past_binary64",
        "harmonic_k_past_int_str_limit", "stieltjes_tail_past_binary64",
        "stieltjes_terms_past_binary64", "powers_past_binary64",
        "alternating_powers_past_binary64", "zeta_em_powers_past_binary64",
        "em_rhs_phase_past_binary64"])
def test_typed_errors_at_library_edge(call):
    with pytest.raises(DomainError):
        call()


def test_harmonic_asymptotic_matches_partial_sum():
    gamma64 = 0.5772156649015329
    # remainder after the B_4 term is B_6/(6 k^6) ~ 3.97e-9 at k=10
    assert abs(harmonic_asymptotic(10, gamma64, 2) -
               harmonic_partial_sum(10)) <= 5e-9
    assert abs(harmonic_asymptotic(10, gamma64, 3) -
               harmonic_partial_sum(10)) <= 1e-10
    h = harmonic_partial_sum(10**6)
    assert abs(harmonic_asymptotic(10**6, gamma64, 3) - h) <= 1e-14 * abs(h)


def test_harmonic_asymptotic_trivial():
    assert harmonic_asymptotic(1, 0.0, 0) == 0.5


def test_bernoulli_table_values():
    # B_2..B_16, the exact rationals behind the Euler-Maclaurin coefficients.
    expect = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
              Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730),
              Fraction(7, 6), Fraction(-3617, 510))
    assert series_module._bernoulli_even_rationals(8) == expect


# ------------------------------- Stieltjes --------------------------------

def test_stieltjes_zeroth_approaches_gamma():
    assert abs(stieltjes_estimate(0, 10**6) - EULER_GAMMA) <= 1e-6


def test_stieltjes_higher_orders():
    assert abs(stieltjes_estimate(1, 10**6) - (-0.072815)) <= 1e-4
    assert abs(stieltjes_estimate(2, 10**6) - (-0.009690)) <= 1e-4


def test_stieltjes_preconditions():
    with pytest.raises(DomainError):
        stieltjes_estimate(-1, 100)
    with pytest.raises(DomainError):
        stieltjes_estimate(0, 1)


# ------------------------------- trig sums --------------------------------

def test_trig_sums_k1_alternating_exact():
    ts = trig_sums(SeriesParams(0.5, 123.456, 1), alternating=True)
    assert (ts.cos_sum, ts.sin_sum) == (-1.0, 0.0)


def test_trig_sums_t0_k2_alternating():
    ts = trig_sums(SeriesParams(0.5, 0.0, 2), alternating=True)
    assert abs(ts.cos_sum - (-1.0 + 1.0 / math.sqrt(2.0))) <= 1e-14
    assert ts.sin_sum == 0.0


@pytest.mark.parametrize("k", [1, 7, 100, 4099])
def test_trig_sums_sine_vanishes_at_t0(k):
    for alternating in (True, False):
        ts = trig_sums(SeriesParams(0.5, 0.0, k), alternating)
        assert ts.sin_sum == 0.0


def test_trig_sums_finite_for_general_sigma():
    ts = trig_sums(SeriesParams(0.25, 55.5, 1000), alternating=False)
    assert math.isfinite(ts.cos_sum) and math.isfinite(ts.sin_sum)


# ------------------------------ partial zeta -------------------------------

def _partial_zeta_mp(sigma, t, k, alternating):
    # S(s, k) at 40 digits from the binary64 inputs, term by term.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        s = mpmath.mpc(sigma, t)
        total = mpmath.mpc(0)
        for n in range(1, k + 1):
            term = mpmath.power(n, -s)
            total += -term if (alternating and n % 2) else term
        return complex(total)


def test_partial_zeta_matches_mpmath():
    rng = random.Random(2468)
    cases = [(2.0, 0.0, 500, False), (2.0, 0.0, 500, True)]
    for _ in range(8):
        cases.append((rng.uniform(0.05, 0.95), rng.uniform(0.0, 300.0),
                      rng.randint(1, 3000), rng.random() < 0.5))
    for sigma, t, k, alternating in cases:
        ref = _partial_zeta_mp(sigma, t, k, alternating)
        got = partial_zeta(sigma, t, k, alternating)
        assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref)), (sigma, t, k)


@pytest.mark.parametrize("q", [1000, 10_000, 100_000])
@pytest.mark.parametrize("k", [3000, 3001])
def test_partial_zeta_alternating_at_high_ordinates(q, k):
    # At a catalog ordinate t ~ 1e3..7.5e4 every term carries the rounding
    # of its phase t log n, about |t| log n 2^-53, plus a few roundings of
    # its own: the sum stays within 2^-53 sum (|t| log n + 3) n^-1/2 of the
    # 40-digit sum.
    t = next(z.t for z in builtin_catalog().zeros if z.q == q)
    bound = 2.0 ** -53 * math.fsum((t * math.log(n) + 3.0) / math.sqrt(n)
                                   for n in range(1, k + 1))
    ref = _partial_zeta_mp(0.5, t, k, True)
    assert abs(partial_zeta(0.5, t, k, alternating=True) - ref) <= bound


def test_partial_zeta_alternating_identity():
    # The alternating sum, taken as 2^(1-s) S(s, k//2) - S(s, k), against
    # its terms signed directly, (-1)^n n^-sigma (cos, -sin)(t log n), each
    # part one math.fsum.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(sigma=st.floats(0.05, 0.95), t=st.floats(0.0, 300.0),
                      k=st.integers(1, 3000))
    def check(sigma, t, k):
        terms = [((-1.0) ** n * n ** -sigma, t * math.log(n))
                 for n in range(1, k + 1)]
        direct = complex(math.fsum(w * math.cos(x) for w, x in terms),
                         math.fsum(-w * math.sin(x) for w, x in terms))
        alt = partial_zeta(sigma, t, k, alternating=True)
        full = partial_zeta(sigma, t, k)
        assert abs(alt - direct) <= 1e-11 * max(1.0, abs(full))

    check()


def test_zero_list_traversal_matches_lone_sums_property():
    # A traversal sums at one sigma the parts of every ordinate: the tables
    # take each zero's plain sums to k//2, k and k-1 at sigma = 1/2 from
    # one, and H_k and H_(k-1) from one of their own (t = 0, sigma = 1).
    # Each must equal a lone partial_zeta bit for bit, for ordinates above
    # k, t = 0 beside trig parts, repeated ordinates and ends, ends at 0
    # and k at chunk edges.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ordinate = st.one_of(st.floats(0.1, 300.0), st.floats(7.4e4, 7.6e4),
                         st.sampled_from((0.0, T1, T2)))

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(sigma=st.sampled_from((0.5, 1.0)),
                      ts=st.lists(ordinate, min_size=1, max_size=4),
                      ks=st.lists(st.sampled_from((2, 3, 4095, 4096, 4097,
                                                   8193, 16384, 16385)),
                                  min_size=1, max_size=2))
    def check(sigma, ts, ks):
        parts = [(t, [m for k in ks for m in (k // 2, k, k - 1, 0, k)])
                 for t in ts + ts[:1]]
        sums = series_module._partial_zeta_direct(sigma, parts)
        assert [len(z) for z in sums] == [len(ends) for _, ends in parts]
        for (t, ends), zs in zip(parts, sums):
            for m, z in zip(ends, zs):
                lone = partial_zeta(sigma, t, m)
                assert (z.real.hex(), z.imag.hex()) == \
                    (lone.real.hex(), lone.imag.hex()), (sigma, t, m)

    check()


@pytest.mark.parametrize("alternating", [False, True])
def test_partial_zeta_real_s_has_zero_imaginary_part(alternating):
    z = partial_zeta(0.3, 0.0, 5000, alternating)
    assert z.imag == 0.0 and math.copysign(1.0, z.imag) == 1.0


@pytest.mark.parametrize("t", [0.0, 3.0])
def test_alternating_sum_far_left_of_the_strip(t):
    # Without an even n the sum is -1 at any sigma; with one, the even part
    # 2^(1-s) S(s, 1) leaves binary64 below sigma = -1023 before the odd
    # part cancels it.
    assert partial_zeta(-2000.0, t, 1, alternating=True) == -1.0
    assert partial_zeta(-2000.0, t, 0, alternating=True) == 0j
    with pytest.raises(DomainError, match="not finite"):
        partial_zeta(-1023.5, t, 2, alternating=True)


@pytest.mark.parametrize("k", [999, 10**6 - 1, 10**6])
def test_alternating_sum_at_t_zero_loses_eps_of_the_plain_sum(k):
    # At t == 0 and sigma = -2 the sum is the integer (-1)^k k(k+1)/2, but
    # the identity takes it as 8 S(-2, k//2) - S(-2, k), two sums of about
    # k^3/3 that cancel: it stays within 2 eps |S(-2, k)|, so it need not
    # be exact (500000499968 at k = 1e6).
    exact = (-1) ** k * k * (k + 1) // 2
    plain = k * (k + 1) * (2 * k + 1) // 6
    z = partial_zeta(-2.0, 0.0, k, alternating=True)
    assert z.imag == 0.0
    assert abs(z.real - exact) <= 2.0 ** -51 * plain


@pytest.mark.parametrize("k", [1, 10, 4097, 10**5])
def test_harmonic_is_partial_zeta_at_one(k):
    assert harmonic_partial_sum(k) == partial_zeta(1.0, 0.0, k).real


def test_partial_zeta_empty_and_non_finite():
    assert partial_zeta(0.5, 3.0, 0) == 0j
    with pytest.raises(DomainError):
        partial_zeta(0.5, math.nan, 10)


def test_n_pow_writes_powers_of_a_float_row():
    # n^-sigma into out, n left as it is: exactly 1/sqrt(n) and 1/n on their
    # own branches, numpy's n ** -sigma elsewhere.  The signs of the
    # alternating oracle are pinned by test_offdiag_naive_matches_double_loop.
    n = np.arange(1.0, 10.0)
    for sigma, expected in ((0.5, [1.0 / math.sqrt(m) for m in range(1, 10)]),
                            (1.0, [1.0 / m for m in range(1, 10)]),
                            (0.3, (n ** -0.3).tolist())):
        out = np.empty(n.size)
        assert series_module._n_pow(n, sigma, out) is out
        assert out.tolist() == expected
    assert n.tolist() == list(range(1, 10))


# ------------------ trig factors from the half-angle tangent -----------------

def test_cos_msin_kernel_against_extended_precision():
    # Against cos and -sin of the same binary64 argument in x87 extended
    # precision: uniform arguments up to 1e9, small ones, and points within
    # 1e-6 of multiples of pi/2 (the odd multiples of pi are the poles of
    # the half-angle tangent).
    if np.finfo(np.longdouble).nmant < 63:
        pytest.skip("np.longdouble is not x87 extended precision here")
    rng = np.random.default_rng(20191115)
    m = rng.integers(0, int(2e9 / math.pi), 100_000)
    x = np.concatenate([
        rng.uniform(0.0, 1e9, 100_000), rng.uniform(0.0, 10.0, 20_000),
        m * (math.pi / 2.0) + rng.uniform(-1e-6, 1e-6, m.size),
        np.arange(0, 64) * (math.pi / 2.0), [0.0, 5e-324, 1e-300]])
    cos, msin = series_module._cos_msin(1.0, x, np.empty((3, x.size)))
    xl = x.astype(np.longdouble)
    bound = 3.0 * 2.0 ** -53
    assert float(np.abs(cos.astype(np.longdouble) - np.cos(xl)).max()) <= bound
    assert float(np.abs(msin.astype(np.longdouble) + np.sin(xl)).max()) <= bound


def test_cos_msin_kernel_gives_nan_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cos, msin = series_module._cos_msin(1e308, np.log([1.0, 1e3]),
                                            np.empty((3, 2)))
    assert cos[0] == 1.0 and msin[0] == 0.0
    assert math.isnan(cos[1]) and math.isnan(msin[1])


@pytest.mark.parametrize("alternating", [False, True])
@pytest.mark.parametrize("t, k", [(T1, 300_000), (T1, 10**6), (236.5, 10**5),
                                  (74920.8, 10**5)])
def test_partial_zeta_matches_the_cos_sin_route(t, k, alternating):
    # The route partial_zeta took before the half-angle kernel, rebuilt:
    # numpy's cos and sin of t log n, chunked the same way, summed to the
    # same ends; the alternating sum is 2^(1-s) S(s, k//2) - S(s, k).
    ends = (k // 2, k) if alternating else (k,)

    def columns(idx):
        nf = idx.astype(np.float64)
        w = 1.0 / np.sqrt(nf)
        arg = t * np.log(nf)
        return np.cos(arg) * w, -np.sin(arg) * w

    totals = chunked_parallel_pair_sum(columns, k, (ends, ends))
    sums = [complex(re, im) for re, im in zip(totals[:len(ends)],
                                              totals[len(ends):])]
    ref = sums[-1]
    if alternating:
        ref = 2.0 ** (1.0 - complex(0.5, t)) * sums[0] - ref
    z = partial_zeta(0.5, t, k, alternating)
    assert abs(z.real - ref.real) <= 1e-14 and abs(z.imag - ref.imag) <= 1e-14


# ---------------------- Euler-Maclaurin route of partial zeta ----------------

EM_EXPONENTS = [0.1, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-7, 1.5, 1.9, 2.0]


@pytest.mark.parametrize("a", EM_EXPONENTS)
def test_em_route_matches_mpmath(a):
    # sum_{n<=k} n^-a at 40 digits: H_k, or zeta(a) - zeta(a, k+1), from
    # the first k past the head to 1e12.  partial_zeta takes the route only
    # above the direct cap; below it the route is called by itself.
    mpmath = pytest.importorskip("mpmath")
    head = series_module._em_plan(a)[0]
    for k in (head + 1, head + 2, 100, 4097, 10**5, 10**6, 10**9, 10**12):
        with mpmath.workdps(40):
            ref = float(mpmath.harmonic(k) if a == 1.0 else
                        mpmath.zeta(a) - mpmath.zeta(a, k + 1))
        got = series_module._partial_zeta_em(a, k)
        assert abs(got - ref) <= 1e-15 * ref, (a, k)
    assert partial_zeta(a, 0.0, 10**12) == complex(got, 0.0)


def test_em_route_equals_direct_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(a=st.one_of(st.sampled_from(EM_EXPONENTS),
                                  st.floats(0.01, 3.0)),
                      k=st.integers(1, 300_000))
    def check(a, k):
        k = max(k, series_module._em_plan(a)[0] + 1)
        direct = chunked_parallel_sum(
            lambda idx: idx.astype(np.float64) ** -a, k)
        em = series_module._partial_zeta_em(a, k)
        assert abs(em - direct) <= 1e-15 * direct

    check()


def test_em_plan_bound_holds_at_the_head():
    # The remainder bound |B_2m|/(2m)! (a)_{2m-1} N^(1-a-2m) at the first
    # index N past the head, as exact rationals for a = 1 and a = 2.
    for a in (1, 2):
        head, m = series_module._em_plan(float(a))
        b2m = series_module._bernoulli_even_rationals(m)[-1]
        rise = math.prod(range(a, a + 2 * m - 1))
        bound = abs(b2m) / math.factorial(2 * m) * rise \
            * Fraction(1, (head + 1) ** (a + 2 * m - 1))
        assert bound <= Fraction(2) ** -64
        assert 2 <= head + 1 <= 32 and 1 <= m <= 8


@pytest.mark.parametrize("k", [MAX_DIRECT_K + 1, 10**12])
def test_em_route_lifts_the_direct_cap(k):
    start = time.perf_counter()
    h = harmonic_partial_sum(k)
    g = stieltjes_estimate(0, k)
    assert time.perf_counter() - start < 0.1
    assert abs(h - (math.log(k) + EULER_GAMMA + 0.5 / k)) <= 1e-13
    assert abs(g - (EULER_GAMMA + 0.5 / k)) <= 1e-13


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("k", [1, 16, 4097, 100_000])
def test_diagonal_is_direct_below_the_cap(a, k):
    # Below MAX_DIRECT_K every term is summed: bit for bit the chunked sum
    # of the terms n ** -a.
    direct = chunked_parallel_sum(lambda idx: idx.astype(np.float64) ** -a, k)
    assert partial_zeta(a, 0.0, k).real.hex() == direct.hex()


@pytest.mark.parametrize("sigma, alternating", [
    (1.0, True), (0.0, False), (-0.5, False)])
def test_alternating_and_non_positive_sigma_keep_the_cap(sigma, alternating):
    start = time.perf_counter()
    with pytest.raises(DomainError, match="cap"):
        partial_zeta(sigma, 0.0, MAX_DIRECT_K + 1, alternating)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("sigma, k", [
    (math.inf, 10), (math.nan, 10), (-math.inf, 10), (math.inf, 10**12),
    (1.0, True), (1.0, 1e12), (1.0, 10**400)])
def test_em_route_typed_errors(sigma, k):
    with pytest.raises(DomainError):
        partial_zeta(sigma, 0.0, k)


# --------------------------- squared magnitude -----------------------------

def _eta_half_oracle() -> float:
    # Alternating sum of n^(-1/2) accelerated by iterated averaging of the
    # partial sums; independent of the trig-sum machinery.
    terms = [(-1) ** (n + 1) / math.sqrt(n) for n in range(1, 41)]
    cur = list(itertools.accumulate(terms))
    while len(cur) > 1:
        cur = [(a + b) / 2.0 for a, b in zip(cur, cur[1:])]
    return cur[0]


def test_eta_half_oracle_value():
    assert abs(_eta_half_oracle() - 0.604898643421630) <= 1e-12


def test_mag_sq_near_zero_ordinate():
    # |eta(s) / (1 - 2^(1-s))|^2 vanishes at a zero; the truncated
    # alternating sum's squared modulus reads 2.50e-6 at k = 1e5.
    assert abs(partial_zeta(0.5, T1, 10**5, alternating=True)) ** 2 < 5e-6


def test_mag_sq_t0_matches_eta_oracle():
    k = 10**4
    eta = _eta_half_oracle()
    ts = trig_sums(SeriesParams(0.5, 0.0, k), alternating=True)
    # alternating-series remainder bound: |A_k - (-eta)| <= 1/sqrt(k+1)
    assert abs(ts.cos_sum + eta) <= 1.0 / math.sqrt(k + 1)
    mag = ts.cos_sum * ts.cos_sum + ts.sin_sum * ts.sin_sum
    assert abs(mag - eta * eta) <= 2.5 * eta / math.sqrt(k + 1)


# ------------------------- off-diagonal factorization ----------------------

def test_offdiag_trivial_pair():
    p = SeriesParams(0.5, 0.0, 2)
    assert abs(offdiag_naive(p, True) - (-math.sqrt(2.0))) <= 1e-14
    assert abs(offdiag_naive(p, False) - math.sqrt(2.0)) <= 1e-14
    assert abs(offdiag_factorized(p, True) - (-math.sqrt(2.0))) <= 1e-14
    # The plain route sums the oracle's own terms; the alternating one is
    # 2^(1/2) S(1/2, 1) - S(1/2, 2), with 2^(1/2) correctly rounded.
    assert offdiag_naive(p, False) == offdiag_factorized(p, False)
    assert offdiag_factorized(p, True) == -math.sqrt(2.0)


def test_offdiag_k1_is_zero():
    p = SeriesParams(0.5, 7.7, 1)
    for alt in (True, False):
        assert offdiag_naive(p, alt) == 0.0
        assert offdiag_factorized(p, alt) == 0.0


def test_offdiag_equivalence_at_first_zero_small_k():
    p = SeriesParams(0.5, T1, 50)
    assert abs(offdiag_naive(p, True) - offdiag_factorized(p, True)) <= 1e-12


def test_offdiag_equivalence_seeded_random():
    rng = random.Random(13579)
    for _ in range(50):
        t = rng.uniform(0.1, 100.0)
        k = rng.randint(2, 200)
        alt = rng.random() < 0.5
        p = SeriesParams(0.5, t, k)
        naive = offdiag_naive(p, alt)
        fact = offdiag_factorized(p, alt)
        assert abs(naive - fact) <= 1e-11 * max(1.0, abs(naive))


def _offdiag_double_loop(sigma, t, k, alternating):
    # 2 sum_{n<m<=k} e_m e_n cos(t log(m/n)) / (mn)^sigma, one pair at a time.
    def w(n):
        sign = -1.0 if (alternating and n % 2) else 1.0
        return sign * n ** -sigma
    return 2.0 * math.fsum(math.cos(t * math.log(m / n)) * w(m) * w(n)
                           for n in range(1, k + 1)
                           for m in range(n + 1, k + 1))


def test_offdiag_naive_matches_double_loop():
    rng = random.Random(97531)
    for _ in range(12):
        sigma = rng.uniform(0.05, 0.95)
        t = rng.uniform(0.0, 300.0)
        k = rng.randint(2, 120)
        for alt in (True, False):
            ref = _offdiag_double_loop(sigma, t, k, alt)
            got = offdiag_naive(SeriesParams(sigma, t, k), alt)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (sigma, t, k)


def test_offdiag_naive_overflowing_phase_is_a_domain_error():
    # t log(m/n) overflows binary64: a typed error, and no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            offdiag_naive(SeriesParams(0.5, 1e308, 100), True)


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("k", [2, 3, 9, 40, 120])
def test_offdiag_naive_block_boundaries(monkeypatch, block, k):
    # block 1: one row per block; 7: ragged last blocks; 64 at k <= 9: one
    # block holds every row.
    p = SeriesParams(0.37, 123.4, k)
    default = {alt: offdiag_naive(p, alt) for alt in (True, False)}
    monkeypatch.setattr(series_module, "_NAIVE_BLOCK", block)
    for alt in (True, False):
        ref = _offdiag_double_loop(p.sigma, p.t, k, alt)
        got = offdiag_naive(p, alt)
        tol = 1e-12 * max(1.0, abs(ref))
        assert abs(got - ref) <= tol
        assert abs(got - default[alt]) <= tol


def test_offdiag_naive_equals_factorized_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(sigma=st.floats(0.05, 0.95), t=st.floats(0.0, 300.0),
                      k=st.integers(2, 300))
    def check(sigma, t, k):
        p = SeriesParams(sigma, t, k)
        for alt in (True, False):
            naive = offdiag_naive(p, alt)
            fact = offdiag_factorized(p, alt)
            assert abs(naive - fact) <= 1e-11 * max(1.0, abs(naive))

    check()


def test_offdiag_cap_enforced_and_overridable(monkeypatch):
    p = SeriesParams(0.5, 1.0, 60)
    monkeypatch.setattr(series_module, "ORACLE_CAP", 50)
    with pytest.raises(OracleCapError, match="cap 50$"):
        offdiag_naive(p, True)
    monkeypatch.setattr(series_module, "ORACLE_CAP", 60)
    assert math.isfinite(offdiag_naive(p, True))


# ----------------------- Euler-Maclaurin continuation ----------------------

def test_zeta_em_at_two():
    z = zeta_em(2.0, 0.0, 100, EulerMaclaurinOrder.HALF_TERM)
    assert abs(z.real - math.pi**2 / 6.0) <= 1e-5
    assert z.imag == 0.0


def test_zeta_em_trivial_pole_only():
    assert zeta_em(2.0, 0.0, 2, EulerMaclaurinOrder.POLE_ONLY) == 1.5 + 0.0j


def test_zeta_em_near_zero_ordinate():
    assert abs(zeta_em(0.5, T1, 10**5, EulerMaclaurinOrder.HALF_TERM)) < 1e-3


def test_zeta_em_rejects_non_finite_ordinate():
    with pytest.raises(DomainError):
        zeta_em(2.0, math.nan, 100)


def test_zeta_em_rejects_pole():
    with pytest.raises(DomainError):
        zeta_em(1.0, 0.0, 100)


@pytest.mark.parametrize("k", [10, 100, 1000])
def test_zeta_em_higher_order_no_worse(k):
    target = math.pi**2 / 6.0
    err_half = abs(zeta_em(2.0, 0.0, k, EulerMaclaurinOrder.HALF_TERM).real - target)
    err_b2 = abs(zeta_em(2.0, 0.0, k, EulerMaclaurinOrder.B2_TERM).real - target)
    assert err_b2 <= err_half


# ------------------------------ asymptotic RHS -----------------------------

def test_em_rhs_trivial():
    rc, rs = em_rhs(1.0, 1)
    assert abs(rc - 0.4) <= 1e-15
    assert abs(rs - (-0.8)) <= 1e-15


@pytest.mark.parametrize("q", [1, 2])
def test_em_rhs_matches_trig_sums_at_zero(q):
    # Empirical agreement scale at k = 1e5 is ~2e-3 per component.
    t = builtin_catalog().zeros[q - 1].t
    k = 10**5
    ts = trig_sums(SeriesParams(0.5, t, k - 1), alternating=False)
    rc, rs = em_rhs(t, k)
    assert abs(ts.cos_sum - rc) <= 5e-3
    assert abs(ts.sin_sum - rs) <= 5e-3
