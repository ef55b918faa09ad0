"""Compensated summation engine: accuracy bounds and determinism."""

import math
import random
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from zetagamma import (
    DomainError,
    chunked_parallel_pair_sum,
    chunked_parallel_sum,
    compensated_sum,
    get_num_workers,
    partial_zeta,
    set_num_workers,
)
from zetagamma.summation import DEFAULT_CHUNK, MAX_DIRECT_K

EPS = 2.0 ** -52


def test_cancellation_preserved_list():
    assert compensated_sum([1.0, 1e-16, -1.0]) == 1e-16


def test_cancellation_preserved_ndarray():
    assert compensated_sum(np.array([1.0, 1e-16, -1.0])) == 1e-16


def test_empty_sum_is_zero():
    assert compensated_sum([]) == 0.0
    assert compensated_sum(np.array([], dtype=np.float64)) == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_rejected(bad):
    with pytest.raises(DomainError):
        compensated_sum([1.0, bad])
    with pytest.raises(DomainError):
        compensated_sum(np.array([1.0, bad]))


def test_overflowing_total_rejected():
    # The last two overflow a partial total before the non-finite term.
    for terms in ([1e308, 1e308], [1e308, 1e308, math.inf],
                  [1e308, 1e308, math.nan]):
        with pytest.raises(DomainError):
            compensated_sum(terms)
    with pytest.raises(DomainError):
        chunked_parallel_sum(lambda n: np.full(n.shape, 1e308), 10)


@pytest.mark.parametrize("terms, total", [
    ([1e308, 1e308, -1e308], 1e308),
    ([1.7e308, 1.7e308, -1.7e308, -1.7e308, 1.0], 1.0)])
@pytest.mark.parametrize("chunk", [1, DEFAULT_CHUNK])
def test_partial_overflow_with_finite_total(terms, total, chunk):
    # A partial total overflows binary64 on the way; the exact total does not.
    # chunk=1 moves the overflow from a chunk into the chunk combine.
    values = np.array(terms)
    assert compensated_sum(terms) == total
    assert chunked_parallel_sum(lambda n: values[n - 1], len(terms),
                                chunk=chunk) == total


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_chunked_non_finite_term_rejected(bad):
    def pair(idx):
        terms = np.ones(idx.shape)
        terms[-1] = bad
        return np.ones(idx.shape), terms

    with pytest.raises(DomainError):
        chunked_parallel_sum(lambda n: np.full(n.shape, bad), 10)
    with pytest.raises(DomainError):
        chunked_parallel_pair_sum(pair, 10_000)


def test_harmonic_terms_match_exact_rational():
    # H_1e6 of the rounded 1/n terms; math.fsum is the exact oracle.
    terms = 1.0 / np.arange(1, 10**6 + 1, dtype=np.float64)
    exact = math.fsum(terms.tolist())
    ours = compensated_sum(terms)
    assert abs(ours - exact) <= 1e-13 * abs(exact)
    # and the small-scale case against an exact rational
    h10 = sum(Fraction(1, n) for n in range(1, 11))
    assert abs(compensated_sum(1.0 / np.arange(1, 11)) - float(h10)) <= 4 * EPS


@pytest.mark.parametrize("length", [10, 100, 1000, 10_000])
def test_error_bound_vs_exact_rational(length):
    rng = random.Random(20240817 + length)
    xs = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 12)
          for _ in range(length)]
    exact = sum(map(Fraction, xs))
    abs_sum = float(sum(abs(Fraction(x)) for x in xs))
    result = compensated_sum(xs)
    assert float(abs(Fraction(result) - exact)) <= 2.0 * EPS * abs_sum
    assert result == float(exact)  # math.fsum rounds correctly


def test_chunked_matches_sequential():
    k = 10_000
    flat = compensated_sum(1.0 / np.arange(1, k + 1, dtype=np.float64))
    chunked = chunked_parallel_sum(lambda n: 1.0 / n, k, chunk=512)
    assert abs(chunked - flat) <= 1e-14 * abs(flat)


def test_chunked_zero_terms():
    assert chunked_parallel_sum(
        lambda n: np.zeros(n.shape, dtype=np.float64), 10**6) == 0.0


def test_chunked_rejects_bad_chunk():
    with pytest.raises(DomainError):
        chunked_parallel_sum(lambda n: 1.0 / n, 100, chunk=0)


@pytest.mark.parametrize("workers", [2, 8])
def test_chunked_bit_identical_across_workers(workers):
    k = 10**6
    base = chunked_parallel_sum(lambda n: 1.0 / n, k, chunk=512, workers=1)
    multi = chunked_parallel_sum(lambda n: 1.0 / n, k, chunk=512, workers=workers)
    assert multi == base


def test_workers_start_no_thread():
    before = threading.active_count()
    seen = []

    def terms(n):
        seen.append(threading.active_count())
        return 1.0 / n

    chunked_parallel_sum(terms, 100_000, workers=8)
    assert seen and max(seen) == before


def test_workers_validated():
    with pytest.raises(DomainError):
        chunked_parallel_sum(lambda n: 1.0 / n, 100, workers=0)


@pytest.mark.parametrize("bad", [0, -1, 2.5, True, "2", None, float("nan")])
def test_set_num_workers_rejects_non_positive_integers(bad):
    before = get_num_workers()
    with pytest.raises(DomainError, match="^worker count must be"):
        set_num_workers(bad)
    assert get_num_workers() == before


@pytest.mark.parametrize("bad", [0, 1.5, True, "2"])
@pytest.mark.parametrize("total", [chunked_parallel_sum,
                                   chunked_parallel_pair_sum])
def test_chunked_sums_reject_non_integer_workers(total, bad):
    with pytest.raises(DomainError, match="^worker count must be"):
        total(lambda n: (1.0 / n, 1.0 / n), 10, workers=bad)


def test_set_num_workers_accepts_numpy_integers():
    try:
        set_num_workers(np.int64(3))
        assert get_num_workers() == 3 and type(get_num_workers()) is int
    finally:
        set_num_workers(1)


def test_worker_count_never_changes_a_sum_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    t = 14.1347251417347

    def pair(idx):
        nf = idx.astype(np.float64)
        arg = t * np.log(nf)
        w = 1.0 / np.sqrt(nf)
        return np.cos(arg) * w, np.sin(arg) * w

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(k=st.integers(0, 20_000), chunk=st.integers(1, 5000),
                      workers=st.integers(1, 64))
    def check(k, chunk, workers):
        single = chunked_parallel_sum(lambda n: pair(n)[0], k, chunk=chunk,
                                      workers=1)
        assert chunked_parallel_sum(lambda n: pair(n)[0], k, chunk=chunk,
                                    workers=workers) == single
        base = chunked_parallel_pair_sum(pair, k, chunk=chunk, workers=1)
        assert chunked_parallel_pair_sum(pair, k, chunk=chunk,
                                         workers=workers) == base

    check()


def test_pair_sum_matches_two_singles():
    t = 14.1347251417347
    k = 50_000

    def pair(idx):
        nf = idx.astype(np.float64)
        arg = t * np.log(nf)
        w = 1.0 / np.sqrt(nf)
        return np.cos(arg) * w, np.sin(arg) * w

    a, b = chunked_parallel_pair_sum(pair, k)
    a1 = chunked_parallel_sum(lambda n: pair(n)[0], k)
    b1 = chunked_parallel_sum(lambda n: pair(n)[1], k)
    assert a == a1 and b == b1


@pytest.mark.parametrize("k", [0, 1, 4096, 4097, 10_000])
def test_pair_sum_returns_one_total_per_column(k):
    def columns(idx):
        nf = idx.astype(np.float64)
        return 1.0 / nf, np.sqrt(nf), -nf, np.cos(nf)

    totals = chunked_parallel_pair_sum(columns, k)
    assert len(totals) == 4
    for i, total in enumerate(totals):
        single = chunked_parallel_sum(lambda n: columns(n)[i], k)
        assert total.hex() == single.hex()


def test_sums_at_k_zero_call_no_term_function_on_indices():
    def single(idx):
        raise AssertionError("term_fn called at k = 0")

    seen = []

    def columns(idx):
        seen.append(idx.size)
        return idx * 1.0, idx * 2.0, idx * 3.0

    assert chunked_parallel_sum(single, 0) == 0.0
    assert chunked_parallel_pair_sum(columns, 0) == (0.0, 0.0, 0.0)
    assert seen == [0]


def test_pair_sum_bit_identical_across_workers():
    t = 21.0220396387716

    def pair(idx):
        nf = idx.astype(np.float64)
        arg = t * np.log(nf)
        return np.cos(arg) / np.sqrt(nf), np.sin(arg) / np.sqrt(nf)

    base = chunked_parallel_pair_sum(pair, 200_000, workers=1)
    assert chunked_parallel_pair_sum(pair, 200_000, workers=8) == base


# ------------------- exact chunk reduction: bit identity --------------------

def _fsum_or_none(values):
    # The correctly rounded total, or None where it is not finite in
    # binary64 (the library raises DomainError there).  math.fsum gives it
    # unless a partial total overflows; then the exact rational total does.
    if not all(math.isfinite(v) for v in values):
        return None
    try:
        return math.fsum(values)
    except OverflowError:
        pass
    try:
        return float(sum(map(Fraction, values)))
    except OverflowError:
        return None


def _chunked_reference(x, chunk):
    # fsum of each chunk's fsum, the library's contract spelled out.
    totals = [_fsum_or_none(x[lo:lo + chunk].tolist())
              for lo in range(0, len(x), chunk)]
    return None if None in totals else _fsum_or_none(totals)


def _assert_bit_identical(x, chunk):
    expected = _chunked_reference(x, chunk)
    if expected is None:
        with pytest.raises(DomainError):
            chunked_parallel_sum(lambda idx: x[idx - 1], len(x), chunk=chunk)
        return
    got = chunked_parallel_sum(lambda idx: x[idx - 1], len(x), chunk=chunk)
    assert got.hex() == expected.hex()


def _signs(rng, n):
    return np.where(rng.random(n) < 0.5, -1.0, 1.0)


def _mixed_exponents(rng, n):
    return np.ldexp(_signs(rng, n) * rng.uniform(0.5, 1.0, n),
                    rng.integers(-1074, 1001, n))


def _subnormals(rng, n):
    return np.ldexp(rng.integers(-2**52 + 1, 2**52, n).astype(np.float64),
                    -1074)


def _near_cancellation(rng, n):
    # x followed by -x(1 + 1e-16), written -(x + 1e-16 x) because 1 + 1e-16
    # rounds to 1: each pair cancels to about one ulp.
    x = _signs(rng, n) * rng.uniform(0.5, 1.0, n) * 10.0 ** rng.uniform(-8, 8, n)
    return np.concatenate([x[:n - n // 2], -(x + x * 1e-16)[:n // 2]])


def _power_of_two_max(rng, n):
    # mu is exactly a power of two, and reached with both signs.
    x = rng.uniform(-1.0, 1.0, n) * 2.0 ** 600
    x[rng.integers(0, n)] = 2.0 ** 600
    x[rng.integers(0, n)] = -(2.0 ** 600)
    return x


def _equal_powers_of_two(rng, n):
    # Every term at mu: the total n mu is the largest the lemma allows.
    return np.full(n, 2.0 ** (1023 - n.bit_length() - 1))


def _same_sign_bulk(rng, n):
    # Most terms near +mu, a few negative: the pass total approaches
    # n mu, where the lemma's n < 2^M is tight.
    x = rng.uniform(0.9, 1.0, n)
    x[rng.random(n) < 0.01] *= -1.0
    return x


def _harmonic(rng, n):
    return 1.0 / np.arange(1, n + 1, dtype=np.float64)


def _plus_zeros(rng, n):
    return np.zeros(n)


def _minus_zeros(rng, n):
    return np.full(n, -0.0)


def _signed_zeros(rng, n):
    return _signs(rng, n) * 0.0


def _near_max(rng, n):
    # |x| >= 2^1022 leaves no room for sigma = 2^(M+e): the fallback.  The
    # pairs a, -a(1 - d) keep fsum's partials finite.
    x = rng.uniform(5e307, 8e307, n)
    x[1::2] = -x[:n - 1:2] * (1.0 - rng.uniform(0.0, 1e-6, n // 2))
    return x


ADVERSARIAL = [_mixed_exponents, _subnormals, _near_cancellation,
               _power_of_two_max, _equal_powers_of_two, _same_sign_bulk,
               _harmonic,
               _plus_zeros, _minus_zeros, _signed_zeros, _near_max]


@pytest.mark.parametrize("n", [1, 4095, 4096, 8191, 8192, 20_000])
@pytest.mark.parametrize("make", ADVERSARIAL, ids=lambda f: f.__name__[1:])
def test_chunk_total_bit_identical_to_fsum(make, n):
    x = make(np.random.default_rng(n), n)
    _assert_bit_identical(x, chunk=n)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n", [4095, 8191, 20_000])
def test_chunk_total_bit_identical_when_terms_share_a_sign(n, seed):
    # A pass total near n mu rounds whenever sigma is one power of two too
    # small; one draw shows that only about a third of the time.
    _assert_bit_identical(_same_sign_bulk(np.random.default_rng(seed), n), n)


@pytest.mark.parametrize("make", ADVERSARIAL, ids=lambda f: f.__name__[1:])
def test_chunked_total_bit_identical_across_chunk_boundaries(make):
    x = make(np.random.default_rng(7), 20_000)
    for chunk in (4095, 8192):
        _assert_bit_identical(x, chunk)


def test_chunked_total_bit_identical_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(values=st.lists(st.floats(allow_nan=False,
                                                allow_infinity=False),
                                      min_size=1, max_size=300),
                      chunk=st.integers(1, 64))
    def check(values, chunk):
        _assert_bit_identical(np.array(values, dtype=np.float64), chunk)

    check()


@pytest.mark.parametrize("alternating", [False, True])
def test_partial_zeta_pair_sum_matches_per_chunk_reference(alternating):
    # partial_zeta's callback at s = 1/2 + i t1, rebuilt here (its trig
    # factors from the half-angle tangent u: cos = (1 - u^2)/(1 + u^2),
    # -sin = -2u/(1 + u^2)), reduced by compensated_sum per 4096-term chunk
    # and fsum over the chunk totals.
    t, k = 14.1347251417347, 300_000
    re_totals, im_totals = [], []
    for lo in range(1, k + 1, DEFAULT_CHUNK):
        idx = np.arange(lo, min(lo + DEFAULT_CHUNK, k + 1), dtype=np.int64)
        nf = idx.astype(np.float64)
        w = 1.0 / np.sqrt(nf)
        if alternating:
            w = np.where((idx & 1) == 1, -w, w)
        u = np.tan(t * np.log(nf) * 0.5)
        den = u * u + 1.0
        re_totals.append(compensated_sum((1.0 - u * u) / den * w))
        im_totals.append(compensated_sum(-2.0 * u / den * w))
    z = partial_zeta(0.5, t, k, alternating)
    assert z.real.hex() == math.fsum(re_totals).hex()
    assert z.imag.hex() == math.fsum(im_totals).hex()


# ---------------------- argument checks and the k cap -----------------------

@pytest.mark.parametrize("k", [2.5, -3, True, float("nan"), "10"])
def test_chunked_rejects_bad_k(k):
    with pytest.raises(DomainError):
        chunked_parallel_sum(lambda n: n.astype(np.float64), k)
    with pytest.raises(DomainError):
        chunked_parallel_pair_sum(lambda n: (1.0 / n, 1.0 / n), k)


@pytest.mark.parametrize("chunk", [2.5, -1, False, float("nan")])
def test_chunked_rejects_bad_chunk_type(chunk):
    with pytest.raises(DomainError):
        chunked_parallel_sum(lambda n: 1.0 / n, 100, chunk=chunk)


def test_chunked_accepts_numpy_integers():
    assert chunked_parallel_sum(lambda n: n.astype(np.float64), np.int64(4),
                                chunk=np.int32(3)) == 10.0
    assert chunked_parallel_sum(lambda n: 1.0 / n, 0) == 0.0


def test_chunked_refuses_k_above_cap_before_any_term():
    calls = []

    def terms(n):
        calls.append(n.size)
        return 1.0 / n

    with pytest.raises(DomainError, match="cap"):
        chunked_parallel_sum(terms, MAX_DIRECT_K + 1)
    with pytest.raises(DomainError, match="cap"):
        chunked_parallel_pair_sum(lambda n: (terms(n), terms(n)),
                                  MAX_DIRECT_K + 1)
    assert calls == []


def test_partial_zeta_refuses_k_above_cap_quickly():
    start = time.perf_counter()
    with pytest.raises(DomainError, match="cap"):
        partial_zeta(0.5, 14.1347251417347, MAX_DIRECT_K + 1)
    assert time.perf_counter() - start < 1.0
