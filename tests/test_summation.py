"""Compensated summation engine: accuracy bounds and determinism."""

import math
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from zetagamma import series, summation
from zetagamma import (
    DomainError,
    TableSpec,
    build_table,
    builtin_catalog,
    chunked_parallel_pair_sum,
    chunked_parallel_sum,
    compensated_sum,
    get_num_workers,
    get_zero,
    partial_zeta,
    set_num_workers,
)
from zetagamma.summation import DEFAULT_CHUNK, MAX_DIRECT_K

EPS = 2.0 ** -52
MAX_FLOAT = sys.float_info.max


def test_cancellation_preserved_list():
    assert compensated_sum([1.0, 1e-16, -1.0]) == 1e-16


def test_cancellation_preserved_ndarray():
    assert compensated_sum(np.array([1.0, 1e-16, -1.0])) == 1e-16


@pytest.mark.parametrize("terms", [
    np.array([1 + 1j, 2]), np.array(["1", "2"]), ["a"], [1j], [None],
    [Fraction(1, 3)], [10**400]],
    ids=["complex", "str_array", "str", "complex_list", "none", "fraction",
         "int_past_binary64"])
def test_compensated_sum_refuses_terms_that_are_not_real(terms):
    # Not summed as the real part, parsed or cast: every term must be a
    # bool, int or float, as an array of those dtypes or a list numpy
    # reads as one.
    with pytest.raises(DomainError, match="must be real"):
        compensated_sum(terms)
    assert compensated_sum(np.array([True, 2, 3])) == 6.0
    assert compensated_sum(iter([1, 0.5, np.float32(0.25)])) == 1.75


@pytest.mark.parametrize("terms", [
    [[1.0], [1.0, 2.0]], [1.0, [2.0, 3.0]], [np.ones(2), np.ones(3)]],
    ids=["ragged", "scalar_and_list", "ragged_arrays"])
def test_compensated_sum_refuses_ragged_terms(terms):
    # numpy cannot make one array of these; a rectangular nesting is summed
    # whole.
    with pytest.raises(DomainError, match="rectangular"):
        compensated_sum(terms)
    with pytest.raises(DomainError, match="rectangular"):
        chunked_parallel_sum(lambda n: terms, 2)
    assert compensated_sum([[1.0, 2.0], [3.0, 4.0]]) == 10.0


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
    # The largest float plus half its ulp, 2^970, is a tie that rounds to
    # even, up to 2^1024: no exact rational rounds it to a float either.
    for terms in ([1e308, 1e308], [1e308, 1e308, math.inf],
                  [1e308, 1e308, math.nan], [MAX_FLOAT, 2.0 ** 970]):
        with pytest.raises(DomainError):
            compensated_sum(terms)
    with pytest.raises(OverflowError):
        float(Fraction(MAX_FLOAT) + Fraction(2) ** 970)
    with pytest.raises(DomainError):
        chunked_parallel_sum(lambda n: np.full(n.shape, 1e308), 10)
    with pytest.raises(DomainError):
        chunked_parallel_sum(lambda n: np.array([MAX_FLOAT, 2.0 ** 970])[
            n - 1], 2)


@pytest.mark.parametrize("terms, total", [
    ([1e308, 1e308, -1e308], 1e308),
    ([1.7e308, 1.7e308, -1.7e308, -1.7e308, 1.0], 1.0),
    # The overflow edge: just under half an ulp past the largest float.
    ([MAX_FLOAT, 2.0 ** 969], MAX_FLOAT),
    ([2.0 ** 969, MAX_FLOAT, 2.0 ** 969, -MAX_FLOAT], 2.0 ** 970)])
@pytest.mark.parametrize("chunk", [1, 2, 4096, DEFAULT_CHUNK])
def test_partial_overflow_with_finite_total(terms, total, chunk, monkeypatch):
    # A partial total overflows binary64 on the way, or comes within half
    # an ulp of it; the exact total does not.  Chunk length 1 moves the
    # overflow from a chunk into the final sum; at length 2 the first
    # chunk's own total overflows.
    values = np.array(terms)
    assert float(sum(map(Fraction, terms))) == total
    assert compensated_sum(terms) == total
    monkeypatch.setattr(summation, "DEFAULT_CHUNK", chunk)
    assert chunked_parallel_sum(lambda n: values[n - 1], len(terms)) == total


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_chunked_non_finite_term_rejected(bad):
    def pair(idx):
        terms = np.ones(idx.shape)
        terms[-1] = bad
        return np.ones(idx.shape), terms

    with pytest.raises(DomainError):
        chunked_parallel_sum(lambda n: np.full(n.shape, bad), 10)
    with pytest.raises(DomainError):
        chunked_parallel_pair_sum(pair, 10_000, ((10_000,), (10_000,)))


def test_harmonic_terms_match_exact_rational():
    # H_1e6 of the rounded 1/n terms; math.fsum is the exact oracle.
    terms = 1.0 / np.arange(1, 10**6 + 1, dtype=np.float64)
    exact = math.fsum(terms.tolist())
    ours = compensated_sum(terms)
    assert abs(ours - exact) <= 1e-13 * abs(exact)
    # and the small-scale case against an exact rational
    h10 = sum(Fraction(1, n) for n in range(1, 11))
    assert abs(compensated_sum(1.0 / np.arange(1, 11)) - float(h10)) <= 4 * EPS


@pytest.mark.parametrize("length", [
    10, 100, 1000, 10_000,
    # Rounding edges, given as the terms themselves: an exact tie rounds
    # to even, one unit past it rounds up, and subnormal totals are exact.
    pytest.param([1.0, 2.0 ** -53], id="tie"),
    pytest.param([1.0, 2.0 ** -53, 2.0 ** -1074], id="above-tie"),
    pytest.param([1.0 + 2.0 ** -52, 2.0 ** -53], id="tie-to-even-up"),
    pytest.param([3 * 2.0 ** -1074], id="subnormal"),
    pytest.param([1e-310, -1e-310, 5e-324], id="subnormal-cancel")])
def test_error_bound_vs_exact_rational(length, monkeypatch):
    if isinstance(length, list):
        xs = length
    else:
        rng = random.Random(20240817 + length)
        xs = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 12)
              for _ in range(length)]
    exact = sum(map(Fraction, xs))
    abs_sum = float(sum(abs(Fraction(x)) for x in xs))
    result = compensated_sum(xs)
    assert float(abs(Fraction(result) - exact)) <= 2.0 * EPS * abs_sum
    assert result == float(exact)  # rounded once, correctly
    values = np.array(xs)
    for chunk in (1, DEFAULT_CHUNK):
        monkeypatch.setattr(summation, "DEFAULT_CHUNK", chunk)
        assert chunked_parallel_sum(lambda n: values[n - 1], len(xs)) == \
            float(exact)


def test_chunked_matches_sequential(monkeypatch):
    k = 10_000
    flat = math.fsum((1.0 / np.arange(1, k + 1, dtype=np.float64)).tolist())
    monkeypatch.setattr(summation, "DEFAULT_CHUNK", 512)
    chunked = chunked_parallel_sum(lambda n: 1.0 / n, k)
    assert chunked.hex() == flat.hex()


def test_chunked_zero_terms():
    assert chunked_parallel_sum(
        lambda n: np.zeros(n.shape, dtype=np.float64), 10**6) == 0.0


@pytest.mark.parametrize("workers", [2, 8])
def test_chunked_bit_identical_across_workers(workers, monkeypatch):
    k = 10**6
    monkeypatch.setattr(summation, "DEFAULT_CHUNK", 512)
    base = chunked_parallel_sum(lambda n: 1.0 / n, k, workers=1)
    multi = chunked_parallel_sum(lambda n: 1.0 / n, k, workers=workers)
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
    ends = (((10,),),) if total is chunked_parallel_pair_sum else ()
    with pytest.raises(DomainError, match="^worker count must be"):
        total(lambda n: 1.0 / n, 10, *ends, workers=bad)


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
        with mock.patch.object(summation, "DEFAULT_CHUNK", chunk):
            single = chunked_parallel_sum(lambda n: pair(n)[0], k, workers=1)
            assert chunked_parallel_sum(lambda n: pair(n)[0], k,
                                        workers=workers) == single
            ends = ((k,), (k,))
            base = chunked_parallel_pair_sum(pair, k, ends, workers=1)
            assert chunked_parallel_pair_sum(pair, k, ends,
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

    a, b = chunked_parallel_pair_sum(pair, k, ((k,), (k,)))
    a1 = chunked_parallel_sum(lambda n: pair(n)[0], k)
    b1 = chunked_parallel_sum(lambda n: pair(n)[1], k)
    assert a == a1 and b == b1


@pytest.mark.parametrize("k", [0, 1, 4096, 4097, 10_000])
def test_pair_sum_returns_one_total_per_column(k):
    def columns(idx):
        nf = idx.astype(np.float64)
        return 1.0 / nf, np.sqrt(nf), -nf, np.cos(nf)

    totals = chunked_parallel_pair_sum(columns, k, ((k,),) * 4)
    assert len(totals) == 4
    for i, total in enumerate(totals):
        single = chunked_parallel_sum(lambda n: columns(n)[i], k)
        assert total.hex() == single.hex()


def test_sums_at_k_zero_call_no_term_function_on_indices():
    # The ends give the count of totals, so no callback is asked for it.
    def single(idx):
        raise AssertionError("term_fn called at k = 0")

    assert chunked_parallel_sum(single, 0) == 0.0
    assert chunked_parallel_pair_sum(single, 0, ((0,), (0, 0), ())) == \
        (0.0, 0.0, 0.0)


def test_pair_sum_bit_identical_across_workers():
    t = 21.0220396387716

    def pair(idx):
        nf = idx.astype(np.float64)
        arg = t * np.log(nf)
        return np.cos(arg) / np.sqrt(nf), np.sin(arg) / np.sqrt(nf)

    ends = ((200_000,), (200_000,))
    base = chunked_parallel_pair_sum(pair, 200_000, ends, workers=1)
    assert chunked_parallel_pair_sum(pair, 200_000, ends, workers=8) == base


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


def _assert_bit_identical(x, chunk):
    # The library's contract spelled out: at any chunk length, the chunked
    # sum is the correctly rounded total of all its terms.  Also runs inside
    # hypothesis bodies, so it patches the chunk length with mock rather
    # than with a monkeypatch fixture.
    expected = _fsum_or_none(x.tolist())
    with mock.patch.object(summation, "DEFAULT_CHUNK", chunk):
        if expected is None:
            with pytest.raises(DomainError):
                chunked_parallel_sum(lambda idx: x[idx - 1], len(x))
            return
        got = chunked_parallel_sum(lambda idx: x[idx - 1], len(x))
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


@pytest.mark.parametrize("make", ADVERSARIAL, ids=lambda f: f.__name__[1:])
def test_folded_chunk_totals_bit_identical(make):
    # At a chunk length of 1 every term is its own chunk, joined to the
    # sum's exact integer total one adversarial value at a time.
    x = make(np.random.default_rng(20_000), 20_000)
    _assert_bit_identical(x, chunk=1)


def test_each_array_keeps_one_int_so_no_column_grows_with_k(monkeypatch):
    # Four term arrays of 64-term chunks.  Kept, every chunk's pass totals
    # would cost at least 32 bytes (a float and its list slot): 4 * 700 * 32
    # = 90 kB more at the larger k.  Each array keeps one exact integer
    # total instead, so the peak may not grow by even 64 floats per array.
    # The first call at the larger k makes one-off allocations, so it is
    # not counted.
    monkeypatch.setattr(summation, "DEFAULT_CHUNK", 64)

    def columns(idx):
        nf = idx.astype(np.float64)
        for j in range(4):
            yield (j + 1.0) / nf

    def peak(k):
        tracemalloc.start()
        try:
            chunked_parallel_pair_sum(columns, k, ((k,),) * 4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(64 * 800)
    growth = peak(64 * 800) - peak(64 * 100)
    assert growth < 4 * 64 * 32


def test_columns_may_be_yielded():
    def listed(idx):
        nf = idx.astype(np.float64)
        return 1.0 / nf, np.sqrt(nf), -nf

    def yielded(idx):
        yield from listed(idx)

    for k in (0, 1, 4097, 10_000):
        ends = ((k,), (0, k), (k // 2,))
        assert chunked_parallel_pair_sum(yielded, k, ends) == \
            chunked_parallel_pair_sum(listed, k, ends)


@pytest.mark.parametrize("chunk, k", [(1, 500), (3, 1000),
                                      (DEFAULT_CHUNK, 40_000)])
def test_a_generator_may_overwrite_one_array_for_every_column(
        chunk, k, monkeypatch):
    # Each yielded item is reduced before the next is asked for, so a
    # generator may write every column of a chunk into one array and yield
    # it again (partial_zeta's callback does), ends inside chunks included.
    monkeypatch.setattr(summation, "DEFAULT_CHUNK", chunk)
    ends = (1, 2, k // 3, k // 2 + 1, k - 1, k)

    def terms(idx):
        nf = idx.astype(np.float64)
        return np.cos(nf) / nf, np.sin(nf) / np.sqrt(nf), 1.0 / nf

    def fresh(idx):
        yield from terms(idx)

    block = np.empty(chunk)

    def reused(idx):
        out = block[:idx.size]
        for x in terms(idx):
            out[...] = x
            yield out

    got = chunked_parallel_pair_sum(reused, k, (ends,) * 3)
    assert len(got) == 3 * len(ends)
    assert [g.hex() for g in got] == \
        [e.hex() for e in chunked_parallel_pair_sum(fresh, k, (ends,) * 3)]


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


def test_prefix_end_totals_bit_identical_property():
    # Each end m declared for a term array is its own total, math.fsum of
    # the terms at n = 1..m, read off the array's exact int where a chunk
    # stops at m.  Ends fall at 0, at k, inside and at the edges of chunks
    # of 1, 3 and 4096 terms, repeated (sharing one column) and unsorted;
    # an array may have no end.  Magnitudes near 2^1023 leave no room for
    # a pass, so their chunks join the int term by term.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    value = st.one_of(
        st.sampled_from((0.0, -0.0, 5e-324, -5e-324)),
        st.floats(-2.3e-308, 2.3e-308),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e3, 1e3),
        st.floats(8e307, 1.7e308).map(lambda v: v if v < 1.2e308 else -v))
    # -1 stands for k; larger ends are cut to k.
    ends = st.lists(st.integers(-1, 40), max_size=5).map(
        lambda e: e + e[:1])

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        items=st.lists(st.tuples(st.lists(value, min_size=1, max_size=40),
                                 ends), min_size=1, max_size=3),
        chunk=st.sampled_from((1, 3, 4096)))
    def check(items, chunk):
        k = min(len(values) for values, _ in items)
        arrays = [(np.array(values[:k]), [k if m < 0 else min(m, k) for m in e])
                  for values, e in items]

        def columns(idx):
            for x, _ in arrays:
                yield x[idx - 1]

        layout = [e for _, e in arrays]
        expected = [_fsum_or_none(x[:m].tolist())
                    for x, e in arrays for m in e]
        with mock.patch.object(summation, "DEFAULT_CHUNK", chunk):
            if None in expected:
                with pytest.raises(DomainError):
                    chunked_parallel_pair_sum(columns, k, layout)
                return
            got = chunked_parallel_pair_sum(columns, k, layout)
        assert [g.hex() for g in got] == [e.hex() for e in expected]

    check()


# ------------- the finishing sum: exact once the spread allows --------------

def test_exact_sums_match_fraction_totals_property():
    # Terms within a window of binades around a random scale, so that many
    # chunks pass the spread bound and end with the plain numpy sum, mixed
    # with zeros and subnormals, which must not break it.  compensated_sum
    # sums them as one chunk, chunked_parallel_sum in chunks of 1..64.  The
    # one-chunk int is checked unit for unit too: the rounded totals alone
    # would hide an error of a few units.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    term = st.one_of(
        st.tuples(st.integers(-2**53 + 1, 2**53 - 1), st.integers(0, 30)),
        st.sampled_from(((0, 0), (1, -60), (-3, -70))))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(scale=st.integers(-1140, 940),
                      terms=st.lists(term, min_size=1, max_size=300),
                      chunk=st.integers(1, 64))
    def check(scale, terms, chunk):
        values = [math.ldexp(mant, scale + shift) for mant, shift in terms]
        exact = sum(map(Fraction, values))
        x = np.array(values)
        assert summation._exact_units(x, np.empty((2, x.size))) == \
            exact * 2 ** 1074
        try:
            expected = float(exact)
        except OverflowError:
            expected = None
        with mock.patch.object(summation, "DEFAULT_CHUNK", chunk):
            if expected is None:
                with pytest.raises(DomainError):
                    compensated_sum(values)
                with pytest.raises(DomainError):
                    chunked_parallel_sum(lambda idx: x[idx - 1], len(x))
                return
            got = chunked_parallel_sum(lambda idx: x[idx - 1], len(x))
        assert compensated_sum(values).hex() == expected.hex()
        assert got.hex() == expected.hex()

    check()


class _SigmaSpy:
    # Stands in for the math module in summation and records every power of
    # two that _exact_units builds: one sigma per extraction pass.
    def __init__(self):
        self.sigmas = []

    def __getattr__(self, name):
        return getattr(math, name)

    def ldexp(self, x, i):
        self.sigmas.append(math.ldexp(x, i))
        return self.sigmas[-1]


def _sigmas_of_one_chunk(x, monkeypatch):
    # The sigmas of compensated_sum(x), which reduces x as one chunk, and
    # its total.
    spy = _SigmaSpy()
    with monkeypatch.context() as patch:
        patch.setattr(summation, "math", spy)
        total = compensated_sum(x)
    return spy.sigmas, total


def _spread_terms(rng, n, spread, top, signs, zeros):
    # n terms with binary exponents in top - spread .. top, both ends taken:
    # |x| = 0.75 * 2^top and 2^(top - spread - 1) exactly, the others drawn
    # with mantissas in [0.5, 0.99) so that no rounding moves an exponent.
    e = rng.integers(top - spread, top + 1, n)
    x = np.ldexp(rng.uniform(0.5, 0.99, n), e)
    x[0] = math.ldexp(0.75, top)
    x[-1] = math.ldexp(0.5, top - spread)
    if signs:
        x *= np.where(rng.random(n) < 0.5, -1.0, 1.0)
    if zeros:
        x[rng.integers(1, n - 1, 3)] = 0.0
    return x


@pytest.mark.parametrize("n", [16383, 16384, 16385])
@pytest.mark.parametrize("top, signs, zeros", [
    (3, False, False), (3, True, False), (3, True, True),
    # Every term subnormal, below 2^-1022.
    (-1022, True, False)], ids=["plus", "mixed", "zeros", "subnormal"])
@pytest.mark.parametrize("over", [0, 1])
def test_finishing_sum_at_the_spread_bound(n, top, signs, zeros, over,
                                           monkeypatch):
    # n < 2^M terms whose exponents span exactly 53 - 2M binades take one
    # pass and the finishing sum; one binade more takes a second pass (M
    # steps from 14 to 15 between 16383 and 16384 terms).  Zero terms do
    # not count: the spread is that of the nonzero ones.  Every total is
    # the exact one, rounded once.
    spread = 53 - 2 * n.bit_length() + over
    x = _spread_terms(np.random.default_rng(n + over), n, spread, top,
                      signs, zeros)
    sigmas, total = _sigmas_of_one_chunk(x, monkeypatch)
    assert total.hex() == math.fsum(x.tolist()).hex()
    assert len(sigmas) == 1 + over
    _assert_bit_identical(x, chunk=n)


def _tight_remainders(rng, extra):
    # 2^15 - 1 terms, so M = 15 and sigma = 2^15 for the largest, 0.75.
    # The others lie in [2^(-24 - extra), 2^(-23 - extra)), a spread of
    # 23 + extra binades, and each leaves a positive remainder just below
    # 2^-38, the most a pass allows, in units of 2^(-76 - extra).  Their
    # sums come within a factor two of 2^(53 + extra) such units, so from
    # extra = 1 on a finishing sum would round about half the time.
    n = 2 ** 15 - 1
    low = -23 - extra
    x = np.empty(n)
    x[0] = 0.75
    x[1:] = np.ldexp(rng.integers(2 ** (low + 36), 2 ** (low + 37), n - 1)
                     .astype(np.float64), -37)
    x[1:] += np.ldexp(rng.integers(2 ** (37 + extra), 2 ** (38 + extra),
                                   n - 1).astype(np.float64), low - 53)
    return x


@pytest.mark.parametrize("extra", [0, 1, 2])
def test_finishing_sum_bound_is_tight(extra, monkeypatch):
    # The chunk's exact int, checked unit for unit (a rounded total would
    # hide an error of a few units): at the bound the finishing sum is
    # exact, and one binade past it a second pass runs.  Eight draws: any
    # looser bound gets some of them wrong.
    for seed in range(8):
        x = _tight_remainders(np.random.default_rng(seed), extra)
        assert [math.frexp(v)[1] for v in (x.max(), x.min())] == \
            [0, -23 - extra]
        # x scaled by 2^(76 + extra) is whole: its exact total as an int.
        scale = 76 + extra
        exact = sum(map(int, np.ldexp(x, scale).tolist())) << (1074 - scale)
        spy = _SigmaSpy()
        with monkeypatch.context() as patch:
            patch.setattr(summation, "math", spy)
            assert summation._exact_units(x, np.empty((2, x.size))) == exact
        assert len(spy.sigmas) == (1 if extra == 0 else 2)


@pytest.mark.parametrize("value", [1.0, -0.1, 5e-324, -2.5e-310, 0.0,
                                   sys.float_info.max / 4])
def test_one_term_chunk_is_its_own_total(value, monkeypatch):
    # A lone term has no spread: one pass, or none for a zero, and the
    # finishing sum gives back the term itself.
    sigmas, total = _sigmas_of_one_chunk([value], monkeypatch)
    assert total == value
    assert len(sigmas) == (value != 0.0)
    _assert_bit_identical(np.array([value]), chunk=1)


def test_package_terms_take_one_pass_per_chunk(monkeypatch):
    # A 16384-term chunk of the cosine terms cos(t log n)/sqrt(n), one of
    # 1/n and the first chunk of the sine terms, whose n = 1 term is
    # sin 0 = 0: exponent spreads of 16, 14 and 21 binades, within the
    # bound of 23, so each is one pass and the finishing sum, where two
    # passes were needed before (for the sine chunk, until a zero term no
    # longer turned the finishing sum off).
    n = np.arange(16385, 32769, dtype=np.float64)
    t = 14.1347251417347
    head = n - 16384.0
    for x in (np.cos(t * np.log(n)) / np.sqrt(n), 1.0 / head,
              np.sin(t * np.log(head)) / np.sqrt(head)):
        assert x.size == DEFAULT_CHUNK
        sigmas, total = _sigmas_of_one_chunk(x, monkeypatch)
        assert len(sigmas) == 1
        assert total.hex() == math.fsum(x.tolist()).hex()


def test_chunked_sums_leave_the_callback_arrays_as_they_are():
    # The callback may hand out views of arrays it keeps (partial_zeta's
    # weights at t = 0): no column may write to them.
    x = np.random.default_rng(3).standard_normal(10_000)
    kept = x.copy()

    def columns(idx):
        view = x[idx[0] - 1:idx[-1]]
        yield view
        yield view
        yield view

    chunked_parallel_pair_sum(columns, x.size, (
        (x.size,), (x.size // 2,), (0, x.size, 3, x.size - 1)))
    chunked_parallel_sum(lambda idx: x[idx[0] - 1:idx[-1]], x.size)
    assert np.array_equal(x, kept)


def test_arrays_to_k_mix_with_arrays_to_several_ends():
    # Arrays summed to k alone mix with one summed to several ends: one
    # total per end, in the order of the ends, repeated and unsorted ends
    # included.
    def columns(idx):
        nf = idx.astype(np.float64)
        yield 1.0 / nf
        yield 1.0 / nf
        yield np.sqrt(nf)

    k = 40_001
    ends = (k // 2, k, k - 1, 0, 16384, k // 2)
    assert chunked_parallel_pair_sum(columns, k, ((k,), ends, (k,))) == (
        chunked_parallel_sum(lambda n: 1.0 / n, k),
        *(chunked_parallel_sum(lambda n: 1.0 / n, m) for m in ends),
        chunked_parallel_sum(np.sqrt, k))
    assert chunked_parallel_pair_sum(columns, 0, ((0,), (0, 0), (0,))) == \
        (0.0,) * 4


@pytest.mark.parametrize("end", [
    -1, 11, 2.5, True, "3", None, np.float64(2.0),
    # Whole malformed ends, given as a function of k: flat, a bare int,
    # None, and a bare int beside a sequence of ends.
    pytest.param(lambda k: (k,), id="flat"),
    pytest.param(lambda k: k, id="bare-int"),
    pytest.param(lambda k: None, id="no-ends"),
    pytest.param(lambda k: ((k,), 5), id="bare-int-item")])
def test_prefix_ends_must_be_integers_in_range(end):
    # An end is an integer in 0..k, bool excluded, and ends hold one
    # sequence of them per term array; both are checked before any chunk
    # runs, also at k = 0, where no chunk runs at all.
    def columns(idx):
        raise AssertionError("callback called before the ends were checked")

    for k in (0, 10):
        ends = end(k) if callable(end) else ((k,), (k, end))
        with pytest.raises(DomainError, match="prefix end"):
            chunked_parallel_pair_sum(columns, k, ends)


def test_prefix_ends_accept_numpy_integers():
    def columns(idx):
        yield idx.astype(np.float64)

    assert chunked_parallel_pair_sum(
        columns, 10, ((np.int64(3), np.int32(4)),)) == (6.0, 10.0)


def test_ends_are_checked_once_per_sum(monkeypatch):
    # A T1 build declares 40 ends in two traversals (H_k and H_(k-1) at
    # five k in one, and k//2, k, k-1 for each of the zero's two trig
    # columns in the other); each is checked once, however many chunks the
    # traversals take.
    checked = []
    check = summation._check_positive_int

    def spy(value, name, minimum=1):
        if name == "prefix end":
            checked.append(value)
        return check(value, name, minimum)

    monkeypatch.setattr(summation, "_check_positive_int", spy)
    counts = []
    for chunk in (64, 16384):
        monkeypatch.setattr(summation, "DEFAULT_CHUNK", chunk)
        checked.clear()
        build_table(TableSpec("T1"))
        counts.append(len(checked))
    assert counts == [40, 40]


@pytest.mark.parametrize("ends", [((40_000,),), ((40_000,), (40_000,))],
                         ids=["one", "two"])
def test_callback_must_give_one_array_per_entry_of_ends(ends):
    # The callback gives 1/n once in the first chunk and twice after: too
    # many arrays for one entry of ends, too few for two.  Neither may
    # leave a total partial.
    def columns(idx):
        yield 1.0 / idx
        if idx[0] > 1:
            yield 1.0 / idx

    with pytest.raises(DomainError, match="term arrays per chunk"):
        chunked_parallel_pair_sum(columns, 40_000, ends)


@pytest.mark.parametrize("terms, match", [
    (lambda idx: 1.0, "one term per index"),
    (lambda idx: np.ones(3), "one term per index"),
    (lambda idx: np.ones((idx.size, 2)), "one term per index"),
    (lambda idx: idx * 1j + 1.0, "must be real"),
    (lambda idx: None, "must be real"),
    (lambda idx: idx.astype(str), "must be real"),
], ids=["scalar", "short", "two_wide", "complex", "none", "str"])
def test_callback_must_give_one_term_per_index(terms, match):
    # A scalar, an array of another size, or terms that are not real
    # numbers are refused, not summed as they are (complex terms not as
    # their real part, strings not parsed); one term per index of a
    # one-index chunk is accepted, and so are integer terms.
    with pytest.raises(DomainError, match=match):
        chunked_parallel_sum(terms, 10)
    with pytest.raises(DomainError, match=match):
        chunked_parallel_pair_sum(lambda idx: (1.0 / idx, terms(idx)), 10,
                                  ((10,), (10,)))
    assert chunked_parallel_sum(lambda idx: 1.0, 1) == 1.0
    assert chunked_parallel_sum(lambda idx: idx, 10) == 55.0


@pytest.mark.parametrize("result", [None, 1, 1.0])
def test_callback_must_give_an_iterable_of_arrays(result):
    # A result that iter() refuses is a DomainError; an exception raised
    # inside the callback, a generator's too, propagates as it is.
    with pytest.raises(DomainError, match="not iterable"):
        chunked_parallel_pair_sum(lambda idx: result, 10, ((10,),))

    def fails(idx):
        raise TypeError("inside the callback")

    def fails_later(idx):
        yield 1.0 / idx
        raise TypeError("inside the callback")

    for callback in (fails, fails_later):
        with pytest.raises(TypeError, match="inside the callback"):
            chunked_parallel_pair_sum(callback, 10, ((10,), (10,)))


@pytest.mark.parametrize("alternating", [False, True])
def test_partial_zeta_pair_sum_matches_per_chunk_reference(alternating):
    # partial_zeta's callback at s = 1/2 + i t1, rebuilt here chunk by chunk
    # (its weighted trig columns from the half-angle tangent u =
    # tan((t/2) log n) and r = n^-1/2/(1 + u^2): n^-1/2 cos = (1 - u^2) r,
    # -n^-1/2 sin = (-2u) r); every term of every chunk to each end goes to
    # one math.fsum.  The alternating sum is read off the plain sums to
    # k//2 and k as 2^(1-s) S(s, k//2) - S(s, k).
    t, k = 14.1347251417347, 300_000
    re_terms, im_terms = [], []
    for lo in range(1, k + 1, DEFAULT_CHUNK):
        idx = np.arange(lo, min(lo + DEFAULT_CHUNK, k + 1), dtype=np.int64)
        nf = idx.astype(np.float64)
        w = 1.0 / np.sqrt(nf)
        u = np.tan(0.5 * t * np.log(nf))
        r = w / (u * u + 1.0)
        re_terms += ((1.0 - u * u) * r).tolist()
        im_terms += (-2.0 * u * r).tolist()

    def plain(m):
        return complex(math.fsum(re_terms[:m]), math.fsum(im_terms[:m]))

    expected = plain(k)
    if alternating:
        expected = 2.0 ** (1.0 - complex(0.5, t)) * plain(k // 2) - expected
    z = partial_zeta(0.5, t, k, alternating)
    assert z.real.hex() == expected.real.hex()
    assert z.imag.hex() == expected.imag.hex()


# ----------------- chunk length: speed only, bounded memory -----------------

@pytest.mark.parametrize("chunk", [3, DEFAULT_CHUNK])
@pytest.mark.parametrize("count", [2, 5])
@pytest.mark.parametrize("k", [1, 7, 10, 16383, 16384, 10**6])
def test_work_rows_start_on_cache_lines(k, count, chunk, monkeypatch):
    # Every row of a work block, the traversal's and the extraction's,
    # starts on a 64-byte boundary, and is as long as the longest chunk.
    monkeypatch.setattr(summation, "DEFAULT_CHUNK", chunk)
    rows = summation._chunk_rows(count, k)
    assert rows.shape == (count, min(k, chunk)) and rows.dtype == np.float64
    assert [row.ctypes.data % 64 for row in rows] == [0] * count


def _zeros(count):
    catalog = builtin_catalog()
    return [(get_zero(catalog, q).t, q) for q in range(1, count + 1)]


def test_values_do_not_depend_on_the_chunk_length():
    # The chunk length sets the speed only: every chunked sum is math.fsum of
    # all its terms, so partial_zeta and a zero-list traversal give the same
    # bits at any chunk length.
    t1, zeros = _zeros(1)[0][0], _zeros(4)

    def values():
        sums = [partial_zeta(0.5, t1, 300_000, alternating)
                for alternating in (False, True)]
        pairs = series._gamma_pairs([100_000], zeros)
        return ([v.hex() for z in sums for v in (z.real, z.imag)]
                + [e.value.hex() for pair in pairs for e in pair])

    default = values()
    for chunk in (1000, 4096):
        with mock.patch.object(summation, "DEFAULT_CHUNK", chunk):
            assert values() == default


def test_zero_list_traversal_memory_is_bounded():
    # T2's traversals (ten zeros, k = 1e5) keep a chunk's arrays alive one
    # or two columns at a time and one exact int per column: the traced
    # peak stays near a dozen arrays of DEFAULT_CHUNK floats.  The first call
    # makes one-off allocations, so it is not counted.
    zeros = _zeros(10)
    series._gamma_pairs([100_000], zeros)
    tracemalloc.start()
    try:
        series._gamma_pairs([100_000], zeros)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


_FAULTS = """
import resource, sys
from zetagamma import builtin_catalog, g_of_t, get_zero
from zetagamma.series import SeriesParams, _gamma_pairs, offdiag_naive
from zetagamma.tables import TableSpec, build_table
t1 = get_zero(builtin_catalog(), 1).t
calls = {"naive": lambda: offdiag_naive(SeriesParams(0.5, t1, 2000), True),
         "pairs": lambda: _gamma_pairs([10**6], [(t1, 1)]),
         "g": lambda: g_of_t(t1, 10**6)}
calls.update((f"T{i}", lambda i=i: build_table(TableSpec(f"T{i}")))
             for i in range(1, 7))
run = calls[sys.argv[1]]
run()
run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _warm_faults(call):
    # Minor page faults of one warm call of the oracle at k = 2000, of a
    # table, or of one gamma pair or one g step at k = 1e6, each counted in
    # a fresh process of its own: what a process ran before sets the
    # allocator's state, and blocks freed by one call could serve the next.
    src = str(Path(summation.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", _FAULTS, call],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    return int(proc.stdout)


@pytest.mark.parametrize("call, bound", [
    *((f"T{i}", 100) for i in range(1, 7)), ("pairs", 500), ("g", 100),
    ("naive", 20)])
def test_traversals_do_not_page_fault_per_chunk(call, bound):
    # Every traversal computes its chunks into one work block of its own
    # and extracts into rows allocated once per sum, so a warm call faults
    # in almost no fresh page; freeing and refetching chunk arrays instead
    # cost 490-1536 minor faults per table, 9856 per gamma pair and 224 per
    # g step on a cosine callback of its own.  The oracle computes its row
    # blocks into one buffer per call; a fresh array per block cost 64-79
    # faults at k = 2000.  The first free of a block raises glibc's mmap
    # threshold past its size, so the next call still grows the heap once:
    # two warm-up calls, then the third is counted.
    pytest.importorskip("resource")
    faults = _warm_faults(call)
    assert faults < bound, faults


@pytest.mark.parametrize("chunk", [1, 3, 1000])
def test_each_chunk_is_extracted_once(chunk, monkeypatch):
    # Every chunk of every term array goes through one extraction straight
    # into its array's exact integer total; nothing is extracted again
    # after the last chunk, also past 4096 chunks, whatever the chunk
    # length.  Each extraction is recorded by its first term and its length.
    # A pair sum with an end at k // 2 stops a chunk there.
    extracted = []
    exact_units = summation._exact_units

    def spy(x, work):
        extracted.append((x[0], x.size))
        return exact_units(x, work)

    def columns(idx):
        nf = idx.astype(np.float64)
        yield nf
        yield -nf

    def chunks(lo, hi):
        return [(a, min(chunk, hi + 1 - a)) for a in range(lo, hi + 1, chunk)]

    monkeypatch.setattr(summation, "_exact_units", spy)
    monkeypatch.setattr(summation, "DEFAULT_CHUNK", chunk)
    k = 4100 * chunk + chunk // 2
    assert chunked_parallel_sum(lambda n: n.astype(np.float64), k) == \
        k * (k + 1) // 2
    assert extracted == chunks(1, k)
    extracted.clear()
    assert chunked_parallel_pair_sum(columns, k, ((k, k // 2), (k,))) == \
        (k * (k + 1) // 2, k // 2 * (k // 2 + 1) // 2, -(k * (k + 1) // 2))
    split = chunks(1, k // 2) + chunks(k // 2 + 1, k)
    assert extracted == [c for lo, size in split
                         for c in ((lo, size), (-lo, size))]


@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_every_prefix_end_closes_a_chunk(chunk, monkeypatch):
    # Ends at 1, at chunk edges and one either side, repeated, unsorted and
    # at k.  The callback sees consecutive index ranges covering 1..k, and
    # each range stops at the first of the next end of any array, chunk
    # indices or k: every end is the last index of a range, and only a
    # range that ends at an end or at k is short.  Each total is math.fsum
    # of its prefix.
    monkeypatch.setattr(summation, "DEFAULT_CHUNK", chunk)
    k = 3 * chunk + 2
    ends = ((k, 1, chunk + 1, chunk, chunk - 1, 2 * chunk, 2 * chunk, 1),
            (2 * chunk + 1, k, 0))
    ranges = []

    def columns(idx):
        ranges.append((int(idx[0]), int(idx[-1])))
        nf = idx.astype(np.float64)
        yield 1.0 / nf
        yield np.where(idx % 2 == 0, 1.0, -1.0) / np.sqrt(nf)

    totals = chunked_parallel_pair_sum(columns, k, ends)
    stops = {m for item in ends for m in item} | {k}
    assert [lo for lo, _ in ranges] == [1] + [hi + 1 for _, hi in ranges[:-1]]
    assert ranges[-1][1] == k
    assert stops - {0} <= {hi for _, hi in ranges}
    assert all(hi - lo + 1 == chunk or hi in stops and hi - lo < chunk
               for lo, hi in ranges)
    n = np.arange(1, k + 1)
    terms = (1.0 / n, np.where(n % 2 == 0, 1.0, -1.0) / np.sqrt(n))
    assert totals == tuple(math.fsum(x[:m].tolist())
                           for x, item in zip(terms, ends) for m in item)


# ---------------------- argument checks and the k cap -----------------------

@pytest.mark.parametrize("k", [2.5, -3, True, float("nan"), "10"])
def test_chunked_rejects_bad_k(k):
    with pytest.raises(DomainError):
        chunked_parallel_sum(lambda n: n.astype(np.float64), k)
    with pytest.raises(DomainError):
        chunked_parallel_pair_sum(lambda n: (1.0 / n, 1.0 / n), k,
                                  ((1,), (1,)))


def test_chunked_accepts_numpy_integers():
    assert chunked_parallel_sum(lambda n: n.astype(np.float64),
                                np.int64(4)) == 10.0
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
                                  MAX_DIRECT_K + 1, ((1,), (1,)))
    assert calls == []


def test_partial_zeta_refuses_k_above_cap_quickly():
    start = time.perf_counter()
    with pytest.raises(DomainError, match="cap"):
        partial_zeta(0.5, 14.1347251417347, MAX_DIRECT_K + 1)
    assert time.perf_counter() - start < 1.0
