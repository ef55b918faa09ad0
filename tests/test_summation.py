"""Compensated summation engine: accuracy bounds and determinism."""

import math
import random
import threading
from fractions import Fraction

import numpy as np
import pytest

from zetagamma import (
    DomainError,
    chunked_parallel_pair_sum,
    chunked_parallel_sum,
    compensated_sum,
)

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
    with pytest.raises(DomainError):
        compensated_sum([1e308, 1e308])
    with pytest.raises(DomainError):
        chunked_parallel_sum(lambda n: np.full(n.shape, 1e308), 10)


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


def test_pair_sum_bit_identical_across_workers():
    t = 21.0220396387716

    def pair(idx):
        nf = idx.astype(np.float64)
        arg = t * np.log(nf)
        return np.cos(arg) / np.sqrt(nf), np.sin(arg) / np.sqrt(nf)

    base = chunked_parallel_pair_sum(pair, 200_000, workers=1)
    assert chunked_parallel_pair_sum(pair, 200_000, workers=8) == base
