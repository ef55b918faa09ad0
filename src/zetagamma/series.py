"""Truncated series and closed forms tied to zeta zeros on the critical strip.

All functions work in plain binary64.  Every ``n^-s`` sum is read off
one traversal, ``_partial_zeta_direct``, and the traversal decides each
sum's route once, before any work, for every reader: ``partial_zeta``,
the gamma estimators and the zero maps alike.  Up to ``MAX_DIRECT_K`` the
direct route accumulates every term through the correctly rounded chunked
sums of :mod:`zetagamma.summation`.  Past the cap, every end of a real sum
(``t == 0``) with ``sigma > 0`` is an Euler-Maclaurin read: a short head
(15 terms for ``H_k``) is summed directly and the rest is the integral
plus Bernoulli corrections, in O(1) time.  That covers the diagonals
``sum n^(-2 sigma)``, ``H_k`` and the alternating real sums, which take
the eta identity below on two such reads.  Every other sum past the cap
is a ``DomainError``.

Every Dirichlet term comes from one kernel, ``_cos_msin``, called only
by the traversal ``_partial_zeta_direct``, already weighted: with
``u = tan(x/2)`` at ``x = t log n``, the weight ``w = n^-sigma`` and
``r = w/(1 + u^2)``, its one division, ``w cos x = (1 - u^2) r`` and
``-w sin x = (-2u) r``, nine numpy passes per pair.  ``x/2`` is taken as
``(t/2) log n``, the halved rounding of ``t log n`` bit for bit.  A
traversal that needs only real parts (the g map's) runs the cosine half,
``_half_angle``, alone: seven passes.  numpy evaluates float64 ``tan``
with SIMD instructions where its ``cos`` and ``sin`` take the scalar libm
path, so one tangent costs about a third of the pair.  Against ``w cos``
and ``-w sin`` of the rounded ``x`` the kernel is off by at most 2.57
(cos) and 2.43 (sin) times ``2^-53`` at ``w = 1``, and 3.71 and 3.33
times ``w 2^-53`` at ``w = n^-1/2`` (an ulp of ``w cos x`` is up to
``w 2^-52``), measured against extended precision on 1.1e7 arguments in
[0, 1e9), a fifth of them within 1e-6 of multiples of pi/2; a correctly
rounded cos is off by 0.5 * 2^-53, and the rounding of ``x`` itself puts
about ``|x| w 2^-53`` into every term.  Only the brute-force oracle
``offdiag_naive`` keeps ``np.cos``, so that it stays independent of the
kernel.  It is also the only routine that runs on more than one thread:
it splits its row blocks over the CPUs the process may use, and its value
never depends on how many.  Every sum runs on the calling thread.

The two headline results are ``gamma_type1`` and ``gamma_type2``:
estimates of the Euler-Mascheroni constant built from a single
non-trivial zeta zero ordinate, one via the alternating (eta-form)
series, one via the non-alternating truncated series.  Both reduce an
O(k^2) double sum to O(k) through the squared-trig-sum factorization
checked against the brute-force oracle ``offdiag_naive``.

Every sum is a plain one to a prefix end.  The alternating sum is
``2^(1-s) S(s, k//2) - S(s, k)`` (the even n give ``2^(1-s)`` times the
sum to k//2), and type2 takes the plain sum at k-1.  A traversal takes
one sigma, a list of ordinates and one list of prefix ends for all of
them, and returns one ``{end: S(sigma + it, end)}`` per ordinate: each
trig column is reduced exactly once, a chunk stopping at every end to
read its exact running total there (see :mod:`zetagamma.summation`), and
every caller reads its sums by end.  A table takes two traversals of
n = 1..k at its largest k: one sums the diagonals H_k and H_(k-1), the
other every zero's trig columns, with log n and n^-1/2 once per chunk
for all zeros.  ``gamma_type1``, ``gamma_type2`` and ``f_of_t`` are the
tables' routines at one zero and one k.  Every chunk is computed into
one work block per traversal, not into new arrays.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from enum import Enum, IntEnum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError, OracleCapError
from .summation import (
    MAX_DIRECT_K,
    _cap_error,
    _check_positive_int,
    _check_real,
    _chunk_rows,
    chunked_parallel_pair_sum,
    chunked_parallel_sum,
    compensated_sum,
)

#: Reference value of the Euler-Mascheroni constant used throughout.
EULER_GAMMA = 0.577215664901533

#: Largest k the O(k^2) brute-force off-diagonal path accepts.  At k = 1e5
#: the pair count is already almost 5e9; the factorized path is the
#: production route.
ORACLE_CAP = 50_000

#: Elements per row block of ``offdiag_naive`` (128 KiB of float64 per
#: temporary): enough rows per numpy call to amortize the call overhead,
#: few enough to keep the working set cache-resident.
_NAIVE_BLOCK = 1 << 14


@dataclass(frozen=True)
class SeriesParams:
    """(sigma, t, k) triple parameterizing a truncated critical-strip sum.

    ``sigma`` is the abscissa (must lie in the open strip (0, 1)), ``t``
    the imaginary ordinate, ``k`` the truncation length.
    """

    sigma: float
    t: float
    k: int

    def __post_init__(self):
        if not (0.0 < _check_real(self.sigma, "sigma") < 1.0):
            raise DomainError("sigma must lie in the open interval (0, 1)")
        _check_real(self.t, "t")
        _check_positive_int(self.k, "k")


@dataclass(frozen=True)
class TrigSums:
    """Paired cosine/sine partial sums over n = 1..k.

    For the alternating series these are the real and (negated) imaginary
    parts of the truncated sum((-1)^n n^-s); for the plain series they are
    the truncated sums of cos(t log n)/n^sigma and sin(t log n)/n^sigma.
    """

    cos_sum: float
    sin_sum: float


class GammaMethod(Enum):
    ALT_TYPE1 = "type1"
    NONALT_TYPE2 = "type2"


@dataclass(frozen=True)
class GammaEstimate:
    """A gamma value plus the provenance that produced it."""

    value: float
    method: GammaMethod
    q: int | None
    t_q: float
    k: int

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError("gamma estimate is not finite")


@functools.cache
def _bernoulli_even_rationals(count: int) -> tuple[Fraction, ...]:
    # B_m from sum_{j=0}^{m} C(m+1, j) B_j = 0 (m >= 1), exact rationals.
    n_max = 2 * count
    b = [Fraction(0)] * (n_max + 1)
    b[0] = Fraction(1)
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * b[j]
        b[m] = -acc / (m + 1)
    return tuple(b[2 * i] for i in range(1, count + 1))


#: Euler-Maclaurin coefficients B_2j/(2j)!, j = 1..8, each rounded once
#: from the exact rationals.
_EM_COEFFS = tuple(float(b / math.factorial(2 * j)) for j, b in
                   enumerate(_bernoulli_even_rationals(8), start=1))

#: Largest remainder bound the Euler-Maclaurin route accepts.  Its sums are
#: at least 1 (the n = 1 term), so this is 1/4096 of an ulp of 1 or less.
_EM_TOL = 2.0 ** -64


def _n_pow(n: np.ndarray, sigma: float, out: np.ndarray) -> np.ndarray:
    # n^-sigma of the float row n, written to out: 1/sqrt(n) at sigma = 1/2,
    # 1/n at sigma = 1 (bit-identical to numpy's n ** -1.0 at every n <= 1e9
    # with numpy 2.4 on x86-64, in half its time), else n ** -sigma.
    if sigma == 0.5:
        np.divide(1.0, np.sqrt(n, out=out), out=out)
    elif sigma == 1.0:
        np.divide(1.0, n, out=out)
    else:
        with np.errstate(over="ignore"):  # inf terms: DomainError
            np.power(n, -sigma, out=out)
    return out


def _half_angle(t: float, log_n: np.ndarray, w: np.ndarray,
                rows: Sequence[np.ndarray]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # w cos(x), u = tan(x/2) and r = w/(1 + u^2) at x = t log n, written to
    # the three rows given (log_n and w are left as they are); see the
    # module docstring for the cost and the error bound.  x/2 is taken as
    # (t/2) log n: the halved rounding of t log n bit for bit, since both
    # scale by a power of two, but finite up to twice as far, so the
    # traversal refuses a t log n past binary64 itself.  A non-finite x/2
    # gives nan without a numpy warning; the chunked sum rejects it with
    # DomainError.
    cos, u, r = rows
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(0.5 * t, log_n, out=u)
        np.tan(u, out=u)
        np.multiply(u, u, out=cos)
        np.add(cos, 1.0, out=r)
        np.divide(w, r, out=r)
        np.subtract(1.0, cos, out=cos)
        cos *= r
    return cos, u, r


def _cos_msin(t: float, log_n: np.ndarray, w: np.ndarray,
              rows: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    # w cos(x) and -w sin(x) = (-2u) r at x = t log n, from _half_angle
    # into the three rows given: w cos, -w sin and a scratch row.
    # These two steps raise no numpy warning, so they need no errstate: u is
    # nan or below 2^62 in magnitude (no binary64 argument comes closer to a
    # pole of tan; the nearest is 6381956970095103 * 2^797, with tan about
    # -2.1e18), and |2u r| <= |w|.  Doubling u, not r, keeps a finite w
    # finite: 2r overflows for w above 2^1023.
    cos, u, r = _half_angle(t, log_n, w, rows)
    u *= -2.0
    u *= r
    return cos, u


def _partial_zeta_direct(sigma: float, ts: Sequence[float],
                         ends: Sequence[int], imag: bool = True
                         ) -> list[dict[int, complex]]:
    # {m: S(sigma + it, m) for m in ends} for each t in ts.  This picks
    # every Dirichlet sum's route, before any work.  Past MAX_DIRECT_K, a
    # real sum (every t == 0) at sigma > 0 reads each end by
    # _partial_zeta_em (every caller's ends then lie at k//2 or above, far
    # past its head), and any other sum is refused.  Up to the cap it is
    # one traversal of n = 1..max(ends).  Each chunk is computed into one
    # block's rows: n as floats into the log row, n^-sigma from it, then
    # its log in place; the weighted trig columns once per ordinate, each
    # reduced to every end before the next is made.  At t == 0, or with
    # imag false, only the real part is summed, off the n^-sigma row or the
    # kernel's cosine half (_half_angle), and the imaginary part is 0.0.
    # A phase t log n past binary64 is refused before any chunk: log n
    # grows with n, so the largest is t log k.
    k = max(ends, default=0)
    trig = any(t != 0.0 for t in ts)
    if k > MAX_DIRECT_K:
        if trig or sigma <= 0.0:
            raise _cap_error(k)
        return [{m: complex(_partial_zeta_em(sigma, m), 0.0) for m in ends}
                for _ in ts]
    if trig and k > 1:
        log_k = float(np.log(np.float64(k)))
        for t in ts:
            if not math.isfinite(t * log_k):
                raise DomainError(f"t log k = {t * log_k!r} is not finite "
                                  f"at t={t!r}, k={k}")
    widths = [2 if imag and t != 0.0 else 1 for t in ts]
    block = _chunk_rows(5, k)

    def columns(idx: np.ndarray):
        log_n, w, *rows = block[:, :idx.size]
        log_n[...] = idx
        _n_pow(log_n, sigma, w)
        if trig:
            np.log(log_n, out=log_n)
        for t, width in zip(ts, widths):
            if t == 0.0:
                yield w
            elif width == 2:
                yield from _cos_msin(t, log_n, w, rows)
            else:
                yield _half_angle(t, log_n, w, rows)[0]

    totals = iter(chunked_parallel_pair_sum(columns, k, [ends] * sum(widths)))
    sums = []
    for width in widths:
        real = [next(totals) for _ in ends]
        im = [next(totals) for _ in ends] if width == 2 else [0.0] * len(ends)
        sums.append(dict(zip(ends, map(complex, real, im))))
    return sums


def _alternating(sigma: float, t: float, half: complex, full: complex
                 ) -> complex:
    # sum_{n<=k} (-1)^n n^-s = 2^(1-s) S(s, k//2) - S(s, k), from half =
    # S(s, k//2) and full = S(s, k); real, with imaginary +0.0, at t == 0.
    # Below k = 2 there is no even n, so no factor 2^(1-s), which overflows
    # below sigma = -1023; an even part past binary64 is a DomainError.
    error = DomainError("alternating sum is not finite in binary64")
    try:
        even = 2.0 ** (1.0 - complex(sigma, t)) * half if half else 0j
    except OverflowError:
        raise error from None
    z = even - full
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise error
    return complex(z.real, 0.0) if t == 0.0 else z


def _em_tail(s: float | complex, x: float, order: int) -> float | complex:
    # Euler-Maclaurin corrections of sum_{n >= x} n^-s minus the integral
    # of x^-s from x on: x^-s/2, then B_2j/(2j)! (s)_{2j-1} x^(1-s-2j) for
    # j = 1..order-1; order 0 keeps nothing.
    if order == 0:
        return 0.0
    acc = 0.5
    rise = s / x  # (s)_{2j-1} x^(1-2j)
    for j in range(1, order):
        acc += _EM_COEFFS[j - 1] * rise
        rise *= (s + (2 * j - 1)) * (s + 2 * j) / (x * x)
    return x ** -s * acc


@functools.cache
def _em_plan(sigma: float) -> tuple[int, int]:
    # (head N0, Bernoulli terms m) for sum n^-sigma, sigma > 0.  For
    # n >= N = N0 + 1 the remainder after m terms is at most
    # |B_2m|/(2m)! times the integral of |f^(2m)| from N on, f = x^-sigma;
    # f^(2m) > 0, so that is |f^(2m-1)(N)| = (sigma)_{2m-1} N^(1-sigma-2m).
    # N0 is the smallest head any m <= 8 allows within _EM_TOL, and m the
    # fewest terms that do at it.
    first = []
    for m, c in enumerate(_EM_COEFFS, start=1):
        log_scale = (math.log(abs(c) / _EM_TOL)
                     + math.lgamma(sigma + 2 * m - 1) - math.lgamma(sigma))
        first.append(max(2, math.ceil(math.exp(log_scale / (sigma + 2 * m - 1)))))
    n = min(first)
    return n - 1, 1 + next(i for i, f in enumerate(first) if f <= n)


def _as_float(k: int) -> float:
    # An integer k as binary64; one past its range is a DomainError.
    try:
        return float(k)
    except OverflowError:
        raise DomainError("k exceeds binary64") from None


def _partial_zeta_em(sigma: float, k: int) -> float:
    # sum_{n<=k} n^-sigma, sigma > 0, k past the head of _em_plan(sigma):
    # the head directly, then the segment n = head+1..k as (tail from
    # head+1) - (tail from k+1) plus the integral of x^-sigma between them,
    # (end^u - n^u)/u with u = 1 - sigma.
    # Where |u log(end/n)| < 1 that difference cancels, so it is taken as
    # n^u expm1(u log(end/n))/u, which is exactly log(end/n) at sigma = 1.
    # Above 1, exp (and x^u) would scale the rounding of the argument (of u)
    # by the argument, so the powers are taken as x x^-sigma instead.
    head, terms = _em_plan(sigma)
    n = head + 1
    end = _as_float(k + 1)
    u = 1.0 - sigma
    log_ratio = math.log(end / n)
    if abs(u * log_ratio) >= 1.0:
        integral = (end * end ** -sigma - n * n ** -sigma) / u
    elif u == 0.0:
        integral = log_ratio
    else:
        integral = n ** u * math.expm1(u * log_ratio) / u
    [z] = _partial_zeta_direct(sigma, (0.0,), (head,))
    return compensated_sum((z[head].real, integral,
                            _em_tail(sigma, n, terms + 1),
                            -_em_tail(sigma, end, terms + 1)))


def partial_zeta(sigma: float, t: float, k: int,
                 alternating: bool = False) -> complex:
    """S(s, k) = sum_{n=1..k} e_n n^-s at s = sigma + it.

    ``e_n = (-1)^n`` when ``alternating``, else 1.  The real part sums
    ``e_n cos(t log n)/n^sigma`` and the imaginary part
    ``-e_n sin(t log n)/n^sigma``.  At ``t == 0`` only the real part is
    summed and the imaginary part is ``0.0``.

    Up to ``k = summation.MAX_DIRECT_K`` every sum is direct, in one
    traversal of ``n = 1..k``.  Above the cap, sums with ``t == 0`` and
    ``sigma > 0`` take the Euler-Maclaurin route: a short head (15 terms
    for H_k) directly, then the integral, the endpoint halves and up to
    eight Bernoulli terms, with the remainder bounded by 2^-64; every other
    sum refuses such a ``k`` with a ``DomainError``.  The alternating sum
    is taken as ``2^(1-s) S(s, k//2) - S(s, k)`` from the plain sums to
    both ends, on either route.  It adds the roundings of the two sums and
    of ``2^(1-s)``: where the sums cancel, up to about ``eps |S(s, k)|``
    beside the rounding of the phases ``t log n``, and past the cap an
    alternating real sum loses about as much to the identity.  At
    ``t == 0`` there is no phase, so with ``sigma <= 0`` integer sums are
    no longer exact (``partial_zeta(-2.0, 0.0, 10**6, True)`` is 32 below
    k(k+1)/2), and at ``k == 2`` a ``sigma`` in (-1024, -1023) overflows
    ``2^(1-s)`` and is a ``DomainError``.  A ``sigma`` or ``t`` that is
    not a finite real number is a ``DomainError``, and so are a phase
    ``t log k`` past binary64 and a ``k`` the route refuses, before any
    term is summed.
    """
    k = _check_positive_int(k, "k", minimum=0)
    sigma = _check_real(sigma, "sigma")
    t = _check_real(t, "t")
    ends = (k // 2, k) if alternating else (k,)
    [z] = _partial_zeta_direct(sigma, (t,), ends)
    return _alternating(sigma, t, z[k // 2], z[k]) if alternating else z[k]


def harmonic_partial_sum(k: int) -> float:
    """H_k = sum of 1/n for n = 1..k (``partial_zeta(1, 0, k)``): a
    correctly rounded chunked sum up to ``summation.MAX_DIRECT_K`` terms,
    Euler-Maclaurin above."""
    k = _check_positive_int(k, "k")
    return partial_zeta(1.0, 0.0, k).real


def harmonic_asymptotic(k: int, gamma: float, n_terms: int) -> float:
    """Asymptotic expansion of H_k.

    Returns ``gamma + log k + 1/k`` minus the Euler-Maclaurin tail of H_k:
    ``gamma + log k + 1/(2k) - sum_{n=1..n_terms} B_2n/(2n k^2n)`` with
    ``0 <= n_terms <= 8`` (0 keeps only 1/(2k)).  ``gamma`` must be finite.
    """
    k = _check_positive_int(k, "k")
    gamma = _check_real(gamma, "gamma")
    n_terms = _check_positive_int(n_terms, "n_terms", minimum=0)
    if n_terms > len(_EM_COEFFS):
        raise DomainError(f"n_terms must be <= {len(_EM_COEFFS)}")
    x = _as_float(k)
    return gamma + math.log(k) + 1.0 / x - _em_tail(1.0, x, n_terms + 1)


def stieltjes_estimate(n: int, m: int) -> float:
    """Truncated-limit estimate of the nth Stieltjes constant.

    Returns ``sum_{j=1..m} (log j)^n / j - (log m)^(n+1)/(n+1)``.  For
    n = 0 this tends to the Euler-Mascheroni constant as m grows.
    """
    n = _check_positive_int(n, "n", minimum=0)
    m = _check_positive_int(m, "m", minimum=2)
    try:  # first: from m = 3 on, no term (log j)^n overflows unless this does
        tail = math.log(m) ** (n + 1) / (n + 1)
    except OverflowError:
        raise DomainError("(log m)^(n+1) exceeds binary64") from None
    if n == 0:
        series = harmonic_partial_sum(m)
    else:
        # (log j)^n / j is not an n^-s sum, so it keeps its own callback.
        series = chunked_parallel_sum(
            lambda j: np.log(j.astype(np.float64)) ** n / j, m)
    return series - tail


def trig_sums(params: SeriesParams, alternating: bool) -> TrigSums:
    """Cosine and sine partial sums in a single traversal of n = 1..k.

    alternating=True:  A = sum (-1)^n cos(t log n)/n^sigma,
                       B = -sum (-1)^n sin(t log n)/n^sigma.
    alternating=False: P = sum cos(t log n)/n^sigma,
                       Q = sum sin(t log n)/n^sigma.

    Both are read off ``partial_zeta(sigma, t, k, alternating)``.
    """
    z = partial_zeta(params.sigma, params.t, params.k, alternating)
    # 0.0 - x, not -x: the t = 0 sine sum stays +0.0.
    sin_sum = z.imag if alternating else 0.0 - z.imag
    return TrigSums(cos_sum=z.real, sin_sum=sin_sum)


def _usable_cpus() -> int:
    # CPUs this process may run on: its affinity mask where the platform
    # has one, else every CPU.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _naive_plan(k: int) -> tuple[list[tuple[int, int]], int]:
    # offdiag_naive's row blocks at k, each (n0, b) for the rows
    # n = n0..n0+b-1 against the columns m = n0+1..k, and the number of
    # threads they are split over: one per usable CPU, at most one per
    # block, at least one.
    blocks = []
    n0 = 1
    while n0 < k:
        width = k - n0
        b = max(1, min(width, _NAIVE_BLOCK // width))
        blocks.append((n0, b))
        n0 += b
    return blocks, max(1, min(len(blocks), _usable_cpus()))


def offdiag_naive(params: SeriesParams, alternating: bool) -> float:
    """Doubled off-diagonal double sum by brute force - the O(k^2) oracle.

    Returns ``2 sum_{n=1..k} sum_{m=n+1..k} s_mn cos(t log(m/n)) / (mn)^sigma``
    where ``s_mn = (-1)^m (-1)^n`` when alternating, else +1.  Every term
    is evaluated directly from m/n (no trig factorization) so this stays
    an independent check on ``offdiag_factorized``.

    Consecutive rows n = n0..n0+b-1 are evaluated as one block against the
    columns m = n0+1..k, with the entries m <= n, all in its leading
    b x b corner, zeroed.  The block holds at most ``_NAIVE_BLOCK`` = 2^14
    elements (one row when a row is longer) and is computed in place.
    Each row is reduced by numpy's pairwise sum, with error about
    ``eps * log2(k) * sum|terms|``, and the row totals are combined by one
    correctly rounded ``compensated_sum``; that is far under the 1e-11
    scaled gate against the factorized route.

    This is the one routine of the package that runs on more than one
    thread.  The blocks are split over the CPUs the process may use (its
    affinity mask), at most one thread per block: with w threads, the
    calling thread takes blocks 0, w, 2w, ... and worker i blocks i, i + w,
    ..., each into a buffer of its own, allocated once per call.  numpy's
    divide, log and cos release the interpreter lock while they loop.  A
    row total does not depend on the thread that computes it, and the
    correctly rounded sum does not depend on the order of the totals, so
    the value is the same bit for bit at every CPU count.  A worker's
    exception is raised on the calling thread once every worker has been
    joined.

    Refuses k beyond ``ORACLE_CAP`` with ``OracleCapError`` to bound the
    quadratic runtime.
    """
    k = params.k
    if k > ORACLE_CAP:
        raise OracleCapError(f"k={k} exceeds the brute-force cap {ORACLE_CAP}")
    if k < 2:
        return 0.0
    t = params.t
    nf = np.arange(1, k + 1, dtype=np.float64)
    w = _n_pow(nf, params.sigma, np.empty(k))
    if alternating:
        w[::2] *= -1.0
    blocks, threads = _naive_plan(k)
    bufs = np.empty((threads, max(k - 1, _NAIVE_BLOCK)))
    totals: list[list[float] | None] = [None] * len(blocks)
    errors: list[BaseException] = []

    def share(i: int) -> None:
        # Blocks i, i + threads, ... into bufs[i].  numpy's error state is
        # per thread, so each share sets its own: nan terms: DomainError.
        buf = bufs[i]
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(i, len(blocks), threads):
                n0, b = blocks[j]
                width = k - n0
                n_rows = slice(n0 - 1, n0 - 1 + b)
                terms = np.divide(nf[n0:], nf[n_rows, None],
                                  out=buf[:b * width].reshape(b, width))
                np.log(terms, out=terms)
                terms *= t
                np.cos(terms, out=terms)
                terms *= w[n0:]
                terms *= w[n_rows, None]
                np.copyto(terms[:, :b], 0.0,
                          where=np.tri(b, b, -1, dtype=bool))
                totals[j] = terms.sum(axis=1).tolist()

    def work(i: int) -> None:
        try:
            share(i)
        except BaseException as exc:  # raised again on the calling thread
            errors.append(exc)

    started = []
    try:
        for i in range(1, threads):
            worker = threading.Thread(target=work, args=(i,))
            worker.start()
            started.append(worker)
        share(0)
    finally:
        for worker in started:
            worker.join()
    if errors:
        raise errors[0]
    return 2.0 * compensated_sum([x for rows in totals for x in rows])


def offdiag_factorized(params: SeriesParams, alternating: bool) -> float:
    """Doubled off-diagonal sum via the O(k) factorization.

    The squared trig sums expand into diagonal plus off-diagonal parts:
    ``cos_sum^2 + sin_sum^2 = sum_{n<=k} n^(-2 sigma) + offdiag``, so the
    off-diagonal part is recovered by subtracting the diagonal.  Equals
    ``offdiag_naive`` at every finite k up to rounding.
    """
    z = partial_zeta(params.sigma, params.t, params.k, alternating)
    return _offdiag(z, partial_zeta(2.0 * params.sigma, 0.0, params.k))


def _offdiag(z: complex, diag: complex) -> float:
    # |S(s, k)|^2 minus its diagonal sum_{n<=k} n^(-2 sigma).
    return z.real * z.real + z.imag * z.imag - diag.real


def gamma_type1(t_q: float, k: int, q: int | None = None) -> GammaEstimate:
    """Euler-Mascheroni estimate from the alternating series at a zero.

    Computes ``-offdiag_factorized(sigma=1/2, t_q, k, alternating) - log k``;
    the sign absorption turns the cancellation of the alternating double
    sum against H_k into a direct gamma estimate.
    """
    return _gamma_pairs((k,), ((t_q, q),))[0][0]


def gamma_type2(t_q: float, k: int, q: int | None = None) -> GammaEstimate:
    """Euler-Mascheroni estimate from the non-alternating series at a zero.

    Computes ``k/(1/4 + t_q^2) - offdiag_factorized(sigma=1/2, t_q, k-1,
    alternating=False) - log(k-1)``.  The double sum is truncated at k-1,
    matching the bundled reference tables; the reindexed variant that sums
    to k with leading term (k+1) is the same quantity evaluated at k+1.
    """
    return _gamma_pairs((k,), ((t_q, q),))[0][1]


def _gamma_pairs(ks: Sequence[int], zeros: Sequence[tuple[float, int | None]]
                 ) -> list[tuple[GammaEstimate, GammaEstimate]]:
    # (gamma_type1(t_q, k, q), gamma_type2(t_q, k, q)) at every k in ks for
    # each (t_q, q) in zeros, k by k, from two traversals of n = 1..max(ks):
    # the diagonal H to k-1 and k, and every zero's plain sums to k//2, k-1
    # and k (k//2 and k make its alternating sum), with log n and n^-1/2
    # once per n.  Every k and t_q is checked once.  No zeros, no sum.
    ks = [_check_positive_int(k, "k", minimum=2) for k in ks]
    ts = [_check_real(t_q, "t_q", positive=True) for t_q, _ in zeros]
    if not zeros:
        return []
    [h] = _partial_zeta_direct(1.0, (0.0,), [m for k in ks for m in (k - 1, k)])
    sums = _partial_zeta_direct(
        0.5, ts, [m for k in ks for m in (k // 2, k - 1, k)])
    pairs = []
    for k in ks:
        for t, (_, q), z in zip(ts, zeros, sums):
            alt = _alternating(0.5, t, z[k // 2], z[k])
            type1 = -_offdiag(alt, h[k]) - math.log(k)
            type2 = (k / (0.25 + t * t)
                     - _offdiag(z[k - 1], h[k - 1]) - math.log(k - 1))
            pairs.append((
                GammaEstimate(type1, GammaMethod.ALT_TYPE1, q, t, k),
                GammaEstimate(type2, GammaMethod.NONALT_TYPE2, q, t, k)))
    return pairs


class EulerMaclaurinOrder(IntEnum):
    """How many Euler-Maclaurin correction terms the zeta expansion keeps."""

    POLE_ONLY = 0   # series + pole subtraction -k^(1-s)/(1-s)
    HALF_TERM = 1   # ... + k^(-s)/2
    B2_TERM = 2     # ... + (B_2/2) s k^(-s-1)


def zeta_em(s_sigma: float, s_t: float, k: int,
            order: EulerMaclaurinOrder = EulerMaclaurinOrder.HALF_TERM) -> complex:
    """Euler-Maclaurin continuation of the zeta series, valid for Re(s) > 0.

    Returns ``sum_{n=1..k-1} n^(-s) - k^(1-s)/(1-s)`` plus the corrections
    selected by ``order`` (the tail corrections of ``partial_zeta``'s
    Euler-Maclaurin route, taken at k), as a complex value.
    """
    k = _check_positive_int(k, "k", minimum=2)
    sigma = _check_real(s_sigma, "s_sigma")
    t = _check_real(s_t, "s_t")
    try:
        order = EulerMaclaurinOrder(order)
    except ValueError:
        raise DomainError(f"order must be an EulerMaclaurinOrder, "
                          f"not {order!r}") from None
    if sigma == 1.0 and t == 0.0:
        raise DomainError("s = 1 is the pole of zeta")
    s = complex(sigma, t)
    z = partial_zeta(sigma, t, k - 1) - k ** (1.0 - s) / (1.0 - s)
    return z + _em_tail(s, k, order)


def em_rhs(t_q: float, k: int) -> tuple[float, float]:
    """Closed-form asymptotic right-hand sides for the non-alternating sums.

    Returns the pair that the truncated sums of cos(t log n)/sqrt(n) and
    sin(t log n)/sqrt(n) over n = 1..k-1 approach when t_q is a zero
    ordinate: Re z and -Im z for ``z = k^(1-s)/(1-s)``, s = 1/2 + i t_q::

        sqrt(k)/(1/4 + t^2) * (cos(t log k)/2 + t sin(t log k))
        sqrt(k)/(1/4 + t^2) * (sin(t log k)/2 - t cos(t log k))
    """
    k = _check_positive_int(k, "k")
    s = complex(0.5, _check_real(t_q, "t_q", positive=True))
    try:
        z = _as_float(k) ** (1.0 - s) / (1.0 - s)
    except ZeroDivisionError:  # how CPython reports a phase past binary64
        raise DomainError("t_q log k is not finite in binary64") from None
    return z.real, -z.imag
