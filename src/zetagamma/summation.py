"""Deterministic, correctly rounded summation.

Several quantities in this package (squared trig sums evaluated near a
zeta zero) cancel to within a few ulp of zero, so naive left-to-right
accumulation is not good enough.  Every sum here is therefore the exactly
rounded total of its binary64 terms, what ``math.fsum`` returns for them.

* ``compensated_sum`` - correctly rounded total of an explicit term
  sequence.
* ``chunked_parallel_sum`` / ``chunked_parallel_pair_sum`` - exactly
  ``math.fsum`` of the terms at ``n = 1..k``, computed in chunks of
  ``DEFAULT_CHUNK`` indices by one vectorized call each; the chunk length
  sets the speed only.  The second sums several term arrays from one
  traversal, each to the prefix ends declared for it once per sum, and
  returns one total per end; its callback may return the arrays or yield
  them one at a time.  Each is reduced before the next is asked for, so a
  generator may write every array into one it keeps: no chunk then
  allocates its work arrays, whatever the array count.  Sums run on one
  thread; the ``workers`` count is validated and accepted, but results
  never depend on it.

Every binary64 is a whole multiple of ``2^-1074``, so an exact total is one
Python int in that unit (Kulisch's long accumulator; Neal, "Fast exact
summation using small and large superaccumulators", 2015).  Each sum keeps
such an int per total and rounds it once, by int true division, which
CPython rounds correctly, half to even: the only step that rounds.

The terms reach the int a chunk at a time, reduced exactly in numpy by
the error-free extraction of Rump, Ogita and Oishi ("Accurate
floating-point summation part I: faithful rounding", SIAM J. Sci.
Comput. 31(1), 2008, Lemma 3.3): for ``n`` terms ``x`` with ``n < 2^M``
and ``|x_i| <= 2^-M sigma``, ``sigma`` a power of two,
``q = (sigma + x) - sigma`` and ``x - q`` are exact, ``sum(q)`` is exact
in any order, and ``|x - q| <= 2^-53 sigma``.  Taking ``sigma`` just
above ``2^M max|x|``, each pass lowers the bound on ``max|x|`` by a factor
``2^(53 - M)``, and a few passes empty the chunk (two for the package's
own terms, at most 57 seen in tests).  Each pass total joins the int.  A
chunk whose ``sigma`` would exceed ``2^1023`` (some
``|x_i| >= 2^(1023 - M)``) joins it term by term.  The passes write into
two rows allocated once per sum, not per chunk.

One extraction serves every prefix of the same terms.  Every ``q`` of a
pass is a multiple of the unit ``2^-53 sigma``, and ``sum|q| <= n 2^-M
sigma < sigma``, so the sum of any subset of a pass is a multiple of that
unit below ``sigma`` in magnitude: exact.  ``chunked_parallel_pair_sum``
therefore takes, with its callback, the prefix ends of each term array:
each end ``m`` is one total, the sum of the terms at ``n = 1..m``.  The
ends are checked and sorted once per sum, and a repeated end shares its
total.  A chunk that holds no end takes one plain sum per pass; where
ends fall inside it (a bisect finds them), each pass takes the sums of
the segments between them (``np.add.reduceat``) and their running totals,
all exact.  An end's exact total is the array's running int before the
chunk plus its prefix of the chunk, so each end is rounded once, exactly
``math.fsum`` of its terms.  The alternating sums and the sums cut at
``k - 1`` of ``series`` are built from such prefix ends.

Every sum raises ``DomainError`` on a non-finite term or a total that
overflows binary64, and returns a finite total even where a partial one
overflows.  The chunked sums take at most ``MAX_DIRECT_K`` terms; above
that, ``series.partial_zeta`` answers the real diagonal sums by an
Euler-Maclaurin route that sums only a short head here.
"""
from __future__ import annotations

import bisect
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError

#: Chunk length of the chunked sums, read on every call.  It sets the speed
#: only; below about 16384 terms numpy's per-call overhead dominates.
DEFAULT_CHUNK = 16384

#: Largest index range the chunked sums accept.  Every term is computed,
#: so the runtime grows linearly in k: one gamma estimate takes 2.8-3.4 s at
#: k = 1e8 on 2 vCPUs, so about half a minute at this cap.  The real
#: diagonal sums of ``series.partial_zeta`` above it take an Euler-Maclaurin
#: route.
MAX_DIRECT_K = 10**9

_num_workers = 1


def _check_positive_int(value: int, name: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer")
    value = int(value)
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}")
    return value


def set_num_workers(n: int) -> None:
    """Set the default worker count for chunked sums.

    The count is validated and stored, but sums run on one thread and
    results never depend on it.
    """
    global _num_workers
    _num_workers = _check_positive_int(n, "worker count")


def get_num_workers() -> int:
    return _num_workers


def _units(value: float) -> int:
    # value exactly, as a whole number of 2^-1074, the least binary64 step.
    num, den = value.as_integer_ratio()
    return num << (1075 - den.bit_length())


def _rounded(units: int) -> float:
    # The binary64 nearest units * 2^-1074, half to even: CPython rounds the
    # true division of two ints correctly.
    try:
        return units / (1 << 1074)
    except OverflowError:
        raise DomainError("sum is not finite in binary64") from None


def _exact_units(x: np.ndarray, cuts: Sequence[int], work: np.ndarray
                 ) -> list[int]:
    # The exact sums, in units of 2^-1074, of the prefixes of x that end at
    # each cut (increasing positions in 1..x.size-1) and of all of x: the
    # extraction's pass totals (see the module docstring), or the terms one
    # by one where some |x_i| is too close to overflow for a pass.  With
    # cuts, each pass sums the segments between them and keeps the running
    # totals, all exact.  x is left as it is: each pass writes q and what is
    # left of x to the two rows of work, of at least x.size floats each.
    m = x.size.bit_length()
    q, left = work[:, :x.size]
    np.abs(x, out=q)
    mu = float(q.max(initial=0.0))
    if not math.isfinite(mu):
        raise DomainError("non-finite term in summation input")
    if math.frexp(mu)[1] + m > 1023:
        return [sum(map(_units, x[:c].tolist())) for c in (*cuts, x.size)]
    prefixes = [0] * (len(cuts) + 1)
    rest = x
    while mu:
        sigma = math.ldexp(1.0, math.frexp(mu)[1] + m)
        np.add(rest, sigma, out=q)
        q -= sigma
        rest = np.subtract(rest, q, out=left)
        if cuts:
            totals = np.add.reduceat(q, (0, *cuts)).cumsum().tolist()
            prefixes = [p + _units(t) for p, t in zip(prefixes, totals)]
        else:
            prefixes[0] += _units(float(q.sum()))
        mu = float(np.abs(rest, out=q).max())
    return prefixes


def compensated_sum(terms: Iterable[float] | np.ndarray) -> float:
    """Correctly rounded total of ``terms``, exactly ``math.fsum`` of them."""
    if not isinstance(terms, np.ndarray):
        terms = [float(x) for x in terms]
    x = np.asarray(terms, dtype=np.float64).ravel()
    [units] = _exact_units(x, (), np.empty((2, x.size)))
    return _rounded(units)


def _chunk_rows(count: int, k: int) -> np.ndarray:
    # count rows as long as the longest chunk of a sum to k.
    return np.empty((count, min(k, DEFAULT_CHUNK)))


def _chunked_sum(block_fn: Callable[[np.ndarray], Iterable[np.ndarray]],
                 k: int, ends: Sequence[Sequence[int]], workers: int | None
                 ) -> tuple[float, ...]:
    # ``block_fn`` maps one chunk's indices to its term arrays, one per
    # entry of ``ends``, and may yield them: each is reduced before the next
    # is asked for, into the two rows of ``work``, allocated once per sum.
    # Each array keeps one exact running total, an int in units of 2^-1074,
    # and the exact totals of its distinct ends, checked and sorted once,
    # in order: an end is recorded in the chunk that holds it, as the
    # running total before the chunk plus its prefix of the chunk.  Each is
    # rounded once at the end.  An end 0 is recorded before any chunk; at
    # k = 0 no chunk runs and every total is 0.0.
    k = _check_positive_int(k, "k", minimum=0)
    if k > MAX_DIRECT_K:
        raise DomainError(f"k={k} exceeds the direct-sum cap {MAX_DIRECT_K}")
    if workers is not None:
        _check_positive_int(workers, "worker count")
    try:
        ends = [[_check_positive_int(m, "prefix end", minimum=0)
                 for m in item] for item in ends]
    except TypeError:
        raise DomainError("prefix ends must be one sequence per term array"
                          ) from None
    if any(m > k for item in ends for m in item):
        raise DomainError(f"prefix end must be <= k = {k}")
    layout = [sorted(set(item)) for item in ends]
    exact = [[0] * bisect.bisect_left(item, 1) for item in layout]
    running = [0] * len(layout)
    work = _chunk_rows(2, k)
    for lo in range(1, k + 1, DEFAULT_CHUNK):
        hi = min(lo + DEFAULT_CHUNK, k + 1)
        i = -1
        for i, terms in enumerate(block_fn(np.arange(lo, hi, dtype=np.int64))):
            if i == len(layout):
                break
            # The ends inside the chunk, before its last term, cut it after
            # the end's own term; an end at its last term takes all of it.
            item, first = layout[i], len(exact[i])
            inside = bisect.bisect_left(item, hi - 1, first)
            cuts = [m - lo + 1 for m in item[first:inside]]
            x = np.asarray(terms, dtype=np.float64).ravel()
            *prefixes, whole = _exact_units(x, cuts, work)
            exact[i] += [running[i] + p for p in prefixes]
            running[i] += whole
            if inside < len(item) and item[inside] == hi - 1:
                exact[i].append(running[i])
        if i != len(layout) - 1:
            raise DomainError(
                f"the callback must give {len(layout)} term arrays per chunk")
    totals = [dict(zip(item, map(_rounded, units)))
              for item, units in zip(layout, exact)]
    return tuple(by_end[m] for by_end, item in zip(totals, ends) for m in item)


def chunked_parallel_sum(term_fn: Callable[[np.ndarray], np.ndarray],
                         k: int,
                         workers: int | None = None) -> float:
    """Sum of ``term_fn`` over indices ``1..k``, exactly ``math.fsum`` of
    all its terms.

    ``term_fn`` receives an int64 index array of at most ``DEFAULT_CHUNK``
    consecutive indices and must return the matching float64 term array
    (vectorized).  Each chunk is reduced exactly and the exact total is
    rounded once.  ``workers`` is validated but does not change the result
    or the thread count.
    """
    [total] = _chunked_sum(lambda idx: (term_fn(idx),), k, ((k,),), workers)
    return total


def chunked_parallel_pair_sum(pair_fn: Callable[[np.ndarray],
                                                Iterable[np.ndarray]],
                              k: int, ends: Sequence[Sequence[int]],
                              workers: int | None = None) -> tuple[float, ...]:
    """Several sums sharing one traversal of ``1..k``, one total per end.

    ``pair_fn`` maps an int64 index array to its term arrays (two for a
    cosine/sine pair) that reuse common work (one log per index,
    typically), returned as a tuple or yielded one at a time: one array per
    entry of ``ends``, in order, in every chunk, or ``DomainError``.  Each
    array is reduced before the next is asked for, so a generator may
    overwrite one array and yield it again for every entry; arrays
    returned as a tuple all exist at once, so they must not share memory.
    ``ends[i]``, a sequence even for one end, lists the prefix ends of the
    i-th array: each end ``m``, an integer in ``0..k``, is one total, the
    sum of its terms over ``1..m``; ends may repeat and come in any order.
    The totals come in the order of ``ends``, flattened.  Every end is
    checked once per sum.  All ends of an array come from one exact
    reduction per chunk and one exact running total, and each is rounded
    once (see the module docstring), so each total is exactly ``math.fsum``
    of its terms.  At ``k = 0`` ``pair_fn`` is never called and every total
    is 0.0.
    """
    return _chunked_sum(pair_fn, k, ends, workers)
