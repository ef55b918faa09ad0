"""Deterministic, correctly rounded summation.

Several quantities in this package (squared trig sums evaluated near a
zeta zero) cancel to within a few ulp of zero, so naive left-to-right
accumulation is not good enough.  Every sum here is therefore the exactly
rounded total of its binary64 terms, what ``math.fsum`` returns for them.

* ``compensated_sum`` - correctly rounded total of an explicit term
  sequence.
* ``chunked_parallel_sum`` / ``chunked_parallel_pair_sum`` - exactly
  ``math.fsum`` of the terms at ``n = 1..k``, computed in chunks of at
  most ``DEFAULT_CHUNK`` indices by one vectorized call each; the chunk
  length sets the speed only.  The second sums several term arrays from
  one traversal, each to the prefix ends declared for it once per sum, and
  returns one total per end; its callback may return the arrays or yield
  them one at a time.  Each is reduced before the next is asked for, so a
  generator may write every array into one it keeps: no chunk then
  allocates its work arrays, whatever the array count.  Sums run on one
  thread; the ``workers`` count is validated and accepted, but results
  never depend on it.

Every binary64 is a whole multiple of ``2^-1074``, so an exact total is one
Python int in that unit (Kulisch's long accumulator; Neal, "Fast exact
summation using small and large superaccumulators", 2015).  Each sum keeps
such an int per term array and rounds it once per total, by int true
division, which CPython rounds correctly, half to even: the only step that
rounds.

The terms reach the int a chunk at a time, reduced exactly in numpy by
the error-free extraction of Rump, Ogita and Oishi ("Accurate
floating-point summation part I: faithful rounding", SIAM J. Sci.
Comput. 31(1), 2008, Lemma 3.3): for ``n`` terms ``x`` with ``n < 2^M``
and ``|x_i| <= 2^-M sigma``, ``sigma`` a power of two,
``q = (sigma + x) - sigma`` and ``x - q`` are exact, ``sum(q)`` is exact
in any order, and ``|x - q| <= 2^-53 sigma``.  Taking ``sigma`` just
above ``2^M max|x|``, each pass lowers the bound on ``max|x|`` by a factor
``2^(53 - M)``, and a few passes empty the chunk (at most 57 seen in
tests).  Each pass total joins the int.  A plain sum of what is left
finishes the chunk once it is exact.  After a pass with ``sigma = 2^s``
every remainder is at most ``2^(s - 53)`` and a whole multiple of
``2^(min(s, e_lo) - 53)``, where ``2^(e_lo - 1) <= |x_i| < 2^e_lo`` for
the smallest nonzero ``|x_i|`` (a zero term stays zero, a multiple of any
unit), so every partial sum of the remainders, in any order, is a whole
number of that unit below ``2^(s - min(s, e_lo) + M)``: exact, once
``s - e_lo + M <= 53``.  For the first pass that is an exponent spread
``e_max - e_lo`` of at most ``53 - 2M`` binades, 23 for a 16384-term
chunk.  So nearly every chunk of the package's own terms takes one pass
and the finishing sum: 562 of the 566 chunks of tables T1-T6 and all 375
of a type1 gamma and three g steps at k = 1e6, the first chunk of every
sine column (its n = 1 term is ``sin 0 = 0``) among them.  A chunk whose
``sigma`` would exceed ``2^1023`` (some ``|x_i| >= 2^(1023 - M)``) joins
the int term by term.  The passes write into two rows allocated once per
sum, not per chunk, and reduce them by numpy's ufunc reductions called
directly (``np.add.reduce``, not the ``ndarray.sum`` wrapper around it).

A prefix end ``m`` of a term array is one total, the sum of its terms at
``n = 1..m``; ``chunked_parallel_pair_sum`` takes them with its callback,
checked once per sum.  Every chunk ends at the next declared end of any
array, after ``DEFAULT_CHUNK`` indices or at ``k``, whichever comes first,
so an end's exact total is its array's running int after the chunk that
ends there, rounded once: exactly ``math.fsum`` of its terms, since every
total is exact for any partition of the terms.  The alternating sums and
the sums cut at ``k - 1`` of ``series`` are built from such prefix ends.

Every sum raises ``DomainError`` on a term that is not a finite real
number (complex, str and object terms are refused, not cast) or a total
that overflows binary64, and returns a finite total even where a partial
one overflows.  The chunked sums take at most ``MAX_DIRECT_K`` terms; above
that, the traversal of ``series`` reads every real sum at ``sigma > 0`` by
an Euler-Maclaurin route that sums only a short head here.
"""
from __future__ import annotations

import math
import numbers
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError

#: Chunk length of the chunked sums, read on every call.  It sets the speed
#: only; below about 16384 terms numpy's per-call overhead dominates.
DEFAULT_CHUNK = 16384

#: Largest index range the chunked sums accept.  Every term is computed,
#: so the runtime grows linearly in k: one gamma estimate takes 1.7 s at
#: k = 1e8 on 2 vCPUs, so about 17 s at this cap.  Above it, the traversal
#: of ``series`` reads a real sum (t = 0) at sigma > 0 by an
#: Euler-Maclaurin route, alternating sums included, and refuses every
#: other sum before any work.
MAX_DIRECT_K = 10**9

_num_workers = 1


def _check_positive_int(value: int, name: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer")
    value = int(value)
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}")
    return value


def _check_real(value: float, name: str, positive: bool = False) -> float:
    # value as a float if it is a finite real number but a bool, and > 0 if
    # positive; anything else, a real past binary64 too, is a DomainError.
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        value = float(value) if real else math.nan
    except OverflowError:
        value = math.inf
    if not math.isfinite(value) or (positive and value <= 0.0):
        raise DomainError(f"{name} must be a finite"
                          f"{' positive' if positive else ''} real number")
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


def _cap_error(k: int) -> DomainError:
    # The refusal of a k past MAX_DIRECT_K.  A k too long for str() (past
    # the interpreter's int-to-str digit limit) is named by its bit length.
    try:
        shown = str(k)
    except ValueError:
        shown = f"a {k.bit_length()}-bit integer"
    return DomainError(f"k={shown} exceeds the direct-sum cap {MAX_DIRECT_K}")


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


def _exact_units(x: np.ndarray, work: np.ndarray) -> int:
    # The exact sum of x, in units of 2^-1074: the extraction's pass totals
    # and the plain sum that finishes them once the exponent spread proves
    # it exact (see the module docstring), or the terms one by one where
    # some |x_i| is too close to overflow for a pass.  x is left as it is:
    # each pass writes q and what is left of x to the two rows of work, of
    # at least x.size floats each.
    m = x.size.bit_length()
    q, left = work[:, :x.size]
    np.abs(x, out=q)
    mu = float(np.maximum.reduce(q, initial=0.0))
    if not math.isfinite(mu):
        raise DomainError("non-finite term in summation input")
    if math.frexp(mu)[1] + m > 1023:
        return sum(map(_units, x.tolist()))
    # Every remainder stays a multiple of 2^(min(s, e_lo) - 53), e_lo from
    # the smallest nonzero |x_i|: a zero term is a multiple of any unit.
    lo = float(np.minimum.reduce(q, initial=mu))
    if not lo:
        lo = float(np.minimum.reduce(q, where=q > 0.0, initial=mu))
    e_lo = math.frexp(lo)[1]
    units = 0
    rest = x
    while mu:
        s = math.frexp(mu)[1] + m
        sigma = math.ldexp(1.0, s)
        np.add(rest, sigma, out=q)
        q -= sigma
        rest = np.subtract(rest, q, out=left)
        units += _units(float(np.add.reduce(q)))
        if s - e_lo + m <= 53:
            return units + _units(float(np.add.reduce(rest)))
        mu = float(np.maximum.reduce(np.abs(rest, out=q)))
    return units


def _float_terms(terms: Iterable[float] | np.ndarray) -> np.ndarray:
    # terms as a flat float64 array; any dtype other than bool, int or
    # float (complex, str, object) is a DomainError, never cast, and so are
    # ragged nested sequences, which numpy cannot make an array of.
    try:
        x = np.asarray(terms)
    except ValueError:
        raise DomainError("summation terms must form a rectangular array"
                          ) from None
    if x.dtype.kind not in "biuf":
        raise DomainError(f"summation terms must be real, not {x.dtype}")
    return np.asarray(x, dtype=np.float64).ravel()


def compensated_sum(terms: Iterable[float] | np.ndarray) -> float:
    """Correctly rounded total of ``terms``, exactly ``math.fsum`` of them."""
    x = _float_terms(terms if isinstance(terms, np.ndarray) else list(terms))
    return _rounded(_exact_units(x, np.empty((2, x.size))))


def _chunk_rows(count: int, k: int) -> np.ndarray:
    # count rows as long as the longest chunk of a sum to k, each padded to
    # a multiple of 8 floats and starting on a 64-byte boundary: AVX-512
    # loads run slower when a row starts off a cache line.
    n = min(k, DEFAULT_CHUNK)
    width = -(-n // 8) * 8
    buf = np.empty(count * width + 8)
    start = -buf.ctypes.data % 64 // 8
    return buf[start:start + count * width].reshape(count, width)[:, :n]


def _chunked_sum(block_fn: Callable[[np.ndarray], Iterable[np.ndarray]],
                 k: int, ends: Sequence[Sequence[int]], workers: int | None
                 ) -> tuple[float, ...]:
    # ``block_fn`` maps one chunk's indices to its term arrays, one per
    # entry of ``ends``, and may yield them: each is reduced before the next
    # is asked for, into the two rows of ``work``, allocated once per sum.
    # Each array keeps one exact running total, an int in units of 2^-1074.
    # The ends are checked once; chunks then run up to each distinct end and
    # k in turn, and the running totals at each stop are recorded, to be
    # rounded once at the end.  An end 0 is recorded before
    # any chunk; at k = 0 no chunk runs and every total is 0.0.
    k = _check_positive_int(k, "k", minimum=0)
    if k > MAX_DIRECT_K:
        raise _cap_error(k)
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
    exact = {}
    running = [0] * len(ends)
    work = _chunk_rows(2, k)
    lo = 1
    for stop in sorted({k, *(m for item in ends for m in item)}):
        while lo <= stop:
            hi = min(lo + DEFAULT_CHUNK, stop + 1)
            arrays = block_fn(np.arange(lo, hi, dtype=np.int64))
            try:
                arrays = iter(arrays)
            except TypeError:
                raise DomainError("callback result is not iterable") from None
            i = -1
            for i, terms in enumerate(arrays):
                if i == len(ends):
                    break
                terms = _float_terms(terms)
                if terms.size != hi - lo:
                    raise DomainError(f"the callback must give one term per "
                                      f"index, {hi - lo} in this chunk")
                running[i] += _exact_units(terms, work)
            if i != len(ends) - 1:
                raise DomainError(
                    f"the callback must give {len(ends)} term arrays per chunk")
            lo = hi
        exact[stop] = running.copy()
    return tuple(_rounded(exact[m][i]) for i, item in enumerate(ends)
                 for m in item)


def chunked_parallel_sum(term_fn: Callable[[np.ndarray], np.ndarray],
                         k: int, workers: int | None = None) -> float:
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
    entry of ``ends``, in order, in every chunk, each of one term per
    index, or ``DomainError``.  Each array is reduced before the next is
    asked for, so a generator may overwrite one array and yield it again
    for every entry; arrays returned as a tuple all exist at once, so they
    must not share memory.
    ``ends[i]``, a sequence even for one end, lists the prefix ends of the
    i-th array: each end ``m``, an integer in ``0..k``, is one total, the
    sum of its terms over ``1..m``; ends may repeat and come in any order.
    The totals come in the order of ``ends``, flattened.  Every end is
    checked once per sum, and every chunk stops at the next end of any
    array, so ``pair_fn`` may see chunks shorter than ``DEFAULT_CHUNK``.
    Each array keeps one exact running total, and an end's total is that
    total after the chunk that stops there, rounded once (see the module
    docstring): exactly ``math.fsum`` of its terms.  At ``k = 0``
    ``pair_fn`` is never called and every total is 0.0.
    """
    return _chunked_sum(pair_fn, k, ends, workers)
