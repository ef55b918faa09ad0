"""Deterministic, correctly rounded summation.

Several quantities in this package (squared trig sums evaluated near a
zeta zero) cancel to within a few ulp of zero, so naive left-to-right
accumulation is not good enough.  Every long sum therefore ends in
``math.fsum`` (Shewchuk's adaptive-precision algorithm), which returns the
exactly rounded total of its binary64 inputs.

* ``compensated_sum`` - correctly rounded total of an explicit term
  sequence.
* ``chunked_parallel_sum`` / ``chunked_parallel_pair_sum`` - the index
  range ``1..k`` is cut into fixed chunks, each chunk's terms are computed
  in one vectorized call and summed, and the chunk totals are summed in
  ascending chunk order.  The second sums several columns of terms from
  one traversal and returns one total per column.  Sums run on one
  thread; the ``workers`` count is validated and accepted, but results
  never depend on it.

A chunk is not handed to ``fsum`` term by term.  It is first reduced
exactly in numpy by the error-free extraction of Rump, Ogita and Oishi
("Accurate floating-point summation part I: faithful rounding", SIAM J.
Sci. Comput. 31(1), 2008, Lemma 3.3): for ``n`` terms ``x`` with
``n < 2^M`` and ``|x_i| <= 2^-M sigma``, ``sigma`` a power of two,
``q = (sigma + x) - sigma`` and ``x - q`` are exact, ``sum(q)`` is exact
in any order, and ``|x - q| <= 2^-53 sigma``.  Taking ``sigma`` just
above ``2^M max|x|``, each pass lowers the bound on ``max|x|`` by a factor
``2^(53 - M)``, and a few passes empty the chunk (two for the package's
own terms at 4096-term chunks, at most 57 seen in tests); ``fsum`` then
rounds the handful of pass totals.  ``fsum`` stays the only step that
rounds, so a chunk total is exactly ``math.fsum`` of its terms.  A chunk
whose ``sigma`` would exceed ``2^1023`` (some ``|x_i| >= 2^(1023 - M)``)
goes to ``fsum`` term by term instead.

A chunked total is the correctly rounded sum of correctly rounded chunk
totals, so it can differ from a flat ``compensated_sum`` of the same terms
in the last place; determinism for a fixed chunking is the contract.
Every sum raises ``DomainError`` on a non-finite term or a total that
overflows binary64.  The chunked sums take at most ``MAX_DIRECT_K`` terms;
above that, ``series.partial_zeta`` answers the real diagonal sums by an
Euler-Maclaurin route that sums only a short head here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError

#: Default chunk length for the chunked sums.  Large enough to amortize
#: per-call overhead, small enough to stay cache-resident.
DEFAULT_CHUNK = 4096

#: Largest index range the chunked sums accept.  Every term is computed,
#: so the runtime grows linearly in k: one gamma estimate takes 7 s at
#: k = 1e8 on 2 vCPUs, so over a minute at this cap.  The real diagonal
#: sums of ``series.partial_zeta`` above it take an Euler-Maclaurin route.
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


def _fsum(values: list[float]) -> float:
    # fsum returns nan or inf only for a non-finite term and raises ValueError
    # on inf + -inf.  Its OverflowError on a partial total that overflows is
    # answered by the exact total rounded once, which may be finite.
    try:
        try:
            total = math.fsum(values)
        except OverflowError:
            total = float(sum(map(Fraction, values)))
    except (OverflowError, ValueError):
        raise DomainError("sum is not finite in binary64") from None
    if not math.isfinite(total):
        raise DomainError("non-finite term in summation input")
    return total


def compensated_sum(terms: Iterable[float] | np.ndarray) -> float:
    """Correctly rounded total of ``terms``."""
    if isinstance(terms, np.ndarray):
        return _fsum(np.asarray(terms, dtype=np.float64).ravel().tolist())
    return _fsum([float(x) for x in terms])


def _chunk_total(terms: np.ndarray) -> float:
    # Exact extraction passes (see the module docstring), then one fsum.
    # The passes overwrite x, so it is a copy of the caller's terms.
    x = np.array(terms, dtype=np.float64).ravel()
    m = x.size.bit_length()
    q = np.empty_like(x)
    mu = float(np.abs(x, out=q).max(initial=0.0))
    if not math.isfinite(mu):
        raise DomainError("non-finite term in summation input")
    if math.frexp(mu)[1] + m > 1023:
        return _fsum(x.tolist())
    parts: list[float] = []
    while mu:
        sigma = math.ldexp(1.0, math.frexp(mu)[1] + m)
        np.add(x, sigma, out=q)
        q -= sigma
        x -= q
        parts.append(float(q.sum()))
        mu = float(np.abs(x, out=q).max())
    return _fsum(parts)


def _chunked_fsum(block_fn: Callable[[np.ndarray], tuple[np.ndarray, ...]],
                  k: int, chunk: int, workers: int | None) -> tuple[float, ...]:
    # ``block_fn`` maps one chunk's indices to a tuple of term arrays, one
    # per column.  At k = 0 no chunk runs and the result is ().
    k = _check_positive_int(k, "k", minimum=0)
    chunk = _check_positive_int(chunk, "chunk size")
    if k > MAX_DIRECT_K:
        raise DomainError(f"k={k} exceeds the direct-sum cap {MAX_DIRECT_K}")
    if workers is not None:
        _check_positive_int(workers, "worker count")
    totals: list[list[float]] = []
    for lo in range(1, k + 1, chunk):
        idx = np.arange(lo, min(lo + chunk, k + 1), dtype=np.int64)
        columns = block_fn(idx)
        if not totals:
            totals = [[] for _ in columns]
        for column, terms in zip(totals, columns):
            column.append(_chunk_total(terms))
    return tuple(_fsum(column) for column in totals)


def chunked_parallel_sum(term_fn: Callable[[np.ndarray], np.ndarray],
                         k: int,
                         chunk: int = DEFAULT_CHUNK,
                         workers: int | None = None) -> float:
    """Sum of ``term_fn`` over indices ``1..k`` in fixed chunks.

    ``term_fn`` receives an int64 index array and must return the matching
    float64 term array (vectorized).  Each chunk is summed exactly rounded
    and the chunk totals are combined in ascending order.  ``workers`` is
    validated but does not change the result or the thread count.
    """
    totals = _chunked_fsum(lambda idx: (term_fn(idx),), k, chunk, workers)
    return totals[0] if totals else 0.0


def chunked_parallel_pair_sum(pair_fn: Callable[[np.ndarray],
                                                tuple[np.ndarray, ...]],
                              k: int,
                              chunk: int = DEFAULT_CHUNK,
                              workers: int | None = None) -> tuple[float, ...]:
    """Several sums sharing one traversal of ``1..k``, one total per column.

    ``pair_fn`` maps an int64 index array to a tuple of term arrays (two
    for a cosine/sine pair) that reuse common work (one log per index,
    typically).  Chunking and combine order follow ``chunked_parallel_sum``
    exactly, column by column, so each total is bit-identical to a
    ``chunked_parallel_sum`` of that column alone.  At ``k = 0`` no chunk
    runs, so ``pair_fn`` is called once on an empty index array to learn
    the column count, and every total is 0.0.
    """
    totals = _chunked_fsum(pair_fn, k, chunk, workers)
    return totals or (0.0,) * len(pair_fn(np.arange(1, 1, dtype=np.int64)))
