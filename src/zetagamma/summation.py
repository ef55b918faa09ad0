"""Deterministic, correctly rounded summation.

Several quantities in this package (squared trig sums evaluated near a
zeta zero) cancel to within a few ulp of zero, so naive left-to-right
accumulation is not good enough.  Every long sum therefore ends in
``math.fsum`` (Shewchuk's adaptive-precision algorithm), which returns the
exactly rounded total of its binary64 inputs.

* ``compensated_sum`` - correctly rounded total of an explicit term
  sequence.
* ``chunked_parallel_sum`` / ``chunked_parallel_pair_sum`` - exactly
  ``math.fsum`` of the terms at ``n = 1..k``, computed in chunks of
  ``DEFAULT_CHUNK`` indices by one vectorized call each; the chunk length
  sets the speed only.  The second sums several columns of terms from one
  traversal and returns one total per column; its callback may return the
  columns or yield them one at a time.  Each is reduced before the next is
  asked for, so a generator may write every column into one array it
  keeps: no chunk then allocates its work arrays, whatever the column count.
  Sums run on one thread; the ``workers`` count is validated and
  accepted, but results never depend on it.

A chunk is not handed to ``fsum`` term by term.  It is first reduced
exactly in numpy by the error-free extraction of Rump, Ogita and Oishi
("Accurate floating-point summation part I: faithful rounding", SIAM J.
Sci. Comput. 31(1), 2008, Lemma 3.3): for ``n`` terms ``x`` with
``n < 2^M`` and ``|x_i| <= 2^-M sigma``, ``sigma`` a power of two,
``q = (sigma + x) - sigma`` and ``x - q`` are exact, ``sum(q)`` is exact
in any order, and ``|x - q| <= 2^-53 sigma``.  Taking ``sigma`` just
above ``2^M max|x|``, each pass lowers the bound on ``max|x|`` by a factor
``2^(53 - M)``, and a few passes empty the chunk (two for the package's
own terms, at most 57 seen in tests).  The pass totals of every chunk
join the sum's column, and one ``fsum`` rounds their exact total once at
the end: the only step that rounds.  A chunk whose ``sigma`` would exceed
``2^1023`` (some ``|x_i| >= 2^(1023 - M)``) joins it term by term.  The
passes write into two rows allocated once per sum, not per chunk.

One extraction serves every prefix of the same terms.  Every ``q`` of a
pass is a multiple of the unit ``2^-53 sigma``, and ``sum|q| <= n 2^-M
sigma < sigma``, so the sum of any subset of a pass is a multiple of that
unit below ``sigma`` in magnitude: exact.  A callback item of
``chunked_parallel_pair_sum`` may therefore be ``(terms, ends)``: each end
``m`` is one column, the sum of the terms at ``n = 1..m``.  A chunk that
holds no end takes one plain sum per pass; where ends fall inside it, each
pass takes the sums of the segments between them (``np.add.reduceat``)
and their running totals, all exact.  Each end is thus rounded once from
its own exact total, exactly ``math.fsum`` of its terms.  The alternating
sums and the sums cut at ``k - 1`` of ``series`` are built from such
prefix ends.

The parts do not pile up: once a column holds ``_FOLD`` floats, the same
extraction folds them into its few exact pass totals, so folding never
moves a bit.  Parts too near overflow for the extraction stay unfolded.
Every sum raises ``DomainError`` on a non-finite term or a total that
overflows binary64, and returns a finite total even where a partial one
overflows.  The chunked sums take at most ``MAX_DIRECT_K`` terms; above
that, ``series.partial_zeta`` answers the real diagonal sums by an
Euler-Maclaurin route that sums only a short head here.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError

#: Chunk length of the chunked sums, read on every call.  It sets the speed
#: only; below about 16384 terms numpy's per-call overhead dominates.
DEFAULT_CHUNK = 16384

#: Column length at which a column's parts are folded, whatever the chunk.
_FOLD = 4096

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


def _exact_parts(x: np.ndarray, cuts: Sequence[int], work: np.ndarray
                 ) -> list[list[float]] | None:
    # Per prefix of x, ending at each cut (increasing positions in
    # 1..x.size-1) and then at x.size, floats whose exact sum is that of the
    # prefix: the extraction's pass totals (see the module docstring), or
    # None where some |x_i| is too close to overflow for a pass.  With cuts,
    # each pass sums the segments between them and keeps the running
    # totals, all exact.  x is left as it is: each pass writes q and what is
    # left of x to the two rows of work, of at least x.size floats each.
    m = x.size.bit_length()
    q, left = work[:, :x.size]
    np.abs(x, out=q)
    mu = float(q.max(initial=0.0))
    if not math.isfinite(mu):
        raise DomainError("non-finite term in summation input")
    if math.frexp(mu)[1] + m > 1023:
        return None
    prefixes: list[list[float]] = [[] for _ in range(len(cuts) + 1)]
    rest = x
    while mu:
        sigma = math.ldexp(1.0, math.frexp(mu)[1] + m)
        np.add(rest, sigma, out=q)
        q -= sigma
        rest = np.subtract(rest, q, out=left)
        if cuts:
            totals = np.add.reduceat(q, (0, *cuts)).cumsum().tolist()
        else:
            totals = (float(q.sum()),)
        for prefix, total in zip(prefixes, totals):
            prefix.append(total)
        mu = float(np.abs(rest, out=q).max())
    return prefixes


def _chunk_rows(count: int, k: int) -> np.ndarray:
    # count rows as long as the longest chunk of a sum to k.
    return np.empty((count, min(k, DEFAULT_CHUNK)))


def _columns(item, k: int) -> tuple[np.ndarray, list[int]]:
    # A callback item: a term array (one column, to k) or (terms, ends).
    if not isinstance(item, tuple):
        return item, [k]
    terms, ends = item
    ends = [_check_positive_int(m, "prefix end", minimum=0) for m in ends]
    if any(m > k for m in ends):
        raise DomainError(f"prefix end must be <= k = {k}")
    return terms, ends


def _chunked_fsum(block_fn: Callable[[np.ndarray], Iterable],
                  k: int, workers: int | None) -> tuple[float, ...]:
    # ``block_fn`` maps one chunk's indices to its items, each a term array
    # or (terms, ends), and may yield them: each is reduced before the next
    # is asked for, into the two rows of ``work``, allocated once per sum.
    # Every end of an item is one column, in order, and gains the exact
    # parts of the chunk's terms up to it.  Once a column holds ``_FOLD``
    # floats they are replaced by their own exact parts (a few floats), so
    # no column grows with k; the final fsum rounds the exact total once.
    # The next fold waits until the column has doubled, which bounds the
    # work when the parts are many (a tiny chunk length) or when parts near
    # overflow cannot be folded and stay as they are.  At k = 0 no chunk
    # runs and the result is ().
    k = _check_positive_int(k, "k", minimum=0)
    chunk = DEFAULT_CHUNK
    if k > MAX_DIRECT_K:
        raise DomainError(f"k={k} exceeds the direct-sum cap {MAX_DIRECT_K}")
    if workers is not None:
        _check_positive_int(workers, "worker count")
    columns: list[list[float]] = []
    fold_at: list[int] = []
    work = _chunk_rows(2, k)
    for lo in range(1, k + 1, chunk):
        hi = min(lo + chunk, k + 1)
        idx = np.arange(lo, hi, dtype=np.int64)
        i = 0
        for item in block_fn(idx):
            terms, ends = _columns(item, k)
            x = np.asarray(terms, dtype=np.float64).ravel()
            # Each end inside the chunk, before its last term, cuts it after
            # the end's own term; an end past the chunk takes all of it.
            cuts = sorted({m - lo + 1 for m in ends if lo <= m < hi - 1})
            prefixes = _exact_parts(x, cuts, work)
            if prefixes is None:
                prefixes = [x[:c].tolist() for c in (*cuts, x.size)]
            for m in ends:
                if i == len(columns):
                    columns.append([])
                    fold_at.append(_FOLD)
                column = columns[i]
                if m >= lo:
                    column += prefixes[bisect.bisect_left(cuts, m - lo + 1)]
                if len(column) >= fold_at[i]:
                    folded = _exact_parts(np.asarray(column), (),
                                          np.empty((2, len(column))))
                    if folded is not None:
                        column[:] = folded[0]
                    fold_at[i] = max(_FOLD, 2 * len(column))
                i += 1
    return tuple(_fsum(column) for column in columns)


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
    totals = _chunked_fsum(lambda idx: (term_fn(idx),), k, workers)
    return totals[0] if totals else 0.0


def chunked_parallel_pair_sum(pair_fn: Callable[[np.ndarray], Iterable],
                              k: int,
                              workers: int | None = None) -> tuple[float, ...]:
    """Several sums sharing one traversal of ``1..k``, one total per column.

    ``pair_fn`` maps an int64 index array to its items (two for a
    cosine/sine pair) that reuse common work (one log per index,
    typically), returned as a tuple or yielded one at a time.  Each item is
    reduced before the next is asked for, so a generator may overwrite one
    array and yield it again for every column; items returned as a tuple
    all exist at once, so they must not share arrays.  An item is a term
    array, one column summed over ``1..k``, or a pair ``(terms, ends)``:
    each end ``m``, an integer in ``0..k``, is one column, in order, that
    sums ``terms_n`` over ``1..m``; ends may repeat and come in any order.
    All ends of an item come from one exact
    reduction per chunk (see the module docstring), and each total is
    exactly ``math.fsum`` of that column's terms.  At ``k = 0`` no chunk
    runs, so ``pair_fn`` is called once on an empty index array to learn
    the column count, and every total is 0.0.
    """
    totals = _chunked_fsum(pair_fn, k, workers)
    empty = np.arange(1, 1, dtype=np.int64)
    return totals or tuple(0.0 for item in pair_fn(empty)
                          for _ in _columns(item, 0)[1])
