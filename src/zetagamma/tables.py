"""Bundled reference tables and the machinery to reproduce them.

Six reference tables ship with the package.  T1-T3 hold gamma estimates
(both methods), T4-T6 hold f-map zero recoveries:

* T1 / T4 - the first zero, truncations k = 10^1 .. 10^5;
* T2 / T5 - zeros q = 1..10 at k = 10^5;
* T3 / T6 - zeros q = 10^2 .. 10^5 at k = 10^5.

``build_table`` recomputes a table and attaches columns of absolute
deviations from the stored reference values, so a reproduction run is
self-documenting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import DomainError, SingularGuardError
from .fixedpoint import _f_values
from .series import GammaEstimate, _gamma_pairs
from .zeros import ZeroCatalog, builtin_catalog, get_zero

TABLE_IDS = ("T1", "T2", "T3", "T4", "T5", "T6")

_K_SWEEP = (10, 100, 1000, 10_000, 100_000)
_DEFAULT_K = 100_000
_Q_FIRST_TEN = tuple(range(1, 11))
_Q_HIGH = (100, 1000, 10_000, 100_000)

# Reference gamma estimates: {k: (type1, type2)} for the first zero,
# then {q: (type1, type2)} at k = 1e5.
REF_GAMMA_SWEEP = {
    10: (0.588166547527396, 0.624430642787654),
    100: (0.579707476081083, 0.583918804120366),
    1000: (0.577465694084099, 0.580132200473009),
    10_000: (0.577240665308434, 0.579756829762655),
    100_000: (0.577218164898902, 0.579719325600715),
}
REF_GAMMA_BY_Q = {
    1: (0.577218164898902, 0.579719325600715),
    2: (0.577218164886766, 0.578350602290223),
    3: (0.577218164913269, 0.578018818257371),
    4: (0.577218164961156, 0.577759833545594),
    5: (0.577218164938410, 0.577680674428317),
    6: (0.577218164922645, 0.577573695815113),
    7: (0.577218164911756, 0.577518411665233),
    8: (0.577218164859838, 0.577486145253191),
    9: (0.577218164927322, 0.577436775219061),
    10: (0.577218164882106, 0.577421632805789),
    100: (0.577218164909381, 0.577228769071846),
    1000: (0.577218164787256, 0.577220079724956),
    10_000: (0.577218158790689, 0.577219836266831),
    100_000: (0.577217778781408, 0.577219808522806),
}

# Reference f-map recoveries: {k: value} for the first zero, then
# {q: value} at k = 1e5.
REF_ZERO_SWEEP = {
    10: 30.2497502548065,
    100: 14.2290157794652,
    1000: 14.1388506664484,
    10_000: 14.1350848277514,
    100_000: 14.1347605815184,
}
REF_ZERO_BY_Q = {
    1: 14.1347605815185,
    2: 21.0220924170205,
    3: 25.0109204581271,
    4: 30.4249527952168,
    5: 32.9351446884539,
    6: 37.5862732468959,
    7: 40.9188227512751,
    8: 43.3271833072802,
    9: 48.0052732114747,
    10: 49.7739594934774,
    100: 236.52509664502,
    1000: 1419.48561150748,
    10_000: 9897.94562749923,
    100_000: 85523.0271275466,
}


class OffDomainRowWarning(UserWarning):
    """A zero-map row whose f map left its domain; its value cells are empty."""


@dataclass(frozen=True)
class TableSpec:
    """Which table to reproduce, with optional k / zero-index overrides.

    Defaults reproduce the stored reference parameterization exactly;
    overrides are honored but rows outside the reference grid get empty
    deviation cells.
    """

    table_id: str
    k: int | None = None
    zero_indices: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.table_id not in TABLE_IDS:
            raise DomainError(
                f"unknown table id {self.table_id!r}; expected one of {TABLE_IDS}")


def _dev(value: float, ref: float | None) -> float | None:
    return None if ref is None else abs(value - ref)


def _gamma_cells(pair: tuple[GammaEstimate, GammaEstimate],
                 ref: tuple[float, float] | None) -> dict:
    g1, g2 = (g.value for g in pair)
    ref1, ref2 = (None, None) if ref is None else ref
    return {"gamma_type1": g1, "gamma_type2": g2,
            "dev_type1": _dev(g1, ref1), "dev_type2": _dev(g2, ref2)}


def _zero_cells(value: float | SingularGuardError, ref: float | None,
                row: str) -> dict:
    # A row whose f map left its domain keeps empty cells and a warning.
    if isinstance(value, SingularGuardError):
        warnings.warn(f"{row}: {value}", OffDomainRowWarning)
        return {"zero_estimate": None, "dev": None}
    return {"zero_estimate": value, "dev": _dev(value, ref)}


def build_table(spec: TableSpec, catalog: ZeroCatalog | None = None
                ) -> tuple[tuple[str, ...], list[dict]]:
    """Recompute one table; returns (column names, row dicts keyed by them
    in column order).

    Gamma tables carry columns (gamma_type1, gamma_type2, dev_type1,
    dev_type2); zero-map tables carry (zero_estimate, dev).  Deviation
    cells are None wherever the row falls outside the reference grid.  A
    zero-map row whose f map leaves its domain (``SingularGuardError``)
    keeps its k or q and t_q cells, gets None value cells, and issues an
    ``OffDomainRowWarning`` naming the row and the guard's message.  Every
    zero is looked up before any sum: a zero missing from the catalog
    raises ``CatalogError`` at once.

    Every table but T4 is two traversals of ``n = 1..k`` at its largest k,
    shared by every row: one sums the harmonic diagonals, the other every
    zero's trig columns, with ``log n`` and ``n^-1/2`` evaluated once per
    n.  Each column is reduced once for all its k: a row's sum is its
    exact running total where a chunk stops at that k.  T4 takes its rows
    one k at a time, two traversals each (one for its five k measured 2.9
    against 3.6 ms, but the benchmark counts T4's terms for this route).
    ``gamma_type1``, ``gamma_type2`` and ``f_of_t`` take the same routines
    at one zero and one k, so a row's values are those calls' bits.
    """
    if catalog is None:
        catalog = builtin_catalog()
    tid = spec.table_id
    gamma = tid in ("T1", "T2", "T3")
    sweep = tid in ("T1", "T4")
    columns = (("gamma_type1", "gamma_type2", "dev_type1", "dev_type2")
               if gamma else ("zero_estimate", "dev"))

    def cells(value, ref, row: str) -> dict:
        return (_gamma_cells(value, ref) if gamma else
                _zero_cells(value, ref, f"table {tid} row {row}"))

    if sweep:
        if spec.zero_indices is not None and len(spec.zero_indices) != 1:
            raise DomainError(f"table {tid} sweeps k for a single zero; "
                              "pass exactly one zero index")
        ks = (spec.k,) if spec.k is not None else _K_SWEEP
        qs = spec.zero_indices or (1,)
    else:
        ks = (spec.k if spec.k is not None else _DEFAULT_K,)
        default_q = _Q_FIRST_TEN if tid in ("T2", "T5") else _Q_HIGH
        qs = spec.zero_indices if spec.zero_indices is not None else default_q

    # Every zero is looked up before any sum; one value per (k, zero), k by k.
    zeros = [get_zero(catalog, q) for q in qs]
    if gamma:
        values = _gamma_pairs(ks, [(zero.t, zero.q) for zero in zeros])
    else:
        values = [value for k in ks
                  for value in _f_values([zero.t for zero in zeros], k)]
    if sweep:
        refs = ((REF_GAMMA_SWEEP if gamma else REF_ZERO_SWEEP)
                if zeros[0].q == 1 else {})
        rows = [{"k": k, **cells(value, refs.get(k), f"k={k}")}
                for k, value in zip(ks, values)]
        return ("k",) + columns, rows
    refs = ((REF_GAMMA_BY_Q if gamma else REF_ZERO_BY_Q)
            if ks[0] == _DEFAULT_K else {})
    rows = [{"q": zero.q, "t_q": zero.t,
             **cells(value, refs.get(zero.q), f"q={zero.q}")}
            for zero, value in zip(zeros, values)]
    return ("q", "t_q") + columns, rows
