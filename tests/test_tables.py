"""Reference tables: every cell of build_table against direct calls."""

import pytest

from zetagamma import (
    DomainError,
    SingularGuardError,
    TableSpec,
    build_table,
    builtin_catalog,
    f_of_t,
    gamma_type1,
    gamma_type2,
    get_zero,
)
from zetagamma.tables import (
    REF_GAMMA_BY_Q,
    REF_GAMMA_SWEEP,
    REF_ZERO_BY_Q,
    REF_ZERO_SWEEP,
)

CATALOG = builtin_catalog()
K_SWEEP = (10, 100, 1000, 10_000, 100_000)
Q_FIRST_TEN = tuple(range(1, 11))
Q_HIGH = (100, 1000, 10_000, 100_000)

GAMMA_HEADER = ("gamma_type1", "gamma_type2", "dev_type1", "dev_type2")
ZERO_HEADER = ("zero_estimate", "dev")
HEADERS = {
    "T1": ("k",) + GAMMA_HEADER,
    "T2": ("q", "t_q") + GAMMA_HEADER,
    "T3": ("q", "t_q") + GAMMA_HEADER,
    "T4": ("k",) + ZERO_HEADER,
    "T5": ("q", "t_q") + ZERO_HEADER,
    "T6": ("q", "t_q") + ZERO_HEADER,
}


def _gamma_cells(t, k, q, ref):
    g1 = gamma_type1(t, k, q=q).value
    g2 = gamma_type2(t, k, q=q).value
    return {"gamma_type1": g1, "gamma_type2": g2,
            "dev_type1": None if ref is None else abs(g1 - ref[0]),
            "dev_type2": None if ref is None else abs(g2 - ref[1])}


def _zero_cells(t, k, ref):
    v = f_of_t(t, k)
    return {"zero_estimate": v, "dev": None if ref is None else abs(v - ref)}


def _expected(tid, k_values=K_SWEEP, q=1, k=100_000, q_values=None):
    # Rows rebuilt from gamma_type1/gamma_type2/f_of_t and the REF_* dicts;
    # ``ref`` is looked up only on the stored grid (q = 1 for the k sweeps,
    # k = 1e5 for the zero lists).
    if tid in ("T1", "T4"):
        zero = get_zero(CATALOG, q)
        rows = []
        for kk in k_values:
            if tid == "T1":
                ref = REF_GAMMA_SWEEP.get(kk) if q == 1 else None
                cells = _gamma_cells(zero.t, kk, q, ref)
            else:
                ref = REF_ZERO_SWEEP.get(kk) if q == 1 else None
                cells = _zero_cells(zero.t, kk, ref)
            rows.append({"k": kk, **cells})
        return rows
    rows = []
    for qq in q_values:
        zero = get_zero(CATALOG, qq)
        if tid in ("T2", "T3"):
            ref = REF_GAMMA_BY_Q.get(qq) if k == 100_000 else None
            cells = _gamma_cells(zero.t, k, qq, ref)
        else:
            ref = REF_ZERO_BY_Q.get(qq) if k == 100_000 else None
            cells = _zero_cells(zero.t, k, ref)
        rows.append({"q": qq, "t_q": zero.t, **cells})
    return rows


CASES = [
    (TableSpec("T1"), lambda: _expected("T1")),
    (TableSpec("T1", zero_indices=(2,)), lambda: _expected("T1", q=2)),
    (TableSpec("T2"), lambda: _expected("T2", q_values=Q_FIRST_TEN)),
    (TableSpec("T2", k=1000),
     lambda: _expected("T2", k=1000, q_values=Q_FIRST_TEN)),
    (TableSpec("T3"), lambda: _expected("T3", q_values=Q_HIGH)),
    (TableSpec("T4"), lambda: _expected("T4")),
    # Zero 2 leaves the f map's domain at k = 10 (see below), so its sweep
    # is pinned at one k.
    (TableSpec("T4", k=100, zero_indices=(2,)),
     lambda: _expected("T4", k_values=(100,), q=2)),
    (TableSpec("T5"), lambda: _expected("T5", q_values=Q_FIRST_TEN)),
    (TableSpec("T5", k=1000),
     lambda: _expected("T5", k=1000, q_values=Q_FIRST_TEN)),
    (TableSpec("T6"), lambda: _expected("T6", q_values=Q_HIGH)),
]


@pytest.mark.parametrize(
    "spec, expected", CASES,
    ids=[f"{s.table_id}-k{s.k}-q{s.zero_indices}" for s, _ in CASES])
def test_build_table_matches_direct_calls(spec, expected):
    header, rows = build_table(spec)
    assert header == HEADERS[spec.table_id]
    want = expected()
    assert rows == want
    for row in rows:
        assert tuple(row) == header
    off_grid = spec.k is not None or spec.zero_indices is not None
    devs = [v for row in rows for name, v in row.items() if name.startswith("dev")]
    if off_grid:
        assert devs and all(v is None for v in devs)
    else:
        assert all(v is not None for v in devs)


def test_build_table_sweep_override_on_grid_keeps_deviations():
    header, rows = build_table(TableSpec("T4", k=100, zero_indices=(1,)))
    assert rows == _expected("T4", k_values=(100,))
    assert rows[0]["dev"] is not None


def test_build_table_f_map_guard_propagates():
    with pytest.raises(SingularGuardError, match="k=10$"):
        build_table(TableSpec("T4", zero_indices=(2,)))


@pytest.mark.parametrize("tid", ["T1", "T4"])
def test_sweep_table_rejects_several_zeros(tid):
    with pytest.raises(DomainError, match="exactly one zero index"):
        build_table(TableSpec(tid, zero_indices=(1, 2)))


def test_unknown_table_id_rejected():
    with pytest.raises(DomainError, match="unknown table id"):
        TableSpec("T7")
