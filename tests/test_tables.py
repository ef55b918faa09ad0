"""Reference tables: every cell of build_table against direct calls."""

import pytest

from zetagamma import (
    CatalogError,
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
    OffDomainRowWarning,
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
    # k = 1e5 for the zero lists).  A row whose f map leaves its domain is
    # left out.
    if tid in ("T1", "T4"):
        zero = get_zero(CATALOG, q)
        rows = []
        for kk in k_values:
            if tid == "T1":
                ref = REF_GAMMA_SWEEP.get(kk) if q == 1 else None
                cells = _gamma_cells(zero.t, kk, q, ref)
            else:
                ref = REF_ZERO_SWEEP.get(kk) if q == 1 else None
                try:
                    cells = _zero_cells(zero.t, kk, ref)
                except SingularGuardError:
                    continue
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
            try:
                cells = _zero_cells(zero.t, k, ref)
            except SingularGuardError:
                continue
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


@pytest.mark.parametrize("spec, traversals", [
    (TableSpec("T1"), 2), (TableSpec("T1", k=1000), 2),
    (TableSpec("T4"), 10), (TableSpec("T4", k=100, zero_indices=(2,)), 2),
    (TableSpec("T2"), 2), (TableSpec("T2", k=1000), 2),
    (TableSpec("T3"), 2), (TableSpec("T3", zero_indices=(100, 1000)), 2),
    (TableSpec("T5"), 2), (TableSpec("T5", k=1000, zero_indices=(1, 3)), 2),
    (TableSpec("T6"), 2),
], ids=lambda v: f"{v.table_id}-k{v.k}-q{v.zero_indices}"
    if isinstance(v, TableSpec) else str(v))
def test_traversals_per_table(chunked_sums, spec, traversals):
    # Two traversals of n = 1..k per table, to its largest k, whatever the
    # number of zeros or of k: the diagonal's and the zeros'.  The T1 sweep
    # reads every row's sums off them as prefix ends.  T4 takes two per row
    # (f_of_t's sum and its diagonal).
    build_table(spec)
    assert len(chunked_sums.k) == traversals
    assert max(chunked_sums.k) == (spec.k or 100_000)


def test_build_table_sweep_override_on_grid_keeps_deviations():
    header, rows = build_table(TableSpec("T4", k=100, zero_indices=(1,)))
    assert rows == _expected("T4", k_values=(100,))
    assert rows[0]["dev"] is not None


@pytest.mark.parametrize("spec, off_domain, expected", [
    # Zero 2 leaves the f map's domain at k = 10, in the sweep and in a list.
    (TableSpec("T4", zero_indices=(2,)), "k=10", lambda: _expected("T4", q=2)),
    (TableSpec("T5", k=10, zero_indices=(2, 1)), "q=2",
     lambda: _expected("T5", k=10, q_values=(1,))),
], ids=["T4-sweep", "T5-list"])
def test_build_table_off_domain_row_keeps_cells_and_warns(spec, off_domain,
                                                          expected):
    with pytest.warns(OffDomainRowWarning) as record:
        header, rows = build_table(spec)
    with pytest.raises(SingularGuardError) as guard:
        f_of_t(get_zero(CATALOG, 2).t, 10)
    assert [str(w.message) for w in record] == \
        [f"table {spec.table_id} row {off_domain}: {guard.value}"]
    key, value = off_domain.split("=")
    (bad,) = [row for row in rows if row[key] == int(value)]
    assert bad["zero_estimate"] is None and bad["dev"] is None
    if key == "q":
        assert bad["t_q"] == get_zero(CATALOG, 2).t
    assert [row for row in rows if row is not bad] == [
        row for row in expected() if row[key] != int(value)]


@pytest.mark.parametrize("tid", ["T2", "T5"])
def test_zero_list_errors_keep_row_order(chunked_sums, tid):
    # Every zero is looked up before any sum, so a missing zero is reported
    # ahead of a bad k wherever it stands in the list, and at once however
    # long the sums would be; with every zero found, the bad k fails.
    with pytest.raises(CatalogError, match="not in catalog"):
        build_table(TableSpec(tid, k=1, zero_indices=(1, 10**9)))
    with pytest.raises(CatalogError, match="not in catalog"):
        build_table(TableSpec(tid, k=1, zero_indices=(10**9, 1)))
    with pytest.raises(CatalogError, match="not in catalog"):
        build_table(TableSpec(tid, k=10**7, zero_indices=(1, 2, 10**9)))
    assert chunked_sums.k == []
    with pytest.raises(DomainError, match="k must be >= 2"):
        build_table(TableSpec(tid, k=1, zero_indices=(1, 2)))


@pytest.mark.parametrize("tid, columns", [
    ("T2", ("gamma_type1", "gamma_type2", "dev_type1", "dev_type2")),
    ("T3", ("gamma_type1", "gamma_type2", "dev_type1", "dev_type2")),
    ("T5", ("zero_estimate", "dev")), ("T6", ("zero_estimate", "dev"))])
def test_empty_zero_list_gives_the_header_and_no_sum(chunked_sums, tid,
                                                      columns):
    header, rows = build_table(TableSpec(tid, zero_indices=()))
    assert header == ("q", "t_q") + columns
    assert rows == []
    assert chunked_sums.k == []


@pytest.mark.parametrize("tid", ["T1", "T4"])
def test_sweep_table_rejects_several_zeros(tid):
    with pytest.raises(DomainError, match="exactly one zero index"):
        build_table(TableSpec(tid, zero_indices=(1, 2)))


def test_unknown_table_id_rejected():
    with pytest.raises(DomainError, match="unknown table id"):
        TableSpec("T7")
