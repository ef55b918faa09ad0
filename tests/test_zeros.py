"""Zero catalog: embedded values, file parsing, and transcription checks."""

import numpy as np
import pytest

from zetagamma import (
    CatalogError,
    CatalogLookupError,
    CatalogParseError,
    CatalogSource,
    DomainError,
    EULER_GAMMA,
    TableSpec,
    build_table,
    builtin_catalog,
    g_of_t,
    gamma_type1,
    get_zero,
    load_catalog,
    ZetaZero,
)


def test_builtin_lookups():
    cat = builtin_catalog()
    assert cat.source is CatalogSource.EMBEDDED
    assert len(cat) == 14
    assert get_zero(cat, 1).t == 14.1347251417347
    assert get_zero(cat, 5).t == 32.9350615877392
    assert get_zero(cat, 1000).t == 1419.42248094599
    assert get_zero(cat, 100000).t == 74920.827498994


def test_lookup_miss_reports_nearest():
    cat = builtin_catalog()
    with pytest.raises(CatalogLookupError, match="nearest available: q=10"):
        get_zero(cat, 11)
    with pytest.raises(CatalogLookupError, match="nearest available: q=100000"):
        get_zero(cat, 90000)


@pytest.mark.parametrize("q", [True, False, 1.0, "x", None, 0, -1])
def test_zero_index_must_be_a_positive_integer(q):
    # A bool or float index is a DomainError wherever a zero is named or
    # looked up, never a lookup of zero 1 or a row labelled q=True.
    with pytest.raises(DomainError, match="zero index q"):
        ZetaZero(q, 14.1)
    with pytest.raises(DomainError, match="zero index q"):
        get_zero(builtin_catalog(), q)
    with pytest.raises(DomainError, match="zero index q"):
        build_table(TableSpec("T2", zero_indices=(q,)))


@pytest.mark.parametrize("q", [3, np.int64(3), np.int32(3)])
def test_zero_index_accepts_numpy_integers_and_stores_an_int(q):
    zero = ZetaZero(q, 25.0)
    assert zero.q == 3 and type(zero.q) is int
    found = get_zero(builtin_catalog(), q)
    assert found.q == 3 and found.t == 25.0108575801457
    [row] = build_table(TableSpec("T2", zero_indices=(q,), k=100))[1]
    assert type(row["q"]) is int


def test_load_bare_ordinates(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("14.134725141734\n21.022039638771\n")
    cat = load_catalog(path)
    assert cat.source is CatalogSource.FILE
    assert [z.q for z in cat.zeros] == [1, 2]
    assert cat.zeros[0].t == 14.134725141734


def test_load_indexed_lines_with_comment(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("# header\n1 14.134725141734\n")
    cat = load_catalog(path)
    assert len(cat) == 1
    assert cat.zeros[0].q == 1


def test_load_parse_error_reports_line(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("abc\n")
    with pytest.raises(CatalogParseError, match="line 1"):
        load_catalog(path)
    path.write_text("14.1\nxyz 2 3 4\n")
    with pytest.raises(CatalogParseError, match="line 2"):
        load_catalog(path)


def test_load_line_numbers_follow_every_line_ending(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_bytes(b"14.1\r\n21.0\rabc\n")
    with pytest.raises(CatalogParseError, match="line 3"):
        load_catalog(path)


@pytest.mark.parametrize("make", ["missing", "directory", "not_utf8"])
def test_load_unreadable_file_is_catalog_error(tmp_path, make):
    path = tmp_path / "zeros.txt"
    if make == "directory":
        path.mkdir()
    elif make == "not_utf8":
        path.write_bytes(b"\xff\xfe14.1\n")
    with pytest.raises(CatalogError, match=f"^cannot read {path}: "):
        load_catalog(path)


@pytest.mark.parametrize("t", [1j, "14.1", None, True, 10**400],
                         ids=["complex", "str", "none", "bool", "past_binary64"])
def test_zero_ordinate_must_be_a_real_number(t):
    with pytest.raises(DomainError, match="finite"):
        ZetaZero(1, t)


@pytest.mark.parametrize("t", [25, np.float64(25.0), np.int32(25)])
def test_zero_ordinate_is_stored_as_a_float(t):
    zero = ZetaZero(3, t)
    assert zero.t == 25.0 and type(zero.t) is float


def test_load_non_finite_ordinate_rejected(tmp_path):
    with pytest.raises(DomainError, match="finite"):
        ZetaZero(1, float("inf"))
    path = tmp_path / "zeros.txt"
    path.write_text("14.1\ninf\n")
    with pytest.raises(CatalogParseError, match="line 2"):
        load_catalog(path)


def test_load_empty_rejected(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("# only comments\n\n")
    with pytest.raises(CatalogError, match="no usable"):
        load_catalog(path)


def test_load_ordering_enforced(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("21.0\n14.1\n")
    with pytest.raises(CatalogError, match="strictly increasing"):
        load_catalog(path)
    path.write_text("1 14.1\n1 21.0\n")
    with pytest.raises(CatalogError, match="duplicate"):
        load_catalog(path)


def test_round_trip_preserves_catalog(tmp_path):
    # ``q t`` lines with repr ordinates read back exactly.
    cat = builtin_catalog()
    path = tmp_path / "roundtrip.txt"
    path.write_text("".join(f"{z.q} {z.t!r}\n" for z in cat.zeros),
                    encoding="utf-8")
    back = load_catalog(path)
    assert back.zeros == cat.zeros


def test_embedded_transcription_cross_check():
    # The first ten ordinates must be near-fixed-points of the g map; t-log-k
    # phase effects keep some k=1e4 residuals above 1, so check at k=1e5.
    cat = builtin_catalog()
    for zero in cat.zeros:
        if zero.q <= 10:
            assert abs(g_of_t(zero.t, 10**5) - zero.t) < 0.5
        else:
            # For the high-index zeros the g residual is no longer a useful
            # gate; the alternating gamma estimate is stable at every zero.
            est = gamma_type1(zero.t, 10**5).value
            assert abs(est - EULER_GAMMA) < 1e-5
