"""Zero catalog: embedded values, file parsing, and transcription checks."""

import pytest

from zetagamma import (
    CatalogError,
    CatalogLookupError,
    CatalogParseError,
    CatalogSource,
    DomainError,
    EULER_GAMMA,
    builtin_catalog,
    g_of_t,
    gamma_type1,
    get_zero,
    load_catalog,
    save_catalog,
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
    cat = builtin_catalog()
    path = tmp_path / "roundtrip.txt"
    save_catalog(cat, path)
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
