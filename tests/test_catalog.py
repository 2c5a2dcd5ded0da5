"""Unit tests for the benchmark catalogs."""
import pytest

from repro.core.catalog import CATALOGS, TPCDS_TABLES, TPCH_TABLES, get_catalog


def test_tpch_tables_present():
    for t in ("lineitem", "orders", "customer", "part", "partsupp",
              "supplier", "nation", "region"):
        assert t in TPCH_TABLES


def test_tpcds_tables_present():
    for t in ("store_sales", "catalog_sales", "web_sales", "item",
              "date_dim", "customer"):
        assert t in TPCDS_TABLES


@pytest.mark.parametrize("name,t", list(TPCH_TABLES.items()) + list(TPCDS_TABLES.items()))
def test_positive_stats(name, t):
    assert t.rows_per_sf > 0 and t.row_bytes > 0


def test_scaling_linear():
    li = TPCH_TABLES["lineitem"]
    assert li.rows(100) == pytest.approx(100 * li.rows(1))


def test_fixed_tables_do_not_scale():
    nation = TPCH_TABLES["nation"]
    assert nation.rows(1) == nation.rows(100) == 25
    dd = TPCDS_TABLES["date_dim"]
    assert dd.rows(0.01) == dd.rows(100)


def test_tpch_spec_row_counts():
    assert TPCH_TABLES["lineitem"].rows(1) == 6_000_000
    assert TPCH_TABLES["orders"].rows(1) == 1_500_000
    assert TPCH_TABLES["customer"].rows(1) == 150_000


def test_get_catalog():
    assert get_catalog("tpch") is TPCH_TABLES
    assert get_catalog("tpcds") is TPCDS_TABLES
    with pytest.raises(ValueError, match="unknown benchmark"):
        get_catalog("job")


def test_catalog_registry():
    assert set(CATALOGS) == {"tpch", "tpcds"}
