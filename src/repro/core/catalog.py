"""Benchmark catalogs: table row counts and row widths at a scale factor.

The simulator operates on metadata (rows/bytes), so a catalog is all it
needs to model SF=100 execution on laptop hardware; the real-Spark layer
uses the matching generators in ``repro.synth_data`` at SF<=0.1.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TableStats:
    """Base-table statistics: rows scale linearly with SF (fixed tables don't)."""

    name: str
    rows_per_sf: float
    row_bytes: float
    fixed: bool = False  # dimension tables whose size is SF-independent

    def rows(self, sf: float) -> float:
        return self.rows_per_sf if self.fixed else self.rows_per_sf * sf


# TPC-H row counts per SF (spec) with approximate in-memory row widths.
TPCH_TABLES: dict[str, TableStats] = {
    t.name: t
    for t in [
        TableStats("lineitem", 6_000_000, 120.0),
        TableStats("orders", 1_500_000, 110.0),
        TableStats("customer", 150_000, 160.0),
        TableStats("part", 200_000, 130.0),
        TableStats("partsupp", 800_000, 140.0),
        TableStats("supplier", 10_000, 150.0),
        TableStats("nation", 25, 110.0, fixed=True),
        TableStats("region", 5, 110.0, fixed=True),
    ]
}

# TPC-DS-lite: the high-traffic fact/dimension tables (rows per SF per spec).
TPCDS_TABLES: dict[str, TableStats] = {
    t.name: t
    for t in [
        TableStats("store_sales", 2_880_000, 110.0),
        TableStats("catalog_sales", 1_440_000, 150.0),
        TableStats("web_sales", 720_000, 150.0),
        TableStats("store_returns", 288_000, 110.0),
        TableStats("catalog_returns", 144_000, 120.0),
        TableStats("web_returns", 72_000, 120.0),
        TableStats("inventory", 11_745_000, 30.0),
        TableStats("item", 18_000, 300.0),
        TableStats("customer", 100_000, 250.0),
        TableStats("customer_address", 50_000, 180.0),
        TableStats("customer_demographics", 1_920_800, 60.0, fixed=True),
        TableStats("date_dim", 73_049, 150.0, fixed=True),
        TableStats("store", 12, 300.0),
        TableStats("warehouse", 5, 200.0),
        TableStats("promotion", 300, 150.0),
        TableStats("household_demographics", 7_200, 40.0, fixed=True),
        TableStats("time_dim", 86_400, 80.0, fixed=True),
        TableStats("web_site", 30, 300.0),
        TableStats("catalog_page", 11_718, 200.0),
    ]
}

CATALOGS: dict[str, dict[str, TableStats]] = {
    "tpch": TPCH_TABLES,
    "tpcds": TPCDS_TABLES,
}


def get_catalog(benchmark: str) -> dict[str, TableStats]:
    """Lookup a benchmark catalog by name ('tpch' or 'tpcds')."""
    try:
        return CATALOGS[benchmark]
    except KeyError:
        raise ValueError(f"unknown benchmark {benchmark!r}; have {sorted(CATALOGS)}") from None
