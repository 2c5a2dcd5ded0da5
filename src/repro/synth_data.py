"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.catalog import TPCDS_TABLES, TPCH_TABLES


def _n(tables: dict, name: str, sf: float) -> int:
    """Row count of a catalog table at ``sf`` (at least one row)."""
    return max(1, int(tables[name].rows(sf)))


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = _n(TPCH_TABLES, "lineitem", sf)
    n_orders = _n(TPCH_TABLES, "orders", sf)
    n_part = _n(TPCH_TABLES, "part", sf)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    n = _n(TPCH_TABLES, "orders", sf)
    n_cust = _n(TPCH_TABLES, "customer", sf)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def part(spark: SparkSession, *, sf: float = 0.01, seed: int = 5) -> DataFrame:
    n = _n(TPCH_TABLES, "part", sf)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice([f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def customer(spark: SparkSession, *, sf: float = 0.01, seed: int = 2) -> DataFrame:
    n = _n(TPCH_TABLES, "customer", sf)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def supplier(spark: SparkSession, *, sf: float = 0.01, seed: int = 6) -> DataFrame:
    n = _n(TPCH_TABLES, "supplier", sf)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "s_suppkey": np.arange(1, n + 1),
            "s_nationkey": g.integers(0, 25, n),
            "s_acctbal": (g.random(n) * 10000 - 1000).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def nation(spark: SparkSession, *, seed: int = 7) -> DataFrame:
    """25-row fixed dimension (SF-independent, like the TPC-H spec)."""
    pdf = pd.DataFrame(
        {
            "n_nationkey": np.arange(0, 25),
            "n_regionkey": np.arange(0, 25) % 5,
            "n_name": [f"NATION_{i:02d}" for i in range(25)],
        }
    )
    return spark.createDataFrame(pdf)


# --- TPC-DS-lite (store_sales star schema at the same SF conventions) -------


def store_sales(spark: SparkSession, *, sf: float = 0.01, seed: int = 8) -> DataFrame:
    n = _n(TPCDS_TABLES, "store_sales", sf)
    n_item = _n(TPCDS_TABLES, "item", sf)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "ss_sold_date_sk": g.integers(2450816, 2450816 + 1826, n),
            "ss_item_sk": g.integers(1, n_item + 1, n),
            "ss_store_sk": g.integers(1, 13, n),
            "ss_quantity": g.integers(1, 101, n),
            "ss_sales_price": (g.random(n) * 200).round(2),
            "ss_ext_sales_price": (g.random(n) * 20000).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def item(spark: SparkSession, *, sf: float = 0.01, seed: int = 9) -> DataFrame:
    n = _n(TPCDS_TABLES, "item", sf)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "i_item_sk": np.arange(1, n + 1),
            "i_brand_id": g.integers(1, 1000, n),
            "i_category_id": g.integers(1, 11, n),
            "i_manufact_id": g.integers(1, 1000, n),
            "i_current_price": (g.random(n) * 100).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def date_dim(spark: SparkSession, *, seed: int = 10) -> DataFrame:
    """~5 years of calendar days keyed like TPC-DS julian date surrogates."""
    n = 1826
    sk = np.arange(2450816, 2450816 + n)
    dates = pd.date_range("1998-01-01", periods=n, freq="D")
    pdf = pd.DataFrame(
        {
            "d_date_sk": sk,
            "d_year": dates.year.to_numpy(),
            "d_moy": dates.month.to_numpy(),
            "d_dom": dates.day.to_numpy(),
        }
    )
    return spark.createDataFrame(pdf)
