"""Unit tests for the synthetic data generators (Spark-backed)."""
import numpy as np
import pytest

from repro import synth_data as sd


def test_lineitem_schema_and_size(spark):
    df = sd.lineitem(spark, sf=0.001)
    assert df.count() == 6000
    cols = set(df.columns)
    assert {"l_orderkey", "l_partkey", "l_quantity", "l_extendedprice",
            "l_discount", "l_shipdate", "l_returnflag"} <= cols


def test_orders_keys_dense(spark):
    df = sd.orders(spark, sf=0.001)
    pdf = df.toPandas()
    assert pdf["o_orderkey"].is_unique
    assert pdf["o_orderkey"].min() == 1


def test_customer_schema(spark):
    df = sd.customer(spark, sf=0.001)
    assert df.count() == 150
    assert "c_mktsegment" in df.columns


def test_part_and_supplier(spark):
    assert sd.part(spark, sf=0.001).count() == 200
    assert sd.supplier(spark, sf=0.001).count() == 10


def test_nation_fixed(spark):
    df = sd.nation(spark)
    assert df.count() == 25
    pdf = df.toPandas()
    assert set(pdf["n_regionkey"]) == {0, 1, 2, 3, 4}


def test_store_sales_fk_ranges(spark):
    ss = sd.store_sales(spark, sf=0.001).toPandas()
    it = sd.item(spark, sf=0.001).toPandas()
    assert ss["ss_item_sk"].max() <= it["i_item_sk"].max()
    dd = sd.date_dim(spark).toPandas()
    assert ss["ss_sold_date_sk"].isin(dd["d_date_sk"]).all()


def test_date_dim_calendar(spark):
    dd = sd.date_dim(spark).toPandas()
    assert len(dd) == 1826
    assert dd["d_date_sk"].is_unique
    assert set(dd["d_moy"]) == set(range(1, 13))


def test_determinism(spark):
    a = sd.lineitem(spark, sf=0.001).toPandas()
    b = sd.lineitem(spark, sf=0.001).toPandas()
    assert a.equals(b)
