"""TPC-H-lite / TPC-DS-lite queries, each defined once as SQL text.

Spark runs the text over temp views of the ``repro.synth_data`` tables
(``runner.run_with_conf``) and the DuckDB oracle runs the same text over
the same tables, with output columns aliased for both engines — so every
configuration experiment can assert result equality, not just "it ran".
The text sticks to what both dialects parse alike: comma joins, ISO-date
string comparisons and aliased aggregates.
"""
from __future__ import annotations

from dataclasses import dataclass

import pyspark.sql.functions as F
from pyspark.sql import SparkSession

from repro import synth_data


@dataclass(frozen=True)
class LiteQuery:
    """One executable validation query."""

    name: str
    tables: tuple[str, ...]                       # synth_data generator names
    sql: str                                      # Spark SQL and DuckDB alike


_Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       sum(l_quantity) AS sum_qty,
       sum(l_extendedprice) AS sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= '1998-09-01'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


_Q3_SQL = """
SELECT o_orderkey, o_orderdate,
       sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING'
  AND c_custkey = o_custkey
  AND o_orderdate < '1995-03-15'
  AND l_orderkey = o_orderkey
  AND l_shipdate > '1995-03-15'
GROUP BY o_orderkey, o_orderdate
ORDER BY revenue DESC, o_orderdate, o_orderkey
LIMIT 10
"""


_Q6_SQL = """
SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
"""


# A 4-join chain through the TPC-H schema (Q5 without region).
_Q5ISH_SQL = """
SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation
WHERE c_custkey = o_custkey
  AND o_orderdate >= '1994-01-01' AND o_orderdate < '1995-01-01'
  AND l_orderkey = o_orderkey
  AND (l_partkey % 100 + 1) = (s_suppkey % 100 + 1)
  AND s_nationkey = n_nationkey
  AND c_nationkey = s_nationkey
GROUP BY n_name
ORDER BY revenue DESC, n_name
"""


_Q12_SQL = """
SELECT o_orderpriority, count(*) AS order_count,
       sum(l_extendedprice) AS total_price
FROM orders, lineitem
WHERE l_orderkey = o_orderkey AND l_shipdate >= '1994-01-01'
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


_Q14_SQL = """
SELECT p_type, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem, part
WHERE l_partkey = p_partkey
  AND l_shipdate >= '1995-09-01' AND l_shipdate < '1995-10-01'
GROUP BY p_type
ORDER BY p_type
"""


_Q18_SQL = """
SELECT c_custkey, o_orderkey, o_orderdate, o_totalprice, sum_qty
FROM orders,
     (SELECT l_orderkey, sum(l_quantity) AS sum_qty
      FROM lineitem GROUP BY l_orderkey HAVING sum(l_quantity) > 180) big,
     customer
WHERE o_orderkey = big.l_orderkey AND c_custkey = o_custkey
ORDER BY o_totalprice DESC, o_orderkey
LIMIT 100
"""


# TPC-DS Q3's one manufacturer and one month. Q3's own manufacturer, 128,
# owns none of the 180 items at SF 0.01 nor of the 1,800 at SF 0.1, so
# the query would join nothing; 719 owns 2 and 6 of them.
_DS_Q3_SQL = """
SELECT d_year, i_brand_id, sum(ss_ext_sales_price) AS sum_agg
FROM store_sales, date_dim, item
WHERE ss_sold_date_sk = d_date_sk AND d_moy = 11
  AND ss_item_sk = i_item_sk AND i_manufact_id = 719
GROUP BY d_year, i_brand_id
ORDER BY d_year, sum_agg DESC, i_brand_id
"""


LITE_QUERIES: dict[str, LiteQuery] = {
    q.name: q
    for q in [
        LiteQuery("q1", ("lineitem",), _Q1_SQL),
        LiteQuery("q3", ("customer", "orders", "lineitem"), _Q3_SQL),
        LiteQuery("q6", ("lineitem",), _Q6_SQL),
        LiteQuery("q5ish", ("customer", "orders", "lineitem", "supplier", "nation"),
                  _Q5ISH_SQL),
        LiteQuery("q12", ("orders", "lineitem"), _Q12_SQL),
        LiteQuery("q14", ("lineitem", "part"), _Q14_SQL),
        LiteQuery("q18", ("customer", "orders", "lineitem"), _Q18_SQL),
        LiteQuery("ds_q3", ("store_sales", "date_dim", "item"), _DS_Q3_SQL),
    ]
}


def load_tables(spark: SparkSession, names: tuple[str, ...], *, sf: float = 0.01):
    """Generate the synth tables a query needs, as DataFrames by name.

    Date columns are cast to ISO ``yyyy-MM-dd`` strings, so both engines
    compare them lexicographically, which orders ISO dates correctly.
    """
    out = {}
    for n in names:
        gen = getattr(synth_data, n)
        df = gen(spark, sf=sf) if n not in ("nation", "date_dim") else gen(spark)
        for c, t in df.dtypes:
            if t.startswith("timestamp") or t == "date":
                df = df.withColumn(c, F.date_format(c, "yyyy-MM-dd"))
        out[n] = df
    return out
