"""Real-Spark validation: θp knobs change live Catalyst/AQE plans, and
each configured run's rows equal DuckDB's for the same SQL (the oracle).

This is the layer that grounds the simulator: the same knobs the tuner
manipulates (broadcast/shuffle-hash thresholds, shuffle partitions,
advisory partition size) demonstrably drive Spark's parametric rules.
"""
import pytest

from repro.oracle import assert_equivalent
from repro.params import KNOB_BY_ID, MB, default_conf, spark_conf_items
from repro.sparkexec.queries import LITE_QUERIES, load_tables
from repro.sparkexec.runner import (LIVE_KNOBS, count_exchanges, join_algorithms,
                                    live_conf_items, run_with_conf)

SF = 0.01


@pytest.fixture(scope="module")
def tables_cache(spark):
    cache = {}

    def get(names):
        missing = [n for n in names if n not in cache]
        if missing:
            cache.update(load_tables(spark, tuple(missing), sf=SF))
        return {n: cache[n] for n in names}

    return get


# --- correctness under configurations ---------------------------------------

@pytest.mark.parametrize("qname", sorted(LITE_QUERIES))
def test_oracle_default_conf(spark, tables_cache, qname):
    q = LITE_QUERIES[qname]
    tables = tables_cache(q.tables)
    res = run_with_conf(spark, q, tables, default_conf())
    assert_equivalent(res.rows, q.sql, **tables)


@pytest.mark.parametrize("qname", sorted(LITE_QUERIES))
def test_query_returns_rows_and_runs_its_joins(spark, tables_cache, qname):
    """A query whose result is empty, or whose joins AQE drops, checks
    nothing under any conf: every query returns a row, and every query over
    more than one table keeps a join in its default-conf final plan."""
    q = LITE_QUERIES[qname]
    res = run_with_conf(spark, q, tables_cache(q.tables), default_conf())
    assert len(res.rows) >= 1
    if len(q.tables) > 1:
        assert sum(join_algorithms(res.plan).values()) >= 1, res.plan


@pytest.mark.parametrize("qname", sorted(LITE_QUERIES))
@pytest.mark.parametrize("variant", ["no_broadcast", "broadcast", "many_parts"])
def test_oracle_under_tuned_confs(spark, tables_cache, qname, variant):
    """Result equality must hold whatever the optimizer picks."""
    q = LITE_QUERIES[qname]
    tables = tables_cache(q.tables)
    conf = default_conf()
    if variant == "no_broadcast":
        conf["s4"] = 1.0
        conf["s3"] = 1.0
    elif variant == "broadcast":
        conf["s4"] = 256 * MB
    else:
        conf["s5"] = 199.0
        conf["s1"] = 1 * MB
    res = run_with_conf(spark, q, tables, conf)
    assert_equivalent(res.rows, q.sql, **tables)


# --- plan changes driven by θp ------------------------------------------------

def test_s4_flips_smj_to_bhj(spark, tables_cache):
    q = LITE_QUERIES["q3"]
    tables = tables_cache(q.tables)
    lo = dict(default_conf(), s4=1.0, s3=1.0)
    hi = dict(default_conf(), s4=256 * MB)
    r_lo = run_with_conf(spark, q, tables, lo)
    r_hi = run_with_conf(spark, q, tables, hi)
    assert join_algorithms(r_lo.plan)["BHJ"] == 0
    assert join_algorithms(r_lo.plan)["SMJ"] >= 2
    assert join_algorithms(r_hi.plan)["BHJ"] >= 1


def test_s3_enables_shuffled_hash_join(spark, tables_cache):
    q = LITE_QUERIES["q12"]
    tables = tables_cache(q.tables)
    conf = dict(default_conf(), s4=1.0, s3=512 * MB)
    r = run_with_conf(spark, q, tables, conf)
    algs = join_algorithms(r.plan)
    assert algs["SHJ"] >= 1 or algs["BHJ"] >= 1  # SMJ avoided
    assert algs["SMJ"] == 0


def test_broadcast_localizes_shuffle_reads(spark, tables_cache):
    """When AQE demotes the SMJ to a BHJ at runtime, the probe side's
    already-planned exchange is read *locally* (no cross-node shuffle) —
    the physical signature of the conversion."""
    q = LITE_QUERIES["q14"]
    tables = tables_cache(q.tables)
    r_smj = run_with_conf(spark, q, tables, dict(default_conf(), s4=1.0, s3=1.0))
    r_bhj = run_with_conf(spark, q, tables, dict(default_conf(), s4=256 * MB))
    assert "AQEShuffleRead local" in r_bhj.plan
    assert "AQEShuffleRead local" not in r_smj.plan.split("== Initial Plan ==")[0]
    # shuffle-exchange count certainly does not grow
    assert count_exchanges(r_bhj.plan) <= count_exchanges(r_smj.plan)


def test_aqe_coalesces_partitions(spark, tables_cache):
    """With AQE on and a large advisory size, the final plan contains
    AQEShuffleRead coalescing; with a tiny advisory size it keeps many
    partitions."""
    q = LITE_QUERIES["q1"]
    tables = tables_cache(q.tables)
    big = dict(default_conf(), s5=200.0, s1=64 * MB)
    r = run_with_conf(spark, q, tables, big)
    assert "AQEShuffleRead" in r.plan


def test_conf_restored_after_run(spark, tables_cache):
    q = LITE_QUERIES["q6"]
    tables = tables_cache(q.tables)
    before = spark.conf.get("spark.sql.shuffle.partitions")
    run_with_conf(spark, q, tables, dict(default_conf(), s5=1234.0))
    assert spark.conf.get("spark.sql.shuffle.partitions") == before


def test_live_conf_items_subset():
    c = default_conf()
    items = live_conf_items(c)
    assert "spark.sql.shuffle.partitions" in items
    assert "spark.sql.adaptive.autoBroadcastJoinThreshold" in items
    # θc knobs are NOT live-settable (documented in DESIGN.md)
    assert "spark.executor.cores" not in items
    assert items == spark_conf_items({k: c[k] for k in LIVE_KNOBS})


def test_live_knobs_are_runtime_confs(spark):
    """Every live knob names a conf the session can set per query, so a
    renamed or retired Spark conf fails here instead of being ignored."""
    for k in LIVE_KNOBS:
        assert spark.conf.isModifiable(KNOB_BY_ID[k].spark_name), k
    assert not spark.conf.isModifiable("spark.sql.adaptive.noSuchKnob")


def test_wall_time_recorded(spark, tables_cache):
    q = LITE_QUERIES["q6"]
    tables = tables_cache(q.tables)
    r = run_with_conf(spark, q, tables, default_conf())
    assert r.wall_s > 0
