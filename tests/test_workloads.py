"""Unit tests for the TPC-H-lite / TPC-DS-lite templates."""
import pytest

from repro.core.plan import partition_subqs
from repro.core.workloads import (TPCDS_QUERIES, TPCH_QUERIES,
                                  benchmark_queries, build_query)
from tests.conftest import n_joins


def test_template_counts():
    assert len(TPCH_QUERIES) == 22    # all TPC-H queries
    assert len(TPCDS_QUERIES) == 30   # documented TPC-DS subset (DESIGN.md)


def test_benchmark_queries_lists():
    assert benchmark_queries("tpch") == TPCH_QUERIES
    assert benchmark_queries("tpcds") == TPCDS_QUERIES
    with pytest.raises(ValueError):
        benchmark_queries("ssb")


def test_build_query_unknown():
    with pytest.raises(ValueError):
        build_query("tpch", "q99")
    with pytest.raises(ValueError):
        build_query("ssb", "q1")


@pytest.mark.parametrize("q", TPCH_QUERIES)
def test_tpch_builds_and_scales(q):
    p1 = build_query("tpch", q, sf=1.0)
    p100 = build_query("tpch", q, sf=100.0)
    assert p100.ops[p100.root].true_rows >= p1.ops[p1.root].true_rows
    assert p1.benchmark == "tpch"


@pytest.mark.parametrize("q", TPCDS_QUERIES)
def test_tpcds_builds(q):
    plan = build_query("tpcds", q, sf=1.0)
    assert n_joins(plan) >= 0
    assert plan.ops[plan.root].true_rows >= 1


def test_variants_deterministic():
    a = build_query("tpch", "q3", sf=1.0, variant=2)
    b = build_query("tpch", "q3", sf=1.0, variant=2)
    for i in a.ops:
        assert a.ops[i].true_rows == b.ops[i].true_rows


def test_variants_differ():
    a = build_query("tpch", "q3", sf=1.0, variant=0)
    b = build_query("tpch", "q3", sf=1.0, variant=1)
    assert any(a.ops[i].true_rows != b.ops[i].true_rows for i in a.ops)


def test_variant_zero_canonical():
    """variant=0 must be the unjittered benchmark query."""
    a = build_query("tpch", "q6", sf=1.0, variant=0)
    # q6: lineitem * 0.019 selectivity
    f = next(op for op in a.ops.values() if op.op_type == "filter")
    assert f.selectivity == pytest.approx(0.019)


def test_plan_sizes_spread():
    """Plan complexity must span the paper's range (1..25+ subQs)."""
    sizes = [partition_subqs(build_query(bm, q, sf=1.0)).n_subqs()
             for bm in ("tpch", "tpcds") for q in benchmark_queries(bm)]
    assert min(sizes) <= 3
    assert max(sizes) >= 20


def test_tpcds_multi_channel_union():
    plan = build_query("tpcds", "q14", sf=1.0)
    assert any(op.op_type == "union" for op in plan.ops.values())


def test_tpcds_deep_star():
    plan = build_query("tpcds", "q61", sf=1.0)
    assert n_joins(plan) >= 10
