"""Unit tests for the operator DAG builder and cardinality estimation."""
import numpy as np
import pytest

from repro.core.operators import (EXCHANGE_OPS, OP_TYPES, LogicalPlan,
                                  PlanBuilder, _hash01, _lognormal, _norm_ppf)
from tests.conftest import n_joins


@pytest.fixture
def builder():
    return PlanBuilder("tpch", "test", sf=1.0, seed=0)


def test_scan_cardinality(builder):
    s = builder.scan("lineitem")
    op = builder._ops[s]
    assert op.true_rows == 6_000_000
    assert op.est_rows == op.true_rows  # scans are exact (table stats)


def test_filter_selectivity(builder):
    s = builder.scan("orders")
    f = builder.filter(s, 0.25, "o_orderdate < x")
    op = builder._ops[f]
    assert op.true_rows == pytest.approx(1_500_000 * 0.25)
    assert op.est_rows != op.true_rows  # CBO error applied


def test_filter_selectivity_clamped(builder):
    s = builder.scan("nation")
    f = builder.filter(s, 5.0)
    assert builder._ops[f].selectivity == 1.0


def test_join_fanout(builder):
    a = builder.scan("orders")
    b = builder.scan("customer")
    j = builder.join(a, b, 0.5, "o_custkey=c_custkey")
    op = builder._ops[j]
    assert op.true_rows == pytest.approx(0.5 * 1_500_000)
    assert op.row_width == pytest.approx(110.0 + 0.8 * 160.0)
    assert 0 <= op.skew <= 2.0


def test_join_underestimation_bias():
    """Join estimates are biased low on average (the CBO failure mode)."""
    ratios = []
    for seed in range(60):
        b = PlanBuilder("tpch", f"bias{seed}", sf=1.0, seed=0)
        x = b.scan("orders")
        y = b.scan("lineitem")
        j = b.join(x, y, 1.0)
        op = b._ops[j]
        ratios.append(op.est_rows / op.true_rows)
    assert np.median(ratios) < 1.0


def test_error_compounds_with_depth():
    """Deeper joins have (stochastically) larger estimation error."""
    shallow, deep = [], []
    for seed in range(40):
        b = PlanBuilder("tpch", f"cmp{seed}", sf=1.0, seed=1)
        t1, t2, t3, t4 = (b.scan(t) for t in ("orders", "lineitem", "customer", "part"))
        j1 = b.join(t1, t2, 1.0)
        shallow.append(abs(np.log(b._ops[j1].est_rows / b._ops[j1].true_rows)))
        j2 = b.join(j1, t3, 1.0)
        j3 = b.join(j2, t4, 1.0)
        deep.append(abs(np.log(b._ops[j3].est_rows / b._ops[j3].true_rows)))
    assert np.mean(deep) > np.mean(shallow)


def test_agg_group_ratio(builder):
    s = builder.scan("lineitem")
    a = builder.agg(s, 0.01)
    assert builder._ops[a].true_rows == pytest.approx(60_000)
    assert builder._ops[a].row_width == 64.0


def test_sort_passthrough(builder):
    s = builder.scan("part")
    srt = builder.sort(s)
    assert builder._ops[srt].true_rows == builder._ops[s].true_rows


def test_limit(builder):
    s = builder.scan("part")
    l = builder.limit_(s, 10)
    assert builder._ops[l].true_rows == 10


def test_limit_larger_than_input(builder):
    s = builder.scan("region")
    l = builder.limit_(s, 100)
    assert builder._ops[l].true_rows == 5


def test_union(builder):
    a = builder.scan("orders")
    b = builder.scan("customer")
    u = builder.union(a, b)
    assert builder._ops[u].true_rows == 1_650_000


def test_union_requires_two(builder):
    a = builder.scan("orders")
    with pytest.raises(ValueError):
        builder.union(a)


def test_project_width(builder):
    s = builder.scan("orders")
    p = builder.project(s, 0.5)
    assert builder._ops[p].row_width == pytest.approx(55.0)
    assert builder._ops[p].true_rows == builder._ops[s].true_rows


def test_build_unknown_root(builder):
    with pytest.raises(ValueError):
        builder.build(999)


def test_build_returns_plan(builder):
    s = builder.scan("orders")
    plan = builder.build(s)
    assert isinstance(plan, LogicalPlan)
    assert plan.root == s


def test_topological_children_first():
    b = PlanBuilder("tpch", "topo", sf=1.0, seed=0)
    x = b.scan("orders")
    y = b.scan("customer")
    j = b.join(x, y, 0.5)
    a = b.agg(j, 0.1)
    plan = b.build(a)
    order = plan.topological()
    assert order.index(x) < order.index(j)
    assert order.index(y) < order.index(j)
    assert order.index(j) < order.index(a)


def test_n_joins():
    b = PlanBuilder("tpch", "nj", sf=1.0, seed=0)
    x, y, z = b.scan("orders"), b.scan("customer"), b.scan("nation")
    j1 = b.join(x, y, 0.5)
    j2 = b.join(j1, z, 1.0)
    assert n_joins(b.build(j2)) == 2


def test_exchange_ops_classification():
    assert EXCHANGE_OPS == {"join", "agg", "sort", "union"}
    assert set(OP_TYPES) >= EXCHANGE_OPS | {"scan", "filter", "project", "limit"}


def test_estimates_deterministic():
    def build():
        b = PlanBuilder("tpch", "det", sf=1.0, seed=7)
        x = b.scan("orders")
        f = b.filter(x, 0.3)
        j = b.join(f, b.scan("customer"), 0.3)
        return b.build(j)

    p1, p2 = build(), build()
    for i in p1.ops:
        assert p1.ops[i].est_rows == p2.ops[i].est_rows


def test_hash01_range_and_determinism():
    vals = [_hash01("a", i) for i in range(200)]
    assert all(0 <= v < 1 for v in vals)
    assert _hash01("x", 1) == _hash01("x", 1)
    assert _hash01("x", 1) != _hash01("x", 2)


def test_norm_ppf_accuracy():
    assert _norm_ppf(0.5) == pytest.approx(0.0, abs=1e-6)
    assert _norm_ppf(0.975) == pytest.approx(1.959964, abs=1e-3)
    assert _norm_ppf(0.025) == pytest.approx(-1.959964, abs=1e-3)
    assert _norm_ppf(0.999) == pytest.approx(3.0902, abs=5e-3)


def test_lognormal_median():
    vals = [_lognormal(0.0, 0.5, "t", i) for i in range(500)]
    assert np.median(vals) == pytest.approx(1.0, rel=0.15)
