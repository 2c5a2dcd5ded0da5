"""Unit tests for subQ partitioning (paper §4.1)."""
import pytest

from repro.core.operators import PlanBuilder
from repro.core.plan import partition_subqs
from repro.core.workloads import benchmark_queries, build_query
from tests.conftest import n_joins

ALL_QUERIES = [("tpch", q) for q in benchmark_queries("tpch")] + \
              [("tpcds", q) for q in benchmark_queries("tpcds")]


@pytest.mark.parametrize("bm,q", ALL_QUERIES, ids=[f"{b}-{q}" for b, q in ALL_QUERIES])
class TestAllTemplatesPartition:
    def test_valid_dag(self, bm, q):
        dag = partition_subqs(build_query(bm, q, sf=1.0))
        # every op assigned to exactly one subQ
        assigned = [o for sq in dag.subqs.values() for o in sq.op_ids]
        assert sorted(assigned) == sorted(dag.plan.ops)
        # deps are valid subQ ids, no self-deps
        for sq in dag.subqs.values():
            assert all(d in dag.subqs and d != sq.sq_id for d in sq.deps)

    def test_single_root(self, bm, q):
        dag = partition_subqs(build_query(bm, q, sf=1.0))
        assert len(dag.roots()) == 1

    def test_scan_stages_match_scan_ops(self, bm, q):
        dag = partition_subqs(build_query(bm, q, sf=1.0))
        n_scans = sum(1 for op in dag.plan.ops.values() if op.op_type == "scan")
        assert sum(1 for s in dag.subqs.values() if s.kind == "scan") == n_scans

    def test_shuffle_stages_match_exchange_ops(self, bm, q):
        dag = partition_subqs(build_query(bm, q, sf=1.0))
        n_exch = sum(1 for op in dag.plan.ops.values() if op.is_exchange)
        assert sum(1 for s in dag.subqs.values() if s.kind == "shuffle") == n_exch

    def test_topological_order(self, bm, q):
        dag = partition_subqs(build_query(bm, q, sf=1.0))
        order = dag.topological()
        pos = {sq: i for i, sq in enumerate(order)}
        for sq in dag.subqs.values():
            for d in sq.deps:
                assert pos[d] < pos[sq.sq_id]

    def test_stats_positive(self, bm, q):
        dag = partition_subqs(build_query(bm, q, sf=1.0))
        for i in dag.subqs:
            for true in (True, False):
                assert dag.input_bytes(i, true=true) > 0
                assert dag.output_rows(i, true=true) > 0
            assert dag.skew(i) >= 0


def test_tpch_q3_five_plus_subqs():
    """Paper Fig. 1(b): TPCH-Q3's core is 5 subQs (3 scans + 2 joins); our
    template adds the agg/sort tail stages."""
    dag = partition_subqs(build_query("tpch", "q3", sf=1.0))
    kinds = [s.kind for s in dag.subqs.values()]
    assert kinds.count("scan") == 3
    joins = [s for s in dag.subqs.values() if s.boundary_type == "join"]
    assert len(joins) == 2


def test_tpch_q9_shape():
    """Paper Fig. 3(b): Q9 has 6 scans and 5 joins."""
    plan = build_query("tpch", "q9", sf=1.0)
    dag = partition_subqs(plan)
    assert sum(1 for s in dag.subqs.values() if s.kind == "scan") == 6
    assert n_joins(plan) == 5


def test_pipeline_ops_stay_in_stage():
    b = PlanBuilder("tpch", "pipe", sf=1.0, seed=0)
    s = b.scan("orders")
    f = b.filter(s, 0.5)
    p = b.project(f, 0.5)
    plan = b.build(p)
    dag = partition_subqs(plan)
    assert dag.n_subqs() == 1
    assert dag.subqs[0].root_op == p


def test_join_starts_new_stage_with_build_probe():
    b = PlanBuilder("tpch", "jbp", sf=1.0, seed=0)
    big = b.scan("lineitem")
    small = b.scan("nation")
    j = b.join(big, small, 1.0)
    dag = partition_subqs(b.build(j))
    sq = next(s for s in dag.subqs.values() if s.boundary_type == "join")
    # build side must be the smaller (estimated) input
    assert dag.subqs[sq.join_build_dep].table == "nation"
    assert dag.subqs[sq.join_probe_dep].table == "lineitem"
    assert set(sq.deps) == {sq.join_build_dep, sq.join_probe_dep}


def test_shuffle_input_is_deps_output():
    dag = partition_subqs(build_query("tpch", "q3", sf=1.0))
    for sq in dag.subqs.values():
        if sq.kind == "shuffle":
            exp = sum(dag.output_bytes(d, true=True) for d in sq.deps)
            assert dag.input_bytes(sq.sq_id, true=True) == pytest.approx(exp)


def test_scan_input_is_table_bytes():
    dag = partition_subqs(build_query("tpch", "q1", sf=1.0))
    scan = next(s for s in dag.subqs.values() if s.kind == "scan")
    op = dag.op(scan.op_ids[0])
    assert dag.input_bytes(scan.sq_id, true=True) == op.true_bytes


def test_scan_skew_small():
    dag = partition_subqs(build_query("tpch", "q1", sf=1.0))
    scan = next(s for s in dag.subqs.values() if s.kind == "scan")
    assert dag.skew(scan.sq_id) <= 0.1
