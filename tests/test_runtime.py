"""Unit tests for the runtime optimizer and θp/θs aggregation (§5.2, §C.2)."""
import numpy as np
import pytest

from repro.core.plan import partition_subqs
from repro.core.workloads import benchmark_queries, build_query
from repro.model.features import local_edges
from repro.model.gtn import GTNEmbedder
from repro.model.mlp import MLPRegressor
from repro.model.predictor import QS_DIM, QS_FIXED_COLS, ModelSuite, TargetModels
from repro.moo.hmooc import QueryConfig
from repro.params import GB, MB, KNOB_BY_ID, P_IDS, S_IDS, default_conf, split_conf
from repro.runtime import optimizer as R
from repro.runtime.optimizer import OnlineOptimizer
from repro.simspark.costmodel import BHJ, SMJ
from repro.simspark.executor import execute
from repro.tuner import aggregate_theta


@pytest.fixture(scope="module")
def dag():
    return partition_subqs(build_query("tpch", "q3", sf=10.0))


def _qc(dag, s4_values):
    """A fine-grained config whose join subQs carry the given s4 values."""
    theta_c, theta_p, theta_s = split_conf(default_conf())
    qc = QueryConfig(theta_c=dict(theta_c))
    joins = [i for i, s in dag.subqs.items() if s.boundary_type == "join"]
    it = iter(s4_values)
    for sq in dag.subqs:
        tp = dict(theta_p)
        if sq in joins:
            tp["s4"] = next(it)
        qc.theta_p[sq] = tp
        qc.theta_s[sq] = dict(theta_s)
    return qc


def test_aggregate_min_threshold_capped_at_default(dag):
    # both joins want huge thresholds -> min is still huge, no cap effect
    qc = _qc(dag, [4 * GB, 2 * GB])
    tp, ts = aggregate_theta(qc, dag)
    assert tp["s4"] == pytest.approx(2 * GB)
    # one join wants a tiny threshold -> capped at the 10MB Spark default
    qc = _qc(dag, [4 * GB, 1.0])
    tp, _ = aggregate_theta(qc, dag)
    assert tp["s4"] == pytest.approx(KNOB_BY_ID["s4"].default)


def test_aggregate_geomean_for_other_knobs(dag):
    qc = _qc(dag, [10 * MB, 10 * MB])
    for sq in qc.theta_p:
        qc.theta_p[sq]["s5"] = 100.0
    qc.theta_p[list(qc.theta_p)[0]]["s5"] = 400.0
    tp, _ = aggregate_theta(qc, dag)
    n = len(qc.theta_p)
    expect = np.exp((np.log(400) + (n - 1) * np.log(100)) / n)
    assert tp["s5"] == pytest.approx(round(expect))


def test_aggregate_covers_all_knobs(dag):
    qc = _qc(dag, [10 * MB, 10 * MB])
    tp, ts = aggregate_theta(qc, dag)
    assert set(tp) == set(P_IDS)
    assert set(ts) == set(S_IDS)
    for kid, v in {**tp, **ts}.items():
        k = KNOB_BY_ID[kid]
        assert k.lo <= v <= k.hi


@pytest.fixture(scope="module")
def opt(dag, fake_suite):
    theta_c, _, _ = split_conf(default_conf())
    return OnlineOptimizer(dag, fake_suite, theta_c, (0.9, 0.1))


def test_one_embed_per_non_scan_stage_shape(monkeypatch, fake_suite):
    """Construction embeds the true-statistics views of a query's non-scan
    stages with one GTN forward per stage shape (op count and edges)."""
    calls = []
    embed = GTNEmbedder.embed

    def spy(self, X, edges):
        calls.append(X.shape)
        return embed(self, X, edges)

    monkeypatch.setattr(GTNEmbedder, "embed", spy)
    theta_c, _, _ = split_conf(default_conf())
    two_shapes = 0
    for bm in ("tpch", "tpcds"):
        for q in benchmark_queries(bm):
            dag = partition_subqs(build_query(bm, q))
            shuffles = [s for s in dag.subqs.values() if s.kind != "scan"]
            shapes = {(len(s.op_ids), tuple(local_edges(dag, s.op_ids))) for s in shuffles}
            calls.clear()
            OnlineOptimizer(dag, fake_suite, theta_c, (0.9, 0.1))
            assert len(calls) == len(shapes), (bm, q)
            assert sum(shape[0] for shape in calls) == len(shuffles), (bm, q)
            two_shapes += len(shapes) == 2
    assert two_shapes > 0


def test_one_fold_per_qs_model(monkeypatch, fake_suite):
    """Construction folds the fixed QS columns of every non-scan stage into
    the suite's float32 QS models with one ``fold`` product per model, and
    the suite casts those models once, not once per construction."""
    calls = []
    fold, astype = MLPRegressor.fold, MLPRegressor.astype

    def fold_spy(self, cols, values):
        calls.append((self, np.shape(values)))
        return fold(self, cols, values)

    def astype_spy(self, dtype):
        calls.append(("astype", dtype))
        return astype(self, dtype)

    monkeypatch.setattr(MLPRegressor, "fold", fold_spy)
    monkeypatch.setattr(MLPRegressor, "astype", astype_spy)
    qs = TargetModels(MLPRegressor(QS_DIM, seed=1), MLPRegressor(QS_DIM, seed=2))
    suite = ModelSuite(fake_suite.subq, qs, fake_suite.lqp)
    theta_c, _, _ = split_conf(default_conf())
    casts = 0
    for bm in ("tpch", "tpcds"):
        for q in benchmark_queries(bm):
            dag = partition_subqs(build_query(bm, q))
            n = sum(s.kind != "scan" for s in dag.subqs.values())
            calls.clear()
            OnlineOptimizer(dag, suite, theta_c, (0.9, 0.1))
            casts += calls.count(("astype", np.float32))
            folds = [c for c in calls if c[0] != "astype"]
            shape = (n, len(QS_FIXED_COLS))
            assert folds == [(qs.float32.latency, shape), (qs.float32.io, shape)], (bm, q)
    assert casts == 2
    assert qs.float32.latency.W[0].dtype == qs.float32.io.W[0].dtype == np.float32


def test_pruning_non_join_collapse(dag, opt):
    _, theta_p, _ = split_conf(default_conf())
    scan_sq = next(i for i, s in dag.subqs.items() if s.kind == "scan")
    assert opt.on_collapsed_lqp(dag, scan_sq, {}, theta_p) is None
    agg_sq = next(i for i, s in dag.subqs.items() if s.boundary_type == "agg")
    assert opt.on_collapsed_lqp(dag, agg_sq, {}, theta_p) is None


def test_join_request_served_with_stats(dag, opt):
    _, theta_p, _ = split_conf(default_conf())
    join_sq = next(i for i, s in dag.subqs.items() if s.boundary_type == "join")
    known = {d: {"rows": 1, "bytes": 1} for d in dag.subqs[join_sq].deps}
    out = opt.on_collapsed_lqp(dag, join_sq, known, theta_p)
    assert out is not None
    assert set(out) == set(P_IDS)
    assert opt.time_spent_s > 0


def test_single_algorithm_lqp_request_is_not_scored(monkeypatch, dag, fake_suite):
    """A θp request whose five candidates all induce one join algorithm can
    only keep θp: it returns it without a model call, and its time still
    counts; the same request with two algorithms is scored."""
    theta_c, theta_p, _ = split_conf(default_conf())
    join_sq = next(i for i, s in dag.subqs.items() if s.boundary_type == "join")
    calls = []
    objectives = TargetModels.objectives
    monkeypatch.setattr(TargetModels, "objectives",
                        lambda self, *a, **kw: calls.append(a) or objectives(self, *a, **kw))
    monkeypatch.setattr(R, "choose_join_algorithm", lambda *a, **kw: SMJ)
    opt = OnlineOptimizer(dag, fake_suite, theta_c, (0.9, 0.1))
    out = opt.on_collapsed_lqp(dag, join_sq, {}, theta_p)
    assert out == theta_p and out is not theta_p
    assert calls == []
    assert opt.time_spent_s > 0
    algs = iter([SMJ] + [BHJ] * 4)
    monkeypatch.setattr(R, "choose_join_algorithm", lambda *a, **kw: next(algs))
    opt.on_collapsed_lqp(dag, join_sq, {}, theta_p)
    assert len(calls) == 1


def test_pruning_scan_qs(dag, opt):
    scan_sq = next(i for i, s in dag.subqs.items() if s.kind == "scan")
    assert opt.on_query_stage(dag, scan_sq, 10 * GB, default_conf()) is None


def test_pruning_small_input_qs(dag, opt):
    shuffle_sq = next(i for i, s in dag.subqs.items() if s.kind == "shuffle")
    conf = default_conf()
    assert opt.on_query_stage(dag, shuffle_sq, conf["s1"] * 0.5, conf) is None


def test_qs_request_served(dag, opt):
    shuffle_sq = next(i for i, s in dag.subqs.items() if s.kind == "shuffle")
    conf = default_conf()
    out = opt.on_query_stage(dag, shuffle_sq, 10 * GB, conf)
    assert out is not None
    assert set(out) == {"s10", "s11"}
    for kid, v in out.items():
        k = KNOB_BY_ID[kid]
        assert k.lo <= v <= k.hi


def test_end_to_end_pruning_rate(dag, fake_suite):
    """The pruning rules must drop a large share of opportunities
    (paper: 86% TPC-H / 92% TPC-DS)."""
    theta_c, _, _ = split_conf(default_conf())
    opt = OnlineOptimizer(dag, fake_suite, theta_c, (0.9, 0.1))
    r = execute(dag, default_conf(), runtime_opt=opt)
    opps = r.lqp_request_opportunities + r.qs_request_opportunities
    reqs = r.lqp_requests + r.qs_requests
    assert reqs < opps
    assert reqs >= 1


def test_threshold_targeted_candidates(dag, fake_suite):
    """The candidate set must include a θp that enables BHJ for the join
    (s4 above the observed build size) when the build fits memory."""
    theta_c, theta_p, _ = split_conf(default_conf())
    theta_c = dict(theta_c, k2=32 * GB, k8=0.9)
    opt = OnlineOptimizer(dag, fake_suite, theta_c, (0.9, 0.1))
    join_sq = next(i for i, s in dag.subqs.items() if s.boundary_type == "join")
    known = {d: {"rows": 1, "bytes": 1} for d in dag.subqs[join_sq].deps}
    out = opt.on_collapsed_lqp(dag, join_sq, known, theta_p)
    assert out is not None  # either keeps θp or picks a targeted variant
