"""Unit tests for the predictor suite and feature-layout constants."""
from dataclasses import replace

import numpy as np
import pytest

from repro.core.plan import SubQDag, partition_subqs
from repro.core.workloads import benchmark_queries, build_query
from repro.model import predictor as P
from repro.model.features import (
    DERIVED_DIM, JOIN_ALGS, alpha_features, beta_features, local_edges, op_feature_matrix,
)
from repro.model.gtn import EMB_DIM
from repro.model.mlp import MLPRegressor
from repro.params import default_conf
from repro.simspark.costmodel import DEFAULT_COSTS
from repro.simspark.executor import execute


@pytest.fixture(scope="module")
def dag():
    return partition_subqs(build_query("tpch", "q3", sf=1.0))


def test_dims_consistent(dag):
    conf = default_conf()
    U, M = P.encode_confs([conf], P.FULL_IDS)
    U_qs, _ = P.encode_confs([conf], P.QS_IDS)
    sq = min(dag.subqs)
    row = P.StageFeatures.of_stages(dag, [sq], true_stats=False)[sq].subq_rows(U, M)
    assert row.shape == (1, P.SUBQ_DIM)

    qs_row = P.StageFeatures.of_stages(dag, [sq], true_stats=True)[sq].qs_rows(
        ["SMJ"], U_qs, M, P.IDLE_GAMMA)
    assert qs_row.shape == (1, P.QS_DIM)

    r = execute(dag, conf)
    lqp_row = P.lqp_rows(dag, P.plan_embedding(dag), U, r.stages.values())
    assert lqp_row.shape == (1, P.LQP_DIM)


def test_batched_rows_tile_context(dag):
    conf = default_conf()
    U, M = P.encode_confs([conf] * 4, P.FULL_IDS)
    U_qs, _ = P.encode_confs([conf] * 4, P.QS_IDS)
    sq = max(dag.subqs)
    rows = P.StageFeatures.of_stages(dag, [sq], true_stats=False)[sq].subq_rows(U, M)
    assert rows.shape == (4, P.SUBQ_DIM)
    assert np.allclose(rows[0], rows[3])
    # one join algorithm per QS row; everything else is shared context
    algs = ["SMJ", "BHJ", "SMJ", ""]
    qs = P.StageFeatures.of_stages(dag, [sq], true_stats=True)[sq].qs_rows(
        algs, U_qs, M, P.IDLE_GAMMA)
    hot = qs[:, EMB_DIM:EMB_DIM + len(JOIN_ALGS)]
    assert [JOIN_ALGS[i] for i in hot.argmax(axis=1)] == algs
    assert np.array_equal(qs[0], qs[2])


def test_embed_views_differ(dag):
    sq = max(dag.subqs)  # deep stage: est != true
    e1 = P.StageFeatures.of_stages(dag, [sq], true_stats=True)[sq].emb
    e2 = P.StageFeatures.of_stages(dag, [sq], true_stats=False)[sq].emb
    assert not np.allclose(e1, e2)


def per_stage_view(dag, sq, true_stats):
    """The oracle ``StageFeatures.of_stages`` must match byte for byte: one
    GTN forward of the stage's own (n, d) node features, and α, β straight
    from the DAG's statistics."""
    ops = dag.subqs[sq].op_ids
    emb = P.shared_gtn().embed(op_feature_matrix(dag, ops, true_stats=true_stats),
                               local_edges(dag, ops))
    alpha = alpha_features(dag.input_rows(sq, true=true_stats),
                           dag.input_bytes(sq, true=true_stats),
                           dag.output_rows(sq, true=true_stats),
                           dag.output_bytes(sq, true=true_stats))
    return emb, alpha, beta_features(dag.skew(sq))


def _two_op_stages(dag):
    """``dag``'s shuffle stages regrouped to two operators each: some hold
    a child and its parent (one local edge), some two scans (none). So one
    op count comes with two edge sets, which the benchmark plans never
    show (their stages have one op, or two with one edge)."""
    ops = dag.plan.ops
    linked = [[c, o] for o in sorted(ops) for c in ops[o].children]
    scans = sorted(o for o in ops if ops[o].op_type == "scan")
    unlinked = [[a, b] for a, b in zip(scans, scans[1:])]
    groups = [g for pair in zip(linked, unlinked) for g in pair]
    shuffles = [i for i, sq in dag.subqs.items() if sq.kind == "shuffle"]
    assert len(shuffles) >= 4 and len(groups) >= len(shuffles)
    return SubQDag(dag.plan, {i: replace(sq, op_ids=groups[shuffles.index(i)])
                              if i in shuffles else sq
                              for i, sq in dag.subqs.items()})


def _oracle_dags():
    for bm in ("tpch", "tpcds"):
        for q in benchmark_queries(bm):
            yield f"{bm}/{q}", partition_subqs(build_query(bm, q))
    yield "tpch/q3 two-op stages", _two_op_stages(partition_subqs(build_query("tpch", "q3")))


def test_stage_builder_matches_the_per_stage_forward():
    """One GTN forward per stage shape gives every stage, under both
    statistics views, the bytes of its own per-stage forward, keyed in the
    order asked for."""
    n_views = 0
    for name, dag in _oracle_dags():
        ids = sorted(dag.subqs, reverse=True)
        for true_stats in (False, True):
            views = P.StageFeatures.of_stages(dag, ids, true_stats=true_stats)
            assert list(views) == ids
            for sq, st in views.items():
                for field, got, want in zip(("emb", "alpha", "beta"),
                                            (st.emb, st.alpha, st.beta),
                                            per_stage_view(dag, sq, true_stats)):
                    assert got.tobytes() == want.tobytes(), (name, sq, true_stats, field)
                n_views += 1
    assert n_views > 1082


def test_runtime_request_bytes_override_stage_stats(dag):
    conf = default_conf()
    U_qs, M = P.encode_confs([conf], P.QS_IDS)
    sq = max(dag.subqs)
    st = P.StageFeatures.of_stages(dag, [sq], true_stats=True)[sq]
    same = st.qs_rows([""], U_qs, M, P.IDLE_GAMMA, input_bytes=st.input_bytes)
    assert np.array_equal(same, st.qs_rows([""], U_qs, M, P.IDLE_GAMMA))
    bigger = st.qs_rows([""], U_qs, M, P.IDLE_GAMMA, input_bytes=100 * st.input_bytes)
    assert not np.array_equal(same[:, -DERIVED_DIM:], bigger[:, -DERIVED_DIM:])
    assert np.array_equal(same[:, :-DERIVED_DIM], bigger[:, :-DERIVED_DIM])


def test_objectives_clamp_latency_only_where_asked():
    class Const:
        def __init__(self, v):
            self.v = v

        def predict(self, X):
            return np.full(len(X), self.v)

    tm = P.TargetModels(Const(-0.5), Const(2048.0))
    X = np.zeros((3, 4))
    clamped = tm.objectives(X, 2.0, clamp_latency=True)
    raw = tm.objectives(X, 2.0, clamp_latency=False)
    assert np.all(clamped[:, 0] == 1e-4) and np.all(raw[:, 0] == -0.5)
    # the cost always prices the clamped latency plus 2 GB of IO
    np.testing.assert_array_equal(clamped[:, 1], raw[:, 1])
    np.testing.assert_allclose(raw[:, 1], 1e-4 * 2.0 + 2.0 * DEFAULT_COSTS.price_io_gb)


def test_shared_gtn_singleton():
    assert P.shared_gtn() is P.shared_gtn()


def test_eval_metrics_perfect():
    y = np.array([1.0, 2.0, 3.0])
    m = P.eval_metrics(y, y)
    assert m["wmape"] == 0.0 and m["p50"] == 0.0 and m["p90"] == 0.0
    assert m["corr"] == pytest.approx(1.0)


def test_eval_metrics_known_case():
    y = np.array([100.0, 100.0])
    pred = np.array([110.0, 90.0])
    m = P.eval_metrics(y, pred)
    assert m["wmape"] == pytest.approx(0.10)
    assert m["p50"] == pytest.approx(0.10)


def test_inference_throughput_positive():
    m = MLPRegressor(4, hidden=(8,), seed=0)
    m.fit(np.random.default_rng(0).random((64, 4)), np.ones(64), epochs=1)
    x = np.random.default_rng(1).random((1000, 4))
    assert P.inference_throughput(m, x, repeats=2) > 1000


def test_suite_save_load(tmp_path):
    rng = np.random.default_rng(0)

    def mk():
        m = MLPRegressor(3, hidden=(4,), seed=1)
        m.fit(rng.random((32, 3)), np.ones(32), epochs=1)
        return m

    suite = P.ModelSuite(
        subq=P.TargetModels(mk(), mk()),
        qs=P.TargetModels(mk(), mk()),
        lqp=P.TargetModels(mk(), mk()))
    d = str(tmp_path / "models")
    assert not P.ModelSuite.exists(d)
    suite.save(d)
    assert P.ModelSuite.exists(d)
    loaded = P.ModelSuite.load(d)
    X = rng.random((5, 3))
    np.testing.assert_allclose(suite.qs.latency.predict(X),
                               loaded.qs.latency.predict(X))


def test_target_models_predict_pair():
    rng = np.random.default_rng(0)
    m1 = MLPRegressor(3, hidden=(4,), seed=1)
    m1.fit(rng.random((32, 3)), np.ones(32), epochs=1)
    tm = P.TargetModels(m1, m1)
    lat, io = tm.predict(rng.random((7, 3)))
    assert lat.shape == (7,) and io.shape == (7,)
