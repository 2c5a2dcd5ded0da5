"""Unit tests for feature extraction."""
import itertools

import numpy as np
import pytest

from repro.core.plan import partition_subqs
from repro.core.workloads import build_query
from repro.model import features as FT
from repro.params import FULL_IDS, GB, MB, default_conf, lhs_sample
from repro.simspark import costmodel as cm


@pytest.fixture(scope="module")
def dag():
    return partition_subqs(build_query("tpch", "q3", sf=1.0))


def test_predicate_embedding_deterministic():
    a = FT.predicate_embedding("l_orderkey = o_orderkey")
    b = FT.predicate_embedding("l_orderkey = o_orderkey")
    np.testing.assert_allclose(a, b)
    assert a.shape == (FT.PRED_EMB_DIM,)


def test_predicate_embedding_distinct():
    a = FT.predicate_embedding("l_shipdate > x")
    b = FT.predicate_embedding("c_mktsegment = y")
    assert not np.allclose(a, b)


def test_predicate_embedding_empty():
    np.testing.assert_allclose(FT.predicate_embedding(""), np.zeros(FT.PRED_EMB_DIM))


@pytest.mark.parametrize("text", ["l_orderkey = o_orderkey", ""])
def test_predicate_embedding_is_read_only(text):
    emb = FT.predicate_embedding(text)
    assert emb is FT.predicate_embedding(text)
    with pytest.raises(ValueError):
        emb[0] = 1.0


def test_predicate_embedding_is_token_average():
    ab = FT.predicate_embedding("alpha beta")
    a = FT.predicate_embedding("alpha")
    b = FT.predicate_embedding("beta")
    np.testing.assert_allclose(ab, (a + b) / 2.0)


def test_op_feature_matrix(dag):
    ids = dag.plan.topological()
    X = FT.op_feature_matrix(dag, ids, true_stats=True)
    assert X.shape == (len(ids), FT.OP_FEAT_DIM)
    # one-hot block: exactly one type flag per row
    assert np.all(X[:, :8].sum(axis=1) == 1.0)
    # est vs true views differ (CBO error)
    Xe = FT.op_feature_matrix(dag, ids, true_stats=False)
    assert not np.allclose(X, Xe)


def test_local_edges(dag):
    sq = next(s for s in dag.subqs.values() if s.kind == "shuffle")
    edges = FT.local_edges(dag, sq.op_ids)
    n = len(sq.op_ids)
    for i, j in edges:
        assert 0 <= i < n and 0 <= j < n


def test_alpha_features_monotone():
    a = FT.alpha_features(1e6, 1e9, 1e4, 1e7)
    b = FT.alpha_features(1e8, 1e11, 1e6, 1e9)
    assert np.all(b >= a)
    assert a.shape == (FT.ALPHA_DIM,)


def test_beta_features():
    b = FT.beta_features(0.5)
    assert b.shape == (FT.BETA_DIM,)
    assert b[0] == 0.5 and b[1] == 1.5


def test_gamma_features():
    g = FT.gamma_features(4, 100, 50.0)
    assert g.shape == (FT.GAMMA_DIM,)
    assert np.all(g >= 0)


def test_join_alg_onehot():
    for alg in FT.JOIN_ALGS:
        v = FT.join_alg_onehot(alg)
        assert v.sum() == 1.0
    assert FT.join_alg_onehot("garbage")[0] == 1.0  # falls back to "" slot


def test_derived_features_match_costmodel():
    """The model's task-count hint (column 0) is the task count of the
    simulator's stage under each configuration, scan and shuffle alike.
    At skew 0 no partition is split for skew (the threshold is at least
    twice the mean), so the stage runs exactly the partitioned tasks."""
    confs = lhs_sample(32, FULL_IDS)
    M = np.array([[c[i] for i in FULL_IDS] for c in confs])
    for input_bytes, kind in itertools.product((64 * MB, 10 * GB, 1024 * GB),
                                               ("scan", "shuffle")):
        n_tasks = [cm.stage_cost(kind=kind, op_work=[("agg", input_bytes, 1e8)],
                                 input_bytes=input_bytes, input_rows=1e8,
                                 output_bytes=input_bytes / 10, writes_shuffle=True,
                                 skew=0.0, conf=c).n_tasks for c in confs]
        d = FT.derived_partition_features(kind, input_bytes, FT.partition_knobs(M), 0.0)
        assert np.array_equal(d[:, 0], np.log1p(n_tasks) / 12.0), (input_bytes, kind)


def test_derived_features_batched():
    conf = default_conf()
    M = np.array([[conf[i] for i in FULL_IDS]] * 5)
    M[:, FULL_IDS.index("s5")] = [16, 64, 256, 1024, 2048]
    M[:, FULL_IDS.index("s1")] = 1 * MB
    d = FT.derived_partition_features("shuffle", 100 * 1024**3, FT.partition_knobs(M),
                                      0.0)
    assert d.shape == (5, FT.DERIVED_DIM)
    assert np.all(np.diff(d[:, 0]) >= 0)  # more s5 -> more partitions


@pytest.mark.parametrize("benchmark", ["tpch", "tpcds"])
def test_derived_features_per_stage_arrays_equal_scalar_calls(benchmark):
    """Per-row ``input_bytes``/``skew`` arrays give, bit for bit, the rows
    of one scalar call per stage: every stage of every query, under both
    statistics views, both kinds' formulas and four LHS configurations."""
    from repro.core.workloads import benchmark_queries

    confs = lhs_sample(4, FULL_IDS, seed=5)
    for q in benchmark_queries(benchmark):
        dag = partition_subqs(build_query(benchmark, q, sf=100.0))
        stages = [(dag.input_bytes(i, true=t), dag.skew(i)) for i in dag.subqs
                  for t in (False, True)]
        in_bytes = np.array([b for b, _ in stages])
        skew = np.array([s for _, s in stages])
        for conf in confs:
            row = np.array([[conf[i] for i in FULL_IDS]])
            M = np.repeat(row, len(stages), axis=0)
            for kind in ("scan", "shuffle"):
                batched = FT.derived_partition_features(kind, in_bytes, FT.partition_knobs(M),
                                                       skew)
                one = FT.partition_knobs(row)
                singles = np.vstack([FT.derived_partition_features(kind, b, one, s)
                                     for b, s in stages])
                assert np.array_equal(batched, singles), (q, kind)
