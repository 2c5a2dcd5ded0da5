"""Unit tests for feature extraction."""
import numpy as np
import pytest

from repro.core.plan import partition_subqs
from repro.core.workloads import build_query
from repro.model import features as FT
from repro.params import FULL_IDS, MB, default_conf


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


def test_op_feature_matrix_two_views_stack_single_views(dag):
    for sq in dag.subqs.values():
        both = FT.op_feature_matrix(dag, sq.op_ids, true_stats=(False, True))
        assert both.shape == (2, len(sq.op_ids), FT.OP_FEAT_DIM)
        assert np.array_equal(both, np.stack([
            FT.op_feature_matrix(dag, sq.op_ids, true_stats=False),
            FT.op_feature_matrix(dag, sq.op_ids, true_stats=True)]))


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
    """The model's partitioning hints must equal the cost model's counts."""
    from repro.simspark.costmodel import scan_partitions, shuffle_partitions

    conf = default_conf()
    M = np.array([[conf[i] for i in FULL_IDS]])
    d_scan = FT.derived_partition_features("scan", 10 * 1024**3, M, 0.05)
    p = scan_partitions(10 * 1024**3, conf)
    assert d_scan[0, 0] == pytest.approx(np.log1p(p) / 12.0)
    d_shuf = FT.derived_partition_features("shuffle", 10 * 1024**3, M, 0.4)
    p2, _ = shuffle_partitions(10 * 1024**3, conf, aqe=True, skew=0.4)
    assert d_shuf[0, 0] == pytest.approx(np.log1p(p2) / 12.0)


def test_derived_features_batched():
    conf = default_conf()
    M = np.array([[conf[i] for i in FULL_IDS]] * 5)
    M[:, FULL_IDS.index("s5")] = [16, 64, 256, 1024, 2048]
    M[:, FULL_IDS.index("s1")] = 1 * MB
    d = FT.derived_partition_features("shuffle", 100 * 1024**3, M, 0.0)
    assert d.shape == (5, FT.DERIVED_DIM)
    assert np.all(np.diff(d[:, 0]) >= 0)  # more s5 -> more partitions
