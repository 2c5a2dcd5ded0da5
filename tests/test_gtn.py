"""Unit tests for the GTN plan embedder."""
import numpy as np
import pytest

from repro.core.plan import partition_subqs
from repro.core.workloads import benchmark_queries, build_query
from repro.model.features import OP_FEAT_DIM, local_edges, op_feature_matrix
from repro.model.gtn import (EMB_DIM, N_HEADS, PE_DIM, SEED, SHAPE_MEMO_SIZE, GTNEmbedder,
                              adjacency)


@pytest.fixture(scope="module")
def gtn():
    return GTNEmbedder()


def _chain(n):
    return [(i, i + 1) for i in range(n - 1)]


def head_weight(wqkv: np.ndarray, block: int, h: int, dh: int) -> np.ndarray:
    """Head ``h``'s (EMB_DIM, dh) weight in block 0 (Q), 1 (K) or 2 (V)."""
    d = wqkv.shape[0]
    return wqkv[:, block * d + h * dh:block * d + (h + 1) * dh]


def reference_embed(g: GTNEmbedder, X: np.ndarray, edges) -> np.ndarray:
    """The unbatched forward the kernel must match bit for bit: Python edge
    loops for the positional encoding and the bias, and three matmuls per
    head with per-head weights sliced out of the fused ``wqkv``."""
    n, dh = X.shape[0], EMB_DIM // N_HEADS
    A = np.zeros((n, n))
    for i, j in edges:
        A[i, j] = A[j, i] = 1.0
    deg = A.sum(axis=1)
    dinv = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-9)), 0.0)
    L = np.eye(n) - dinv[:, None] * A * dinv[None, :]
    vals, vecs = np.linalg.eigh(L)
    pe = vecs[:, 1:1 + PE_DIM] if n > 1 else np.zeros((n, PE_DIM))
    if pe.shape[1] < PE_DIM:
        pe = np.pad(pe, ((0, 0), (0, PE_DIM - pe.shape[1])))
    signs = np.where(np.abs(pe).max(axis=0) > 0,
                     np.sign(pe[np.abs(pe).argmax(axis=0), range(pe.shape[1])]), 1.0)
    pe = pe * np.where(signs == 0, 1.0, signs)
    H = X @ g.w_in + pe @ g.w_pe
    bias = np.full((n, n), -4.0)
    np.fill_diagonal(bias, 0.0)
    for i, j in edges:
        bias[i, j] = bias[j, i] = 0.0
    for layer in g.layers:
        heads = []
        for h in range(N_HEADS):
            wq, wk, wv = (np.ascontiguousarray(head_weight(layer["wqkv"], b, h, dh))
                          for b in range(3))
            q, k, v = H @ wq, H @ wk, H @ wv
            att = q @ k.T / np.sqrt(q.shape[1]) + bias
            att = att - att.max(axis=1, keepdims=True)
            w = np.exp(att)
            w /= w.sum(axis=1, keepdims=True)
            heads.append(w @ v)
        H = H + np.concatenate(heads, axis=1) @ layer["wo"]
        H = H / (np.linalg.norm(H, axis=1, keepdims=True) / np.sqrt(EMB_DIM) + 1e-6)
        H = H + np.maximum(H @ layer["w1"], 0.0) @ layer["w2"]
    return H.mean(axis=0)


def test_fused_weights_follow_the_draw_order(gtn):
    """Each layer draws per-head Q, K and V weights, then wo, w1 and w2,
    from one seeded stream; ``wqkv`` holds head h of Q, K, V in blocks."""
    rng = np.random.default_rng(SEED)
    d, dh = EMB_DIM, EMB_DIM // N_HEADS
    s = 1.0 / np.sqrt(d)
    assert np.array_equal(gtn.w_in, rng.normal(0, 1.0 / np.sqrt(OP_FEAT_DIM), (OP_FEAT_DIM, d)))
    assert np.array_equal(gtn.w_pe, rng.normal(0, 0.5, (PE_DIM, d)))
    for layer in gtn.layers:
        assert layer["wqkv"].shape == (d, 3 * d)
        for block in range(3):
            w = rng.normal(0, s, (N_HEADS, d, dh))
            for h in range(N_HEADS):
                assert np.array_equal(head_weight(layer["wqkv"], block, h, dh), w[h])
        assert np.array_equal(layer["wo"], rng.normal(0, s, (d, d)))
        assert np.array_equal(layer["w1"], rng.normal(0, s, (d, 2 * d)))
        assert np.array_equal(layer["w2"], rng.normal(0, 1.0 / np.sqrt(2 * d), (2 * d, d)))


def _benchmark_graphs():
    """(node features in both statistics views, edges) of every stage and
    every whole plan of the 52 benchmark queries."""
    for bm in ("tpch", "tpcds"):
        for q in benchmark_queries(bm):
            dag = partition_subqs(build_query(bm, q))
            for ids in [sq.op_ids for sq in dag.subqs.values()] + [dag.plan.topological()]:
                yield (f"{bm}/{q}/{len(ids)}",
                       np.stack([op_feature_matrix(dag, ids, true_stats=t)
                                 for t in (False, True)]),
                       local_edges(dag, ids))


def test_kernel_matches_reference_on_every_benchmark_graph(gtn):
    n_graphs = 0
    for name, views, edges in _benchmark_graphs():
        both = gtn.embed(views, edges)
        for v, X in enumerate(views):
            ref = reference_embed(gtn, X, edges)
            assert np.array_equal(gtn.embed(X, edges), ref), (name, v)
            assert np.array_equal(both[v], ref), (name, v)
        n_graphs += 1
    assert n_graphs > 500


def test_views_batch_equals_separate_calls(gtn):
    rng = np.random.default_rng(6)
    X = rng.random((2, 7, OP_FEAT_DIM))
    edges = [(0, 3), (1, 3), (2, 4), (3, 5), (4, 5), (5, 6)]
    both = gtn.embed(X, edges)
    assert both.shape == (2, EMB_DIM)
    assert np.array_equal(both[0], gtn.embed(X[0], edges))
    assert np.array_equal(both[1], gtn.embed(X[1], edges))


_DEGENERATE = [(1, []), (4, [])]


@pytest.mark.parametrize("n, edges", _DEGENERATE, ids=["single-node", "edgeless"])
def test_kernel_matches_reference_on_degenerate_graphs(gtn, n, edges):
    X = np.random.default_rng(n).random((2, n, OP_FEAT_DIM))
    both = gtn.embed(X, edges)
    for v in range(2):
        ref = reference_embed(gtn, X[v], edges)
        assert np.array_equal(gtn.embed(X[v], edges), ref)
        assert np.array_equal(both[v], ref)


def test_warm_shape_memo_gives_cold_bytes():
    """An embed whose shape parts come from the memo gives the bytes of one
    that computes them, on every benchmark graph and the degenerate ones."""
    gtn = GTNEmbedder()
    rng = np.random.default_rng(8)
    graphs = list(_benchmark_graphs())
    graphs += [(f"degenerate/{n}", rng.random((2, n, OP_FEAT_DIM)), edges)
               for n, edges in _DEGENERATE]
    for name, views, edges in graphs:
        gtn._shape_parts.cache_clear()
        cold = gtn.embed(views, edges)
        assert gtn._shape_parts.cache_info().misses == 1, name
        warm = gtn.embed(views, edges)
        assert gtn._shape_parts.cache_info().hits == 1, name
        assert cold.tobytes() == warm.tobytes(), name


def test_shape_memo_is_bounded_and_read_only(gtn):
    assert gtn._shape_parts.cache_info().maxsize == SHAPE_MEMO_SIZE
    gtn.embed(np.zeros((3, OP_FEAT_DIM)), _chain(3))
    for part in gtn._shape_parts(3, tuple(_chain(3))):
        with pytest.raises(ValueError):
            part[0, 0] = 1.0


def test_embedding_shape(gtn):
    X = np.random.default_rng(0).random((5, OP_FEAT_DIM))
    e = gtn.embed(X, _chain(5))
    assert e.shape == (EMB_DIM,)
    assert np.all(np.isfinite(e))


def test_embedding_deterministic():
    X = np.random.default_rng(1).random((4, OP_FEAT_DIM))
    a = GTNEmbedder().embed(X, _chain(4))
    b = GTNEmbedder().embed(X, _chain(4))
    np.testing.assert_allclose(a, b)


def test_sensitive_to_features(gtn):
    rng = np.random.default_rng(2)
    X1 = rng.random((4, OP_FEAT_DIM))
    X2 = X1.copy()
    X2[0] += 1.0
    e1 = gtn.embed(X1, _chain(4))
    e2 = gtn.embed(X2, _chain(4))
    assert not np.allclose(e1, e2)


def test_sensitive_to_structure(gtn):
    X = np.random.default_rng(3).random((4, OP_FEAT_DIM))
    e_chain = gtn.embed(X, _chain(4))
    e_star = gtn.embed(X, [(0, 3), (1, 3), (2, 3)])
    assert not np.allclose(e_chain, e_star)


def test_single_node(gtn):
    X = np.random.default_rng(4).random((1, OP_FEAT_DIM))
    e = gtn.embed(X, [])
    assert np.all(np.isfinite(e))


def test_laplacian_pe_orthogonal(gtn):
    pe = gtn._laplacian_pe(adjacency(6, _chain(6)))
    assert pe.shape == (6, PE_DIM)
    # eigenvectors of a symmetric matrix are orthogonal
    G = pe.T @ pe
    off = G - np.diag(np.diag(G))
    assert np.abs(off).max() < 1e-8


def test_laplacian_pe_pads_small_graphs(gtn):
    pe = gtn._laplacian_pe(adjacency(2, [(0, 1)]))
    assert pe.shape == (2, PE_DIM)
    assert np.all(np.isfinite(pe))


def test_permutation_changes_embedding_via_pe(gtn):
    """Node order matters through positional encoding/topology — two
    different graphs over the same multiset of features differ."""
    rng = np.random.default_rng(5)
    X = rng.random((5, OP_FEAT_DIM))
    e1 = gtn.embed(X, _chain(5))
    e2 = gtn.embed(X[::-1].copy(), _chain(5))
    assert not np.allclose(e1, e2)
