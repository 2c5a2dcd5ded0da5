"""Graph Transformer Network embedder (numpy forward pass).

Implements the paper's GTN embedder [6, 56]: multi-head self-attention
over the operator DAG with an additive adjacency bias and Laplacian
positional encodings, followed by a residual feed-forward block, mean-
pooled into a fixed-size plan embedding.

Weights are fixed and seeded (random-features regime): the downstream MLP
regressor is the trained component, matching the compute budget available
offline (see DESIGN.md).

The forward pass is batched: each layer computes Q, K and V of all heads
in one product with a fused weight, and attends with one stacked
``(…, heads, n, n)`` matmul. Any node-feature matrices over one graph
shape (node count and edges) stack on the leading views axis and embed in
one call: every same-shape stage of a plan under one statistics view
(``predictor.StageFeatures.of_stages``). The
positional encoding, projected by ``w_pe``, and the attention bias depend
on the shape alone. The embedder memoizes them per shape as read-only
arrays (``SHAPE_MEMO_SIZE`` shapes, least recently used out first), so a
shape it has seen skips the adjacency, the Laplacian ``eigh`` and the
projection.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

EMB_DIM = 32
# graph shapes whose positional encoding and attention bias an embedder
# keeps: the stages and whole plans of the 52 benchmark queries in all 4
# trace variants have 41 shapes
SHAPE_MEMO_SIZE = 256


def adjacency(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix of an ``n``-node graph."""
    A = np.zeros((n, n))
    if edges:
        i, j = np.array(edges).T
        A[i, j] = A[j, i] = 1.0
    return A


class GTNEmbedder:
    """Fixed-weight graph transformer producing ``EMB_DIM`` plan embeddings."""

    def __init__(self, d_in: int, *, d_model: int = EMB_DIM, n_layers: int = 2,
                 n_heads: int = 4, pe_dim: int = 4, seed: int = 7):
        rng = np.random.default_rng(seed)
        self.d_model, self.n_layers, self.n_heads, self.pe_dim = d_model, n_layers, n_heads, pe_dim
        s = 1.0 / np.sqrt(d_model)
        self.w_in = rng.normal(0, 1.0 / np.sqrt(d_in), (d_in, d_model))
        self.w_pe = rng.normal(0, 0.5, (pe_dim, d_model))
        self.layers = []
        dh = d_model // n_heads
        for _ in range(n_layers):
            # per-head (n_heads, d_model, dh) Q, K, V weights, drawn in that
            # order, fused into columns [Q heads | K heads | V heads]
            wq, wk, wv = (rng.normal(0, s, (n_heads, d_model, dh)) for _ in range(3))
            self.layers.append({
                "wqkv": np.concatenate(
                    [w.transpose(1, 0, 2).reshape(d_model, d_model) for w in (wq, wk, wv)],
                    axis=1),
                "wo": rng.normal(0, s, (d_model, d_model)),
                "w1": rng.normal(0, s, (d_model, 2 * d_model)),
                "w2": rng.normal(0, 1.0 / np.sqrt(2 * d_model), (2 * d_model, d_model)),
            })
        self._shape_parts = lru_cache(maxsize=SHAPE_MEMO_SIZE)(self._graph_parts)

    def _laplacian_pe(self, A: np.ndarray) -> np.ndarray:
        """Sign-canonical eigenvectors 2…pe_dim+1 of the normalized
        Laplacian of adjacency ``A`` (zero-padded for small graphs)."""
        n = len(A)
        d = A.sum(axis=1)
        dinv = np.where(d > 0, 1.0 / np.sqrt(np.maximum(d, 1e-9)), 0.0)
        L = np.eye(n) - dinv[:, None] * A * dinv[None, :]
        vecs = np.linalg.eigh(L)[1][:, 1:1 + self.pe_dim]
        pe = np.zeros((n, self.pe_dim))
        pe[:, :vecs.shape[1]] = vecs
        # sign-canonicalize each eigenvector (eigh sign is arbitrary): its
        # largest-magnitude entry is positive
        signs = np.sign(pe[np.abs(pe).argmax(axis=0), np.arange(self.pe_dim)])
        return pe * np.where(signs == 0, 1.0, signs)

    def _graph_parts(self, n: int, edges: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The parts of a forward fixed by the graph's shape: the projected
        positional encoding (n, d_model) and the additive attention bias
        (n, n). Read-only, because ``_shape_parts`` shares them."""
        A = adjacency(n, edges)
        pe = self._laplacian_pe(A) @ self.w_pe
        bias = np.where((A > 0) | np.eye(n, dtype=bool), 0.0, -4.0)
        pe.flags.writeable = bias.flags.writeable = False
        return pe, bias

    def embed(self, X: np.ndarray, edges: list[tuple[int, int]]) -> np.ndarray:
        """Embed one plan graph: node features ``X`` of shape (n, d_in), or
        (views, n, d_in) for several views over the same ``edges``, to an
        (EMB_DIM,) or (views, EMB_DIM) embedding."""
        views, n = len(X) if X.ndim == 3 else 1, X.shape[-2]
        nh, dh = self.n_heads, self.d_model // self.n_heads
        pe, bias = self._shape_parts(n, tuple(map(tuple, edges)))
        H = X.reshape(views, n, -1) @ self.w_in + pe
        for layer in self.layers:
            # (3, views, heads, n, dh): Q, K and V of every head
            q, k, v = (H @ layer["wqkv"]).reshape(views, n, 3, nh, dh).transpose(2, 0, 3, 1, 4)
            att = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh) + bias
            att = att - att.max(axis=-1, keepdims=True)
            w = np.exp(att)
            w /= w.sum(axis=-1, keepdims=True)
            H = H + (w @ v).transpose(0, 2, 1, 3).reshape(views, n, self.d_model) @ layer["wo"]
            H = H / (np.sqrt((H * H).sum(axis=-1, keepdims=True)) / np.sqrt(self.d_model) + 1e-6)
            H = H + np.maximum(H @ layer["w1"], 0.0) @ layer["w2"]
        emb = H.sum(axis=1) / n
        return emb[0] if X.ndim == 2 else emb
