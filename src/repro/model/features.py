"""Feature extraction for the subQ / QS / LQP̄ models (paper §4.3).

Each query operator becomes a composite encoding: one-hot type +
log-cardinalities under one statistics view (the CBO's estimates or the
true counts) + an averaged hashed word embedding of its predicate (the
offline stand-in for word2vec [34]). Non-decision variables:

* ``α`` — input characteristics (log rows/bytes aggregated from leaves);
* ``β`` — partition-size distribution stats (σ/μ, (max−μ)/μ, (max−min)/μ);
* ``γ`` — runtime contention (parallel stages, their tasks and work).

Decision variables are the normalized knob vectors from ``repro.params``.
"""
from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

from repro.core.operators import OP_TYPES
from repro.core.plan import SubQDag
from repro.params import FULL_IDS
from repro.simspark.costmodel import scan_partitions_vec, shuffle_partitions_vec

PRED_EMB_DIM = 8
OP_FEAT_DIM = len(OP_TYPES) + 2 + PRED_EMB_DIM

JOIN_ALGS = ["", "SMJ", "SHJ", "BHJ"]
# predicate texts whose embedding is kept: the 52 benchmark queries carry
# 170 distinct ones over 725 operators
PRED_MEMO_SIZE = 4096


@lru_cache(maxsize=PRED_MEMO_SIZE)
def predicate_embedding(text: str) -> np.ndarray:
    """Average of per-token hashed embeddings — a deterministic, offline
    substitute for pretrained word vectors. Memoized by ``text``; the
    array is shared, so it is read-only."""
    toks = [t for t in text.replace("=", " ").replace(",", " ").split() if t]
    acc = np.zeros(PRED_EMB_DIM)
    for t in toks:
        h = hashlib.blake2b(t.encode(), digest_size=PRED_EMB_DIM).digest()
        acc += (np.frombuffer(h, dtype=np.uint8).astype(np.float64) - 127.5) / 127.5
    emb = acc / len(toks) if toks else acc
    emb.flags.writeable = False
    return emb


def op_feature_matrix(dag: SubQDag, op_ids: list[int], *, true_stats: bool) -> np.ndarray:
    """(n_ops, OP_FEAT_DIM) node-feature matrix for a GTN, with the
    cardinality columns over true or estimated statistics."""
    X = np.zeros((len(op_ids), OP_FEAT_DIM))
    for i, oid in enumerate(op_ids):
        op = dag.op(oid)
        rows, byts = (op.true_rows, op.true_bytes) if true_stats else (op.est_rows, op.est_bytes)
        X[i, OP_TYPES.index(op.op_type)] = 1.0
        X[i, len(OP_TYPES)] = np.log1p(rows) / 25.0
        X[i, len(OP_TYPES) + 1] = np.log1p(byts) / 30.0
        X[i, len(OP_TYPES) + 2:] = predicate_embedding(op.predicate)
    return X


def local_edges(dag: SubQDag, op_ids: list[int]) -> list[tuple[int, int]]:
    """child→parent edges among ``op_ids`` in local index space."""
    pos = {oid: i for i, oid in enumerate(op_ids)}
    edges = []
    for oid in op_ids:
        for ch in dag.op(oid).children:
            if ch in pos:
                edges.append((pos[ch], pos[oid]))
    return edges


def alpha_features(input_rows: float, input_bytes: float,
                   output_rows: float, output_bytes: float) -> np.ndarray:
    """Input/output characteristics (log-scaled rows/bytes)."""
    return np.array([np.log1p(max(input_rows, 0.0)) / 25.0,
                     np.log1p(max(input_bytes, 0.0)) / 30.0,
                     np.log1p(max(output_rows, 0.0)) / 25.0,
                     np.log1p(max(output_bytes, 0.0)) / 30.0])


def beta_features(skew: float) -> np.ndarray:
    """Partition-size distribution stats implied by the exchange skew
    coefficient: σ/μ, (max−μ)/μ, (max−min)/μ."""
    s = max(skew, 0.0)
    return np.array([s, 3.0 * s, 3.0 * s + 0.3])


def gamma_features(n_parallel: int, parallel_tasks: float, parallel_work_s: float) -> np.ndarray:
    return np.array([
        float(n_parallel) / 8.0,
        np.log1p(max(parallel_tasks, 0.0)) / 10.0,
        np.log1p(max(parallel_work_s, 0.0)) / 12.0,
    ])


def join_alg_onehot(alg: str) -> np.ndarray:
    v = np.zeros(len(JOIN_ALGS))
    v[JOIN_ALGS.index(alg if alg in JOIN_ALGS else "")] = 1.0
    return v


ALPHA_DIM, BETA_DIM, GAMMA_DIM, DERIVED_DIM = 4, 3, 3, 3


_COL = {kid: i for i, kid in enumerate(FULL_IDS)}  # M_nat column of each knob


def derived_partition_features(kind: str, input_bytes, M_nat: np.ndarray,
                               skew) -> np.ndarray:
    """(n, DERIVED_DIM) physical-partitioning hints per natural-unit
    19-knob row (columns in ``FULL_IDS`` order): task count, bytes per task
    and total executor cores (log-scaled). ``input_bytes`` and ``skew`` are
    one stage's scalars, or one value per row for a batch of stages of the
    same ``kind``.

    These are properties of the physical stage Spark itself derives from
    the knobs — the task count and bytes-per-task that dominate stage
    latency, and the cores that run those tasks. Computed with the exact partitioning formulas of the cost
    model (``repro.simspark.costmodel``) so features stay consistent
    between training traces and optimization-time prediction.
    """
    M_nat = np.atleast_2d(np.asarray(M_nat, dtype=np.float64))
    if kind == "scan":
        p = scan_partitions_vec(input_bytes, M_nat[:, _COL["s8"]],
                                M_nat[:, _COL["s9"]], M_nat[:, _COL["k4"]])
    else:
        p, _ = shuffle_partitions_vec(input_bytes, M_nat[:, _COL["s1"]],
                                      M_nat[:, _COL["s5"]], M_nat[:, _COL["s10"]],
                                      M_nat[:, _COL["s11"]], skew)
    out = np.empty((len(M_nat), DERIVED_DIM))
    out[:, 0] = np.log1p(p) / 12.0
    out[:, 1] = np.log1p(np.maximum(input_bytes, 1.0) / np.maximum(p, 1.0)) / 30.0
    out[:, 2] = np.log1p(M_nat[:, _COL["k1"]] * M_nat[:, _COL["k3"]]) / 8.0
    return out
