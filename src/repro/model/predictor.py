"""Model suite: subQ / QS / LQP̄ predictors and their feature layouts.

Feature layouts (shared by the trace generator and the MOO solvers — keep
in sync or the models silently mispredict):

* **subQ** (compile time): GTN embedding of the subQ's operators over
  *estimated* stats ‖ full 19-knob vector ‖ α_cbo ‖ β=0 ‖ γ=0;
* **QS** (runtime): embedding over *true* stats ‖ join-algorithm one-hot ‖
  (θc, θs) vector (θp dropped — already determined) ‖ α true ‖ β ‖ γ;
* **LQP̄** (runtime, collapsed plan): whole-plan embedding over true stats ‖
  19-knob vector ‖ α totals ‖ β mean ‖ γ. This model is trained and
  evaluated for Table 3 only: the runtime optimizer scores its θp
  candidates with the QS model on the join's stage, not with LQP̄.

Targets: (analytical) latency in seconds and IO in MB, each its own MLP.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core.plan import SubQDag
from repro.model.features import (
    ALPHA_DIM, BETA_DIM, DERIVED_DIM, GAMMA_DIM, JOIN_ALGS, alpha_features,
    beta_features, derived_partition_features, gamma_features, join_alg_onehot,
    local_edges, op_feature_matrix,
)
from repro.model.gtn import EMB_DIM, GTNEmbedder
from repro.model.mlp import MLPRegressor
from repro.params import C_IDS, P_IDS, S_IDS, to_vector

FULL_IDS = C_IDS + P_IDS + S_IDS
QS_IDS = C_IDS + S_IDS  # θp dropped at QS time
CONF_DIM_FULL = len(FULL_IDS)
CONF_DIM_QS = len(QS_IDS)

SUBQ_DIM = EMB_DIM + CONF_DIM_FULL + ALPHA_DIM + BETA_DIM + GAMMA_DIM + DERIVED_DIM
QS_DIM = (EMB_DIM + len(JOIN_ALGS) + CONF_DIM_QS + ALPHA_DIM + BETA_DIM
          + GAMMA_DIM + DERIVED_DIM)
LQP_DIM = EMB_DIM + CONF_DIM_FULL + ALPHA_DIM + BETA_DIM + GAMMA_DIM

_GTN: GTNEmbedder | None = None


def shared_gtn() -> GTNEmbedder:
    """Process-wide fixed-weight GTN (weights are seeded, so identical
    across processes — safe to use from Spark workers)."""
    global _GTN
    if _GTN is None:
        from repro.model.features import OP_FEAT_DIM
        _GTN = GTNEmbedder(OP_FEAT_DIM)
    return _GTN


def embed_ops(dag: SubQDag, op_ids: list[int], *, true_stats: bool) -> np.ndarray:
    X = op_feature_matrix(dag, op_ids, true_stats=true_stats)
    return shared_gtn().embed(X, local_edges(dag, op_ids))


def embed_subq(dag: SubQDag, sq_id: int, *, true_stats: bool) -> np.ndarray:
    return embed_ops(dag, dag.subqs[sq_id].op_ids, true_stats=true_stats)


def embed_plan(dag: SubQDag, *, true_stats: bool) -> np.ndarray:
    return embed_ops(dag, dag.plan.topological(), true_stats=true_stats)


# -- feature row assembly -----------------------------------------------------
# All builders are batched: fixed per-stage context ‖ per-row knob vectors.

def subq_feature_rows(emb: np.ndarray, alpha: np.ndarray, conf_mat: np.ndarray,
                      derived: np.ndarray) -> np.ndarray:
    """subQ features: compile-time context (β=γ=0) + normalized 19-knob rows."""
    n = conf_mat.shape[0]
    ctx = np.concatenate([alpha, np.zeros(BETA_DIM + GAMMA_DIM)])
    return np.concatenate(
        [np.tile(emb, (n, 1)), conf_mat, np.tile(ctx, (n, 1)), derived], axis=1)


def qs_feature_rows(emb: np.ndarray, alg: str, alpha: np.ndarray, beta: np.ndarray,
                    gamma: np.ndarray, conf_mat_cs: np.ndarray,
                    derived: np.ndarray) -> np.ndarray:
    n = conf_mat_cs.shape[0]
    head = np.concatenate([emb, join_alg_onehot(alg)])
    tail = np.concatenate([alpha, beta, gamma])
    return np.concatenate(
        [np.tile(head, (n, 1)), conf_mat_cs, np.tile(tail, (n, 1)), derived], axis=1)


def lqp_feature_rows(emb: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
                     gamma: np.ndarray, conf_mat: np.ndarray) -> np.ndarray:
    n = conf_mat.shape[0]
    tail = np.concatenate([alpha, beta, gamma])
    return np.concatenate([np.tile(emb, (n, 1)), conf_mat, np.tile(tail, (n, 1))], axis=1)


def conf_to_vec_full(conf: dict) -> np.ndarray:
    return to_vector(conf, FULL_IDS)


def conf_to_vec_qs(conf: dict) -> np.ndarray:
    return to_vector(conf, QS_IDS)


def stage_alpha(dag: SubQDag, sq_id: int, *, true: bool) -> np.ndarray:
    """α for one subQ/QS: input and output rows/bytes at the chosen view."""
    return alpha_features(
        dag.input_rows(sq_id, true=true), dag.input_bytes(sq_id, true=true),
        dag.output_rows(sq_id, true=true), dag.output_bytes(sq_id, true=true))


def stage_derived(dag: SubQDag, sq_id: int, M_nat_full: np.ndarray, *, true: bool) -> np.ndarray:
    """Partitioning hints for one stage across a batch of natural-unit
    19-knob configuration rows."""
    sq = dag.subqs[sq_id]
    return derived_partition_features(
        sq.kind, dag.input_bytes(sq_id, true=true), M_nat_full, FULL_IDS,
        dag.skew(sq_id))


# -- trained model bundles ----------------------------------------------------

@dataclass
class TargetModels:
    """Latency + IO regressors for one target granularity."""

    latency: MLPRegressor
    io: MLPRegressor

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.latency.predict(X), self.io.predict(X)


@dataclass
class ModelSuite:
    """The three model granularities for one benchmark."""

    subq: TargetModels
    qs: TargetModels
    lqp: TargetModels

    def save(self, dirpath: str) -> None:
        os.makedirs(dirpath, exist_ok=True)
        for g in ("subq", "qs", "lqp"):
            tm: TargetModels = getattr(self, g)
            tm.latency.save(os.path.join(dirpath, f"{g}_latency.npz"))
            tm.io.save(os.path.join(dirpath, f"{g}_io.npz"))

    @classmethod
    def load(cls, dirpath: str) -> "ModelSuite":
        def tm(g):
            return TargetModels(
                MLPRegressor.load(os.path.join(dirpath, f"{g}_latency.npz")),
                MLPRegressor.load(os.path.join(dirpath, f"{g}_io.npz")))
        return cls(tm("subq"), tm("qs"), tm("lqp"))

    @classmethod
    def exists(cls, dirpath: str) -> bool:
        return all(os.path.exists(os.path.join(dirpath, f"{g}_{t}.npz"))
                   for g in ("subq", "qs", "lqp") for t in ("latency", "io"))


def train_target(X: np.ndarray, y: np.ndarray, *, seed: int = 0,
                 epochs: int = 60, hidden=(96, 96)) -> MLPRegressor:
    """Train one regressor on the full (already split) training matrix."""
    m = MLPRegressor(X.shape[1], hidden=hidden, seed=seed)
    m.fit(X, y, epochs=epochs)
    return m


# -- evaluation metrics (paper Table 3) ----------------------------------------

def eval_metrics(y_true: np.ndarray, y_pred: np.ndarray) -> dict[str, float]:
    """WMAPE, median/90th-pct absolute percentage error, Pearson corr."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    denom = np.abs(y_true).sum()
    wmape = float(np.abs(y_true - y_pred).sum() / denom) if denom > 0 else 0.0
    ape = np.abs(y_true - y_pred) / np.maximum(np.abs(y_true), 1e-9)
    if len(y_true) > 1 and y_true.std() > 0 and y_pred.std() > 0:
        corr = float(np.corrcoef(y_true, y_pred)[0, 1])
    else:
        corr = 1.0 if np.allclose(y_true, y_pred) else 0.0
    return {
        "wmape": wmape,
        "p50": float(np.percentile(ape, 50)),
        "p90": float(np.percentile(ape, 90)),
        "corr": corr,
    }


def inference_throughput(model: MLPRegressor, X: np.ndarray, *, repeats: int = 5) -> float:
    """Predictions per second on a batch (paper's Xput column)."""
    import time
    model.predict(X[: min(64, len(X))])  # warm
    t0 = time.perf_counter()
    for _ in range(repeats):
        model.predict(X)
    dt = time.perf_counter() - t0
    return repeats * len(X) / dt
