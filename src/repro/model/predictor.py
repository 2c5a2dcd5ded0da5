"""Model suite: subQ / QS / LQP̄ predictors and the one owner of their inputs.

This module is the only place that lays out model inputs. Trace
generation, the compile-time objectives and the runtime plugin all build
their rows here, so the models score exactly the rows they were trained
on. Every row is GTN embedding ‖ knobs ‖ α ‖ β ‖ γ (paper §4.3):

* **subQ** (compile time): embedding of the subQ's operators over
  *estimated* stats ‖ full 19-knob vector ‖ α_cbo ‖ β=0 ‖ γ=0 ‖ derived
  partitioning;
* **QS** (runtime): embedding over *true* stats ‖ join-algorithm one-hot ‖
  (θc, θs) vector (θp dropped — already determined) ‖ α true ‖ β ‖ γ ‖
  derived partitioning;
* **LQP̄** (runtime, collapsed plan): whole-plan embedding over true stats ‖
  19-knob vector ‖ α totals ‖ β mean ‖ γ. This model is trained and
  evaluated for Table 3 only: the runtime optimizer scores its θp
  candidates with the QS model on the join's stage, not with LQP̄.

:class:`StageFeatures` holds what is fixed for one stage under one
statistics view; its ``subq_rows``/``qs_rows`` append a batch of knob
rows. ``StageFeatures.of_stages`` is the one builder of these views: it
builds the views of many stages under one statistics view with one GTN
forward per stage shape (operator count and local edges; the 541 stages
of the 52 benchmark queries have two shapes). The compile-time objectives
build the estimated views with it, the runtime plugin the true ones, and
trace generation both. ``StageFeatures.stack`` joins the views of
several stages of one kind into one whose rows are one per stage, so
trace generation lays out a whole execution's rows with the same
builders. Both inference paths fold what is fixed per stage into the
models and pass only the varying columns: compile time the subQ columns
``subq_fixed`` (at ``SUBQ_FIXED_COLS``) and passes ``subq_varying``; the
runtime plugin the QS columns ``qs_fixed`` under ``IDLE_GAMMA`` (at
``QS_FIXED_COLS``: 42 of 59) and passes the 17 ``qs_varying`` ones, join
one-hot, (θc, θs) and derived partitioning. Each folds all of a query's
stages with one product per model (``TargetModels.fold``) into the float32
copy made once per loaded suite (``TargetModels.float32``).
``lqp_rows`` builds the whole-plan rows around the ``plan_embedding``, and
``TargetModels.objectives`` turns predictions into (latency, cost).

Targets: (analytical) latency in seconds and IO in MB, each its own MLP.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.plan import SubQDag
from repro.model.features import (
    ALPHA_DIM, BETA_DIM, DERIVED_DIM, GAMMA_DIM, JOIN_ALGS, alpha_features,
    beta_features, derived_partition_features, gamma_features, join_alg_onehot,
    local_edges, op_feature_matrix,
)
from repro.model.gtn import EMB_DIM, GTNEmbedder
from repro.model.mlp import MLPRegressor
from repro.params import C_IDS, FULL_IDS, S_IDS, normalize_matrix
from repro.simspark.costmodel import DEFAULT_COSTS

QS_IDS = C_IDS + S_IDS  # θp dropped at QS time
QS_COLS = [FULL_IDS.index(i) for i in QS_IDS]  # their columns in a 19-knob row
CONF_DIM_FULL = len(FULL_IDS)
CONF_DIM_QS = len(QS_IDS)

SUBQ_DIM = EMB_DIM + CONF_DIM_FULL + ALPHA_DIM + BETA_DIM + GAMMA_DIM + DERIVED_DIM
QS_DIM = (EMB_DIM + len(JOIN_ALGS) + CONF_DIM_QS + ALPHA_DIM + BETA_DIM
          + GAMMA_DIM + DERIVED_DIM)
LQP_DIM = EMB_DIM + CONF_DIM_FULL + ALPHA_DIM + BETA_DIM + GAMMA_DIM

_ALG_ONEHOT = np.array([join_alg_onehot(a) for a in JOIN_ALGS])
_ALG_ROW = {a: i for i, a in enumerate(JOIN_ALGS)}  # any other name: the "" row

# QS row columns fixed per stage at runtime: the embedding and α ‖ β ‖ γ
# (the plugin's γ is IDLE_GAMMA). The rest vary per request: the join
# one-hot, (θc, θs) and the derived partitioning, in that order.
_QS_TAIL0 = EMB_DIM + len(JOIN_ALGS) + CONF_DIM_QS
QS_FIXED_COLS = np.r_[0:EMB_DIM, _QS_TAIL0:QS_DIM - DERIVED_DIM]
_QS_VARYING_COLS = np.setdiff1d(np.arange(QS_DIM), QS_FIXED_COLS)
_QS_VAR_CONF0 = len(JOIN_ALGS)  # (θc, θs) columns of a varying row
_QS_VAR_DERIVED0 = _QS_VAR_CONF0 + CONF_DIM_QS

# subQ row columns fixed per stage: the embedding and α ‖ β ‖ γ. The rest,
# the 19 knobs and the derived partitioning, vary with the configuration.
_SUBQ_CTX0 = EMB_DIM + CONF_DIM_FULL
SUBQ_FIXED_COLS = np.r_[0:EMB_DIM, _SUBQ_CTX0:_SUBQ_CTX0 + ALPHA_DIM + BETA_DIM + GAMMA_DIM]
_SUBQ_VARYING_COLS = np.setdiff1d(np.arange(SUBQ_DIM), SUBQ_FIXED_COLS)

# γ of a runtime request: the plugin observes no sibling-stage contention.
IDLE_GAMMA = gamma_features(1, 0.0, 0.0)

_GTN: GTNEmbedder | None = None


def shared_gtn() -> GTNEmbedder:
    """Process-wide fixed-weight GTN (weights are seeded, so identical
    across processes — safe to use from Spark workers)."""
    global _GTN
    if _GTN is None:
        from repro.model.features import OP_FEAT_DIM
        _GTN = GTNEmbedder(OP_FEAT_DIM)
    return _GTN


def encode_confs(confs: list[dict], ids: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Configuration dicts → (normalized knob rows over ``ids``,
    natural-unit 19-knob rows in ``FULL_IDS`` order)."""
    M_nat = np.array([[c[i] for i in FULL_IDS] for c in confs], dtype=np.float64)
    return normalize_matrix(M_nat[:, [FULL_IDS.index(i) for i in ids]], ids), M_nat


def observed_gamma(stage_run) -> np.ndarray:
    """γ a simulated stage run observed: its parallel stages, their tasks
    and their work."""
    return gamma_features(stage_run.n_parallel, stage_run.parallel_tasks,
                          stage_run.parallel_work_s)


@dataclass(frozen=True)
class StageFeatures:
    """The model inputs fixed for one stage under one statistics view:
    CBO estimates at compile time, actual statistics at runtime. A
    ``stack`` of stages carries one leading row per stage in every field
    but ``kind``."""

    emb: np.ndarray      # GTN embedding of the stage's operators
    alpha: np.ndarray    # input/output rows and bytes
    beta: np.ndarray     # partition-size distribution implied by the skew
    kind: str            # 'scan' | 'shuffle'
    input_bytes: float | np.ndarray
    skew: float | np.ndarray

    @classmethod
    def of_stages(cls, dag: SubQDag, sq_ids: list[int], *,
                  true_stats: bool) -> dict[int, "StageFeatures"]:
        """The views of stages ``sq_ids`` under one statistics view, in that
        order, with one GTN forward per stage shape (operator count and
        local edges): the node-feature matrices of a shape's stages stack
        on ``embed``'s views axis."""
        shapes: dict[tuple, list[int]] = {}
        for i in sq_ids:
            ops = dag.subqs[i].op_ids
            shapes.setdefault((len(ops), tuple(local_edges(dag, ops))), []).append(i)
        embs = {}
        for (_, edges), ids in shapes.items():
            X = np.stack([op_feature_matrix(dag, dag.subqs[i].op_ids, true_stats=true_stats)
                          for i in ids])
            embs.update(zip(ids, shared_gtn().embed(X, edges)))
        return {i: cls._view(dag, i, true_stats, embs[i]) for i in sq_ids}

    @classmethod
    def stack(cls, views: list["StageFeatures"]) -> "StageFeatures":
        """Views of stages of one kind as one: ``subq_rows``/``qs_rows`` of
        the stack lay out row i for stage i from the i-th knob row, γ row
        and join algorithm."""
        (kind,) = {v.kind for v in views}
        return cls(emb=np.stack([v.emb for v in views]),
                   alpha=np.stack([v.alpha for v in views]),
                   beta=np.stack([v.beta for v in views]), kind=kind,
                   input_bytes=np.array([v.input_bytes for v in views]),
                   skew=np.array([v.skew for v in views]))

    @classmethod
    def _view(cls, dag: SubQDag, sq_id: int, true_stats: bool,
              emb: np.ndarray) -> "StageFeatures":
        in_bytes = dag.input_bytes(sq_id, true=true_stats)
        skew = dag.skew(sq_id)
        return cls(
            emb=emb,
            alpha=alpha_features(dag.input_rows(sq_id, true=true_stats), in_bytes,
                                 dag.output_rows(sq_id, true=true_stats),
                                 dag.output_bytes(sq_id, true=true_stats)),
            beta=beta_features(skew), kind=dag.subqs[sq_id].kind, input_bytes=in_bytes,
            skew=skew)

    def _derived(self, M_nat: np.ndarray, input_bytes) -> np.ndarray:
        return derived_partition_features(self.kind, input_bytes, M_nat, self.skew)

    def subq_fixed(self) -> np.ndarray:
        """The ``SUBQ_FIXED_COLS`` of every subQ row of this stage (β = γ = 0)."""
        zeros = np.zeros(self.alpha.shape[:-1] + (BETA_DIM + GAMMA_DIM,))
        return np.concatenate([self.emb, self.alpha, zeros], axis=-1)

    def subq_varying(self, U_full: np.ndarray, M_nat: np.ndarray) -> np.ndarray:
        """The other subQ row columns, in order, for normalized 19-knob rows
        ``U_full`` and the same configurations in natural units ``M_nat``."""
        return np.concatenate([U_full, self._derived(M_nat, self.input_bytes)], axis=1)

    def subq_rows(self, U_full: np.ndarray, M_nat: np.ndarray) -> np.ndarray:
        """Full subQ model rows: the fixed and the varying columns."""
        X = np.empty((len(U_full), SUBQ_DIM))
        X[:, SUBQ_FIXED_COLS] = self.subq_fixed()
        X[:, _SUBQ_VARYING_COLS] = self.subq_varying(U_full, M_nat)
        return X

    def qs_fixed(self, gamma: np.ndarray) -> np.ndarray:
        """The ``QS_FIXED_COLS`` of every QS row of this stage under
        ``gamma``: one γ, or one per stage of a ``stack``."""
        return np.concatenate([self.emb, self.alpha, self.beta, gamma], axis=-1)

    def qs_varying(self, join_algs: list[str], U_qs: np.ndarray, M_nat: np.ndarray, *,
                   input_bytes: float | None = None) -> np.ndarray:
        """The other QS row columns, in order: one join algorithm, (θc, θs)
        row and natural-unit 19-knob row per candidate. ``input_bytes``
        replaces the stage's statistics with the bytes a runtime request
        observed."""
        X = np.empty((len(U_qs), len(_QS_VARYING_COLS)))
        X[:, :_QS_VAR_CONF0] = _ALG_ONEHOT[[_ALG_ROW.get(a, _ALG_ROW[""])
                                            for a in join_algs]]
        X[:, _QS_VAR_CONF0:_QS_VAR_DERIVED0] = U_qs
        in_bytes = self.input_bytes if input_bytes is None else input_bytes
        X[:, _QS_VAR_DERIVED0:] = self._derived(M_nat, in_bytes)
        return X

    def qs_rows(self, join_algs: list[str], U_qs: np.ndarray, M_nat: np.ndarray,
                gamma: np.ndarray, *, input_bytes: float | None = None) -> np.ndarray:
        """Full QS model rows: the fixed and the varying columns."""
        X = np.empty((len(U_qs), QS_DIM))
        X[:, QS_FIXED_COLS] = self.qs_fixed(gamma)
        X[:, _QS_VARYING_COLS] = self.qs_varying(join_algs, U_qs, M_nat,
                                                 input_bytes=input_bytes)
        return X


def plan_embedding(dag: SubQDag) -> np.ndarray:
    """GTN embedding of the whole collapsed plan over true statistics."""
    ops = dag.plan.topological()
    return shared_gtn().embed(op_feature_matrix(dag, ops, true_stats=True),
                              local_edges(dag, ops))


def lqp_rows(dag: SubQDag, emb: np.ndarray, U_full: np.ndarray, stage_runs) -> np.ndarray:
    """LQP̄ model rows for the collapsed plan after one execution: its
    ``plan_embedding`` ``emb``, α over the scans' input and the root's
    output, β the mean skew, γ the peak parallelism and the total tasks and
    task seconds of ``stage_runs``."""
    stage_runs = list(stage_runs)
    scans = [i for i, s in dag.subqs.items() if s.kind == "scan"]
    root = dag.roots()[0]
    alpha = alpha_features(sum(dag.input_rows(i, true=True) for i in scans),
                           sum(dag.input_bytes(i, true=True) for i in scans),
                           dag.output_rows(root, true=True),
                           dag.output_bytes(root, true=True))
    beta = beta_features(float(np.mean([dag.skew(i) for i in dag.subqs])))
    gamma = gamma_features(max(s.n_parallel for s in stage_runs),
                           sum(s.metrics.n_tasks for s in stage_runs),
                           sum(s.metrics.task_sec_total for s in stage_runs))
    n = len(U_full)
    tail = np.concatenate([alpha, beta, gamma])
    return np.concatenate([np.tile(emb, (n, 1)), U_full, np.tile(tail, (n, 1))], axis=1)


# -- trained model bundles ----------------------------------------------------

@dataclass
class TargetModels:
    """Latency + IO regressors for one target granularity."""

    latency: MLPRegressor
    io: MLPRegressor

    @cached_property
    def float32(self) -> "TargetModels":
        """A float32 copy of both models, made once per loaded suite: compile
        time and the runtime plugin fold it."""
        return TargetModels(self.latency.astype(np.float32), self.io.astype(np.float32))

    def fold(self, cols, values: np.ndarray) -> list["TargetModels"]:
        """Both models with columns ``cols`` fixed, once per row of the
        (k, len(cols)) ``values``: one ``MLPRegressor.fold`` product per
        model."""
        return [TargetModels(lat, io) for lat, io in zip(self.latency.fold(cols, values),
                                                         self.io.fold(cols, values))]

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.latency.predict(X), self.io.predict(X)

    def objectives(self, X: np.ndarray, rate_s, *, clamp_latency: bool) -> np.ndarray:
        """(n, 2) predicted [latency (s), cloud cost ($)] at ``rate_s`` $ per
        second held. Cost always uses the latency clamped at 1e-4 s; F
        holds the clamped latency only if ``clamp_latency`` (compile time
        clamps, the runtime plugin keeps the raw prediction)."""
        lat, io_mb = self.predict(X)
        held = np.maximum(lat, 1e-4)
        cost = held * rate_s + np.maximum(io_mb, 0.0) / 1024.0 * DEFAULT_COSTS.price_io_gb
        return np.stack([held if clamp_latency else lat, cost], axis=1)


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


def train_target(X: np.ndarray, y: np.ndarray, *, epochs: int, hidden,
                 seed: int = 0) -> MLPRegressor:
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
