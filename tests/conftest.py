"""Test fixtures: fake (analytic) model suites for fast algorithm tests and
a small real trained suite for integration tests.

The ``spark`` session fixture comes from the repo-root conftest.
"""
from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pytest

from repro.model.gtn import EMB_DIM
from repro.model.mlp import predict_blocks
from repro.model.predictor import (FULL_IDS, SUBQ_FIXED_COLS, ModelSuite, StageFeatures,
                                   TargetModels, to_objectives)
from repro.moo.objectives import D_PS
from repro.params import ALL_KNOBS, D_C, denormalize_matrix, normalize_matrix


# One-row and one-value codec cases, a plan count, the pairwise
# dominance test and the direct compile-time scorer that only tests use,
# kept here as oracles over the program's batch forms.

def knob_normalize(knob, v: float) -> float:
    """One natural-unit value of ``knob`` → [0, 1] (``params.normalize_matrix``)."""
    return float(normalize_matrix(np.array([v], dtype=np.float64), [knob.kid])[0])


def knob_denormalize(knob, u: float) -> float:
    """One [0, 1] value of ``knob`` → natural units (``params.denormalize_matrix``)."""
    return float(denormalize_matrix(np.array([u], dtype=np.float64), [knob.kid])[0])


def to_vector(conf: dict, ids: list[str] | None = None) -> np.ndarray:
    """A configuration (or a named subset) as one normalized vector."""
    ids = ids or [k.kid for k in ALL_KNOBS]
    return normalize_matrix(np.array([conf[i] for i in ids], dtype=np.float64), ids)


def from_vector(vec: np.ndarray, ids: list[str] | None = None) -> dict:
    """One normalized vector decoded into a configuration dict."""
    ids = ids or [k.kid for k in ALL_KNOBS]
    if len(vec) != len(ids):
        raise ValueError(f"vector length {len(vec)} != {len(ids)} knobs")
    return dict(zip(ids, denormalize_matrix(vec, ids).tolist()))


def n_joins(plan) -> int:
    """Join operators in a logical plan."""
    return sum(op.op_type == "join" for op in plan.ops.values())


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff point ``a`` Pareto-dominates ``b`` (Def. 3.2): the oracle
    the Pareto filters are checked against."""
    a, b = np.asarray(a), np.asarray(b)
    return bool(np.all(a <= b) and np.any(a < b))


class FakeRegressor:
    """Duck-typed MLPRegressor: a fixed smooth function of the features.

    Gives the MOO algorithms a deterministic, well-behaved objective so
    algorithmic properties (Pareto optimality, aggregation equivalence,
    WUN) can be asserted exactly without training anything.
    """

    def __init__(self, kind: str, scale: float = 100.0, seed: int = 0):
        self.kind = kind
        self.scale = scale
        rng = np.random.default_rng(seed)
        self.w = rng.random(8) + 0.1  # positive weights over conf knobs

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        conf = X[:, EMB_DIM:EMB_DIM + 19]  # normalized knobs (subq/lqp layout)
        emb_mag = np.abs(X[:, :EMB_DIM]).mean(axis=1)
        cores = conf[:, 0] + conf[:, 2]  # k1, k3 normalized
        if self.kind == "latency":
            # more resources -> lower latency; θp matters mildly
            return self.scale * (0.2 + emb_mag) / (0.3 + cores) * (
                1.0 + 0.3 * np.abs(conf[:, 12] - 0.5))
        # io: driven by plan size and compression knob
        return self.scale * 10.0 * (0.2 + emb_mag) * (1.2 - 0.4 * conf[:, 6])

    def fold(self, cols, values):
        return FoldedRegressor(self, cols, values)


class FoldedRegressor:
    """``MLPRegressor.fold`` for a duck-typed regressor: the same function
    over the columns other than ``cols``, which are fixed at row ``row`` of
    the 2-D ``values``. It has no input scaling: ``standardize`` returns a
    float64 copy."""

    def __init__(self, inner, cols, values):
        self.inner = inner
        self.cols = np.asarray(cols)
        self.values = np.asarray(values, dtype=np.float64)
        self.x_mean = self.x_std = None   # no input scaling

    def full_rows(self, X: np.ndarray, row: int) -> np.ndarray:
        X = np.atleast_2d(X)
        full = np.empty((len(X), len(self.cols) + X.shape[1]))
        full[:, self.cols] = self.values[row]
        full[:, np.setdiff1d(np.arange(full.shape[1]), self.cols)] = X
        return full

    def standardize(self, X: np.ndarray, cols=slice(None)) -> np.ndarray:
        return np.array(X, dtype=np.float64)

    def predict_block(self, H: np.ndarray, out: np.ndarray, *, row: int) -> None:
        out[:] = self.inner.predict(self.full_rows(H, row))


def cast(model, dtype):
    """A copy of the ``MLPRegressor`` ``model`` whose weights and input
    scaling are ``dtype``: the program trains and serves one dtype
    (``mlp.DTYPE``), and a test that needs another builds it here."""
    return model._derive([w.astype(dtype) for w in model.W],
                         [b.astype(dtype) for b in model.b],
                         model.x_mean.astype(dtype), model.x_std.astype(dtype))


def model_arrays(model) -> list[np.ndarray]:
    """Every array of an ``MLPRegressor``: weights, biases, input scaling."""
    return [*model.W, *model.b, model.x_mean, model.x_std]


def fold_rows(model, cols, values) -> list:
    """``MLPRegressor.fold`` one stage at a time: one regressor per row of
    the (k, len(cols)) ``values``, each with its own 1-D first bias and the
    kept-column ``W0`` slice, the biases computed with the same stacked
    one-row products. The oracle for a fold's bias-table row."""
    cols = np.asarray(cols, dtype=np.int64)
    keep = np.ones(model.d_in, dtype=bool)
    keep[cols] = False
    values = np.asarray(values, dtype=np.float64)
    fixed = (values - model.x_mean[cols]) / model.x_std[cols]
    prod = np.matmul(fixed[:, None, :], model.W[0][cols].astype(np.float64))
    b0 = (model.b[0] + prod[:, 0, :]).astype(model.b[0].dtype)
    W = [model.W[0][keep], *model.W[1:]]
    return [model._derive(W, [b, *model.b[1:]], model.x_mean[keep], model.x_std[keep])
            for b in b0]


def predict_row(model, X: np.ndarray, row: int) -> np.ndarray:
    """A fold's predictions of rows ``X`` with bias-table row ``row``, each
    of ``predict_blocks``' ranges standardized and forwarded on its own, as
    ``MLPRegressor.predict`` runs them."""
    out = np.empty(len(X))
    for s, e in predict_blocks(len(X)):
        model.predict_block(model.standardize(X[s:e]), out[s:e], row=row)
    return out


def subq_batch_oracle(obj, sq_id: int, U_full: np.ndarray) -> np.ndarray:
    """(n, 2) objectives of normalized 19-knob rows for subQ ``sq_id`` of
    ``obj`` (a ``CompileTimeObjectives``), scored the direct way: decode
    the whole rows, lay out the full subQ rows and keep the varying
    columns, forward each of ``predict_blocks``' ranges on its own through
    the query's fold with the subQ's bias row, and price with the latency
    clamped. The bit-exact oracle of ``CompileTimeObjectives.score``."""
    U_full = np.atleast_2d(U_full)
    M_nat = denormalize_matrix(U_full, FULL_IDS)
    st = StageFeatures.of_stages(obj.dag, [sq_id], true_stats=False)[sq_id]
    X = np.delete(st.subq_rows(U_full, M_nat), SUBQ_FIXED_COLS, axis=1)
    row = obj.sq_ids.index(sq_id)
    F = np.column_stack([predict_row(obj.models.latency, X, row),
                         predict_row(obj.models.io, X, row)])
    return to_objectives(F, obj.resource_rate(M_nat), clamp_latency=True)


def query_fine_oracle(obj, U_big: np.ndarray) -> np.ndarray:
    """``CompileTimeObjectives.query_fine_batch`` from the oracle: each
    subQ's θc ‖ θp‖θs rows scored on their own, summed from zeros in subQ
    order."""
    U_big = np.atleast_2d(U_big)
    F = np.zeros((len(U_big), 2))
    for j, sq in enumerate(obj.sq_ids):
        lo = D_C + j * D_PS
        F += subq_batch_oracle(obj, sq, np.concatenate([U_big[:, :D_C], U_big[:, lo:lo + D_PS]],
                                                       axis=1))
    return F


def full_row_objectives(tm, X: np.ndarray, rate, *, clamp_latency: bool) -> np.ndarray:
    """(n, 2) objectives of full model rows ``X`` by the unfolded models of
    ``tm`` (a ``TargetModels``) cast to float64, at ``rate`` $ per second
    held: the served function without float32 rounding."""
    F = np.column_stack([cast(m, np.float64).predict(X) for m in (tm.latency, tm.io)])
    return to_objectives(F, rate, clamp_latency=clamp_latency)


@pytest.fixture
def fresh_plan_memo():
    """An empty trace plan memo (``traces.plan_features``) around a test
    that patches the GTN or a feature function: the test's trace rows are
    built under its patch, and no later test reuses a plan built under it."""
    from repro.model.traces import plan_features

    plan_features.cache_clear()
    yield
    plan_features.cache_clear()


@pytest.fixture(scope="session")
def fake_suite() -> ModelSuite:
    return ModelSuite(
        subq=TargetModels(FakeRegressor("latency", 30.0), FakeRegressor("io", 30.0)),
        qs=TargetModels(FakeRegressor("latency", 30.0), FakeRegressor("io", 30.0)),
        lqp=TargetModels(FakeRegressor("latency", 300.0), FakeRegressor("io", 300.0)),
    )


@pytest.fixture(scope="session")
def tiny_traces() -> pd.DataFrame:
    """Small locally generated trace set (no Spark needed)."""
    from repro.model.traces import task_grid, trace_rows

    grid = task_grid("tpch", ["q1", "q3", "q6", "q9", "q12", "q14", "q18"],
                     3, 10, seed=3)
    rows: list[dict] = []
    for rec in grid.itertuples(index=False):
        rows.extend(trace_rows(rec.benchmark, rec.template, int(rec.variant),
                               json.loads(rec.conf_json), int(rec.conf_id)))
    return pd.DataFrame(rows)


@pytest.fixture(scope="session")
def small_suite(tiny_traces) -> ModelSuite:
    """A real (trained) suite on the tiny trace set — integration tests."""
    from repro.experiments.common import train_suite

    return train_suite(tiny_traces, epochs=30)
