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
from repro.model.predictor import ModelSuite, TargetModels
from repro.params import ALL_KNOBS, denormalize_matrix, normalize_matrix


# One-row and one-value codec cases and a plan count that only tests use,
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
        return fold_each(lambda row: FoldedRegressor(self, cols, row), values)

    def astype(self, dtype) -> "FakeRegressor":
        return self


def fold_each(make, values):
    """``MLPRegressor.fold``'s result for a duck-typed regressor: a list of
    ``make`` of each row of the 2-D ``values``."""
    return [make(row) for row in np.asarray(values, dtype=np.float64)]


class FoldedRegressor:
    """``MLPRegressor.fold`` for a duck-typed regressor: the same function
    over the columns other than ``cols``, which are fixed at ``values``."""

    def __init__(self, inner, cols, values):
        self.inner = inner
        self.cols = np.asarray(cols)
        self.values = np.asarray(values, dtype=np.float64)

    def full_rows(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        full = np.empty((len(X), len(self.cols) + X.shape[1]))
        full[:, self.cols] = self.values
        full[:, np.setdiff1d(np.arange(full.shape[1]), self.cols)] = X
        return full

    def astype(self, dtype) -> "FoldedRegressor":
        return FoldedRegressor(self.inner.astype(dtype), self.cols, self.values)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.inner.predict(self.full_rows(X))


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
