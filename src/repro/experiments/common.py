"""Shared experiment plumbing: trace generation, model training, caching.

Heavy artifacts (traces, trained models, table results) are cached under
``results/`` at the repo root so tables re-run cheaply; delete the
directory to regenerate from scratch.
"""
from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd

from repro.core.workloads import benchmark_queries
from repro.model.predictor import ModelSuite, TargetModels, train_target
from repro.model.traces import generate_traces_spark, split_traces

RESULTS_DIR = os.environ.get("REPRO_RESULTS_DIR",
                             os.path.join(os.path.dirname(__file__), "..", "..", "..", "results"))

# Trace-generation scale (paper: 50k parametric queries per benchmark on a
# 6-node cluster; reduced to laptop budget — documented in DESIGN.md).
N_VARIANTS = 4
N_CONFS = 24
TRAIN_EPOCHS = 50
HIDDEN = (128, 128)


def results_path(*parts: str) -> str:
    path = os.path.abspath(os.path.join(RESULTS_DIR, *parts))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def traces_path(benchmark: str) -> str:
    return results_path(f"traces_{benchmark}.parquet")


def models_dir(benchmark: str) -> str:
    d = results_path("models", benchmark, ".keep")
    return os.path.dirname(d)


def get_traces(spark, benchmark: str, *, force: bool = False) -> pd.DataFrame:
    """Load cached traces or generate them with the Spark pipeline."""
    path = traces_path(benchmark)
    if os.path.exists(path) and not force:
        return pd.read_parquet(path)
    traces = generate_traces_spark(
        spark, benchmark, benchmark_queries(benchmark),
        n_variants=N_VARIANTS, n_confs=N_CONFS, seed=17)
    traces.to_parquet(path)
    return traces


def train_suite(traces: pd.DataFrame, *, epochs: int = TRAIN_EPOCHS,
                hidden=HIDDEN, seed: int = 0) -> ModelSuite:
    """Train all six models (3 granularities × {latency, IO})."""
    parts = {}
    for kind in ("subq", "qs", "lqp"):
        (Xtr, yl, yi), _, _ = split_traces(traces, kind)
        parts[kind] = TargetModels(
            train_target(Xtr, yl, epochs=epochs, hidden=hidden, seed=seed),
            train_target(Xtr, yi, epochs=epochs, hidden=hidden, seed=seed + 1))
    return ModelSuite(**parts)


def get_suite(spark, benchmark: str) -> ModelSuite:
    """Cached trained models for a benchmark (trains on first use)."""
    d = models_dir(benchmark)
    if ModelSuite.exists(d):
        return ModelSuite.load(d)
    traces = get_traces(spark, benchmark)
    suite = train_suite(traces)
    suite.save(d)
    return suite


def save_json(obj: dict, *parts: str) -> str:
    path = results_path(*parts)
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, default=_np_default)
    return path


def _np_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")
