"""Shared experiment plumbing: trace generation, model training, caching,
and the one compile-time solve per query that Tables 4, 5 and Expt 6 share.

Heavy artifacts (traces, trained models, table results) are cached under
``results/`` at the repo root so tables re-run cheaply; delete the
directory to regenerate from scratch. Traces and models carry a
``.stamp`` file with the ``artifact_key`` they were built under and are
rebuilt when it no longer matches.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd

from repro.core.plan import partition_subqs
from repro.core.workloads import benchmark_queries, build_query
from repro.model.mlp import idle_core_threads
from repro.model.predictor import ModelSuite, TargetModels, train_target
from repro.model.traces import generate_traces_spark, split_traces
from repro.moo.hmooc import MOOResult
from repro.moo.objectives import CompileTimeObjectives
from repro.tuner import compile_hmooc3

RESULTS_DIR = os.environ.get("REPRO_RESULTS_DIR",
                             os.path.join(os.path.dirname(__file__), "..", "..", "..", "results"))

# Trace-generation scale (paper: 50k parametric queries per benchmark on a
# 6-node cluster; reduced to laptop budget — documented in DESIGN.md).
N_VARIANTS = 4
N_CONFS = 24
TRACE_SEED = 17
TRAIN_EPOCHS = 50
HIDDEN = (128, 128)

# The sources that traces and models are computed from.
_ARTIFACT_SOURCES = ("core", "simspark", "model", "params.py")


def results_path(*parts: str) -> str:
    path = os.path.abspath(os.path.join(RESULTS_DIR, *parts))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def traces_path(benchmark: str) -> str:
    return results_path(f"traces_{benchmark}.parquet")


def models_dir(benchmark: str) -> str:
    d = results_path("models", benchmark, ".keep")
    return os.path.dirname(d)


@functools.cache
def artifact_key() -> str:
    """Digest of the code and constants that cached traces and models are
    built from: the trace and model sources and the grid and fit sizes."""
    root = Path(__file__).resolve().parent.parent
    h = hashlib.sha256(repr((N_VARIANTS, N_CONFS, TRACE_SEED, TRAIN_EPOCHS, HIDDEN)).encode())
    for name in _ARTIFACT_SOURCES:
        top = root / name
        for f in sorted(top.rglob("*.py")) if top.is_dir() else [top]:
            h.update(f.relative_to(root).as_posix().encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def _is_current(artifact: str) -> bool:
    """True if an existing artifact was built under the current
    ``artifact_key``; a stale one is reported."""
    try:
        with open(artifact + ".stamp") as f:
            if f.read().strip() == artifact_key():
                return True
    except FileNotFoundError:
        pass
    print(f"{artifact}: stamp does not match the current sources; regenerating")
    return False


def _write_stamp(artifact: str) -> None:
    with open(artifact + ".stamp", "w") as f:
        f.write(artifact_key() + "\n")


def get_traces(spark, benchmark: str, *, force: bool = False) -> pd.DataFrame:
    """Load cached traces or generate them with the Spark pipeline."""
    path = traces_path(benchmark)
    if not force and os.path.exists(path) and _is_current(path):
        return pd.read_parquet(path)
    traces = generate_traces_spark(
        spark, benchmark, benchmark_queries(benchmark),
        n_variants=N_VARIANTS, n_confs=N_CONFS, seed=TRACE_SEED)
    traces.to_parquet(path)
    _write_stamp(path)
    return traces


def fit_workers() -> int:
    """Threads for a suite's six fits: ``mlp.idle_core_threads()``, the
    cores the driver's BLAS pool leaves idle, at most 6."""
    return min(6, idle_core_threads())


def train_suite(traces: pd.DataFrame, *, epochs: int = TRAIN_EPOCHS,
                hidden=HIDDEN, seed: int = 0) -> ModelSuite:
    """Train all six models (3 granularities × {latency, IO}).

    The fits are independent (own seed, RNG and arrays) and numpy releases
    the GIL in BLAS calls, so they run on ``fit_workers()`` threads; the
    models are bit-identical to fitting them one after another. The large
    subQ and QS fits are submitted first.
    """
    with ThreadPoolExecutor(fit_workers()) as pool:
        futures = {}
        for kind in ("subq", "qs", "lqp"):
            (Xtr, yl, yi), _, _ = split_traces(traces, kind)
            futures[kind] = [pool.submit(train_target, Xtr, y, epochs=epochs,
                                         hidden=hidden, seed=seed + i)
                             for i, y in enumerate((yl, yi))]
        return ModelSuite(**{kind: TargetModels(*(f.result() for f in fs))
                             for kind, fs in futures.items()})


def get_suite(spark, benchmark: str) -> ModelSuite:
    """Cached trained models for a benchmark (trains on first use)."""
    d = models_dir(benchmark)
    if ModelSuite.exists(d) and _is_current(d):
        return ModelSuite.load(d)
    traces = get_traces(spark, benchmark)
    suite = train_suite(traces)
    suite.save(d)
    _write_stamp(d)
    return suite


@dataclass
class CompileSet:
    """A benchmark's queries, each compiled once: query name -> its HMOOC3
    ``MOOResult`` and the ``CompileTimeObjectives`` (carrying the DAG) it was
    solved on, in benchmark order."""

    benchmark: str
    suite: ModelSuite
    queries: dict[str, tuple[MOOResult, CompileTimeObjectives]]


def compile_benchmark(benchmark: str, suite: ModelSuite,
                      queries: list[str] | None = None) -> CompileSet:
    """Build each query's DAG, objectives and HMOOC3 Pareto set once. The
    set does not depend on the preference (§5.1), so every table recommends
    from it."""
    return CompileSet(benchmark, suite, {
        q: compile_hmooc3(partition_subqs(build_query(benchmark, q)), suite)
        for q in queries or benchmark_queries(benchmark)})


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
