"""Training-trace generation: parametric queries × LHS configs → features.

Mirrors the paper's data-collection protocol (§6 "Workloads"): benchmark
templates are treated as templates for parametric queries; each instance
runs once under an LHS-sampled configuration; every run yields one row per
subQ (compile-time view), one per QS (runtime view) and one for the whole
collapsed plan (LQP̄).

``generate_traces_spark`` distributes the fan-out as a Spark DataFrame
pipeline (``mapInPandas`` over the task grid); ``trace_rows`` is the pure
per-task row builder it ships to executors (and the unit-testable core).
"""
from __future__ import annotations

import json

import numpy as np
import pandas as pd

from repro.core.plan import partition_subqs
from repro.core.workloads import build_query
from repro.model import predictor as P
from repro.params import ALL_KNOBS, lhs_sample
from repro.simspark.executor import run_query

TRACE_SCHEMA = (
    "kind string, benchmark string, template string, variant int, conf_id int, "
    "sq_id int, feats array<double>, latency double, io_mb double"
)
TRACE_COLUMNS = [field.split()[0] for field in TRACE_SCHEMA.split(", ")]


def trace_rows(benchmark: str, template: str, variant: int, conf: dict,
               conf_id: int, *, sf: float = 100.0) -> list[dict]:
    """All trace rows for one (parametric query, configuration) run."""
    plan = build_query(benchmark, template, sf=sf, variant=variant)
    dag = partition_subqs(plan)
    run = run_query(dag, conf, aqe=True, noisy=True,
                    noise_seed=conf_id * 7919 + variant)
    U_full, M_nat = P.encode_confs([conf], P.FULL_IDS)
    U_qs, _ = P.encode_confs([conf], P.QS_IDS)
    rows: list[dict] = []

    def add(kind: str, sq_id: int, X: np.ndarray, latency: float, io_mb: float) -> None:
        rows.append(dict(
            kind=kind, benchmark=benchmark, template=template, variant=variant,
            conf_id=conf_id, sq_id=sq_id, feats=X[0].tolist(),
            latency=latency, io_mb=io_mb))

    for sq_id, sr in run.stages.items():
        io_mb = sr.io_bytes / 1024**2
        est, obs = P.StageFeatures.pair(dag, sq_id)
        # subQ (compile-time view: estimated stats, uniform/no-contention)
        add("subq", sq_id, est.subq_rows(U_full, M_nat), sr.analytical_latency_s, io_mb)
        # QS (runtime view: true stats, physical alg, θp dropped)
        add("qs", sq_id, obs.qs_rows([sr.metrics.join_alg], U_qs, M_nat,
                                     P.observed_gamma(sr)),
            sr.analytical_latency_s, io_mb)
    # LQP̄ (whole collapsed plan; end-to-end latency and IO)
    add("lqp", -1, P.lqp_rows(dag, U_full, run.stages.values()),
        run.latency_s, run.io_gb * 1024.0)
    return rows


def task_grid(benchmark: str, templates: list[str], n_variants: int,
              n_confs: int, *, seed: int = 0) -> pd.DataFrame:
    """The (template, variant, conf) fan-out as a pandas frame."""
    ids = [k.kid for k in ALL_KNOBS]
    confs = lhs_sample(n_confs, ids, seed=seed)
    recs = []
    for t in templates:
        for v in range(n_variants):
            for ci, conf in enumerate(confs):
                recs.append(dict(benchmark=benchmark, template=t, variant=v,
                                 conf_id=ci, conf_json=json.dumps(conf)))
    return pd.DataFrame(recs)


def generate_traces_spark(spark, benchmark: str, templates: list[str], *,
                          n_variants: int = 8, n_confs: int = 6, sf: float = 100.0,
                          seed: int = 0) -> pd.DataFrame:
    """Distribute trace generation over Spark; returns the collected traces."""
    grid = task_grid(benchmark, templates, n_variants, n_confs, seed=seed)
    sdf = spark.createDataFrame(grid).repartition(64)

    def worker(batches):
        for pdf in batches:
            out: list[dict] = []
            for rec in pdf.itertuples(index=False):
                out.extend(trace_rows(rec.benchmark, rec.template, int(rec.variant),
                                      json.loads(rec.conf_json), int(rec.conf_id), sf=sf))
            yield pd.DataFrame(out) if out else pd.DataFrame(columns=TRACE_COLUMNS)

    return sdf.mapInPandas(worker, schema=TRACE_SCHEMA).toPandas()


def split_traces(traces: pd.DataFrame, kind: str, *, seed: int = 42,
                 frac_train: float = 0.8, frac_val: float = 0.1):
    """8:1:1 split of one trace kind into (X, y_lat, y_io) triples."""
    sub = traces[traces["kind"] == kind].reset_index(drop=True)
    X = np.stack(sub["feats"].to_numpy())
    y_lat = sub["latency"].to_numpy(dtype=np.float64)
    y_io = sub["io_mb"].to_numpy(dtype=np.float64)
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(sub))
    n_tr = int(frac_train * len(sub))
    n_va = int(frac_val * len(sub))
    tr, va, te = idx[:n_tr], idx[n_tr:n_tr + n_va], idx[n_tr + n_va:]
    return ((X[tr], y_lat[tr], y_io[tr]), (X[va], y_lat[va], y_io[va]),
            (X[te], y_lat[te], y_io[te]))
