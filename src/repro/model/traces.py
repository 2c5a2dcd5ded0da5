"""Training-trace generation: parametric queries × LHS configs → features.

Mirrors the paper's data-collection protocol (§6 "Workloads"): benchmark
templates are treated as templates for parametric queries; each instance
runs once under an LHS-sampled configuration; every run yields one row per
subQ (compile-time view), one per QS (runtime view) and one for the whole
collapsed plan (LQP̄).

``generate_traces_spark`` distributes the fan-out as a Spark DataFrame
pipeline (``mapInPandas`` over the task grid); ``trace_rows`` is the pure
per-task row builder it ships to executors (and the unit-testable core).
The grid is shuffled ``ORDER_PARTITIONS`` ways only to fix the order of the
returned rows, which ``split_traces`` permutes by position into one
seeded 8:1:1 split. Each grid row
is tagged with its place in that order; the Python stage then runs on one
task per Spark core, and the collected rows are sorted back on the tag.

A subQ's GTN embedding and its α/β columns depend only on the plan and the
statistics view (§4.3); the configuration enters only through the knob,
derived-partitioning and γ columns. ``plan_features`` therefore builds a
plan's subQ DAG, both statistics views of every stage and the LQP̄
embedding once per process and keeps the most recent ``PLAN_MEMO_SIZE``
plans. The views come from ``StageFeatures.of_stages``, the builder
compile time and the runtime plugin use: one call per view, so two GTN
forwards per stage shape, plus one for the plan. ``trace_rows`` then lays
out a task's subQ and QS rows one matrix per stage kind with the
``predictor`` row builders. The memo hands every task the same DAG and
arrays, which the simulator and the row builders only read.

Importing this module loads numpy but not pandas, because
``repro.experiments.common``, which every process that solves or adapts
imports, imports it. ``task_grid`` and the ``mapInPandas`` worker import
pandas when they run.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.plan import SubQDag, partition_subqs
from repro.core.workloads import build_query
from repro.model import predictor as P
from repro.params import ALL_KNOBS, lhs_sample
from repro.simspark.executor import run_query

if TYPE_CHECKING:
    import pandas as pd

TRACE_SCHEMA = (
    "kind string, benchmark string, template string, variant int, conf_id int, "
    "sq_id int, feats array<double>, latency double, io_mb double"
)
TRACE_COLUMNS = [field.split()[0] for field in TRACE_SCHEMA.split(", ")]

# The largest trace grid's plans: TPC-DS, 30 templates × 4 variants
PLAN_MEMO_SIZE = 30 * 4

# ``split_traces``' permutation seed and train and validation shares (§4.3)
SPLIT_SEED = 42
FRAC_TRAIN = 0.8
FRAC_VAL = 0.1

# Width of the shuffle that puts the task grid in order. It fixes the order
# of the trace rows, and so the split and the trained models; it sets no
# parallelism, since the Python stage runs on one task per core.
ORDER_PARTITIONS = 64


@dataclass(frozen=True)
class PlanFeatures:
    """What every trace row of one plan shares, whatever the configuration."""

    dag: SubQDag
    # per stage kind: the sq_ids and the stacked (estimated, true) views
    groups: tuple[tuple[list[int], P.StageFeatures, P.StageFeatures], ...]
    lqp_emb: np.ndarray


@functools.lru_cache(maxsize=PLAN_MEMO_SIZE)
def plan_features(benchmark: str, template: str, variant: int) -> PlanFeatures:
    """The plan of one parametric query instance and its configuration-free
    model inputs: both statistics views of its stages and the whole-plan
    embedding."""
    dag = partition_subqs(build_query(benchmark, template, variant=variant))
    est, obs = (P.StageFeatures.of_stages(dag, list(dag.subqs), true_stats=t)
                for t in (False, True))
    by_kind: dict[str, list[int]] = {}
    for sq_id, sq in dag.subqs.items():
        by_kind.setdefault(sq.kind, []).append(sq_id)
    groups = tuple((ids, P.StageFeatures.stack([est[i] for i in ids]),
                    P.StageFeatures.stack([obs[i] for i in ids]))
                   for ids in by_kind.values())
    return PlanFeatures(dag, groups, P.plan_embedding(dag))


def trace_rows(benchmark: str, template: str, variant: int, conf: dict,
               conf_id: int) -> list[dict]:
    """All trace rows for one (parametric query, configuration) run, on the
    plan ``build_query`` builds at its default scale."""
    plan = plan_features(benchmark, template, variant)
    run = run_query(plan.dag, conf, noise_seed=conf_id * 7919 + variant)
    U_full, M_nat = P.encode_confs([conf], P.FULL_IDS)
    U_qs = U_full[:, P.QS_COLS]
    # row sq_id of each matrix is stage sq_id (partition_subqs numbers them 0..n-1)
    X_subq = np.empty((len(run.stages), P.SUBQ_DIM))
    X_qs = np.empty((len(run.stages), P.QS_DIM))
    for ids, est, obs in plan.groups:
        conf_rows = [0] * len(ids)   # the one configuration, once per stage
        srs = [run.stages[i] for i in ids]
        # subQ: compile-time view, estimated stats, uniform/no-contention
        X_subq[ids] = est.subq_rows(U_full[conf_rows], M_nat[conf_rows])
        # QS: runtime view, true stats, physical algorithm, θp dropped
        X_qs[ids] = obs.qs_rows([sr.metrics.join_alg for sr in srs], U_qs[conf_rows],
                                M_nat[conf_rows],
                                np.array([P.observed_gamma(sr) for sr in srs]))
    rows: list[dict] = []

    def add(kind: str, sq_id: int, x: np.ndarray, latency: float, io_mb: float) -> None:
        rows.append(dict(
            kind=kind, benchmark=benchmark, template=template, variant=variant,
            conf_id=conf_id, sq_id=sq_id, feats=x.tolist(),
            latency=latency, io_mb=io_mb))

    for sq_id, sr in run.stages.items():
        io_mb = sr.io_bytes / 1024**2
        add("subq", sq_id, X_subq[sq_id], sr.analytical_latency_s, io_mb)
        add("qs", sq_id, X_qs[sq_id], sr.analytical_latency_s, io_mb)
    # LQP̄ (whole collapsed plan; end-to-end latency and IO)
    add("lqp", -1, P.lqp_rows(plan.dag, plan.lqp_emb, U_full, run.stages.values())[0],
        run.latency_s, run.io_gb * 1024.0)
    return rows


def task_grid(benchmark: str, templates: list[str], n_variants: int,
              n_confs: int, *, seed: int) -> pd.DataFrame:
    """The (template, variant, conf) fan-out as a pandas frame."""
    import pandas as pd

    ids = [k.kid for k in ALL_KNOBS]
    confs = lhs_sample(n_confs, ids, seed=seed)
    recs = []
    for t in templates:
        for v in range(n_variants):
            for ci, conf in enumerate(confs):
                recs.append(dict(benchmark=benchmark, template=t, variant=v,
                                 conf_id=ci, conf_json=json.dumps(conf)))
    return pd.DataFrame(recs)


def _ordered_grid(spark, grid: pd.DataFrame):
    """The task grid shuffled ``ORDER_PARTITIONS`` ways, each row tagged with
    its place in that order, on ``min(ORDER_PARTITIONS, defaultParallelism)``
    partitions.

    The tag is taken on the shuffle's side of the ``coalesce``, so it encodes
    (shuffle partition, row within it). The coalescer groups shuffle
    partitions by locality, not contiguously, so only the tag keeps the order.
    """
    import pyspark.sql.functions as F

    width = min(ORDER_PARTITIONS, spark.sparkContext.defaultParallelism)
    return (spark.createDataFrame(grid).repartition(ORDER_PARTITIONS)
            .withColumn("tag", F.monotonically_increasing_id())
            .coalesce(width))


def generate_traces_spark(spark, benchmark: str, templates: list[str], *,
                          n_variants: int, n_confs: int, seed: int) -> pd.DataFrame:
    """Distribute trace generation over Spark; returns the collected traces.

    The rows come in the grid's order after the ``ORDER_PARTITIONS``-way
    shuffle. ``split_traces`` permutes rows by position, so this order fixes
    the trained models. The Python stage runs on one task per core, not on
    the 64 shuffle tasks, because a 64-task ``mapInPandas`` spends seconds
    starting tasks. Every output row carries its grid row's tag, and a
    stable sort on the tag gives back the 64-way order, each task's rows in
    ``trace_rows`` order.
    """
    grid = task_grid(benchmark, templates, n_variants, n_confs, seed=seed)

    def worker(batches):
        import pandas as pd

        for pdf in batches:
            out: list[dict] = []
            for rec in pdf.itertuples(index=False):
                out.extend(dict(row, tag=rec.tag) for row in trace_rows(
                    rec.benchmark, rec.template, int(rec.variant),
                    json.loads(rec.conf_json), int(rec.conf_id)))
            yield pd.DataFrame(out, columns=[*TRACE_COLUMNS, "tag"])

    traces = _ordered_grid(spark, grid).mapInPandas(
        worker, schema=f"{TRACE_SCHEMA}, tag long").toPandas()
    return (traces.sort_values("tag", kind="stable").drop(columns="tag")
            .reset_index(drop=True))


def split_traces(traces: pd.DataFrame, kind: str):
    """8:1:1 split of one trace kind into (X, y_lat, y_io) triples."""
    sub = traces[traces["kind"] == kind].reset_index(drop=True)
    X = np.stack(sub["feats"].to_numpy())
    y_lat = sub["latency"].to_numpy(dtype=np.float64)
    y_io = sub["io_mb"].to_numpy(dtype=np.float64)
    idx = np.random.default_rng(SPLIT_SEED).permutation(len(sub))
    n_tr = int(FRAC_TRAIN * len(sub))
    n_va = int(FRAC_VAL * len(sub))
    tr, va, te = idx[:n_tr], idx[n_tr:n_tr + n_va], idx[n_tr + n_va:]
    return ((X[tr], y_lat[tr], y_io[tr]), (X[va], y_lat[va], y_io[va]),
            (X[te], y_lat[te], y_io[te]))
