"""Training-trace generation: parametric queries × LHS configs → features.

Mirrors the paper's data-collection protocol (§6 "Workloads"): benchmark
templates are treated as templates for parametric queries; each instance
runs once under an LHS-sampled configuration; every run yields one row per
subQ (compile-time view), one per QS (runtime view) and one for the whole
collapsed plan (LQP̄).

``generate_traces_spark`` distributes the fan-out over Spark: a DataFrame
front over the task grid, then a Python stage that maps ``task_record``
over its RDD. ``trace_rows`` is the per-task row builder (and the
unit-testable core); ``task_record`` packs the same rows into one compact
record per task, its features and labels in one float64 buffer.
The grid is shuffled ``ORDER_PARTITIONS`` ways only to fix the order of the
returned rows, which ``split_traces`` permutes by position into one
seeded 8:1:1 split. Each grid row is tagged with its place in that order;
the Python stage then runs on one task per Spark core, and the driver
sorts the records back on the tag. The first Python job of a session pays
for starting the workers, so a second driver thread runs an empty job of
as many tasks while the JVM plans and runs the shuffle, and the stage
finds the workers started, with this module imported.

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
imports, imports it, and because the Spark workers import it to run
``task_record``, which needs neither pandas nor pyarrow. ``task_grid`` and
the driver's unpacking of the records into a frame import pandas when they
run.
"""
from __future__ import annotations

import functools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from repro.core.plan import SubQDag, partition_subqs
from repro.core.workloads import build_query
from repro.model import predictor as P
from repro.params import lhs_sample
from repro.simspark.executor import run_query

if TYPE_CHECKING:
    import pandas as pd

# The trace frame's columns and the dtypes they are cast to: each row's
# keys, its feature vector (one float64 array per cell) and its labels
TRACE_SCHEMA = {"kind": object, "benchmark": object, "template": object,
                "variant": np.int32, "conf_id": np.int32, "sq_id": np.int32,
                "feats": object, "latency": np.float64, "io_mb": np.float64}
# Feature columns of each trace row kind
_FEAT_DIMS = {"subq": P.SUBQ_DIM, "qs": P.QS_DIM, "lqp": P.LQP_DIM}

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


def _rows(benchmark: str, template: str, variant: int, conf: dict, conf_id: int):
    """(kind, sq_id, features, latency, IO MB) of each trace row of one run,
    in ``trace_rows`` order: each stage's subQ then QS row, in run order,
    then the LQP̄ row."""
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
    for sq_id, sr in run.stages.items():
        io_mb = sr.io_bytes / 1024**2
        yield "subq", sq_id, X_subq[sq_id], sr.analytical_latency_s, io_mb
        yield "qs", sq_id, X_qs[sq_id], sr.analytical_latency_s, io_mb
    # LQP̄ (whole collapsed plan; end-to-end latency and IO)
    yield ("lqp", -1, P.lqp_rows(plan.dag, plan.lqp_emb, U_full, run.stages.values())[0],
           run.latency_s, run.io_gb * 1024.0)


def trace_rows(benchmark: str, template: str, variant: int, conf: dict,
               conf_id: int) -> list[dict]:
    """All trace rows for one (parametric query, configuration) run, on the
    plan ``build_query`` builds at its default scale."""
    return [dict(kind=kind, benchmark=benchmark, template=template, variant=variant,
                 conf_id=conf_id, sq_id=sq_id, feats=x.tolist(), latency=latency,
                 io_mb=io_mb)
            for kind, sq_id, x, latency, io_mb in _rows(benchmark, template, variant,
                                                        conf, conf_id)]


def task_record(task) -> tuple:
    """One task's trace rows as the Spark stage ships them: ``(tag,
    benchmark, template, variant, conf_id, kinds, sq_ids, buffer)``. ``task``
    is a tagged grid row; ``kinds`` and ``sq_ids`` name its rows in
    ``trace_rows`` order, and ``buffer`` holds, as float64, every row's
    features in that order and then every row's (latency, IO MB)."""
    rows = list(_rows(task.benchmark, task.template, int(task.variant),
                      json.loads(task.conf_json), int(task.conf_id)))
    kinds, sq_ids, feats, latency, io_mb = zip(*rows)
    buf = np.concatenate([*feats, np.column_stack([latency, io_mb]).ravel()])
    return (task.tag, task.benchmark, task.template, int(task.variant), int(task.conf_id),
            kinds, sq_ids, buf.tobytes())


def task_grid(benchmark: str, templates: list[str], n_variants: int,
              n_confs: int, *, seed: int) -> pd.DataFrame:
    """The (template, variant, conf) fan-out as a pandas frame."""
    import pandas as pd

    confs = lhs_sample(n_confs, P.FULL_IDS, seed=seed)
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

    return (spark.createDataFrame(grid).repartition(ORDER_PARTITIONS)
            .withColumn("tag", F.monotonically_increasing_id())
            .coalesce(_stage_width(spark.sparkContext)))


def _stage_width(sc) -> int:
    """Tasks of the Python stage: one per core, at most ``ORDER_PARTITIONS``."""
    return min(ORDER_PARTITIONS, sc.defaultParallelism)


def generate_traces_spark(spark, benchmark: str, templates: list[str], *,
                          n_variants: int, n_confs: int, seed: int) -> pd.DataFrame:
    """Distribute trace generation over Spark; returns the collected traces.

    The rows come in the grid's order after the ``ORDER_PARTITIONS``-way
    shuffle. ``split_traces`` permutes rows by position, so this order fixes
    the trained models. The Python stage maps ``task_record`` over the
    tagged grid's RDD, one task per core, so the workers need neither
    pandas nor pyarrow. While the JVM plans and runs the shuffle, a second
    thread runs an empty job of as many tasks whose function is that same
    ``task_record``, so the Python workers start and import this module
    meanwhile and the stage reuses them. The driver sorts the records on
    the tag, which gives back the 64-way order, and unpacks each task's
    rows, in ``trace_rows`` order, into a frame of ``TRACE_SCHEMA``.
    """
    sc = spark.sparkContext
    with ThreadPoolExecutor(max_workers=1) as pool:
        warm = pool.submit(
            lambda: sc.parallelize([], _stage_width(sc)).map(task_record).collect())
        try:
            grid = task_grid(benchmark, templates, n_variants, n_confs, seed=seed)
            records = _ordered_grid(spark, grid).rdd.map(task_record).collect()
        finally:
            warm.result()
    return _trace_frame(sorted(records, key=itemgetter(0)))


def _trace_frame(records: list[tuple]) -> pd.DataFrame:
    """The trace rows of ``task_record`` records, in record order."""
    import pandas as pd

    keys = {c: [] for c in ("kind", "benchmark", "template", "variant", "conf_id", "sq_id")}
    feats, labels = [], []
    for _tag, benchmark, template, variant, conf_id, kinds, sq_ids, buf in records:
        values = np.frombuffer(buf)
        ends = np.cumsum([_FEAT_DIMS[k] for k in kinds])
        feats += np.split(values[:ends[-1]], ends[:-1])
        labels.append(values[ends[-1]:])
        for col, v in (("benchmark", benchmark), ("template", template),
                       ("variant", variant), ("conf_id", conf_id)):
            keys[col] += [v] * len(kinds)
        keys["kind"] += kinds
        keys["sq_id"] += sq_ids
    latency, io_mb = np.concatenate(labels).reshape(-1, 2).T
    return pd.DataFrame({**keys, "feats": feats, "latency": latency, "io_mb": io_mb},
                        columns=list(TRACE_SCHEMA)).astype(TRACE_SCHEMA)


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
