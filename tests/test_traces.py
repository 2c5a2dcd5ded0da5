"""Unit tests for trace generation (local core + Spark pipeline)."""
import json

import numpy as np
import pandas as pd
import pytest

from repro.core.plan import partition_subqs
from repro.core.workloads import TPCH_QUERIES, build_query
from repro.model import predictor as P
from repro.model.features import local_edges
from repro.model.gtn import GTNEmbedder
from repro.model.traces import (ORDER_PARTITIONS, TRACE_COLUMNS, TRACE_SCHEMA,
                                _ordered_grid, generate_traces_spark, plan_features,
                                split_traces, task_grid, trace_rows)
from repro.params import FULL_IDS, default_conf, lhs_sample
from repro.simspark.executor import run_query


@pytest.fixture(scope="module")
def rows():
    return trace_rows("tpch", "q3", 0, default_conf(), 0)


def test_row_counts(rows):
    dag = partition_subqs(build_query("tpch", "q3", sf=100.0))
    kinds = pd.Series([r["kind"] for r in rows]).value_counts()
    assert kinds["subq"] == dag.n_subqs()
    assert kinds["qs"] == dag.n_subqs()
    assert kinds["lqp"] == 1


def test_feature_dims(rows):
    for r in rows:
        want = {"subq": P.SUBQ_DIM, "qs": P.QS_DIM, "lqp": P.LQP_DIM}[r["kind"]]
        assert len(r["feats"]) == want, r["kind"]


def test_labels_positive(rows):
    for r in rows:
        assert r["latency"] > 0
        assert r["io_mb"] > 0


def test_lqp_label_is_query_latency(rows):
    dag = partition_subqs(build_query("tpch", "q3", sf=100.0))
    from repro.simspark.executor import run_query
    run = run_query(dag, default_conf(), noise_seed=0 * 7919 + 0)
    lqp = next(r for r in rows if r["kind"] == "lqp")
    assert lqp["latency"] == pytest.approx(run.latency_s)


def test_rows_deterministic():
    a = trace_rows("tpch", "q6", 1, default_conf(), 3)
    b = trace_rows("tpch", "q6", 1, default_conf(), 3)
    assert a[0]["latency"] == b[0]["latency"]
    np.testing.assert_allclose(a[0]["feats"], b[0]["feats"])


@pytest.mark.parametrize("benchmark,template", [("tpch", "q3"), ("tpch", "q9"),
                                                ("tpcds", "q25")])
def test_two_embeds_per_stage_shape_plus_one_for_the_plan(monkeypatch, fresh_plan_memo,
                                                          benchmark, template):
    """A plan's stages are embedded with one GTN forward per stage shape
    and statistics view, the whole plan with one more, and a second
    configuration of the plan embeds nothing."""
    calls = []
    embed = GTNEmbedder.embed

    def spy(self, X, edges):
        calls.append(X.shape)
        return embed(self, X, edges)

    monkeypatch.setattr(GTNEmbedder, "embed", spy)
    dag = partition_subqs(build_query(benchmark, template, variant=1))
    trace_rows(benchmark, template, 1, default_conf(), 0)
    n_shapes = len({(len(sq.op_ids), tuple(local_edges(dag, sq.op_ids)))
                    for sq in dag.subqs.values()})
    assert n_shapes > 1
    assert len(calls) == 2 * n_shapes + 1
    # the stage forwards stack every stage of a shape; the plan's is one graph
    assert sum(shape[0] for shape in calls[:-1]) == 2 * dag.n_subqs()
    assert len(calls[-1]) == 2 and calls[-1][0] == len(dag.plan.ops)
    calls.clear()
    trace_rows(benchmark, template, 1, lhs_sample(1, FULL_IDS, seed=1)[0], 1)
    assert calls == []


def _reference_rows(benchmark, template, variant, conf, conf_id):
    """Trace rows built one stage at a time from a fresh plan: each view of
    each stage from its own single-stage ``StageFeatures.of_stages`` build,
    one-row ``subq_rows`` and ``qs_rows``, then the ``lqp_rows`` of the
    plan."""
    dag = partition_subqs(build_query(benchmark, template, variant=variant))
    run = run_query(dag, conf, noise_seed=conf_id * 7919 + variant)
    U_full, M_nat = P.encode_confs([conf], P.FULL_IDS)
    U_qs = U_full[:, P.QS_COLS]
    rows = []
    for sq_id, sr in run.stages.items():
        io_mb = sr.io_bytes / 1024**2
        est, obs = (P.StageFeatures.of_stages(dag, [sq_id], true_stats=t)[sq_id]
                    for t in (False, True))
        rows.append(("subq", sq_id, est.subq_rows(U_full, M_nat)[0],
                     sr.analytical_latency_s, io_mb))
        rows.append(("qs", sq_id, obs.qs_rows([sr.metrics.join_alg], U_qs, M_nat,
                                              P.observed_gamma(sr))[0],
                     sr.analytical_latency_s, io_mb))
    rows.append(("lqp", -1, P.lqp_rows(dag, P.plan_embedding(dag), U_full,
                                       run.stages.values())[0],
                 run.latency_s, run.io_gb * 1024.0))
    return rows


def _as_tuples(rows, template, conf_id):
    for r in rows:
        assert (r["benchmark"], r["template"], r["variant"], r["conf_id"]) == (
            "tpch", template, 1, conf_id)
    return [(r["kind"], r["sq_id"], np.asarray(r["feats"]), r["latency"], r["io_mb"])
            for r in rows]


@pytest.mark.parametrize("template", TPCH_QUERIES)
def test_rows_equal_per_stage_reference(template, fresh_plan_memo):
    """A task's rows, from a cold memo and from a memo the other
    configuration used, equal the per-stage reference exactly: same rows in
    the same order, the same feature bits, latency and IO."""
    confs = lhs_sample(2, FULL_IDS, seed=23)

    def rows(conf_id):
        return _as_tuples(trace_rows("tpch", template, 1, confs[conf_id], conf_id),
                          template, conf_id)

    cold = []
    for conf_id in (0, 1):
        plan_features.cache_clear()
        cold.append(rows(conf_id))
    warm = [rows(0), rows(1)]   # memo hits, each after the other configuration
    assert plan_features.cache_info().hits == 2
    for conf_id, conf in enumerate(confs):
        ref = _reference_rows("tpch", template, 1, conf, conf_id)
        for got in (cold[conf_id], warm[conf_id]):
            assert len(got) == len(ref)
            for (kind, sq_id, x, lat, io), (rkind, rsq, rx, rlat, rio) in zip(got, ref):
                assert (kind, sq_id) == (rkind, rsq)
                assert np.array_equal(x, rx), (kind, sq_id)
                assert lat == rlat and io == rio


def test_task_grid():
    g = task_grid("tpch", ["q1", "q3"], 2, 3, seed=0)
    assert len(g) == 2 * 2 * 3
    assert set(g.columns) == {"benchmark", "template", "variant", "conf_id", "conf_json"}
    conf = json.loads(g.iloc[0]["conf_json"])
    assert len(conf) == 19


def test_split_traces_proportions():
    grid = task_grid("tpch", ["q1", "q6"], 2, 5, seed=1)
    rows = []
    for rec in grid.itertuples(index=False):
        rows.extend(trace_rows(rec.benchmark, rec.template, int(rec.variant),
                               json.loads(rec.conf_json), int(rec.conf_id)))
    tr = pd.DataFrame(rows)
    (Xtr, yl, yi), (Xv, _, _), (Xte, _, _) = split_traces(tr, "subq")
    n = len(Xtr) + len(Xv) + len(Xte)
    assert len(Xtr) == int(0.8 * n)
    assert Xtr.shape[1] == P.SUBQ_DIM
    assert len(yl) == len(yi) == len(Xtr)


def test_trace_schema_fields():
    assert "feats array<double>" in TRACE_SCHEMA


def _feats_as_bytes(traces):
    return traces.assign(feats=[np.asarray(f, dtype=np.float64).tobytes()
                                for f in traces["feats"]])


def test_generate_traces_spark_matches_local(spark):
    """Every Spark row equals the local ``trace_rows`` row of the same task,
    in the same order within the task: keys, labels and feature bits."""
    grid = task_grid("tpch", ["q6", "q3"], 1, 2, seed=5)
    tr = generate_traces_spark(spark, "tpch", ["q6", "q3"], n_variants=1, n_confs=2,
                               seed=5)
    keys = ["template", "variant", "conf_id"]
    by_task = dict(list(tr.groupby(keys, sort=False)))
    assert set(by_task) == set(grid[keys].itertuples(index=False, name=None))
    for rec in grid.itertuples(index=False):
        local = pd.DataFrame(trace_rows(rec.benchmark, rec.template, int(rec.variant),
                                        json.loads(rec.conf_json), int(rec.conf_id)))
        got = by_task[(rec.template, rec.variant, rec.conf_id)].reset_index(drop=True)
        # Spark's int columns are int32; values and float bits must match
        pd.testing.assert_frame_equal(_feats_as_bytes(got), _feats_as_bytes(local),
                                      check_dtype=False, check_exact=True)


def reference_generate(spark, benchmark, templates, *, n_variants, n_confs, seed):
    """The trace pipeline with its Python stage on the 64 shuffle tasks:
    the row order ``generate_traces_spark`` must keep."""
    grid = task_grid(benchmark, templates, n_variants, n_confs, seed=seed)

    def worker(batches):
        for pdf in batches:
            out = []
            for rec in pdf.itertuples(index=False):
                out.extend(trace_rows(rec.benchmark, rec.template, int(rec.variant),
                                      json.loads(rec.conf_json), int(rec.conf_id)))
            yield pd.DataFrame(out) if out else pd.DataFrame(columns=TRACE_COLUMNS)

    return spark.createDataFrame(grid).repartition(64).mapInPandas(
        worker, schema=TRACE_SCHEMA).toPandas()


# (templates, variants, configurations): 72 tasks, more than the shuffle's
# partitions; and 2 tasks, which leave shuffle partitions and (on more than
# two cores) coalesced partitions empty
ORACLE_GRIDS = [pytest.param(["q1", "q6", "q3"], 2, 12, id="72-tasks"),
                pytest.param(["q6", "q12"], 1, 1, id="2-tasks")]


@pytest.mark.parametrize("templates,n_variants,n_confs", ORACLE_GRIDS)
def test_generate_traces_spark_keeps_64_way_order(spark, templates, n_variants, n_confs):
    """The traces equal the 64-task pipeline's, row for row and bit for bit,
    whatever the number of Spark cores."""
    kw = dict(n_variants=n_variants, n_confs=n_confs, seed=11)
    got = generate_traces_spark(spark, "tpch", templates, **kw)
    ref = reference_generate(spark, "tpch", templates, **kw)
    assert len(got) == len(ref) > 0
    pd.testing.assert_frame_equal(_feats_as_bytes(got), _feats_as_bytes(ref),
                                  check_exact=True)
    assert isinstance(got.index, pd.RangeIndex)


@pytest.mark.parametrize("templates,n_variants,n_confs", ORACLE_GRIDS)
def test_python_stage_runs_one_task_per_core(spark, templates, n_variants, n_confs):
    """The frame fed to ``mapInPandas`` has one partition per core (at most
    64), while its tags come from the 64-way shuffle: they name up to 64
    shuffle partitions, and sorting on them gives the shuffle's row order."""
    grid = task_grid("tpch", templates, n_variants, n_confs, seed=11)
    width = min(ORDER_PARTITIONS, spark.sparkContext.defaultParallelism)
    staged = _ordered_grid(spark, grid)
    assert staged.rdd.getNumPartitions() == width
    if len(grid) < width:
        assert 0 in staged.rdd.glom().map(len).collect()
    rows = staged.toPandas()
    shuffle_parts = set(rows["tag"].to_numpy() >> 33)   # monotonically_increasing_id layout
    assert max(shuffle_parts) < ORDER_PARTITIONS
    if len(grid) > ORDER_PARTITIONS:
        assert len(shuffle_parts) > width
    shuffled = spark.createDataFrame(grid).repartition(ORDER_PARTITIONS).toPandas()
    pd.testing.assert_frame_equal(
        rows.sort_values("tag", kind="stable").drop(columns="tag").reset_index(drop=True),
        shuffled, check_exact=True)
