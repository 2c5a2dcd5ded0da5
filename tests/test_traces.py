"""Unit tests for trace generation (local core + Spark pipeline)."""
import json

import numpy as np
import pandas as pd
import pytest

from repro.core.plan import partition_subqs
from repro.core.workloads import build_query
from repro.model import predictor as P
from repro.model.gtn import GTNEmbedder
from repro.model.traces import (TRACE_SCHEMA, generate_traces_spark,
                                split_traces, task_grid, trace_rows)
from repro.params import default_conf


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


def test_one_embed_per_stage_plus_one_for_the_plan(monkeypatch):
    """Both statistics views of a stage come from one GTN forward."""
    calls = []
    embed = GTNEmbedder.embed

    def spy(self, X, edges):
        calls.append(X.shape)
        return embed(self, X, edges)

    monkeypatch.setattr(GTNEmbedder, "embed", spy)
    trace_rows("tpch", "q3", 0, default_conf(), 0)
    n_stages = partition_subqs(build_query("tpch", "q3", sf=100.0)).n_subqs()
    assert len(calls) == n_stages + 1
    assert all(len(shape) == 3 and shape[0] == 2 for shape in calls[:-1])


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


def test_generate_traces_spark_matches_local(spark):
    tr = generate_traces_spark(spark, "tpch", ["q6"], n_variants=1, n_confs=2,
                               seed=5)
    dag = partition_subqs(build_query("tpch", "q6", sf=100.0))
    # 2 runs x (2 rows per subQ + 1 lqp row)
    assert len(tr) == 2 * (2 * dag.n_subqs() + 1)
    assert set(tr["kind"]) == {"subq", "qs", "lqp"}
    # feats survive the Arrow roundtrip with the right dims
    sub = tr[tr["kind"] == "subq"].iloc[0]
    assert len(sub["feats"]) == P.SUBQ_DIM
