"""Tests for the table-reproduction harnesses (tiny budgets, fake models)."""
import os

import pytest

from repro.core.workloads import benchmark_queries, build_query
from repro.experiments import common, expt6
from repro.experiments.expt6 import format_expt6, run_expt6
from repro.experiments.table3 import PAPER_TABLE3
from repro.experiments.table4 import PAPER_TABLE4, format_table4, run_table4
from repro.experiments.table5 import PAPER_TABLE5, PREFS, format_table5, run_table5


@pytest.fixture(scope="module", autouse=True)
def _tmp_results(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(common, "RESULTS_DIR", str(tmp_path_factory.mktemp("results")))
        yield


QUERIES = ["q1", "q3", "q14"]


@pytest.fixture(scope="module")
def compiled(fake_suite):
    """One compile set shared by every table below, as in ``jobs/run.py``."""
    return common.compile_benchmark("tpch", fake_suite, QUERIES)


@pytest.fixture(scope="module")
def table4(compiled):
    return run_table4(compiled)


@pytest.fixture(scope="module")
def table5(compiled):
    return run_table5(compiled)


@pytest.fixture(scope="module")
def expt6_res(compiled):
    return run_expt6(compiled)


def test_compile_benchmark(compiled, fake_suite):
    assert compiled.benchmark == "tpch" and compiled.suite is fake_suite
    assert list(compiled.queries) == QUERIES
    for q, (res, obj) in compiled.queries.items():
        assert obj.dag.plan.name == build_query("tpch", q).name
        assert len(res.F) >= 1


def test_table4_structure(table4):
    res = table4
    assert set(res["summary"]) == {"mo-ws", "hmooc3", "hmooc3+"}
    for m, s in res["summary"].items():
        assert 0.0 <= s["cov1"] <= 1.0
        assert s["avg_solve"] > 0
        assert s["max_solve"] >= s["avg_solve"]
    assert len(res["queries"]) == 3
    assert 0.0 <= res["request_prune_rate"] <= 1.0
    # persisted
    assert os.path.exists(common.results_path("table4_tpch.json"))


def test_table4_format_contains_paper_numbers(table4):
    txt = format_table4(table4)
    assert "Table 4 — TPCH" in txt
    assert "59%" in txt  # paper's HMOOC3 total reduction
    assert "Coverage (1s)" in txt


def test_table4_solving_time_budget(table4):
    """HMOOC must fit the 1-2 s cloud budget on every query. (The
    HMOOC-faster-than-MO-WS ordering is gated by ``check_table4`` with the
    real trained models, whose inference cost dominates MO-WS's 10k-sample
    sweeps; the fake analytic models here are too cheap to show it.)"""
    assert table4["summary"]["hmooc3"]["max_solve"] < 2.0
    assert table4["summary"]["hmooc3"]["cov2"] == 1.0


def test_table5_structure(table5):
    res = table5
    assert len(res["prefs"]) == len(PREFS)
    for pref, row in res["prefs"].items():
        assert set(row) == {"so-fw", "hmooc3+"}
        for m, (dl, dc) in row.items():
            assert -1.0 <= dl < 10.0
    txt = format_table5(res)
    assert "Table 5 — TPCH" in txt


def test_expt6_structure(expt6_res):
    res = expt6_res
    assert set(res["methods"]) == {"hmooc3", "ws-fine", "evo-fine", "pf-fine",
                                   "ws-query", "evo-query", "pf-query"}
    for m, s in res["methods"].items():
        assert 0.0 <= s["hv"] <= 1.21  # normalized HV w.r.t. (1.1, 1.1)
        assert s["avg_solve"] > 0
    txt = format_expt6(res)
    assert "hypervolume" in txt


def test_expt6_takes_its_subset_in_queries_order(fake_suite):
    cs = common.compile_benchmark("tpch", fake_suite, ["q14", "q2", "q3"])
    res = run_expt6(cs)
    assert list(res["per_query"]) == ["q3", "q14"]  # q2 is not in expt6.QUERIES


def test_tables_share_one_compile(compiled, table4, expt6_res):
    """Table 4 and Expt 6 report the same HMOOC3 solve: there is one."""
    for row in table4["queries"]:
        q = row["query"]
        res, _ = compiled.queries[q]
        assert row["methods"]["hmooc3"]["solve"] == res.solving_time_s
        assert expt6_res["per_query"][q]["hmooc3"]["solve"] == res.solving_time_s


def test_paper_reference_tables_complete():
    for bm in ("tpch", "tpcds"):
        assert set(PAPER_TABLE3[bm]) == {"subq", "qs", "lqp"}
        assert set(PAPER_TABLE4[bm]) == {"mo-ws", "hmooc3", "hmooc3+"}
        assert set(PAPER_TABLE5[bm]) == set(PREFS)
        assert set(expt6.QUERIES[bm]) <= set(benchmark_queries(bm))


def test_results_path_creates_dirs(tmp_path):
    p = common.results_path("sub", "file.json")
    assert os.path.isdir(os.path.dirname(p))


def test_save_json_numpy_types():
    import numpy as np
    path = common.save_json({"a": np.int64(3), "b": np.float32(0.5),
                             "c": np.arange(3)}, "x.json")
    import json
    with open(path) as f:
        d = json.load(f)
    assert d == {"a": 3, "b": 0.5, "c": [0, 1, 2]}


def test_cached_artifacts_reused_while_their_stamp_matches(tmp_path, monkeypatch, capsys):
    import pandas as pd

    from repro.model.mlp import MLPRegressor
    from repro.model.predictor import ModelSuite, TargetModels

    monkeypatch.setattr(common, "RESULTS_DIR", str(tmp_path))
    made = {"traces": 0, "models": 0}

    def fake_generate(spark, benchmark, templates, **kw):
        made["traces"] += 1
        return pd.DataFrame({"kind": ["subq"], "latency": [1.0]})

    def fake_train(traces):
        made["models"] += 1
        tm = TargetModels(MLPRegressor(3, hidden=(2,)), MLPRegressor(3, hidden=(2,)))
        return ModelSuite(tm, tm, tm)

    monkeypatch.setattr(common, "generate_traces_spark", fake_generate)
    monkeypatch.setattr(common, "train_suite", fake_train)
    common.get_suite(None, "tpch")
    common.get_suite(None, "tpch")
    common.get_traces(None, "tpch")
    assert made == {"traces": 1, "models": 1}
    assert "regenerating" not in capsys.readouterr().out

    # a source or constant change alters the key: both artifacts are rebuilt
    monkeypatch.setattr(common, "artifact_key", lambda: "0" * 64)
    common.get_suite(None, "tpch")
    assert made == {"traces": 2, "models": 2}
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == [common.models_dir("tpch"),
                                                    common.traces_path("tpch")]
    common.get_suite(None, "tpch")
    assert made == {"traces": 2, "models": 2}

    # traces cached by code that wrote no stamp are rebuilt as well
    os.remove(common.traces_path("tpch") + ".stamp")
    common.get_traces(None, "tpch")
    assert made["traces"] == 3


def test_artifact_key_covers_sources_and_constants(monkeypatch):
    key = common.artifact_key()
    assert key == common.artifact_key.__wrapped__()
    monkeypatch.setattr(common, "N_CONFS", common.N_CONFS + 1)
    assert common.artifact_key.__wrapped__() != key


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
NPROC = os.cpu_count() or 1


@pytest.mark.parametrize("env, workers", [
    ({"OPENBLAS_NUM_THREADS": "1"}, min(NPROC, 6)),
    ({"OPENBLAS_NUM_THREADS": str(NPROC)}, 1),
    ({"OMP_NUM_THREADS": str(NPROC)}, 1),
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": str(NPROC)}, min(NPROC, 6)),
    ({"OPENBLAS_NUM_THREADS": str(NPROC), "OMP_NUM_THREADS": "1"}, 1),
], ids=["openblas-1", "openblas-nproc", "omp-nproc", "unset",
        "openblas-over-omp", "openblas-nproc-over-omp-1"])
def test_fit_workers_use_the_cores_blas_leaves_idle(monkeypatch, env, workers):
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert common.fit_workers() == workers


def test_concurrent_suite_equals_sequential_fits(monkeypatch, tiny_traces):
    """The six fits on a pool give the models a sequential loop over
    ``train_target`` gives, byte for byte."""
    from repro.model.predictor import train_target
    from repro.model.traces import split_traces

    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert common.fit_workers() == min(NPROC, 6)
    suite = common.train_suite(tiny_traces, epochs=4, hidden=(32, 32), seed=5)
    for kind in ("subq", "qs", "lqp"):
        (X, y_lat, y_io), _, _ = split_traces(tiny_traces, kind)
        tm = getattr(suite, kind)
        for got, y, seed in ((tm.latency, y_lat, 5), (tm.io, y_io, 6)):
            ref = train_target(X, y, epochs=4, hidden=(32, 32), seed=seed)
            for a, b in zip([*got.W, *got.b, got.x_mean, got.x_std],
                            [*ref.W, *ref.b, ref.x_mean, ref.x_std]):
                assert a.tobytes() == b.tobytes()
