"""Unit tests for the adaptive (AQE) query executor."""
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import repro

from repro.core.plan import partition_subqs
from repro.core.workloads import build_query
from repro.params import GB, MB, default_conf
from repro.simspark.executor import (StageRun, compile_time_join_algs, execute,
                                     join_sides, run_query)


@pytest.fixture(scope="module")
def dag():
    return partition_subqs(build_query("tpch", "q3", sf=10.0))


def test_run_basics(dag):
    r = run_query(dag, default_conf(), noise_seed=0)
    assert r.latency_s > 0 and r.cost_usd > 0 and r.io_gb > 0
    assert r.analytical_latency_s > 0
    assert set(r.stages) == set(dag.subqs)


def test_noise_deterministic(dag):
    a = run_query(dag, default_conf(), noise_seed=3)
    b = run_query(dag, default_conf(), noise_seed=3)
    assert a.latency_s == b.latency_s
    c = run_query(dag, default_conf(), noise_seed=4)
    assert c.latency_s != a.latency_s


def test_noise_independent_of_hash_seed():
    """The same noise seed gives the same run in any process: the noise
    stream, and the noise key an execution stores for its samples, must
    not depend on Python's per-process string-hash salt."""
    code = ("from repro.core.plan import partition_subqs\n"
            "from repro.core.workloads import build_query\n"
            "from repro.params import default_conf\n"
            "from repro.simspark.executor import execute, run_query\n"
            "dag = partition_subqs(build_query('tpch', 'q3', sf=10.0))\n"
            "r = run_query(dag, default_conf(), noise_seed=3)\n"
            "x = execute(dag, default_conf())\n"
            "print(repr((r.latency_s, r.cost_usd, x.noise_key,\n"
            "            [(s.latency_s, s.cost_usd) for s in (x.sample(3), x.sample(4))])))\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    outs = {subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": src,
                                           "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")}
    assert len(outs) == 1, outs


def test_noiseless_mode(dag):
    a = execute(dag, default_conf())
    b = execute(dag, default_conf())
    assert a.latency_s == b.latency_s
    assert a.sample(1).latency_s != a.sample(2).latency_s


_NOISE_STAGE = ("analytical_latency_s", "io_bytes")
_NOISE_RUN = ("latency_s", "analytical_latency_s", "io_gb", "cost_usd", "stages")


def test_sample_keeps_noise_free_fields():
    """A sample keeps every noise-free field of its execution and only
    scales per-stage task-seconds and IO and the query latency; sampling
    is ``run_query`` and leaves the execution as it was."""
    from repro.core.workloads import benchmark_queries
    for bm in ("tpch", "tpcds"):
        for q in benchmark_queries(bm):
            d = partition_subqs(build_query(bm, q))
            x = execute(d, default_conf())
            before = asdict(x)
            for seed in (0, 7, 1001):
                r = x.sample(seed)
                assert asdict(r) == asdict(run_query(d, default_conf(), noise_seed=seed))
                assert r is not x and r.stages is not x.stages
                rd = asdict(r)
                assert ({k: v for k, v in rd.items() if k not in _NOISE_RUN}
                        == {k: v for k, v in before.items() if k not in _NOISE_RUN})
                assert list(r.stages) == list(x.stages)
                for sq_id, s in rd["stages"].items():
                    e = before["stages"][sq_id]
                    assert ({k: v for k, v in s.items() if k not in _NOISE_STAGE}
                            == {k: v for k, v in e.items() if k not in _NOISE_STAGE})
                    # noise multipliers are exp(N(0, 0.12)) and exp(N(0, 0.015))
                    lat = s["analytical_latency_s"] / e["analytical_latency_s"]
                    io = s["io_bytes"] / e["io_bytes"] if e["io_bytes"] else 1.0
                    assert 0.4 < lat < 2.5 and 0.9 < io < 1.1, (bm, q, sq_id)
                assert 0.4 < r.latency_s / x.latency_s < 2.5
                assert r.io_gb * 1024**3 == pytest.approx(
                    sum(s.io_bytes for s in r.stages.values()))
            assert asdict(x) == before, (bm, q)


def test_more_cores_faster_but_pricier(dag):
    small = dict(default_conf(), k1=1, k3=2)
    big = dict(default_conf(), k1=5, k3=16)
    rs = execute(dag, small)
    rb = execute(dag, big)
    assert rb.latency_s < rs.latency_s
    # rate is higher; with the latency floor the cost relation is a tradeoff
    assert rb.cost_usd != rs.cost_usd


def test_analytical_tracks_wall_across_queries():
    """Paper §4.2 / Fig. 5: under the default configuration, analytical
    latency correlates strongly with actual latency across queries
    (Pearson 97.2% on TPC-H)."""
    from repro.core.workloads import benchmark_queries
    ana, wall = [], []
    for i, q in enumerate(benchmark_queries("tpch")):
        d = partition_subqs(build_query("tpch", q, sf=10.0))
        r = run_query(d, default_conf(), noise_seed=i)
        ana.append(r.analytical_latency_s)
        wall.append(r.latency_s)
    corr = np.corrcoef(ana, wall)[0, 1]
    assert corr > 0.9


def test_analytical_positively_associated_across_configs(dag):
    """Across random configurations the association stays positive (wall
    adds straggler/wave effects analytical deliberately excludes)."""
    rng = np.random.default_rng(0)
    from repro.params import ALL_KNOBS
    from tests.conftest import from_vector
    ana, wall = [], []
    for i in range(30):
        conf = from_vector(rng.random(19), [k.kid for k in ALL_KNOBS])
        r = run_query(dag, conf, noise_seed=i)
        ana.append(r.analytical_latency_s)
        wall.append(r.latency_s)
    corr = np.corrcoef(np.log(ana), np.log(wall))[0, 1]
    assert corr > 0.2


def test_aqe_demotes_smj_to_bhj():
    """With a generous runtime threshold and a small true build side, AQE
    converts the compile-time SMJ to BHJ."""
    dag = partition_subqs(build_query("tpch", "q14", sf=10.0))
    conf = dict(default_conf(), s4=512 * MB)
    r = execute(dag, conf)
    join_sq = next(i for i, s in dag.subqs.items() if s.boundary_type == "join")
    bb, pb, br = join_sides(dag, join_sq, true=True)
    if bb <= conf["s4"]:
        assert r.join_algs[join_sq] == "BHJ"


def test_compile_algs_use_estimates(dag):
    from repro.params import split_conf
    _, theta_p, _ = split_conf(default_conf())
    algs = compile_time_join_algs(dag, theta_p)
    joins = [i for i, s in dag.subqs.items() if s.boundary_type == "join"]
    assert set(algs) == set(joins)


def test_stage_gamma_features(dag):
    r = execute(dag, default_conf())
    # q3 has 3 scans at level 1 -> each sees 2 siblings
    scans = [s for s in r.stages.values()
             if dag.subqs[s.sq_id].kind == "scan"]
    assert all(s.n_parallel == 3 for s in scans)
    assert all(s.parallel_tasks >= 0 for s in scans)


def test_request_opportunities_counted(dag):
    r = execute(dag, default_conf())
    # every collapse point exposes every still-pending join
    assert r.lqp_request_opportunities >= dag.n_subqs()
    assert r.qs_request_opportunities == dag.n_subqs()
    assert r.lqp_requests == 0  # no runtime optimizer attached


def test_runtime_opt_hooks_invoked(dag):
    calls = {"lqp": 0, "qs": 0}

    class Spy:
        def on_collapsed_lqp(self, dag_, sq_id, known, theta_p):
            calls["lqp"] += 1
            return None

        def on_query_stage(self, dag_, sq_id, input_bytes, conf):
            calls["qs"] += 1
            return None

    r = execute(dag, default_conf(), runtime_opt=Spy())
    assert calls["lqp"] == dag.n_subqs()
    assert calls["qs"] == dag.n_subqs()
    assert r.lqp_requests == 0 and r.qs_requests == 0


@pytest.mark.parametrize("template", ["q3", "q9", "q18"])
def test_plugin_sees_completed_stages(template):
    """The θp hook of a join stage sees each of the join's inputs as a
    completed stage: ``known`` maps the dep's sq_id to its ``StageRun``."""
    dag = partition_subqs(build_query("tpch", template, sf=10.0))
    seen = []

    class Spy:
        def on_collapsed_lqp(self, dag_, sq_id, known, theta_p):
            if dag_.subqs[sq_id].boundary_type == "join":
                seen.append(sq_id)
                for d in dag_.subqs[sq_id].deps:
                    assert isinstance(known[d], StageRun) and known[d].sq_id == d
            return None

        def on_query_stage(self, *a, **k):
            return None

    execute(dag, default_conf(), runtime_opt=Spy())
    assert sorted(seen) == sorted(i for i, s in dag.subqs.items()
                                  if s.boundary_type == "join")


def test_runtime_theta_p_update_applies():
    """A runtime θp raising s4 must flip a join to BHJ mid-flight."""
    dag = partition_subqs(build_query("tpch", "q14", sf=10.0))
    join_sq = next(i for i, s in dag.subqs.items() if s.boundary_type == "join")
    bb, _, _ = join_sides(dag, join_sq, true=True)

    class ForceBHJ:
        def on_collapsed_lqp(self, dag_, sq_id, known, theta_p):
            if dag_.subqs[sq_id].boundary_type != "join":
                return None
            out = dict(theta_p)
            out["s4"] = bb * 2
            return out

        def on_query_stage(self, *a, **k):
            return None

    base = dict(default_conf(), s4=1.0, s3=1.0)
    r0 = execute(dag, base)
    r1 = execute(dag, base, runtime_opt=ForceBHJ())
    assert r0.join_algs[join_sq] == "SMJ"
    assert r1.join_algs[join_sq] == "BHJ"
    assert r1.lqp_requests >= 1


def test_io_gb_sums_stage_io(dag):
    r = execute(dag, default_conf())
    assert r.io_gb == pytest.approx(
        sum(s.io_bytes for s in r.stages.values()) / GB)


def test_startup_scales_with_executors(dag):
    # compare two configs identical except executor count on a trivial plan
    d1 = dict(default_conf(), k3=2)
    d2 = dict(default_conf(), k3=16)
    r1 = execute(dag, d1)
    r2 = execute(dag, d2)
    # larger cluster has a larger fixed startup; visible only when work is
    # parallelizable enough — assert the component directly instead
    from repro.simspark.costmodel import DEFAULT_COSTS
    assert (DEFAULT_COSTS.startup_base_s + DEFAULT_COSTS.startup_per_exec_s * 16
            > DEFAULT_COSTS.startup_base_s + DEFAULT_COSTS.startup_per_exec_s * 2)
    assert r1.latency_s > 0 and r2.latency_s > 0


@pytest.mark.parametrize("with_plugin", [False, True])
def test_execute_leaves_the_dag_unchanged(with_plugin, fake_suite):
    """Trace generation shares one DAG per plan across all its executions,
    and an adapt run reuses one DAG for six: ``execute`` must change no
    field of any operator or subQ, with or without a runtime plugin."""
    from repro.params import C_IDS, lhs_sample
    from repro.runtime.optimizer import OnlineOptimizer

    requests = 0
    for bench, q in (("tpch", "q9"), ("tpch", "q18"), ("tpcds", "q17")):
        dag = partition_subqs(build_query(bench, q, sf=100.0, variant=1))
        before = asdict(dag.plan), {i: asdict(sq) for i, sq in dag.subqs.items()}
        for conf in [default_conf(), *lhs_sample(2, list(default_conf()), seed=2)]:
            opt = (OnlineOptimizer(dag, fake_suite, {k: conf[k] for k in C_IDS}, (0.5, 0.5))
                   if with_plugin else None)
            r = execute(dag, conf, runtime_opt=opt)
            requests += r.lqp_requests + r.qs_requests
        # the plan's fields, every Operator's (in ``ops``) and every SubQ's
        assert (asdict(dag.plan), {i: asdict(sq) for i, sq in dag.subqs.items()}) == before
    assert (requests > 0) == with_plugin
