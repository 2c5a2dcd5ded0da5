"""Unit tests for the end-to-end tuning pipelines (fake models)."""
import pytest

from repro.core.plan import partition_subqs
from repro.core.workloads import build_query
from repro.moo.baselines import so_fixed_weights, weighted_sum
from repro.params import KNOB_BY_ID, default_conf
from repro.simspark.executor import run_query
from repro import tuner


@pytest.fixture(scope="module")
def dag():
    return partition_subqs(build_query("tpch", "q3", sf=10.0))


@pytest.fixture(scope="module")
def compiled_pair(dag, fake_suite):
    return tuner.compile_hmooc3(dag, fake_suite, seed=0)


@pytest.fixture(scope="module")
def compiled(compiled_pair):
    return compiled_pair[0]


@pytest.fixture(scope="module")
def obj(compiled_pair):
    return compiled_pair[1]


def _check(outcome):
    assert outcome.run.latency_s > 0 and outcome.run.cost_usd > 0
    assert set(outcome.conf0) == set(KNOB_BY_ID)
    for kid, v in outcome.conf0.items():
        k = KNOB_BY_ID[kid]
        assert k.lo <= v <= k.hi, kid


def test_run_default(dag):
    conf = default_conf()
    out = run_query(dag, conf, noise_seed=1)
    assert out.latency_s > 0 and out.cost_usd > 0
    assert conf["k1"] == 2.0  # the cluster-baseline default


def test_run_mo_ws(dag, obj):
    out = tuner.run_recommended(dag, weighted_sum(obj), (0.9, 0.1), noise_seed=1)
    _check(out)
    assert out.solving_time_s > 0


def test_run_so_fw(dag, obj):
    so = so_fixed_weights(obj, [(0.5, 0.5)])
    out = tuner.run_recommended(dag, so[(0.5, 0.5)], (0.5, 0.5), noise_seed=1)
    _check(out)
    assert out.solving_time_s == so[(0.5, 0.5)].solving_time_s


def test_run_hmooc3(dag, compiled):
    out = tuner.run_recommended(dag, compiled, (0.9, 0.1), noise_seed=1)
    _check(out)


def test_run_hmooc3_plus(dag, fake_suite, compiled):
    out = tuner.run_recommended(dag, compiled, (0.9, 0.1), noise_seed=1,
                                plugin_suite=fake_suite)
    _check(out)
    # runtime plugin issued (and pruned) requests
    assert out.run.lqp_request_opportunities > 0
    assert out.run.lqp_requests <= out.run.lqp_request_opportunities
    assert out.run.qs_requests <= out.run.qs_request_opportunities


def test_hmooc3_plus_includes_runtime_solving_time(dag, fake_suite, compiled,
                                                   monkeypatch):
    plugins = []
    real = tuner.OnlineOptimizer

    def recording(*args, **kw):
        plugins.append(real(*args, **kw))
        return plugins[-1]

    monkeypatch.setattr(tuner, "OnlineOptimizer", recording)
    out3 = tuner.run_recommended(dag, compiled, (0.9, 0.1), noise_seed=1)
    out3p = tuner.run_recommended(dag, compiled, (0.9, 0.1), noise_seed=1,
                                  plugin_suite=fake_suite)
    # one shared compile: HMOOC3+ adds exactly the plugin's runtime solving
    [rt] = plugins
    assert rt.time_spent_s >= 0.0
    assert out3.solving_time_s == compiled.solving_time_s
    assert out3p.solving_time_s == out3.solving_time_s + rt.time_spent_s
    assert out3p.conf0 == out3.conf0


def test_submit_conf_resolves_fine_grained(dag, compiled):
    _, qc = compiled.recommend((0.9, 0.1))
    conf = tuner.submit_conf(qc, dag)
    assert set(conf) == set(KNOB_BY_ID)
    # θc is passed through verbatim
    for kid, v in qc.theta_c.items():
        assert conf[kid] == v


def test_paired_noise_seeds(dag, fake_suite):
    a = run_query(dag, default_conf(), noise_seed=7)
    b = run_query(dag, default_conf(), noise_seed=7)
    assert a.latency_s == b.latency_s
