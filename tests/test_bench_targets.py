"""The benchmark's traced targets must stay where its tracer looks for them,
and keep the call signatures its wrappers assume.

``perfbench/workloads.py`` wraps each ``(owner, attr)`` of ``TARGETS`` and
``SAMPLE_TARGETS`` in place, resolving it as ``Tracer.instrument`` does:
``owner[attr]`` for a dict, otherwise ``owner.__dict__[attr]`` — defined on
that very owner, not inherited. A wrapper with a size function calls it
with the traced call's arguments, so a changed signature makes every
traced operation raise. A refactor that moves or renames a traced
function, or changes how one is called, fails here instead of in a
benchmark run.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, _PERFBENCH)
try:
    import spans
    import workloads
finally:
    sys.path.remove(_PERFBENCH)

TARGETS = workloads.TARGETS + workloads.SAMPLE_TARGETS


@pytest.mark.parametrize("owner, attr", [t[:2] for t in TARGETS],
                         ids=[t[2] for t in TARGETS])
def test_traced_target_resolves(owner, attr):
    found = owner.get(attr) if isinstance(owner, dict) else owner.__dict__.get(attr)
    assert callable(found), f"{owner!r} defines no {attr}"


def _original(owner, attr):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def test_traced_calls_run_under_the_tracer(small_suite):
    """One HMOOC3 solve, recommendation and submitted conf, one adaptive run,
    one fit and prediction and one trace task, made as the benchmark makes
    them, through its own wrappers and on trained models: none raises,
    every target they reach records a span, and ``restore`` puts every
    original back."""
    from repro import tuner
    from repro.core import plan as core_plan
    from repro.core import workloads as core_workloads
    from repro.model import mlp, traces
    from repro.moo import hmooc as H
    from repro.moo import objectives as O
    from repro.runtime import optimizer as R
    from repro.simspark import executor as E

    originals = [_original(owner, attr) for owner, attr, _, _ in TARGETS]
    tracer = spans.Tracer()
    tracer.instrument(TARGETS)
    try:
        dag = core_plan.partition_subqs(core_workloads.build_query("tpch", "q3"))
        obj = O.CompileTimeObjectives(dag, small_suite)
        res = H.hmooc(dag, small_suite, agg="boundary", n_c=12, n_clusters=3, n_p=16,
                      objectives=obj)
        _, qc = res.recommend(workloads.SPEED)
        conf = tuner.submit_conf(qc, dag)
        plugin = R.OnlineOptimizer(dag, small_suite, qc.theta_c, workloads.SPEED)
        E.run_query(dag, conf, noise_seed=1, runtime_opt=plugin)
        rng = np.random.default_rng(0)
        X, y = rng.random((64, 4)), rng.random(64) + 1.0
        model = mlp.MLPRegressor(4, hidden=(8,), seed=0)
        model.fit(X, y, epochs=1)
        model.predict(X)
        grid = traces.task_grid("tpch", ["q6"], 1, 1, seed=0)
        rec = next(grid.itertuples(index=False))
        traces.trace_rows(rec.benchmark, rec.template, int(rec.variant),
                          json.loads(rec.conf_json), int(rec.conf_id))
    finally:
        tracer.restore()
    assert [_original(owner, attr) for owner, attr, _, _ in TARGETS] == originals
    undriven = {"moo.objectives.subq_batch", "model.traces.generate"}
    recorded = {span[spans.NAME] for span in tracer.spans}
    missing = {name for _, _, name, _ in TARGETS} - undriven - recorded
    assert not missing, f"no span for {sorted(missing)}"
