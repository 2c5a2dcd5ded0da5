"""End-to-end tuning pipelines: compile-time MOO → submit → (optionally)
runtime-adaptive execution.

Methods compared in the paper's end-to-end evaluation (Tables 4 & 5):

* ``run_default``    — Spark defaults with AQE on;
* ``run_mo_ws``      — MO-WS: query-level weighted-sum MOO (the strongest
  prior method, UDAO-style), WUN recommendation, static θp/θs;
* ``run_so_fw``      — SO-FW: fixed-weight single-objective collapse;
* ``run_hmooc3``     — our compile-time HMOOC (boundary aggregation), with
  per-subQ θp/θs collapsed to one submission copy via §C.2.1;
* ``run_hmooc3_plus``— HMOOC3 + the runtime optimizer plugin (HMOOC3+).

HMOOC3's Pareto set does not depend on the preference, so it is compiled
once (``compile_hmooc3``) and the resulting ``MOOResult`` is run under
each preference by ``run_hmooc3``/``run_hmooc3_plus``. SO-FW likewise
samples and predicts once for all preferences (``so_fixed_weights``) and
``run_so_fw`` runs one preference's optimum. HMOOC3+ is a plugin
on top of the same recommendation, so its extra solving time is exactly
the runtime optimizer's. Every method executes on the same simulated
cluster with the same noise seed, so latency/cost deltas are paired.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import SubQDag
from repro.model.predictor import ModelSuite
from repro.moo.baselines import weighted_sum
from repro.moo.hmooc import MOOResult, QueryConfig, hmooc
from repro.moo.objectives import CompileTimeObjectives
from repro.params import default_conf, merge_conf
from repro.runtime.optimizer import OnlineOptimizer, aggregate_theta
from repro.simspark.executor import QueryRun, run_query


@dataclass
class TunedOutcome:
    """One method's result on one query."""

    method: str
    solving_time_s: float
    conf0: dict            # the 19-knob configuration submitted to Spark
    run: QueryRun

    @property
    def latency_s(self) -> float:
        return self.run.latency_s

    @property
    def cost_usd(self) -> float:
        return self.run.cost_usd


def submit_conf(qc: QueryConfig, dag: SubQDag) -> dict:
    """θc + the single aggregated θp/θs copy Spark accepts at submission."""
    theta_p, theta_s = aggregate_theta(qc, dag)
    return merge_conf(qc.theta_c, theta_p, theta_s)


def _execute(method: str, dag: SubQDag, res: MOOResult, weights, *, noise_seed: int,
             plugin_suite: ModelSuite | None = None) -> TunedOutcome:
    """Recommend from ``res`` for ``weights``, submit, and run under AQE —
    with the runtime optimizer plugged in when ``plugin_suite`` is given."""
    _, qc = res.recommend(weights)
    conf = submit_conf(qc, dag)
    rt = (None if plugin_suite is None
          else OnlineOptimizer(dag, plugin_suite, qc.theta_c, weights))
    run = run_query(dag, conf, aqe=True, noise_seed=noise_seed, runtime_opt=rt)
    solving_time_s = res.solving_time_s + (0.0 if rt is None else rt.time_spent_s)
    return TunedOutcome(method, solving_time_s, conf, run)


def run_default(dag: SubQDag, *, noise_seed: int = 0) -> TunedOutcome:
    conf = default_conf()
    run = run_query(dag, conf, aqe=True, noise_seed=noise_seed)
    return TunedOutcome("default", 0.0, conf, run)


def run_mo_ws(obj: CompileTimeObjectives, weights, *, noise_seed: int = 0) -> TunedOutcome:
    """Solve MO-WS on the compiled objectives and run its recommendation."""
    res = weighted_sum(obj, fine=False)
    return _execute("mo-ws", obj.dag, res, weights, noise_seed=noise_seed)


def run_so_fw(dag: SubQDag, res: MOOResult, weights, *,
              noise_seed: int = 0) -> TunedOutcome:
    """Run a precomputed ``so_fixed_weights`` result: its single optimum is a
    one-point Pareto set, so WUN returns it for any ``weights``."""
    return _execute("so-fw", dag, res, weights, noise_seed=noise_seed)


def compile_hmooc3(dag: SubQDag, suite: ModelSuite, *,
                   seed: int = 0) -> tuple[MOOResult, CompileTimeObjectives]:
    """The preference-independent HMOOC3 Pareto set and the objectives it
    was solved on (which baselines on the same query reuse)."""
    obj = CompileTimeObjectives(dag, suite)
    return hmooc(dag, suite, seed=seed, objectives=obj), obj


def run_hmooc3(dag: SubQDag, res: MOOResult, weights, *,
               noise_seed: int = 0) -> TunedOutcome:
    """Run the compiled HMOOC3 result's recommendation for ``weights``."""
    return _execute("hmooc3", dag, res, weights, noise_seed=noise_seed)


def run_hmooc3_plus(dag: SubQDag, suite: ModelSuite, res: MOOResult, weights, *,
                    noise_seed: int = 0) -> TunedOutcome:
    """``run_hmooc3`` with the runtime optimizer plugged into AQE."""
    return _execute("hmooc3+", dag, res, weights, noise_seed=noise_seed,
                    plugin_suite=suite)
