"""The end-to-end tuning path: compile-time MOO → recommend → submit →
(optionally) runtime-adaptive execution.

Every method of the paper's end-to-end evaluation (Tables 4 & 5) is a
solved ``MOOResult`` run by ``run_recommended``: WUN recommends for the
preference, ``submit_conf`` collapses the recommendation to the one
configuration Spark accepts (``aggregate_theta``, §C.2.1), and
``run_query`` executes it under AQE, with the runtime optimizer plugged in
when a model suite is given (HMOOC3+).
MO-WS is ``weighted_sum``'s result, SO-FW one preference's
``so_fixed_weights`` optimum (a one-point Pareto set, so WUN returns it for
any preference), and HMOOC3 the preference-independent Pareto set of
``compile_hmooc3``. The Spark-default run is ``run_query`` under
``default_conf()``. HMOOC3+ runs on the same recommendation as HMOOC3, so
its extra solving time is exactly the runtime optimizer's. Every method
executes on the same simulated cluster with the same noise seed, so
latency/cost deltas are paired.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.plan import SubQDag
from repro.model.predictor import ModelSuite
from repro.moo.hmooc import MOOResult, QueryConfig, hmooc
from repro.moo.objectives import CompileTimeObjectives
from repro.params import KNOB_BY_ID, P_IDS, S_IDS, merge_conf
from repro.runtime.optimizer import OnlineOptimizer
from repro.simspark.executor import QueryRun, run_query


@dataclass
class TunedOutcome:
    """One method's result on one query."""

    solving_time_s: float
    conf0: dict            # the 19-knob configuration submitted to Spark
    run: QueryRun


def aggregate_theta(qc: QueryConfig, dag: SubQDag) -> tuple[dict, dict]:
    """Collapse fine-grained per-subQ θp/θs into the one copy Spark takes
    at submission (§C.2.1).

    Join thresholds (s3, s4) take the *minimum* over join-headed subQs —
    forcing a join algorithm from inaccurate compile-time cardinalities is
    the failure AQE cannot undo — then are capped from below at Spark's
    defaults so small scan-side BHJs are not missed. The remaining knobs
    take the geometric median (geo-mean) over subQs.
    """
    join_sqs = [i for i, s in dag.subqs.items() if s.boundary_type == "join"]
    sq_ids = sorted(qc.theta_p)

    def collapse(theta: dict[int, dict], kid: str) -> float:
        if kid in ("s3", "s4") and join_sqs:
            v = max(min(theta[i][kid] for i in join_sqs),
                    KNOB_BY_ID[kid].default)  # cap at Spark default
        else:
            vals = np.array([theta[i][kid] for i in sq_ids])
            v = np.exp(np.mean(np.log(np.maximum(vals, 1e-9))))
        return KNOB_BY_ID[kid].clamp(float(v))

    return ({kid: collapse(qc.theta_p, kid) for kid in P_IDS},
            {kid: collapse(qc.theta_s, kid) for kid in S_IDS})


def submit_conf(qc: QueryConfig, dag: SubQDag) -> dict:
    """θc + the single aggregated θp/θs copy Spark accepts at submission."""
    theta_p, theta_s = aggregate_theta(qc, dag)
    return merge_conf(qc.theta_c, theta_p, theta_s)


def compile_hmooc3(dag: SubQDag, suite: ModelSuite, *,
                   seed: int = 0) -> tuple[MOOResult, CompileTimeObjectives]:
    """The preference-independent HMOOC3 Pareto set and the objectives it
    was solved on (which baselines on the same query reuse)."""
    obj = CompileTimeObjectives(dag, suite)
    return hmooc(dag, suite, seed=seed, objectives=obj), obj


def run_recommended(dag: SubQDag, res: MOOResult, weights, *, noise_seed: int = 0,
                    plugin_suite: ModelSuite | None = None) -> TunedOutcome:
    """Recommend from ``res`` for ``weights``, submit, and run under AQE —
    with the runtime optimizer plugged in when ``plugin_suite`` is given."""
    _, qc = res.recommend(weights)
    conf = submit_conf(qc, dag)
    rt = (None if plugin_suite is None
          else OnlineOptimizer(dag, plugin_suite, qc.theta_c, weights))
    run = run_query(dag, conf, noise_seed=noise_seed, runtime_opt=rt)
    solving_time_s = res.solving_time_s + (0.0 if rt is None else rt.time_spent_s)
    return TunedOutcome(solving_time_s, conf, run)
