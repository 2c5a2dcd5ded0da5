"""OPT's runtime optimizer — the AQE plugin of §5.2.

Runs inside the (simulated) Spark driver's AQE loop, on *true* statistics.
Both kinds of request are scored with the QS model (the LQP̄ model is
trained and evaluated for Table 3 only):

* on each collapsed plan headed by a join, θp is re-tuned by scoring five
  candidates on the join's stage: keep the current θp, or one of four
  *threshold-targeted* variants with ``s4``/``s3`` placed just above or
  below the observed build size, so the optimizer can deliberately enable
  a BHJ/SHJ for this join (or avoid a catastrophic broadcast) the way
  Fig. 3(b)'s runtime plan surgery does;
* on each new query stage, θs is re-tuned over a small (s10, s11) grid.

Both hooks share one scoring path: candidate configurations → QS rows
from each stage's :class:`~repro.model.predictor.StageFeatures` (built once
per stage at construction; γ is the idle ``IDLE_GAMMA``) → predicted
(latency, cost) → the WUN-weighted pick, which replaces the current θ
only if it beats it by a margin (``THETA_P_MARGIN``, ``THETA_S_MARGIN``).

Request pruning (§C.2.2) keeps the call volume down:

* LQP̄ requests are bypassed for non-join collapse points and deferred
  until every input of the join has actual statistics;
* QS requests skip scan stages and stages whose input is below the
  advisory partition size (nothing to re-partition).

Also provides ``aggregate_theta`` — the §C.2.1 rule collapsing the
compile-time per-subQ θp/θs into the single copy Spark accepts at submit.
"""
from __future__ import annotations

import time

import numpy as np

from repro.core.plan import SubQDag
from repro.model import predictor as P
from repro.moo.hmooc import QueryConfig
from repro.moo.pareto import normalize
from repro.params import MB, KNOB_BY_ID, P_IDS, S_IDS
from repro.simspark.costmodel import (SMJ, choose_join_algorithm, exec_mem,
                                      resource_rate_h)
from repro.simspark.executor import join_sides


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
    theta_p: dict[str, float] = {}
    for kid in P_IDS:
        vals = np.array([qc.theta_p[i][kid] for i in sq_ids])
        if kid in ("s3", "s4") and join_sqs:
            v = float(min(qc.theta_p[i][kid] for i in join_sqs))
            v = max(v, KNOB_BY_ID[kid].default)  # cap at Spark default
        else:
            v = float(np.exp(np.mean(np.log(np.maximum(vals, 1e-9)))))
        theta_p[kid] = KNOB_BY_ID[kid].clamp(v)
    theta_s: dict[str, float] = {}
    for kid in S_IDS:
        vals = np.array([qc.theta_s[i][kid] for i in sq_ids])
        theta_s[kid] = KNOB_BY_ID[kid].clamp(
            float(np.exp(np.mean(np.log(np.maximum(vals, 1e-9))))))
    return theta_p, theta_s


# Deviate from the submitted θp / θs only when the weighted score of the
# model's pick beats keeping them by this factor.
THETA_P_MARGIN = 0.98
THETA_S_MARGIN = 0.97


class OnlineOptimizer:
    """Model-driven runtime re-tuning of θp / θs (implements the executor's
    RuntimeOptimizer protocol)."""

    def __init__(self, dag: SubQDag, suite: P.ModelSuite, theta_c: dict, weights):
        self.dag = dag
        self.suite = suite
        self.theta_c = dict(theta_c)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.time_spent_s = 0.0
        self._rate_s = resource_rate_h(theta_c["k1"], theta_c["k2"], theta_c["k3"]) / 3600.0
        # scan stages are never scored: both hooks prune them
        self._stages = {i: P.StageFeatures.of(dag, i, true_stats=True)
                        for i, s in dag.subqs.items() if s.kind != "scan"}
        self._mem_exec = exec_mem(theta_c)
        # θs candidate grid
        s10s = np.linspace(0.1, 0.8, 4)
        s11s = np.array([1 * MB, 4 * MB, 16 * MB, 64 * MB])
        self._theta_s_grid = [{"s10": float(a), "s11": float(b)}
                              for a in s10s for b in s11s]

    # -- helpers ---------------------------------------------------------------
    def _pick_weighted(self, F: np.ndarray) -> int:
        Fn, _, _ = normalize(F)
        return int((Fn * self.weights).sum(axis=1).argmin())

    def _choose(self, sq_id: int, confs: list[dict], algs: list[str], margin: float,
                *, input_bytes: float | None = None) -> int:
        """Index of the candidate to run: the QS model scores every
        configuration (one prediction per distinct join algorithm), the
        weighted pick wins only if it beats candidate 0, the current one,
        by ``margin``."""
        U_qs, M_nat = P.encode_confs(confs, P.QS_IDS)
        X = self._stages[sq_id].qs_rows(algs, U_qs, M_nat, P.IDLE_GAMMA,
                                        input_bytes=input_bytes)
        F = np.zeros((len(confs), 2))
        for a in sorted(set(algs)):
            mask = np.array([x == a for x in algs])
            F[mask] = self.suite.qs.objectives(X[mask], self._rate_s, clamp_latency=False)
        best = self._pick_weighted(F)
        score = (F * self.weights).sum(axis=1)
        if best != 0 and score[best] > margin * score[0]:
            best = 0
        return best

    # -- LQP̄ re-optimization ----------------------------------------------------
    def on_collapsed_lqp(self, dag: SubQDag, sq_id: int, known: dict[int, dict],
                         theta_p: dict) -> dict | None:
        sq = dag.subqs[sq_id]
        if sq.boundary_type != "join":
            return None  # pruned: non-join collapse
        if any(d not in known for d in sq.deps):
            return None  # pruned: defer until input stats available
        t0 = time.perf_counter()
        bb, pb, br = join_sides(dag, sq_id, true=True)
        # Candidate 0 is "keep the current θp"; the others surgically move
        # only the join thresholds around the *observed* build size, so the
        # model only has to rank join-algorithm choices (the decision AQE's
        # parametric rules will actually consume), not re-tune everything.
        cands: list[dict] = [dict(theta_p)]
        for enable_bhj in (True, False):
            for enable_shj in (True, False):
                c = dict(theta_p)
                c["s4"] = KNOB_BY_ID["s4"].clamp(
                    bb * 2.0 if enable_bhj and bb * 1.8 <= self._mem_exec else max(1.0, bb * 0.5))
                p = max(1.0, round(c["s5"]))
                c["s3"] = KNOB_BY_ID["s3"].clamp(
                    (bb / p) * 2.0 if enable_shj else max(1.0, (bb / p) * 0.5))
                cands.append(c)
        # Score candidates with the runtime QS model on the affected join
        # stage: the join-algorithm one-hot each candidate's thresholds
        # induce (under AQE's demote-only rule) is a sharp, stage-local
        # signal — the whole-plan LQP̄ model barely resolves one join.
        confs = [{**self.theta_c, **c, "s10": 0.2, "s11": 1 * MB} for c in cands]
        algs = [choose_join_algorithm(bb, pb, conf, rows_build=br, runtime=True,
                                      compile_alg=SMJ) for conf in confs]
        best = self._choose(sq_id, confs, algs, THETA_P_MARGIN)
        self.time_spent_s += time.perf_counter() - t0
        return cands[best]

    # -- QS θs optimization ------------------------------------------------------
    def on_query_stage(self, dag: SubQDag, sq_id: int, input_bytes: float,
                       conf: dict) -> dict | None:
        sq = dag.subqs[sq_id]
        if sq.kind == "scan":
            return None  # pruned: scan QS
        if input_bytes <= conf["s1"]:
            return None  # pruned: single-partition input, nothing to tune
        t0 = time.perf_counter()
        alg = ""
        if sq.boundary_type == "join":
            bb, pb, br = join_sides(dag, sq_id, true=True)
            alg = choose_join_algorithm(bb, pb, conf, rows_build=br, runtime=True,
                                        compile_alg=None)
        grid = [{"s10": conf["s10"], "s11": conf["s11"]}] + self._theta_s_grid
        best = self._choose(sq_id, [{**conf, **ts} for ts in grid], [alg] * len(grid),
                            THETA_S_MARGIN, input_bytes=input_bytes)
        self.time_spent_s += time.perf_counter() - t0
        return dict(grid[best])
