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

Both hooks share one scoring path, which starts from a knob matrix: one
natural-unit 19-knob row per candidate (``FULL_IDS`` order; row 0 is the
current configuration) → its (θc, θs) columns normalized in one
``params.normalize_matrix`` call → QS rows from the stage's
:class:`~repro.model.predictor.StageFeatures` (every non-scan stage's
true-statistics view, built at construction by
``StageFeatures.of_stages`` with one GTN forward per stage shape; γ is
the idle ``IDLE_GAMMA``) → predicted (latency, cost), one model call per
distinct join algorithm → the weighted pick on min-max-normalized
objectives (``pareto.weighted_picks``, shared with WS and SO-FW), which
replaces the current θ only if its raw weighted score beats the current
one's by a margin (``THETA_P_MARGIN``, ``THETA_S_MARGIN``). The θs hook
tiles the current row and writes its grid into the θs columns of rows
1–16; the θp hook writes its five candidates' θp next to θc.

Request pruning (§C.2.2) keeps the call volume down:

* LQP̄ requests are bypassed for non-join collapse points. A join's
  request needs no deferral: the executor makes it only for the stage
  about to run, whose inputs have all completed with actual statistics;
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
from repro.moo.pareto import weighted_picks
from repro.params import (C_IDS, D_C, D_P, FULL_IDS, KNOB_BY_ID, MB, P_IDS, S_IDS,
                          normalize_matrix)
from repro.simspark.costmodel import (HASH_TABLE_FACTOR, SMJ, choose_join_algorithm,
                                      exec_mem, initial_partitions, resource_rate_h)
from repro.simspark.executor import StageRun, join_sides


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


# Deviate from the submitted θp / θs only when the weighted score of the
# model's pick beats keeping them by this factor.
THETA_P_MARGIN = 0.98
THETA_S_MARGIN = 0.97

# θs candidates of a QS request, after "keep the current θs": (s10, s11)
# rows, in S_IDS order; and the first θs column of a 19-knob row
_THETA_S_ROWS = np.array([[a, b] for a in np.linspace(0.1, 0.8, 4)
                          for b in (1 * MB, 4 * MB, 16 * MB, 64 * MB)])
_S_COL0 = D_C + D_P
# θs under which a θp request scores its candidates
_THETA_P_REQUEST_S = (0.2, 1 * MB)


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
        self._c_row = [self.theta_c[i] for i in C_IDS]
        # scan stages are never scored: both hooks prune them
        self._stages = P.StageFeatures.of_stages(
            dag, [i for i, s in dag.subqs.items() if s.kind != "scan"], true_stats=True)
        self._mem_exec = exec_mem(theta_c)

    # -- helpers ---------------------------------------------------------------
    def _choose(self, sq_id: int, M_nat: np.ndarray, algs: list[str], margin: float,
                *, input_bytes: float | None = None) -> int:
        """Index of the candidate to run: the QS model scores every row of
        the natural-unit 19-knob matrix ``M_nat`` (one prediction per
        distinct join algorithm, in sorted order), the weighted pick wins
        only if it beats row 0, the current configuration, by ``margin``."""
        U_qs = normalize_matrix(M_nat[:, P.QS_COLS], P.QS_IDS)
        X = self._stages[sq_id].qs_rows(algs, U_qs, M_nat, P.IDLE_GAMMA,
                                        input_bytes=input_bytes)
        groups = sorted(set(algs))
        if len(groups) == 1:
            F = self.suite.qs.objectives(X, self._rate_s, clamp_latency=False)
        else:
            F = np.empty((len(algs), 2))
            for a in groups:
                mask = np.array([x == a for x in algs])
                F[mask] = self.suite.qs.objectives(X[mask], self._rate_s,
                                                   clamp_latency=False)
        best = int(weighted_picks(F, self.weights[None])[0])
        score = (F * self.weights).sum(axis=1)
        if best != 0 and score[best] > margin * score[0]:
            best = 0
        return best

    # -- LQP̄ re-optimization ----------------------------------------------------
    def on_collapsed_lqp(self, dag: SubQDag, sq_id: int, known: dict[int, StageRun],
                         theta_p: dict) -> dict | None:
        sq = dag.subqs[sq_id]
        if sq.boundary_type != "join":
            return None  # pruned: non-join collapse
        t0 = time.perf_counter()
        bb, pb, br = join_sides(dag, sq_id, true=True)
        # Candidate 0 is "keep the current θp"; the others surgically move
        # only the join thresholds around the *observed* build size, so the
        # model only has to rank join-algorithm choices (the decision AQE's
        # parametric rules will actually consume), not re-tune everything.
        cands: list[dict] = [dict(theta_p)]
        bb_per_p = bb / int(initial_partitions(theta_p["s5"]))  # candidates share s5
        for enable_bhj in (True, False):
            for enable_shj in (True, False):
                c = dict(theta_p)
                c["s4"] = KNOB_BY_ID["s4"].clamp(
                    bb * 2.0 if enable_bhj and bb * HASH_TABLE_FACTOR <= self._mem_exec
                    else max(1.0, bb * 0.5))
                c["s3"] = KNOB_BY_ID["s3"].clamp(
                    bb_per_p * 2.0 if enable_shj else max(1.0, bb_per_p * 0.5))
                cands.append(c)
        # Score candidates with the runtime QS model on the affected join
        # stage: the join-algorithm one-hot each candidate's thresholds
        # induce (under AQE's demote-only rule) is a sharp, stage-local
        # signal — the whole-plan LQP̄ model barely resolves one join.
        M = np.empty((len(cands), len(FULL_IDS)))
        M[:, :D_C] = self._c_row
        M[:, D_C:_S_COL0] = [[c[i] for i in P_IDS] for c in cands]
        M[:, _S_COL0:] = _THETA_P_REQUEST_S
        algs = [choose_join_algorithm(bb, pb, c, rows_build=br, runtime=True,
                                      compile_alg=SMJ) for c in cands]
        best = self._choose(sq_id, M, algs, THETA_P_MARGIN)
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
        M = np.tile(np.array([conf[i] for i in FULL_IDS], dtype=np.float64),
                    (1 + len(_THETA_S_ROWS), 1))
        M[1:, _S_COL0:] = _THETA_S_ROWS
        best = self._choose(sq_id, M, [alg] * len(M), THETA_S_MARGIN,
                            input_bytes=input_bytes)
        self.time_spent_s += time.perf_counter() - t0
        if not best:
            return {k: conf[k] for k in S_IDS}
        return dict(zip(S_IDS, _THETA_S_ROWS[best - 1].tolist()))
