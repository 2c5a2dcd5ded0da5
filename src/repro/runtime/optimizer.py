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

At construction the plugin builds every non-scan stage's true-statistics
:class:`~repro.model.predictor.StageFeatures` (``StageFeatures.of_stages``,
one GTN forward per stage shape) and folds each stage's 42 fixed QS
columns (embedding, α, β and the idle ``IDLE_GAMMA``) into the suite's
float32 QS latency and IO models: all stages with one product per model
(``TargetModels.fold``), into one model per target whose first-layer
bias table has a row per stage.

Both hooks share one scoring path, which starts from a knob matrix: one
natural-unit 19-knob row per candidate (``FULL_IDS`` order; row 0 is the
current configuration) → its (θc, θs) columns normalized in one
``params.normalize_matrix`` call → the stage's 17 varying QS columns
(``StageFeatures.qs_varying``: join one-hot, (θc, θs), derived
partitioning from the knob columns, as compile time lays them out) →
predicted (latency, cost): the rows standardized and forwarded as one
block (``TargetModels.predict_block``) through each folded float32 model
with the stage's bias row, then priced with the raw predicted latency
kept (``predictor.to_objectives``) → the weighted pick on min-max-normalized
objectives (``pareto.weighted_picks``, shared with WS and SO-FW), which
replaces the current θ only if its raw weighted score beats the current
one's by a margin (``THETA_P_MARGIN``, ``THETA_S_MARGIN``). The θs hook
tiles the current row and writes its grid into the θs columns of rows
1–16; the θp hook writes next to θc the θp of the first of its five
candidates to induce each join algorithm (2–3 rows), since candidates
inducing one algorithm have one QS row. When all five induce one
algorithm, the answer can only be candidate 0, the current θp, so the
hook returns it unscored.

Request pruning (§C.2.2) keeps the call volume down:

* LQP̄ requests are bypassed for non-join collapse points. A join's
  request needs no deferral: the executor makes it only for the stage
  about to run, whose inputs have all completed with actual statistics;
* QS requests skip scan stages and stages whose input is below the
  advisory partition size (nothing to re-partition).
"""
from __future__ import annotations

import time

import numpy as np

from repro.core.plan import SubQDag
from repro.model import predictor as P
from repro.moo.pareto import weighted_picks
from repro.params import (C_IDS, D_C, D_P, FULL_IDS, KNOB_BY_ID, MB, P_IDS, S_IDS,
                          normalize_matrix)
from repro.simspark.costmodel import (HASH_TABLE_FACTOR, SMJ, choose_join_algorithm,
                                      exec_mem, initial_partitions, resource_rate_h)
from repro.simspark.executor import StageRun, join_sides


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
        self.theta_c = dict(theta_c)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.time_spent_s = 0.0
        self._rate_s = resource_rate_h(theta_c["k1"], theta_c["k2"], theta_c["k3"]) / 3600.0
        self._c_row = [self.theta_c[i] for i in C_IDS]
        # scan stages are never scored: both hooks prune them
        self._stages = P.StageFeatures.of_stages(
            dag, [i for i, s in dag.subqs.items() if s.kind != "scan"], true_stats=True)
        # one row of fixed QS columns per stage (no row for a scan-only DAG),
        # folded into one model per target: bias-table row i is the i-th stage
        fixed = np.reshape([st.qs_fixed(P.IDLE_GAMMA) for st in self._stages.values()],
                           (len(self._stages), len(P.QS_FIXED_COLS)))
        self._models = suite.qs.fold(P.QS_FIXED_COLS, fixed)
        self._row = {sq: i for i, sq in enumerate(self._stages)}
        self._mem_exec = exec_mem(theta_c)

    # -- helpers ---------------------------------------------------------------
    def _objectives(self, sq_id: int, M_nat: np.ndarray, algs: list[str],
                    input_bytes: float | None) -> np.ndarray:
        """(n, 2) predicted [latency (s), cost ($)] of the rows of the
        natural-unit 19-knob matrix ``M_nat``: one forward per model of the
        query's folded float32 QS models over the varying columns, with the
        stage's bias row. A request's 2–17 rows are the one block
        ``mlp.predict_blocks`` gives them, so they score as ``predict``
        would score them."""
        U_qs = normalize_matrix(M_nat[:, P.QS_COLS], P.QS_IDS)
        X = self._stages[sq_id].qs_varying(algs, U_qs, M_nat, input_bytes=input_bytes)
        F = np.empty((len(X), 2))
        self._models.predict_block(self._models.standardize(X), F, row=self._row[sq_id])
        return P.to_objectives(F, self._rate_s, clamp_latency=False)

    def _choose(self, sq_id: int, M_nat: np.ndarray, algs: list[str], margin: float,
                *, input_bytes: float | None = None) -> int:
        """Index of the candidate to run: the QS model scores every row of
        the natural-unit 19-knob matrix ``M_nat``, the weighted pick wins
        only if it beats row 0, the current configuration, by ``margin``."""
        F = self._objectives(sq_id, M_nat, algs, input_bytes)
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
        # θp enters a QS row only through the algorithm it induces, so the
        # candidates sharing one give the same row: score the first of each
        # (candidate 0 first), and no rounding of a row by its position in
        # the batch decides among equals.
        first: dict[str, int] = {}
        for j, c in enumerate(cands):
            first.setdefault(choose_join_algorithm(bb, pb, c, rows_build=br, runtime=True,
                                                   compile_alg=SMJ), j)
        if len(first) == 1:   # every candidate gives candidate 0's row
            self.time_spent_s += time.perf_counter() - t0
            return cands[0]
        rows = list(first.values())
        M = np.empty((len(rows), len(FULL_IDS)))
        M[:, :D_C] = self._c_row
        M[:, D_C:_S_COL0] = [[cands[j][i] for i in P_IDS] for j in rows]
        M[:, _S_COL0:] = _THETA_P_REQUEST_S
        best = self._choose(sq_id, M, list(first), THETA_P_MARGIN)
        self.time_spent_s += time.perf_counter() - t0
        return cands[rows[best]]

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
