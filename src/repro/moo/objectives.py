"""Model-based objective evaluation for the compile-time optimizer.

``CompileTimeObjectives`` turns batches of candidate configurations into
predicted (analytical latency, cloud cost) pairs per subQ, using the
trained subQ models with CBO-estimated statistics (paper §5.1: the
modeling constraint of compile time). Cloud cost decomposes per subQ as

    cost_i = ana_latency_i * resource_rate(θc) + io_i * io_price

so query-level objectives are sums of subQ-level ones — the property the
whole HMOOC DAG-aggregation machinery relies on (Λ = sum). Feature rows
and the cost formula come from ``repro.model.predictor``.

Each subQ's embedding and α ‖ β ‖ γ are the same in every row, so at
construction they are folded, for all subQs with one product per model
(``TargetModels.fold``), into the float32 copy of the subQ latency and IO
models that the suite makes once (``TargetModels.float32``): one model
per target for the query, whose first-layer bias table has one row per
subQ (``models``). A row then carries only the 19 knob columns and the 3
derived partitioning columns.

``subq_batch``, the baselines' path, decodes its rows, lays them out and
scores them in one call. HMOOC's solve (``repro.moo.hmooc``) drives
``models`` itself: it standardizes its decoded tables once, takes each
subQ's derived columns from ``derived`` once per phase, and turns a
phase's predictions into objectives at once
(``predictor.to_objectives``, the one cost formula).

Everything is vectorized over normalized knob matrices ``U`` whose columns
follow ``FULL_IDS`` (θc ‖ θp ‖ θs).
"""
from __future__ import annotations

import numpy as np

from repro.core.plan import SubQDag
from repro.model import predictor as P
from repro.params import D_C, D_P, D_S, denormalize_matrix
from repro.simspark.costmodel import resource_rate_h

D_PS = D_P + D_S
D_FULL = D_C + D_PS

# column indices of k1..k3, k2 within FULL_IDS order
_K1, _K2, _K3 = 0, 1, 2


class CompileTimeObjectives:
    """Batched (latency, cost) predictions for one query's subQ DAG."""

    def __init__(self, dag: SubQDag, suite: P.ModelSuite):
        self.dag = dag
        self.sq_ids = sorted(dag.subqs)
        self._stages = P.StageFeatures.of_stages(dag, self.sq_ids, true_stats=False)
        fixed = np.stack([st.subq_fixed() for st in self._stages.values()])
        # one fold for the query: bias-table row i is subQ sq_ids[i]
        self.models = suite.subq.float32.fold(P.SUBQ_FIXED_COLS, fixed)
        self._row = {sq: i for i, sq in enumerate(self.sq_ids)}

    @property
    def m(self) -> int:
        return len(self.sq_ids)

    def resource_rate(self, M_nat: np.ndarray) -> np.ndarray:
        """$ per second held (executors + driver/cluster occupancy)."""
        return resource_rate_h(M_nat[:, _K1], M_nat[:, _K2], M_nat[:, _K3]) / 3600.0

    def derived(self, sq_id: int, knobs) -> np.ndarray:
        """SubQ ``sq_id``'s derived partitioning columns of rows whose
        natural-unit ``features.PARTITION_COLS`` columns are ``knobs``."""
        return self._stages[sq_id].derived(knobs)

    def subq_batch(self, sq_id: int, U_full: np.ndarray) -> np.ndarray:
        """(n, 2) predicted [analytical latency (s), cloud cost ($)] of
        normalized 19-knob rows, decoded here: one forward per model of the
        query's fold, with the subQ's bias row."""
        U_full = np.atleast_2d(U_full)
        M_nat = denormalize_matrix(U_full, P.FULL_IDS)
        X = self._stages[sq_id].subq_varying(U_full, M_nat)
        return self.models.objectives(X, self.resource_rate(M_nat), clamp_latency=True,
                                      row=self._row[sq_id])

    def query_fine_batch(self, U_big: np.ndarray) -> np.ndarray:
        """Query-level objectives for fine-grained decision vectors
        ``[θc | θp_1 θs_1 | ... | θp_m θs_m]`` of dim 8 + 11m: the sum of
        the subQ objectives. Query-level control repeats one θp‖θs."""
        U_big = np.atleast_2d(U_big)
        F = np.zeros((len(U_big), 2))
        for j, i in enumerate(self.sq_ids):
            lo = D_C + j * D_PS
            U_full = np.concatenate([U_big[:, :D_C], U_big[:, lo:lo + D_PS]], axis=1)
            F += self.subq_batch(i, U_full)
        return F
