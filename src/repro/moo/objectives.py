"""Model-based objective evaluation for the compile-time optimizer.

``CompileTimeObjectives`` turns batches of candidate configurations into
predicted (analytical latency, cloud cost) pairs per subQ, using the
trained subQ models with CBO-estimated statistics (paper §5.1: the
modeling constraint of compile time). Cloud cost decomposes per subQ as

    cost_i = ana_latency_i * resource_rate(θc) + io_i * io_price

so query-level objectives are sums of subQ-level ones — the property the
whole HMOOC DAG-aggregation machinery relies on (Λ = sum). The cost
formula is ``predictor.to_objectives``.

Each subQ's embedding and α ‖ β ‖ γ are the same in every row, so at
construction they are folded, for all subQs with one product per model
(``TargetModels.fold``), into the suite's float32 subQ latency and IO
models: one model per target for the query, whose first-layer bias table
has one row per subQ (``models``). A row then carries only the 19 knob columns and the 3
derived partitioning columns.

``score`` is the one compile-time scorer; HMOOC3 (``repro.moo.hmooc``) and
every baseline (``repro.moo.baselines``, through ``query_fine_batch``)
score through it. A caller builds ``tables`` of θc rows and θp‖θs rows,
decoded, priced and standardized once, and names each scored row by one
θc row and one θp‖θs row. ``score`` takes each subQ's derived columns
once per call, cuts each batch into ``MLPRegressor.predict``'s blocks
(``mlp.predict_blocks``), hands the blocks to the caller's ``map_blocks``
(HMOOC3 a thread pool's ``map``, the rest the builtin ``map``), and turns
all rows' predictions into objectives at once.

Everything is vectorized over normalized knob matrices ``U`` whose columns
follow ``FULL_IDS`` (θc ‖ θp ‖ θs).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.plan import SubQDag
from repro.model import predictor as P
from repro.model.features import DERIVED_DIM, PARTITION_COLS
from repro.model.mlp import predict_blocks
from repro.params import C_IDS, D_C, D_P, D_S, P_IDS, S_IDS, denormalize_matrix
from repro.simspark.costmodel import resource_rate_h

D_PS = D_P + D_S
D_FULL = D_C + D_PS

# ``predict_blocks`` blocks of each subQ's rows that one ``score`` call of
# ``query_fine_batch`` takes
FINE_CHUNK_BLOCKS = 8

# column indices of k1..k3, k2 within FULL_IDS order
_K1, _K2, _K3 = 0, 1, 2


@dataclass(frozen=True)
class Tables:
    """θc rows and θp‖θs rows as ``CompileTimeObjectives.score`` reads them."""

    C_nat: np.ndarray    # θc rows in natural units
    PS_nat: np.ndarray   # θp‖θs rows in natural units
    rate: np.ndarray     # each θc row's $ per second held
    Cs: np.ndarray       # θc rows in the fold's input scaling
    PSs: np.ndarray      # θp‖θs rows in the fold's input scaling


class CompileTimeObjectives:
    """Batched (latency, cost) predictions for one query's subQ DAG."""

    def __init__(self, dag: SubQDag, suite: P.ModelSuite):
        self.dag = dag
        self.sq_ids = sorted(dag.subqs)
        self._stages = list(P.StageFeatures.of_stages(dag, self.sq_ids, true_stats=False).values())
        fixed = np.stack([st.subq_fixed() for st in self._stages])
        # one fold for the query: bias-table row i is subQ sq_ids[i]
        self.models = suite.subq.fold(P.SUBQ_FIXED_COLS, fixed)

    @property
    def m(self) -> int:
        return len(self.sq_ids)

    def resource_rate(self, M_nat: np.ndarray) -> np.ndarray:
        """$ per second held (executors + driver/cluster occupancy)."""
        return resource_rate_h(M_nat[:, _K1], M_nat[:, _K2], M_nat[:, _K3]) / 3600.0

    def tables(self, Uc: np.ndarray, Ups: np.ndarray) -> Tables:
        """Normalized θc rows ``Uc`` and θp‖θs rows ``Ups``, each decoded
        once, the θc rows priced, and both standardized in the scaling of
        ``models``."""
        C_nat = denormalize_matrix(Uc, C_IDS)
        return Tables(C_nat, denormalize_matrix(Ups, P_IDS + S_IDS), self.resource_rate(C_nat),
                      self.models.standardize(Uc, slice(0, D_C)),
                      self.models.standardize(Ups, slice(D_C, D_FULL)))

    def score(self, tables: Tables, c_idx: np.ndarray, p_idx: np.ndarray, sizes,
              map_blocks) -> np.ndarray:
        """(n, 2) predicted [analytical latency (s), cloud cost ($)] of rows
        pairing θc row ``c_idx`` with θp‖θs row ``p_idx`` of ``tables``,
        laid out as ``sizes`` lists them: for each ``(i, batches)`` pair,
        subQ ``sq_ids[i]``'s rows, in batches of ``batches`` rows each.

        Each subQ's derived partitioning columns are taken once, from the
        knob columns gathered from the natural-unit tables. Each batch is
        cut into ``predict_blocks``, and ``map_blocks(fn, blocks)`` runs
        every block: it gathers the block's rows into one buffer and runs
        each model's gemm chain with the subQ's bias row, writing into its
        slice of the result. The clamp and the cost formula
        (``predictor.to_objectives``) then run once over all rows. Every
        step outside the gemms is elementwise, and a block is forwarded as
        ``MLPRegressor.predict`` forwards it within its batch, so a batch's
        bytes are those of its rows laid out in full, standardized and
        forwarded block by block, whatever else is scored with it and in
        whatever order ``map_blocks`` runs the blocks."""
        F = np.empty((len(c_idx), 2))
        D = np.empty((len(c_idx), DERIVED_DIM), dtype=tables.Cs.dtype)
        blocks, lo = [], 0
        for i, batches in sizes:
            hi = lo + sum(batches)
            c, p = c_idx[lo:hi], p_idx[lo:hi]
            knobs = {kid: tables.C_nat[c, j] if j < D_C else tables.PS_nat[p, j - D_C]
                     for kid, j in PARTITION_COLS.items()}
            D[lo:hi] = self.models.standardize(self._stages[i].derived(knobs), slice(D_FULL, None))
            for n in batches:
                blocks += [(i, lo + s, lo + e) for s, e in predict_blocks(n)]
                lo += n

        def block(task):
            i, s, e = task
            H = np.empty((e - s, D_FULL + DERIVED_DIM), dtype=D.dtype)
            H[:, :D_C] = tables.Cs[c_idx[s:e]]
            H[:, D_C:D_FULL] = tables.PSs[p_idx[s:e]]
            H[:, D_FULL:] = D[s:e]
            self.models.predict_block(H, F[s:e], row=i)

        list(map_blocks(block, blocks))   # runs every block
        return P.to_objectives(F, tables.rate[c_idx], clamp_latency=True)

    def subq_batch(self, sq_id: int, U_full: np.ndarray) -> np.ndarray:
        """(n, 2) predicted [analytical latency (s), cloud cost ($)] of
        normalized 19-knob rows for subQ ``sq_id``: one ``score`` call."""
        U_full = np.atleast_2d(U_full)
        rows = np.arange(len(U_full))
        return self.score(self.tables(U_full[:, :D_C], U_full[:, D_C:]), rows, rows,
                          [(self.sq_ids.index(sq_id), [len(rows)])], map)

    def query_fine_batch(self, U_big: np.ndarray) -> np.ndarray:
        """Query-level objectives for fine-grained decision vectors
        ``[θc | θp_1 θs_1 | ... | θp_m θs_m]`` of dim 8 + 11m: the sum of
        the subQ objectives, from zeros in subQ order. The vectors are
        scored in chunks of ``FINE_CHUNK_BLOCKS`` of their ``predict_blocks``
        blocks, so each subQ's rows keep the block cuts of all n rows and
        the temporaries hold m chunks, not m·n rows. One ``score`` call
        scores a chunk for every subQ, with one θc table and one θp‖θs
        table that stacks the subQs' columns subQ after subQ. Query-level
        control repeats one θp‖θs."""
        U_big = np.atleast_2d(U_big)
        F = np.empty((len(U_big), 2))
        blocks = predict_blocks(len(U_big))
        for k in range(0, len(blocks), FINE_CHUNK_BLOCKS):
            chunk = blocks[k:k + FINE_CHUNK_BLOCKS]
            lo, hi = chunk[0][0], chunk[-1][1]
            F[lo:hi] = self._fine_chunk(U_big[lo:hi])
        return F

    def _fine_chunk(self, U_big: np.ndarray) -> np.ndarray:
        """``query_fine_batch`` of one chunk: one ``score`` call."""
        n, m = len(U_big), self.m
        Ups = U_big[:, D_C:].reshape(n, m, D_PS).transpose(1, 0, 2).reshape(m * n, D_PS)
        F = self.score(self.tables(U_big[:, :D_C], Ups), np.tile(np.arange(n), m),
                       np.arange(m * n), enumerate(np.full((m, 1), n)), map)
        return sum(F.reshape(m, n, 2), np.zeros((n, 2)))
