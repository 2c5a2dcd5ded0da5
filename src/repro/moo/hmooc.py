"""HMOOC: Hierarchical Multi-Objective Optimization with Constraints (§5.1).

Compile-time fine-grained tuning as a divide-and-conquer over subQs under
the constraint that every subQ shares the same θc:

1. **Effective-set generation** (Algorithm 1) — LHS-initialize θc
   candidates, cluster them (k-means), solve the θp⊗θs MOO per cluster
   representative per subQ over a shared sample pool, assign each member
   its representative's optimal θp set, then *enrich* θc by the crossover
   (Cartesian-product) heuristic of Appendix C.1 and re-assign. All θc
   candidates (the crossover's too) and the pool are drawn, and made
   into the objectives' ``tables`` (decoded and standardized) once per
   solve; every scored row gathers from those tables. Each phase
   (optimize, then assign and re-assign together) is one
   ``CompileTimeObjectives.score`` call, whose work unit is one of
   ``MLPRegressor.predict``'s 512-row blocks of one subQ's batch: the
   solve runs them on the cores the BLAS pool leaves idle
   (``solve_workers``). A worker only gathers a block's rows and
   multiplies them through the query's folded models; ``score`` takes
   the derived columns (once per subQ) and the objectives (once over all
   rows) on the calling thread. Optimize's Pareto filters run
   as one sweep (``pareto.pareto_mask``), and the effective set keeps,
   per (subQ, θc candidate), only the two points aggregation reads.
2. **DAG aggregation** — HMOOC3's boundary approximation: under each θc,
   the k = 2 extreme points (best-latency, best-cost) of the query-level
   front, each the sum of every subQ's per-objective optimum, for all
   candidates in one call. The paper's HMOOC1 (exact divide-and-conquer)
   and HMOOC2 (weighted sum) are not implemented; OPT ships HMOOC3.
3. **WUN recommendation** — pick the Pareto point nearest the Utopia
   point under the user's preference weights.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.blas import idle_core_threads
from repro.model.mlp import predict_blocks
from repro.moo.objectives import CompileTimeObjectives
from repro.moo.pareto import pareto_indices, pareto_mask, wun_select
from repro.params import C_IDS, D_P, P_IDS, S_IDS, denormalize_matrix, refined_lhs

KMEANS_ITERS = 20   # most Lloyd iterations of the θc clustering


@dataclass
class QueryConfig:
    """A full fine-grained configuration: θc + per-subQ θp/θs."""

    theta_c: dict
    theta_p: dict[int, dict] = field(default_factory=dict)  # sq_id -> θp
    theta_s: dict[int, dict] = field(default_factory=dict)  # sq_id -> θs

    @classmethod
    def decode(cls, u_c: np.ndarray, u_ps, sq_ids: list[int]) -> "QueryConfig":
        """Decode normalized θc plus one normalized θp‖θs row per subQ."""
        return cls.of_natural(denormalize_matrix(u_c, C_IDS),
                              denormalize_matrix(u_ps, P_IDS + S_IDS), sq_ids)

    @classmethod
    def of_natural(cls, c_nat: np.ndarray, ps_nat: np.ndarray,
                   sq_ids: list[int]) -> "QueryConfig":
        """θc plus one θp‖θs row per subQ, all in natural units."""
        qc = cls(theta_c=dict(zip(C_IDS, c_nat.tolist())))
        for sq, row in zip(sq_ids, ps_nat.tolist()):
            qc.theta_p[sq] = dict(zip(P_IDS, row[:D_P]))
            qc.theta_s[sq] = dict(zip(S_IDS, row[D_P:]))
        return qc


@dataclass
class MOOResult:
    """A Pareto set in objective space plus the matching configurations."""

    F: np.ndarray                 # (n, 2) [latency, cost]
    configs: list[QueryConfig]
    solving_time_s: float

    def recommend(self, weights) -> tuple[np.ndarray, QueryConfig]:
        i = wun_select(self.F, np.asarray(weights))
        return self.F[i], self.configs[i]


def _sq_dist(U: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances from each row of ``U`` to each center."""
    return ((U[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _kmeans(U: np.ndarray, k: int, *, seed: int):
    """Tiny k-means over normalized θc vectors, at most ``KMEANS_ITERS``
    Lloyd iterations; returns (labels, rep_idx, centers)."""
    rng = np.random.default_rng(seed)
    k = min(k, len(U))
    centers = U[rng.choice(len(U), k, replace=False)]
    labels = np.zeros(len(U), dtype=int)
    for _ in range(KMEANS_ITERS):
        new_labels = _sq_dist(U, centers).argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            mask = labels == j
            if mask.any():
                centers[j] = U[mask].mean(axis=0)
    # representative = member nearest its centroid
    d = _sq_dist(U, centers)
    rep_idx = np.array([
        np.flatnonzero(labels == j)[d[labels == j, j].argmin()]
        if (labels == j).any() else 0
        for j in range(k)])
    return labels, rep_idx, centers


def _assign_cluster(U_new: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return _sq_dist(U_new, centers).argmin(axis=1)


def _crossover_enrich(Uc: np.ndarray, n_new: int, seed: int) -> np.ndarray:
    """Appendix C.1 θc crossover: split two parents at a random knob
    boundary and take the Cartesian product of the halves."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n_new:
        i, j = rng.choice(len(Uc), 2, replace=False)
        cut = rng.integers(1, Uc.shape[1])
        out.append(np.concatenate([Uc[i, :cut], Uc[j, cut:]]))
        out.append(np.concatenate([Uc[j, :cut], Uc[i, cut:]]))
    return np.array(out[:n_new])


@dataclass
class _EffectiveSet:
    """Each subQ's two extreme points under every θc candidate."""

    C_nat: np.ndarray     # (n_c, 8) θc candidates in natural units
    pool_nat: np.ndarray  # (n_p, 11) shared θp⊗θs pool in natural units
    # F[i, ci, j]: the objectives of subQ i's best point on objective j
    # under candidate ci, (m, n_c, 2, 2); picks[i, ci, j]: its pool index
    F: np.ndarray
    picks: np.ndarray


def solve_workers(n_blocks: int) -> int:
    """Threads that score a solve's row blocks: ``blas.idle_core_threads()``,
    the cores the BLAS pool leaves idle, at most one per block."""
    return min(n_blocks, idle_core_threads())


def generate_effective_set(obj: CompileTimeObjectives, *, n_c: int = 128,
                           n_clusters: int = 14, n_p: int = 256,
                           seed: int = 0) -> _EffectiveSet:
    """Algorithm 1: effective per-subQ solution sets under shared θc,
    reduced to each set's two extreme points.

    Every θc candidate is drawn up front (the crossover has its own RNG),
    and the candidates and the pool make one ``obj.tables`` (decoded once,
    standardized once in the scaling of ``obj.models``, the query's fold).
    A row pairs a candidate with a pool row. Each phase lays out one batch
    of rows per subQ (per pass in assign) and scores all of them with one
    ``obj.score`` call, whose blocks run on ``solve_workers`` threads
    (numpy releases the GIL in BLAS calls). ``score`` makes a batch's
    bytes independent of what is scored with it and of the order its
    blocks run in, so the sets are bit-identical to scoring each batch
    on its own, laid out in full and forwarded block by block.
    """
    rng = np.random.default_rng(seed)
    Uc = refined_lhs(n_c, C_IDS, rng)
    labels, rep_idx, centers = _kmeans(Uc, n_clusters, seed=seed)
    pool = refined_lhs(n_p, P_IDS + S_IDS, rng)
    # the candidates of assign, then of re-assign (the crossover's), each
    # pass's grouped by cluster in candidate order
    passes = [np.argsort(labels, kind="stable")]
    if len(Uc) >= 2:
        U_new = _crossover_enrich(Uc, n_c // 2, seed + 1)
        labels = np.concatenate([labels, _assign_cluster(U_new, centers)])
        passes.append(len(Uc) + np.argsort(labels[len(Uc):], kind="stable"))
        Uc = np.concatenate([Uc, U_new], axis=0)
    T = obj.tables(Uc, pool)
    m, k, n_cands = len(obj.sq_ids), len(rep_idx), len(Uc)
    workers = ThreadPoolExecutor(solve_workers(m * len(predict_blocks(k * n_p))))
    with workers:
        # optimize_p_moo: each representative's local Pareto θp⊗θs, scored
        # against the whole pool
        F = obj.score(T, np.tile(np.repeat(rep_idx, n_p), m), np.tile(np.arange(n_p), m * k),
                      enumerate(np.full((m, 1), k * n_p)), workers.map)
        keep = pareto_mask(F.reshape(m * k, n_p, 2))
        # assign and re-assign: every member of a cluster is scored with
        # its representative's Pareto set, one segment of rows per (subQ,
        # candidate)
        n_pareto = keep.sum(axis=1)
        seg_sq = np.repeat(np.arange(m), n_cands)
        seg_c = np.tile(np.concatenate(passes), m)
        sets = seg_sq * k + labels[seg_c]            # each segment's Pareto set
        seg_len = n_pareto[sets]
        starts = np.cumsum(seg_len) - seg_len        # each segment's first row
        set_starts = np.cumsum(n_pareto) - n_pareto  # each set's first entry
        p_idx = np.nonzero(keep)[1][np.repeat(set_starts[sets] - starts, seg_len)
                                    + np.arange(seg_len.sum())]
        cuts = np.cumsum([0] + [len(c) for c in passes[:-1]])
        F = obj.score(T, np.repeat(seg_c, seg_len), p_idx,
                      enumerate(np.add.reduceat(seg_len.reshape(m, n_cands), cuts, axis=1)),
                      workers.map)
    # each segment's first best row on each objective
    best = np.empty((len(seg_len), 2), dtype=np.int64)
    for j in range(2):
        low = np.repeat(np.minimum.reduceat(F[:, j], starts), seg_len)
        best[:, j] = np.minimum.reduceat(np.where(F[:, j] == low, np.arange(len(F)), len(F)),
                                         starts)
    F_ext = np.empty((m, n_cands, 2, 2))
    picks = np.empty((m, n_cands, 2), dtype=np.int64)
    F_ext[seg_sq, seg_c] = F[best]
    picks[seg_sq, seg_c] = p_idx[best]
    return _EffectiveSet(C_nat=T.C_nat, pool_nat=T.PS_nat, F=F_ext, picks=picks)


# ---------------------------------------------------------------------------
# DAG aggregation (§5.1.2)
# ---------------------------------------------------------------------------

def aggregate_boundary(F: np.ndarray, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """HMOOC3 under every θc: the k = 2 extreme points (best-latency,
    best-cost), each the sum over subQs of the subQ's own extreme point.

    ``F`` (m, n_c, 2, 2) and ``picks`` (m, n_c, 2) hold each subQ's extreme
    points and their pool indices (``_EffectiveSet``), in subQ order.
    Returns the points' (n_c, 2, 2) objectives, summed from zeros in subQ
    order, and per point the pool index each subQ takes, (n_c, 2, m).
    """
    total = np.zeros(F.shape[1:])
    for F_sq in F:
        total = total + F_sq
    return total, np.moveaxis(picks, 0, -1)


# perfbench/workloads.py passes ``agg="boundary"`` and traces this entry in
# place, so the one-entry table and the ``agg`` argument stay.
_AGGREGATORS = {"boundary": aggregate_boundary}


def hmooc(dag, suite, *, agg: str = "boundary", n_c: int = 128, n_clusters: int = 14,
          n_p: int = 256, seed: int = 0,
          objectives: CompileTimeObjectives | None = None) -> MOOResult:
    """Full compile-time HMOOC3 pipeline."""
    t0 = time.perf_counter()
    obj = objectives or CompileTimeObjectives(dag, suite)
    eff = generate_effective_set(obj, n_c=n_c, n_clusters=n_clusters, n_p=n_p,
                                 seed=seed)
    F_c, picks = _AGGREGATORS[agg](eff.F, eff.picks)
    F = F_c.reshape(-1, 2)   # row 2·ci + j: candidate ci's best point on objective j
    keep = pareto_indices(F)
    configs = [QueryConfig.of_natural(eff.C_nat[ci], eff.pool_nat[picks[ci, j]], obj.sq_ids)
               for ci, j in zip(*np.divmod(keep, 2))]
    return MOOResult(F=F[keep], configs=configs, solving_time_s=time.perf_counter() - t0)
