"""HMOOC: Hierarchical Multi-Objective Optimization with Constraints (§5.1).

Compile-time fine-grained tuning as a divide-and-conquer over subQs under
the constraint that every subQ shares the same θc:

1. **Effective-set generation** (Algorithm 1) — LHS-initialize θc
   candidates, cluster them (k-means), solve the θp⊗θs MOO per cluster
   representative per subQ over a shared sample pool, assign each member
   its representative's optimal θp set, then *enrich* θc by the crossover
   (Cartesian-product) heuristic of Appendix C.1 and re-assign. Each
   phase (optimize, assign, re-assign) makes one model call per subQ over
   all of its (cluster, subQ) blocks. Under a fixed θc the subQs'
   problems are independent, so a phase runs its subQs concurrently, on
   the cores the BLAS pool leaves idle (``solve_workers``); the phases
   run in order.
2. **DAG aggregation** — HMOOC3's boundary approximation: under each θc,
   the k = 2 extreme points (best-latency, best-cost) of the query-level
   front, each the sum of every subQ's per-objective optimum. The paper's
   HMOOC1 (exact divide-and-conquer) and HMOOC2 (weighted sum) are not
   implemented; OPT ships HMOOC3.
3. **WUN recommendation** — pick the Pareto point nearest the Utopia
   point under the user's preference weights.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.model.mlp import idle_core_threads
from repro.moo.objectives import CompileTimeObjectives
from repro.moo.pareto import pareto_indices, wun_select
from repro.params import (C_IDS, D_P, P_IDS, S_IDS, denormalize_matrix, from_vector,
                          refined_lhs)


@dataclass
class QueryConfig:
    """A full fine-grained configuration: θc + per-subQ θp/θs."""

    theta_c: dict
    theta_p: dict[int, dict] = field(default_factory=dict)  # sq_id -> θp
    theta_s: dict[int, dict] = field(default_factory=dict)  # sq_id -> θs

    @classmethod
    def decode(cls, u_c: np.ndarray, u_ps, sq_ids: list[int]) -> "QueryConfig":
        """Decode normalized θc plus one normalized θp‖θs row per subQ."""
        qc = cls(theta_c=from_vector(u_c, C_IDS))
        M = denormalize_matrix(u_ps, P_IDS + S_IDS).tolist()
        for sq, row in zip(sq_ids, M):
            qc.theta_p[sq] = dict(zip(P_IDS, row[:D_P]))
            qc.theta_s[sq] = dict(zip(S_IDS, row[D_P:]))
        return qc


@dataclass
class MOOResult:
    """A Pareto set in objective space plus the matching configurations."""

    F: np.ndarray                 # (n, 2) [latency, cost]
    configs: list[QueryConfig]
    solving_time_s: float
    method: str

    def recommend(self, weights) -> tuple[np.ndarray, QueryConfig]:
        i = wun_select(self.F, np.asarray(weights))
        return self.F[i], self.configs[i]


def _sq_dist(U: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances from each row of ``U`` to each center."""
    return ((U[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _kmeans(U: np.ndarray, k: int, *, iters: int = 20, seed: int = 0):
    """Tiny k-means over normalized θc vectors; returns (labels, rep_idx,
    centers)."""
    rng = np.random.default_rng(seed)
    k = min(k, len(U))
    centers = U[rng.choice(len(U), k, replace=False)]
    labels = np.zeros(len(U), dtype=int)
    for _ in range(iters):
        d = _sq_dist(U, centers)
        new_labels = d.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            labels = new_labels
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
    """Per-subQ solutions grouped by θc candidate."""

    Uc: np.ndarray                       # (n_c, 8) θc candidates (normalized)
    pool: np.ndarray                     # (n_p, 11) shared θp⊗θs pool
    # sols[sq_id][cand_idx] = (pool_indices, F (len, 2))
    sols: dict[int, list[tuple[np.ndarray, np.ndarray]]]


def solve_workers(n_subqs: int) -> int:
    """Threads that score a solve's subQs: ``mlp.idle_core_threads()``,
    the cores the BLAS pool leaves idle, at most one per subQ."""
    return min(n_subqs, idle_core_threads())


def generate_effective_set(obj: CompileTimeObjectives, *, n_c: int = 128,
                           n_clusters: int = 14, n_p: int = 256,
                           seed: int = 0) -> _EffectiveSet:
    """Algorithm 1: effective per-subQ solution sets under shared θc.

    Under a fixed θc the subQs' θp⊗θs problems are independent, so each
    phase scores its subQs on ``solve_workers`` threads (numpy releases
    the GIL in BLAS calls). Each subQ's work is the same on any thread,
    so the sets are bit-identical to scoring them one after another.
    """
    rng = np.random.default_rng(seed)
    Uc = refined_lhs(n_c, C_IDS, rng)
    labels, rep_idx, centers = _kmeans(Uc, n_clusters, seed=seed)
    pool = refined_lhs(n_p, P_IDS + S_IDS, rng)

    def score(sq: int, blocks: list, U_cands: np.ndarray) -> list[np.ndarray]:
        # One model call per subQ over row blocks (candidate indices, pool
        # indices); returns F per block.
        c_idx = np.concatenate([c for c, _ in blocks])
        p_idx = np.concatenate([p for _, p in blocks])
        F = obj.subq_batch(sq, np.concatenate([U_cands[c_idx], pool[p_idx]], axis=1))
        return np.split(F, np.cumsum([len(c) for c, _ in blocks])[:-1])

    def optimize(sq: int) -> list[np.ndarray]:
        # optimize_p_moo: each representative's local Pareto θp⊗θs, scored
        # against the whole pool; one array of pool indices per cluster
        blocks = [(np.full(n_p, r), np.arange(n_p)) for r in rep_idx]
        return [pareto_indices(F) for F in score(sq, blocks, Uc)]

    def assign(sq: int, U_cands: np.ndarray, groups: dict) -> list:
        # Every member of a cluster is evaluated with its representative's
        # optimal θp set.
        out: list = [None] * len(U_cands)
        pidxs = [opt_idx[sq][g] for g in groups]
        blocks = [(np.repeat(members, len(pidx)), np.tile(pidx, len(members)))
                  for members, pidx in zip(groups.values(), pidxs)]
        for members, pidx, F in zip(groups.values(), pidxs, score(sq, blocks, U_cands)):
            for ci, F_ci in zip(members, F.reshape(len(members), len(pidx), 2)):
                out[ci] = (pidx, F_ci)
        return out

    def clusters(cand_labels: np.ndarray) -> dict:
        return {g: members for g in range(len(rep_idx))
                if len(members := np.flatnonzero(cand_labels == g))}

    with ThreadPoolExecutor(solve_workers(len(obj.sq_ids))) as workers:
        def each_subq(phase, *args) -> dict:
            return dict(zip(obj.sq_ids, workers.map(lambda sq: phase(sq, *args),
                                                    obj.sq_ids)))

        opt_idx = each_subq(optimize)
        sols = each_subq(assign, Uc, clusters(labels))
        if len(Uc) >= 2:
            U_new = _crossover_enrich(Uc, n_c // 2, seed + 1)
            new_sols = each_subq(assign, U_new, clusters(_assign_cluster(U_new, centers)))
            for sq in obj.sq_ids:
                sols[sq].extend(new_sols[sq])
            Uc = np.concatenate([Uc, U_new], axis=0)
    return _EffectiveSet(Uc=Uc, pool=pool, sols=sols)


# ---------------------------------------------------------------------------
# DAG aggregation (§5.1.2)
# ---------------------------------------------------------------------------

def aggregate_boundary(sq_sols: list[tuple[np.ndarray, np.ndarray]]):
    """HMOOC3 for one θc: the k = 2 extreme points (best-latency, best-cost).

    ``sq_sols`` holds each subQ's ``(pool indices, F)`` in subQ order.
    Returns the points' ``(2, 2)`` objectives and, per point, the array of
    the pool index each subQ takes.
    """
    out_F, out_I = [], []
    for obj_i in range(2):
        total = np.zeros(2)
        picks = []
        for pidx, F in sq_sols:
            j = int(F[:, obj_i].argmin())
            total = total + F[j]
            picks.append(pidx[j])
        out_F.append(total)
        out_I.append(np.array(picks))
    return np.array(out_F), out_I


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
    aggregate = _AGGREGATORS[agg]

    all_F: list[np.ndarray] = []
    all_cfg: list[tuple[int, np.ndarray]] = []  # (θc cand index, per-subQ pool idx)
    for ci in range(len(eff.Uc)):
        F_c, picks = aggregate([eff.sols[sq][ci] for sq in obj.sq_ids])
        all_F.append(F_c)
        all_cfg.extend((ci, p) for p in picks)
    F = np.concatenate(all_F, axis=0)
    keep = pareto_indices(F)

    configs = [QueryConfig.decode(eff.Uc[ci], eff.pool[picks], obj.sq_ids)
               for ci, picks in (all_cfg[i] for i in keep)]
    return MOOResult(F=F[keep], configs=configs,
                     solving_time_s=time.perf_counter() - t0, method=f"hmooc-{agg}")
