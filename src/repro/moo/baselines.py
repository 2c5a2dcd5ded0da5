"""SOTA MOO baselines: Weighted Sum, Evolutionary (NSGA-II), Progressive
Frontier, and the fixed-weight single-objective method (SO-FW).

Each method solves Def. 3.3 over the *global* parameter space — either
query-level (one shared 19-knob vector: the prior-work control mode, e.g.
MO-WS = UDAO's weighted sum) or fine-grained (8 + 11·m dims), matching the
paper's Expt 6/7 configurations. All score through the one
compile-time scorer HMOOC3 uses (``CompileTimeObjectives.score``, by way
of ``query_fine_batch``), so every method ranks the same predictions of
the same models. They do not run on the same engine: HMOOC3 scores its
blocks on the cores the BLAS pool leaves idle, the rivals on the calling
thread, so wall-clock solving times compare engines as well as
algorithms (ROADMAP item 16).

``fine`` only sets the dimension that is sampled (and that Evo mutates):
a query-level vector is evaluated and decoded in the fine-grained layout
with its one θp‖θs repeated for every subQ. Each method returns a
``MOOResult``; the caller knows which method it ran.
"""
from __future__ import annotations

import time

import numpy as np

from repro.moo.hmooc import MOOResult, QueryConfig
from repro.moo.objectives import D_C, D_PS, CompileTimeObjectives
from repro.moo.pareto import pareto_indices, weighted_picks
from repro.params import C_IDS, P_IDS, S_IDS, refined_lhs


def _ids(obj: CompileTimeObjectives, fine: bool) -> list[str]:
    """Knob ids of a decision vector: θc, then one θp‖θs per subQ (fine) or
    one shared by all subQs (query-level)."""
    return C_IDS + (P_IDS + S_IDS) * (obj.m if fine else 1)


def _to_fine(obj: CompileTimeObjectives, U: np.ndarray) -> np.ndarray:
    """Decision vectors in the fine-grained layout θc ‖ θp_1 θs_1 ‖ … ‖ θp_m θs_m;
    a query-level vector's one θp‖θs is repeated for every subQ."""
    reps = obj.m * D_PS // (U.shape[1] - D_C)
    return np.concatenate([U[:, :D_C], np.tile(U[:, D_C:], reps)], axis=1)


def _draw(obj: CompileTimeObjectives, n: int, fine: bool,
          seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` refined-LHS decision vectors, drawn in the query-level or
    fine-grained layout, returned in the fine-grained layout with their
    predicted objectives."""
    U = _to_fine(obj, refined_lhs(n, _ids(obj, fine), np.random.default_rng(seed)))
    return U, obj.query_fine_batch(U)


def _result(obj: CompileTimeObjectives, F: np.ndarray, U_fine: np.ndarray,
            solving_time_s: float) -> MOOResult:
    """The Pareto points ``F`` and their fine-layout decision vectors as a
    ``MOOResult``."""
    configs = [QueryConfig.decode(u[:D_C], u[D_C:].reshape(obj.m, D_PS), obj.sq_ids)
               for u in U_fine]
    return MOOResult(F=F, configs=configs, solving_time_s=solving_time_s)


def weighted_sum(obj: CompileTimeObjectives, *, n_samples: int = 10_000,
                 n_weights: int = 11, fine: bool = False, seed: int = 0) -> MOOResult:
    """Classic WS [29]: evenly spaced weight vectors over one big sample set.

    Known failure mode the paper demonstrates (Fig. 4): many weight vectors
    collapse to the same solution, giving poor Pareto coverage.
    """
    t0 = time.perf_counter()
    U, F = _draw(obj, n_samples, fine, seed)
    w = np.linspace(0, 1, n_weights)
    picks = np.unique(weighted_picks(F, np.stack([w, 1 - w], axis=1)))
    keep = picks[pareto_indices(F[picks])]
    return _result(obj, F[keep], U[keep], time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# NSGA-II (Evo [7])
# ---------------------------------------------------------------------------

def _fast_nondominated_rank(F: np.ndarray) -> np.ndarray:
    n = len(F)
    rank = np.zeros(n, dtype=int)
    remaining = np.arange(n)
    r = 0
    while len(remaining):
        sub = F[remaining]
        front = remaining[pareto_indices(sub)]
        rank[front] = r
        remaining = np.setdiff1d(remaining, front)
        r += 1
    return rank


def _crowding(F: np.ndarray) -> np.ndarray:
    n = len(F)
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for j in range(F.shape[1]):
        order = np.argsort(F[:, j])
        span = F[order[-1], j] - F[order[0], j] or 1.0
        dist[order[0]] = dist[order[-1]] = np.inf
        dist[order[1:-1]] += (F[order[2:], j] - F[order[:-2], j]) / span
    return dist


def evo(obj: CompileTimeObjectives, *, pop: int = 100, n_evals: int = 500,
        fine: bool = False, seed: int = 0) -> MOOResult:
    """NSGA-II with SBX crossover and polynomial mutation in [0,1]^d."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    P = refined_lhs(pop, _ids(obj, fine), rng)
    d = P.shape[1]
    FP = obj.query_fine_batch(_to_fine(obj, P))
    evals = pop
    eta_c, eta_m = 10.0, 20.0
    while evals < n_evals:
        rank = _fast_nondominated_rank(FP)
        # binary tournament by (rank, crowding)
        crowd = np.zeros(len(P))
        for r in np.unique(rank):
            mask = rank == r
            crowd[mask] = _crowding(FP[mask])
        cand = rng.integers(0, len(P), (pop, 2))
        better = np.where(
            (rank[cand[:, 0]] < rank[cand[:, 1]])
            | ((rank[cand[:, 0]] == rank[cand[:, 1]])
               & (crowd[cand[:, 0]] >= crowd[cand[:, 1]])),
            cand[:, 0], cand[:, 1])
        parents = P[better]
        # SBX
        kids = parents.copy()
        for i in range(0, pop - 1, 2):
            u = rng.random(d)
            beta = np.where(u <= 0.5, (2 * u) ** (1 / (eta_c + 1)),
                            (1 / (2 * (1 - u))) ** (1 / (eta_c + 1)))
            a, b = parents[i], parents[i + 1]
            kids[i] = 0.5 * ((1 + beta) * a + (1 - beta) * b)
            kids[i + 1] = 0.5 * ((1 - beta) * a + (1 + beta) * b)
        # polynomial mutation
        mut = rng.random(kids.shape) < (1.0 / d)
        u = rng.random(kids.shape)
        delta = np.where(u < 0.5, (2 * u) ** (1 / (eta_m + 1)) - 1,
                         1 - (2 * (1 - u)) ** (1 / (eta_m + 1)))
        kids = np.clip(kids + mut * delta, 0.0, 1.0)
        FK = obj.query_fine_batch(_to_fine(obj, kids))
        evals += pop
        # environmental selection
        allP = np.concatenate([P, kids])
        allF = np.concatenate([FP, FK])
        rank = _fast_nondominated_rank(allF)
        order = []
        for r in np.unique(rank):
            idx = np.flatnonzero(rank == r)
            idx = idx[np.argsort(-_crowding(allF[idx]))]
            order.extend(idx.tolist())
            if len(order) >= pop:
                break
        sel = np.array(order[:pop])
        P, FP = allP[sel], allF[sel]
    keep = pareto_indices(FP)
    return _result(obj, FP[keep], _to_fine(obj, P[keep]), time.perf_counter() - t0)


def progressive_frontier(obj: CompileTimeObjectives, *, n_probes: int = 2048,
                         n_points: int = 11, fine: bool = False,
                         seed: int = 0) -> MOOResult:
    """Progressive Frontier [40]: extreme points, then repeated
    middle-point constrained solves (ε-constraint via filtered sampling)."""
    t0 = time.perf_counter()
    U, F = _draw(obj, n_probes, fine, seed)
    sols: dict[int, np.ndarray] = {}
    for j in range(2):
        sols[int(F[:, j].argmin())] = F[F[:, j].argmin()]
    rects = [(min(sols, key=lambda i: F[i, 0]), min(sols, key=lambda i: F[i, 1]))]
    lo_all, hi_all = F.min(axis=0), F.max(axis=0)
    rng_span = np.where(hi_all > lo_all, hi_all - lo_all, 1.0)
    while len(sols) < n_points and rects:
        # pick the widest rectangle (by normalized volume)
        spans = []
        for a, b in rects:
            spans.append(abs((F[a, 0] - F[b, 0]) * (F[a, 1] - F[b, 1])) / (rng_span[0] * rng_span[1]))
        k = int(np.argmax(spans))
        a, b = rects.pop(k)
        mid1 = 0.5 * (F[a, 1] + F[b, 1])
        # constrained solve: min f0 s.t. f1 <= mid1
        mask = F[:, 1] <= mid1
        if not mask.any():
            continue
        i_new = int(np.flatnonzero(mask)[F[mask, 0].argmin()])
        if i_new in sols:
            continue
        sols[i_new] = F[i_new]
        rects.append((a, i_new))
        rects.append((i_new, b))
    idx = np.array(sorted(sols))
    keep = pareto_indices(F[idx])
    final = idx[keep]
    return _result(obj, F[final], U[final], time.perf_counter() - t0)


def so_fixed_weights(obj: CompileTimeObjectives, prefs, *, n_samples: int = 4096,
                     seed: int = 0) -> dict[tuple, MOOResult]:
    """SO-FW [21, 59, 66]: collapse objectives with fixed weights and return
    the single optimum — the theoretically unsound baseline of Expt 10.

    Query-level control; normalization is the sampled min-max, as in prior
    work. The sample and its predictions do not depend on the weights, so
    one sample serves every weight vector in ``prefs``. Returns, per weight
    vector, its optimum as a one-point ``MOOResult`` carrying the shared
    solving time.
    """
    t0 = time.perf_counter()
    U, F = _draw(obj, n_samples, False, seed)
    picks = weighted_picks(F, prefs)
    solve_t = time.perf_counter() - t0
    return {tuple(w): _result(obj, F[i:i + 1], U[i:i + 1], solve_t)
            for w, i in zip(prefs, picks)}
