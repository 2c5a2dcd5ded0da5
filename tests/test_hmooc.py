"""Unit tests for HMOOC: effective-set generation, HMOOC3's boundary
aggregation and the end-to-end pipeline — including the paper's formal
properties (Prop. 5.1–5.3, Appendix B). The exact per-θc aggregation
(HMOOC1) lives here only as a test oracle."""
import copy
import itertools
import os
import sys

import numpy as np
import pytest

from repro import blas
from repro.core.plan import partition_subqs
from repro.core.workloads import build_query
from repro.model.mlp import predict_blocks
from repro.moo import hmooc as H
from repro.moo.objectives import CompileTimeObjectives
from repro.moo.pareto import pareto_indices
from repro.params import C_IDS, P_IDS, S_IDS, denormalize_matrix, lhs_unit, refined_lhs
from tests.conftest import dominates, subq_batch_oracle


def _sols(rng, n, m):
    """Random per-subQ solution lists [(pool indices, F)] for aggregation tests."""
    return [(np.arange(n), rng.random((n, 2)) * 10) for _ in range(m)]


def brute_force_query_front(sq_sols):
    """Enumerate every combination (exponential — small cases only); returns
    the query-level front and, per point, each subQ's pool index."""
    rows = list(itertools.product(*[range(len(F)) for _, F in sq_sols]))
    F_all = np.array([sum(F[j] for (_, F), j in zip(sq_sols, row)) for row in rows])
    keep = pareto_indices(F_all)
    return F_all[keep], [tuple(pidx[j] for (pidx, _), j in zip(sq_sols, rows[i]))
                         for i in keep]


def exact_query_front(sq_sols):
    """HMOOC1's exact aggregation for one θc: Minkowski-sum the subQs' local
    fronts one at a time and keep the Pareto set (lossless by Prop. 5.1).
    Returns the front and, per point, each subQ's pool index."""
    F, combos = np.zeros((1, 2)), [[]]
    for pidx, F_sq in sq_sols:
        local = pareto_indices(F_sq)
        S = (F[:, None, :] + F_sq[local][None, :, :]).reshape(-1, 2)
        keep = pareto_indices(S)
        F = S[keep]
        combos = [combos[i // len(local)] + [pidx[local[i % len(local)]]] for i in keep]
    return F, combos


def _points(F):
    return {tuple(np.round(f, 9)) for f in F}


def _extremes(sols):
    """The reduction ``generate_effective_set`` keeps of full per-candidate
    sets: ``sols[i][ci]`` is subQ i's ``(pool indices, F)`` under candidate
    ci. Returns F (m, n_c, 2, 2) and pool indices (m, n_c, 2) of each
    set's first argmin on each objective."""
    F = np.array([[[F_ci[F_ci[:, j].argmin()] for j in range(2)] for _, F_ci in sq]
                  for sq in sols])
    picks = np.array([[[pidx[F_ci[:, j].argmin()] for j in range(2)] for pidx, F_ci in sq]
                      for sq in sols])
    return F, picks


@pytest.mark.parametrize("seed", range(5))
def test_hmooc1_exact_vs_brute_force(seed):
    """Prop. B.1: the exact oracle returns the full query-level front."""
    rng = np.random.default_rng(seed)
    sq_sols = _sols(rng, 6, 4)
    F, _ = exact_query_front(sq_sols)
    assert _points(F) == _points(brute_force_query_front(sq_sols)[0])


def test_hmooc1_combo_bookkeeping():
    rng = np.random.default_rng(11)
    sq_sols = _sols(rng, 4, 3)
    F, combos = exact_query_front(sq_sols)
    for f, combo in zip(F, combos):
        assert len(combo) == 3
        rebuilt = sum(sq_sols[i][1][combo[i]] for i in range(3))
        np.testing.assert_allclose(f, rebuilt)


@pytest.mark.parametrize("seed", range(5))
def test_hmooc3_extreme_points(seed):
    """Prop. 5.2/5.3: the two extreme points bound the front and are
    query-level Pareto optimal under a fixed θc."""
    rng = np.random.default_rng(seed + 99)
    sq_sols = _sols(rng, 5, 3)
    F_b, combos = H.aggregate_boundary(*_extremes([[sol] for sol in sq_sols]))
    assert F_b.shape == (1, 2, 2)  # one θc, k = 2 objectives -> 2 extreme points
    F_b, combos = F_b[0], combos[0]
    for f, combo in zip(F_b, combos):
        assert len(combo) == 3
        np.testing.assert_allclose(f, sum(F[j] for (_, F), j in zip(sq_sols, combo)))
    F_exact, _ = brute_force_query_front(sq_sols)
    # extreme points achieve the per-objective minima of the exact front
    assert F_b[0, 0] == pytest.approx(F_exact[:, 0].min())
    assert F_b[1, 1] == pytest.approx(F_exact[:, 1].min())
    # and the whole exact front lies inside the rectangle they span
    assert np.all(F_exact[:, 0] >= F_b[0, 0] - 1e-9)
    assert np.all(F_exact[:, 1] >= F_b[1, 1] - 1e-9)


def test_prop51_only_local_pareto_contributes():
    """Prop. 5.1: under a fixed θc, dominated subQ solutions never appear
    in query-level Pareto solutions."""
    rng = np.random.default_rng(7)
    sq_sols = _sols(rng, 6, 3)
    _, combos = brute_force_query_front(sq_sols)
    for combo in combos:
        for (_, F_i), j in zip(sq_sols, combo):
            assert not any(dominates(F_i[k], F_i[j]) for k in range(len(F_i))), \
                "a dominated subQ-level solution reached the query-level front"


def test_kmeans_basic():
    rng = np.random.default_rng(0)
    U = np.concatenate([rng.normal(0.2, 0.02, (20, 3)),
                        rng.normal(0.8, 0.02, (20, 3))])
    labels, reps, centers = H._kmeans(U, 2, seed=1)
    assert len(set(labels[:20])) == 1 and len(set(labels[20:])) == 1
    assert labels[0] != labels[-1]
    assert len(reps) == 2


def test_kmeans_k_larger_than_n():
    U = np.random.default_rng(0).random((3, 2))
    labels, reps, centers = H._kmeans(U, 10, seed=0)
    assert len(reps) <= 3


def test_crossover_enrich_preserves_domain():
    rng = np.random.default_rng(1)
    Uc = rng.random((10, 8))
    new = H._crossover_enrich(Uc, 6, seed=2)
    assert new.shape == (6, 8)
    # every coordinate of a child comes from a parent
    for row in new:
        assert all(any(abs(v - Uc[p, j]) < 1e-12 for p in range(10))
                   for j, v in enumerate(row))


def test_lhs_unit_stratified():
    rng = np.random.default_rng(3)
    U = lhs_unit(16, 4, rng)
    assert U.shape == (16, 4)
    assert np.all((U >= 0) & (U <= 1))
    for j in range(4):
        assert U[:, j].min() < 0.2 and U[:, j].max() > 0.8


@pytest.fixture(scope="module")
def obj(fake_suite):
    dag = partition_subqs(build_query("tpch", "q3", sf=10.0))
    return CompileTimeObjectives(dag, fake_suite)


def _effective_set_per_block(obj, *, n_c, n_clusters, n_p, seed):
    """Algorithm 1 as one oracle call (``subq_batch_oracle``) per subQ per
    pass (optimize, assign, re-assign) over the pass's (cluster, subQ)
    blocks in cluster order, each call decoding its own rows, keeping
    every candidate's full set: returns the candidates, the pool and, per
    subQ, one ``(pool indices, F)`` per candidate."""
    rng = np.random.default_rng(seed)
    Uc = refined_lhs(n_c, C_IDS, rng)
    labels, rep_idx, centers = H._kmeans(Uc, n_clusters, seed=seed)
    pool = refined_lhs(n_p, P_IDS + S_IDS, rng)
    opt_idx = {}
    for sq in obj.sq_ids:
        U_full = np.concatenate([np.concatenate([np.tile(Uc[r], (n_p, 1)), pool], axis=1)
                                 for r in rep_idx])
        F_sq = subq_batch_oracle(obj, sq, U_full)
        for g, F in enumerate(F_sq.reshape(len(rep_idx), n_p, 2)):
            opt_idx[(g, sq)] = pareto_indices(F)

    def assign(U_cands, cand_labels):
        out = {}
        for sq in obj.sq_ids:
            rows = [(ci, opt_idx[(g, sq)]) for g in range(len(rep_idx))
                    for ci in np.flatnonzero(cand_labels == g)]
            F = subq_batch_oracle(obj, sq, np.concatenate(
                [np.concatenate([np.tile(U_cands[ci], (len(pidx), 1)), pool[pidx]], axis=1)
                 for ci, pidx in rows]))
            out[sq] = [None] * len(U_cands)
            for (ci, pidx), F_ci in zip(rows, np.split(F, np.cumsum([len(p) for _, p in rows])[:-1])):
                out[sq][ci] = (pidx, F_ci)
        return out

    sols = assign(Uc, labels)
    U_new = H._crossover_enrich(Uc, n_c // 2, seed + 1)
    new_sols = assign(U_new, H._assign_cluster(U_new, centers))
    return np.concatenate([Uc, U_new]), pool, {sq: sols[sq] + new_sols[sq] for sq in sols}


def test_effective_set_structure(obj):
    kw = dict(n_c=12, n_clusters=3, n_p=16, seed=0)
    eff = H.generate_effective_set(obj, **kw)
    m = len(obj.sq_ids)
    assert eff.C_nat.shape[1] == 8
    assert len(eff.C_nat) == 12 + 6  # crossover enrichment adds n_c // 2
    assert eff.F.shape == (m, len(eff.C_nat), 2, 2)
    assert eff.picks.shape == (m, len(eff.C_nat), 2)
    _, _, sols = _effective_set_per_block(obj, **kw)
    for i, sq in enumerate(obj.sq_ids):
        assert len(sols[sq]) == len(eff.C_nat)
        for ci, (pidx, F) in enumerate(sols[sq]):
            assert len(pidx) == len(F)
            assert len(pidx) >= 1
            assert np.all(F > 0)
            # each kept point is the candidate's local Pareto point that is
            # best on its objective
            for j in range(2):
                assert eff.picks[i, ci, j] in pidx
                assert eff.F[i, ci, j, j] == F[:, j].min()


def _counting(obj):
    """A shallow copy of ``obj`` whose folded models log each block they
    score as (subQ, rows) in the copy's ``calls``."""
    counting = copy.copy(obj)
    counting.calls = []
    counting.models = _CountingModels(obj.models, obj.sq_ids, counting.calls)
    return counting


class _CountingModels:
    def __init__(self, models, sq_ids, calls):
        self.inner, self.sq_ids, self.calls = models, sq_ids, calls

    def standardize(self, X, cols):
        return self.inner.standardize(X, cols)

    def predict_block(self, H, out, *, row):
        self.calls.append((self.sq_ids[row], len(H)))
        self.inner.predict_block(H, out, row=row)


def test_batched_effective_set_equals_per_block_calls(obj):
    """Scoring every subQ's batches in ``predict``'s blocks and keeping
    each candidate's two extreme points gives, byte for byte, the
    reduction of the full sets, with one model call per block. The pool
    makes the optimize batch 1,025 rows, whose one-row remainder joins
    the last block."""
    kw = dict(n_c=40, n_clusters=5, n_p=205, seed=3)
    counting = _counting(obj)
    eff = H.generate_effective_set(counting, **kw)
    Uc, pool, sols = _effective_set_per_block(obj, **kw)
    np.testing.assert_array_equal(eff.C_nat, denormalize_matrix(Uc, C_IDS))
    np.testing.assert_array_equal(eff.pool_nat, denormalize_matrix(pool, P_IDS + S_IDS))
    F, picks = _extremes([sols[sq] for sq in obj.sq_ids])
    assert eff.F.tobytes() == F.tobytes()
    assert eff.picks.tobytes() == picks.astype(eff.picks.dtype).tobytes()
    # one call per block of each subQ's batches: optimize, assign, re-assign
    want = []
    for sq in obj.sq_ids:
        batches = [5 * 205, sum(len(p) for p, _ in sols[sq][:40]),
                   sum(len(p) for p, _ in sols[sq][40:])]
        want += [(sq, e - s) for n in batches for s, e in predict_blocks(n)]
    assert sorted(counting.calls) == sorted(want)
    assert (obj.sq_ids[0], 513) in want


def test_derived_columns_once_per_phase_and_subq(monkeypatch, obj):
    """A solve lays out each subQ's derived partitioning columns with one
    ``derived_partition_features`` call per phase (optimize, then assign
    and re-assign together), not one per block: with a 1,025-row optimize
    batch per subQ, the blocks outnumber the calls."""
    from repro.model import predictor
    calls = []
    derive = predictor.derived_partition_features

    def spy(kind, input_bytes, knobs, skew):
        calls.append(len(knobs["k1"]))
        return derive(kind, input_bytes, knobs, skew)

    monkeypatch.setattr(predictor, "derived_partition_features", spy)
    counting = _counting(obj)
    H.generate_effective_set(counting, n_c=40, n_clusters=5, n_p=205, seed=3)
    m = len(obj.sq_ids)
    assert len(calls) == 2 * m < len(counting.calls)
    assert calls[:m] == [5 * 205] * m
    assert sum(calls) == sum(n for _, n in counting.calls)


def test_blocks_score_as_one_call_per_subq(small_suite):
    """On trained MLPs (float32 folds, BLAS gemms, every input column
    used), scoring each batch block by block from the decoded tables gives
    the bytes of one oracle call per subQ per pass, which decodes its own
    rows."""
    dag = partition_subqs(build_query("tpch", "q3", sf=10.0))
    obj = CompileTimeObjectives(dag, small_suite)
    kw = dict(n_c=40, n_clusters=5, n_p=205, seed=3)
    eff = H.generate_effective_set(obj, **kw)
    _, _, sols = _effective_set_per_block(obj, **kw)
    F, picks = _extremes([sols[sq] for sq in obj.sq_ids])
    assert len(np.unique(F)) > F.size // 2   # objectives that tell rows apart
    assert eff.F.tobytes() == F.tobytes()
    assert eff.picks.tobytes() == picks.astype(eff.picks.dtype).tobytes()


def test_solve_decodes_each_table_once(monkeypatch, obj, fake_suite):
    """A solve decodes its θc candidates and its pool once each; every row
    and every returned configuration gathers from those tables."""
    from repro import params
    from repro.moo import objectives as O
    calls = []
    decode = params.denormalize_matrix

    def spy(U, ids):
        calls.append((tuple(ids), np.shape(U)))
        return decode(U, ids)

    for module in (params, H, O):
        monkeypatch.setattr(module, "denormalize_matrix", spy)
    res = H.hmooc(obj.dag, fake_suite, n_c=12, n_clusters=3, n_p=16, seed=0,
                  objectives=obj)
    assert len(res.configs) >= 1
    assert calls == [(tuple(C_IDS), (18, 8)), (tuple(P_IDS + S_IDS), (16, 11))]


# "boundary" is the one name perfbench/workloads.py passes as ``agg``
@pytest.mark.parametrize("agg", ["boundary"])
def test_hmooc_end_to_end(obj, fake_suite, agg):
    res = H.hmooc(obj.dag, fake_suite, agg=agg, n_c=12, n_clusters=3, n_p=16,
                  seed=0, objectives=obj)
    assert len(res.F) >= 1
    assert len(res.configs) == len(res.F)
    # returned set is mutually non-dominated
    assert len(pareto_indices(res.F)) == len(res.F)
    assert res.solving_time_s > 0
    # configs well-formed: θc query-level + per-subQ θp/θs
    qc = res.configs[0]
    assert set(qc.theta_p) == set(obj.sq_ids)
    assert set(qc.theta_c) == {"k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8"}


def test_hmooc_equals_boundary_reference(obj, fake_suite):
    """hmooc's front and configurations are exactly those of HMOOC3 built by
    hand from the effective set: per θc, each subQ's argmin on each
    objective summed in subQ order, the points unioned, then Pareto-filtered."""
    kw = dict(n_c=12, n_clusters=3, n_p=16, seed=2)
    res = H.hmooc(obj.dag, fake_suite, objectives=obj, **kw)
    Uc, pool, sols = _effective_set_per_block(obj, **kw)
    F, cfg = [], []
    for ci in range(len(Uc)):
        for obj_i in range(2):
            total, picks = np.zeros(2), []
            for sq in obj.sq_ids:
                pidx, F_sq = sols[sq][ci]
                j = F_sq[:, obj_i].argmin()
                total = total + F_sq[j]
                picks.append(pidx[j])
            F.append(total)
            cfg.append((ci, picks))
    F = np.array(F)
    keep = pareto_indices(F)
    np.testing.assert_array_equal(res.F, F[keep])
    assert res.configs == [H.QueryConfig.decode(Uc[ci], pool[picks], obj.sq_ids)
                           for ci, picks in (cfg[i] for i in keep)]


def test_hmooc_recommend_weights(obj, fake_suite):
    res = H.hmooc(obj.dag, fake_suite, n_c=12, n_clusters=3, n_p=16, seed=0,
                  objectives=obj)
    F_lat, _ = res.recommend((0.99, 0.01))
    F_cost, _ = res.recommend((0.01, 0.99))
    assert F_lat[0] <= F_cost[0]  # latency preference picks faster point
    assert F_cost[1] <= F_lat[1]


def test_hmooc_dnc_front_dominates_boundary(obj, fake_suite):
    """The exact per-θc aggregation (HMOOC1) over the same effective set
    contains HMOOC3's two points per θc, so its front's hypervolume is at
    least hmooc's."""
    from repro.moo.pareto import hypervolume_2d, normalize
    kw = dict(n_c=10, n_clusters=3, n_p=12, seed=1)
    r_b = H.hmooc(obj.dag, fake_suite, objectives=obj, **kw)
    Uc, _, sols = _effective_set_per_block(obj, **kw)
    F_d = np.concatenate([exact_query_front([sols[sq][ci] for sq in obj.sq_ids])[0]
                          for ci in range(len(Uc))])
    F_d = F_d[pareto_indices(F_d)]
    allF = np.concatenate([F_d, r_b.F])
    _, lo, hi = normalize(allF)
    ref = np.array([1.1, 1.1])
    hv_d = hypervolume_2d(normalize(F_d, lo, hi)[0], ref)
    hv_b = hypervolume_2d(normalize(r_b.F, lo, hi)[0], ref)
    assert hv_d >= hv_b - 1e-9


NPROC = os.cpu_count() or 1


@pytest.mark.parametrize("env, n_blocks, workers", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 64, min(NPROC, 64)),
    ({"OPENBLAS_NUM_THREADS": str(NPROC)}, 64, 1),
    ({"OMP_NUM_THREADS": str(NPROC)}, 64, 1),
    ({}, 64, 1),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": str(NPROC)}, 64, min(NPROC, 64)),
    ({"OPENBLAS_NUM_THREADS": str(NPROC), "OMP_NUM_THREADS": "1"}, 64, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, min(NPROC, 2)),
    ({"OPENBLAS_NUM_THREADS": str(2 * NPROC)}, 64, 1),
], ids=["openblas-1", "openblas-nproc", "omp-nproc", "unset",
        "openblas-over-omp", "openblas-nproc-over-omp-1", "subq-cap", "never-below-1"])
def test_solve_workers_use_the_cores_blas_leaves_idle(monkeypatch, env, n_blocks, workers):
    for var in blas.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert H.solve_workers(n_blocks) == workers


@pytest.mark.parametrize("bm, q", [("tpch", "q5"), ("tpcds", "q3")])
def test_concurrent_solve_equals_one_worker(monkeypatch, small_suite, bm, q):
    """Scoring the blocks on four threads gives the one-worker front and
    configurations byte for byte; the four-thread solve switches threads
    every microsecond. The models are trained ones (the float32 BLAS path),
    whose fronts have several points."""
    dag = partition_subqs(build_query(bm, q))
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for var in blas.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    assert H.solve_workers(len(dag.subqs)) == 1
    one = H.hmooc(dag, small_suite)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert H.solve_workers(len(dag.subqs)) == 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        four = H.hmooc(dag, small_suite)
    finally:
        sys.setswitchinterval(interval)
    assert len(one.F) > 1
    assert one.F.dtype == four.F.dtype and one.F.tobytes() == four.F.tobytes()
    assert one.configs == four.configs
