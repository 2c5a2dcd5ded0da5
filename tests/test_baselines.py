"""Unit tests for the MOO baselines (WS, Evo, PF, SO-FW)."""
import numpy as np
import pytest

from repro.core.plan import partition_subqs
from repro.core.workloads import build_query
from repro.experiments.table5 import PREFS
from repro.moo import baselines as B
from repro.moo.objectives import CompileTimeObjectives
from repro.moo.pareto import pareto_indices
from repro.params import C_IDS, KNOB_BY_ID, P_IDS, S_IDS, refined_lhs


@pytest.fixture(scope="module")
def obj(fake_suite):
    dag = partition_subqs(build_query("tpch", "q3", sf=10.0))
    return CompileTimeObjectives(dag, fake_suite)


def _check_result(res, obj, fine):
    assert len(res.F) >= 1
    assert len(res.configs) == len(res.F)
    assert len(pareto_indices(res.F)) == len(res.F)  # mutually non-dominated
    assert res.solving_time_s > 0
    qc = res.configs[0]
    assert set(qc.theta_c) == set(C_IDS)
    assert set(qc.theta_p) == set(obj.sq_ids)
    for sq, tp in qc.theta_p.items():
        for kid, v in tp.items():
            k = KNOB_BY_ID[kid]
            assert k.lo <= v <= k.hi
    if not fine:
        # query-level: one θp copy replicated
        first = qc.theta_p[obj.sq_ids[0]]
        assert all(qc.theta_p[sq] == first for sq in obj.sq_ids)


@pytest.mark.parametrize("fine", [False, True])
def test_weighted_sum(obj, fine):
    res = B.weighted_sum(obj, n_samples=400, n_weights=7, fine=fine, seed=0)
    _check_result(res, obj, fine)
    # WS's known weakness: few distinct solutions relative to weights
    assert len(res.F) <= 7


@pytest.mark.parametrize("fine", [False, True])
def test_evo(obj, fine):
    res = B.evo(obj, pop=20, n_evals=60, fine=fine, seed=0)
    _check_result(res, obj, fine)


@pytest.mark.parametrize("fine", [False, True])
def test_progressive_frontier(obj, fine):
    res = B.progressive_frontier(obj, n_probes=256, n_points=7, fine=fine, seed=0)
    _check_result(res, obj, fine)


def test_pf_contains_extremes(obj):
    res = B.progressive_frontier(obj, n_probes=256, n_points=7, seed=1)
    # PF seeds with per-objective extreme points of its probe set
    assert len(res.F) >= 1


def test_so_fw_single_solution(obj):
    [res] = B.so_fixed_weights(obj, [(0.9, 0.1)], n_samples=256, seed=0).values()
    qc, F, t = res.configs[0], res.F[0], res.solving_time_s
    assert F.shape == (2,)
    assert t > 0
    assert set(qc.theta_c) == set(C_IDS)


def test_so_fw_weight_sensitivity(obj):
    """With extreme weights SO-FW optimizes the corresponding objective."""
    so = B.so_fixed_weights(obj, [(1.0, 0.0), (0.0, 1.0)], n_samples=512, seed=3)
    F_lat, F_cost = so[(1.0, 0.0)].F[0], so[(0.0, 1.0)].F[0]
    assert F_lat[0] <= F_cost[0]
    assert F_cost[1] <= F_lat[1]


@pytest.mark.parametrize("n_prefs", [1, len(PREFS)])
def test_so_fw_one_prediction_for_all_prefs(obj, n_prefs, monkeypatch):
    """One sample, predicted once, serves every preference, and each
    preference gets the optimum it would get alone."""
    prefs = PREFS[:n_prefs]
    calls = []
    real = obj.query_fine_batch
    monkeypatch.setattr(obj, "query_fine_batch", lambda U: calls.append(len(U)) or real(U))
    together = B.so_fixed_weights(obj, prefs, n_samples=256, seed=0)
    assert calls == [256]
    assert list(together) == prefs
    for pref in prefs:
        [alone] = B.so_fixed_weights(obj, [pref], n_samples=256, seed=0).values()
        np.testing.assert_array_equal(together[pref].F, alone.F)
        assert together[pref].configs == alone.configs


def test_ws_collapse_behavior(obj):
    """Fig. 4's phenomenon: many weights, few distinct WS solutions."""
    res = B.weighted_sum(obj, n_samples=400, n_weights=101, fine=False, seed=0)
    assert len(res.F) < 101  # heavy collapse


def test_decode_fine_vs_query_dims(obj):
    """Query-level (19) and fine-grained (8 + 11m) vectors both map to the
    fine-grained layout; a query-level θp‖θs is repeated for every subQ."""
    rng = np.random.default_rng(0)
    U_q = refined_lhs(3, B._ids(obj, False), rng)
    U_f = refined_lhs(3, B._ids(obj, True), rng)
    assert U_q.shape == (3, 19)
    assert U_f.shape == (3, 8 + 11 * obj.m)
    np.testing.assert_array_equal(B._to_fine(obj, U_f), U_f)
    np.testing.assert_array_equal(B._to_fine(obj, U_q),
                                  np.concatenate([U_q[:, :8]] + [U_q[:, 8:]] * obj.m, axis=1))


def test_nondominated_rank():
    F = np.array([[0.0, 2.0], [2.0, 0.0], [1.0, 3.0], [3.0, 3.0]])
    rank = B._fast_nondominated_rank(F)
    assert rank[0] == 0 and rank[1] == 0   # the two extremes
    assert rank[2] == 1                     # dominated by [0,2]
    assert rank[3] == 2                     # dominated by [1,3] as well


def test_crowding_extremes_infinite():
    F = np.array([[0, 2.0], [1, 1.0], [2, 0.0]])
    c = B._crowding(F)
    assert np.isinf(c[0]) and np.isinf(c[2])
    assert np.isfinite(c[1])
