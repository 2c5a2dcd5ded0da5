"""Unit tests for the model-based objective evaluator."""
import numpy as np
import pytest

from repro.core.plan import partition_subqs
from repro.core.workloads import build_query
from repro.experiments.table5 import PREFS
from repro.moo.objectives import (D_C, D_FULL, D_PS, FINE_CHUNK_BLOCKS,
                                  CompileTimeObjectives)
from repro.model.features import DERIVED_DIM, partition_knobs
from repro.model.mlp import PREDICT_BLOCK
from repro.model.predictor import FULL_IDS, IDLE_GAMMA, QS_COLS, QS_IDS, StageFeatures
from repro.params import C_IDS, denormalize_matrix, lhs_unit, normalize_matrix
from repro.runtime.optimizer import OnlineOptimizer
from repro.simspark.costmodel import DEFAULT_COSTS
from repro.simspark.executor import run_query
from tests.conftest import full_row_objectives, query_fine_oracle, subq_batch_oracle
from tests.test_parity import CONFS, QUERIES, SF, VARIANT


@pytest.fixture(scope="module")
def obj(fake_suite):
    dag = partition_subqs(build_query("tpch", "q3", sf=10.0))
    return CompileTimeObjectives(dag, fake_suite)


def test_dims():
    assert D_C == 8 and D_PS == 11 and D_FULL == 19


def test_subq_batch_shape(obj):
    rng = np.random.default_rng(0)
    U = lhs_unit(16, D_FULL, rng)
    F = obj.subq_batch(obj.sq_ids[0], U)
    assert F.shape == (16, 2)
    assert np.all(F > 0)


def _replicated(obj, U):
    """Query-level vectors θc ‖ θp‖θs in the fine-grained layout: the one
    θp‖θs repeated for every subQ."""
    return np.concatenate([U[:, :D_C]] + [U[:, D_C:]] * obj.m, axis=1)


def test_query_shared_is_sum_of_subqs(obj):
    """A query-level vector (one θp‖θs shared by every subQ), mapped to the
    fine-grained layout as the baselines do, scores exactly the sum of the
    subQ objectives under that one configuration."""
    from repro.moo.baselines import _to_fine
    rng = np.random.default_rng(1)
    U = lhs_unit(4, D_FULL, rng)
    total = sum(subq_batch_oracle(obj, sq, U) for sq in obj.sq_ids)
    np.testing.assert_array_equal(obj.query_fine_batch(_to_fine(obj, U)), total)


def test_query_fine_equals_shared_when_replicated(obj):
    """A fine-grained vector replicating one (θp, θs) for every subQ must
    produce the same objectives as the shared configuration, and each subQ
    is scored on its own block when the blocks differ."""
    rng = np.random.default_rng(2)
    U = lhs_unit(3, D_FULL, rng)
    np.testing.assert_array_equal(obj.query_fine_batch(_replicated(obj, U)),
                                  sum(subq_batch_oracle(obj, sq, U) for sq in obj.sq_ids))
    blocks = [lhs_unit(3, D_PS, rng) for _ in obj.sq_ids]
    U_big = np.concatenate([U[:, :D_C]] + blocks, axis=1)
    per_sq = sum(subq_batch_oracle(obj, sq, np.concatenate([U[:, :D_C], b], axis=1))
                 for sq, b in zip(obj.sq_ids, blocks))
    np.testing.assert_array_equal(obj.query_fine_batch(U_big), per_sq)


def test_fine_grained_dimensionality(obj):
    rng = np.random.default_rng(3)
    U_big = rng.random((5, D_C + D_PS * obj.m))
    F = obj.query_fine_batch(U_big)
    assert F.shape == (5, 2)


def test_resource_rate_monotone(obj):
    from repro.params import GB
    M_small = np.array([[1.0, 4 * GB, 2.0] + [0.0] * 16])
    M_big = np.array([[5.0, 32 * GB, 16.0] + [0.0] * 16])
    assert obj.resource_rate(M_big)[0] > obj.resource_rate(M_small)[0]


def test_more_cores_cheaper_latency_fake_model(obj):
    """The fake suite encodes lat ~ 1/cores; the evaluator must surface it."""
    lo = np.full((1, D_FULL), 0.5)
    hi = lo.copy()
    lo[0, 0] = lo[0, 2] = 0.0  # k1, k3 low
    hi[0, 0] = hi[0, 2] = 1.0
    F_lo = obj.query_fine_batch(_replicated(obj, lo))
    F_hi = obj.query_fine_batch(_replicated(obj, hi))
    assert F_hi[0, 0] < F_lo[0, 0]


def _assert_float32_close(got, full, rate, tol=1e-5):
    """float32 keeps a model's log1p-scale output to about 1e-6 absolute,
    so a prediction y moves by up to about (1 + y)·1e-6: relatively for
    large y, absolutely for tiny ones."""
    np.testing.assert_allclose(got[:, 0], full[:, 0], rtol=tol, atol=tol)
    # cost = latency · rate + IO · price: each term's error as above
    bound = tol * (full[:, 1] + rate + DEFAULT_COSTS.price_io_gb / 1024.0)
    assert np.all(np.abs(got[:, 1] - full[:, 1]) <= bound)


def test_folded_float32_matches_full_float64_rows(small_suite):
    """The query's float32 fold, with each subQ's bias row, scores like the
    trained models, cast to float64, on the full 64-column rows."""
    dag = partition_subqs(build_query("tpch", "q9", sf=100.0))
    obj = CompileTimeObjectives(dag, small_suite)
    U = lhs_unit(300, D_FULL, np.random.default_rng(4))
    M = denormalize_matrix(U, FULL_IDS)
    rate = obj.resource_rate(M)
    for sq in obj.sq_ids:
        X = StageFeatures.of_stages(dag, [sq], true_stats=False)[sq].subq_rows(U, M)
        full = full_row_objectives(small_suite.subq, X, rate, clamp_latency=True)
        _assert_float32_close(obj.subq_batch(sq, U), full, rate)


class ScoreLog(OnlineOptimizer):
    """Keeps each served request's scored candidates and their scores."""

    def __init__(self, *args):
        super().__init__(*args)
        self.scored: list[tuple] = []

    def _objectives(self, sq_id, M_nat, algs, input_bytes):
        F = super()._objectives(sq_id, M_nat, algs, input_bytes)
        self.scored.append((sq_id, M_nat.copy(), list(algs), input_bytes, F))
        return F


def test_runtime_folded_float32_matches_full_float64_rows(small_suite):
    """The runtime twin: over every served request of the parity queries,
    the scores of the float32 fold with each stage's bias row match the
    trained QS models, cast to float64, on the full 59-column rows."""
    served = 0
    for bench, template in QUERIES:
        dag = partition_subqs(build_query(bench, template, sf=SF, variant=VARIANT))
        for conf in CONFS:
            theta_c = {k: conf[k] for k in C_IDS}
            for pi, pref in enumerate(PREFS):
                opt = ScoreLog(dag, small_suite, theta_c, pref)
                run_query(dag, conf, runtime_opt=opt, noise_seed=pi)
                for sq, M, algs, in_bytes, got in opt.scored:
                    U_qs = normalize_matrix(M[:, QS_COLS], QS_IDS)
                    st = StageFeatures.of_stages(dag, [sq], true_stats=True)[sq]
                    X = st.qs_rows(algs, U_qs, M, IDLE_GAMMA)
                    # the bytes the request observed, as qs_varying lays them out
                    X[:, -DERIVED_DIM:] = st.derived(partition_knobs(M), in_bytes)
                    full = full_row_objectives(small_suite.qs, X, opt._rate_s,
                                               clamp_latency=False)
                    _assert_float32_close(got, full, opt._rate_s)
                served += len(opt.scored)
    assert served > 0


@pytest.fixture(scope="module")
def trained_obj(small_suite):
    dag = partition_subqs(build_query("tpch", "q9", sf=100.0))
    return CompileTimeObjectives(dag, small_suite)


# rows of each subQ in one ``score`` call of ``query_fine_batch``
FINE_CHUNK = FINE_CHUNK_BLOCKS * PREDICT_BLOCK


# the last n spans three chunks and ends in a 513-row block
@pytest.mark.parametrize("n", [1, 2, 512, 513, 514, 1025, 1100, 3 * FINE_CHUNK + 1])
def test_scorer_is_the_oracle_bit_for_bit(monkeypatch, trained_obj, n):
    """On trained MLPs (float32 folds, BLAS gemms, every input column
    used), ``subq_batch`` gives the oracle's bytes on every subQ, with or
    without a one-row remainder joining the last block, and
    ``query_fine_batch`` gives the oracle summed over subQs in order. It
    scores ``FINE_CHUNK`` rows of each subQ per ``score`` call; a one-row
    remainder joins the last call, as it joins the last block."""
    obj = trained_obj
    rng = np.random.default_rng(n)
    U = lhs_unit(n, D_FULL, rng)
    for sq in obj.sq_ids:
        assert obj.subq_batch(sq, U).tobytes() == subq_batch_oracle(obj, sq, U).tobytes()
    U_big = np.concatenate([U[:, :D_C]] + [lhs_unit(n, D_PS, rng) for _ in obj.sq_ids], axis=1)
    score, rows = CompileTimeObjectives.score, []
    monkeypatch.setattr(CompileTimeObjectives, "score", lambda self, tables, c_idx, *a:
                        rows.append(len(c_idx)) or score(self, tables, c_idx, *a))
    F = obj.query_fine_batch(U_big)
    chunks = [min(FINE_CHUNK, n - lo) for lo in range(0, n, FINE_CHUNK)]
    if chunks[-1] == 1 < n:
        chunks[-2:] = [FINE_CHUNK + 1]
    assert rows == [obj.m * c for c in chunks]
    assert F.tobytes() == query_fine_oracle(obj, U_big).tobytes()
    assert len(np.unique(F)) > F.size // 2   # objectives that tell rows apart


def _baseline_solves(obj):
    from repro.moo import baselines as B
    out = [solve(obj, fine=fine) for fine in (False, True)
           for solve in (B.weighted_sum, B.evo, B.progressive_frontier)]
    return out + list(B.so_fixed_weights(obj, PREFS).values())


def test_baselines_unchanged_on_the_oracle(monkeypatch, trained_obj):
    """WS, Evo and PF, query-level and fine-grained, and SO-FW at every
    Table 5 preference find the same front and configurations when
    ``query_fine_batch`` is replaced by the oracle's sum."""
    got = _baseline_solves(trained_obj)
    monkeypatch.setattr(trained_obj, "query_fine_batch",
                        lambda U: query_fine_oracle(trained_obj, U))
    want = _baseline_solves(trained_obj)
    assert len(got) == len(want) == 6 + len(PREFS)
    for g, w in zip(got, want):
        assert g.F.tobytes() == w.F.tobytes()
        assert g.configs == w.configs


def test_compile_time_has_one_scorer(monkeypatch, obj, fake_suite):
    """One HMOOC3 solve, one solve of each baseline and ``subq_batch`` all
    score through ``CompileTimeObjectives.score``. HMOOC3's blocks run on
    its pool's threads; every other caller's run on the calling thread."""
    import threading

    from repro.moo import baselines as B
    from repro.moo import hmooc as H
    score, calls = CompileTimeObjectives.score, []

    def spy(self, tables, c_idx, p_idx, sizes, map_blocks):
        threads = set()
        calls.append(threads)
        return score(self, tables, c_idx, p_idx, sizes, lambda fn, blocks: map_blocks(
            lambda b: threads.add(threading.get_ident()) or fn(b), blocks))

    monkeypatch.setattr(CompileTimeObjectives, "score", spy)
    me = threading.get_ident()
    H.hmooc(obj.dag, fake_suite, n_c=12, n_clusters=3, n_p=16, seed=0, objectives=obj)
    assert len(calls) == 2 and all(t and me not in t for t in calls)
    U = lhs_unit(4, D_FULL, np.random.default_rng(5))
    for solve in (lambda: B.weighted_sum(obj, n_samples=64),
                  lambda: B.evo(obj, pop=10, n_evals=20),
                  lambda: B.progressive_frontier(obj, n_probes=64),
                  lambda: B.so_fixed_weights(obj, PREFS, n_samples=64),
                  lambda: obj.subq_batch(obj.sq_ids[0], U)):
        calls.clear()
        solve()
        assert calls and all(t == {me} for t in calls)
