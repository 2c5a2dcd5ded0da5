"""Unit tests for the model-based objective evaluator."""
import numpy as np
import pytest

from repro.core.plan import partition_subqs
from repro.core.workloads import build_query
from repro.experiments.table5 import PREFS
from repro.moo.objectives import D_C, D_FULL, D_PS, CompileTimeObjectives
from repro.model.predictor import FULL_IDS, IDLE_GAMMA, QS_COLS, QS_IDS, StageFeatures
from repro.params import C_IDS, denormalize_matrix, lhs_unit, normalize_matrix
from repro.runtime.optimizer import OnlineOptimizer
from repro.simspark.costmodel import DEFAULT_COSTS
from repro.simspark.executor import run_query
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
    total = sum(obj.subq_batch(sq, U) for sq in obj.sq_ids)
    np.testing.assert_array_equal(obj.query_fine_batch(_to_fine(obj, U)), total)


def test_query_fine_equals_shared_when_replicated(obj):
    """A fine-grained vector replicating one (θp, θs) for every subQ must
    produce the same objectives as the shared configuration, and each subQ
    is scored on its own block when the blocks differ."""
    rng = np.random.default_rng(2)
    U = lhs_unit(3, D_FULL, rng)
    np.testing.assert_array_equal(obj.query_fine_batch(_replicated(obj, U)),
                                  sum(obj.subq_batch(sq, U) for sq in obj.sq_ids))
    blocks = [lhs_unit(3, D_PS, rng) for _ in obj.sq_ids]
    U_big = np.concatenate([U[:, :D_C]] + blocks, axis=1)
    per_sq = sum(obj.subq_batch(sq, np.concatenate([U[:, :D_C], b], axis=1))
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
    """The per-subQ float32 folds score like the trained float64 models on
    the full 64-column rows."""
    dag = partition_subqs(build_query("tpch", "q9", sf=100.0))
    obj = CompileTimeObjectives(dag, small_suite)
    U = lhs_unit(300, D_FULL, np.random.default_rng(4))
    M = denormalize_matrix(U, FULL_IDS)
    rate = obj.resource_rate(M)
    for sq in obj.sq_ids:
        X = StageFeatures.of_stages(dag, [sq], true_stats=False)[sq].subq_rows(U, M)
        full = small_suite.subq.objectives(X, rate, clamp_latency=True)
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
    the scores of the per-stage float32 folds match the trained float64
    QS models on the full 59-column rows."""
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
                    X = StageFeatures.of_stages(dag, [sq], true_stats=True)[sq].qs_rows(
                        algs, U_qs, M, IDLE_GAMMA, input_bytes=in_bytes)
                    full = small_suite.qs.objectives(X, opt._rate_s, clamp_latency=False)
                    _assert_float32_close(got, full, opt._rate_s)
                served += len(opt.scored)
    assert served > 0
