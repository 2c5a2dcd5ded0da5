"""Unit tests for the model-based objective evaluator."""
import numpy as np
import pytest

from repro.core.plan import partition_subqs
from repro.core.workloads import build_query
from repro.moo.objectives import D_C, D_FULL, D_PS, CompileTimeObjectives
from repro.params import lhs_unit


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


def test_query_shared_is_sum_of_subqs(obj):
    rng = np.random.default_rng(1)
    U = lhs_unit(4, D_FULL, rng)
    total = sum(obj.subq_batch(sq, U) for sq in obj.sq_ids)
    np.testing.assert_allclose(obj.query_shared_batch(U), total)


def test_query_fine_equals_shared_when_replicated(obj):
    """A fine-grained vector replicating one (θp, θs) for every subQ must
    produce the same objectives as the shared evaluation."""
    rng = np.random.default_rng(2)
    U = lhs_unit(3, D_FULL, rng)
    U_big = np.concatenate([U[:, :D_C]] + [U[:, D_C:]] * obj.m, axis=1)
    np.testing.assert_allclose(obj.query_fine_batch(U_big),
                               obj.query_shared_batch(U))


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
    F_lo = obj.query_shared_batch(lo)
    F_hi = obj.query_shared_batch(hi)
    assert F_hi[0, 0] < F_lo[0, 0]
