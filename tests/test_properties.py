"""Property-based tests (hypothesis) for core invariants."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.moo.pareto import (dominates, hypervolume_2d, normalize,
                              pareto_indices, wun_select)
from repro.params import ALL_KNOBS, KNOB_BY_ID
from tests.conftest import from_vector, to_vector

_objs = arrays(np.float64, (20, 2), elements=st.floats(0.0, 100.0))


@settings(max_examples=50, deadline=None)
@given(_objs)
def test_pareto_set_is_mutually_nondominated(F):
    idx = pareto_indices(F)
    P = F[idx]
    for i in range(len(P)):
        for j in range(len(P)):
            if i != j:
                assert not dominates(P[i], P[j])


@settings(max_examples=50, deadline=None)
@given(_objs)
def test_every_point_dominated_by_or_in_front(F):
    idx = set(pareto_indices(F).tolist())
    P = F[sorted(idx)]
    for i in range(len(F)):
        if i not in idx:
            assert any(dominates(p, F[i]) or np.allclose(p, F[i]) for p in P)


@settings(max_examples=50, deadline=None)
@given(_objs)
def test_hypervolume_bounds(F):
    Fn, _, _ = normalize(F)
    hv = hypervolume_2d(Fn, np.array([1.1, 1.1]))
    assert 0.0 <= hv <= 1.1 * 1.1 + 1e-9


@settings(max_examples=50, deadline=None)
@given(_objs, st.floats(0.0, 1.0))
def test_wun_returns_valid_index(F, w):
    i = wun_select(F, np.array([w, 1.0 - w]))
    assert 0 <= i < len(F)


@settings(max_examples=50, deadline=None)
@given(_objs)
def test_wun_extreme_weight_picks_objective_minimum_on_front(F):
    idx = pareto_indices(F)
    P = F[idx]
    i = wun_select(P, np.array([1.0, 0.0]))
    assert P[i, 0] == pytest.approx(P[:, 0].min())


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, (19,), elements=st.floats(0.0, 1.0)))
def test_from_vector_always_in_domain(u):
    conf = from_vector(u, [k.kid for k in ALL_KNOBS])
    for kid, v in conf.items():
        k = KNOB_BY_ID[kid]
        assert k.lo <= v <= k.hi


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, (19,), elements=st.floats(0.0, 1.0)))
def test_vector_roundtrip_stable(u):
    """normalize(denormalize(u)) is a projection: applying it twice is
    the identity (idempotence under rounding)."""
    ids = [k.kid for k in ALL_KNOBS]
    conf1 = from_vector(u, ids)
    u2 = to_vector(conf1, ids)
    conf2 = from_vector(u2, ids)
    for kid in conf1:
        assert conf1[kid] == pytest.approx(conf2[kid], rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.floats(1e3, 1e12), st.floats(0.0, 2.0))
def test_stage_cost_positive_everywhere(bytes_in, skew):
    from repro.params import default_conf
    from repro.simspark.costmodel import stage_cost
    m = stage_cost(kind="shuffle", op_work=[("agg", bytes_in, bytes_in / 100)],
                   input_bytes=bytes_in, input_rows=bytes_in / 100,
                   output_bytes=bytes_in / 10, writes_shuffle=True, skew=skew,
                   conf=default_conf())
    assert m.task_sec_total > 0
    assert m.max_task_s >= 0
    assert m.io_bytes >= 0
    assert np.isfinite(m.task_sec_total)
