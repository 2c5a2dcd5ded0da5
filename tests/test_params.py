"""Unit tests for the 19-knob parameter space."""
import numpy as np
import pytest

from repro import params as P
from repro.model.predictor import QS_IDS
from tests.conftest import from_vector, knob_denormalize, knob_normalize, to_vector


@pytest.mark.parametrize("knob", P.ALL_KNOBS, ids=[k.kid for k in P.ALL_KNOBS])
class TestKnob:
    def test_default_in_domain(self, knob):
        assert knob.lo <= knob.default <= knob.hi

    def test_normalize_bounds(self, knob):
        assert knob_normalize(knob, knob.lo) == pytest.approx(0.0)
        assert knob_normalize(knob, knob.hi) == pytest.approx(1.0)

    def test_roundtrip_mid(self, knob):
        v = knob_denormalize(knob, 0.5)
        assert knob.lo <= v <= knob.hi
        u = knob_normalize(knob, v)
        # integer rounding can shift the midpoint; tiny integer domains
        # (e.g. the boolean k7) shift it up to a whole step
        tol = 0.26 if not knob.integer else max(0.26, 1.0 / (knob.hi - knob.lo))
        assert abs(u - 0.5) <= tol

    def test_clamp(self, knob):
        assert knob.clamp(knob.hi * 2) == knob.hi
        assert knob.clamp(knob.lo - abs(knob.lo) - 1) == knob.lo

    def test_denormalize_clips(self, knob):
        assert knob_denormalize(knob, -0.5) == pytest.approx(knob.lo, rel=1e-9)
        assert knob_denormalize(knob, 1.5) == pytest.approx(knob.hi, rel=1e-9)

    def test_monotone(self, knob):
        vals = [knob_denormalize(knob, u) for u in np.linspace(0, 1, 7)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_category_sizes():
    assert P.D_C == 8 and P.D_P == 9 and P.D_S == 2
    assert len(P.ALL_KNOBS) == 19  # the paper's 19 selected parameters


def test_default_conf_complete():
    conf = P.default_conf()
    assert set(conf) == {k.kid for k in P.ALL_KNOBS}


def test_split_merge_roundtrip():
    conf = P.default_conf()
    c, p, s = P.split_conf(conf)
    assert set(c) == set(P.C_IDS) and set(p) == set(P.P_IDS) and set(s) == set(P.S_IDS)
    assert P.merge_conf(c, p, s) == conf


def test_to_from_vector_roundtrip():
    conf = P.default_conf()
    v = to_vector(conf)
    back = from_vector(v)
    for kid, val in conf.items():
        assert back[kid] == pytest.approx(val, rel=1e-6), kid


def test_from_vector_length_check():
    with pytest.raises(ValueError):
        from_vector(np.zeros(5))


def test_lhs_sample_stratified():
    ids = P.C_IDS
    confs = P.lhs_sample(16, ids, seed=1)
    assert len(confs) == 16
    # each knob covers its domain (stratification): normalized values hit
    # both halves
    for kid in ids:
        us = [knob_normalize(P.KNOB_BY_ID[kid], c[kid]) for c in confs]
        assert min(us) < 0.3 and max(us) > 0.7


def test_lhs_deterministic():
    a = P.lhs_sample(8, P.P_IDS, seed=5)
    b = P.lhs_sample(8, P.P_IDS, seed=5)
    assert a == b


@pytest.mark.parametrize("ids", [P.C_IDS, P.P_IDS + P.S_IDS, P.FULL_IDS * 2])
def test_refined_lhs_stratified_within_bounds(ids):
    """Each column lies in its knob's refined range, one point per 1/n
    stratum of that range."""
    n = 32
    U = P.refined_lhs(n, ids, np.random.default_rng(7))
    assert U.shape == (n, len(ids))
    for j, kid in enumerate(ids):
        lo, hi = P.REFINED_BOUNDS.get(kid, (0.02, 0.98))
        assert np.all((U[:, j] >= lo) & (U[:, j] <= hi)), kid
        strata = np.floor((U[:, j] - lo) / (hi - lo) * n).astype(int)
        assert sorted(strata) == list(range(n)), kid


def _denormalize_scalar_reference(knob, u):
    """``Knob.denormalize`` as first written: one scalar at a time."""
    u = min(max(u, 0.0), 1.0)
    if knob.log:
        lo, hi = np.log10(knob.lo), np.log10(knob.hi)
        v = 10 ** (lo + u * (hi - lo))
    else:
        v = knob.lo + u * (knob.hi - knob.lo)
    return knob.clamp(v)


def test_matrix_matches_scalar():
    rng = np.random.default_rng(1)
    ids = [k.kid for k in P.ALL_KNOBS]
    U = rng.random((8, len(ids)))
    M = P.denormalize_matrix(U, ids)
    for r in range(8):
        conf = from_vector(U[r], ids)
        assert list(conf.values()) == M[r].tolist()   # one-row case, bit for bit
        for j, kid in enumerate(ids):
            ref = _denormalize_scalar_reference(P.KNOB_BY_ID[kid], U[r, j])
            assert M[r, j] == pytest.approx(ref, rel=1e-9), kid
            assert knob_denormalize(P.KNOB_BY_ID[kid], U[r, j]) == M[r, j]


def _denormalize_reference(U, ids):
    """``denormalize_matrix`` as first written, both branches on every
    column, plus the clamp to [lo, hi] after the power."""
    U = np.clip(np.asarray(U, dtype=np.float64), 0.0, 1.0)
    ks = [P.KNOB_BY_ID[i] for i in ids]
    lo, hi = np.array([k.lo for k in ks]), np.array([k.hi for k in ks])
    is_log, is_int = np.array([k.log for k in ks]), np.array([k.integer for k in ks])
    lin = lo + U * (hi - lo)
    lo_s, hi_s = np.where(is_log, lo, 1.0), np.where(is_log, hi, 1.0)
    logv = 10 ** (np.log10(lo_s) + U * (np.log10(hi_s) - np.log10(lo_s)))
    M = np.clip(np.where(is_log, logv, lin), lo, hi)
    return np.where(is_int, np.round(M), M)


def test_denormalize_edges_in_domain():
    """All-0 and all-1 rows decode inside every knob's domain, through the
    matrix and through every caller of it."""
    from repro.moo.hmooc import QueryConfig
    ids = P.FULL_IDS
    for u in (0.0, 1.0):
        row = np.full(len(ids), u)
        for conf in (dict(zip(ids, P.denormalize_matrix(row, ids))), from_vector(row, ids),
                     {i: knob_denormalize(P.KNOB_BY_ID[i], u) for i in ids}):
            for kid, v in conf.items():
                k = P.KNOB_BY_ID[kid]
                assert k.lo <= v <= k.hi, (u, kid, v)
        qc = QueryConfig.decode(row[:P.D_C], np.full((2, P.D_P + P.D_S), u), [3, 5])
        for conf in (qc.theta_c, *qc.theta_p.values(), *qc.theta_s.values()):
            for kid, v in conf.items():
                k = P.KNOB_BY_ID[kid]
                assert k.lo <= v <= k.hi, (u, kid, v)


def test_decode_matches_matrix_bit_for_bit():
    from repro.moo.hmooc import QueryConfig
    rng = np.random.default_rng(4)
    ps_ids = P.P_IDS + P.S_IDS
    for _ in range(50):
        u_c, u_ps = rng.random(P.D_C), rng.random((4, len(ps_ids)))
        qc = QueryConfig.decode(u_c, u_ps, [0, 2, 4, 6])
        assert list(qc.theta_c.values()) == P.denormalize_matrix(u_c, P.C_IDS).tolist()
        M = P.denormalize_matrix(u_ps, ps_ids)
        for r, sq in enumerate([0, 2, 4, 6]):
            assert ({**qc.theta_p[sq], **qc.theta_s[sq]}
                    == dict(zip(ps_ids, M[r].tolist())))
    confs = P.lhs_sample(20, P.FULL_IDS, seed=8)
    M = P.denormalize_matrix(P.lhs_unit(20, 19, np.random.default_rng(8)), P.FULL_IDS)
    assert [list(c.values()) for c in confs] == M.tolist()


@pytest.mark.parametrize("ids", [[k.kid for k in P.ALL_KNOBS], P.P_IDS + P.S_IDS,
                                 P.C_IDS[::-1]], ids=["full", "ps", "c-reversed"])
def test_matrix_bit_identical_to_reference(ids):
    rng = np.random.default_rng(2)
    U = rng.random((4000, len(ids))) * 1.1 - 0.05   # some rows outside [0, 1]
    U[:5] = [[0.0], [1.0], [0.5], [0.25], [0.75]]
    for batch in (U, U[:1], U[3]):
        M = P.denormalize_matrix(batch, ids)
        np.testing.assert_array_equal(M, _denormalize_reference(batch, ids))
    P.denormalize_matrix(U, ids)[:] = -1.0     # a caller's edit of the output
    np.testing.assert_array_equal(P.denormalize_matrix(U, ids),
                                  _denormalize_reference(U, ids))


def _normalize_reference(knob, v):
    """``Knob.normalize`` as first written: one scalar at a time."""
    v = min(max(v, knob.lo), knob.hi)
    if knob.log:
        lo, hi = np.log10(knob.lo), np.log10(knob.hi)
        return float((np.log10(v) - lo) / (hi - lo))
    return float((v - knob.lo) / (knob.hi - knob.lo))


@pytest.mark.parametrize("ids", [P.FULL_IDS, QS_IDS, P.C_IDS, P.P_IDS + P.S_IDS],
                         ids=["full", "qs", "c", "ps"])
def test_normalize_matrix_bit_identical_to_scalar(ids):
    ks = [P.KNOB_BY_ID[i] for i in ids]
    lhs = [[c[i] for i in ids] for c in P.lhs_sample(200, ids, seed=3)]
    edges = [[k.lo for k in ks], [k.hi for k in ks],
             [k.lo - 0.5 * (k.hi - k.lo) for k in ks],   # below lo
             [k.lo / 2 for k in ks], [k.hi * 2 + 1 for k in ks]]   # above hi
    M = np.array(lhs + edges)
    ref = np.array([[_normalize_reference(k, v) for k, v in zip(ks, row)] for row in M])
    U = P.normalize_matrix(M, ids)
    assert np.array_equal(U, ref)
    assert np.array_equal(P.normalize_matrix(M[7], ids), ref[7])
    for row, ref_row in zip(M, ref):
        assert np.array_equal(to_vector(dict(zip(ids, row)), ids), ref_row)
        assert [knob_normalize(k, v) for k, v in zip(ks, row)] == ref_row.tolist()


def test_spark_conf_items_rendering():
    items = P.spark_conf_items(P.default_conf())
    assert items["spark.executor.cores"] == "2"
    assert items["spark.shuffle.compress"] == "true"
    assert items["spark.sql.shuffle.partitions"] == "200"
    # byte knobs render as integral strings
    assert items["spark.sql.adaptive.advisoryPartitionSizeInBytes"] == str(64 * 1024**2)


def test_spark_conf_items_bool_false():
    items = P.spark_conf_items({"k7": 0.0})
    assert items["spark.shuffle.compress"] == "false"
