"""Train/serve parity: compile time and the runtime plugin score the same
feature rows the models were trained on (paper §4.3, §5.1, §5.2).

A spy suite records every matrix the subQ and QS latency models receive,
and each row their folds score, rebuilt whole; the rows are compared with
the ones ``trace_rows`` writes for the same query, variant and
configuration.
"""
import numpy as np
import pytest

from repro.core.plan import partition_subqs
from repro.core.workloads import build_query
from repro.experiments.table5 import PREFS
from repro.model.features import (DERIVED_DIM, GAMMA_DIM, JOIN_ALGS,
                                  derived_partition_features, join_alg_onehot)
from repro.model.gtn import EMB_DIM
from repro.model.predictor import (FULL_IDS, IDLE_GAMMA, QS_DIM, QS_IDS, ModelSuite,
                                   TargetModels)
from repro.model.traces import trace_rows
from repro.moo.hmooc import hmooc
from repro.moo.objectives import CompileTimeObjectives
from repro.params import C_IDS, GB, MB, lhs_sample
from repro.runtime.optimizer import _THETA_S_ROWS, OnlineOptimizer
from repro.simspark.executor import run_query
from tests.conftest import FoldedRegressor, fold_each, to_vector

QUERIES = [("tpch", "q9"), ("tpcds", "q17")]
VARIANT = 1
SF = 100.0  # the scale trace_rows builds its plans at
CONFS = lhs_sample(3, FULL_IDS, seed=11)


class SpyRegressor:
    """Delegating regressor that keeps a copy of every input matrix. A
    fold of it records each row it scores whole in ``seen_folded``: the
    fold's fixed columns put back around the columns it was passed."""

    def __init__(self, inner):
        self.inner = inner
        self.seen: list[np.ndarray] = []
        self.seen_folded: list[np.ndarray] = []

    def predict(self, X):
        self.seen.append(np.array(X, copy=True))
        return self.inner.predict(X)

    def astype(self, dtype):
        """A spy on the cast copy, recording into the same lists."""
        cast = SpyRegressor(self.inner.astype(dtype))
        cast.seen, cast.seen_folded = self.seen, self.seen_folded
        return cast

    def fold(self, cols, values):
        return fold_each(lambda row: SpyFold(self, self.inner, cols, row), values)


class SpyFold(FoldedRegressor):
    """``SpyRegressor.fold``: records each full row it scores."""

    def __init__(self, spy, inner, cols, values):
        super().__init__(inner, cols, values)
        self.spy = spy

    def astype(self, dtype):
        return SpyFold(self.spy, self.inner.astype(dtype), self.cols, self.values)

    def predict(self, X):
        self.spy.seen_folded.append(self.full_rows(X))
        return super().predict(X)


@pytest.fixture
def spy_suite(fake_suite):
    def spied(tm):
        return TargetModels(SpyRegressor(tm.latency), SpyRegressor(tm.io))
    return ModelSuite(spied(fake_suite.subq), spied(fake_suite.qs), fake_suite.lqp)


def _trace_feats(bench, template, kind, conf, conf_id):
    return {r["sq_id"]: np.asarray(r["feats"])
            for r in trace_rows(bench, template, VARIANT, conf, conf_id)
            if r["kind"] == kind}


@pytest.mark.parametrize("bench,template", QUERIES)
def test_subq_rows_match_compile_time(bench, template, spy_suite):
    dag = partition_subqs(build_query(bench, template, sf=SF, variant=VARIANT))
    obj = CompileTimeObjectives(dag, spy_suite)
    spy = spy_suite.subq.latency
    for ci, conf in enumerate(CONFS):
        rows = _trace_feats(bench, template, "subq", conf, ci)
        assert sorted(rows) == obj.sq_ids
        U = to_vector(conf, FULL_IDS)[None, :]
        for sq_id, feats in rows.items():
            spy.seen_folded.clear()
            obj.subq_batch(sq_id, U)
            (X,) = spy.seen_folded
            assert X.shape == (1, len(feats))
            # compile time re-decodes the knobs from U, so the derived
            # partition columns may differ in the last bits
            np.testing.assert_allclose(X[0], feats, rtol=1e-9)
    assert spy.seen == []


@pytest.mark.parametrize("bench,template", QUERIES)
def test_hmooc_scores_only_folded_subq_models(bench, template, spy_suite):
    """Compile time never runs the unfolded subQ models on full rows."""
    dag = partition_subqs(build_query(bench, template, sf=SF, variant=VARIANT))
    hmooc(dag, spy_suite, n_c=16, n_clusters=4, n_p=32)
    for spy in (spy_suite.subq.latency, spy_suite.subq.io):
        assert spy.seen == []
        # one per block; each subQ's optimize, assign and re-assign batch
        # fits one block here
        assert len(spy.seen_folded) == 3 * len(dag.subqs)


@pytest.mark.parametrize("bench,template", QUERIES)
def test_qs_keep_current_row_matches_trace(bench, template, spy_suite):
    dag = partition_subqs(build_query(bench, template, sf=SF, variant=VARIANT))
    spy = spy_suite.qs.latency
    # The join algorithm and the contention γ are inputs of each request.
    same = np.ones(QS_DIM, dtype=bool)
    same[EMB_DIM:EMB_DIM + len(JOIN_ALGS)] = False
    g0 = QS_DIM - DERIVED_DIM - GAMMA_DIM
    same[g0:g0 + GAMMA_DIM] = False
    served = 0
    for ci, conf in enumerate(CONFS):
        rows = _trace_feats(bench, template, "qs", conf, ci)
        opt = OnlineOptimizer(dag, spy_suite, {k: conf[k] for k in C_IDS}, (0.5, 0.5))
        for sq_id, feats in rows.items():
            spy.seen_folded.clear()
            if opt.on_query_stage(dag, sq_id, dag.input_bytes(sq_id, true=True),
                                  conf) is None:
                continue  # pruned request: nothing scored
            (X,) = spy.seen_folded
            np.testing.assert_array_equal(X[0][same], feats[same])
            served += 1
    assert served > 0
    assert spy.seen == []  # the runtime scores only folded QS models


class RecordingOptimizer(OnlineOptimizer):
    """Keeps each served request: the hook, its current θ, and the
    candidate matrix, join algorithms and observed bytes it scored."""

    def __init__(self, *args):
        super().__init__(*args)
        self.requests: list[dict] = []

    def on_collapsed_lqp(self, dag, sq_id, known, theta_p):
        self._hook = ("lqp", theta_p)
        return super().on_collapsed_lqp(dag, sq_id, known, theta_p)

    def on_query_stage(self, dag, sq_id, input_bytes, conf):
        self._hook = ("qs", conf)
        return super().on_query_stage(dag, sq_id, input_bytes, conf)

    def _choose(self, sq_id, M_nat, algs, margin, *, input_bytes=None):
        self.requests.append(dict(hook=self._hook, sq_id=sq_id, M=M_nat.copy(),
                                  algs=list(algs), input_bytes=input_bytes))
        return super()._choose(sq_id, M_nat, algs, margin, input_bytes=input_bytes)


def _qs_rows_reference(st, confs, algs, input_bytes):
    """QS rows as the dict path built them: one ``to_vector`` per
    configuration and the blocks joined by ``np.concatenate``."""
    n = len(confs)
    U_qs = np.array([to_vector(c, QS_IDS) for c in confs])
    M_nat = np.array([[c[i] for i in FULL_IDS] for c in confs])
    tail = np.concatenate([st.alpha, st.beta, IDLE_GAMMA])
    in_bytes = st.input_bytes if input_bytes is None else input_bytes
    return np.concatenate(
        [np.tile(st.emb, (n, 1)), np.array([join_alg_onehot(a) for a in algs]), U_qs,
         np.tile(tail, (n, 1)), derived_partition_features(st.kind, in_bytes, M_nat, st.skew)],
        axis=1)


def _row(conf):
    return [conf[i] for i in FULL_IDS]


@pytest.mark.parametrize("bench,template", QUERIES)
def test_runtime_scores_dict_path_rows(bench, template, spy_suite):
    """Every QS row a served request scores equals the dict-path row."""
    dag = partition_subqs(build_query(bench, template, sf=SF, variant=VARIANT))
    spy = spy_suite.qs.latency
    conf = CONFS[0]
    theta_c = {k: conf[k] for k in C_IDS}
    served = {"lqp": 0, "qs": 0, "mixed": 0}
    for pi, pref in enumerate(PREFS):
        spy.seen_folded.clear()
        opt = RecordingOptimizer(dag, spy_suite, theta_c, pref)
        run_query(dag, conf, runtime_opt=opt, noise_seed=pi)
        seen = iter(spy.seen_folded)
        for req in opt.requests:
            kind, current = req["hook"]
            M, algs = req["M"], req["algs"]
            if kind == "qs":
                grid = [{k: current[k] for k in ("s10", "s11")},
                        *({"s10": a, "s11": b} for a, b in _THETA_S_ROWS)]
                np.testing.assert_array_equal(M, [_row({**current, **ts}) for ts in grid])
            else:
                np.testing.assert_array_equal(
                    M[0], _row({**theta_c, **current, "s10": 0.2, "s11": 1 * MB}))
                assert len(set(algs)) == len(algs)  # one row per join algorithm
            X_ref = _qs_rows_reference(opt._stages[req["sq_id"]],
                                       [dict(zip(FULL_IDS, r)) for r in M], algs,
                                       req["input_bytes"])
            assert np.array_equal(next(seen), X_ref)  # one matrix per request
            served[kind] += 1
            served["mixed"] += len(set(algs)) > 1
        assert next(seen, None) is None
    assert spy.seen == []
    assert min(served.values()) > 0, served


def test_theta_s_candidates_are_current_conf_then_grid(fake_suite):
    """Row 0 of a θs request's candidate matrix is the current
    configuration; row i is it with the i-th grid (s10, s11) written in."""
    bench, template = QUERIES[0]
    dag = partition_subqs(build_query(bench, template, sf=SF, variant=VARIANT))
    conf = CONFS[1]
    opt = RecordingOptimizer(dag, fake_suite, {k: conf[k] for k in C_IDS}, (0.5, 0.5))
    sq_id = next(i for i, s in dag.subqs.items() if s.kind != "scan")
    assert opt.on_query_stage(dag, sq_id, 10 * GB, conf) is not None
    (req,) = opt.requests
    M = req["M"]
    assert M.shape == (1 + len(_THETA_S_ROWS), len(FULL_IDS))
    assert np.array_equal(M[0], _row(conf))
    for row, (s10, s11) in zip(M[1:], _THETA_S_ROWS):
        assert np.array_equal(row, _row({**conf, "s10": s10, "s11": s11}))
    assert len(set(map(tuple, M[1:, -2:]))) == len(_THETA_S_ROWS)
