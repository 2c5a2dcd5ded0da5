"""Unit tests for the numpy MLP regressor."""
import numpy as np
import pytest

from repro.model.mlp import (BATCH, LR, PREDICT_BLOCK, WEIGHT_DECAY, MLPRegressor,
                             predict_blocks)
from tests.conftest import cast, fold_rows, model_arrays, predict_row


@pytest.fixture(scope="module")
def toy():
    rng = np.random.default_rng(0)
    X = rng.random((600, 6))
    y = 50.0 * X[:, 0] + 10.0 * X[:, 1] * X[:, 2] + 1.0
    return X, y


def test_training_reduces_loss(toy):
    X, y = toy
    m = MLPRegressor(6, hidden=(32, 32), seed=1)
    losses = m.fit(X, y, epochs=30)
    assert losses[-1] < losses[0] * 0.5


def test_learns_function(toy):
    X, y = toy
    m = MLPRegressor(6, hidden=(64, 64), seed=1)
    m.fit(X, y, epochs=300)
    pred = m.predict(X)
    wmape = np.abs(pred - y).sum() / y.sum()
    assert wmape < 0.10


def test_predict_shape_and_positive(toy):
    X, y = toy
    m = MLPRegressor(6, hidden=(32, 32), seed=0)
    m.fit(X, y, epochs=5)
    pred = m.predict(X[:10])
    assert pred.shape == (10,)
    assert np.all(pred > -1.0)  # expm1 lower bound


def test_deterministic_training(toy):
    X, y = toy
    a = MLPRegressor(6, hidden=(32, 32), seed=3)
    a.fit(X, y, epochs=5)
    b = MLPRegressor(6, hidden=(32, 32), seed=3)
    b.fit(X, y, epochs=5)
    for pa, pb in zip(model_arrays(a), model_arrays(b)):
        np.testing.assert_array_equal(pa, pb)
    np.testing.assert_array_equal(a.predict(X[:5]), b.predict(X[:5]))


def reference_fit(m, X, y, *, epochs):
    """``MLPRegressor.fit`` with one Adam update per parameter array: the
    input mean and std taken in float64 and cast, the whole training
    matrix cast to float32 and standardized once, before the epochs."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m.x_mean = X.mean(axis=0).astype(np.float32)
    m.x_std = np.where(X.std(axis=0) > 1e-9, X.std(axis=0), 1.0).astype(np.float32)
    Xn = (X.astype(np.float32) - m.x_mean) / m.x_std
    t = np.log1p(np.maximum(y, 0.0)).astype(np.float32)
    rng = np.random.default_rng(m._seed + 1)
    mW = [np.zeros_like(w) for w in m.W]
    vW = [np.zeros_like(w) for w in m.W]
    mb = [np.zeros_like(bb) for bb in m.b]
    vb = [np.zeros_like(bb) for bb in m.b]
    b1, b2, eps = 0.9, 0.999, 1e-8
    step = 0
    for _ in range(epochs):
        idx = rng.permutation(len(Xn))
        for s in range(0, len(Xn), BATCH):
            bi = idx[s:s + BATCH]
            pred, acts = m._forward(Xn[bi])
            g = (2.0 * (pred - t[bi]) / len(bi))[:, None]
            gW = [None] * len(m.W)
            gb = [None] * len(m.W)
            for i in range(len(m.W) - 1, -1, -1):
                gW[i] = acts[i].T @ g + WEIGHT_DECAY * m.W[i]
                gb[i] = g.sum(axis=0)
                if i > 0:
                    g = (g @ m.W[i].T) * (acts[i] > 0)
            step += 1
            for i in range(len(m.W)):
                mW[i] = b1 * mW[i] + (1 - b1) * gW[i]
                vW[i] = b2 * vW[i] + (1 - b2) * gW[i] ** 2
                mb[i] = b1 * mb[i] + (1 - b1) * gb[i]
                vb[i] = b2 * vb[i] + (1 - b2) * gb[i] ** 2
                m.W[i] -= LR * (mW[i] / (1 - b1**step)) / (np.sqrt(vW[i] / (1 - b2**step)) + eps)
                m.b[i] -= LR * (mb[i] / (1 - b1**step)) / (np.sqrt(vb[i] / (1 - b2**step)) + eps)


@pytest.mark.parametrize("constant_col", [False, True], ids=["varied", "constant-column"])
def test_fit_bit_identical_to_full_matrix_standardization(toy, constant_col):
    """Adam over one flat buffer is the same elementwise arithmetic as one
    update per parameter array: every parameter is equal byte for byte, and
    float32 (600 rows, so the last batch of each epoch is partial)."""
    X, y = toy
    if constant_col:
        X = X.copy()
        X[:, 2] = 4.0
    got = MLPRegressor(6, hidden=(32, 16), seed=7)
    got.fit(X, y, epochs=6)
    ref = MLPRegressor(6, hidden=(32, 16), seed=7)
    reference_fit(ref, X, y, epochs=6)
    for a, b in zip(model_arrays(got), model_arrays(ref)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_save_load_roundtrip(tmp_path, toy):
    X, y = toy
    m = MLPRegressor(6, hidden=(16,), seed=2)
    m.fit(X, y, epochs=10)
    path = str(tmp_path / "m.npz")
    m.save(path)
    m2 = MLPRegressor.load(path)
    np.testing.assert_allclose(m.predict(X[:20]), m2.predict(X[:20]))
    assert m2.hidden == (16,)


def test_standardization_stored(toy):
    X, y = toy
    m = MLPRegressor(6, hidden=(32, 32), seed=0)
    m.fit(X, y, epochs=2)
    np.testing.assert_allclose(m.x_mean, X.mean(axis=0))
    assert np.all(m.x_std > 0)


def test_constant_feature_no_nan(toy):
    X, y = toy
    X = X.copy()
    X[:, 5] = 7.0  # zero-variance feature
    m = MLPRegressor(6, hidden=(32, 32), seed=0)
    m.fit(X, y, epochs=3)
    assert np.all(np.isfinite(m.predict(X[:5])))


def test_fit_step_follows_finite_difference_gradient():
    """One full-batch Adam step moves every parameter by about ``LR``
    against the sign of the gradient of the log-target MSE plus the
    ``WEIGHT_DECAY`` L2 term on the weights, computed here by central
    differences through ``_forward`` of a float64 copy, where a 1e-6 step
    is not lost to rounding."""
    rng = np.random.default_rng(4)
    X = rng.random((40, 3))
    assert len(X) <= BATCH   # one epoch is one full-batch step
    y = 5.0 * X[:, 0] + X[:, 1] * X[:, 2]
    m = MLPRegressor(3, hidden=(5, 4), seed=2)
    m64 = cast(m, np.float64)
    Xn = (X - X.mean(axis=0)) / X.std(axis=0)
    t = np.log1p(y)

    def loss():
        decay = 0.5 * WEIGHT_DECAY * sum(float((W * W).sum()) for W in m64.W)
        return float(((m64._forward(Xn)[0] - t) ** 2).mean()) + decay

    params = m64.W + m64.b
    before = [p.copy() for p in m.W + m.b]
    grads = []
    h = 1e-6
    for p in params:
        g = np.zeros_like(p)
        for i in np.ndindex(p.shape):
            p[i] += h
            up = loss()
            p[i] -= 2 * h
            g[i] = (up - loss()) / (2 * h)
            p[i] += h
        grads.append(g)
    m.fit(X, y, epochs=1)
    for p, p0, g in zip(m.W + m.b, before, grads):
        moved = p - p0
        live = np.abs(g) > 1e-6
        assert live.any()
        np.testing.assert_array_equal(np.sign(moved[live]), -np.sign(g[live]))
        np.testing.assert_allclose(np.abs(moved[live]), LR, rtol=2e-2)


@pytest.fixture(scope="module")
def wide():
    """A fitted 12-input model and rows whose columns 0, 3, 4 and 9 are
    fixed, as a subQ's context columns are in every compile-time row."""
    rng = np.random.default_rng(5)
    X = rng.normal(2.0, 3.0, (400, 12))
    y = np.exp(0.3 * X[:, 0] + 0.2 * X[:, 3] * X[:, 5]).clip(0, 1e4) + X[:, 9] ** 2
    m = MLPRegressor(12, hidden=(32, 32), seed=6)
    m.fit(X, y, epochs=8)
    cols = np.array([0, 3, 4, 9])
    X_fixed = X.copy()
    X_fixed[:, cols] = X[7, cols]
    return m, cols, X_fixed


def _rest(X, cols):
    return np.delete(X, cols, axis=1)


def test_fold_matches_full_rows(wide):
    """The fold of a trained (float32) model predicts its own full rows to
    float32 rounding: the fold sums the fixed columns in float64, the full
    rows in float32."""
    m, cols, X = wide
    f = m.fold(cols, X[:1, cols])
    assert f.d_in == 12 - len(cols) and f.W[0].shape == (8, 32) and f.b[0].shape == (1, 32)
    assert all(a.dtype == np.float32 for a in model_arrays(f))
    pred = predict_row(f, _rest(X, cols), 0)
    assert pred.dtype == np.float64
    np.testing.assert_allclose(pred, m.predict(X), rtol=1e-5)


@pytest.mark.parametrize("cast_first", [True, False], ids=["cast-fold", "fold-cast"])
def test_fold_float32_matches_full_rows(wide, cast_first):
    """A float64 model folded and cast to float32, in either order, predicts
    the float64 model's full rows to float32 rounding."""
    m, cols, X = wide
    m64 = cast(m, np.float64)
    f = (cast(m64, np.float32).fold(cols, X[:1, cols]) if cast_first
         else cast(m64.fold(cols, X[:1, cols]), np.float32))
    assert all(a.dtype == np.float32 for a in model_arrays(f))
    pred = predict_row(f, _rest(X, cols), 0)
    assert pred.dtype == np.float64
    np.testing.assert_allclose(pred, m64.predict(X), rtol=1e-5)


@pytest.mark.parametrize("k", [1, 2, 5, 7, 16, 64])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
def test_2d_fold_is_1d_fold_per_row(k, dtype):
    """A (k, len(cols)) ``values`` gives one fold whose bias-table row i is,
    byte for byte, the first bias of the one-row fold of ``V[i:i+1]``
    (``conftest.fold_rows``, the per-row fold it replaced), so a row does
    not depend on its place in the batch; the fold shares the layers after
    the first, and its predictions with row i are the one-row fold's bytes
    too. The model has a QS row's shape (59 inputs, 42 folded, 96 hidden),
    where a BLAS product would round some rows of a batch differently."""
    rng = np.random.default_rng(k)
    m = MLPRegressor(59, hidden=(96, 96), seed=k)
    m.b = [rng.normal(0.0, 0.1, b.shape) for b in m.b]
    m.x_mean, m.x_std = rng.normal(0.0, 2.0, 59), rng.uniform(0.5, 3.0, 59)
    m = cast(m, dtype)
    cols = np.r_[0:32, 46:56]
    V = rng.normal(0.0, 3.0, (k, len(cols)))
    fold = m.fold(cols, V)
    assert isinstance(fold, MLPRegressor) and fold.b[0].shape == (k, 96)
    assert all(a is b for a, b in zip(fold.W[1:] + fold.b[1:], m.W[1:] + m.b[1:]))
    rest = rng.normal(0.0, 3.0, (5, 59 - len(cols)))
    for i in range(k):
        (one,) = fold_rows(m, cols, V[i:i + 1])
        for a, b in zip([fold.W[0], fold.b[0][i], fold.x_mean, fold.x_std],
                        [one.W[0], one.b[0], one.x_mean, one.x_std]):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()
        assert fold_rows(m, cols, V)[i].b[0].tobytes() == one.b[0].tobytes()
        assert predict_row(fold, rest, i).tobytes() == one.predict(rest).tobytes()


@pytest.mark.parametrize("k", [1, 3])
def test_fold_needs_a_bias_row(wide, k):
    """A fold refuses to score without a bias-table row, even where numpy
    would broadcast the table over the rows (one row, or exactly k rows of
    input), and a plain model refuses a row."""
    m, cols, X = wide
    f = m.fold(cols, X[:k, cols])
    H = f.standardize(_rest(X[:k], cols))
    out = np.empty(k)
    with pytest.raises(ValueError):
        f.predict_block(H, out)
    with pytest.raises(ValueError):
        f.predict(_rest(X[:k], cols))
    with pytest.raises(ValueError):
        m.predict_block(m.standardize(X[:k]), out, row=0)
    f.predict_block(H, out, row=k - 1)
    assert out.tobytes() == fold_rows(m, cols, X[k - 1:k, cols])[0].predict(
        _rest(X[:k], cols)).tobytes()


@pytest.mark.parametrize("n", [1, 300, 513])
def test_standardized_tables_predict_like_predict(n):
    """Standardizing two column groups of a table once and forwarding
    gathered rows with ``predict_block`` gives ``predict``'s bytes: the
    compile-time solve's split of the work."""
    rng = np.random.default_rng(n)
    m = MLPRegressor(22, hidden=(64, 64), seed=n)
    m.b = [rng.normal(0.0, 0.1, b.shape) for b in m.b]
    m.x_mean, m.x_std = rng.normal(0.0, 2.0, 22), rng.uniform(0.5, 3.0, 22)
    f = cast(m, np.float32).fold([0, 1], rng.normal(0.0, 1.0, (3, 2)))
    A, B = rng.random((40, 8)), rng.random((30, 12))
    ia, ib = rng.integers(0, 40, n), rng.integers(0, 30, n)
    As, Bs = f.standardize(A, slice(0, 8)), f.standardize(B, slice(8, 20))
    out = np.empty((n, 2))
    f.predict_block(np.concatenate([As[ia], Bs[ib]], axis=1), out[:, 1], row=2)
    want = predict_row(f, np.concatenate([A[ia], B[ib]], axis=1), 2)
    assert out[:, 1].tobytes() == want.tobytes()


def test_save_load_keeps_float32_bytes(tmp_path, wide):
    """``save``/``load`` round-trips every float32 array and the
    predictions byte for byte; folding the model changes neither."""
    m, cols, X = wide
    before = m.predict(X)
    predict_row(m.fold(cols, X[:1, cols]), _rest(X, cols), 0)
    path = str(tmp_path / "m.npz")
    m.save(path)
    back = MLPRegressor.load(path)
    for a, b in zip(model_arrays(m), model_arrays(back)):
        assert a.dtype == b.dtype == np.float32
        assert a.tobytes() == b.tobytes()
    assert back.predict(X).tobytes() == before.tobytes()
    assert m.predict(X).tobytes() == before.tobytes()


def _one_shot(m, X):
    """``predict`` as one forward pass over all of ``X``."""
    X = np.asarray(X, dtype=m.W[0].dtype)
    out, _ = m._forward((X - m.x_mean) / m.x_std)
    return np.expm1(np.clip(np.asarray(out, dtype=np.float64), -20.0, 30.0))


@pytest.mark.parametrize("n", [1, 511, 512, 513, 1025, 3584])
@pytest.mark.parametrize("f32_fold", [False, True], ids=["f64", "f32-fold"])
def test_predict_is_one_shot_forward_per_block(wide, n, f32_fold):
    """``predict`` gives, byte for byte, one-shot forwards over its
    ``PREDICT_BLOCK``-row blocks, concatenated, with a one-row remainder
    in the last block; the comparison is per block, so it checks the
    blocking and not how BLAS rounds other shapes."""
    m, cols, _ = wide
    X = np.random.default_rng(n).normal(2.0, 3.0, (n, 12))
    if f32_fold:
        m, X = m.fold(cols, X[:1, cols]), _rest(X, cols)
    else:
        m = cast(m, np.float64)
    starts = list(range(0, n, PREDICT_BLOCK))
    if n > 1 and n % PREDICT_BLOCK == 1:
        starts.pop()
    want = np.concatenate([_one_shot(m, X[s:e]) for s, e in zip(starts, starts[1:] + [n])])
    got = predict_row(m, X, 0) if f32_fold else m.predict(X)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, blocks", [
    (1, [(0, 1)]), (2, [(0, 2)]), (511, [(0, 511)]), (512, [(0, 512)]),
    (513, [(0, 513)]), (514, [(0, 512), (512, 514)]),
    (1023, [(0, 512), (512, 1023)]), (1024, [(0, 512), (512, 1024)]),
    (1025, [(0, 512), (512, 1025)]), (1026, [(0, 512), (512, 1024), (1024, 1026)]),
    (3584, [(s, s + 512) for s in range(0, 3584, 512)]),
])
def test_predict_blocks(n, blocks):
    """``PREDICT_BLOCK``-row ranges that cover the rows in order, a one-row
    remainder joining the last block."""
    assert PREDICT_BLOCK == 512
    assert predict_blocks(n) == blocks


def test_predict_runs_predict_blocks(monkeypatch, wide):
    """``predict`` forwards exactly the ranges ``predict_blocks`` gives:
    with the helper patched to other ranges, it follows them."""
    from repro.model import mlp
    m, _, _ = wide
    X = np.random.default_rng(5).normal(2.0, 3.0, (40, 12))
    monkeypatch.setattr(mlp, "predict_blocks", lambda n: [(0, 7), (7, 30), (30, n)])
    want = np.concatenate([_one_shot(m, X[s:e]) for s, e in [(0, 7), (7, 30), (30, 40)]])
    assert m.predict(X).tobytes() == want.tobytes()
