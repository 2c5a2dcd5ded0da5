"""Unit tests for the numpy MLP regressor."""
import numpy as np
import pytest

from repro.model.mlp import PREDICT_BLOCK, MLPRegressor, predict_blocks


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
    m.fit(X, y, epochs=200, lr=5e-3)
    pred = m.predict(X)
    wmape = np.abs(pred - y).sum() / y.sum()
    assert wmape < 0.10


def test_predict_shape_and_positive(toy):
    X, y = toy
    m = MLPRegressor(6, seed=0)
    m.fit(X, y, epochs=5)
    pred = m.predict(X[:10])
    assert pred.shape == (10,)
    assert np.all(pred > -1.0)  # expm1 lower bound


def test_deterministic_training(toy):
    X, y = toy
    a = MLPRegressor(6, seed=3)
    a.fit(X, y, epochs=5)
    b = MLPRegressor(6, seed=3)
    b.fit(X, y, epochs=5)
    for pa, pb in zip(_params(a), _params(b)):
        np.testing.assert_array_equal(pa, pb)
    np.testing.assert_array_equal(a.predict(X[:5]), b.predict(X[:5]))


def _params(m):
    return [*m.W, *m.b, m.x_mean, m.x_std]


def reference_fit(m, X, y, *, epochs=60, batch=256, lr=2e-3, weight_decay=1e-5):
    """``MLPRegressor.fit`` as it was when it standardized the whole
    training matrix once, before the epochs."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m.x_mean = X.mean(axis=0)
    m.x_std = np.where(X.std(axis=0) > 1e-9, X.std(axis=0), 1.0)
    Xn = (X - m.x_mean) / m.x_std
    t = np.log1p(np.maximum(y, 0.0))
    rng = np.random.default_rng(m._seed + 1)
    mW = [np.zeros_like(w) for w in m.W]
    vW = [np.zeros_like(w) for w in m.W]
    mb = [np.zeros_like(bb) for bb in m.b]
    vb = [np.zeros_like(bb) for bb in m.b]
    b1, b2, eps = 0.9, 0.999, 1e-8
    step = 0
    for _ in range(epochs):
        idx = rng.permutation(len(Xn))
        for s in range(0, len(Xn), batch):
            bi = idx[s:s + batch]
            pred, acts = m._forward(Xn[bi])
            g = (2.0 * (pred - t[bi]) / len(bi))[:, None]
            gW = [None] * len(m.W)
            gb = [None] * len(m.W)
            for i in range(len(m.W) - 1, -1, -1):
                gW[i] = acts[i].T @ g + weight_decay * m.W[i]
                gb[i] = g.sum(axis=0)
                if i > 0:
                    g = (g @ m.W[i].T) * (acts[i] > 0)
            step += 1
            for i in range(len(m.W)):
                mW[i] = b1 * mW[i] + (1 - b1) * gW[i]
                vW[i] = b2 * vW[i] + (1 - b2) * gW[i] ** 2
                mb[i] = b1 * mb[i] + (1 - b1) * gb[i]
                vb[i] = b2 * vb[i] + (1 - b2) * gb[i] ** 2
                m.W[i] -= lr * (mW[i] / (1 - b1**step)) / (np.sqrt(vW[i] / (1 - b2**step)) + eps)
                m.b[i] -= lr * (mb[i] / (1 - b1**step)) / (np.sqrt(vb[i] / (1 - b2**step)) + eps)


@pytest.mark.parametrize("constant_col", [False, True], ids=["varied", "constant-column"])
def test_fit_bit_identical_to_full_matrix_standardization(toy, constant_col):
    """Per-batch standardization is the same elementwise arithmetic as
    standardizing the whole matrix first: every parameter is equal byte for
    byte (600 rows, so the last batch of each epoch is partial)."""
    X, y = toy
    if constant_col:
        X = X.copy()
        X[:, 2] = 4.0
    got = MLPRegressor(6, hidden=(32, 16), seed=7)
    got.fit(X, y, epochs=6)
    ref = MLPRegressor(6, hidden=(32, 16), seed=7)
    reference_fit(ref, X, y, epochs=6)
    for a, b in zip(_params(got), _params(ref)):
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
    m = MLPRegressor(6, seed=0)
    m.fit(X, y, epochs=2)
    np.testing.assert_allclose(m.x_mean, X.mean(axis=0))
    assert np.all(m.x_std > 0)


def test_constant_feature_no_nan(toy):
    X, y = toy
    X = X.copy()
    X[:, 5] = 7.0  # zero-variance feature
    m = MLPRegressor(6, seed=0)
    m.fit(X, y, epochs=3)
    assert np.all(np.isfinite(m.predict(X[:5])))


def test_fit_step_follows_finite_difference_gradient():
    """One full-batch Adam step (no weight decay) moves every parameter by
    about lr against the sign of the log-target MSE gradient, computed here
    by central differences through ``_forward``."""
    rng = np.random.default_rng(4)
    X = rng.random((40, 3))
    y = 5.0 * X[:, 0] + X[:, 1] * X[:, 2]
    m = MLPRegressor(3, hidden=(5, 4), seed=2)
    Xn = (X - X.mean(axis=0)) / X.std(axis=0)
    t = np.log1p(y)

    def loss():
        return float(((m._forward(Xn)[0] - t) ** 2).mean())

    params = m.W + m.b
    before = [p.copy() for p in params]
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
    lr = 1e-3
    m.fit(X, y, epochs=1, batch=len(X), lr=lr, weight_decay=0.0)
    for p, p0, g in zip(m.W + m.b, before, grads):
        moved = p - p0
        live = np.abs(g) > 1e-6
        assert live.any()
        np.testing.assert_array_equal(np.sign(moved[live]), -np.sign(g[live]))
        np.testing.assert_allclose(np.abs(moved[live]), lr, rtol=2e-2)


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


def test_fold_float64_matches_full_rows(wide):
    m, cols, X = wide
    (f,) = m.fold(cols, X[:1, cols])
    assert f.d_in == 12 - len(cols) and f.W[0].shape == (8, 32)
    np.testing.assert_allclose(f.predict(_rest(X, cols)), m.predict(X), rtol=1e-12)


@pytest.mark.parametrize("cast_first", [True, False], ids=["cast-fold", "fold-cast"])
def test_fold_float32_matches_full_rows(wide, cast_first):
    m, cols, X = wide
    f = (m.astype(np.float32).fold(cols, X[:1, cols])[0] if cast_first
         else m.fold(cols, X[:1, cols])[0].astype(np.float32))
    assert all(w.dtype == np.float32 for w in f.W + f.b + [f.x_mean, f.x_std])
    pred = f.predict(_rest(X, cols))
    assert pred.dtype == np.float64
    np.testing.assert_allclose(pred, m.predict(X), rtol=1e-5)


@pytest.mark.parametrize("k", [1, 2, 5, 7, 16, 64])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
def test_2d_fold_is_1d_fold_per_row(k, dtype):
    """A (k, len(cols)) ``values`` gives k folds, each byte for byte the
    one-row fold of its row, so a fold does not depend on its row's place
    in the batch; they share one kept-column ``W0`` slice and the layers
    after the first, and their predictions are the same bytes too. The
    model has a QS row's shape (59 inputs, 42 folded, 96 hidden), where a
    BLAS product would round some rows of a batch differently."""
    rng = np.random.default_rng(k)
    m = MLPRegressor(59, hidden=(96, 96), seed=k)
    m.b = [rng.normal(0.0, 0.1, b.shape) for b in m.b]
    m.x_mean, m.x_std = rng.normal(0.0, 2.0, 59), rng.uniform(0.5, 3.0, 59)
    m = m.astype(dtype)
    cols = np.r_[0:32, 46:56]
    V = rng.normal(0.0, 3.0, (k, len(cols)))
    folds = m.fold(cols, V)
    assert isinstance(folds, list) and len(folds) == k
    rest = rng.normal(0.0, 3.0, (5, 59 - len(cols)))
    for i, f in enumerate(folds):
        (one,) = m.fold(cols, V[i:i + 1])
        assert f.W[0] is folds[0].W[0] and f.x_mean is folds[0].x_mean
        assert all(a is b for a, b in zip(f.W[1:] + f.b[1:], m.W[1:] + m.b[1:]))
        for a, b in zip(f.W + f.b + [f.x_mean, f.x_std],
                        one.W + one.b + [one.x_mean, one.x_std]):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()
        assert f.predict(rest).tobytes() == one.predict(rest).tobytes()


def test_float32_copy_leaves_original_roundtrip_unchanged(tmp_path, wide):
    m, cols, X = wide
    before = m.predict(X)
    m.fold(cols, X[:1, cols])[0].astype(np.float32).predict(_rest(X, cols))
    m.astype(np.float32).predict(X)
    path = str(tmp_path / "m.npz")
    m.save(path)
    back = MLPRegressor.load(path)
    for a, b in zip(m.W + m.b + [m.x_mean, m.x_std],
                    back.W + back.b + [back.x_mean, back.x_std]):
        assert a.dtype == b.dtype == np.float64
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(back.predict(X), before)
    np.testing.assert_array_equal(m.predict(X), before)


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
        m, X = m.astype(np.float32).fold(cols, X[:1, cols])[0], _rest(X, cols)
    starts = list(range(0, n, PREDICT_BLOCK))
    if n > 1 and n % PREDICT_BLOCK == 1:
        starts.pop()
    want = np.concatenate([_one_shot(m, X[s:e]) for s, e in zip(starts, starts[1:] + [n])])
    got = m.predict(X)
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
