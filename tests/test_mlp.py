"""Unit tests for the numpy MLP regressor."""
import numpy as np
import pytest

from repro.model.mlp import MLPRegressor


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
    np.testing.assert_allclose(a.predict(X[:5]), b.predict(X[:5]))


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
