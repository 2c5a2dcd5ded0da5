"""A small numpy MLP regressor (the trained half of GTN+regressor).

Trains with Adam on the MSE of ``log1p(target)`` — latencies and IO span
orders of magnitude, and the paper's WMAPE metric is relative. Inputs are
standardized internally. ``save``/``load`` round-trip to ``.npz`` so
benchmark harnesses can cache trained models.
"""
from __future__ import annotations

import numpy as np


class MLPRegressor:
    """Fully-connected ReLU regressor, log-space target."""

    def __init__(self, d_in: int, hidden: tuple[int, ...] = (96, 96), seed: int = 0):
        self.d_in = d_in
        self.hidden = tuple(hidden)
        rng = np.random.default_rng(seed)
        dims = [d_in, *hidden, 1]
        self.W = [rng.normal(0, np.sqrt(2.0 / dims[i]), (dims[i], dims[i + 1]))
                  for i in range(len(dims) - 1)]
        self.b = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
        self.x_mean = np.zeros(d_in)
        self.x_std = np.ones(d_in)
        self._seed = seed

    # -- forward/backward -----------------------------------------------------
    def _forward(self, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        acts = [X]
        h = X
        for i, (W, b) in enumerate(zip(self.W, self.b)):
            h = h @ W + b
            if i < len(self.W) - 1:
                h = np.maximum(h, 0.0)
            acts.append(h)
        return h[:, 0], acts

    def fit(self, X: np.ndarray, y: np.ndarray, *, epochs: int = 60,
            batch: int = 256, lr: float = 2e-3, weight_decay: float = 1e-5,
            verbose: bool = False) -> list[float]:
        """Train; returns the per-epoch training losses."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.x_mean = X.mean(axis=0)
        self.x_std = np.where(X.std(axis=0) > 1e-9, X.std(axis=0), 1.0)
        Xn = (X - self.x_mean) / self.x_std
        t = np.log1p(np.maximum(y, 0.0))
        rng = np.random.default_rng(self._seed + 1)
        mW = [np.zeros_like(w) for w in self.W]
        vW = [np.zeros_like(w) for w in self.W]
        mb = [np.zeros_like(bb) for bb in self.b]
        vb = [np.zeros_like(bb) for bb in self.b]
        b1, b2, eps = 0.9, 0.999, 1e-8
        step = 0
        losses = []
        n = len(Xn)
        for ep in range(epochs):
            idx = rng.permutation(n)
            ep_loss = 0.0
            for s in range(0, n, batch):
                bi = idx[s:s + batch]
                pred, acts = self._forward(Xn[bi])
                err = pred - t[bi]
                ep_loss += float((err**2).sum())
                # backward
                g = (2.0 * err / len(bi))[:, None]
                gW = [None] * len(self.W)
                gb = [None] * len(self.W)
                for i in range(len(self.W) - 1, -1, -1):
                    gW[i] = acts[i].T @ g + weight_decay * self.W[i]
                    gb[i] = g.sum(axis=0)
                    if i > 0:  # ReLU: acts[i] > 0 exactly where its input is
                        g = (g @ self.W[i].T) * (acts[i] > 0)
                # adam
                step += 1
                for i in range(len(self.W)):
                    mW[i] = b1 * mW[i] + (1 - b1) * gW[i]
                    vW[i] = b2 * vW[i] + (1 - b2) * gW[i] ** 2
                    mb[i] = b1 * mb[i] + (1 - b1) * gb[i]
                    vb[i] = b2 * vb[i] + (1 - b2) * gb[i] ** 2
                    mhW = mW[i] / (1 - b1**step)
                    vhW = vW[i] / (1 - b2**step)
                    mhb = mb[i] / (1 - b1**step)
                    vhb = vb[i] / (1 - b2**step)
                    self.W[i] -= lr * mhW / (np.sqrt(vhW) + eps)
                    self.b[i] -= lr * mhb / (np.sqrt(vhb) + eps)
            losses.append(ep_loss / n)
            if verbose and ep % 10 == 0:
                print(f"epoch {ep}: loss={losses[-1]:.5f}")
        return losses

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets on the natural (expm1) scale."""
        X = np.asarray(X, dtype=np.float64)
        Xn = (X - self.x_mean) / self.x_std
        out, _ = self._forward(Xn)
        return np.expm1(np.clip(out, -20.0, 30.0))

    # -- persistence -----------------------------------------------------------
    def save(self, path: str) -> None:
        arrays = {"x_mean": self.x_mean, "x_std": self.x_std,
                  "meta": np.array([self.d_in, self._seed, len(self.W)])}
        arrays["hidden"] = np.array(self.hidden)
        for i, (W, b) in enumerate(zip(self.W, self.b)):
            arrays[f"W{i}"] = W
            arrays[f"b{i}"] = b
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path: str) -> "MLPRegressor":
        z = np.load(path)
        d_in, seed, n_layers = (int(v) for v in z["meta"])
        m = cls(d_in, hidden=tuple(int(h) for h in z["hidden"]), seed=seed)
        m.W = [z[f"W{i}"] for i in range(n_layers)]
        m.b = [z[f"b{i}"] for i in range(n_layers)]
        m.x_mean, m.x_std = z["x_mean"], z["x_std"]
        return m
