"""A small numpy MLP regressor (the trained half of GTN+regressor).

Trains with Adam on the MSE of ``log1p(target)`` — latencies and IO span
orders of magnitude, and the paper's WMAPE metric is relative — with one
recipe (``BATCH``, ``LR``, ``WEIGHT_DECAY``). Inputs are standardized
internally. ``save``/``load`` round-trip to ``.npz`` so
benchmark harnesses can cache trained models.

``fold`` fixes some input columns at one row of values per stage and
returns one regressor over the remaining columns: the fixed part of each
stage moves into one row of a first-layer bias table, and every other
weight is shared, so a query's stages share one model and are folded
with one product. ``astype`` casts the weights, and ``predict`` and
``predict_block`` compute in the weights' dtype. Both inference paths
use them: one fold per query of a float32 copy made once per loaded suite
(``repro.model.predictor.TargetModels.float32``), scored with a subQ's
bias row at compile time (``repro.moo.objectives``) and with a non-scan
stage's in the runtime plugin (``repro.runtime.optimizer``).

``predict`` runs its forward pass over the row ranges ``predict_blocks``
gives, ``PREDICT_BLOCK`` rows each (a one-row remainder joins the last
block): each block is standardized (``standardize``) and forwarded
(``predict_block``) on its own, writing into one preallocated output; no
activations are kept (``fit`` keeps them, for backprop). A prediction's
working set is then one block's activations, whatever the batch size.
Standardizing is elementwise, so a caller may standardize whole tables
once and gather blocks from them. The one compile-time scorer
(``repro.moo.objectives.CompileTimeObjectives.score``) does that: it
cuts its batches with the same ``predict_blocks`` and runs
``predict_block`` on each block as its own task, so a block gets the
gemms ``predict`` would give it. A runtime request's few rows are one
such block.
"""
from __future__ import annotations

import numpy as np

# Rows per forward block in ``predict``: (512, 128) float32 activations are
# 256 KB.
PREDICT_BLOCK = 512

# ``fit``'s minibatch rows, Adam step size and L2 decay of the weights
BATCH = 256
LR = 2e-3
WEIGHT_DECAY = 1e-5


def predict_blocks(n: int) -> list[tuple[int, int]]:
    """The ``(start, end)`` row ranges of ``predict``'s forward blocks over
    ``n`` rows: ``PREDICT_BLOCK`` rows each, and a one-row remainder joins
    the last block, since numpy multiplies a lone row with gemv, which can
    round differently from the gemm of a one-pass forward. A caller that
    predicts each range on its own gets ``predict``'s bytes over all
    ``n`` rows."""
    return [(s, n if n - s <= PREDICT_BLOCK + 1 else s + PREDICT_BLOCK)
            for s in range(0, max(n - 1, 1), PREDICT_BLOCK)]


class MLPRegressor:
    """Fully-connected ReLU regressor, log-space target."""

    def __init__(self, d_in: int, hidden: tuple[int, ...], seed: int = 0):
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
            h = h @ W
            h += b
            if i < len(self.W) - 1:
                np.maximum(h, 0.0, out=h)
            acts.append(h)
        return h[:, 0], acts

    def fit(self, X: np.ndarray, y: np.ndarray, *, epochs: int) -> list[float]:
        """Train; returns the per-epoch training losses."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.x_mean = X.mean(axis=0)
        std = X.std(axis=0)
        self.x_std = np.where(std > 1e-9, std, 1.0)
        t = np.log1p(np.maximum(y, 0.0))
        rng = np.random.default_rng(self._seed + 1)
        mW = [np.zeros_like(w) for w in self.W]
        vW = [np.zeros_like(w) for w in self.W]
        mb = [np.zeros_like(bb) for bb in self.b]
        vb = [np.zeros_like(bb) for bb in self.b]
        b1, b2, eps = 0.9, 0.999, 1e-8
        step = 0
        losses = []
        n = len(X)
        for ep in range(epochs):
            idx = rng.permutation(n)
            ep_loss = 0.0
            for s in range(0, n, BATCH):
                bi = idx[s:s + BATCH]
                # Standardized per batch, in place in the gathered copy: no
                # standardized copy of X is kept.
                xb = X[bi]
                xb -= self.x_mean
                xb /= self.x_std
                pred, acts = self._forward(xb)
                err = pred - t[bi]
                ep_loss += float((err**2).sum())
                # backward
                g = (2.0 * err / len(bi))[:, None]
                gW = [None] * len(self.W)
                gb = [None] * len(self.W)
                for i in range(len(self.W) - 1, -1, -1):
                    gW[i] = acts[i].T @ g
                    gW[i] += WEIGHT_DECAY * self.W[i]
                    gb[i] = g.sum(axis=0)
                    if i > 0:  # ReLU: acts[i] > 0 exactly where its input is
                        g = g @ self.W[i].T
                        g *= acts[i] > 0
                # adam, in place: the same arithmetic with fewer temporaries,
                # which keeps concurrent fits small (experiments.common)
                step += 1
                c1, c2 = 1 - b1**step, 1 - b2**step
                for p, m, v, gp in zip(self.W + self.b, mW + mb, vW + vb, gW + gb):
                    m *= b1
                    m += (1 - b1) * gp
                    v *= b2
                    v += (1 - b2) * gp ** 2
                    upd = m / c1
                    upd *= LR
                    den = v / c2
                    np.sqrt(den, out=den)
                    den += eps
                    upd /= den
                    p -= upd
            losses.append(ep_loss / n)
        return losses

    def standardize(self, X: np.ndarray, cols=slice(None)) -> np.ndarray:
        """Rows ``X`` of input columns ``cols``, standardized in the
        weights' dtype: a new array, the same bytes ``predict`` forwards,
        whatever rows or columns are standardized together."""
        h = np.asarray(X, dtype=self.W[0].dtype) - self.x_mean[cols]
        h /= self.x_std[cols]
        return h

    def predict_block(self, H: np.ndarray, out: np.ndarray, *, row: int | None = None) -> None:
        """Write the natural-scale (expm1) predictions of the standardized
        rows ``H`` into the float64 ``out`` (any strides). A fold's first
        layer takes row ``row`` of its bias table, which a fold needs and
        any other model refuses. ``H`` should be one of ``predict_blocks``'
        ranges, whose gemms ``predict`` runs."""
        if (self.b[0].ndim == 2) != (row is not None):
            raise ValueError("a fold scores with one row of its bias table, "
                             "and only a fold takes a row")
        last = len(self.W) - 1
        h = H
        for i, (W, b) in enumerate(zip(self.W, self.b)):
            h = h @ W
            h += b[row] if i == 0 and row is not None else b
            if i < last:
                np.maximum(h, 0.0, out=h)
        z = h[:, 0]
        np.clip(z, -20.0, 30.0, out=z)
        np.expm1(z, out=out, dtype=np.float64)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets on the natural (expm1) scale, computing in the
        weights' dtype; the result is float64. A fold, which needs a bias
        row, scores through ``predict_block``."""
        n = len(X)
        out = np.empty(n)
        for s, e in predict_blocks(n):
            self.predict_block(self.standardize(X[s:e]), out[s:e])
        return out

    # -- derived models ----------------------------------------------------------
    def _derive(self, W: list, b: list, x_mean, x_std) -> "MLPRegressor":
        m = object.__new__(type(self))   # no fresh random init
        m.d_in, m.hidden, m._seed = len(x_mean), self.hidden, self._seed
        m.W, m.b, m.x_mean, m.x_std = W, b, x_mean, x_std
        return m

    def fold(self, cols, values) -> "MLPRegressor":
        """The same function with input columns ``cols`` fixed, at one row
        of the (k, len(cols)) ``values`` per stage: one regressor over the
        remaining columns, in their order, whose first bias is a (k,
        hidden) table; row i absorbs ``((values[i] - x_mean[cols]) /
        x_std[cols]) @ W0[cols]`` (summed in float64), and ``predict_block``
        takes the row to score with. The fold keeps the
        kept-column ``W0`` slice and shares the layers after the first with
        this model, not copied; do not ``fit`` a fold.

        The table comes from one product, a stack of one-row products that
        numpy multiplies with one gemv each, so a row does not depend on
        how many rows are folded at once (a gemm may round a row by its
        position in the batch): row i equals the one-row fold of
        ``values[i]`` byte for byte."""
        cols = np.asarray(cols, dtype=np.int64)
        keep = np.ones(self.d_in, dtype=bool)
        keep[cols] = False
        values = np.asarray(values, dtype=np.float64)
        fixed = (values - self.x_mean[cols]) / self.x_std[cols]
        prod = np.matmul(fixed[:, None, :], self.W[0][cols].astype(np.float64))
        b0 = (self.b[0] + prod[:, 0, :]).astype(self.b[0].dtype)
        return self._derive([self.W[0][keep], *self.W[1:]], [b0, *self.b[1:]],
                            self.x_mean[keep], self.x_std[keep])

    def astype(self, dtype) -> "MLPRegressor":
        """A copy whose weights and input scaling are ``dtype``."""
        return self._derive([w.astype(dtype) for w in self.W],
                            [bb.astype(dtype) for bb in self.b],
                            self.x_mean.astype(dtype), self.x_std.astype(dtype))

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
