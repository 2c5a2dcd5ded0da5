"""A small numpy MLP regressor (the trained half of GTN+regressor).

Trains with Adam on the MSE of ``log1p(target)`` — latencies and IO span
orders of magnitude, and the paper's WMAPE metric is relative — with one
recipe (``BATCH``, ``LR``, ``WEIGHT_DECAY``). Inputs are standardized
internally. ``save``/``load`` round-trip to ``.npz`` so
benchmark harnesses can cache trained models.

A model has one dtype, ``DTYPE`` (float32), from ``__init__`` on: its
weights, biases and input scaling, and in ``fit`` its activations,
gradients and Adam state. ``fit`` takes the input mean and standard
deviation in float64 and rounds them once, then standardizes one float32
copy of the training matrix with ``standardize``, so a model is trained
on the bytes it is served. It lays out every weight and then every bias
as views of one flat buffer, and its gradients as views of a second, so
weight decay and Adam run once over each buffer; the arithmetic is
elementwise, so the parameters are those of a per-parameter update, byte
for byte.

``fold`` fixes some input columns at one row of values per stage and
returns one regressor over the remaining columns: the fixed part of each
stage moves into one row of a first-layer bias table, and every other
weight is shared, so a query's stages share one model and are folded
with one product. ``predict`` and ``predict_block`` compute in the
weights' dtype. Both inference paths fold the suite's models once per
query, and score with a subQ's bias row at compile time
(``repro.moo.objectives``) and with a non-scan stage's in the runtime
plugin (``repro.runtime.optimizer``).

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

# The one model dtype: trained, saved and served
DTYPE = np.float32

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


def _views(buf: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of the flat ``buf``, one per shape, in order."""
    out, o = [], 0
    for shape in shapes:
        n = int(np.prod(shape))
        out.append(buf[o:o + n].reshape(shape))
        o += n
    return out


class MLPRegressor:
    """Fully-connected ReLU regressor, log-space target."""

    def __init__(self, d_in: int, hidden: tuple[int, ...], seed: int = 0):
        self.d_in = d_in
        self.hidden = tuple(hidden)
        rng = np.random.default_rng(seed)
        dims = [d_in, *hidden, 1]
        self.W = [rng.normal(0, np.sqrt(2.0 / dims[i]), (dims[i], dims[i + 1])).astype(DTYPE)
                  for i in range(len(dims) - 1)]
        self.b = [np.zeros(dims[i + 1], DTYPE) for i in range(len(dims) - 1)]
        self.x_mean = np.zeros(d_in, DTYPE)
        self.x_std = np.ones(d_in, DTYPE)
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
        std = X.std(axis=0)
        self.x_mean = X.mean(axis=0).astype(DTYPE)
        self.x_std = np.where(std > 1e-9, std, 1.0).astype(DTYPE)
        Xs = self.standardize(X)   # the bytes ``predict`` forwards
        t = np.log1p(np.maximum(np.asarray(y, dtype=np.float64), 0.0)).astype(DTYPE)
        # One flat buffer of every weight, then every bias, which W and b
        # become views of; the gradients are views of a second one.
        shapes = [p.shape for p in self.W + self.b]
        P = np.concatenate([p.ravel() for p in self.W + self.b])
        G = np.empty_like(P)
        n_layers, n_w = len(self.W), sum(w.size for w in self.W)
        views = _views(P, shapes)
        self.W, self.b = views[:n_layers], views[n_layers:]
        grads = _views(G, shapes)
        gW, gb = grads[:n_layers], grads[n_layers:]
        m, v, upd, den = (np.zeros_like(P) for _ in range(4))
        rng = np.random.default_rng(self._seed + 1)
        b1, b2, eps = 0.9, 0.999, 1e-8
        step = 0
        losses = []
        n = len(Xs)
        for ep in range(epochs):
            idx = rng.permutation(n)
            ep_loss = 0.0
            for s in range(0, n, BATCH):
                bi = idx[s:s + BATCH]
                pred, acts = self._forward(Xs[bi])
                err = pred - t[bi]
                ep_loss += float((err**2).sum())
                # backward, into the gradient buffer
                g = (2.0 * err / len(bi))[:, None]
                for i in range(n_layers - 1, -1, -1):
                    np.matmul(acts[i].T, g, out=gW[i])
                    np.sum(g, axis=0, out=gb[i])
                    if i > 0:  # ReLU: acts[i] > 0 exactly where its input is
                        g = g @ self.W[i].T
                        g *= acts[i] > 0
                np.multiply(P[:n_w], WEIGHT_DECAY, out=upd[:n_w])
                G[:n_w] += upd[:n_w]
                # Adam over the whole buffer: elementwise, so each parameter
                # gets the bytes of its own update, in a few calls rather
                # than a few per parameter (concurrent fits contend for the
                # GIL between calls; experiments.common.train_suite)
                step += 1
                c1, c2 = 1 - b1**step, 1 - b2**step
                m *= b1
                np.multiply(G, 1 - b1, out=upd)
                m += upd
                v *= b2
                np.square(G, out=upd)
                upd *= 1 - b2
                v += upd
                np.divide(m, c1, out=upd)
                upd *= LR
                np.divide(v, c2, out=den)
                np.sqrt(den, out=den)
                den += eps
                upd /= den
                P -= upd
            losses.append(ep_loss / n)
        return losses

    def standardize(self, X: np.ndarray, cols=slice(None)) -> np.ndarray:
        """Rows ``X`` of input columns ``cols``, standardized in the
        weights' dtype: a new array, the same bytes ``predict`` forwards
        (and ``fit`` trains on), whatever rows or columns are standardized
        together."""
        h = np.array(X, dtype=self.W[0].dtype)
        h -= self.x_mean[cols]
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
