"""A small numpy MLP regressor (the trained half of GTN+regressor).

Trains with Adam on the MSE of ``log1p(target)`` — latencies and IO span
orders of magnitude, and the paper's WMAPE metric is relative. Inputs are
standardized internally. ``save``/``load`` round-trip to ``.npz`` so
benchmark harnesses can cache trained models.

``fold`` fixes some input columns at one row of values per stage and
returns, per row, the same function over the remaining columns (the fixed
part moves into the first layer's bias); it folds every stage with one
product. ``astype`` casts the weights, and ``predict`` computes
in the weights' dtype. Both inference paths use them: per subQ at compile
time (``repro.moo.objectives``) and per non-scan stage in the runtime
plugin (``repro.runtime.optimizer``), one fold of a float32 copy made
once per loaded suite (``repro.model.predictor.TargetModels.float32``).

``predict`` runs its forward pass over the row ranges ``predict_blocks``
gives, ``PREDICT_BLOCK`` rows each (a one-row remainder joins the last
block), standardizing each block in place and writing into one
preallocated output; no activations are kept (``fit`` keeps them, for
backprop). A prediction's working set is then one block's activations,
whatever the batch size. The compile-time solve (``repro.moo.hmooc``)
cuts its batches with the same ``predict_blocks`` and scores each block
as its own task, so a block gets the gemm ``predict`` would give it.

``idle_core_threads`` is the one rule for how many threads may run MLP
work side by side: the cores the BLAS pool leaves idle. Suite fits
(``repro.experiments.common``) and the compile-time solve's block
scoring (``repro.moo.hmooc``) both size their pools with it.
"""
from __future__ import annotations

import os

import numpy as np

# Rows per forward block in ``predict``: (512, 128) float32 activations are
# 256 KB.
PREDICT_BLOCK = 512

# The variables that size OpenBLAS's thread pool, in the order it reads them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def predict_blocks(n: int) -> list[tuple[int, int]]:
    """The ``(start, end)`` row ranges of ``predict``'s forward blocks over
    ``n`` rows: ``PREDICT_BLOCK`` rows each, and a one-row remainder joins
    the last block, since numpy multiplies a lone row with gemv, which can
    round differently from the gemm of a one-pass forward. A caller that
    predicts each range on its own gets ``predict``'s bytes over all
    ``n`` rows."""
    return [(s, n if n - s <= PREDICT_BLOCK + 1 else s + PREDICT_BLOCK)
            for s in range(0, max(n - 1, 1), PREDICT_BLOCK)]


def idle_core_threads() -> int:
    """Threads that can run BLAS work side by side without sharing cores:
    ``nproc // BLAS threads``, at least 1.

    The BLAS pool size is read from ``OPENBLAS_NUM_THREADS``, then
    ``GOTO_NUM_THREADS``, then ``OMP_NUM_THREADS``; unset (or not a
    positive integer) it is nproc. Calls sharing a multi-threaded pool run
    slower together than one after another, so such a process gets one
    thread.
    """
    nproc = os.cpu_count() or 1
    blas = nproc
    for var in _BLAS_THREAD_VARS:
        if var in os.environ:
            value = os.environ[var].strip()
            if value.isdigit() and int(value) > 0:
                blas = int(value)
            break
    return max(1, nproc // blas)


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
            h = h @ W
            h += b
            if i < len(self.W) - 1:
                np.maximum(h, 0.0, out=h)
            acts.append(h)
        return h[:, 0], acts

    def fit(self, X: np.ndarray, y: np.ndarray, *, epochs: int = 60,
            batch: int = 256, lr: float = 2e-3, weight_decay: float = 1e-5) -> list[float]:
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
            for s in range(0, n, batch):
                bi = idx[s:s + batch]
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
                    gW[i] += weight_decay * self.W[i]
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
                    upd *= lr
                    den = v / c2
                    np.sqrt(den, out=den)
                    den += eps
                    upd /= den
                    p -= upd
            losses.append(ep_loss / n)
        return losses

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets on the natural (expm1) scale, computing in the
        weights' dtype; the result is float64."""
        X = np.asarray(X, dtype=self.W[0].dtype)
        n = len(X)
        out = np.empty(n)
        last = len(self.W) - 1
        for s, e in predict_blocks(n):
            h = X[s:e] - self.x_mean
            h /= self.x_std
            for i, (W, b) in enumerate(zip(self.W, self.b)):
                h = h @ W
                h += b
                if i < last:
                    np.maximum(h, 0.0, out=h)
            z = h[:, 0]
            np.clip(z, -20.0, 30.0, out=z)
            np.expm1(z, out=out[s:e], dtype=np.float64)
        return out

    # -- derived models ----------------------------------------------------------
    def _derive(self, W: list, b: list, x_mean, x_std) -> "MLPRegressor":
        m = object.__new__(type(self))   # no fresh random init
        m.d_in, m.hidden, m._seed = len(x_mean), self.hidden, self._seed
        m.W, m.b, m.x_mean, m.x_std = W, b, x_mean, x_std
        return m

    def fold(self, cols, values) -> list["MLPRegressor"]:
        """The same function with input columns ``cols`` fixed, once per row
        of the (k, len(cols)) ``values``: k regressors over the remaining
        columns, in their order, whose first biases absorb
        ``((row - x_mean[cols]) / x_std[cols]) @ W0[cols]`` (summed in
        float64). The folds share one kept-column ``W0`` slice, and the
        layers after the first are shared with this model, not copied, so
        many folds of one model stay small; do not ``fit`` a fold.

        The biases come from one product, a stack of one-row products that
        numpy multiplies with one gemv each, so a row's bias does not depend
        on how many rows are folded at once (a gemm may round a row by its
        position in the batch): each fold equals the one-row fold of its
        row byte for byte."""
        cols = np.asarray(cols, dtype=np.int64)
        keep = np.ones(self.d_in, dtype=bool)
        keep[cols] = False
        values = np.asarray(values, dtype=np.float64)
        fixed = (values - self.x_mean[cols]) / self.x_std[cols]
        prod = np.matmul(fixed[:, None, :], self.W[0][cols].astype(np.float64))
        b0 = (self.b[0] + prod[:, 0, :]).astype(self.b[0].dtype)
        W = [self.W[0][keep], *self.W[1:]]
        x_mean, x_std = self.x_mean[keep], self.x_std[keep]
        return [self._derive(W, [b, *self.b[1:]], x_mean, x_std) for b in b0]

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
