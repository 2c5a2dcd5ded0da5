"""Pareto-set utilities: dominance filtering, hypervolume, WUN selection.

All objectives are *minimized*. Objective matrices are ``(n, 2)`` numpy
arrays of (latency, cost); helpers return index arrays into the input so
callers can carry configurations alongside.
"""
from __future__ import annotations

import numpy as np


def pareto_indices(F: np.ndarray) -> np.ndarray:
    """Indices of non-dominated rows of ``F`` (minimization, k = 2).

    Uses the classic sort-then-sweep, O(n log n) — the [18]
    Kung-Luccio-Preparata bound the paper cites.
    """
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2 or F.shape[1] != 2:
        raise ValueError("F must be (n, 2): (latency, cost)")
    return np.flatnonzero(pareto_mask(F))


def pareto_mask(F: np.ndarray) -> np.ndarray:
    """Which rows of each ``(n, 2)`` set of ``F``, of shape ``(..., n, 2)``,
    are non-dominated: a boolean ``(..., n)``. Every set gets one
    sort-then-sweep, all in one pass; ``pareto_indices`` is the one-set case.
    """
    F = np.asarray(F, dtype=np.float64)
    # by f1 then f2; a row survives iff its f2 beats every f2 before it,
    # so of equal rows only the first (lowest index) survives
    order = np.lexsort((F[..., 1], F[..., 0]), axis=-1)
    f2 = np.take_along_axis(F[..., 1], order, axis=-1)
    best_before = np.full_like(f2, np.inf)
    np.fmin.accumulate(f2[..., :-1], axis=-1, out=best_before[..., 1:])
    keep = np.zeros(f2.shape, dtype=bool)
    np.put_along_axis(keep, order, f2 < best_before, axis=-1)
    return keep


def hypervolume_2d(F: np.ndarray, ref: np.ndarray) -> float:
    """Dominated 2-D hypervolume of the Pareto front of ``F`` w.r.t. ``ref``.

    Points outside ``ref`` contribute only their clipped part.
    """
    F = np.asarray(F, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if len(F) == 0:
        return 0.0
    idx = pareto_indices(F)
    P = F[idx]
    P = P[np.argsort(P[:, 0])]
    hv = 0.0
    prev_f2 = ref[1]
    for f1, f2 in P:
        f1c, f2c = min(f1, ref[0]), min(f2, ref[1])
        if f2c < prev_f2 and f1c < ref[0]:
            hv += (ref[0] - f1c) * (prev_f2 - f2c)
            prev_f2 = f2c
    return float(hv)


def normalize(F: np.ndarray, lo: np.ndarray | None = None,
              hi: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min-max normalize objectives to [0, 1]; returns (Fn, lo, hi)."""
    F = np.asarray(F, dtype=np.float64)
    lo = F.min(axis=0) if lo is None else np.asarray(lo, dtype=np.float64)
    hi = F.max(axis=0) if hi is None else np.asarray(hi, dtype=np.float64)
    span = np.where(hi > lo, hi - lo, 1.0)
    return (F - lo) / span, lo, hi


def weighted_picks(F: np.ndarray, weights) -> np.ndarray:
    """For each weight vector (a row of ``weights``), the index of the row of
    ``F`` minimizing the weighted sum of min-max-normalized objectives; ties
    go to the lowest index."""
    Fn, _, _ = normalize(F)
    W = np.asarray(weights, dtype=np.float64)
    return (Fn[None, :, :] * W[:, None, :]).sum(axis=2).argmin(axis=1)


def wun_select(F: np.ndarray, weights: np.ndarray) -> int:
    """Weighted-Utopia-Nearest recommendation (paper §3.3.2).

    Normalizes the Pareto points, places the Utopia point at the normalized
    origin, and returns the index minimizing the weighted Euclidean
    distance ``|| w ⊙ F_norm ||``.
    """
    F = np.asarray(F, dtype=np.float64)
    if len(F) == 0:
        raise ValueError("empty Pareto set")
    w = np.asarray(weights, dtype=np.float64)
    Fn, _, _ = normalize(F)
    d = np.sqrt(((w * Fn) ** 2).sum(axis=1))
    return int(np.argmin(d))
