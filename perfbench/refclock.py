"""Host-speed reference for the benchmark's operation timings.

On a shared host the speed of one core drifts by 15–45% over tens of
seconds, as other tenants come and go; a run of half a minute cannot
average that out, and it moved the operation timings between runs by more
than the bounds allow. So a run times a fixed reference kernel before each
item and scales each operation's time by the kernel's time next to it: an
operation is reported at the speed at which the kernel takes its nominal
time. Each kernel mirrors what the operations it scales spend their time
on, because the drift slows compute-bound matrix products and interpreted
Python by different amounts:

* ``mixed`` — tiny matrix products, dominated by call overhead, and
  interpreted Python over dicts: the runtime plugin, the simulator and the
  trace tasks (``adapt``, ``train``);
* ``mlp`` — the forward pass of an MLP on a 96-row batch, the compile-time
  objectives' inference (``compile``).

The kernels are the benchmark's own code, so no change to the program
moves them, and any change to the program's speed shows in full.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REACH = 2   # ticks on each side of an operation that set its scale

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((16, 48))
_W1 = _RNG.standard_normal((48, 64)) / 7.0
_W2 = _RNG.standard_normal((64, 64)) / 8.0
_XB = _RNG.standard_normal((96, 64))
_H1 = _RNG.standard_normal((64, 128)) / 8.0
_H2 = _RNG.standard_normal((128, 128)) / 11.0
_OUT = _RNG.standard_normal((128, 1)) / 11.0
_B = np.zeros(128)


def _interpreted(r: int) -> float:
    d = {i: (i * r) % 7 + 0.5 for i in range(64)}
    s = 0.0
    for v in d.values():
        s += v * 1.5 if v > 3.0 else -v
    return s + sum(sorted(d.values(), reverse=True)[:8])


def mixed_kernel() -> float:
    """About 2.3 ms on one core, half of it in tiny matrix products."""
    acc = 0.0
    for r in range(32):
        h = np.maximum(_X @ _W1, 0.0)
        acc += float(np.maximum(h @ _W2, 0.0).sum())
        acc += _interpreted(r) + _interpreted(r + 1)
    return acc


def mlp_kernel() -> float:
    """About 2.6 ms on one core: five MLP forward passes on 96 rows."""
    acc = 0.0
    for _ in range(5):
        h = np.maximum(_XB @ _H1 + _B, 0.0)
        h = np.maximum(h @ _H2 + _B, 0.0)
        acc += float((h @ _OUT).sum())
    return acc


# kind -> (kernel, its median time on the 4-vCPU host the bounds were set on)
KERNELS = {"mixed": (mixed_kernel, 2.3e-3), "mlp": (mlp_kernel, 2.6e-3)}


class RefClock:
    """Kernel timings taken through a run, and operation times scaled by them."""

    def __init__(self, kind: str = "mixed") -> None:
        self.kernel, self.nominal_s = KERNELS[kind]
        self.ticks: list[float] = []

    def tick(self, repeats: int = 1) -> int:
        """Time the kernel (median of ``repeats``); returns the tick's index."""
        ts = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self.kernel()
            ts.append(time.perf_counter() - t0)
        self.ticks.append(statistics.median(ts))
        return len(self.ticks) - 1

    def unit(self, i: int) -> float:
        """The kernel's time around an operation timed between ticks ``i``
        and ``i + 1``: the median of ``REACH`` ticks on each side."""
        return statistics.median(self.ticks[max(0, i + 1 - REACH):i + 1 + REACH])

    def scaled(self, seconds: float, i: int) -> float:
        """``seconds`` measured just after tick ``i``, at nominal host speed."""
        return seconds * self.nominal_s / self.unit(i)
