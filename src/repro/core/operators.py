"""Logical operator DAGs with true and CBO-estimated cardinalities.

A :class:`LogicalPlan` is a DAG of :class:`Operator` nodes built via
:class:`PlanBuilder`. Cardinality propagation assigns every operator

* ``true_rows`` / ``true_bytes`` — the ground truth the simulator (and
  Spark AQE) observes at runtime, and
* ``est_rows`` / ``est_bytes`` — what Spark's cost-based optimizer sees at
  compile time: the truth distorted by a multiplicative error that
  *compounds with plan depth* and is *biased toward underestimation at
  joins* (the classic CBO failure mode the paper's runtime optimization
  exploits, cf. Fig. 3(b)).

Errors are deterministic in ``(plan name, variant seed, op id)`` so a plan
is reproducible across processes.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.catalog import get_catalog

OP_TYPES = ["scan", "filter", "project", "join", "agg", "sort", "limit", "union"]
# Operators whose inputs require a data exchange (stage boundary).
EXCHANGE_OPS = frozenset({"join", "agg", "sort", "union"})


@dataclass
class Operator:
    """One logical operator node; cardinalities are filled by the builder."""

    op_id: int
    op_type: str
    children: list[int] = field(default_factory=list)
    table: str | None = None
    predicate: str = ""
    selectivity: float = 1.0  # filter
    fanout: float = 1.0       # join: true_rows = fanout * max(child rows)
    group_ratio: float = 0.1  # agg: true_rows = ratio * child rows
    limit: int = 0
    skew: float = 0.0         # partition-size skew introduced at this exchange
    row_width: float = 0.0
    true_rows: float = 0.0
    true_bytes: float = 0.0
    est_rows: float = 0.0
    est_bytes: float = 0.0

    @property
    def is_exchange(self) -> bool:
        return self.op_type in EXCHANGE_OPS


def _hash01(*parts) -> float:
    """Deterministic uniform(0,1) from arbitrary parts (stable across runs)."""
    h = hashlib.blake2b("|".join(map(str, parts)).encode(), digest_size=8).digest()
    return int.from_bytes(h, "big") / 2**64


def _lognormal(mu: float, sigma: float, *key) -> float:
    """Deterministic lognormal via inverse-CDF of a hashed uniform."""
    u = min(max(_hash01(*key), 1e-9), 1 - 1e-9)
    # normal quantile via Acklam-lite rational approx (good to ~1e-4)
    z = _norm_ppf(u)
    return float(np.exp(mu + sigma * z))


def _norm_ppf(p: float) -> float:
    """Rational approximation of the standard normal quantile."""
    a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
    b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00]
    plow, phigh = 0.02425, 1 - 0.02425
    if p < plow:
        q = np.sqrt(-2 * np.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > phigh:
        q = np.sqrt(-2 * np.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)


@dataclass
class LogicalPlan:
    """An immutable-after-build logical query plan (DAG of operators)."""

    name: str
    benchmark: str
    sf: float
    seed: int
    ops: dict[int, Operator]
    root: int

    def topological(self) -> list[int]:
        """Operator ids children-before-parents (deterministic order)."""
        order: list[int] = []
        seen: set[int] = set()

        def visit(i: int) -> None:
            if i in seen:
                return
            seen.add(i)
            for ch in self.ops[i].children:
                visit(ch)
            order.append(i)

        visit(self.root)
        # include any ops not reachable from root (should not happen)
        for i in sorted(self.ops):
            visit(i)
        return order


class PlanBuilder:
    """Fluent construction of a :class:`LogicalPlan` with cardinalities.

    Cardinality estimation error model (per operator, multiplicative,
    compounding along the DAG):

    * scan — exact (Spark has table-level stats);
    * filter — lognormal(0, 0.18): predicate selectivity misestimation;
    * join — lognormal(-0.35, 0.40): correlated-predicate underestimation
      that *compounds* with join depth;
    * agg — lognormal(0, 0.10): group-count misestimation.
    """

    FILTER_SIGMA = 0.18
    JOIN_MU, JOIN_SIGMA = -0.35, 0.40
    AGG_SIGMA = 0.10

    def __init__(self, benchmark: str, name: str, *, sf: float = 100.0, seed: int = 0):
        self.benchmark = benchmark
        self.name = name
        self.sf = sf
        self.seed = seed
        self.catalog = get_catalog(benchmark)
        self._ops: dict[int, Operator] = {}
        self._err: dict[int, float] = {}  # compounded est/true ratio per op
        self._next = 0

    # -- node constructors ---------------------------------------------------
    def _add(self, op: Operator) -> int:
        self._ops[op.op_id] = op
        return op.op_id

    def _new_id(self) -> int:
        i = self._next
        self._next += 1
        return i

    def scan(self, table: str) -> int:
        t = self.catalog[table]
        op = Operator(self._new_id(), "scan", table=table, predicate=f"scan {table}")
        op.row_width = t.row_bytes
        op.true_rows = max(1.0, t.rows(self.sf))
        op.true_bytes = op.true_rows * op.row_width
        op.est_rows, op.est_bytes = op.true_rows, op.true_bytes
        self._err[op.op_id] = 1.0
        return self._add(op)

    def filter(self, child: int, selectivity: float, predicate: str = "") -> int:
        ch = self._ops[child]
        op = Operator(self._new_id(), "filter", [child], predicate=predicate or "filter")
        op.selectivity = float(min(max(selectivity, 1e-6), 1.0))
        op.row_width = ch.row_width
        op.true_rows = max(1.0, ch.true_rows * op.selectivity)
        op.true_bytes = op.true_rows * op.row_width
        local = _lognormal(0.0, self.FILTER_SIGMA, self.name, self.seed, op.op_id, "f")
        self._err[op.op_id] = self._err[child] * local
        self._finish_est(op)
        return self._add(op)

    def project(self, child: int, width_ratio: float = 0.6, predicate: str = "") -> int:
        ch = self._ops[child]
        op = Operator(self._new_id(), "project", [child], predicate=predicate or "project")
        op.row_width = max(8.0, ch.row_width * width_ratio)
        op.true_rows = ch.true_rows
        op.true_bytes = op.true_rows * op.row_width
        self._err[op.op_id] = self._err[child]
        self._finish_est(op)
        return self._add(op)

    def join(self, left: int, right: int, fanout: float, predicate: str = "",
             skew: float | None = None) -> int:
        lc, rc = self._ops[left], self._ops[right]
        op = Operator(self._new_id(), "join", [left, right], predicate=predicate or "join")
        op.fanout = float(fanout)
        op.row_width = lc.row_width + 0.8 * rc.row_width
        op.true_rows = max(1.0, op.fanout * max(lc.true_rows, rc.true_rows))
        op.true_bytes = op.true_rows * op.row_width
        op.skew = skew if skew is not None else 0.2 + 1.3 * _hash01(self.name, self.seed, op.op_id, "skew")
        local = _lognormal(self.JOIN_MU, self.JOIN_SIGMA, self.name, self.seed, op.op_id, "j")
        self._err[op.op_id] = self._err[left] * self._err[right] * local
        self._finish_est(op)
        return self._add(op)

    def agg(self, child: int, group_ratio: float = 0.05, predicate: str = "",
            skew: float | None = None) -> int:
        ch = self._ops[child]
        op = Operator(self._new_id(), "agg", [child], predicate=predicate or "group by")
        op.group_ratio = float(min(max(group_ratio, 1e-9), 1.0))
        op.row_width = 64.0
        op.true_rows = max(1.0, ch.true_rows * op.group_ratio)
        op.true_bytes = op.true_rows * op.row_width
        op.skew = skew if skew is not None else 0.1 + 0.8 * _hash01(self.name, self.seed, op.op_id, "skew")
        local = _lognormal(0.0, self.AGG_SIGMA, self.name, self.seed, op.op_id, "a")
        self._err[op.op_id] = self._err[child] * local
        self._finish_est(op)
        return self._add(op)

    def sort(self, child: int, predicate: str = "") -> int:
        ch = self._ops[child]
        op = Operator(self._new_id(), "sort", [child], predicate=predicate or "order by")
        op.row_width = ch.row_width
        op.true_rows, op.true_bytes = ch.true_rows, ch.true_bytes
        op.skew = 0.1
        self._err[op.op_id] = self._err[child]
        self._finish_est(op)
        return self._add(op)

    def limit_(self, child: int, n: int) -> int:
        ch = self._ops[child]
        op = Operator(self._new_id(), "limit", [child], predicate=f"limit {n}")
        op.limit = n
        op.row_width = ch.row_width
        op.true_rows = min(float(n), ch.true_rows)
        op.true_bytes = op.true_rows * op.row_width
        self._err[op.op_id] = self._err[child]
        self._finish_est(op)
        return self._add(op)

    def union(self, *children: int) -> int:
        if len(children) < 2:
            raise ValueError("union needs >=2 children")
        chs = [self._ops[c] for c in children]
        op = Operator(self._new_id(), "union", list(children), predicate="union all")
        op.row_width = float(np.mean([c.row_width for c in chs]))
        op.true_rows = float(sum(c.true_rows for c in chs))
        op.true_bytes = float(sum(c.true_bytes for c in chs))
        op.skew = 0.2
        self._err[op.op_id] = float(np.mean([self._err[c.op_id] for c in chs]))
        self._finish_est(op)
        return self._add(op)

    def _finish_est(self, op: Operator) -> None:
        ratio = self._err[op.op_id]
        op.est_rows = max(1.0, op.true_rows * ratio)
        op.est_bytes = op.est_rows * op.row_width

    def build(self, root: int) -> LogicalPlan:
        """Finalize the plan rooted at ``root``."""
        if root not in self._ops:
            raise ValueError(f"unknown root op {root}")
        return LogicalPlan(self.name, self.benchmark, self.sf, self.seed,
                           dict(self._ops), root)
