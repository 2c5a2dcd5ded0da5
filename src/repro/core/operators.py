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

Every node constructor of :class:`PlanBuilder` registers its operator
through one private path (``PlanBuilder._add``), which assigns the id and
derives the bytes and estimates. Errors are deterministic in ``(plan name,
variant seed, op id)`` so a plan is reproducible across processes.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.catalog import get_catalog

# The columns of the operator one-hot (``model.features``). No template emits
# "project", but its column stays: dropping it would reshape the GTN's input
# layer and move every trained model.
OP_TYPES = ["scan", "filter", "project", "join", "agg", "sort", "limit", "union"]
# Operators whose inputs require a data exchange (stage boundary).
EXCHANGE_OPS = frozenset({"join", "agg", "sort", "union"})


@dataclass
class Operator:
    """One logical operator node, made only by :meth:`PlanBuilder._add`."""

    op_id: int
    op_type: str
    children: list[int]
    table: str | None
    predicate: str
    skew: float               # partition-size skew introduced at this exchange
    row_width: float
    true_rows: float
    true_bytes: float
    est_rows: float
    est_bytes: float

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
    ops: dict[int, Operator]
    root: int

    def topological(self) -> list[int]:
        """Operator ids reachable from the root, children before parents
        (deterministic order)."""
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
        return order


class PlanBuilder:
    """Fluent construction of a :class:`LogicalPlan` with cardinalities.

    Each node constructor works out its operator's true rows, row width
    and compounded est/true ratio, and registers it through one path,
    :meth:`_add`: the id is the number of operators so far,
    ``true_bytes = rows × width`` (sort and union carry their inputs'
    bytes), ``est_rows = max(1, rows × ratio)`` and
    ``est_bytes = est_rows × width``.

    Cardinality estimation error model (per operator, multiplicative,
    compounding along the DAG):

    * scan — exact (Spark has table-level stats);
    * filter — lognormal(0, 0.18): predicate selectivity misestimation;
    * join — lognormal(-0.35, 0.40): correlated-predicate underestimation
      that *compounds* with join depth;
    * agg — lognormal(0, 0.10): group-count misestimation;
    * sort, limit — the child's ratio; union — the mean of its children's.
    """

    FILTER_SIGMA = 0.18
    JOIN_MU, JOIN_SIGMA = -0.35, 0.40
    AGG_SIGMA = 0.10

    def __init__(self, benchmark: str, name: str, *, sf: float = 100.0, seed: int = 0):
        self.name = name
        self.sf = sf
        self.seed = seed
        self.catalog = get_catalog(benchmark)
        self._ops: dict[int, Operator] = {}
        self._err: dict[int, float] = {}  # compounded est/true ratio per op

    def _key(self, tag: str) -> tuple:
        """Hash key of a draw for the operator being registered."""
        return self.name, self.seed, len(self._ops), tag

    def _add(self, op_type: str, children: list[int], predicate: str, rows: float,
             width: float, ratio: float, *, table: str | None = None,
             skew: float = 0.0, true_bytes: float | None = None) -> int:
        op_id = len(self._ops)
        est_rows = max(1.0, rows * ratio)
        self._ops[op_id] = Operator(
            op_id, op_type, children, table, predicate, skew, width, rows,
            rows * width if true_bytes is None else true_bytes, est_rows, est_rows * width)
        self._err[op_id] = ratio
        return op_id

    # -- node constructors ---------------------------------------------------
    def scan(self, table: str) -> int:
        t = self.catalog[table]
        return self._add("scan", [], f"scan {table}", max(1.0, t.rows(self.sf)),
                         t.row_bytes, 1.0, table=table)

    def filter(self, child: int, selectivity: float, predicate: str = "") -> int:
        ch = self._ops[child]
        sel = float(min(max(selectivity, 1e-6), 1.0))
        local = _lognormal(0.0, self.FILTER_SIGMA, *self._key("f"))
        return self._add("filter", [child], predicate or "filter",
                         max(1.0, ch.true_rows * sel), ch.row_width,
                         self._err[child] * local)

    def join(self, left: int, right: int, fanout: float, predicate: str = "") -> int:
        lc, rc = self._ops[left], self._ops[right]
        skew = 0.2 + 1.3 * _hash01(*self._key("skew"))
        local = _lognormal(self.JOIN_MU, self.JOIN_SIGMA, *self._key("j"))
        return self._add("join", [left, right], predicate or "join",
                         max(1.0, float(fanout) * max(lc.true_rows, rc.true_rows)),
                         lc.row_width + 0.8 * rc.row_width,
                         self._err[left] * self._err[right] * local, skew=skew)

    def agg(self, child: int, group_ratio: float = 0.05, predicate: str = "") -> int:
        ch = self._ops[child]
        ratio = float(min(max(group_ratio, 1e-9), 1.0))
        skew = 0.1 + 0.8 * _hash01(*self._key("skew"))
        local = _lognormal(0.0, self.AGG_SIGMA, *self._key("a"))
        return self._add("agg", [child], predicate or "group by",
                         max(1.0, ch.true_rows * ratio), 64.0,
                         self._err[child] * local, skew=skew)

    def sort(self, child: int, predicate: str = "") -> int:
        ch = self._ops[child]
        return self._add("sort", [child], predicate or "order by", ch.true_rows,
                         ch.row_width, self._err[child], skew=0.1,
                         true_bytes=ch.true_bytes)

    def limit_(self, child: int, n: int) -> int:
        ch = self._ops[child]
        return self._add("limit", [child], f"limit {n}", min(float(n), ch.true_rows),
                         ch.row_width, self._err[child])

    def union(self, *children: int) -> int:
        if len(children) < 2:
            raise ValueError("union needs >=2 children")
        chs = [self._ops[c] for c in children]
        return self._add("union", list(children), "union all",
                         float(sum(c.true_rows for c in chs)),
                         float(np.mean([c.row_width for c in chs])),
                         float(np.mean([self._err[c] for c in children])), skew=0.2,
                         true_bytes=float(sum(c.true_bytes for c in chs)))

    def build(self, root: int) -> LogicalPlan:
        """Finalize the plan rooted at ``root``."""
        if root not in self._ops:
            raise ValueError(f"unknown root op {root}")
        return LogicalPlan(self.name, dict(self._ops), root)
