"""subQ partitioning: cut the logical plan DAG at exchange boundaries.

The paper (§4.1) introduces *subQ* — the group of logical operators that
maps to one query stage (QS) once the plan is physical. A stage boundary
sits below every exchange-requiring operator (join, final aggregate, global
sort, union): the exchange-requiring operator *starts* a new stage that
reads its children's shuffled (or broadcast) output, while pure pipeline
operators (filter/limit) stay in their child's stage.

``partition_subqs`` turns a :class:`~repro.core.operators.LogicalPlan` into
a :class:`SubQDag` — the compile-time image of the runtime stage DAG, and
the finest tuning unit for the compile-time optimizer.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.operators import LogicalPlan, Operator


@dataclass
class SubQ:
    """One subQ (future query stage) of the logical plan."""

    sq_id: int
    op_ids: list[int]
    root_op: int
    kind: str                      # 'scan' | 'shuffle'
    deps: list[int] = field(default_factory=list)
    table: str | None = None       # for scan subQs
    boundary_type: str = ""        # op_type of the exchange op heading this subQ
    # Join geometry (only for subQs headed by a join): the dep subQ ids of
    # the two inputs, ordered (build := smaller estimated side, probe).
    join_build_dep: int | None = None
    join_probe_dep: int | None = None


@dataclass
class SubQDag:
    """The subQ-partitioned plan plus per-subQ statistics accessors."""

    plan: LogicalPlan
    subqs: dict[int, SubQ]

    def topological(self) -> list[int]:
        order: list[int] = []
        seen: set[int] = set()

        def visit(i: int) -> None:
            if i in seen:
                return
            seen.add(i)
            for d in self.subqs[i].deps:
                visit(d)
            order.append(i)

        for i in sorted(self.subqs):
            visit(i)
        return order

    def op(self, op_id: int) -> Operator:
        return self.plan.ops[op_id]

    def n_subqs(self) -> int:
        return len(self.subqs)

    # -- statistics ----------------------------------------------------------
    def output_rows(self, sq_id: int, *, true: bool) -> float:
        op = self.op(self.subqs[sq_id].root_op)
        return op.true_rows if true else op.est_rows

    def output_bytes(self, sq_id: int, *, true: bool) -> float:
        op = self.op(self.subqs[sq_id].root_op)
        return op.true_bytes if true else op.est_bytes

    def input_bytes(self, sq_id: int, *, true: bool) -> float:
        """Bytes this subQ's stage reads: file bytes for scans, the deps'
        exchange output for shuffle stages."""
        sq = self.subqs[sq_id]
        if sq.kind == "scan":
            scan_op = self.op(sq.op_ids[0])
            return scan_op.true_bytes if true else scan_op.est_bytes
        return sum(self.output_bytes(d, true=true) for d in sq.deps)

    def input_rows(self, sq_id: int, *, true: bool) -> float:
        sq = self.subqs[sq_id]
        if sq.kind == "scan":
            scan_op = self.op(sq.op_ids[0])
            return scan_op.true_rows if true else scan_op.est_rows
        return sum(self.output_rows(d, true=true) for d in sq.deps)

    def skew(self, sq_id: int) -> float:
        """Partition-size skew of the exchange feeding this subQ (β driver)."""
        sq = self.subqs[sq_id]
        if sq.kind == "scan":
            return 0.05  # file splits are near-uniform
        head = next((self.op(i) for i in sq.op_ids if self.op(i).is_exchange), None)
        return head.skew if head is not None else 0.1

    def roots(self) -> list[int]:
        """subQ ids nothing depends on (normally exactly one: the final stage)."""
        depped = {d for sq in self.subqs.values() for d in sq.deps}
        return [i for i in self.subqs if i not in depped]


def partition_subqs(plan: LogicalPlan) -> SubQDag:
    """Partition ``plan`` into subQs at exchange boundaries."""
    stage_of: dict[int, int] = {}
    subqs: dict[int, SubQ] = {}
    next_sq = 0

    for op_id in plan.topological():
        op = plan.ops[op_id]
        if op.op_type == "scan":
            sq = SubQ(next_sq, [op_id], op_id, "scan", table=op.table)
            subqs[next_sq] = sq
            stage_of[op_id] = next_sq
            next_sq += 1
        elif op.is_exchange:
            deps = sorted({stage_of[c] for c in op.children})
            sq = SubQ(next_sq, [op_id], op_id, "shuffle", deps=deps,
                      boundary_type=op.op_type)
            if op.op_type == "join":
                left, right = op.children
                l_sq, r_sq = stage_of[left], stage_of[right]
                l_est = plan.ops[left].est_bytes
                r_est = plan.ops[right].est_bytes
                if l_est <= r_est:
                    sq.join_build_dep, sq.join_probe_dep = l_sq, r_sq
                else:
                    sq.join_build_dep, sq.join_probe_dep = r_sq, l_sq
            subqs[next_sq] = sq
            stage_of[op_id] = next_sq
            next_sq += 1
        else:
            # pipeline operator: joins its (single) child's stage
            child_sq = stage_of[op.children[0]]
            subqs[child_sq].op_ids.append(op_id)
            subqs[child_sq].root_op = op_id
            stage_of[op_id] = child_sq

    return SubQDag(plan, subqs)
