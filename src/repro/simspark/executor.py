"""Adaptive query execution over the stage cost model.

``execute`` runs a subQ DAG the way Spark with AQE does (there is no
static-plan mode: the θs knobs and most θp knobs act only through AQE):

1. compile-time physical planning — join algorithms chosen from the
   *CBO-estimated* build sides with the submitted ``θp``;
2. stages run in topological levels sharing the executors; completed
   stages expose their *true* statistics;
3. before a join stage runs, AQE re-optimizes the collapsed plan: an SMJ
   may be demoted to SHJ/BHJ using true sizes (never the reverse), with
   whatever ``θp`` is current — a runtime optimizer plugin (paper's OPT
   runtime component), shown the stages completed so far, may re-tune
   ``θp`` for the collapsed plan and ``θs`` for each new stage;
4. the execution is noise-free; ``QueryRun.sample(noise_seed)`` adds the
   run-to-run noise that makes traces realistic modeling targets, and
   ``run_query`` is ``execute`` sampled under one seed.

Latency is the wall clock of a shared-core schedule: executor start-up,
then per topological level ``max(level task-seconds / cores, slowest
task)`` plus a stage overhead (task waves are not modelled); *analytical
latency* (paper §4.2) is total task-seconds divided by total cores.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Protocol

import numpy as np

from repro.core.operators import _hash01
from repro.core.plan import SubQDag
from repro.params import GB, split_conf
from repro.simspark.costmodel import (
    DEFAULT_COSTS, StageMetrics, choose_join_algorithm, resource_rate_h, stage_cost,
)


class RuntimeOptimizer(Protocol):
    """OPT's runtime plugin interface (paper Fig. 2, steps 6 & 9)."""

    def on_collapsed_lqp(self, dag: SubQDag, sq_id: int, known: dict[int, StageRun],
                         theta_p: dict) -> dict | None:
        """Re-tune θp when the collapsed plan exposes a join whose inputs
        completed; ``known`` maps each completed stage's sq_id to its
        ``StageRun``. Return the new θp, or None if the request was pruned."""

    def on_query_stage(self, dag: SubQDag, sq_id: int, input_bytes: float,
                       conf: dict) -> dict | None:
        """Re-tune θs for a new runtime query stage, or None if pruned."""


@dataclass
class StageRun:
    """Per-stage outcome plus the context features the models train on."""

    sq_id: int
    level: int
    metrics: StageMetrics
    analytical_latency_s: float  # task-seconds / total cores; with noise in a sample only
    io_bytes: float              # with noise in a sample only
    n_parallel: int              # contention γ: sibling stages in the level
    parallel_tasks: int
    parallel_work_s: float
    theta_p_used: dict
    theta_s_used: dict
    input_bytes_true: float
    input_rows_true: float


@dataclass
class QueryRun:
    """End-to-end outcome of one simulated query execution: noise-free as
    ``execute`` returns it, under one noise draw as ``sample`` returns it."""

    latency_s: float
    analytical_latency_s: float
    io_gb: float
    cost_usd: float
    theta_c: dict
    noise_key: int   # the plan's share of every sample's RNG seed
    stages: dict[int, StageRun] = field(default_factory=dict)
    join_algs: dict[int, str] = field(default_factory=dict)
    compile_join_algs: dict[int, str] = field(default_factory=dict)
    lqp_requests: int = 0
    qs_requests: int = 0
    lqp_request_opportunities: int = 0
    qs_request_opportunities: int = 0

    def sample(self, noise_seed: int) -> "QueryRun":
        """This execution under one run-to-run noise draw, as a new run:
        per stage (in ``stages`` order) a latency and an IO multiplier,
        then one on the query latency."""
        rng = np.random.default_rng(noise_seed + self.noise_key)
        cores = _total_cores(self.theta_c)
        stages = {}
        for sq_id, s in self.stages.items():
            lat_noise = float(np.exp(rng.normal(0.0, 0.12)))
            io_noise = float(np.exp(rng.normal(0.0, 0.015)))
            stages[sq_id] = replace(
                s, analytical_latency_s=s.metrics.task_sec_total * lat_noise / cores,
                io_bytes=s.metrics.io_bytes * io_noise)
        return _tally(replace(self, stages=stages), float(np.exp(rng.normal(0.0, 0.05))))


def _total_cores(theta_c: dict) -> float:
    return max(1.0, theta_c["k1"] * theta_c["k3"])


def _tally(run: QueryRun, q_noise: float) -> QueryRun:
    """Set ``run``'s end-to-end latency, IO and cost from its stages: a
    shared-core schedule of its levels after executor start-up, the
    latency scaled by ``q_noise``."""
    costs, theta_c = DEFAULT_COSTS, run.theta_c
    cores = _total_cores(theta_c)
    latency = costs.startup_base_s + costs.startup_per_exec_s * theta_c["k3"]
    total_task_sec = 0.0
    total_io = 0.0
    for _, level in groupby(run.stages.values(), key=lambda s: s.level):
        level = list(level)
        work = sum(s.analytical_latency_s for s in level) * cores
        wall = max(work / cores, max(s.metrics.max_task_s for s in level))
        latency += wall + costs.stage_overhead_s * (1.0 + 0.1 * (len(level) - 1))
        total_task_sec += work
        total_io += sum(s.io_bytes for s in level)
    run.latency_s = latency * q_noise
    run.analytical_latency_s = total_task_sec / cores
    run.io_gb = total_io / GB
    rate = resource_rate_h(theta_c["k1"], theta_c["k2"], theta_c["k3"])
    run.cost_usd = run.latency_s / 3600.0 * rate + run.io_gb * costs.price_io_gb
    return run


def _levels(dag: SubQDag) -> dict[int, int]:
    lvl: dict[int, int] = {}
    for sq_id in dag.topological():
        deps = dag.subqs[sq_id].deps
        lvl[sq_id] = 1 + max((lvl[d] for d in deps), default=0)
    return lvl


def _op_work(dag: SubQDag, sq_id: int, *, true: bool) -> list[tuple[str, float, float]]:
    """(op_type, input_bytes, input_rows) for each operator in the stage."""
    out = []
    for op_id in dag.subqs[sq_id].op_ids:
        op = dag.op(op_id)
        if op.op_type == "scan":
            b, r = (op.true_bytes, op.true_rows) if true else (op.est_bytes, op.est_rows)
        else:
            chs = [dag.op(c) for c in op.children]
            b = sum((c.true_bytes if true else c.est_bytes) for c in chs)
            r = sum((c.true_rows if true else c.est_rows) for c in chs)
        out.append((op.op_type, float(b), float(r)))
    return out


def join_sides(dag: SubQDag, sq_id: int, *, true: bool) -> tuple[float, float, float]:
    """(build_bytes, probe_bytes, build_rows) of a join-headed subQ."""
    sq = dag.subqs[sq_id]
    bb = dag.output_bytes(sq.join_build_dep, true=true)
    pb = dag.output_bytes(sq.join_probe_dep, true=true)
    br = dag.output_rows(sq.join_build_dep, true=true)
    return bb, pb, br


def compile_time_join_algs(dag: SubQDag, theta_p: dict) -> dict[int, str]:
    """Physical join selection at submission, from CBO estimates."""
    algs: dict[int, str] = {}
    for sq_id, sq in dag.subqs.items():
        if sq.boundary_type == "join":
            bb, pb, br = join_sides(dag, sq_id, true=False)
            algs[sq_id] = choose_join_algorithm(
                bb, pb, theta_p, rows_build=br, runtime=False)
    return algs


def execute(
    dag: SubQDag,
    conf: dict,
    *,
    runtime_opt: RuntimeOptimizer | None = None,
) -> QueryRun:
    """Simulate one noise-free execution of ``dag`` under the 19-knob ``conf``."""
    theta_c, theta_p, theta_s = split_conf(conf)
    total_cores = _total_cores(theta_c)

    compile_algs = compile_time_join_algs(dag, theta_p)
    lvl = _levels(dag)
    roots = dag.roots()
    by_level: dict[int, list[int]] = {}
    for sq_id, L in lvl.items():
        by_level.setdefault(L, []).append(sq_id)

    # _hash01 is a blake2b digest: the same in every process, unlike the
    # per-process salted built-in hash()
    run = QueryRun(0.0, 0.0, 0.0, 0.0, theta_c,
                   noise_key=104729 * int(_hash01(dag.plan.name) * 9973),
                   compile_join_algs=dict(compile_algs))
    pending_joins = {i for i, s in dag.subqs.items() if s.boundary_type == "join"}
    cur_theta_p = dict(theta_p)

    for L in sorted(by_level):
        stage_runs: list[StageRun] = []
        for sq_id in sorted(by_level[L]):
            sq = dag.subqs[sq_id]
            cur_theta_s = dict(theta_s)
            in_b = dag.input_bytes(sq_id, true=True)
            in_r = dag.input_rows(sq_id, true=True)
            # Every stage is an AQE collapse point: each still-pending
            # join in the collapsed plan is a potential LQP̄ request
            # (the paper's "up to nearly a hundred requests"), and the
            # new stage itself is a potential QS request. The runtime
            # optimizer's pruning rules decide which become requests.
            run.lqp_request_opportunities += max(1, len(pending_joins))
            run.qs_request_opportunities += 1
            if runtime_opt is not None:
                # run.stages: the earlier levels, where every dep of sq_id ran
                new_p = runtime_opt.on_collapsed_lqp(dag, sq_id, run.stages, cur_theta_p)
                if new_p is not None:
                    run.lqp_requests += 1
                    cur_theta_p = dict(new_p)
                stage_conf = {**theta_c, **cur_theta_p, **cur_theta_s}
                new_s = runtime_opt.on_query_stage(dag, sq_id, in_b, stage_conf)
                if new_s is not None:
                    run.qs_requests += 1
                    cur_theta_s = dict(new_s)

            stage_conf = {**theta_c, **cur_theta_p, **cur_theta_s}
            join_alg, bb, pb = "", 0.0, 0.0
            if sq.boundary_type == "join":
                bb, pb, br = join_sides(dag, sq_id, true=True)
                join_alg = choose_join_algorithm(
                    bb, pb, stage_conf, rows_build=br, runtime=True,
                    compile_alg=compile_algs[sq_id])
                run.join_algs[sq_id] = join_alg

            m = stage_cost(
                kind=sq.kind,
                op_work=_op_work(dag, sq_id, true=True),
                input_bytes=in_b,
                input_rows=in_r,
                output_bytes=dag.output_bytes(sq_id, true=True),
                writes_shuffle=sq_id not in roots,
                skew=dag.skew(sq_id),
                conf=stage_conf,
                join_alg=join_alg,
                build_bytes=bb,
                probe_bytes=pb,
            )
            sr = StageRun(
                sq_id=sq_id, level=L, metrics=m,
                analytical_latency_s=m.task_sec_total / total_cores,
                io_bytes=m.io_bytes,
                n_parallel=len(by_level[L]),
                parallel_tasks=0, parallel_work_s=0.0,
                theta_p_used=dict(cur_theta_p), theta_s_used=dict(cur_theta_s),
                input_bytes_true=in_b, input_rows_true=in_r,
            )
            stage_runs.append(sr)
            pending_joins.discard(sq_id)

        # contention γ: siblings' footprint, excluding the stage itself
        lvl_tasks = sum(s.metrics.n_tasks for s in stage_runs)
        lvl_work = sum(s.metrics.task_sec_total for s in stage_runs)
        for s in stage_runs:
            s.parallel_tasks = lvl_tasks - s.metrics.n_tasks
            s.parallel_work_s = lvl_work - s.metrics.task_sec_total
            run.stages[s.sq_id] = s
    return _tally(run, 1.0)


def run_query(
    dag: SubQDag,
    conf: dict,
    *,
    runtime_opt: RuntimeOptimizer | None = None,
    noise_seed: int = 0,
) -> QueryRun:
    """One simulated run of ``dag``: its execution under one noise draw."""
    return execute(dag, conf, runtime_opt=runtime_opt).sample(noise_seed)
