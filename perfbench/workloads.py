"""The benchmark's three workloads: ``compile``, ``adapt`` and ``train``.

All are closed loops in one process: one solve, one adaptive execution or
one training job at a time (``train`` aside from Spark's own task
parallelism). Each run derives its inputs from the workload seed alone.

* ``compile`` — the solve a user waits for at submission: DAG → HMOOC3
  → WUN recommendation → submitted conf, for all 52 queries. Model
  inference and MOO do the work; neither simulator nor plugin runs in
  the timed span.
* ``adapt`` — HMOOC3+ adaptive execution of the cached compile-time
  recommendations: 52 queries × 5 preferences, each with a fresh runtime
  plugin, plus the paired default run. The plugin, tiny-batch QS
  inference, GTN embeds and the simulator do the work.
* ``train`` — offline model building for TPC-H: Spark trace generation
  and the six MLP fits, with the deployed seeds, then half the trace tasks
  re-run and timed one by one on the driver. The only workload with Spark
  and backprop. Its output is deterministic at a given core count, so the
  seed only picks the order of the driver-side tasks.
"""
from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import benchenv
import checks
from repro import tuner
from repro.core import plan as core_plan
from repro.core import workloads as core_workloads
from repro.experiments import common
from repro.experiments.table5 import PREFS
from repro.model import gtn, mlp, traces
from repro.model.predictor import ModelSuite, eval_metrics
from repro.moo import hmooc as H
from repro.moo import objectives as O
from repro.params import default_conf
from repro.runtime import optimizer as R
from repro.simspark import executor as E
from refclock import REACH, RefClock
from spans import Tracer, durations

BENCHES = ("tpch", "tpcds")
SPEED = (0.9, 0.1)    # Table 4 preference
THRIFT = (0.0, 1.0)   # Table 5 cost preference
SETUP_REPEATS = 3
IMPORT_TIMEOUT_S = 120
WARMUP_ITEMS = 2      # compile, adapt: untimed items before the first pass
COMPILE_TICK_REPEATS = 3   # compile: kernel repeats per tick, ~1% of a solve
TASK_STRIDE = 2       # train: every second trace task is re-timed on the driver
TRACE_SEED = 17       # train: the LHS seed of common.get_traces, as deployed
# train: the trace grid. The deployed suite uses common.N_VARIANTS (4)
# variants of each template under common.N_CONFS (24) configurations; half
# the variants and two thirds of the configurations keep one train run near
# 40 s on one BLAS thread, which the benchmark's time budget needs. With one
# variant the held-out subQ correlation fell below the Table-3 gate.
TRAIN_VARIANTS = common.N_VARIANTS // 2
TRAIN_CONFS = 16


def _fit_rows(_self, X, _y, epochs=60, **_kw):
    return len(X) * epochs


FIT = (mlp.MLPRegressor, "fit", "model.mlp.fit", _fit_rows)

# Public calls into each layer, wrapped in traced runs. The Spark trace
# worker's own globals (traces.trace_rows, traces.run_query) are left alone
# here: a wrapper there would be pickled into the Spark job.
TARGETS = [
    (mlp.MLPRegressor, "predict", "model.mlp.predict", lambda _self, X: len(X)),
    FIT,
    (gtn.GTNEmbedder, "embed", "model.gtn.embed", None),
    (O.CompileTimeObjectives, "__init__", "moo.objectives.init", None),
    (O.CompileTimeObjectives, "subq_batch", "moo.objectives.subq_batch",
     lambda _self, _sq, U: len(np.atleast_2d(U))),
    (H, "hmooc", "moo.hmooc.solve", None),
    (H, "generate_effective_set", "moo.hmooc.effective_set", None),
    (H._AGGREGATORS, "boundary", "moo.hmooc.aggregate", None),
    (H, "pareto_indices", "moo.pareto.pareto_indices", lambda F: len(F)),
    (H.MOOResult, "recommend", "moo.hmooc.recommend", None),
    (tuner, "submit_conf", "tuner.submit_conf", None),
    (R.OnlineOptimizer, "__init__", "runtime.init", None),
    (R.OnlineOptimizer, "on_collapsed_lqp", "runtime.lqp_hook", None),
    (R.OnlineOptimizer, "on_query_stage", "runtime.qs_hook", None),
    (E, "run_query", "simspark.run_query", None),
    (traces, "generate_traces_spark", "model.traces.generate", None),
    (core_workloads, "build_query", "core.build_query", None),
    (core_plan, "partition_subqs", "core.partition_subqs", None),
]
SAMPLE_TARGETS = [
    (traces, "trace_rows", "model.traces.trace_rows", None),
    (traces, "run_query", "simspark.run_query", None),
]


@dataclass
class Ctx:
    seed: int
    seconds: float
    traced: bool
    tracer: Tracer = field(default_factory=Tracer)
    clock: RefClock = field(default_factory=RefClock)
    overhead_frac: float = 0.0


@dataclass
class Outcome:
    e2e: dict = field(default_factory=dict)
    layer_extra: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def attempt(self, what: str, op: Callable[[], list[str]]) -> None:
        """Run one operation; it returns its output-check problems."""
        self.attempted += 1
        try:
            found = op()
        except Exception:  # noqa: BLE001 - one failed operation must not stop the run
            traceback.print_exc(file=sys.stderr)
            found = ["raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]]
        if found:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in found]


class TimedPlugin:
    """Delegating ``RuntimeOptimizer``: forwards every hook unchanged and
    times it, so the plugin's cost is measured outside the plugin."""

    def __init__(self, inner, init_s: float):
        self.inner = inner
        self.init_s = init_s
        self.lqp_s = 0.0
        self.qs_s = 0.0
        self.retunes = 0   # requests whose answer changed θ

    @property
    def overhead_s(self) -> float:
        return self.init_s + self.lqp_s + self.qs_s

    def on_collapsed_lqp(self, dag, sq_id, known, theta_p):
        t0 = time.perf_counter()
        out = self.inner.on_collapsed_lqp(dag, sq_id, known, theta_p)
        self.lqp_s += time.perf_counter() - t0
        self.retunes += out is not None and out != theta_p
        return out

    def on_query_stage(self, dag, sq_id, input_bytes, conf):
        t0 = time.perf_counter()
        out = self.inner.on_query_stage(dag, sq_id, input_bytes, conf)
        self.qs_s += time.perf_counter() - t0
        self.retunes += out is not None and any(out[k] != conf[k] for k in out)
        return out


# -- shared setup ---------------------------------------------------------------

def _import_s() -> float:
    """Median time a fresh interpreter takes to import the program and
    this harness, as ``run.py`` does before a workload starts."""
    code = ("import time; t = time.perf_counter(); import report, workloads; "
            "print(time.perf_counter() - t)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent,
                             capture_output=True, text=True, check=True,
                             timeout=IMPORT_TIMEOUT_S).stdout)
        for _ in range(SETUP_REPEATS))


def _setup(load: Callable):
    """setup_s = median import time + median of repeated loads."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = load()
        times.append(time.perf_counter() - t0)
    return _import_s() + statistics.median(times), state


def _load_suites() -> dict:
    return {bm: ModelSuite.load(common.models_dir(bm)) for bm in BENCHES}


def _plans() -> list:
    return [(bm, q, core_plan.partition_subqs(core_workloads.build_query(bm, q)))
            for bm in BENCHES for q in core_workloads.benchmark_queries(bm)]


def _passes(ctx: Ctx, n_items: int, one_pass: Callable[[int, list], dict],
            seconds: float | None = None) -> list[dict]:
    """Whole passes over the items until ``seconds`` (default: the run's)
    are measured, at least one; returns each pass's record.

    ``one_pass(p, items)`` ticks ``ctx.clock`` before each item and
    returns a record whose ``times`` maps each item to its timed seconds
    and ``ticks`` maps it to the tick before it. A traced run makes one
    traced pass and then measures the tracing overhead on every fourth
    item, run untraced and traced back to back; the spans of those repeats
    are dropped.
    """
    every = list(range(n_items))
    with ctx.tracer.paused():   # warm caches and lazy set-up; not timed
        one_pass(-1, every[:WARMUP_ITEMS])
    if ctx.traced:
        full = one_pass(0, every)
        ctx.overhead_frac = _overhead(ctx.tracer, every[::4],
                                      lambda i: one_pass(0, [i])["times"][i])
        return [full]
    seconds = ctx.seconds if seconds is None else seconds
    passes, t0 = [], time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(one_pass(len(passes), every))
    for _ in range(REACH):   # neighbours for the last items
        ctx.clock.tick()
    return passes


def _overhead(tr: Tracer, items, timed: Callable) -> float:
    """Traced / untraced time of the same items, paired item by item."""
    kept = len(tr.spans)
    plain = traced = 0.0
    for i in items:
        with tr.paused():
            plain += timed(i)
        traced += timed(i)
    del tr.spans[kept:]
    return traced / plain - 1.0


def _ms(xs) -> list[float]:
    return [1e3 * x for x in xs]


def _op_stats(per_op: dict, name: str = "op") -> dict:
    """p50 and p80, in ms, over operations of each operation's median time.

    p80 is the highest percentile with ten samples beyond it in one
    ``compile`` pass (52 solves).

    ``per_op`` maps an operation to its seconds, one per pass; the median
    keeps a burst of host noise in one pass out of the percentiles.
    """
    op_ms = _ms(statistics.median(ts) for ts in per_op.values())
    return {f"{name}_p50_ms": float(np.percentile(op_ms, 50)),
            f"{name}_p80_ms": float(np.percentile(op_ms, 80))}


def _per_op(passes: list[dict], key: str) -> dict:
    out: dict = {}
    for r in passes:
        for op, t in r[key].items():
            out.setdefault(op, []).append(t)
    return out


def _scale(clock: RefClock, passes: list[dict], key: str, tick_of) -> None:
    """Add ``<key>_scaled`` to each pass: its ``key`` times at nominal speed.

    ``tick_of(op)`` names the item whose tick preceded the operation.
    """
    for r in passes:
        r[key + "_scaled"] = {op: clock.scaled(t, r["ticks"][tick_of(op)])
                              for op, t in r[key].items()}


def _timings(ctx: Ctx, passes: list[dict], key: str) -> tuple[dict, dict]:
    """The end-to-end timings at nominal speed and, for ``detail:``, as measured."""
    e2e = {**_op_stats(_per_op(passes, key + "_scaled")),
           "work_s": statistics.median(sum(r["times_scaled"].values()) for r in passes)}
    raw = {**_op_stats(_per_op(passes, key), "measured_op"),
           "measured_work_s": statistics.median(sum(r["times"].values()) for r in passes),
           "ref_tick_ms": 1e3 * statistics.median(ctx.clock.ticks)}
    return e2e, raw


# -- compile ----------------------------------------------------------------------

def run_compile(ctx: Ctx) -> Outcome:
    out = Outcome()
    ctx.clock = RefClock("mlp")
    setup_s, (suites, plans) = _setup(lambda: (_load_suites(), _plans()))
    rng = np.random.default_rng(ctx.seed)
    inputs = {}   # pass -> (query order, noise seeds)

    def one_pass(p: int, items: list) -> dict:
        if p not in inputs:
            inputs[p] = (rng.permutation(len(plans)), rng.integers(2**31, size=len(plans)))
        order, noise = inputs[p]
        rec = {"times": {}, "ticks": {}, "sizes": [], "recs": {}, "lat": 0.0, "lat_def": 0.0}
        chosen = set(items)
        for i in (i for i in order if i in chosen):
            bm, q, dag = plans[i]
            ctx.tracer.op = f"{bm}/{q}"
            rec["ticks"][i] = ctx.clock.tick(COMPILE_TICK_REPEATS)

            def op():
                t0 = time.perf_counter()
                obj = O.CompileTimeObjectives(dag, suites[bm])
                res = H.hmooc(dag, suites[bm], agg="boundary", objectives=obj)
                _, qc = res.recommend(SPEED)
                conf = tuner.submit_conf(qc, dag)
                rec["times"][i] = time.perf_counter() - t0
                rec["sizes"].append(len(res.F))
                rec["recs"][f"{bm}/{q}"] = ",".join(f"{k}={conf[k]:.6g}" for k in sorted(conf))
                with ctx.tracer.paused():   # quality check, not part of the solve
                    rec["lat"] += E.run_query(dag, conf, noise_seed=int(noise[i])).latency_s
                    rec["lat_def"] += E.run_query(dag, default_conf(),
                                                  noise_seed=int(noise[i])).latency_s
                return checks.recommendation_problems(res.F, qc, conf)

            out.attempt(f"solve {bm}/{q}", op)
        return rec

    passes = _passes(ctx, len(plans), one_pass)
    _scale(ctx.clock, passes, "times", lambda i: i)
    timed, raw = _timings(ctx, passes, "times")
    solves = [t for r in passes for t in r["times"].values()]
    reduction = statistics.fmean(1.0 - r["lat"] / r["lat_def"] for r in passes)
    out.e2e = {"setup_s": setup_s, **timed, "quality": reduction}
    out.layer_extra = {"pareto_sizes": passes[-1]["sizes"]}
    out.detail = {"solves": len(solves), **raw,
                  "solve_p50_s": float(np.percentile(solves, 50)),
                  "solve_p90_s": float(np.percentile(solves, 90)),
                  "solve_max_s": max(solves),
                  "coverage_1s": float(np.mean(np.array(solves) <= 1.0)),
                  "hmooc3_lat_reduction": reduction,
                  "recs_digest": hashlib.sha256(json.dumps(
                      passes[0]["recs"], sort_keys=True).encode()).hexdigest()[:16]}
    return out


# -- adapt ------------------------------------------------------------------------

def _load_recs(cache) -> dict:
    with open(cache / "recs.json") as f:
        raw = json.load(f)
    return {k: (v["theta_c"], v["conf"]) for k, v in raw.items()}


def run_adapt(ctx: Ctx) -> Outcome:
    out = Outcome()
    cache = benchenv.cache_dir(benchenv.source_digest())
    setup_s, (suites, plans, recs) = _setup(
        lambda: (_load_suites(), _plans(), _load_recs(cache)))
    rng = np.random.default_rng(ctx.seed)
    noises = {}

    def one_pass(p: int, items: list) -> dict:
        if p not in noises:
            noises[p] = rng.integers(2**31, size=len(plans))
        rec = {"times": {}, "ticks": {}, "overhead": {}, "init": [], "lqp": [], "qs": [],
               "lat": 0.0, "lat_def": 0.0, "cost": 0.0,
               "requests": 0, "opportunities": 0, "retunes": 0}
        for i in items:
            bm, q, dag = plans[i]
            n = int(noises[p][i])
            rec["ticks"][i] = ctx.clock.tick()
            t_item = time.perf_counter()
            ctx.tracer.op = f"{bm}/{q}/default"
            default = E.run_query(dag, default_conf(), noise_seed=n)
            out.attempt(f"default {bm}/{q}", lambda: checks.run_problems(default))
            for pref in PREFS:
                ctx.tracer.op = f"{bm}/{q}/{pref}"

                def op():
                    theta_c, conf = recs[f"{bm}/{q}/{pref[0]},{pref[1]}"]
                    t0 = time.perf_counter()
                    rt = R.OnlineOptimizer(dag, suites[bm], theta_c, pref)
                    plugin = TimedPlugin(rt, time.perf_counter() - t0)
                    run = E.run_query(dag, conf, noise_seed=n, runtime_opt=plugin)
                    rec["overhead"][i, pref] = plugin.overhead_s
                    for key, v in (("init", plugin.init_s), ("lqp", plugin.lqp_s),
                                   ("qs", plugin.qs_s)):
                        rec[key].append(v)
                    rec["requests"] += run.lqp_requests + run.qs_requests
                    rec["opportunities"] += (run.lqp_request_opportunities
                                             + run.qs_request_opportunities)
                    rec["retunes"] += plugin.retunes
                    if pref == SPEED:
                        rec["lat"] += run.latency_s
                        rec["lat_def"] += default.latency_s
                    if pref == THRIFT:
                        rec["cost"] += run.cost_usd
                    return checks.run_problems(run)

                out.attempt(f"adaptive {bm}/{q} {pref}", op)
            rec["times"][i] = time.perf_counter() - t_item
        return rec

    passes = _passes(ctx, len(plans), one_pass)
    _scale(ctx.clock, passes, "times", lambda i: i)
    _scale(ctx.clock, passes, "overhead", lambda op: op[0])
    timed, raw = _timings(ctx, passes, "overhead")
    reduction = statistics.fmean(1.0 - r["lat"] / r["lat_def"] for r in passes)
    counts = {k: passes[-1][k] for k in ("requests", "opportunities", "retunes")}
    out.e2e = {"setup_s": setup_s, **timed, "quality": reduction}
    out.layer_extra = counts
    out.detail = {"adaptive_runs": sum(len(r["overhead"]) for r in passes), **raw,
                  "rt_overhead_p50_ms": raw["measured_op_p50_ms"],
                  "rt_overhead_p80_ms": raw["measured_op_p80_ms"],
                  **{f"rt_{k}_p50_ms": float(np.percentile(
                      _ms(t for r in passes for t in r[k]), 50))
                     for k in ("init", "lqp", "qs")},
                  "lat_reduction": reduction,
                  "cost_pref_cost_usd": statistics.fmean(r["cost"] for r in passes),
                  **counts}
    return out


# -- train ------------------------------------------------------------------------

def run_train(ctx: Ctx) -> Outcome:
    out = Outcome()
    tr = ctx.tracer
    if not ctx.traced:
        tr.instrument([FIT])   # per-model fit times; six spans
    t0 = time.perf_counter()
    with tr.span("spark.session_start"):
        spark = benchenv.start_spark()
    session_s = time.perf_counter() - t0
    setup_s = _import_s() + session_s
    templates = core_workloads.benchmark_queries("tpch")
    try:
        t1 = time.perf_counter()
        df = traces.generate_traces_spark(
            spark, "tpch", templates, n_variants=TRAIN_VARIANTS,
            n_confs=TRAIN_CONFS, seed=TRACE_SEED)
        gen_s = time.perf_counter() - t1
    finally:
        benchenv.stop_spark(spark)   # training needs no Spark; its JVM stays out of the fits
    t2 = time.perf_counter()
    suite = common.train_suite(df)
    train_s = gen_s + time.perf_counter() - t2
    fits = durations(tr.select("model.mlp.fit"))

    quality = {}
    with tr.paused():
        for kind in ("subq", "qs", "lqp"):
            def op(kind=kind):
                _, _, (X, y_lat, _) = traces.split_traces(df, kind)
                m = eval_metrics(y_lat, getattr(suite, kind).latency.predict(X))
                quality[kind] = m
                return checks.model_problems(m)

            def op_io(kind=kind):
                _, _, (X, _, _) = traces.split_traces(df, kind)
                pred = getattr(suite, kind).io.predict(X)
                return [] if np.isfinite(pred).all() else ["non-finite IO predictions"]

            out.attempt(f"{kind} latency model", op)
            out.attempt(f"{kind} io model", op_io)

    # Trace generation per task, timed on the driver: Spark's workers cannot
    # be timed from outside, and whole fits of several seconds cannot be
    # scaled by the reference clock (see README). Every TASK_STRIDE-th task
    # of the grid, in a seeded order, must give the rows Spark gave.
    grid = traces.task_grid("tpch", templates, TRAIN_VARIANTS, TRAIN_CONFS, seed=TRACE_SEED)
    tasks = list(grid.iloc[::TASK_STRIDE].itertuples(index=False))
    spark_rows = df.groupby(["template", "variant", "conf_id"]).size()
    order = np.random.default_rng(ctx.seed).permutation(len(tasks))
    if ctx.traced:
        tr.instrument(SAMPLE_TARGETS)

    def one_pass(_p: int, items: list) -> dict:
        rec = {"times": {}, "ticks": {}}
        chosen = set(items)
        for i in (i for i in order if i in chosen):
            task = tasks[i]
            key = (task.template, task.variant, task.conf_id)
            tr.op = "task {}/{}/{}".format(*key)
            rec["ticks"][i] = ctx.clock.tick()

            def op():
                t0 = time.perf_counter()
                rows = traces.trace_rows(task.benchmark, task.template, int(task.variant),
                                         json.loads(task.conf_json), int(task.conf_id))
                rec["times"][i] = time.perf_counter() - t0
                return checks.task_problems(rows, int(spark_rows.get(key, 0)))

            out.attempt(f"trace task {key}", op)
        return rec

    passes = _passes(ctx, len(tasks), one_pass, seconds=0.0)   # one pass
    _scale(ctx.clock, passes, "times", lambda i: i)
    raw = _op_stats(_per_op(passes, "times"), "measured_op")

    wmapes = [quality[k]["wmape"] if k in quality else float("nan")
              for k in ("subq", "qs", "lqp")]
    out.e2e = {"setup_s": setup_s, **_op_stats(_per_op(passes, "times_scaled")),
               "work_s": train_s, "quality": 1.0 - statistics.fmean(wmapes)}
    out.layer_extra = {"trace_rows": len(df)}
    out.detail = {"train_s": train_s, "generate_s": gen_s, "driver_tasks": len(tasks), **raw,
                  **_op_stats({k: [t] for k, t in enumerate(fits)}, "fit"),
                  "trace_rows": len(df), "models": len(fits),
                  "model_wmape": wmapes[0],
                  "held_out": {k: {m: round(v[m], 4) for m in ("wmape", "corr")}
                               for k, v in quality.items()}}
    return out


RUNNERS = {"compile": run_compile, "adapt": run_adapt, "train": run_train}
