"""Metric definitions and the per-layer metrics of a traced run.

``E2E`` and ``LAYER`` are the names, units and directions that
``BENCHMARK.json`` declares; ``selftest.py`` checks the two agree. Every
metric is printed on every workload. A per-layer metric whose layer does
not run on a workload reads 0 there.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from spans import END, NAME, OP, SIZE, START, Tracer, durations

E2E = [  # (name, unit, better)
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p80_ms", "ms", "lower"),
    ("work_s", "s", "lower"),
    ("quality", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

LAYER = [
    ("model.mlp.predict_s", "s", "lower"),
    ("model.mlp.predict_calls", "count", "lower"),
    ("model.mlp.rows_per_call", "rows", "higher"),
    ("model.mlp.rows_per_s", "rows/s", "higher"),
    ("model.mlp.fit_s", "s", "lower"),
    ("model.mlp.fit_rows_per_s", "rows/s", "higher"),
    ("model.mlp.self_s", "s", "lower"),
    ("model.gtn.embed_s", "s", "lower"),
    ("model.gtn.calls", "count", "lower"),
    ("model.gtn.self_s", "s", "lower"),
    ("moo.objectives.subq_batch_calls", "count", "lower"),
    ("moo.objectives.self_s", "s", "lower"),
    ("moo.objectives.init_ms", "ms", "lower"),
    ("moo.hmooc.effective_set_s", "s", "lower"),
    ("moo.hmooc.aggregate_s", "s", "lower"),
    ("moo.hmooc.pareto_size", "count", "higher"),
    ("moo.hmooc.self_s", "s", "lower"),
    ("moo.pareto.calls", "count", "lower"),
    ("moo.pareto.rows", "rows", "lower"),
    ("moo.pareto.s", "s", "lower"),
    ("tuner.submit_ms", "ms", "lower"),
    ("runtime.init_ms", "ms", "lower"),
    ("runtime.lqp_hook_ms", "ms", "lower"),
    ("runtime.qs_hook_ms", "ms", "lower"),
    ("runtime.requests", "count", "lower"),
    ("runtime.opportunities", "count", "lower"),
    ("runtime.prune_rate", "fraction", "higher"),
    ("runtime.retune_rate", "fraction", "higher"),
    ("runtime.self_s", "s", "lower"),
    ("simspark.run_query_ms", "ms", "lower"),
    ("simspark.calls", "count", "lower"),
    ("simspark.self_s", "s", "lower"),
    ("model.traces.generate_s", "s", "lower"),
    ("model.traces.rows", "rows", "higher"),
    ("model.traces.task_ms", "ms", "lower"),
    ("model.traces.self_s", "s", "lower"),
    ("spark.session_start_s", "s", "lower"),
    ("core.plan_ms", "ms", "lower"),
    ("core.self_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.spans", "count", "lower"),
]


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, extra: dict) -> dict[str, float]:
    """Per-layer metrics from the spans plus the workload's own counters.

    ``extra`` may hold ``pareto_sizes``, ``requests``, ``opportunities``,
    ``retunes``, ``trace_rows`` and ``overhead_frac``.
    """
    own = defaultdict(float)
    for s, t in zip(tr.spans, tr.self_times()):
        own[s[NAME].rsplit(".", 1)[0]] += t

    def total(name):
        return sum(durations(tr.select(name)))

    def size(name):
        return sum(s[SIZE] for s in tr.select(name))

    def per_op_ms(name):
        by_op = defaultdict(float)
        for s in tr.select(name):
            by_op[s[OP]] += s[END] - s[START]
        return 1e3 * _median(list(by_op.values()))

    def median_ms(name):
        return 1e3 * _median(durations(tr.select(name)))

    predict = tr.select("model.mlp.predict")
    core_s = total("core.build_query") + total("core.partition_subqs")
    m = {
        "model.mlp.predict_s": total("model.mlp.predict"),
        "model.mlp.predict_calls": len(predict),
        "model.mlp.rows_per_call": _ratio(size("model.mlp.predict"), len(predict)),
        "model.mlp.rows_per_s": _ratio(size("model.mlp.predict"), total("model.mlp.predict")),
        "model.mlp.fit_s": total("model.mlp.fit"),
        "model.mlp.fit_rows_per_s": _ratio(size("model.mlp.fit"), total("model.mlp.fit")),
        "model.gtn.embed_s": total("model.gtn.embed"),
        "model.gtn.calls": len(tr.select("model.gtn.embed")),
        "moo.objectives.subq_batch_calls": len(tr.select("moo.objectives.subq_batch")),
        "moo.objectives.init_ms": median_ms("moo.objectives.init"),
        "moo.hmooc.effective_set_s": total("moo.hmooc.effective_set"),
        "moo.hmooc.aggregate_s": total("moo.hmooc.aggregate"),
        "moo.hmooc.pareto_size": statistics.fmean(extra.get("pareto_sizes") or [0]),
        "moo.pareto.calls": len(tr.select("moo.pareto.pareto_indices")),
        "moo.pareto.rows": size("moo.pareto.pareto_indices"),
        "moo.pareto.s": total("moo.pareto.pareto_indices"),
        "tuner.submit_ms": median_ms("tuner.submit_conf"),
        "runtime.init_ms": median_ms("runtime.init"),
        "runtime.lqp_hook_ms": per_op_ms("runtime.lqp_hook"),
        "runtime.qs_hook_ms": per_op_ms("runtime.qs_hook"),
        "runtime.requests": extra.get("requests", 0),
        "runtime.opportunities": extra.get("opportunities", 0),
        "runtime.prune_rate": (1.0 - _ratio(extra["requests"], extra["opportunities"])
                               if extra.get("opportunities") else 0.0),
        "runtime.retune_rate": _ratio(extra.get("retunes", 0), extra.get("requests", 0)),
        "simspark.run_query_ms": median_ms("simspark.run_query"),
        "simspark.calls": len(tr.select("simspark.run_query")),
        "model.traces.generate_s": total("model.traces.generate"),
        "model.traces.rows": extra.get("trace_rows", 0),
        "model.traces.task_ms": median_ms("model.traces.trace_rows"),
        "spark.session_start_s": total("spark.session_start"),
        "core.plan_ms": 1e3 * _ratio(core_s, len(tr.select("core.partition_subqs"))),
        "trace.overhead_frac": extra.get("overhead_frac", 0.0),
        "trace.spans": len(tr.spans),
    }
    for name, _, _ in LAYER:
        if name.endswith(".self_s"):
            m[name] = own.get(name.removesuffix(".self_s"), 0.0)
    return m

