"""Apply θp knobs to the live SparkSession per query and inspect plans.

The paper's runtime-settable knobs (θp/θs) map 1:1 onto ``spark.conf``
settings that Spark honours per query; θc knobs (executor resources)
require JVM restart and are covered by the simulator instead (DESIGN.md).

``run_with_conf`` executes a query under a configuration and returns the
collected result plus the final (post-AQE) physical plan, from which
``join_algorithms``/``count_exchanges`` extract what the parametric rules
actually did — the hook the plan-change tests assert on.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession

from repro.params import spark_conf_items

# θp/θs knobs that are honoured by a live session (per-query settable).
LIVE_KNOBS = ["s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11"]


def live_conf_items(conf: dict) -> dict[str, str]:
    """Render the live-settable subset of a 19-knob config as conf strings."""
    return spark_conf_items({k: v for k, v in conf.items() if k in LIVE_KNOBS})


@contextmanager
def applied_conf(spark: SparkSession, items: dict[str, str]):
    """Set conf items for the duration of one query, restoring afterwards."""
    saved: dict[str, str | None] = {}
    for k, v in items.items():
        saved[k] = spark.conf.get(k, None)
        spark.conf.set(k, v)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                spark.conf.unset(k)
            else:
                spark.conf.set(k, v)


@dataclass
class ExecResult:
    """Result of one configured query execution on the live session."""

    rows: list
    plan: str           # final physical plan (post-AQE)
    wall_s: float


def final_plan(df: DataFrame) -> str:
    """The executed physical plan string (AdaptiveSparkPlan after an action
    shows the final, re-optimized plan)."""
    return df._jdf.queryExecution().executedPlan().toString()


def run_with_conf(spark: SparkSession, df_builder, tables: dict,
                  conf: dict | None = None) -> ExecResult:
    """Build and execute a query under ``conf`` (19-knob dict or None) with
    AQE enabled, which most θp knobs and all θs knobs act through."""
    import time

    items = live_conf_items(conf) if conf else {}
    items["spark.sql.adaptive.enabled"] = "true"
    with applied_conf(spark, items):
        df = df_builder(**tables)
        t0 = time.perf_counter()
        rows = df.collect()
        wall = time.perf_counter() - t0
        plan = final_plan(df)
    return ExecResult(rows=rows, plan=plan, wall_s=wall)


def _final_section(plan: str) -> str:
    """AdaptiveSparkPlan prints '== Final Plan ==' followed by
    '== Initial Plan =='; count operators only in the final one."""
    if "== Initial Plan ==" in plan:
        plan = plan.split("== Initial Plan ==")[0]
    return plan


def join_algorithms(plan: str) -> dict[str, int]:
    """Count physical join operators in the final (post-AQE) plan."""
    plan = _final_section(plan)
    return {
        "BHJ": plan.count("BroadcastHashJoin"),
        "SMJ": plan.count("SortMergeJoin"),
        "SHJ": plan.count("ShuffledHashJoin"),
    }


def count_exchanges(plan: str) -> int:
    """Shuffle exchanges only (BroadcastExchange is a different operator)."""
    p = _final_section(plan)
    return (p.count("Exchange hashpartitioning")
            + p.count("Exchange rangepartitioning")
            + p.count("Exchange SinglePartition"))
