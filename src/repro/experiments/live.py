"""Grounding on real Spark (not a paper table): θp tuning on the live session.

Times TPC-H-lite Q3 at SF=0.1 under a broadcast-disabled θp versus a tuned
θp that enables broadcast joins and right-sizes the advisory partition size
— the real-Catalyst counterpart of the simulator's join-algorithm effect
(Fig. 3). Each θp gets one warm-up run and two timed runs, and records
its final plan's join algorithms and its rows in the oracle's canonical
form (sorted, floats rounded), so the gate checks the answer as well as
the plan.
"""
from __future__ import annotations

import numpy as np

from repro.experiments import common
from repro.oracle import canon
from repro.params import MB, default_conf
from repro.sparkexec.queries import LITE_QUERIES, load_tables
from repro.sparkexec.runner import applied_conf, join_algorithms, run_with_conf

QUERY = "q3"
SF = 0.1
WARMUP, TIMED = 1, 2
THETA_P = {
    "broadcast-disabled": dict(s4=1.0, s3=1.0),
    "tuned": dict(s4=128 * MB, s1=32 * MB),
}
# As in the test session (conftest.py): Catalyst plans no broadcast at
# compile time, so each join's algorithm is AQE's runtime choice, which
# θp's s4 (AQE's broadcast threshold) drives.
SESSION = {"spark.sql.autoBroadcastJoinThreshold": "-1"}


def run_live(spark) -> dict:
    q = LITE_QUERIES[QUERY]
    tables = load_tables(spark, q.tables, sf=SF)
    runs = {}
    for name, theta_p in THETA_P.items():
        conf = dict(default_conf(), **theta_p)
        with applied_conf(spark, SESSION):
            res = [run_with_conf(spark, q, tables, conf) for _ in range(WARMUP + TIMED)]
        wall = [r.wall_s for r in res[WARMUP:]]
        runs[name] = dict(wall_s=wall, mean_s=float(np.mean(wall)),
                          joins=join_algorithms(res[-1].plan),
                          rows=canon(res[-1].rows).to_dict("records"))
    out = dict(benchmark="tpch", query=QUERY, sf=SF, runs=runs)
    common.save_json(out, "live_tpch.json")
    return out


def format_live(results: dict) -> str:
    lines = [f"Live Spark — TPC-H-lite {results['query'].upper()} at SF={results['sf']}: "
             f"mean wall time of {TIMED} timed runs",
             f"{'θp':20s} {'mean (s)':>10s}  final-plan joins"]
    for name, r in results["runs"].items():
        joins = " ".join(f"{k}={v}" for k, v in r["joins"].items())
        lines.append(f"{name:20s} {r['mean_s']:10.1f}  {joins}")
    return "\n".join(lines)


def check_live(results: dict) -> list[str]:
    """Failed gates: the θp knobs really drive Catalyst's join choice, and
    both join plans return the same rows."""
    runs = results["runs"]
    off = runs["broadcast-disabled"]["joins"]["BHJ"]
    tuned = runs["tuned"]["joins"]["BHJ"]
    out = []
    if off != 0:
        out.append(f"{off} broadcast hash join(s) with broadcast disabled, expected 0")
    if tuned < 1:
        out.append("no broadcast hash join under the tuned θp, expected ≥ 1")
    if runs["broadcast-disabled"]["rows"] != runs["tuned"]["rows"]:
        out.append("the broadcast-disabled and tuned θp return different rows")
    return out
