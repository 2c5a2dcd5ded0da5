"""Output checks. Each returns a list of problems; an empty list passes.

A failed check counts the operation as failed and fails the command.
"""
from __future__ import annotations

import math

import numpy as np

from repro.params import ALL_KNOBS, KNOB_BY_ID

# Table-3 gates on the held-out latency models (as in benchmarks/bench_table3.py)
MAX_WMAPE = 0.5
MIN_CORR = 0.8


def pareto_problems(F) -> list[str]:
    """The Pareto set is non-empty, finite and mutually non-dominated."""
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2 or len(F) == 0:
        return ["empty Pareto set"]
    if not np.isfinite(F).all():
        return ["non-finite objective in Pareto set"]
    le = (F[:, None, :] <= F[None, :, :]).all(axis=2)
    lt = (F[:, None, :] < F[None, :, :]).any(axis=2)
    n_dom = int((le & lt).any(axis=0).sum())
    return [f"{n_dom} dominated point(s) in Pareto set"] if n_dom else []


def domain_problems(conf: dict, *, complete: bool = False) -> list[str]:
    """Every knob is known and inside its Table-6 domain."""
    out = []
    for kid, v in conf.items():
        knob = KNOB_BY_ID.get(kid)
        if knob is None:
            out.append(f"unknown knob {kid}")
        elif not (math.isfinite(v) and knob.lo <= v <= knob.hi):
            out.append(f"{kid}={v!r} outside [{knob.lo}, {knob.hi}]")
        elif knob.integer and v != round(v):
            out.append(f"{kid}={v!r} is not an integer")
    if complete and set(conf) != {k.kid for k in ALL_KNOBS}:
        out.append(f"submitted conf has {len(conf)} knobs, expected {len(ALL_KNOBS)}")
    return out


def recommendation_problems(F, qc, conf: dict) -> list[str]:
    """compile: Pareto set sound, recommended and submitted knobs in domain."""
    out = pareto_problems(F) + domain_problems(qc.theta_c)
    for per_sq in (qc.theta_p, qc.theta_s):
        for theta in per_sq.values():
            out += domain_problems(theta)
    return out + domain_problems(conf, complete=True)


def run_problems(run) -> list[str]:
    """adapt: finite latency and cost; requests never exceed opportunities."""
    out = []
    for what, v in (("latency", run.latency_s), ("cost", run.cost_usd)):
        if not (math.isfinite(v) and v > 0):
            out.append(f"{what}={v!r}")
    if run.lqp_requests > run.lqp_request_opportunities:
        out.append("LQP requests exceed opportunities")
    if run.qs_requests > run.qs_request_opportunities:
        out.append("QS requests exceed opportunities")
    return out


def task_problems(rows: list[dict], spark_rows: int) -> list[str]:
    """train: a trace task re-run on the driver gives as many rows as it gave
    on Spark, each with a finite, positive latency."""
    out = []
    if len(rows) != spark_rows:
        out.append(f"{len(rows)} rows on the driver, {spark_rows} on Spark")
    if not all(math.isfinite(r["latency"]) and r["latency"] > 0 for r in rows):
        out.append("non-finite or non-positive latency")
    return out


def model_problems(m: dict) -> list[str]:
    """train: Table-3 gates on one held-out latency model."""
    out = []
    if not m["wmape"] < MAX_WMAPE:
        out.append(f"WMAPE {m['wmape']:.3f} >= {MAX_WMAPE}")
    if not m["corr"] > MIN_CORR:
        out.append(f"corr {m['corr']:.3f} <= {MIN_CORR}")
    return out
