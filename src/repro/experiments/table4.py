"""Table 4 reproduction: latency reduction with a strong speed preference.

Preference (0.9, 0.1) on (latency, cost). For MO-WS, HMOOC3 and HMOOC3+
over all benchmark queries, reports — exactly the paper's rows:

* Coverage (1s) / Coverage (2s): fraction of queries whose MOO solving
  time fits the cloud budget;
* Total / Avg latency reduction vs. Spark-default execution;
* Avg / Max solving time;
* Avg latency reduction per unit solving time.

HMOOC3 and HMOOC3+ share one compile-time solve per query (as in the
system: the runtime optimizer is a plugin on top of the same compile-time
recommendation), so their solving-time difference is exactly the runtime
optimizer's overhead.
"""
from __future__ import annotations

import numpy as np

from repro.core.plan import partition_subqs
from repro.core.workloads import benchmark_queries, build_query
from repro.experiments import common
from repro.model.predictor import ModelSuite
from repro.moo.objectives import CompileTimeObjectives
from repro.tuner import (compile_hmooc3, run_default, run_hmooc3, run_hmooc3_plus,
                         run_mo_ws)

WEIGHTS = (0.9, 0.1)

PAPER_TABLE4 = {
    "tpch": {
        "mo-ws": dict(cov1=0.05, cov2=0.36, total_red=0.18, avg_red=-0.01,
                      avg_solve=2.6, max_solve=4.5, eff=0.01),
        "hmooc3": dict(cov1=0.95, cov2=1.00, total_red=0.59, avg_red=0.52,
                       avg_solve=0.52, max_solve=1.01, eff=1.03),
        "hmooc3+": dict(cov1=0.68, cov2=1.00, total_red=0.61, avg_red=0.52,
                        avg_solve=0.83, max_solve=1.55, eff=0.71),
    },
    "tpcds": {
        "mo-ws": dict(cov1=0.00, cov2=0.00, total_red=0.25, avg_red=0.34,
                      avg_solve=15.0, max_solve=68.0, eff=0.03),
        "hmooc3": dict(cov1=0.98, cov2=1.00, total_red=0.59, avg_red=0.54,
                       avg_solve=0.47, max_solve=1.24, eff=1.27),
        "hmooc3+": dict(cov1=0.96, cov2=1.00, total_red=0.64, avg_red=0.57,
                        avg_solve=0.62, max_solve=1.34, eff=0.99),
    },
}


def run_table4(benchmark: str, suite: ModelSuite, *, sf: float = 100.0,
               seed: int = 0, queries: list[str] | None = None) -> dict:
    queries = queries or benchmark_queries(benchmark)
    per_q: list[dict] = []
    for qi, q in enumerate(queries):
        dag = partition_subqs(build_query(benchmark, q, sf=sf))
        obj = CompileTimeObjectives(dag, suite)
        noise = 1000 + qi

        d = run_default(dag, noise_seed=noise)
        mw = run_mo_ws(dag, suite, WEIGHTS, noise_seed=noise, seed=seed,
                       objectives=obj)
        res, _ = compile_hmooc3(dag, suite, seed=seed, objectives=obj)
        h3 = run_hmooc3(dag, res, WEIGHTS, noise_seed=noise)
        h3p = run_hmooc3_plus(dag, suite, res, WEIGHTS, noise_seed=noise)

        per_q.append(dict(
            query=q, n_subqs=dag.n_subqs(),
            default=dict(latency=d.latency_s, cost=d.cost_usd),
            methods={
                "mo-ws": dict(latency=mw.latency_s, cost=mw.cost_usd,
                              solve=mw.solving_time_s),
                "hmooc3": dict(latency=h3.latency_s, cost=h3.cost_usd,
                               solve=h3.solving_time_s),
                "hmooc3+": dict(latency=h3p.latency_s, cost=h3p.cost_usd,
                                solve=h3p.solving_time_s,
                                lqp_requests=h3p.run.lqp_requests,
                                lqp_opps=h3p.run.lqp_request_opportunities,
                                qs_requests=h3p.run.qs_requests,
                                qs_opps=h3p.run.qs_request_opportunities),
            }))

    summary: dict = {}
    lat_def = np.array([r["default"]["latency"] for r in per_q])
    for m in ("mo-ws", "hmooc3", "hmooc3+"):
        lat = np.array([r["methods"][m]["latency"] for r in per_q])
        solve = np.array([r["methods"][m]["solve"] for r in per_q])
        avg_red = float(np.mean(1.0 - lat / lat_def))
        summary[m] = dict(
            cov1=float(np.mean(solve <= 1.0)),
            cov2=float(np.mean(solve <= 2.0)),
            total_red=float(1.0 - lat.sum() / lat_def.sum()),
            avg_red=avg_red,
            avg_solve=float(solve.mean()),
            max_solve=float(solve.max()),
            eff=avg_red / float(solve.mean()),
        )
    # request-pruning stat (paper §5.2: 86% / 92% of calls pruned)
    tot_req = sum(r["methods"]["hmooc3+"]["lqp_requests"]
                  + r["methods"]["hmooc3+"]["qs_requests"] for r in per_q)
    tot_opp = sum(r["methods"]["hmooc3+"]["lqp_opps"]
                  + r["methods"]["hmooc3+"]["qs_opps"] for r in per_q)
    out = dict(benchmark=benchmark, queries=per_q, summary=summary,
               request_prune_rate=1.0 - tot_req / max(tot_opp, 1))
    common.save_json(out, f"table4_{benchmark}.json")
    return out


def format_table4(results: dict) -> str:
    bm = results["benchmark"]
    rows = [
        ("Coverage (1s)", "cov1", "{:.0%}"),
        ("Coverage (2s)", "cov2", "{:.0%}"),
        ("Total Lat Reduction", "total_red", "{:.0%}"),
        ("Avg Lat Reduction", "avg_red", "{:.0%}"),
        ("Avg Solving Time (s)", "avg_solve", "{:.2f}"),
        ("Max Solving Time (s)", "max_solve", "{:.2f}"),
        ("AvgRed/SolvTime (1/s)", "eff", "{:.2f}"),
    ]
    methods = ("mo-ws", "hmooc3", "hmooc3+")
    lines = [f"Table 4 — {bm.upper()} (paper → measured)",
             f"{'':24s}" + "".join(f"{m:>24s}" for m in methods)]
    for label, key, fmt in rows:
        cells = []
        for m in methods:
            p = PAPER_TABLE4[bm][m][key]
            v = results["summary"][m][key]
            cells.append(f"{fmt.format(p)}→{fmt.format(v)}")
        lines.append(f"{label:24s}" + "".join(f"{c:>24s}" for c in cells))
    lines.append(f"runtime requests pruned: paper {'86%' if bm == 'tpch' else '92%'}"
                 f" → measured {results['request_prune_rate']:.0%}")
    return "\n".join(lines)


def check_table4(results: dict) -> list[str]:
    """Failed gates on the paper's shape; an empty list passes."""
    s = results["summary"]
    mw, h3, h3p = s["mo-ws"], s["hmooc3"], s["hmooc3+"]
    gates = [
        # R1: fine-grained tuning beats the best query-level MOO method
        (h3["total_red"] > mw["total_red"] - 0.02,
         f"R1: HMOOC3 total reduction {h3['total_red']:.1%} not > "
         f"MO-WS {mw['total_red']:.1%} - 2 pts"),
        (h3p["total_red"] >= h3["total_red"] - 0.02,
         f"R1: HMOOC3+ total reduction {h3p['total_red']:.1%} < "
         f"HMOOC3 {h3['total_red']:.1%} - 2 pts"),
        # R2: an order faster to solve, within the cloud budget (allow a small
        # slack for CPU contention when every table runs together)
        (h3["avg_solve"] < mw["avg_solve"],
         f"R2: HMOOC3 avg solve {h3['avg_solve']:.2f} s not < "
         f"MO-WS {mw['avg_solve']:.2f} s"),
        (h3["cov2"] >= 0.9, f"R2: HMOOC3 Coverage (2s) {h3['cov2']:.0%} < 90%"),
        (h3p["cov2"] >= 0.9, f"R2: HMOOC3+ Coverage (2s) {h3p['cov2']:.0%} < 90%"),
        # efficiency (reduction per solving second) dominates MO-WS
        (h3p["eff"] > mw["eff"],
         f"HMOOC3+ AvgRed/SolvTime {h3p['eff']:.2f} not > MO-WS {mw['eff']:.2f}"),
        # reductions are substantial (paper: ~59-64%)
        (h3p["total_red"] > 0.3,
         f"HMOOC3+ total reduction {h3p['total_red']:.1%} not > 30%"),
    ]
    return [msg for ok, msg in gates if not ok]
