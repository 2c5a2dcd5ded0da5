"""The table gates on the committed result JSONs: each passes as committed,
and each doctored copy reports exactly the gate it breaks."""
import copy
import json
import os

import pytest

from repro.experiments.expt6 import check_expt6
from repro.experiments.live import check_live
from repro.experiments.table3 import check_table3
from repro.experiments.table4 import check_table4
from repro.experiments.table5 import check_table5

RESULTS = os.path.join(os.path.dirname(__file__), "..", "results")
CHECKS = {"table3": check_table3, "table4": check_table4, "table5": check_table5,
          "expt6": check_expt6, "live": check_live}
# table -> benchmarks it has committed results for
BENCHMARKS = {t: ["tpch"] if t == "live" else ["tpch", "tpcds"] for t in CHECKS}


def _committed(table: str, benchmark: str) -> dict:
    with open(os.path.join(RESULTS, f"{table}_{benchmark}.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("table,bm", [(t, bm) for t in sorted(CHECKS) for bm in BENCHMARKS[t]])
def test_committed_results_pass(table, bm):
    assert CHECKS[table](_committed(table, bm)) == []


def _parent(res, path: str):
    """The container holding ``path``'s last key, and that key."""
    *keys, last = [int(k) if k.isdigit() else k for k in path.split("/")]
    for k in keys:
        res = res[k]
    return res, last


def _get(res, path: str):
    parent, key = _parent(res, path)
    return parent[key]


# (id, table, {path: new value, or a function of the committed results
# giving it}, phrase of the one problem reported). Values sit on the gate's
# boundary, so a loosened threshold or a </<= swap is caught too.
DOCTORED = [
    ("t3-subq-wmape", "table3", {"targets/subq/latency/wmape": 0.5}, "subq latency WMAPE"),
    ("t3-qs-corr", "table3", {"targets/qs/latency/corr": 0.8}, "qs latency Corr"),
    ("t3-lqp-xput", "table3", {"targets/lqp/xput_k_per_s": 10}, "lqp throughput"),
    ("t4-r1-mows", "table4",
     {"summary/hmooc3/total_red": lambda r: _get(r, "summary/mo-ws/total_red") - 0.02},
     "R1: HMOOC3 total reduction"),
    ("t4-r1-plus", "table4",
     {"summary/hmooc3+/total_red": lambda r: _get(r, "summary/hmooc3/total_red") - 0.021},
     "R1: HMOOC3+ total reduction"),
    ("t4-r2-solve", "table4",
     {"summary/hmooc3/avg_solve": lambda r: _get(r, "summary/mo-ws/avg_solve")},
     "R2: HMOOC3 avg solve"),
    ("t4-r2-cov2", "table4", {"summary/hmooc3/cov2": 0.89}, "R2: HMOOC3 Coverage (2s)"),
    ("t4-r2-cov2-plus", "table4", {"summary/hmooc3+/cov2": 0.89}, "R2: HMOOC3+ Coverage (2s)"),
    ("t4-eff", "table4", {"summary/hmooc3+/eff": lambda r: _get(r, "summary/mo-ws/eff")},
     "HMOOC3+ AvgRed/SolvTime"),
    ("t4-total-red", "table4",
     {"summary/mo-ws/total_red": 0.0, "summary/hmooc3/total_red": 0.3,
      "summary/hmooc3+/total_red": 0.3},
     "HMOOC3+ total reduction 30.0% not > 30%"),
    ("t5-r5-lat", "table5",
     {"prefs/1.0,0.0/hmooc3+/0": lambda r: _get(r, "prefs/0.0,1.0/hmooc3+/0") + 0.02},
     "R5: HMOOC3+ Δlat"),
    ("t5-r5-cost", "table5",
     {"prefs/0.0,1.0/hmooc3+/1": lambda r: _get(r, "prefs/1.0,0.0/hmooc3+/1") + 0.02},
     "R5: HMOOC3+ Δcost"),
    ("t5-r4", "table5",
     {"prefs/0.9,0.1/hmooc3+/0": lambda r: _get(r, "prefs/0.9,0.1/so-fw/0") + 0.05},
     "R4: at (0.9,0.1)"),
] + [
    (f"e6-{rival}", "expt6",
     {f"methods/{rival}/hv": lambda r: _get(r, "methods/hmooc3/hv") + 0.031}, rival)
    for rival in ("ws-fine", "evo-fine", "pf-fine")
] + [
    ("e6-solve", "expt6", {"methods/hmooc3/avg_solve": 2.0}, "HMOOC3 avg solve"),
    ("live-off", "live", {"runs/broadcast-disabled/joins/BHJ": 1}, "with broadcast disabled"),
    ("live-tuned", "live", {"runs/tuned/joins/BHJ": 0}, "under the tuned"),
    ("live-rows", "live",
     {"runs/tuned/rows/0/revenue": lambda r: _get(r, "runs/tuned/rows/0/revenue") + 0.01},
     "return different rows"),
]


@pytest.mark.parametrize("table,edits,phrase,bm",
                         [(*d[1:], bm) for d in DOCTORED for bm in BENCHMARKS[d[1]]],
                         ids=[f"{d[0]}-{bm}" for d in DOCTORED for bm in BENCHMARKS[d[1]]])
def test_doctored_results_fail_one_gate(table, edits, phrase, bm):
    committed = _committed(table, bm)
    res = copy.deepcopy(committed)
    for path, value in edits.items():
        parent, key = _parent(res, path)
        parent[key] = value(committed) if callable(value) else value
    problems = CHECKS[table](res)
    assert len(problems) == 1 and phrase in problems[0], problems
