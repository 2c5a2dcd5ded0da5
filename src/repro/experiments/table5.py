"""Table 5 reproduction: latency and cost adapting to preferences.

For each preference vector (w_latency, w_cost) ∈ {(0,1), (0.1,0.9),
(0.5,0.5), (0.9,0.1), (1,0)}, report the average per-query percentage
*change* vs. Spark-default execution (negative = reduction) in latency and
cost, for SO-FW (fixed-weight single-objective, the common practical
baseline) and HMOOC3+ (ours). The paper's shape: HMOOC3+ moves
monotonically along the frontier as preferences shift; SO-FW barely
adapts and often increases cost. Both recommend per preference from one
preference-independent solve per query: HMOOC3's from the ``CompileSet``,
SO-FW's from one sample predicted once for all of ``PREFS``.
"""
from __future__ import annotations

import numpy as np

from repro.experiments import common
from repro.moo.baselines import so_fixed_weights
from repro.params import default_conf
from repro.simspark.executor import run_query
from repro.tuner import run_recommended

PREFS = [(0.0, 1.0), (0.1, 0.9), (0.5, 0.5), (0.9, 0.1), (1.0, 0.0)]

PAPER_TABLE5 = {
    # pref -> method -> (Δlatency, Δcost) vs default (negative = reduction)
    "tpch": {
        (0.0, 1.0): {"so-fw": (0.20, -0.11), "hmooc3+": (-0.17, -0.09)},
        (0.1, 0.9): {"so-fw": (0.01, 0.01), "hmooc3+": (-0.25, -0.05)},
        (0.5, 0.5): {"so-fw": (-0.01, 0.25), "hmooc3+": (-0.43, 0.02)},
        (0.9, 0.1): {"so-fw": (-0.13, 0.27), "hmooc3+": (-0.52, 0.09)},
        (1.0, 0.0): {"so-fw": (-0.14, 0.44), "hmooc3+": (-0.52, 0.12)},
    },
    "tpcds": {
        (0.0, 1.0): {"so-fw": (-0.06, 0.64), "hmooc3+": (-0.47, -0.22)},
        (0.1, 0.9): {"so-fw": (-0.28, 1.05), "hmooc3+": (-0.51, -0.12)},
        (0.5, 0.5): {"so-fw": (-0.28, 1.28), "hmooc3+": (-0.57, 0.16)},
        (0.9, 0.1): {"so-fw": (-0.34, 1.39), "hmooc3+": (-0.57, 0.45)},
        (1.0, 0.0): {"so-fw": (-0.26, 1.44), "hmooc3+": (-0.58, 0.50)},
    },
}


def run_table5(compiled: common.CompileSet) -> dict:
    prefs_out: dict = {}
    per_q = [(obj.dag, res, so_fixed_weights(obj, PREFS),
              run_query(obj.dag, default_conf(), noise_seed=2000 + qi))
             for qi, (res, obj) in enumerate(compiled.queries.values())]

    for pref in PREFS:
        dl_so, dc_so, dl_h, dc_h = [], [], [], []
        for qi, (dag, res, so_fw, d) in enumerate(per_q):
            noise = 2000 + qi
            so = run_recommended(dag, so_fw[pref], pref, noise_seed=noise).run
            h3p = run_recommended(dag, res, pref, noise_seed=noise,
                                  plugin_suite=compiled.suite).run
            dl_so.append(so.latency_s / d.latency_s - 1.0)
            dc_so.append(so.cost_usd / d.cost_usd - 1.0)
            dl_h.append(h3p.latency_s / d.latency_s - 1.0)
            dc_h.append(h3p.cost_usd / d.cost_usd - 1.0)
        prefs_out[f"{pref[0]:.1f},{pref[1]:.1f}"] = {
            "so-fw": (float(np.mean(dl_so)), float(np.mean(dc_so))),
            "hmooc3+": (float(np.mean(dl_h)), float(np.mean(dc_h))),
        }
    out = dict(benchmark=compiled.benchmark, prefs=prefs_out)
    common.save_json(out, f"table5_{compiled.benchmark}.json")
    return out


def format_table5(results: dict) -> str:
    bm = results["benchmark"]
    lines = [f"Table 5 — {bm.upper()}  Δlatency / Δcost vs default (paper → measured)",
             f"{'pref (lat,cost)':16s} {'SO-FW':>40s} {'HMOOC3+':>40s}"]
    for pref in PREFS:
        key = f"{pref[0]:.1f},{pref[1]:.1f}"
        row = results["prefs"][key]
        p = PAPER_TABLE5[bm][pref]
        cells = []
        for m in ("so-fw", "hmooc3+"):
            pl, pc = p[m]
            ml, mc = row[m]
            cells.append(f"{pl:+.0%}/{pc:+.0%} → {ml:+.0%}/{mc:+.0%}")
        lines.append(f"{key:16s} {cells[0]:>40s} {cells[1]:>40s}")
    return "\n".join(lines)


def check_table5(results: dict) -> list[str]:
    """Failed gates on R4/R5; an empty list passes."""
    rows = {pref: results["prefs"][f"{pref[0]:.1f},{pref[1]:.1f}"] for pref in PREFS}
    cost_corner, speed_corner = rows[(0.0, 1.0)]["hmooc3+"], rows[(1.0, 0.0)]["hmooc3+"]
    strong = rows[(0.9, 0.1)]
    gates = [
        # R5: HMOOC3+ latency reduction grows as preference shifts to speed
        (speed_corner[0] < cost_corner[0] + 0.02,
         f"R5: HMOOC3+ Δlat at (1,0) {speed_corner[0]:+.1%} not < "
         f"Δlat at (0,1) {cost_corner[0]:+.1%} + 2 pts"),
        # cost-preferring corner actually saves cost vs the speed corner
        (cost_corner[1] < speed_corner[1] + 0.02,
         f"R5: HMOOC3+ Δcost at (0,1) {cost_corner[1]:+.1%} not < "
         f"Δcost at (1,0) {speed_corner[1]:+.1%} + 2 pts"),
        # R4: with the strong speed preference, HMOOC3+ cuts latency far more
        # than SO-FW
        (strong["hmooc3+"][0] < strong["so-fw"][0] + 0.05,
         f"R4: at (0.9,0.1) HMOOC3+ Δlat {strong['hmooc3+'][0]:+.1%} not < "
         f"SO-FW Δlat {strong['so-fw'][0]:+.1%} + 5 pts"),
    ]
    return [msg for ok, msg in gates if not ok]
