"""Table 3 reproduction: model performance with Graph+Regressor.

For each benchmark and each target granularity (subQ, QS, LQP̄), reports
WMAPE / P50 / P90 / Corr for (analytical) latency and IO, plus inference
throughput (K predictions/sec) — the same cells as the paper's Table 3.
The models predict in float32, the dtype they are trained in and both
inference paths serve, so the throughput is the served models'.
"""
from __future__ import annotations

from repro.experiments import common
from repro.model.predictor import eval_metrics, inference_throughput
from repro.model.traces import split_traces

PAPER_TABLE3 = {
    # benchmark -> target -> (lat_wmape, lat_p50, lat_p90, lat_corr,
    #                         io_wmape, io_p50, io_p90, io_corr, xput_k)
    "tpch": {
        "subq": (0.131, 0.029, 0.292, 0.99, 0.025, 0.006, 0.045, 1.00, 70),
        "qs": (0.149, 0.027, 0.353, 0.98, 0.002, 3e-05, 0.004, 1.00, 86),
        "lqp": (0.164, 0.060, 0.337, 0.95, 0.010, 8e-05, 0.002, 1.00, 146),
    },
    "tpcds": {
        "subq": (0.249, 0.030, 0.616, 0.95, 0.098, 0.016, 0.134, 0.99, 60),
        "qs": (0.279, 0.060, 0.651, 0.95, 0.028, 4e-04, 0.023, 1.00, 79),
        "lqp": (0.223, 0.095, 0.459, 0.93, 0.107, 0.028, 0.199, 0.99, 462),
    },
}


def run_table3(spark, benchmark: str) -> dict:
    """Train (or load) the suite and evaluate on the held-out test split."""
    traces = common.get_traces(spark, benchmark)
    suite = common.get_suite(spark, benchmark)
    out: dict = {"benchmark": benchmark, "targets": {}}
    for kind in ("subq", "qs", "lqp"):
        _, _, (Xte, y_lat, y_io) = split_traces(traces, kind)
        tm = getattr(suite, kind)
        lat_pred = tm.latency.predict(Xte)
        io_pred = tm.io.predict(Xte)
        xput = inference_throughput(tm.latency, Xte)
        out["targets"][kind] = {
            "n_test": len(Xte),
            "latency": eval_metrics(y_lat, lat_pred),
            "io": eval_metrics(y_io, io_pred),
            "xput_k_per_s": xput / 1000.0,
        }
    common.save_json(out, f"table3_{benchmark}.json")
    return out


def format_table3(results: dict) -> str:
    """Render paper-vs-measured rows for EXPERIMENTS.md / stdout."""
    bm = results["benchmark"]
    lines = [f"Table 3 — {bm.upper()} (paper → measured)",
             f"{'target':6s} {'':10s} {'WMAPE':>14s} {'P50':>14s} {'P90':>14s} {'Corr':>12s} {'Xput K/s':>16s}"]
    for kind in ("subq", "qs", "lqp"):
        t = results["targets"][kind]
        p = PAPER_TABLE3[bm][kind]
        lines.append(
            f"{kind:6s} latency   "
            f"{p[0]:.3f}→{t['latency']['wmape']:.3f}   "
            f"{p[1]:.3f}→{t['latency']['p50']:.3f}   "
            f"{p[2]:.3f}→{t['latency']['p90']:.3f}   "
            f"{p[3]:.2f}→{t['latency']['corr']:.2f}   "
            f"{p[8]:.0f}→{t['xput_k_per_s']:.0f}")
        lines.append(
            f"{kind:6s} io        "
            f"{p[4]:.3f}→{t['io']['wmape']:.3f}   "
            f"{p[5]:.3f}→{t['io']['p50']:.3f}   "
            f"{p[6]:.3f}→{t['io']['p90']:.3f}   "
            f"{p[7]:.2f}→{t['io']['corr']:.2f}")
    return "\n".join(lines)


def check_table3(results: dict) -> list[str]:
    """Failed gates: every latency model is accurate, tracks the truth and
    is fast enough to score runtime requests. An empty list passes."""
    out = []
    for kind in ("subq", "qs", "lqp"):
        t = results["targets"][kind]
        lat = t["latency"]
        if not lat["wmape"] < 0.5:
            out.append(f"{kind} latency WMAPE {lat['wmape']:.3f} not < 0.5")
        if not lat["corr"] > 0.8:
            out.append(f"{kind} latency Corr {lat['corr']:.3f} not > 0.8")
        if not t["xput_k_per_s"] > 10:
            out.append(f"{kind} throughput {t['xput_k_per_s']:.1f} K/s not > 10 K/s")
    return out
