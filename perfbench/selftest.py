"""Fast self-test of the benchmark harness (no models, no Spark).

    python3 perfbench/selftest.py
"""
import json
import time
import unittest

import benchenv

benchenv.pin(benchenv.CACHE / "selftest-results")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import report  # noqa: E402
import workloads  # noqa: E402
from repro.moo.hmooc import QueryConfig  # noqa: E402
from repro.params import C_IDS, P_IDS, S_IDS, default_conf  # noqa: E402
import refclock  # noqa: E402
from refclock import RefClock  # noqa: E402
from spans import Tracer  # noqa: E402


class MetricNames(unittest.TestCase):
    def test_match_benchmark_json(self):
        with open(benchenv.ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
        for key, defs in (("end_to_end", report.E2E), ("per_layer", report.LAYER)):
            declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
            self.assertEqual(declared, defs, key)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.RUNNERS))


class CompileCheck(unittest.TestCase):
    FRONT = np.array([[1.0, 5.0], [2.0, 3.0], [4.0, 1.0]])

    def test_accepts_front(self):
        self.assertEqual(checks.pareto_problems(self.FRONT), [])

    def test_rejects_dominated_point(self):
        F = np.vstack([self.FRONT, [[3.0, 4.0]]])   # dominated by (2, 3)
        self.assertTrue(checks.pareto_problems(F))

    def test_rejects_empty_and_nonfinite(self):
        self.assertTrue(checks.pareto_problems(np.zeros((0, 2))))
        self.assertTrue(checks.pareto_problems([[1.0, np.nan]]))

    def _qc(self, conf):
        return QueryConfig(theta_c={k: conf[k] for k in C_IDS},
                           theta_p={0: {k: conf[k] for k in P_IDS}},
                           theta_s={0: {k: conf[k] for k in S_IDS}})

    def test_accepts_defaults(self):
        conf = default_conf()
        self.assertEqual(checks.recommendation_problems(self.FRONT, self._qc(conf), conf), [])

    def test_rejects_out_of_domain_knob(self):
        for kid, bad in (("k1", 99.0), ("s5", 8.0), ("k3", 2.5)):
            conf = {**default_conf(), kid: bad}
            with self.subTest(kid=kid):
                self.assertTrue(checks.domain_problems(conf))
                self.assertTrue(checks.recommendation_problems(
                    self.FRONT, self._qc(default_conf()), conf))

    def test_rejects_incomplete_conf(self):
        conf = default_conf()
        del conf["s11"]
        self.assertTrue(checks.domain_problems(conf, complete=True))


class TrainCheck(unittest.TestCase):
    def test_task_rows_must_match_spark(self):
        rows = [{"latency": 1.5}, {"latency": 0.2}]
        self.assertEqual(checks.task_problems(rows, 2), [])
        self.assertTrue(checks.task_problems(rows, 3))
        self.assertTrue(checks.task_problems([{"latency": float("nan")}], 1))


class _Fake:
    def __init__(self):
        self.lqp_out = object()
        self.qs_out = {"s10": 0.5, "s11": 1.0}

    def on_collapsed_lqp(self, dag, sq_id, known, theta_p):
        return self.lqp_out

    def on_query_stage(self, dag, sq_id, input_bytes, conf):
        return self.qs_out


class DelegatingPlugin(unittest.TestCase):
    def test_forwards_return_values_unchanged(self):
        inner = _Fake()
        plugin = workloads.TimedPlugin(inner, init_s=0.001)
        self.assertIs(plugin.on_collapsed_lqp(None, 1, {}, {"s1": 1.0}), inner.lqp_out)
        self.assertIs(plugin.on_query_stage(None, 1, 0.0, {"s10": 0.2, "s11": 1.0}),
                      inner.qs_out)
        inner.lqp_out = inner.qs_out = None
        self.assertIsNone(plugin.on_collapsed_lqp(None, 1, {}, {}))
        self.assertIsNone(plugin.on_query_stage(None, 1, 0.0, {}))
        self.assertEqual(plugin.retunes, 2)
        self.assertGreaterEqual(plugin.overhead_s, 0.001)


class Spans(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tr = Tracer()
        with tr.span("a.outer"):
            with tr.span("b.inner"):
                time.sleep(0.02)
            time.sleep(0.01)
        outer, inner = tr.self_times()
        self.assertGreaterEqual(inner, 0.02)
        self.assertLess(outer, 0.02)
        self.assertEqual(tr.spans[1][3], 0)   # parent of inner is outer

    def test_instrument_restores_and_pauses(self):
        ns = {"f": lambda x: 2 * x}
        orig = ns["f"]
        tr = Tracer()
        tr.instrument([(ns, "f", "x.f", lambda x: x)])
        self.assertEqual(ns["f"](3), 6)
        with tr.paused():
            ns["f"](4)
        tr.restore()
        self.assertIs(ns["f"], orig)
        self.assertEqual([(s[0], s[5]) for s in tr.spans], [("x.f", 3)])

    def test_layer_metrics_cover_every_name(self):
        m = report.layer_metrics(Tracer(), {})
        self.assertEqual(sorted(m), sorted(n for n, _, _ in report.LAYER))


class ReferenceClock(unittest.TestCase):
    def test_operation_is_scaled_by_the_ticks_around_it(self):
        c = RefClock()
        c.ticks = [1.0, 2.0, 4.0, 8.0, 100.0]
        nominal = refclock.KERNELS["mixed"][1]
        # between ticks 1 and 2: median of ticks 0..3
        self.assertAlmostEqual(c.scaled(6.0, 1), 6.0 * nominal / 3.0)
        # after the last ticks: median of ticks 3 and 4
        self.assertAlmostEqual(c.scaled(5.0, 4), 5.0 * nominal / 54.0)

    def test_tick_times_the_kernel(self):
        for kind in refclock.KERNELS:
            c = RefClock(kind)
            self.assertEqual([c.tick(), c.tick(repeats=3)], [0, 1])
            self.assertTrue(all(t > 0 for t in c.ticks))


if __name__ == "__main__":
    unittest.main()
