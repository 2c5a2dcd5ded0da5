"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload {compile,adapt,train} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The first ``compile`` or ``adapt`` run
for a given source tree builds ``.perfbench_cache/`` (``build.py``: model
training and compile-time recommendations, a few minutes); later runs
reuse it. Standard output ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before
it record the run environment (``env:``) and workload details
(``detail:``). The exit code is 0 only when every output check passed.
"""
import argparse
import hashlib
import json
import math
import resource
import subprocess
import sys
from pathlib import Path

import benchenv

BUILD_TIMEOUT_S = 850


def _results_snapshot() -> dict:
    """Digest of every committed result file, to prove a run left them alone."""
    d = benchenv.ROOT / "results"
    return {str(p.relative_to(d)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.rglob("*")) if p.is_file()} if d.is_dir() else {}


def _value(v: float) -> float | None:
    return float(v) if math.isfinite(v) else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("compile", "adapt", "train"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        digest = benchenv.source_digest()
    except benchenv.MissingProgram as e:
        print(f"run: {e}", file=sys.stderr)
        return 2
    cache = benchenv.cache_dir(digest)
    if args.workload != "train" and not (cache / "build.json").is_file():
        subprocess.run([sys.executable, str(Path(__file__).with_name("build.py"))],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)

    benchenv.pin(cache / "results")
    before = _results_snapshot()
    import report
    import workloads

    ctx = workloads.Ctx(seed=args.seed, seconds=args.seconds, traced=bool(args.trace))
    if ctx.traced:
        ctx.tracer.instrument(workloads.TARGETS)
    try:
        out = workloads.RUNNERS[args.workload](ctx)
    finally:
        ctx.tracer.restore()
    if _results_snapshot() != before:
        out.problems.append("results/ changed during the run")
    out.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if ctx.traced:
        values = report.layer_metrics(
            ctx.tracer, {**out.layer_extra, "overhead_frac": ctx.overhead_frac})
        defs = report.LAYER
        out.detail["traced_e2e"] = out.e2e
        benchenv.OUT.mkdir(exist_ok=True)
        path = benchenv.OUT / f"spans-{args.workload}-seed{args.seed}.json"
        ctx.tracer.dump(path, {"workload": args.workload, "seed": args.seed})
        out.detail["spans_file"] = str(path.relative_to(benchenv.ROOT))
    else:
        values = out.e2e
        defs = report.E2E
    correct = out.failed == 0 and not out.problems
    for p in out.problems:
        print(f"check failed: {p}", file=sys.stderr)
    print("env: " + json.dumps(benchenv.record(digest)))
    print("detail: " + json.dumps(out.detail, default=float))
    print(json.dumps({
        "correct": correct, "attempted": out.attempted, "failed": out.failed,
        "metrics": {name: {"value": _value(values[name]), "unit": unit}
                    for name, unit, _ in defs}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
