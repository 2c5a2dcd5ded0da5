"""One-off build of the benchmark's per-checkout cache.

Usage: ``python3 perfbench/build.py`` (``run.py`` calls it when the cache
for the current sources is missing).

Trains the TPC-H and TPC-DS model suites with the repo's own pipeline
(``common.get_suite``: Spark trace generation, then six MLPs each) and
computes every query's HMOOC3 compile-time recommendation under each
Table-5 preference. Everything lands in ``.perfbench_cache/<digest>/``,
so no run ever reads models built by other code, and ``results/`` is
never written.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import time

import benchenv


def build(digest: str) -> None:
    final = benchenv.cache_dir(digest)
    work = benchenv.CACHE / f"build-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    benchenv.pin(work / "results", blas_threads=benchenv.BUILD_BLAS_THREADS)

    from repro.core.plan import partition_subqs
    from repro.core.workloads import benchmark_queries, build_query
    from repro.experiments import common
    from repro.experiments.table5 import PREFS
    from repro.tuner import compile_hmooc3, submit_conf

    t0 = time.perf_counter()
    spark = benchenv.start_spark()
    try:
        suites = {bm: common.get_suite(spark, bm) for bm in ("tpch", "tpcds")}
    finally:
        benchenv.stop_spark(spark)
    t_models = time.perf_counter() - t0

    recs: dict = {}
    for bm, suite in suites.items():
        for q in benchmark_queries(bm):
            dag = partition_subqs(build_query(bm, q))
            res, _ = compile_hmooc3(dag, suite, seed=0)
            for pref in PREFS:
                _, qc = res.recommend(pref)
                recs[f"{bm}/{q}/{pref[0]},{pref[1]}"] = {
                    "theta_c": qc.theta_c, "conf": submit_conf(qc, dag)}
    with open(work / "recs.json", "w") as f:
        json.dump(recs, f)
    with open(work / "build.json", "w") as f:
        json.dump({"source_sha256": digest, "models_s": t_models,
                   "total_s": time.perf_counter() - t0}, f)
    for old in benchenv.CACHE.iterdir():
        if old.is_dir() and old.name not in ("tmp", work.name):
            shutil.rmtree(old, ignore_errors=True)
    os.rename(work, final)


if __name__ == "__main__":
    try:
        build(benchenv.source_digest())
    except benchenv.MissingProgram as e:
        sys.exit(f"build: {e}")
