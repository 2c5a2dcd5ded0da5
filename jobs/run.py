"""Reproduce one evaluation table, or build the model-training traces.

Usage: spark-submit jobs/run.py {traces,table3,table4,table5,expt6,live} [tpch|tpcds|both] [--force]

``traces`` generates (or, with ``--force``, regenerates) the cached
training traces. ``table3``-``expt6`` train or load the model suites and
run their ``repro.experiments`` module; ``live`` times TPC-H-lite Q3 on the
live Spark session (TPC-H only). Each prints its table with its wall time,
then the job lists every failed gate (the module's ``check_*``) and exits
non-zero if there is one. Spark builds the traces and is otherwise idle. Under ``spark-submit`` the session
comes from the submitted context; under plain ``python jobs/run.py`` a
local master is configured first (same settings as conftest.py).
"""
import argparse
import os
import sys
import time


def get_spark():
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --driver-memory "
        f"{os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("repro-job")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )


def traces(spark, benchmark: str, force: bool) -> list[str]:
    from repro.experiments import common

    tr = common.get_traces(spark, benchmark, force=force)
    print(f"{benchmark}: {len(tr)} trace rows -> {common.traces_path(benchmark)}\n"
          f"{tr.groupby('kind').size()}")
    return []


def _tables() -> dict:
    """Table command -> (run(spark, benchmark), format, check)."""
    from repro.experiments import common, expt6, live, table3, table4, table5

    def on_suite(run):
        return lambda spark, bm: run(bm, common.get_suite(spark, bm))

    return {
        "table3": (table3.run_table3, table3.format_table3, table3.check_table3),
        "table4": (on_suite(table4.run_table4), table4.format_table4, table4.check_table4),
        "table5": (on_suite(table5.run_table5), table5.format_table5, table5.check_table5),
        "expt6": (on_suite(expt6.run_expt6), expt6.format_expt6, expt6.check_expt6),
        "live": (lambda spark, bm: live.run_live(spark), live.format_live, live.check_live),
    }


def _table(name: str):
    def command(spark, benchmark: str, force: bool) -> list[str]:
        run, fmt, check = _tables()[name]
        t0 = time.perf_counter()
        res = run(spark, benchmark)
        print(fmt(res))
        print(f"({name} {benchmark}: {time.perf_counter() - t0:.1f} s wall)")
        return check(res)
    return command


COMMANDS = {"traces": traces,
            **{name: _table(name) for name in ("table3", "table4", "table5", "expt6", "live")}}


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("benchmark", nargs="?", default="both",
                    choices=["tpch", "tpcds", "both"])
    ap.add_argument("--force", action="store_true",
                    help="traces: regenerate even if cached")
    args = ap.parse_args(argv)
    benchmarks = ["tpch", "tpcds"] if args.benchmark == "both" else [args.benchmark]
    if args.command == "live":  # TPC-H-lite Q3 only
        if args.benchmark == "tpcds":
            ap.error("live runs on tpch only")
        benchmarks = ["tpch"]
    spark = get_spark()
    failed = []
    for bm in benchmarks:
        problems = COMMANDS[args.command](spark, bm, args.force)
        failed += [f"{args.command} {bm}: {p}" for p in problems]
        print()
    if failed:
        sys.exit("\n  ".join([f"{len(failed)} gate(s) failed:", *failed]))


if __name__ == "__main__":
    main()
