"""Reproduce one evaluation table, or build the model-training traces.

Usage: spark-submit jobs/run.py {traces,table3,table4,table5,expt6} [tpch|tpcds|both] [--force]

``traces`` generates (or, with ``--force``, regenerates) the cached
training traces; the table commands train or load the model suites and
print the table. Spark builds the traces and is otherwise idle. Under
``spark-submit`` the session comes from the submitted context; under plain
``python jobs/run.py`` a local master is configured first (same settings as
conftest.py).
"""
import argparse
import os


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


def traces(spark, benchmark: str, force: bool) -> str:
    from repro.experiments import common

    tr = common.get_traces(spark, benchmark, force=force)
    return (f"{benchmark}: {len(tr)} trace rows -> {common.traces_path(benchmark)}\n"
            f"{tr.groupby('kind').size()}")


def table3(spark, benchmark: str, force: bool) -> str:
    from repro.experiments.table3 import format_table3, run_table3

    return format_table3(run_table3(spark, benchmark))


def table4(spark, benchmark: str, force: bool) -> str:
    from repro.experiments import common
    from repro.experiments.table4 import format_table4, run_table4

    return format_table4(run_table4(benchmark, common.get_suite(spark, benchmark)))


def table5(spark, benchmark: str, force: bool) -> str:
    from repro.experiments import common
    from repro.experiments.table5 import format_table5, run_table5

    return format_table5(run_table5(benchmark, common.get_suite(spark, benchmark)))


def expt6(spark, benchmark: str, force: bool) -> str:
    from repro.experiments import common
    from repro.experiments.expt6 import format_expt6, run_expt6

    return format_expt6(run_expt6(benchmark, common.get_suite(spark, benchmark)))


COMMANDS = {f.__name__: f for f in (traces, table3, table4, table5, expt6)}


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("benchmark", nargs="?", default="both",
                    choices=["tpch", "tpcds", "both"])
    ap.add_argument("--force", action="store_true",
                    help="traces: regenerate even if cached")
    args = ap.parse_args(argv)
    benchmarks = ["tpch", "tpcds"] if args.benchmark == "both" else [args.benchmark]
    spark = get_spark()
    for bm in benchmarks:
        print(COMMANDS[args.command](spark, bm, args.force))
        print()


if __name__ == "__main__":
    main()
