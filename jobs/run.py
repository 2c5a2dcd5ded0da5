"""Reproduce evaluation tables, or build the model-training traces.

Usage: spark-submit jobs/run.py COMMAND [COMMAND ...] [tpch|tpcds|both] [--force]

COMMAND is traces, table3, table4, table5, expt6 or live; the commands run
in the order given, each on every chosen benchmark. ``traces`` generates
(or, with ``--force``, regenerates) the cached training traces.
``table3``-``expt6`` train or load the model suites and run their
``repro.experiments`` module; ``live`` times TPC-H-lite Q3 on the live
Spark session (TPC-H only). Each benchmark's queries are compiled once per
process (``common.compile_benchmark``), and Tables 4, 5 and Expt 6 all
recommend from that compile set. Each command prints its wall time:
``traces`` after its row counts per kind, every other command after its
table; then the job lists every failed gate (the modules' ``check_*``)
and exits non-zero if there is one. Spark builds the traces
and is otherwise idle. The driver keeps the default BLAS pool of nproc
threads, which leaves no core idle, so ``common.train_suite`` fits a
suite's six models one after another (``common.fit_workers``) and each
HMOOC3 solve scores its row blocks one after another (``hmooc.solve_workers``;
both read ``mlp.idle_core_threads``). Under
``spark-submit`` the session comes from the submitted context; under
plain ``python jobs/run.py`` a local master is configured first (same
settings as conftest.py).
"""
import argparse
import os
import sys
import time

BENCHMARKS = ("tpch", "tpcds")


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


class Job:
    """One invocation's shared inputs: the Spark session, ``--force`` and,
    per benchmark, the compile set (suite loaded and queries compiled on
    first use)."""

    def __init__(self, spark, force: bool):
        self.spark, self.force = spark, force
        self._compiled: dict = {}

    def compiled(self, benchmark: str):
        from repro.experiments import common

        if benchmark not in self._compiled:
            suite = common.get_suite(self.spark, benchmark)
            t0 = time.perf_counter()
            cs = common.compile_benchmark(benchmark, suite)
            print(f"(compile {benchmark}: {len(cs.queries)} queries, "
                  f"{time.perf_counter() - t0:.1f} s wall)")
            self._compiled[benchmark] = cs
        return self._compiled[benchmark]


def traces(job: Job, benchmark: str) -> list[str]:
    from repro.experiments import common

    t0 = time.perf_counter()
    tr = common.get_traces(job.spark, benchmark, force=job.force)
    print(f"{benchmark}: {len(tr)} trace rows -> {common.traces_path(benchmark)}\n"
          f"{tr.groupby('kind').size()}")
    print(f"(traces {benchmark}: {time.perf_counter() - t0:.1f} s wall)")
    return []


def _tables() -> dict:
    """Table command -> (run(job, benchmark), format, check)."""
    from repro.experiments import expt6, live, table3, table4, table5

    def on_compiled(run):
        return lambda job, bm: run(job.compiled(bm))

    return {
        "table3": (lambda job, bm: table3.run_table3(job.spark, bm),
                   table3.format_table3, table3.check_table3),
        "table4": (on_compiled(table4.run_table4), table4.format_table4, table4.check_table4),
        "table5": (on_compiled(table5.run_table5), table5.format_table5, table5.check_table5),
        "expt6": (on_compiled(expt6.run_expt6), expt6.format_expt6, expt6.check_expt6),
        "live": (lambda job, bm: live.run_live(job.spark), live.format_live, live.check_live),
    }


def _table(name: str):
    def command(job: Job, benchmark: str) -> list[str]:
        run, fmt, check = _tables()[name]
        t0 = time.perf_counter()
        res = run(job, benchmark)
        print(fmt(res))
        print(f"({name} {benchmark}: {time.perf_counter() - t0:.1f} s wall)")
        return check(res)
    return command


COMMANDS = {"traces": traces,
            **{name: _table(name) for name in ("table3", "table4", "table5", "expt6", "live")}}


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", nargs="+",
                    help=f"one or more of {', '.join(COMMANDS)}, then optionally "
                         "tpch, tpcds or both (default both)")
    ap.add_argument("--force", action="store_true",
                    help="traces: regenerate even if cached")
    args = ap.parse_args(argv)
    commands, benchmark = args.command, "both"
    if commands[-1] in (*BENCHMARKS, "both"):
        *commands, benchmark = commands
    bad = [c for c in commands if c not in COMMANDS]
    if not commands or bad:
        ap.error(f"invalid command(s) {bad}: choose from {', '.join(COMMANDS)}")
    if "live" in commands and benchmark == "tpcds":
        ap.error("live runs on tpch only")
    benchmarks = list(BENCHMARKS) if benchmark == "both" else [benchmark]
    job = Job(get_spark(), args.force)
    failed = []
    for command in commands:
        for bm in ["tpch"] if command == "live" else benchmarks:  # TPC-H-lite Q3 only
            problems = COMMANDS[command](job, bm)
            failed += [f"{command} {bm}: {p}" for p in problems]
            print()
    if failed:
        sys.exit("\n  ".join([f"{len(failed)} gate(s) failed:", *failed]))


if __name__ == "__main__":
    main()
