"""Run environment of the benchmark: paths, pinned threads, Spark settings.

Everything here must run before ``numpy`` or ``repro`` is imported:
``repro.experiments.common.RESULTS_DIR`` and the BLAS thread pools are
fixed at import time. This module imports only the standard library.
"""
from __future__ import annotations

import hashlib
import os
import platform
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]   # the checkout
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"            # gitignored; one dir per source hash
OUT = ROOT / ".perfbench_out"                # span dumps of traced runs

# Spark task slots in local mode. Traces, and so the trained models, depend
# on this number (ROADMAP 1b), so it is fixed rather than ``local[*]``.
SPARK_CORES = max(1, min(4, os.cpu_count() or 1))
# BLAS threads of a measured run, in the driver and in each Spark Python
# worker, so slots × threads stays within nproc. One thread also keeps
# timings steady: a multi-threaded BLAS call waits for its slowest thread,
# and on a shared host a small-batch inference then ran up to 10x slower
# whenever other processes held the other cores. The build, which is not
# measured, gives its driver every core; its Spark workers keep one each.
BLAS_THREADS = 1
BUILD_BLAS_THREADS = os.cpu_count() or 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def source_digest() -> str:
    """sha256 over the program's sources, the build scripts and core count.

    Keys the per-checkout cache, so models and compile-time
    recommendations always come from the code under test.
    """
    pkg = SRC / "repro"
    if not (pkg / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {pkg}")
    h = hashlib.sha256()
    files = sorted(pkg.rglob("*.py")) + [Path(__file__), Path(__file__).with_name("build.py")]
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    h.update(f"spark_cores={SPARK_CORES}".encode())
    return h.hexdigest()


def cache_dir(digest: str) -> Path:
    return CACHE / digest[:16]


def pin(results_dir: Path, blas_threads: int = BLAS_THREADS) -> None:
    """Set every environment variable the program reads at import time."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ["REPRO_RESULTS_DIR"] = str(results_dir)
    os.environ.update({v: str(blas_threads) for v in THREAD_VARS})
    tmp = CACHE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {spark_master()} --driver-memory 2g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf {shlex.quote(f'spark.driver.extraJavaOptions={java_opts}')} "
        "pyspark-shell")


def spark_master() -> str:
    return f"local[{SPARK_CORES}]"


def start_spark():
    """A local SparkSession with the repo's job settings, logging quiet.

    The JVM, and the Python workers it forks, copy the environment at
    launch, so they get ``BLAS_THREADS`` each; the driver's own BLAS pool
    was sized when numpy was imported and keeps the size ``pin`` gave it.
    """
    from pyspark.sql import SparkSession

    driver = {v: os.environ.get(v, str(BLAS_THREADS)) for v in THREAD_VARS}
    os.environ.update({v: str(BLAS_THREADS) for v in THREAD_VARS})
    try:
        spark = (SparkSession.builder.appName("perfbench")
                 .config("spark.sql.shuffle.partitions", "64")
                 .config("spark.sql.execution.arrow.pyspark.enabled", "true")
                 .getOrCreate())
    finally:
        os.environ.update(driver)
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()   # the JVM exits when this pipe breaks
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
    SparkContext._gateway = None
    SparkContext._jvm = None


def _version(mod: str) -> str | None:
    try:
        from importlib.metadata import version
        return version(mod)
    except Exception:  # noqa: BLE001 - a missing package is recorded as None
        return None


def record(digest: str) -> dict:
    """What a result row needs to be compared with another one."""
    commit = None
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass   # a checkout that is not a git repository
    return {
        "commit": commit,
        "source_sha256": digest,
        "nproc": os.cpu_count(),
        "spark_master": spark_master(),
        "blas_threads": {"driver": BLAS_THREADS, "spark_workers": BLAS_THREADS,
                         "build_driver": BUILD_BLAS_THREADS,
                         "vars": list(THREAD_VARS)},
        "python": platform.python_version(),
        "packages": {p: _version(p) for p in
                     ("numpy", "pandas", "pyarrow", "pyspark")},
        # The simulator salts its noise with hash(plan name), so an unset
        # PYTHONHASHSEED draws different noise each process (ROADMAP 1a).
        # hash() of a fixed string fingerprints the salt this run used.
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "hash_salt_probe": hash("repro"),
        "note": "traces and models depend on the Spark core count; "
                "compare only runs made at the same nproc",
    }
