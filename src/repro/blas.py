"""How the program runs OpenBLAS. Model bits depend on its thread count and
kernel, which ``pin`` fixes; the pipeline (``jobs/run.py``) and the test
session (the root ``conftest.py``) call it before numpy loads, so this
module imports only the standard library. ``idle_core_threads`` sizes the
suite fits' and the compile-time solve's thread pools.
"""
from __future__ import annotations

import os

# The variables that size OpenBLAS's thread pool, in the order it reads them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def cpu_flags() -> set[str]:
    """The CPU's feature flags from ``/proc/cpuinfo``; empty where it is
    not readable."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def pin() -> None:
    """One OpenBLAS thread, and the ``Haswell`` kernel when the CPU has
    AVX2 and FMA (the kernel needs both)."""
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    if {"avx2", "fma"} <= cpu_flags():
        os.environ["OPENBLAS_CORETYPE"] = "Haswell"


def idle_core_threads() -> int:
    """Threads that can run BLAS work side by side without sharing cores:
    ``nproc // BLAS threads``, at least 1. The pool size is the first of
    ``THREAD_VARS`` set (nproc if it is not a positive integer, or none
    is): calls sharing a multi-threaded pool run slower together than one
    after another, so such a process gets one thread."""
    nproc = os.cpu_count() or 1
    blas = nproc
    for var in THREAD_VARS:
        if var in os.environ:
            value = os.environ[var].strip()
            if value.isdigit() and int(value) > 0:
                blas = int(value)
            break
    return max(1, nproc // blas)
