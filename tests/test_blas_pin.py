"""The BLAS pins of the pipeline (``repro.blas.pin``), which the root
conftest applies to the test session before numpy loads: numpy's OpenBLAS
runs one thread, on the Haswell kernel where the CPU has AVX2 and FMA."""
import ctypes
import glob
import os

import numpy as np
import pytest

from repro import blas


def _openblas():
    """numpy's bundled OpenBLAS, the library it has already loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libopenblas*.so*"))
    if not libs:
        pytest.skip("this numpy bundles no OpenBLAS")
    lib = ctypes.CDLL(libs[0])
    if not hasattr(lib, "openblas_get_corename64_"):
        pytest.skip("not a 64-bit-index OpenBLAS build")
    lib.openblas_get_corename64_.argtypes = []
    lib.openblas_get_corename64_.restype = ctypes.c_char_p
    lib.openblas_get_num_threads64_.argtypes = []
    lib.openblas_get_num_threads64_.restype = ctypes.c_int
    return lib


def test_session_blas_is_pinned():
    lib = _openblas()
    assert lib.openblas_get_num_threads64_() == 1
    core = lib.openblas_get_corename64_().decode()
    if {"avx2", "fma"} <= blas.cpu_flags():
        assert core == "Haswell"


@pytest.mark.parametrize("flags, coretype", [
    ({"sse3", "avx", "avx2", "fma", "avx512f"}, "Haswell"),
    ({"sse3", "avx", "avx2"}, None),
    ({"sse3", "avx", "fma"}, None),
    (set(), None),
], ids=["avx2-fma", "avx2-only", "fma-only", "no-flags"])
def test_pin_blas(monkeypatch, flags, coretype):
    """One thread under every variable OpenBLAS reads; the Haswell kernel
    only with both AVX2 and FMA."""
    for var in (*blas.THREAD_VARS, "OPENBLAS_CORETYPE"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(blas, "cpu_flags", lambda: flags)
    blas.pin()
    assert all(os.environ[v] == "1" for v in blas.THREAD_VARS)
    assert os.environ.get("OPENBLAS_CORETYPE") == coretype
