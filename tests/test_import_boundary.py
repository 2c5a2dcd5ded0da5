"""The import boundary: what solves and adapts loads numpy, not pandas,
pyarrow, pyspark or duckdb.

This session's conftest imports pandas, so each case runs in a fresh
interpreter.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.model import predictor as P

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("pandas", "pyarrow", "pyspark", "duckdb")
# Reports the heavy modules loaded so far, as a JSON list on stdout.
_REPORT_HEAVY = ("import json, sys; "
                 f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))")


def _run(code: str, tmp_path, cwd: Path = ROOT) -> list[str]:
    """Run ``code`` in a fresh interpreter with ``src`` on the path, results
    in ``tmp_path`` and one BLAS thread; returns its stdout lines."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "REPRO_RESULTS_DIR": str(tmp_path / "results"),
           **{v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}}
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_solve_and_adapt_modules_import_no_dataframe_stack(tmp_path):
    """The tuner, the runtime plugin, the trace and model-store modules and
    the table harnesses import none of the heavy modules; ``task_grid``
    loads pandas when it runs and still returns a DataFrame."""
    code = "\n".join([
        "import repro.tuner, repro.runtime.optimizer, repro.model.traces",
        "import repro.experiments.common",
        "from repro.experiments import table3, table4, table5, expt6",
        _REPORT_HEAVY,
        "grid = repro.model.traces.task_grid('tpch', ['q3'], 1, 2, seed=17)",
        "print(type(grid).__name__, len(grid))",
    ])
    loaded, grid = _run(code, tmp_path)
    assert json.loads(loaded) == []
    assert grid == "DataFrame 2"


def test_perfbench_harness_imports_no_dataframe_stack(tmp_path):
    """``import report, workloads`` from ``perfbench/``, as its ``run.py``
    does before a workload starts, loads none of the heavy modules."""
    (loaded,) = _run(f"import report, workloads; {_REPORT_HEAVY}", tmp_path,
                     cwd=ROOT / "perfbench")
    assert json.loads(loaded) == []


def test_spark_trace_worker_imports_no_dataframe_stack(tmp_path):
    """The Spark Python stage's record builder, ``traces.task_record``,
    loads neither pandas nor pyarrow. A ``task_grid`` row comes from a
    first interpreter, where ``task_grid`` loads both; a second builds the
    row's record."""
    grid_code = "\n".join([
        "import json, repro.model.traces as T",
        "row = T.task_grid('tpch', ['q3'], 1, 1, seed=17).to_dict('records')[0]",
        "print(json.dumps({**row, 'tag': 5}))",
        _REPORT_HEAVY,
    ])
    row, loaded = _run(grid_code, tmp_path)
    assert {"pandas", "pyarrow"} <= set(json.loads(loaded))
    worker_code = "\n".join([
        "import json, types, repro.model.traces as T",
        f"rec = T.task_record(types.SimpleNamespace(**json.loads({row!r})))",
        "print(json.dumps([rec[0], rec[5], len(rec[-1])]))",
        _REPORT_HEAVY,
    ])
    record, loaded = _run(worker_code, tmp_path)
    assert json.loads(loaded) == []
    tag, kinds, n_bytes = json.loads(record)
    assert tag == 5 and kinds[-1] == "lqp" and len(kinds) % 2 == 1
    dims = {"subq": P.SUBQ_DIM, "qs": P.QS_DIM, "lqp": P.LQP_DIM}
    assert n_bytes == 8 * (sum(dims[k] for k in kinds) + 2 * len(kinds))
