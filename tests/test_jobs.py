"""Tests for the spark-submit entry point ``jobs/run.py`` (parsing and
dispatch; the experiments themselves are stubbed)."""
import importlib.util
import os
from types import SimpleNamespace

import pytest

JOB = os.path.join(os.path.dirname(__file__), "..", "jobs", "run.py")

# command -> (module, runner, formatter, gate check) it dispatches to
DISPATCH = {
    "traces": ("repro.experiments.common", "get_traces", None, None),
    "table3": ("repro.experiments.table3", "run_table3", "format_table3", "check_table3"),
    "table4": ("repro.experiments.table4", "run_table4", "format_table4", "check_table4"),
    "table5": ("repro.experiments.table5", "run_table5", "format_table5", "check_table5"),
    "expt6": ("repro.experiments.expt6", "run_expt6", "format_expt6", "check_expt6"),
    "live": ("repro.experiments.live", "run_live", "format_live", "check_live"),
}

# job script that jobs/run.py replaced -> its command there
REPLACED = {"gen_traces.py": "traces", "run_table3.py": "table3", "run_table4.py": "table4",
            "run_table5.py": "table5", "run_expt6.py": "expt6"}


@pytest.fixture
def job(monkeypatch):
    spec = importlib.util.spec_from_file_location("job_run", JOB)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "get_spark", lambda: "spark")
    return mod


@pytest.mark.parametrize("fname", sorted(REPLACED))
def test_job_has_entrypoint_guard(fname, job):
    """Each former job script is now a command behind run.py's guarded main()."""
    assert REPLACED[fname] in job.COMMANDS
    assert not os.path.exists(os.path.join(os.path.dirname(JOB), fname))
    with open(JOB) as f:
        assert 'if __name__ == "__main__":\n    main()' in f.read()


@pytest.fixture
def loads(monkeypatch):
    """Stub the suite load and the compile step; record their calls."""
    from repro.experiments import common

    seen = {"get_suite": [], "compile_benchmark": []}

    def get_suite(spark, bm):
        seen["get_suite"].append(bm)
        return f"suite-{bm}"

    def compile_benchmark(bm, suite):
        seen["compile_benchmark"].append(bm)
        return SimpleNamespace(benchmark=bm, suite=suite, queries={})

    monkeypatch.setattr(common, "get_suite", get_suite)
    monkeypatch.setattr(common, "compile_benchmark", compile_benchmark)
    return seen


def _stub(command, monkeypatch, problems=lambda bm: [], order=None):
    """Stub ``command``'s experiment; return the runner and check calls.
    ``order``, if given, records (command, benchmark) per run."""
    import pandas as pd

    mod_name, runner, formatter, check = DISPATCH[command]
    mod = importlib.import_module(mod_name)
    calls, checked = [], []

    def run(*args, **kw):
        calls.append((args, kw))
        if command == "traces":
            return pd.DataFrame({"kind": ["subq", "qs"]})
        bm = {"live": "tpch", "table3": args[-1]}.get(command) or args[0].benchmark
        if order is not None:
            order.append((command, bm))
        return {"benchmark": bm}

    def gates(res):
        checked.append(res["benchmark"])
        return problems(res["benchmark"])

    monkeypatch.setattr(mod, runner, run)
    if formatter:
        monkeypatch.setattr(mod, formatter, lambda res: f"{command} table of {res['benchmark']}")
        monkeypatch.setattr(mod, check, gates)
    return calls, checked


@pytest.mark.parametrize("command", sorted(DISPATCH))
def test_command_dispatches(command, job, loads, monkeypatch, capsys):
    calls, checked = _stub(command, monkeypatch)
    job.main([command, "both", "--force"])
    out = capsys.readouterr().out
    if command == "traces":
        assert [c[0] for c in calls] == [("spark", "tpch"), ("spark", "tpcds")]
        assert all(c[1] == {"force": True} for c in calls)
        assert "tpcds: 2 trace rows" in out and "(traces tpcds: " in out
        return
    # live exists for TPC-H only; every table prints, times and gates each run
    bms = ["tpch"] if command == "live" else ["tpch", "tpcds"]
    assert len(calls) == len(bms) and checked == bms
    for bm in bms:
        assert f"table of {bm}" in out and f"({command} {bm}: " in out
    if command == "live":
        assert calls[0][0] == ("spark",)
    elif command == "table3":
        assert calls[0][0] == ("spark", "tpch")
    else:
        assert calls[0][0][0].suite == "suite-tpch"
        assert loads == {"get_suite": ["tpch", "tpcds"],
                         "compile_benchmark": ["tpch", "tpcds"]}


def test_commands_share_one_compile(job, loads, monkeypatch, capsys):
    """Several commands run in one process, in order; each prints and
    gates every benchmark, and each benchmark is loaded and compiled once.
    A failed gate in an early command still lets the later ones run."""
    cmds = ("table4", "table5", "expt6")
    order, checked = [], {}
    for cmd in cmds:
        fails = lambda bm, cmd=cmd: ["worse"] if (cmd, bm) == ("table4", "tpch") else []
        checked[cmd] = _stub(cmd, monkeypatch, problems=fails, order=order)[1]
    with pytest.raises(SystemExit) as exc:
        job.main(["table4", "table5", "expt6", "both"])
    assert exc.value.code == "1 gate(s) failed:\n  table4 tpch: worse"
    assert order == [(cmd, bm) for cmd in cmds for bm in ("tpch", "tpcds")]
    assert all(c == ["tpch", "tpcds"] for c in checked.values())
    out = capsys.readouterr().out
    for cmd, bm in order:
        assert f"{cmd} table of {bm}" in out and f"({cmd} {bm}: " in out
    assert loads == {"get_suite": ["tpch", "tpcds"], "compile_benchmark": ["tpch", "tpcds"]}


def test_failed_gate_exits_nonzero(job, loads, monkeypatch, capsys):
    """Every benchmark still runs and prints; then the failed gates are
    listed and the job exits non-zero."""
    _stub("table4", monkeypatch, problems=lambda bm: ["R1: worse"] if bm == "tpcds" else [])
    with pytest.raises(SystemExit) as exc:
        job.main(["table4"])
    assert exc.value.code == "1 gate(s) failed:\n  table4 tpcds: R1: worse"
    out = capsys.readouterr().out
    assert "table of tpch" in out and "table of tpcds" in out


def test_live_rejects_tpcds(job):
    with pytest.raises(SystemExit):
        job.main(["live", "tpcds"])


def test_default_is_both_and_bad_command_rejected(job, monkeypatch):
    seen = []
    monkeypatch.setitem(job.COMMANDS, "table4", lambda job, bm: seen.append(bm) or "")
    job.main(["table4"])
    assert seen == ["tpch", "tpcds"]
    for argv in (["table9"], ["table4", "table9"], ["tpch"], ["tpch", "table4"]):
        with pytest.raises(SystemExit):
            job.main(argv)
