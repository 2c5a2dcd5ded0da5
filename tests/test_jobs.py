"""Tests for the spark-submit entry point ``jobs/run.py`` (parsing and
dispatch; the experiments themselves are stubbed)."""
import importlib.util
import os

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


def _stub(command, monkeypatch, problems=lambda bm: []):
    """Stub ``command``'s experiment; return the runner and check calls."""
    import pandas as pd

    from repro.experiments import common

    mod_name, runner, formatter, check = DISPATCH[command]
    mod = importlib.import_module(mod_name)
    calls, checked = [], []

    def run(*args, **kw):
        calls.append((args, kw))
        if command == "traces":
            return pd.DataFrame({"kind": ["subq", "qs"]})
        if command == "live":
            return {"benchmark": "tpch"}
        return {"benchmark": args[1] if command == "table3" else args[0]}

    def gates(res):
        checked.append(res["benchmark"])
        return problems(res["benchmark"])

    monkeypatch.setattr(mod, runner, run)
    if formatter:
        monkeypatch.setattr(mod, formatter, lambda res: f"table of {res['benchmark']}")
        monkeypatch.setattr(mod, check, gates)
    monkeypatch.setattr(common, "get_suite", lambda spark, bm: f"suite-{bm}")
    return calls, checked


@pytest.mark.parametrize("command", sorted(DISPATCH))
def test_command_dispatches(command, job, monkeypatch, capsys):
    calls, checked = _stub(command, monkeypatch)
    job.main([command, "both", "--force"])
    out = capsys.readouterr().out
    if command == "traces":
        assert [c[0] for c in calls] == [("spark", "tpch"), ("spark", "tpcds")]
        assert all(c[1] == {"force": True} for c in calls)
        assert "tpcds: 2 trace rows" in out
        return
    # live exists for TPC-H only; every table prints, times and gates each run
    bms = ["tpch"] if command == "live" else ["tpch", "tpcds"]
    assert len(calls) == len(bms) and checked == bms
    for bm in bms:
        assert f"table of {bm}" in out and f"({command} {bm}: " in out
    if command == "live":
        assert calls[0][0] == ("spark",)
    elif command != "table3":
        assert calls[0][0][1] == "suite-tpch"


def test_failed_gate_exits_nonzero(job, monkeypatch, capsys):
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
    monkeypatch.setitem(job.COMMANDS, "table4", lambda spark, bm, force: seen.append(bm) or "")
    job.main(["table4"])
    assert seen == ["tpch", "tpcds"]
    with pytest.raises(SystemExit):
        job.main(["table9"])
