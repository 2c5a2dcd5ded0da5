"""Tests for the spark-submit entry point ``jobs/run.py`` (parsing and
dispatch; the experiments themselves are stubbed)."""
import importlib.util
import os

import pytest

JOB = os.path.join(os.path.dirname(__file__), "..", "jobs", "run.py")

# command -> (module, runner, formatter) it dispatches to
DISPATCH = {
    "traces": ("repro.experiments.common", "get_traces", None),
    "table3": ("repro.experiments.table3", "run_table3", "format_table3"),
    "table4": ("repro.experiments.table4", "run_table4", "format_table4"),
    "table5": ("repro.experiments.table5", "run_table5", "format_table5"),
    "expt6": ("repro.experiments.expt6", "run_expt6", "format_expt6"),
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


@pytest.mark.parametrize("command", sorted(DISPATCH))
def test_command_dispatches(command, job, monkeypatch, capsys):
    import pandas as pd

    from repro.experiments import common

    mod_name, runner, formatter = DISPATCH[command]
    mod = importlib.import_module(mod_name)
    calls = []

    def run(*args, **kw):
        calls.append((args, kw))
        if command == "traces":
            return pd.DataFrame({"kind": ["subq", "qs"]})
        return {"benchmark": args[1] if command == "table3" else args[0]}

    monkeypatch.setattr(mod, runner, run)
    if formatter:
        monkeypatch.setattr(mod, formatter, lambda res: f"table of {res['benchmark']}")
    monkeypatch.setattr(common, "get_suite", lambda spark, bm: f"suite-{bm}")
    job.main([command, "both", "--force"])
    out = capsys.readouterr().out
    assert len(calls) == 2
    if command == "traces":
        assert [c[0] for c in calls] == [("spark", "tpch"), ("spark", "tpcds")]
        assert all(c[1] == {"force": True} for c in calls)
        assert "tpcds: 2 trace rows" in out
    else:
        assert "table of tpch" in out and "table of tpcds" in out
        if command != "table3":
            assert calls[0][0][1] == "suite-tpch"


def test_default_is_both_and_bad_command_rejected(job, monkeypatch):
    seen = []
    monkeypatch.setitem(job.COMMANDS, "table4", lambda spark, bm, force: seen.append(bm) or "")
    job.main(["table4"])
    assert seen == ["tpch", "tpcds"]
    with pytest.raises(SystemExit):
        job.main(["table9"])
