"""``python -m repro.perf --check``: full-suite and subset headline gating."""

import json

from repro.perf import compare_headlines
from repro.perf.__main__ import main


def _report(**headlines):
    return {
        "scenarios": {name: {"headline": h} for name, h in headlines.items()}
    }


GOLDEN = _report(a={"x": 1.0}, b={"y": 2.0})


def test_full_suite_treats_missing_scenario_as_drift():
    assert compare_headlines(_report(a={"x": 1.0}), GOLDEN) == [
        "b: scenario missing from report"
    ]


def test_subset_compares_only_named_scenarios():
    assert compare_headlines(_report(a={"x": 1.0}), GOLDEN, names=["a"]) == []
    assert compare_headlines(_report(a={"x": 3.0}), GOLDEN, names=["a"]) == [
        "a.x: 3.0 != golden 1.0"
    ]


def test_subset_reports_named_scenario_missing_from_golden():
    report = _report(a={"x": 1.0}, c={"z": 0.0})
    assert compare_headlines(report, GOLDEN, names=["a", "c"]) == [
        "c: scenario missing from golden"
    ]


def _golden_file(tmp_path, scenarios):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"schema": 1, "scenarios": scenarios}))
    return str(path)


def test_cli_gates_a_subset(tmp_path, capsys):
    assert main(["fabric_sparse", "--out", str(tmp_path / "r.json")]) == 0
    mine = json.loads((tmp_path / "r.json").read_text())["scenarios"]
    golden = _golden_file(
        tmp_path,
        {"fabric_sparse": mine["fabric_sparse"],
         "store_churn": {"headline": {"anything": 1}}},
    )
    capsys.readouterr()
    assert main(["fabric_sparse", "--check", golden]) == 0
    assert "headlines match" in capsys.readouterr().out


def test_cli_subset_fails_on_scenario_missing_from_golden(tmp_path, capsys):
    golden = _golden_file(tmp_path, {"store_churn": {"headline": {}}})
    assert main(["fabric_sparse", "--check", golden]) == 1
    assert "fabric_sparse: scenario missing from golden" in capsys.readouterr().err
