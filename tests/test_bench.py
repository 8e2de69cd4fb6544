"""scripts/bench.py: the summary of a metric's runs, the comparison of two
checkouts and the file it writes, with every perfbench run stubbed."""

from __future__ import annotations

import argparse
import importlib.util
import json
from pathlib import Path

import pytest


def _load_bench():
    path = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
    spec = importlib.util.spec_from_file_location("bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()


def test_summary_is_the_median_and_inclusive_quartiles():
    assert bench.summary([3.0, 1.0, 2.0, 4.0, 5.0]) == {
        "runs": [3.0, 1.0, 2.0, 4.0, 5.0],
        "median": 3.0,
        "q1": 2.0,
        "q3": 4.0,
    }
    assert bench.summary([1.0, 3.0]) == {"runs": [1.0, 3.0], "median": 2.0, "q1": 1.5, "q3": 2.5}
    assert bench.summary([7.0]) == {"runs": [7.0], "median": 7.0, "q1": 7.0, "q3": 7.0}


# Each side's untimed and traced runs, in the order that side makes them.
RUNS = {
    "parent": {"setup_s": [1.0, 1.2, 1.1, 1.4], "throughput_qps": [10.0, 12.0, 11.0, 9.0]},
    "change": {"setup_s": [0.8, 1.3, 0.7, 0.9], "throughput_qps": [11.0, 12.0, 13.0, 8.0]},
}
DIGESTS = {"parent": ["a", "a", "a", "a"], "change": ["a", "b", "a", "b"]}
TRACED = {"parent": [0.4, 0.3, 0.5], "change": [0.2, 0.25, 0.15]}


@pytest.fixture()
def compared(monkeypatch):
    calls = []

    def perfbench(checkout: Path, workload: str, seconds: float, trace: int) -> dict:
        side = checkout.name
        i = sum(1 for s, t in calls if (s, t) == (side, trace))
        calls.append((side, trace))
        if trace:
            metrics = {"scoring.train_s": {"value": TRACED[side][i], "unit": "s"}}
            return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics, "digests": {}}
        metrics = {name: {"value": runs[i], "unit": "x"} for name, runs in RUNS[side].items()}
        digests = {"rows": DIGESTS[side][i], "traces": "none"}
        return {"correct": True, "attempted": 5, "failed": 0, "metrics": metrics, "digests": digests}

    monkeypatch.setattr(bench, "perfbench", perfbench)
    monkeypatch.setattr(bench, "commit_of", lambda checkout: f"commit-{checkout.name}")
    checkouts = {side: Path("/work") / side for side in bench.SIDES}
    better = {"setup_s": "lower", "throughput_qps": "higher"}
    result = bench.compare(checkouts, better, "estimation", argparse.Namespace(pairs=4, seconds=1.0))
    return result, calls


def test_compare_alternates_which_side_runs_first(compared):
    _, calls = compared
    first = [calls[i][0] for i in range(0, len(calls), 2)]
    assert first == ["parent", "change", "parent", "change", "parent", "change", "parent"]
    assert [trace for _, trace in calls] == [0] * 8 + [1] * 6


def test_compare_counts_won_pairs_by_the_metrics_direction(compared):
    result, _ = compared
    # Lower is better: 0.8 < 1.0, 0.7 < 1.1, 0.9 < 1.4 win; 1.3 > 1.2 loses.
    assert result["compared"]["setup_s"]["pairs_won"] == 3
    # Higher is better: 11 > 10 and 13 > 11 win; a tie (12, 12) and 8 < 9 do not.
    assert result["compared"]["throughput_qps"]["pairs_won"] == 2


def test_compare_reports_the_median_gap_against_the_parents_iqr(compared):
    result, _ = compared
    setup, qps = result["compared"]["setup_s"], result["compared"]["throughput_qps"]
    # setup_s: medians 1.15 -> 0.85; parent quartiles 1.075 and 1.25.
    assert setup["median_gap"] == pytest.approx(-0.3)
    assert setup["median_gap_frac"] == pytest.approx(-0.3 / 1.15)
    assert setup["parent_iqr"] == pytest.approx(0.175)
    assert setup["gap_exceeds_parent_iqr"] is True
    # throughput_qps: medians 10.5 -> 11.5, a gain smaller than the parent's IQR of 1.5.
    assert qps["median_gap"] == pytest.approx(1.0)
    assert qps["parent_iqr"] == pytest.approx(1.5)
    assert qps["gap_exceeds_parent_iqr"] is False


def test_compare_records_each_distinct_digest_once(compared):
    result, _ = compared
    sides = result["sides"]
    assert sides["parent"]["digests"] == [{"rows": "a", "traces": "none"}]
    assert sides["change"]["digests"] == [{"rows": "a", "traces": "none"}, {"rows": "b", "traces": "none"}]
    assert result["same_digests"] is False


def test_compare_keeps_every_run_and_the_traced_medians(compared):
    result, _ = compared
    parent, change = result["sides"]["parent"], result["sides"]["change"]
    assert parent["metrics"]["setup_s"]["runs"] == RUNS["parent"]["setup_s"]
    assert parent["metrics"]["setup_s"]["unit"] == "x"
    assert parent["per_layer"]["scoring.train_s"]["runs"] == TRACED["parent"]
    assert parent["per_layer"]["scoring.train_s"]["median"] == 0.4
    assert change["per_layer"]["scoring.train_s"]["median"] == 0.2
    assert (parent["checkout"], parent["commit"], parent["attempted"]) == ("parent", "commit-parent", 20)


def test_append_adds_workloads_with_their_own_run_settings(tmp_path, monkeypatch):
    def perfbench(checkout: Path, workload: str, seconds: float, trace: int) -> dict:
        metrics = {"setup_s": {"value": seconds, "unit": "s"}}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics, "digests": {}}

    monkeypatch.setattr(bench, "perfbench", perfbench)
    monkeypatch.setattr(bench, "commit_of", lambda checkout: None)
    checkouts = [tmp_path / "parent", tmp_path / "change"]
    for checkout in checkouts:
        checkout.mkdir()
    spec = '{"end_to_end": [{"name": "setup_s", "better": "lower"}]}'
    (tmp_path / "change" / "BENCHMARK.json").write_text(spec, encoding="utf-8")
    common = ["--pair", *map(str, checkouts), "--tag", "t", "--out-dir", str(tmp_path)]
    assert bench.main([*common, "--workload", "a", "--pairs", "3", "--seconds", "30"]) == 0
    assert bench.main([*common, "--workload", "b", "--pairs", "1", "--seconds", "5", "--append"]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    settings = {name: (w["pairs"], w["seconds"]) for name, w in record["workloads"].items()}
    assert settings == {"a": (3, 30.0), "b": (1, 5.0)}
    assert record["workloads"]["a"]["sides"]["change"]["metrics"]["setup_s"]["runs"] == [30.0] * 3
    # Without --append the file holds only the workloads of its own run.
    assert bench.main([*common, "--workload", "b", "--pairs", "1", "--seconds", "5"]) == 0
    assert list(json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))["workloads"]) == ["b"]
