"""Correctness gate: digests, failed-run accounting, metric names."""

import json
from pathlib import Path

from perfbench import gate

ROOT = Path(__file__).resolve().parents[2]

RECORD = {"digests": {"2026.08.0": {"1": {"fig9_sweep": "abc"}}}}


def test_digest_status_match_mismatch_and_unrecorded():
    assert gate.digest_status(RECORD, "2026.08.0", 1, "fig9_sweep", "abc") == "match"
    assert gate.digest_status(RECORD, "2026.08.0", 1, "fig9_sweep", "abd") == "mismatch"


def test_unrecorded_stamp_seed_or_workload_reports_instead_of_failing():
    assert gate.digest_status(RECORD, "2027.01.0", 1, "fig9_sweep", "abc") == "unrecorded"
    assert gate.digest_status(RECORD, "2026.08.0", 2, "fig9_sweep", "abc") == "unrecorded"
    assert gate.digest_status(RECORD, "2026.08.0", 1, "fault_sweep", "x") == "unrecorded"
    assert gate.failed_runs(8, 8, [], digest_ok=True) == 0


def test_raised_run_fails_itself_and_every_run_after_it():
    assert gate.failed_runs(8, 3, [(3, "raised")]) == 5
    assert gate.failed_runs(8, 8, [(None, "raised while rendering")]) == 8


def test_digest_mismatch_fails_the_whole_repetition():
    assert gate.failed_runs(8, 8, [], digest_ok=False) == 8


def test_run_violations_count_each_run_once():
    violations = [(1, "not drained"), (1, "lost packets"), (6, "health critical")]
    assert gate.failed_runs(8, 8, violations) == 2


def test_workload_digest_is_order_sensitive_and_canonical():
    a, b = {"x": 1, "y": 2}, {"y": 2, "x": 1}
    assert gate.workload_digest([a]) == gate.workload_digest([b])
    assert gate.workload_digest([a, {"z": 0}]) != gate.workload_digest([{"z": 0}, a])


def test_metric_name_rule():
    good = ["wall_s", "core.us_per_flit", "bench.trace_overhead_s", "9lives"]
    bad = ["", "_x", "wall s", "a/b", "x" * 65, "é"]
    assert gate.bad_metric_names(good) == []
    assert gate.bad_metric_names(bad) == bad


def test_declared_metrics_are_valid_and_match_what_the_benchmark_emits():
    from perfbench import layers, run

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {item["name"]: item["unit"] for item in config["end_to_end"]}
    per_layer = {item["name"]: item["unit"] for item in config["per_layer"]}
    names = [w["name"] for w in config["workloads"]] + list(end_to_end) + list(per_layer)
    assert gate.bad_metric_names(names) == []
    assert len(names) == len(set(names))
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == layers.UNITS
