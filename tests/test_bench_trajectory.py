"""``BENCH_trajectory.jsonl`` — one line per measured change, appended by
``benchmarks/pairs.py --record`` — keeps the shape later changes diff
against, and the script summarises pairs the way the file records them.
Reads the file alone: no git history, no benchmark run."""

import datetime
import importlib.util
import json
import math
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_trajectory.jsonl"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}


def _pairs_module():
    spec = importlib.util.spec_from_file_location(
        "pairs", ROOT / "benchmarks" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _records():
    lines = TRAJECTORY.read_text(encoding="utf-8").splitlines()
    assert lines, "the trajectory holds no record"
    return [json.loads(line) for line in lines]


def _is_number(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


@pytest.mark.parametrize("record", _records(), ids=lambda r: str(r["pr"]))
def test_every_line_has_the_recorded_shape(record):
    assert set(record) == {"pr", "parent", "date", "seed", "pairs",
                           "seconds", "workloads"}
    assert isinstance(record["pr"], str) and record["pr"]
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent"])
    datetime.date.fromisoformat(record["date"])
    assert isinstance(record["seed"], int)
    pairs = record["pairs"]
    assert isinstance(pairs, int) and pairs >= 1
    assert _is_number(record["seconds"]) and record["seconds"] > 0
    assert record["workloads"]
    for workload, summary in record["workloads"].items():
        assert set(summary) == {"parent", "change", "wins", "parent_ops",
                                "change_ops"}, workload
        names = set(summary["wins"])
        assert names and set(summary["parent"]) == set(summary["change"]) \
            == names, workload
        for side in ("parent", "change"):
            for name, (q1, median, q3) in summary[side].items():
                assert all(map(_is_number, (q1, median, q3))), (workload,
                                                                name)
                assert q1 <= median <= q3, (workload, side, name)
            attempted, failed = summary[f"{side}_ops"]
            assert 0 <= failed <= attempted, (workload, side)
        assert all(isinstance(won, int) and 0 <= won <= pairs
                   for won in summary["wins"].values()), workload


def test_the_trajectory_names_what_the_benchmark_measures():
    """A record names workloads and metrics the benchmark declared; a
    later benchmark may add names, so this checks the newest line."""
    newest = _records()[-1]
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(newest["workloads"]) <= workloads
    for summary in newest["workloads"].values():
        assert set(summary["wins"]) == set(BETTER)


def test_summarise_counts_the_pairs_each_side_won():
    pairs = _pairs_module()

    def result(ops_per_s, restore_ms, failed=0):
        return {"attempted": 10, "failed": failed, "metrics": {
            "ops_per_s": {"value": ops_per_s},
            "restore_p50_ms": {"value": restore_ms}}}

    runs = {"parent": [result(100, 5.0), result(100, 5.0),
                       result(100, 5.0)],
            "change": [result(110, 4.0), result(90, 5.0),
                       result(100, 6.0, failed=1)]}
    summary = pairs.summarise(runs, {"ops_per_s": "higher",
                                     "restore_p50_ms": "lower"})
    # a tie counts for neither side
    assert summary["wins"] == {"ops_per_s": 1, "restore_p50_ms": 1}
    assert summary["parent"]["ops_per_s"] == [100, 100, 100]
    q1, median, q3 = summary["change"]["restore_p50_ms"]
    assert q1 <= median == 5.0 <= q3
    assert summary["parent_ops"] == [30, 0]
    assert summary["change_ops"] == [30, 1]
