"""The summary of tools/bench_pairs.py, on synthetic records and on the
committed benchmark records it must reproduce."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
LOWER = {"name": "wall_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "steps_per_s", "better": "higher", "bound": 0.25}


def _record(wall: float, steps: float, failed: int = 0) -> dict:
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "steps_per_s": {"value": steps, "unit": "1/s"}}
    return {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": metrics}


def _pairs(parent: list[float], change: list[float]) -> list[dict]:
    # steps_per_s is 1 / wall_s, so it is better exactly where wall_s is.
    return [
        {"pair": i, "seed": i, "first": "parent", "parent": _record(p, 1 / p), "change": _record(c, 1 / c)}
        for i, (p, c) in enumerate(zip(parent, change), start=1)
    ]


def test_summary_of_synthetic_pairs():
    # Pairs 2 and 4 tie: a tie is not a win. The parent's quartiles are
    # 1.0, 1.1, 1.3 and the change's median is 0.85, better by more than
    # the parent's interquartile range of 0.3.
    parent = [1.0, 1.0, 1.2, 1.2, 1.4]
    change = [0.8, 1.0, 0.85, 1.2, 0.7]
    summary = bench_pairs.summarize(_pairs(parent, change), [LOWER, HIGHER])
    assert summary["pairs"] == 5
    assert summary["failed"] == {"parent": 0, "change": 0} and summary["correct"]
    assert summary["wall_s"] == {
        "parent_q1_median_q3": [1.0, 1.2, 1.3],
        "change_q1_median_q3": [0.75, 0.85, 1.1],
        "change_better_in": 3,
        "median_change": round((0.85 - 1.2) / 1.2, 4),
        "median_gap_exceeds_parent_iqr": True,
        "change_median_within_bound": True,
    }
    steps = summary["steps_per_s"]
    assert steps["change_better_in"] == 3 and steps["median_change"] > 0
    assert steps["median_gap_exceeds_parent_iqr"] and steps["change_median_within_bound"]


@pytest.mark.parametrize("scale, within", [(1.25, True), (1.3, False)])
def test_summary_bounds_a_worse_median_in_the_metric_direction(scale, within):
    # A change whose wall_s is 25 % higher is at the bound; 30 % is past
    # it. steps_per_s then falls by 20 % and by 23 %, both within 25 %.
    parent = [1.0, 2.0, 4.0]
    summary = bench_pairs.summarize(_pairs(parent, [scale * p for p in parent]), [LOWER, HIGHER])
    assert summary["wall_s"]["change_median_within_bound"] is within
    assert summary["wall_s"]["change_better_in"] == 0
    assert not summary["wall_s"]["median_gap_exceeds_parent_iqr"]
    assert summary["steps_per_s"]["change_median_within_bound"]
    assert summary["steps_per_s"]["median_change"] == round(1 / scale - 1, 4)


def test_summary_counts_failed_calls_per_side_and_one_pair():
    pairs = _pairs([1.0], [0.9])
    pairs[0]["change"] = _record(0.9, 1 / 0.9, failed=2)
    summary = bench_pairs.summarize(pairs, [LOWER])
    assert summary["failed"] == {"parent": 0, "change": 2} and not summary["correct"]
    assert summary["wall_s"]["parent_q1_median_q3"] == [1.0, 1.0, 1.0]
    # One pair has no spread: any better median exceeds it.
    assert summary["wall_s"]["median_gap_exceeds_parent_iqr"]


@pytest.mark.parametrize(
    "tag", ["pr19", "pr20", "pr21", "pr22", "pr23", "pr24", "pr25", "pr26", "pr27", "pr28"]
)
def test_summary_reproduces_the_committed_records(tag):
    record = json.loads((ROOT / f"BENCH_{tag}.json").read_text())
    for workload, pairs in record["pairs"].items():
        assert bench_pairs.summarize(pairs, END_TO_END) == record["summary"][workload], workload


def test_seeds_are_a_closed_range():
    assert bench_pairs.parse_seeds("2301-2305") == [2301, 2302, 2303, 2304, 2305]
    assert bench_pairs.parse_seeds("7") == [7]


@pytest.mark.parametrize(
    "output, expected",
    [
        (
            "....\n====== slowest 10 durations ======\n1.20s call t.py::a\n366 passed in 40.88s\n",
            (366, 0, 40.88),
        ),
        ("F.\n2 failed, 364 passed, 1 error in 81.20s (0:01:21)", (364, 3, 81.2)),
        ("1 failed, 3 passed, 2 warnings in 5s\n", (3, 1, 5.0)),
        ("2 errors in 0.31s", (0, 2, 0.31)),
        ("no tests ran in 0.01s", (0, 0, 0.01)),
        # A run killed before its summary: nothing to parse.
        ("....\nKilled\n", (None, None, None)),
        ("", (None, None, None)),
    ],
)
def test_tier1_summary_line_is_parsed(output, expected):
    parsed = bench_pairs.parse_tier1(output)
    assert (parsed["passed"], parsed["failed"], parsed["wall_s"]) == expected


def test_tier1_rounds_alternate_the_sides_and_keep_each_run():
    # Three rounds: parent first in rounds 1 and 3, change first in round 2.
    # A run killed before its summary has no wall time, and no median.
    trees = {"parent": "p", "change": "c"}
    walls = iter([30.0, 40.0, 42.0, 31.0, 29.0, None])
    order = []

    def fake(tree):
        order.append(tree)
        wall = next(walls)
        return {"passed": 5 if wall else None, "failed": 0 if wall else None, "wall_s": wall}

    tier1 = bench_pairs.tier1_rounds(trees, 3, run=fake)
    assert order == ["p", "c", "c", "p", "p", "c"]
    assert [r["wall_s"] for r in tier1["parent"]["runs"]] == [30.0, 31.0, 29.0]
    assert tier1["parent"]["median_wall_s"] == 30.0
    assert [r["wall_s"] for r in tier1["change"]["runs"]] == [40.0, 42.0, None]
    assert tier1["change"]["median_wall_s"] is None
