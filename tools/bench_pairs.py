"""Write a benchmark record: alternating pairs of runs of two commits.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \
        --seeds 2301-2310 --out BENCH_pr23.json
    python3 tools/bench_pairs.py --parent HEAD --change HEAD --workloads busy_sweep \
        --seeds 1 --smoke --out /tmp/pairs.json

Each ref is extracted once with `git archive` into its own temporary tree,
which every run of that side reuses. For each workload and seed the two
trees run `python3 perfbench/run.py --workload W --seed S --trace 0` (with
--seconds set to BENCHMARK.json's run_seconds, or --smoke), one after the
other: the parent first in odd-numbered pairs, the change first in
even-numbered ones. Each side's record is the run's last output line,
unedited; a run that exits non-zero or whose last line is not JSON stops
the script, naming the pair.

After the pairs each tree runs the tier-1 tests as CI runs them (`TIER1`,
with `src` on PYTHONPATH), `TIER1_RUNS` times, or once with --smoke: one
run does not resolve a change in the suite's wall time. The sides
alternate, the parent first in odd-numbered rounds. The record keeps, for
each side, every run's passed and failed counts and wall time from
pytest's summary line, and the median wall time. A failing suite is
recorded, not fatal: its failures count in `failed`.

The summary of each workload is computed from its pairs by `summarize`, as
the committed BENCH_*.json files define it: quartiles by
`statistics.quantiles(n=4)` rounded to 5 places, the number of pairs in
which the change is strictly better, the median's relative change rounded
to 4 places, whether the change's median is better than the parent's by
more than the parent's interquartile range, and whether it is worse than
the parent's by no more than the bound BENCHMARK.json fixes for the metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
SIDES = ("parent", "change")
TIER1_RUNS = 3
# The tier-1 tests as CI runs them, after `python`.
TIER1 = [
    *("-X", "dev", "-m", "pytest", "-q", "-W", "error"),
    *("--continue-on-collection-errors", "--durations=10"),
]


def _quartiles(values: list[float]) -> list[float]:
    # Before Python 3.13 quantiles refuses a single value; its quartiles
    # are that value, as 3.13 gives them.
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """The summary of one workload's pairs, each {"parent": record,
    "change": record} with the records as run.py prints them, against the
    end-to-end metrics of BENCHMARK.json (name, better, bound)."""
    out: dict = {
        "pairs": len(pairs),
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "correct": all(p[side]["correct"] for p in pairs for side in SIDES),
    }
    for metric in end_to_end:
        name = metric["name"]
        # sign * (a - b) < 0 where a is better than b.
        sign = 1 if metric["better"] == "lower" else -1
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        p_q, c_q = _quartiles(parent), _quartiles(change)
        rel = (c_q[1] - p_q[1]) / p_q[1]
        out[name] = {
            "parent_q1_median_q3": [round(q, 5) for q in p_q],
            "change_q1_median_q3": [round(q, 5) for q in c_q],
            "change_better_in": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "median_change": round(rel, 4),
            "median_gap_exceeds_parent_iqr": sign * (p_q[1] - c_q[1]) > p_q[2] - p_q[0],
            "change_median_within_bound": sign * rel <= metric["bound"],
        }
    return out


def parse_seeds(text: str) -> list[int]:
    """`A-B` as the seeds A to B, both included, or one seed `A`."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def extract(ref: str, into: Path) -> None:
    """The committed files of ref, written into the directory into."""
    archive = into.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True, stdout=fh)
    into.mkdir()
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()


def run_side(tree: Path, workload: str, seed: int, timing: list[str], where: str) -> dict:
    """One benchmark run in tree: its last output line, parsed."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run([*command, *timing, "--trace", "0"], cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0:
        sys.exit(f"{where}: run.py exited {done.returncode}\n{done.stderr[-2000:]}")
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"{where}: the last output line is not JSON: {lines[-1:]!r}")


def parse_tier1(output: str) -> dict:
    """passed, failed and wall_s from the last line of `pytest -q` output,
    such as `2 failed, 364 passed, 1 error in 81.20s (0:01:21)`; an error
    counts as a failure, and a missing count or time is None."""
    lines = output.strip().splitlines()
    last = lines[-1] if lines else ""
    counts: dict[str, int] = {}
    for n, word in re.findall(r"(\d+) (passed|failed|errors?)\b", last):
        word = "failed" if word.startswith("error") else word
        counts[word] = counts.get(word, 0) + int(n)
    wall = re.search(r" in (\d+(?:\.\d+)?)s\b", last)
    return {
        "passed": counts.get("passed", 0) if wall else None,
        "failed": counts.get("failed", 0) if wall else None,
        "wall_s": float(wall.group(1)) if wall else None,
    }


def run_tier1(tree: Path) -> dict:
    """The tier-1 tests of tree, run once: the parse of their summary."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": "src" + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True)
    return parse_tier1(done.stdout)


def tier1_rounds(trees: dict[str, Path], rounds: int, run=run_tier1) -> dict:
    """`run` (by default `run_tier1`) of each side's tree, rounds times, the
    sides alternating as the pairs do: each side's parses in order and the
    median of their wall_s, None if a run has none."""
    runs: dict[str, list] = {side: [] for side in SIDES}
    for i in range(1, rounds + 1):
        for side in SIDES if i % 2 else SIDES[::-1]:
            runs[side].append(run(trees[side]))
    out = {}
    for side, parsed in runs.items():
        walls = [r["wall_s"] for r in parsed]
        median = None if None in walls else statistics.median(walls)
        out[side] = {"runs": parsed, "median_wall_s": median}
    return out


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(), "numpy": numpy.__version__, "cpu": cpu}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="git ref of the parent side")
    ap.add_argument("--change", required=True, help="git ref of the changed side")
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="A-B: one pair per seed")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    ap.add_argument("--smoke", action="store_true", help="run.py --smoke instead of --seconds")
    ap.add_argument("--out", required=True, type=Path, help="path of the JSON record")
    args = ap.parse_args(argv)

    refs = {side: _git("rev-parse", "--short", getattr(args, side)).strip() for side in SIDES}
    rounds = 1 if args.smoke else TIER1_RUNS
    pairs: dict[str, list] = {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            extract(refs[side], trees[side])
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        timing = ["--smoke"] if args.smoke else ["--seconds", f"{spec['run_seconds']:g}"]
        for workload in args.workloads:
            pairs[workload] = []
            for i, seed in enumerate(args.seeds, start=1):
                order = SIDES if i % 2 else SIDES[::-1]
                pair: dict = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    where = f"{workload} pair {i} (seed {seed}), {side} {refs[side]}"
                    pair[side] = run_side(trees[side], workload, seed, timing, where)
                    print(f"{where}: {json.dumps(pair[side])}", flush=True)
                pairs[workload].append(pair)
        tier1 = tier1_rounds(trees, rounds)
        print(f"tier-1: {json.dumps(tier1)}", flush=True)
    seeds = f"seeds {args.seeds[0]}-{args.seeds[-1]}" if len(args.seeds) > 1 else f"seed {args.seeds[0]}"
    record = {
        "what": (
            f"{len(args.seeds)} alternating pairs per workload of {args.parent} and {args.change},"
            " each side run from its own `git archive` extract, reused by every run of that side,"
            f" with `python3 perfbench/run.py --workload W --seed S {' '.join(timing)} --trace 0`"
            f" ({seeds}); the parent runs first in odd-numbered pairs. Each side's record is"
            " the run's last output line, unedited. The trees then run their tier-1 tests"
            f" {rounds} time(s) each, alternating (`tier1`). Written by tools/bench_pairs.py,"
            " whose docstring defines the summary."
        ),
        "parent": refs["parent"],
        "change": refs["change"],
        "machine": machine(),
        "pairs": pairs,
        "summary": {w: summarize(p, spec["end_to_end"]) for w, p in pairs.items()},
        "tier1": {"command": f"PYTHONPATH=src python {' '.join(TIER1)}", **tier1},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
