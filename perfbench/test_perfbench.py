"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import hostclock
import pytest
import run
from gate import Gate

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True, cwd=BENCH_DIR.parent,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_names_the_benchmark_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }


def test_smoke_end_to_end_passes_the_gate():
    result = smoke("busy_sweep", 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 10
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_counts_agree_with_steps():
    result = smoke("busy_sweep", 1)
    assert result["correct"] and result["failed"] == 0
    m = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert set(m) == set(run.PER_LAYER)
    assert m["sim.steps"] == 80000
    assert m["plant.step_calls"] == m["sim.steps"]
    assert m["valve.step_calls"] == 2 * m["sim.steps"]
    assert m["sensor.read_calls"] == 2 * m["sim.steps"]
    assert m["traceio.bytes_read"] == m["traceio.bytes_written"] > 0


def test_corrected_time_divides_out_the_kernel_slowdown():
    # The first stretch ran at the nominal kernel speed, the second stretch
    # and the tail at half of it.
    k = hostclock.NOMINAL_KERNEL_S
    record = {"net_s": 3.5, "tail_s": 1.0, "stretches": [(1.0, k), (1.0, 2 * k)]}
    assert hostclock.corrected_s(record) == pytest.approx(2.0)
    assert hostclock.corrected_s({"net_s": 0.5, "tail_s": 0.5, "stretches": []}) == 0.5


def test_sampler_leaves_its_own_time_out():
    with hostclock.Sampler() as clock:
        start = hostclock.perf_counter()
        while hostclock.perf_counter() - start < 0.2:
            pass
    wall = hostclock.perf_counter() - start
    assert len(clock.stretches) >= 5
    assert clock.net_s == pytest.approx(wall - sum(k for _, k in clock.stretches), abs=0.01)


def test_tracer_restores_every_wrapped_attribute():
    originals = [getattr(module, attr, None) for module, attr, *_ in run.PATCHES]
    tracer = run.Tracer()
    for module, attr, name, hook, span in run.PATCHES:
        tracer.patch(module, attr, name, hook, span)
    assert run.experiments.run_simulation is not run.sim.run_simulation
    assert tracer.restore() == []
    assert run.experiments.run_simulation is run.sim.run_simulation
    assert [getattr(module, attr, None) for module, attr, *_ in run.PATCHES] == originals


def gated_hysteresis_run(tmp_path) -> run.Bench:
    bench = run.Bench([run.Call("run_scenario", "hysteresis")], tmp_path, Gate(run.GOLDEN))
    bench.passes(0.0)
    return bench


def test_clean_trace_passes_the_gate(tmp_path):
    bench = gated_hysteresis_run(tmp_path)
    assert (bench.attempted, bench.failed) == (2, 0), bench.problems


def test_corrupted_trace_value_counts_as_failure(tmp_path, monkeypatch):
    write_trace = run.experiments.write_trace

    def corrupting_write(trace, path):
        columns = dict(trace.columns)
        columns["p_tube"] = columns["p_tube"].copy()
        columns["p_tube"][100] += 1.0
        write_trace(run.sim.SimTrace(columns=columns), path)

    monkeypatch.setattr(run.experiments, "write_trace", corrupting_write)
    bench = gated_hysteresis_run(tmp_path)
    assert bench.failed >= 1
    assert any("does not read back bit-identical" in p for p in bench.problems)


def test_missing_trace_file_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run.experiments, "write_trace", lambda trace, path: None)
    bench = gated_hysteresis_run(tmp_path)
    assert bench.failed == 2
    assert all("could not be checked" in p for p in bench.problems)


def test_reference_pass_times_package_and_copy_apart(tmp_path):
    calls = [run.Call("run_scenario", "hysteresis")]
    ref = run.Reference(tmp_path / "copy")
    wall, outcomes, (pkg_s, copy_s) = run.run_pass(calls, tmp_path / "pkg", ref, ref_first=True)
    assert outcomes[0].error is None
    assert 0 < pkg_s < wall and 0 < copy_s < wall
    # Each writes its own files.
    for directory in ("pkg", "copy"):
        assert (tmp_path / directory / "hysteresis_trace.csv").stat().st_size > 0
