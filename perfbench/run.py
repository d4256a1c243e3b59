"""dighydro benchmark: one command, three scenario workloads.

Run from the repository root:

    python3 perfbench/run.py --workload chirp_pressure --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload busy_sweep --seed 1 --smoke --trace 1

Each invocation is one fresh, single-threaded process running one workload.
A pass runs the workload's harness calls one after another (a closed loop
with one client), timed with the host clock. Passes repeat until --seconds
have elapsed, and never fewer than two, so that outputs can be compared
between passes. The first pass is a warm-up: it is left out of the
timings, and the process's peak memory is taken after it. Set-up is probed
in fresh interpreters after every pass.

End-to-end times are measured against a time reference: seedref/ holds a
frozen copy of the package as it was when the baseline was taken. Every
timed pass runs each call of that copy right next to the same call of the
package under test, the two in turn first, each timed under its own
hostclock.Sampler, which divides out the host's speed changes within the
call. A pass's wall_s is its corrected time as a multiple of the copy's
corrected time in the same pass, times REF_PASS_S, the copy's time on the
baseline machine; setup_s is formed the same way from set-up probes of the
package and of the copy, run in turn, and REF_SETUP_S. Host contention that
slows the package slows the copy beside it alike, whatever kind it is, and
cancels out of the multiple, while a change to the package moves it in
full. On the unchanged package the multiple is 1 up to noise. The plain
host times and the corrected times of both are printed too.
--smoke runs exactly the minimum number of passes, through the same code
and the same gate.

--trace 0 reports the end-to-end metrics. --trace 1 runs two untraced
passes, then traced passes that wrap the package's per-layer functions, and
reports the per-layer metrics. Every call of every pass goes through the
correctness gate (gate.py). Human-readable medians with quartiles go to
stdout first; the last line is the JSON result.
"""

import os

# Single-threaded: numpy must start no BLAS or OpenMP worker threads. This
# runs before numpy is imported, and the set-up probes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "trace_hashes.json"
OUT = ROOT / ".perfbench_out"

REF_DIR = BENCH_DIR / "seedref"
REF_PACKAGE = "dighydro_seed"

MIN_PASSES = 2
# Pairs of set-up probes (package, frozen copy) after each untraced pass:
# spread over the run, the probes sample the machine's changing speed as
# the passes do.
SETUP_PAIRS_PER_PASS = 3

# The frozen copy's corrected pass and set-up times, medians on the baseline
# machine (2 vCPUs of a shared 2.0 GHz Xeon host, Python 3.11.7): they turn
# the measured multiples into seconds.
REF_PASS_S = {"chirp_pressure": 2.9, "step_position": 4.2, "busy_sweep": 2.5}
REF_SETUP_S = {"chirp_pressure": 0.090, "step_position": 0.092, "busy_sweep": 0.096}

END_TO_END = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Per-layer metrics: name -> (unit, exact). Exact counts must repeat exactly
# between passes; a count that varies is reported as nondeterminism.
PER_LAYER = {
    "config.load_s": ("s", False),
    "experiments.run_scenario_s": ("s", False),
    "sim.self_s": ("s", False),
    "sim.steps": ("count", True),
    "sim.us_per_step": ("us", False),
    "sim.quiescent_frac": ("ratio", True),
    "sim.clamp_events": ("count", True),
    "plant.step_calls": ("count", True),
    "plant.step_ns": ("ns", False),
    "valve.step_calls": ("count", True),
    "valve.step_ns": ("ns", False),
    "valve.switches": ("count", True),
    "valve.stick_events": ("count", True),
    "valve.cancel_events": ("count", True),
    "orifice.flow_calls": ("count", True),
    "orifice.flow_ns": ("ns", False),
    "tube.tip_calls": ("count", True),
    "tube.tip_ns": ("ns", False),
    "sensor.read_calls": ("count", True),
    "sensor.read_ns": ("ns", False),
    "reference.eval_calls": ("count", True),
    "reference.eval_ns": ("ns", False),
    "controllers.mb_ticks": ("count", True),
    "controllers.mb_tick_ns": ("ns", False),
    "controllers.mb_hold_frac": ("ratio", True),
    "controllers.switching_ticks": ("count", True),
    "controllers.pi_ticks": ("count", True),
    "metrics.compute_s": ("s", False),
    "traceio.write_s": ("s", False),
    "traceio.bytes_written": ("bytes", True),
    "traceio.bytes_read": ("bytes", True),
    "trace.overhead_s": ("s", False),
}

# Layer times that are exactly 0 on the workloads that make no such call
# (only busy_sweep sweeps and reads traces). They are printed, but the result
# line carries only times measured on every workload.
PRINTED_ONLY = {"experiments.sweep_s": "s", "traceio.read_s": "s"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "dighydro" / "__init__.py").is_file():
    fail(f"no dighydro sources under {SRC}")
if not GOLDEN.is_file():
    fail(f"no golden trace hashes at {GOLDEN}")
sys.path.insert(0, str(SRC))

import dighydro  # noqa: E402
from dighydro import controllers, experiments, plant, sim, traceio, tube  # noqa: E402
from dighydro.valve import CLOSING, DELAYING, OPENING, STUCK  # noqa: E402

if Path(dighydro.__file__).resolve().parent != (SRC / "dighydro").resolve():
    fail(f"imported dighydro from {dighydro.__file__}, not from {SRC}")

from gate import Gate, quiescent_steps  # noqa: E402
from hostclock import Sampler, corrected_s  # noqa: E402
from tracer import Calibration, Tracer, calibrate  # noqa: E402


# -- workloads ---------------------------------------------------------------


@dataclass
class Call:
    """One harness call. op is the experiments/traceio function it invokes."""

    op: str
    scenario: str = ""
    overrides: dict = field(default_factory=dict)
    parameter: str = ""
    values: tuple = ()
    path: str = ""  # read_trace: file name inside the output directory

    @property
    def config_path(self) -> Path:
        return experiments.scenario_path(self.scenario)


def chirp_pressure(seed: int) -> list[Call]:
    """The paper's headline experiment: sensorless chirp tracking, matched
    and miscalibrated. Bundled configs, so the seed changes nothing."""
    return [Call("run_scenario", "chirp_matched"), Call("run_scenario", "chirp_miscalibrated")]


def step_position(seed: int) -> list[Call]:
    """Switching position control and the hysteresis loop, plus a PI outer
    loop on a seed-drawn 10-level step sequence. Almost all steps are
    quiescent: the best case for skipping them."""
    rng = random.Random(seed)
    pi = {
        "controller.kind": "pi_pressure",
        "reference.step_times_s": ", ".join(f"{2.0 * i:.1f}" for i in range(10)),
        "reference.step_levels": ", ".join(f"{rng.uniform(1.0, 8.0):.2f}" for _ in range(10)),
        "run.label": "step_unloaded_p1_pi",
    }
    bundled = ("step_unloaded_p1", "step_unloaded_p2", "step_loaded", "hysteresis")
    return [
        *(Call("run_scenario", name) for name in bundled),
        Call("hysteresis_sweep", "hysteresis"),
        Call("run_scenario", "step_unloaded_p1", pi),
    ]


def busy_sweep(seed: int) -> list[Call]:
    """A kv_hp sweep over a fast, wide chirp with a tight tolerance: the
    valves act on almost every tick, so few steps are quiescent. The only
    workload that reads traces back and loads a config per run."""
    rng = random.Random(seed)
    base = {
        "run.label": "busy",
        "run.duration_s": "10",
        "run.seed": str(rng.randrange(2**31)),
        "reference.chirp_f0_hz": "1",
        "reference.chirp_f1_hz": f"{rng.uniform(5.0, 8.0):.3f}",
        "reference.chirp_lo": "50e3",
        "reference.chirp_hi": "450e3",
        "reference.chirp_sweep_time_s": "10",
        "controller.tolerance_pa": "2e3",
        "sensor.pressure_noise_std_pa": "500",
        "sensor.position_noise_std_mm": "0.02",
    }
    values = tuple(f"{rng.uniform(0.9e-8, 1.1e-8):.4e}" for _ in range(4))
    reads = [Call("read_trace", path=f"busy_{i:03d}_trace.csv") for i in range(len(values))]
    return [Call("sweep", "chirp_matched", base, "plant.kv_hp", values), *reads]


WORKLOADS = {f.__name__: f for f in (chirp_pressure, step_position, busy_sweep)}


def setup_jobs(calls: list[Call], exp) -> list[tuple[str, dict]]:
    """Every (config, overrides) the workload loads, with the configs of
    the package whose experiments module `exp` is."""
    jobs = []
    for call in calls:
        if call.op == "read_trace":
            continue
        path = str(exp.scenario_path(call.scenario))
        jobs.append((path, call.overrides))
        for value in call.values:
            jobs.append((path, dict(call.overrides, **{call.parameter: value})))
    return jobs


def setup_probe(source: Path, package: str, jobs: list) -> float:
    """Corrected time of import `package` + load_config of every job, in a
    fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(source), package],
        input=json.dumps(jobs),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
        cwd=ROOT,
    )
    return corrected_s(json.loads(done.stdout.strip().splitlines()[-1]))


def measure_setup(calls: list[Call], ref: "Reference", pairs: int) -> list[tuple[float, float]]:
    """(package, frozen copy) set-up times, each probe in a fresh
    interpreter, the two in turn first."""
    jobs = setup_jobs(calls, experiments)
    ref_jobs = setup_jobs(calls, ref.experiments)
    samples = []
    for i in range(pairs):
        if i % 2:
            pkg = setup_probe(SRC, "dighydro", jobs)
            copy = setup_probe(REF_DIR, REF_PACKAGE, ref_jobs)
        else:
            copy = setup_probe(REF_DIR, REF_PACKAGE, ref_jobs)
            pkg = setup_probe(SRC, "dighydro", jobs)
        samples.append((pkg, copy))
    return samples


# -- passes ------------------------------------------------------------------


@dataclass
class Outcome:
    value: object
    error: str | None


def invoke(call: Call, out_dir: Path, exp=experiments, tio=traceio):
    # Module attributes are looked up at call time, so the traced run's
    # wrappers see these calls.
    config_path = exp.scenario_path(call.scenario) if call.scenario else None
    if call.op == "run_scenario":
        return exp.run_scenario(config_path, out_dir, call.overrides or None)
    if call.op == "hysteresis_sweep":
        return exp.hysteresis_sweep(config_path, out_dir, call.overrides or None)
    if call.op == "sweep":
        return exp.sweep(config_path, call.parameter, list(call.values), out_dir, call.overrides)
    return tio.read_trace(out_dir / call.path)


def attempt(call: Call, out_dir: Path) -> Outcome:
    try:
        return Outcome(invoke(call, out_dir), None)
    except Exception as exc:  # a raising call is counted as failed, not fatal
        return Outcome(None, f"{type(exc).__name__}: {exc}")


class Reference:
    """The frozen copy of the package (seedref/), run beside it as the
    time reference. Imported only after the warm-up pass, so that it adds
    nothing to the peak memory taken there."""

    def __init__(self, out_dir: Path) -> None:
        sys.path.insert(0, str(REF_DIR))
        self.experiments = importlib.import_module(f"{REF_PACKAGE}.experiments")
        self.traceio = importlib.import_module(f"{REF_PACKAGE}.traceio")
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)

    def run(self, call: Call) -> None:
        """Runs the call on the copy. The copy is the seed code, which
        passes the gate, so a raise here is a fault of the benchmark."""
        invoke(call, self.out_dir, self.experiments, self.traceio)


def timed(fn) -> float:
    with Sampler() as clock:
        fn()
    return corrected_s(clock.record())


def run_pass(
    calls: list[Call], out_dir: Path, ref: Reference | None = None, ref_first: bool = False
) -> tuple[float, list[Outcome], tuple[float, float] | None]:
    """Runs the calls in order; returns the host seconds they took and
    their outcomes. With a reference, runs each call on the copy too, right
    before or after the package's call (alternating, starting as ref_first
    says), each under its own Sampler, and also returns the corrected
    seconds of (package, copy) over the pass; the host seconds then cover
    both."""
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    if ref is None:
        for call in calls:
            outcomes.append(attempt(call, out_dir))
        return time.perf_counter() - start, outcomes, None
    pkg_s = copy_s = 0.0
    for i, call in enumerate(calls):
        if (i % 2 == 0) == ref_first:
            copy_s += timed(lambda: ref.run(call))
            pkg_s += timed(lambda: outcomes.append(attempt(call, out_dir)))
        else:
            pkg_s += timed(lambda: outcomes.append(attempt(call, out_dir)))
            copy_s += timed(lambda: ref.run(call))
    return time.perf_counter() - start, outcomes, (pkg_s, copy_s)


def output_counts(calls: list[Call], outcomes: list[Outcome]) -> dict[str, int]:
    """Steps and quiescent steps of the traces a pass returned."""
    steps = quiescent = 0
    for call, outcome in zip(calls, outcomes):
        trace = None
        if outcome.error is None and call.op == "run_scenario":
            trace = outcome.value[3]
        elif outcome.error is None and call.op == "read_trace":
            trace = outcome.value
        if trace is not None:
            steps += len(trace)
            quiescent += quiescent_steps(trace)
    return {"steps": steps, "quiescent": quiescent}


# -- tracing -----------------------------------------------------------------

MOVING = (OPENING, CLOSING)


def _valve_hook(tracer, args, result) -> None:
    """Valve events from the phase each valve_step returns: a stick is entry
    into STUCK, a cancel a delay that ends with the armature unmoved, a
    switch any step on which the armature starts to travel."""
    before = args[0]
    if result.phase == before.phase:
        return
    moved = result.armature != before.armature
    if result.phase == STUCK:
        tracer.events["valve.stick_events"] += 1
    elif before.phase == DELAYING and not moved and result.phase not in MOVING:
        tracer.events["valve.cancel_events"] += 1
    elif before.phase not in MOVING and (moved or result.phase in MOVING):
        tracer.events["valve.switches"] += 1


def _mb_hook(tracer, args, result) -> None:
    if not result[0] and not result[1]:
        tracer.events["controllers.mb_holds"] += 1


def _sim_hook(tracer, args, result) -> None:
    tracer.events["sim.steps"] += len(result)
    tracer.events["sim.quiescent"] += quiescent_steps(result)
    tracer.events["sim.clamp_events"] += result.clamp_events


def _write_hook(tracer, args, result) -> None:
    tracer.events["traceio.bytes_written"] += os.path.getsize(args[1])


def _read_hook(tracer, args, result) -> None:
    tracer.events["traceio.bytes_read"] += os.path.getsize(args[0])


# (module, attribute, layer, hook, keep individual spans)
PATCHES = (
    (experiments, "load_config", "config.load", None, True),
    (experiments, "run_scenario", "experiments.run_scenario", None, True),
    (experiments, "sweep", "experiments.sweep", None, True),
    (experiments, "hysteresis_sweep", "experiments.hysteresis_sweep", None, True),
    (experiments, "run_simulation", "sim.run_simulation", _sim_hook, True),
    (experiments, "compute_metrics", "metrics.compute", None, True),
    (experiments, "write_trace", "traceio.write", _write_hook, True),
    (traceio, "read_trace", "traceio.read", _read_hook, True),
    (sim, "plant_step", "plant.step", None, False),
    (plant, "valve_step", "valve.step", _valve_hook, False),
    (plant, "orifice_flow", "orifice.flow", None, False),
    (controllers, "orifice_flow", "orifice.flow", None, False),
    (tube, "tip_position", "tube.tip", None, False),
    # Absent today (plant imports tip_position per call from tube); wrapped
    # too if plant ever binds it at module level.
    (plant, "tip_position", "tube.tip", None, False),
    (sim, "sensor_read", "sensor.read", None, False),
    (sim, "reference_eval", "reference.eval", None, False),
    (sim, "model_based_tick", "controllers.mb_tick", _mb_hook, False),
    (sim, "switching_tick", "controllers.switching_tick", None, False),
    (sim, "pi_tick", "controllers.pi_tick", None, False),
)


def layer_metrics(tracer: Tracer, cal: Calibration) -> dict[str, float]:
    """Per-layer metrics of one traced pass, net of the calibrated wrapper
    cost; trace.overhead_s is filled in by the caller."""
    agg = tracer.agg
    ev = tracer.events

    def seconds(name):
        return agg(name).net_inclusive_ns(cal) / 1e9

    def ns_per_call(name):
        a = agg(name)
        return a.net_self_ns(cal) / a.calls if a.calls else 0.0

    steps = ev["sim.steps"]
    mb_ticks = agg("controllers.mb_tick").calls
    return {
        "config.load_s": seconds("config.load"),
        "experiments.run_scenario_s": seconds("experiments.run_scenario"),
        "experiments.sweep_s": seconds("experiments.sweep"),
        "sim.self_s": agg("sim.run_simulation").net_self_ns(cal) / 1e9,
        "sim.steps": steps,
        "sim.us_per_step": seconds("sim.run_simulation") * 1e6 / steps if steps else 0.0,
        "sim.quiescent_frac": ev["sim.quiescent"] / steps if steps else 0.0,
        "sim.clamp_events": ev["sim.clamp_events"],
        "plant.step_calls": agg("plant.step").calls,
        "plant.step_ns": ns_per_call("plant.step"),
        "valve.step_calls": agg("valve.step").calls,
        "valve.step_ns": ns_per_call("valve.step"),
        "valve.switches": ev["valve.switches"],
        "valve.stick_events": ev["valve.stick_events"],
        "valve.cancel_events": ev["valve.cancel_events"],
        "orifice.flow_calls": agg("orifice.flow").calls,
        "orifice.flow_ns": ns_per_call("orifice.flow"),
        "tube.tip_calls": agg("tube.tip").calls,
        "tube.tip_ns": ns_per_call("tube.tip"),
        "sensor.read_calls": agg("sensor.read").calls,
        "sensor.read_ns": ns_per_call("sensor.read"),
        "reference.eval_calls": agg("reference.eval").calls,
        "reference.eval_ns": ns_per_call("reference.eval"),
        "controllers.mb_ticks": mb_ticks,
        "controllers.mb_tick_ns": ns_per_call("controllers.mb_tick"),
        "controllers.mb_hold_frac": ev["controllers.mb_holds"] / mb_ticks if mb_ticks else 0.0,
        "controllers.switching_ticks": agg("controllers.switching_tick").calls,
        "controllers.pi_ticks": agg("controllers.pi_tick").calls,
        "metrics.compute_s": seconds("metrics.compute"),
        "traceio.write_s": seconds("traceio.write"),
        "traceio.bytes_written": ev["traceio.bytes_written"],
        "traceio.read_s": seconds("traceio.read"),
        "traceio.bytes_read": ev["traceio.bytes_read"],
    }


# -- one set of passes -------------------------------------------------------


@dataclass
class PassRecord:
    wall: float  # host seconds of the whole pass, the copy's calls included
    counts: dict
    peak_rss_mib: float
    pair: tuple[float, float] | None = None  # corrected (package, copy) seconds
    layers: dict | None = None
    tracer: Tracer | None = None


class Bench:
    """Runs sets of passes of one workload through the gate and keeps the
    tally of attempted and failed calls."""

    def __init__(self, calls: list[Call], out_dir: Path, gate: Gate) -> None:
        self.calls = calls
        self.out_dir = out_dir
        self.gate = gate
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict = {}  # first value of every exact count

    def _count_problem(self, message: str) -> None:
        self.problems.append(message)
        self.failed += 1

    def _same_counts(self, counts: dict) -> None:
        for key, value in counts.items():
            first = self.counts.setdefault(key, value)
            if first != value:
                self._count_problem(f"nondeterminism: {key} is {value}, was {first}")

    def passes(
        self,
        deadline: float,
        cal: Calibration | None = None,
        ref_dir: Path | None = None,
        after_pass=None,
    ) -> list[PassRecord]:
        """At least MIN_PASSES passes, then more while the next pass, as long
        as the median one of its kind so far, still fits before `deadline`
        (a perf_counter time), so a run measures for its set time without
        overshooting it. Traced when a calibration is given. Given ref_dir,
        every pass after the first runs the frozen copy beside the package,
        writing the copy's files there. after_pass(ref) runs after each
        pass and its gate, with the copy once it is loaded."""
        records: list[PassRecord] = []
        ref = None

        def next_pass_s() -> float:
            paired = [r.wall for r in records if r.pair is not None]
            if paired:
                return statistics.median(paired)
            # The warm-up pass runs the package alone.
            return records[0].wall * (2 if ref_dir is not None else 1)

        while len(records) < MIN_PASSES or time.perf_counter() + next_pass_s() <= deadline:
            tracer = None
            if cal is not None:
                tracer = Tracer()
                for module, attr, name, hook, span in PATCHES:
                    tracer.patch(module, attr, name, hook, span)
            try:
                wall, outcomes, pair = run_pass(
                    self.calls, self.out_dir, ref, ref_first=len(records) % 2 == 1
                )
            finally:
                left = tracer.restore() if tracer is not None else []
            # The peak so far, read after every pass and before the gate
            # allocates, so that the reported value can come from a fixed
            # pass and holds no gate work.
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if left:
                self._count_problem(f"wrapped attributes not restored: {left}")
            full = not records
            for call, outcome in zip(self.calls, outcomes):
                errors = self.gate.check(call, outcome, full)
                self.attempted += 1
                if errors:
                    self.failed += 1
                    where = f"{call.op} {call.scenario or call.path}"
                    self.problems += [f"{where}: {e}" for e in errors]
            counts = output_counts(self.calls, outcomes)
            record = PassRecord(wall, counts, peak, pair)
            if ref_dir is not None and ref is None:
                # The copy is loaded only now: the first pass is a warm-up
                # without it, so that the process peak taken after that
                # pass is the package's alone.
                ref = Reference(ref_dir)
            if tracer is not None:
                record.tracer = tracer
                record.layers = layer_metrics(tracer, cal)
                self._same_counts(
                    {k: v for k, v in record.layers.items() if k in PER_LAYER and PER_LAYER[k][1]}
                )
                if record.layers["sim.steps"] != counts["steps"]:
                    self._count_problem("traced steps differ from the returned traces")
            self._same_counts(counts)
            records.append(record)
            if after_pass is not None:
                after_pass(ref)
        return records


# -- reporting ---------------------------------------------------------------


def summary(values: list[float]) -> tuple[float, float, float, int]:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return statistics.median(values), q1, q3, len(values)


def report(name: str, values: list[float], unit: str) -> float:
    med, q1, q3, n = summary(values)
    print(f"{name:28s} {med:14.6g} {unit:6s} q1 {q1:.6g}  q3 {q3:.6g}  n={n}")
    return med


def write_spans(path: Path, cal: Calibration, records: list[PassRecord]) -> None:
    doc = {
        "calibration_ns": asdict(cal),
        "passes": [
            {
                "wall_s": r.wall,
                "layers": {k: asdict(v) for k, v in r.tracer.stats.items()},
                "events": dict(r.tracer.events),
                "spans": [
                    {"name": n, "parent": p, "start_ns": s, "end_ns": e}
                    for n, p, s, e in r.tracer.spans
                ],
            }
            for r in records
        ],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="minimum passes and probes")
    args = ap.parse_args(argv)

    seconds = 0.0 if args.smoke else args.seconds
    calls = WORKLOADS[args.workload](args.seed)
    work_dir = OUT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    out_dir = work_dir / "files"
    out_dir.mkdir(parents=True)
    ref_out = work_dir / "seedref_files"

    bench = Bench(calls, out_dir, Gate(GOLDEN))
    python = sys.version.split()[0]
    print(f"workload {args.workload} seed {args.seed} python {python} nproc {os.cpu_count()}")
    deadline = time.perf_counter() + seconds
    setup: list[tuple[float, float]] = []
    if args.trace == 0:
        untraced = bench.passes(
            deadline,
            ref_dir=ref_out,
            after_pass=lambda ref: setup.extend(measure_setup(calls, ref, SETUP_PAIRS_PER_PASS)),
        )
    else:
        # The traced run needs the untraced passes only for its outputs'
        # hashes and for trace.overhead_s, so it runs the minimum of them.
        untraced = bench.passes(0.0)
    walls = [r.wall for r in untraced]
    print("host pass walls " + " ".join(f"{w:.4f}" for w in walls))
    metrics: dict[str, dict] = {}
    if args.trace == 0:
        timed = untraced[1:]  # the warm-up pass is left out
        print("corrected package/copy pass seconds " + "  ".join(
            f"{r.pair[0]:.4f}/{r.pair[1]:.4f}" for r in timed
        ))
        report("copy setup_s", [copy for _, copy in setup], "s")
        walls_s = [REF_PASS_S[args.workload] * r.pair[0] / r.pair[1] for r in timed]
        values = {
            "wall_s": walls_s,
            "steps_per_s": [r.counts["steps"] / w for r, w in zip(timed, walls_s)],
            "setup_s": [REF_SETUP_S[args.workload] * pkg / copy for pkg, copy in setup],
            # After the warm-up pass, not at the end: the process peak creeps
            # up with the pass count, which depends on the machine's speed.
            "peak_rss_mb": [untraced[0].peak_rss_mib],
        }
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": report(name, values[name], unit), "unit": unit}
    else:
        cal = calibrate()
        print(f"wrapper cost: leaf {cal.leaf_ns:.1f} ns, child {cal.child_ns:.1f} ns")
        traced = bench.passes(deadline, cal)
        untraced_wall = statistics.median(walls)
        for r in traced:
            r.layers["trace.overhead_s"] = r.wall - untraced_wall
        for name, (unit, exact) in PER_LAYER.items():
            values = [r.layers[name] for r in traced]
            value = values[0] if exact else report(name, values, unit)
            if exact:
                print(f"{name:28s} {value:14.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        for name, unit in PRINTED_ONLY.items():
            report(name, [r.layers[name] for r in traced], unit)
        write_spans(work_dir / "spans.json", cal, traced)
    for directory in (out_dir, ref_out):
        shutil.rmtree(directory, ignore_errors=True)

    rate = bench.failed / bench.attempted
    print(f"{'error_rate':28s} {rate:14.6g} ratio  ({bench.failed}/{bench.attempted} calls)")
    for problem in bench.problems:
        print(f"FAIL {problem}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": min(bench.failed, bench.attempted),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
