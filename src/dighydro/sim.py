"""Fixed-step simulation engine closing the loop around the plant.

The engine owns all timing: plant steps at dt, valve commands held for a
whole command quantum, controller decisions on their own (coarser) grids,
and the delayed/quantized sensors reading from the recorded true histories.
The switching controller only picks a valve (or none) at each window start;
the engine holds that valve's command from the window start for the duty
share of the window, floored to whole command quanta, and both commands off
for the rest of the window.
A run is strictly single-threaded and deterministic given its config.

The time column t = `arange(n_steps) * dt` (bitwise `k * dt`) and the
reference column built from it by `reference_column` exist before the loop,
since the reference never depends on the plant; a controller reads r from
it only where a command quantum starts.

The other columns are recorded in two kinds of record:
- per step: p_tube, tip_y, sensed_pos, sensed_p, hp_cmd, lp_cmd and the
  booked volume dv, each stored by index, through a `memoryview`, into an
  array allocated at its final size before the loop, which is then the
  trace's column as it stands; the sensors count their period and delay in
  whole steps, so a read at step k indexes the p_tube or tip_y column
  directly and no time column is searched;
- per move: v_tube and both armatures, with the step from which they hold,
  packed as four doubles onto one `bytearray` each time `plant_step`
  returns a new state object instead of its input.
  The engine steps the plant on every step, and a quiescent step hands a
  fixed point of the plant straight back (see `plant`), bit for bit as a
  full step would. After the loop the move records are repeated out to one
  row per step.

Sensor noise for the whole run is drawn up front in one
`rng.standard_normal(n_steps * m)` call, m being the number of sensors with
noise_std > 0: per step, the pressure sensor's draw, then the position
sensor's. That is bit for bit the stream of n_steps * m scalar draws in
read order. Each noisy sensor indexes its own strided `memoryview` of the
draws by step, `draws[0::m]` (pressure) or `draws[p_noisy::m]` (position),
which gives a Python float with the bits of `ndarray.item` at under half
the cost. A run with m = 0 builds no generator, so it never imports
`numpy.random`, which costs a process several MiB and milliseconds.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .controllers import model_based_tick, pi_tick, switching_tick
from .plant import plant_step
from .reference import reference_column
from .sensor import sensor_read

TRACE_COLUMNS = (
    "t",
    "ref",
    "p_tube",
    "v_tube",
    "tip_y",
    "hp_cmd",
    "lp_cmd",
    "hp_arm",
    "lp_arm",
    "sensed_pos",
    "sensed_p",
)


@dataclass
class SimTrace:
    """Per-step records of one run plus bookkeeping that backs the
    conservation and determinism checks.

    Rows are recorded at the start of each step: the state columns are the
    pre-step state at time t, the command columns are the commands applied
    over [t, t + dt). `dv` is the exact volume booked into the tube during
    each step, and `v_final` the tube volume after the last step.
    """

    columns: dict[str, np.ndarray]
    dv: np.ndarray | None = None
    v_final: float = 0.0
    clamp_events: int = 0
    control_domain: str = "none"
    label: str = ""

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __len__(self) -> int:
        return len(self.columns["t"])


def run_simulation(cfg: ScenarioConfig) -> SimTrace:
    """Run one scenario to completion and return its trace."""
    run = cfg.run
    dt = run.dt_s
    n_steps = round(run.duration_s / dt)
    quantum_steps = round(run.command_quantum_s / dt)
    sample_steps = round(cfg.controller.sample_period_s / dt)
    window_steps = round(cfg.controller.window_s / dt)
    # The switching pulse: duty times the window, floored to whole command
    # quanta so that no pulse is shorter than a quantum.
    quanta = round(cfg.controller.window_s / run.command_quantum_s)
    pulse_steps = math.floor(cfg.controller.duty * quanta + 1e-9) * quantum_steps
    pi_steps = round(cfg.controller.pi_period_s / dt)

    plant = cfg.build_plant()
    state = cfg.build_initial_state(plant)
    ref = cfg.build_reference()
    p_sensor = cfg.build_pressure_sensor()
    pos_sensor = cfg.build_position_sensor()
    p_noisy = p_sensor.noise_std > 0.0
    pos_noisy = pos_sensor.noise_std > 0.0
    m = p_noisy + pos_noisy
    if m:
        draws = memoryview(np.random.default_rng(run.seed).standard_normal(n_steps * m))
        p_draws, pos_draws = draws[0::m], draws[p_noisy::m]

    kind = cfg.controller.kind
    mb = cfg.build_model_based_controller(plant) if kind in ("pressure_model", "pi_pressure") else None
    sw = cfg.build_switching_controller() if kind == "switching" else None
    pi = cfg.build_pi_controller() if kind == "pi_pressure" else None
    p_ref_inner = cfg.plant.initial_pressure_pa

    # k * dt bitwise.
    t = np.arange(n_steps) * dt
    ref_col = reference_column(ref, t)
    refs = memoryview(ref_col)

    # Every per-step column at its final size, written by index; the sensors
    # index p_tube and tip_y by step.
    per_step = ("p_tube", "tip_y", "sensed_pos", "sensed_p", "hp_cmd", "lp_cmd", "dv")
    columns = {"t": t, "ref": ref_col, **{name: np.empty(n_steps) for name in per_step}}
    p_col, y_col, sensed_pos_col, sensed_p_col, hp_col, lp_col, dv_col = (
        memoryview(columns[name]) for name in per_step
    )
    # One record of four doubles per move: the step from which the state
    # holds, its v_tube and its armatures.
    pack = struct.Struct("4d").pack
    moves = bytearray(pack(0, state.v_tube, state.hp_valve.armature, state.lp_valve.armature))
    clamp_events = 0

    hp_cmd = lp_cmd = False

    # plant_step, sensor_read and the controller ticks are looked up as
    # module globals on every call, never bound to locals, so that wrapping
    # them on this module sees every call.
    for k in range(n_steps):
        p_col[k] = state.p_tube
        y_col[k] = state.tip_y

        sensed_p_col[k] = sensor_read(p_sensor, p_col, k, p_draws[k] if p_noisy else None)
        sensed_pos = sensor_read(pos_sensor, y_col, k, pos_draws[k] if pos_noisy else None)
        sensed_pos_col[k] = sensed_pos

        # The commands change only here. Controllers absent from this run
        # are None; under PI the model-based inner loop tracks the PI output
        # instead of r.
        if k % quantum_steps == 0:
            r = refs[k]
            if pi is not None and k % pi_steps == 0:
                p_ref_inner, pi = pi_tick(pi, r - sensed_pos, cfg.controller.pi_period_s)
            if mb is not None and k % sample_steps == 0:
                p_ref = r if pi is None else p_ref_inner
                hp_cmd, lp_cmd, mb = model_based_tick(mb, p_ref)
            if sw is not None:
                if k % window_steps == 0:
                    pulse = switching_tick(sw, r - sensed_pos)
                hp_cmd, lp_cmd = pulse if k % window_steps < pulse_steps else (False, False)
        hp_col[k] = hp_cmd
        lp_col[k] = lp_cmd

        moved, dv_col[k] = plant_step(plant, state, hp_cmd, lp_cmd, dt)
        # A fixed point comes back as the input object, so clamp_events
        # counts the moves into a clamped state: a state clamped at the
        # supply that comes back as a fixed point counts once.
        if moved is not state:
            state = moved
            moves += pack(k + 1, state.v_tube, state.hp_valve.armature, state.lp_valve.armature)
            if state.clamped:
                clamp_events += 1

    since, *held_vals = np.frombuffer(moves).reshape(-1, 4).T
    held = np.diff(since, append=n_steps).astype(int)
    for name, vals in zip(("v_tube", "hp_arm", "lp_arm"), held_vals):
        columns[name] = np.repeat(vals, held)
    return SimTrace(
        columns={name: columns[name] for name in TRACE_COLUMNS},
        dv=columns["dv"],
        v_final=state.v_tube,
        clamp_events=clamp_events,
        control_domain=cfg.control_domain,
        label=run.label,
    )


def volume_ledger_error(trace: SimTrace) -> float:
    """Relative mismatch between the net tube volume change and the per-step
    ledger, replayed with the same sequential summation the engine used."""
    if trace.dv is None or not len(trace):
        return 0.0
    # accumulate adds in order, unlike np.sum's pairwise sum.
    v = np.add.accumulate(np.r_[trace.columns["v_tube"][0], trace.dv])[-1]
    scale = max(abs(trace.v_final), abs(float(np.max(trace.columns["v_tube"]))), 1e-300)
    return abs(v - trace.v_final) / scale
