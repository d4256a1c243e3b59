"""Frozen copy of the dighydro package at the benchmark's baseline.

The benchmark's time reference: it runs every workload call of this copy
next to the same call of the package under test and reports the package's
time as a multiple of this copy's (see perfbench/run.py). The copy is the
package's sources unchanged, except for this docstring, cli.py left out
and experiments.scenario_path resolving this package's bundled scenarios.
Never edit it to follow the package: a changed reference moves every
end-to-end time.
"""

from .config import ConfigError, ScenarioConfig, load_config
from .controllers import (
    ModelBasedControllerState,
    PiControllerState,
    SwitchingControllerState,
    model_based_init,
    model_based_tick,
    pi_tick,
    switching_sign,
    switching_tick,
)
from .experiments import (
    BUNDLED_SCENARIOS,
    hysteresis_sweep,
    loop_area,
    play_loop_area,
    quasi_static_loop,
    run_scenario,
    scenario_path,
    sweep,
)
from .metrics import RunMetrics, compute_metrics
from .orifice import OrificeModel, flow_factor, orifice_flow
from .plant import HydraulicState, PlantModel, initial_state, plant_step
from .reference import ReferenceSignal, reference_eval
from .sensor import SensorModel, quantize, sensor_read
from .sim import SimTrace, run_simulation, volume_ledger_error
from .traceio import read_trace, write_trace
from .tube import TipPositionMap, TubeModelLinear, play_update, tip_position, tube_pressure
from .valve import ValveDynamics, valve_step

__all__ = [
    "BUNDLED_SCENARIOS",
    "ConfigError",
    "HydraulicState",
    "ModelBasedControllerState",
    "OrificeModel",
    "PiControllerState",
    "PlantModel",
    "ReferenceSignal",
    "RunMetrics",
    "ScenarioConfig",
    "SensorModel",
    "SimTrace",
    "SwitchingControllerState",
    "TipPositionMap",
    "TubeModelLinear",
    "ValveDynamics",
    "compute_metrics",
    "flow_factor",
    "hysteresis_sweep",
    "initial_state",
    "load_config",
    "loop_area",
    "model_based_init",
    "model_based_tick",
    "orifice_flow",
    "pi_tick",
    "plant_step",
    "play_loop_area",
    "play_update",
    "quantize",
    "quasi_static_loop",
    "read_trace",
    "reference_eval",
    "run_scenario",
    "run_simulation",
    "scenario_path",
    "sensor_read",
    "sweep",
    "switching_sign",
    "switching_tick",
    "tip_position",
    "tube_pressure",
    "valve_step",
    "volume_ledger_error",
    "write_trace",
]

__version__ = "0.1.0"
