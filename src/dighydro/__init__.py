"""Digital-hydraulic drive simulator for a soft bending actuator.

A fixed-step simulator of a constant-pressure supply driving a fiber
reinforced elastomer tube through two modulated on/off valves, together
with a model-based sensorless pressure controller, a thresholded switching
position controller, and a scenario harness for tracking, step-response,
and hysteresis experiments.
"""

from .config import ConfigError, ScenarioConfig, load_config
from .controllers import (
    ModelBasedControllerState,
    PiControllerState,
    SwitchingControllerState,
    model_based_init,
    model_based_tick,
    pi_tick,
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
from .orifice import OrificeModel, orifice_flow
from .plant import HydraulicState, PlantModel, initial_state, plant_step
from .reference import ReferenceSignal, reference_column
from .sensor import SensorModel, quantize, sensor_read
from .sim import SimTrace, run_simulation, volume_ledger_error
from .traceio import read_trace, write_trace
from .tube import TipPositionMap, TubeModelLinear, tip_position
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
    "quantize",
    "quasi_static_loop",
    "read_trace",
    "reference_column",
    "run_scenario",
    "run_simulation",
    "scenario_path",
    "sensor_read",
    "sweep",
    "switching_tick",
    "tip_position",
    "valve_step",
    "volume_ledger_error",
    "write_trace",
]

__version__ = "0.1.0"
