"""Scenario configuration: flat INI-style files with one section per subsystem.

Every key is typed and has a default; unknown sections or keys are hard
errors so a sweep cannot silently mutate a misspelled parameter. Validation
collects every fault before raising, not just the first.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from .controllers import (
    ModelBasedControllerState,
    PiControllerState,
    SwitchingControllerState,
    model_based_init,
)
from .orifice import OrificeModel
from .plant import HydraulicState, PlantModel, initial_state
from .reference import KINDS as REFERENCE_KINDS
from .reference import ReferenceSignal
from .sensor import SensorModel
from .tube import TipPositionMap, TubeModelLinear
from .valve import ValveDynamics

CONTROLLER_KINDS = ("none", "pressure_model", "switching", "pi_pressure")


class ConfigError(Exception):
    """Raised with the full list of configuration faults."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors))


@dataclass
class RunSection:
    label: str = "run"
    duration_s: float = 10.0
    dt_s: float = 5e-4
    command_quantum_s: float = 5e-3
    seed: int = 0


@dataclass
class PlantSection:
    supply_pressure_pa: float = 600e3
    tank_pressure_pa: float = 0.0
    tube_compliance_pa_per_m3: float = 3.3e11
    kv_hp: float = 1e-8
    kv_lp: float = 1e-8
    transition_pressure_pa: float = 1e3
    valve_delay_s: float = 1e-3
    valve_movement_time_s: float = 2e-3
    valve_sticking_time_s: float = 1e-3
    initial_pressure_pa: float = 0.0
    supply_droop_pa_per_m3: float = 0.0


@dataclass
class TipMapSection:
    gain_mm_per_pa: float = 2e-5
    offset_mm: float = 0.0
    saturation_lo_mm: float = -100.0
    saturation_hi_mm: float = 100.0
    play_width_pa: float = 0.0


@dataclass
class ControllerSection:
    kind: str = "none"
    tolerance_pa: float = 10e3
    sample_period_s: float = 5e-3
    # Controller-side orifice copies; empty string inherits the plant value.
    ctrl_kv_hp: str = ""
    ctrl_kv_lp: str = ""
    threshold_mm: float = 0.5
    duty: float = 0.18
    window_s: float = 0.1
    pi_kp_pa_per_mm: float = 3e4
    pi_ki_pa_per_mm_s: float = 1e4
    pi_bias_pa: float = 200e3
    pi_out_lo_pa: float = 0.0
    pi_out_hi_pa: float = 550e3
    pi_period_s: float = 5e-2


@dataclass
class ReferenceSection:
    kind: str = "constant"
    value: float = 0.0
    step_times_s: tuple = (0.0,)
    step_levels: tuple = (0.0,)
    chirp_f0_hz: float = 0.0
    chirp_f1_hz: float = 1.0
    chirp_lo: float = 150e3
    chirp_hi: float = 250e3
    chirp_sweep_time_s: float = 30.0


@dataclass
class SensorSection:
    pressure_period_s: float = 5e-3
    pressure_delay_s: float = 4e-3
    pressure_quantization_pa: float = 0.0
    pressure_noise_std_pa: float = 0.0
    # Vision tip tracker: update rate is an assumption, only the CAN timing
    # (5 ms period + 4 ms delay) is known; quantization from 800 px over an
    # 80 mm field of view.
    position_period_s: float = 5e-2
    position_delay_s: float = 9e-3
    position_quantization_mm: float = 0.1
    position_noise_std_mm: float = 0.0


@dataclass
class HysteresisSection:
    pressure_max_pa: float = 400e3
    pressure_step_pa: float = 5e3


SECTIONS = {
    "run": RunSection,
    "plant": PlantSection,
    "tip_map": TipMapSection,
    "controller": ControllerSection,
    "reference": ReferenceSection,
    "sensor": SensorSection,
    "hysteresis": HysteresisSection,
}


@dataclass
class ScenarioConfig:
    run: RunSection = field(default_factory=RunSection)
    plant: PlantSection = field(default_factory=PlantSection)
    tip_map: TipMapSection = field(default_factory=TipMapSection)
    controller: ControllerSection = field(default_factory=ControllerSection)
    reference: ReferenceSection = field(default_factory=ReferenceSection)
    sensor: SensorSection = field(default_factory=SensorSection)
    hysteresis: HysteresisSection = field(default_factory=HysteresisSection)

    # -- builders -----------------------------------------------------------

    def build_plant(self) -> PlantModel:
        p = self.plant
        m = self.tip_map
        return PlantModel(
            tube=TubeModelLinear(c_a=p.tube_compliance_pa_per_m3),
            hp_orifice=OrificeModel(k_v=p.kv_hp, p_tr=p.transition_pressure_pa),
            lp_orifice=OrificeModel(k_v=p.kv_lp, p_tr=p.transition_pressure_pa),
            tip_map=TipPositionMap(
                gain=m.gain_mm_per_pa,
                offset=m.offset_mm,
                sat_lo=m.saturation_lo_mm,
                sat_hi=m.saturation_hi_mm,
                play_width=m.play_width_pa,
            ),
            supply_droop=p.supply_droop_pa_per_m3,
        )

    def build_initial_state(self, plant: PlantModel) -> HydraulicState:
        p = self.plant
        valve = ValveDynamics(
            delay=p.valve_delay_s,
            movement_time=p.valve_movement_time_s,
            sticking_time=p.valve_sticking_time_s,
        )
        return initial_state(
            plant, p.supply_pressure_pa, p.tank_pressure_pa, p.initial_pressure_pa, valve
        )

    def build_reference(self) -> ReferenceSignal:
        r = self.reference
        return ReferenceSignal(
            kind=r.kind,
            value=r.value,
            times=tuple(r.step_times_s),
            levels=tuple(r.step_levels),
            f0=r.chirp_f0_hz,
            f1=r.chirp_f1_hz,
            lo=r.chirp_lo,
            hi=r.chirp_hi,
            sweep_time=r.chirp_sweep_time_s,
        )

    def build_pressure_sensor(self) -> SensorModel:
        s = self.sensor
        return SensorModel(
            sample_period=s.pressure_period_s,
            transport_delay=s.pressure_delay_s,
            quantization=s.pressure_quantization_pa,
            noise_std=s.pressure_noise_std_pa,
        )

    def build_position_sensor(self) -> SensorModel:
        s = self.sensor
        return SensorModel(
            sample_period=s.position_period_s,
            transport_delay=s.position_delay_s,
            quantization=s.position_quantization_mm,
            noise_std=s.position_noise_std_mm,
        )

    def build_model_based_controller(self) -> ModelBasedControllerState:
        c = self.controller
        p = self.plant
        kv_hp = float(c.ctrl_kv_hp) if c.ctrl_kv_hp else p.kv_hp
        kv_lp = float(c.ctrl_kv_lp) if c.ctrl_kv_lp else p.kv_lp
        state = ModelBasedControllerState(
            tube=TubeModelLinear(c_a=p.tube_compliance_pa_per_m3),
            hp_orifice=OrificeModel(k_v=kv_hp, p_tr=p.transition_pressure_pa),
            lp_orifice=OrificeModel(k_v=kv_lp, p_tr=p.transition_pressure_pa),
            tolerance=c.tolerance_pa,
            sample_period=c.sample_period_s,
        )
        return model_based_init(state, p.initial_pressure_pa)

    def build_switching_controller(self) -> SwitchingControllerState:
        c = self.controller
        return SwitchingControllerState(
            threshold=c.threshold_mm,
            sample_period=c.window_s,
            duty=c.duty,
            command_quantum=self.run.command_quantum_s,
        )

    def build_pi_controller(self) -> PiControllerState:
        c = self.controller
        return PiControllerState(
            kp=c.pi_kp_pa_per_mm,
            ki=c.pi_ki_pa_per_mm_s,
            bias=c.pi_bias_pa,
            out_lo=c.pi_out_lo_pa,
            out_hi=c.pi_out_hi_pa,
        )

    @property
    def control_domain(self) -> str:
        """Units of the active reference: pressure (Pa) or position (mm)."""
        return {
            "none": "none",
            "pressure_model": "pressure",
            "switching": "position",
            "pi_pressure": "position",
        }[self.controller.kind]


# -- parsing ----------------------------------------------------------------


def _parse_float_list(text: str) -> tuple:
    items = [s.strip() for s in text.split(",") if s.strip()]
    return tuple(float(s) for s in items)


def _convert(section: str, key: str, text: str, target_type: type, errors: list[str]):
    try:
        if target_type is float:
            return float(text)
        if target_type is int:
            return int(text)
        if target_type is tuple:
            return _parse_float_list(text)
        return text
    except ValueError:
        errors.append(f"[{section}] {key}: cannot parse {text!r} as {target_type.__name__}")
        return None


def read_raw(path: str | Path) -> dict[str, dict[str, str]]:
    """Read an INI file into plain string sections without interpretation."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path) as fh:
        parser.read_file(fh, source=str(path))
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _is_multiple(a: float, b: float) -> bool:
    if b <= 0.0:
        return False
    ratio = a / b
    return abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 1


def cross_validate(cfg: ScenarioConfig) -> list[str]:
    """Cross-field checks; returns the full fault list."""
    errors: list[str] = []
    r, p, c, m, s = cfg.run, cfg.plant, cfg.controller, cfg.tip_map, cfg.sensor

    if r.duration_s <= 0.0:
        errors.append("[run] duration_s must be > 0")
    if r.dt_s <= 0.0:
        errors.append("[run] dt_s must be > 0")
    elif not _is_multiple(r.command_quantum_s, r.dt_s):
        errors.append("[run] command_quantum_s must be a whole multiple of dt_s")

    if p.tank_pressure_pa >= p.supply_pressure_pa:
        errors.append("[plant] tank_pressure_pa must be < supply_pressure_pa")
    if p.tank_pressure_pa < 0.0:
        errors.append("[plant] tank_pressure_pa must be >= 0")
    for key in ("tube_compliance_pa_per_m3", "kv_hp", "kv_lp", "transition_pressure_pa"):
        if getattr(p, key) <= 0.0:
            errors.append(f"[plant] {key} must be > 0")
    for key in ("valve_delay_s", "valve_movement_time_s", "valve_sticking_time_s"):
        if getattr(p, key) < 0.0:
            errors.append(f"[plant] {key} must be >= 0")
    if p.initial_pressure_pa < 0.0:
        errors.append("[plant] initial_pressure_pa must be >= 0")

    if m.saturation_lo_mm > m.saturation_hi_mm:
        errors.append("[tip_map] saturation_lo_mm must be <= saturation_hi_mm")
    if m.gain_mm_per_pa < 0.0:
        errors.append("[tip_map] gain_mm_per_pa must be >= 0")
    if m.play_width_pa < 0.0:
        errors.append("[tip_map] play_width_pa must be >= 0")

    if c.kind not in CONTROLLER_KINDS:
        errors.append(f"[controller] kind must be one of {CONTROLLER_KINDS}, got {c.kind!r}")
    if c.tolerance_pa < 0.0:
        errors.append("[controller] tolerance_pa must be >= 0")
    if r.dt_s > 0.0 and not _is_multiple(c.sample_period_s, r.command_quantum_s):
        errors.append("[controller] sample_period_s must be a whole multiple of command_quantum_s")
    if r.dt_s > 0.0 and not _is_multiple(c.window_s, r.command_quantum_s):
        errors.append("[controller] window_s must be a whole multiple of command_quantum_s")
    if c.threshold_mm <= 0.0:
        errors.append("[controller] threshold_mm must be > 0")
    if not 0.0 <= c.duty <= 1.0:
        errors.append("[controller] duty must be in [0, 1]")
    for key in ("ctrl_kv_hp", "ctrl_kv_lp"):
        text = getattr(c, key)
        if text:
            try:
                if float(text) <= 0.0:
                    errors.append(f"[controller] {key} must be > 0")
            except ValueError:
                errors.append(f"[controller] {key}: cannot parse {text!r} as float")

    if cfg.reference.kind not in REFERENCE_KINDS:
        errors.append(
            f"[reference] kind must be one of {REFERENCE_KINDS}, got {cfg.reference.kind!r}"
        )
    else:
        try:
            cfg.build_reference()
        except ValueError as exc:
            errors.append(f"[reference] {exc}")

    for key in ("pressure_period_s", "position_period_s"):
        if getattr(s, key) <= 0.0:
            errors.append(f"[sensor] {key} must be > 0")
    for key in (
        "pressure_delay_s",
        "pressure_quantization_pa",
        "pressure_noise_std_pa",
        "position_delay_s",
        "position_quantization_mm",
        "position_noise_std_mm",
    ):
        if getattr(s, key) < 0.0:
            errors.append(f"[sensor] {key} must be >= 0")

    h = cfg.hysteresis
    if h.pressure_max_pa <= 0.0 or h.pressure_step_pa <= 0.0:
        errors.append("[hysteresis] pressure_max_pa and pressure_step_pa must be > 0")
    elif h.pressure_step_pa > h.pressure_max_pa:
        errors.append("[hysteresis] pressure_step_pa must be <= pressure_max_pa")

    return errors


def from_raw(raw: dict[str, dict[str, str]]) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from string sections."""
    errors: list[str] = []
    cfg = ScenarioConfig()

    for section, keys in raw.items():
        if section not in SECTIONS:
            errors.append(f"unknown section [{section}]")
            continue
        target = getattr(cfg, section)
        hints = get_type_hints(SECTIONS[section])
        for key, text in keys.items():
            if key not in hints:
                errors.append(f"unknown key {key!r} in section [{section}]")
                continue
            value = _convert(section, key, text, hints[key], errors)
            if value is not None:
                setattr(target, key, value)

    if not errors:
        errors = cross_validate(cfg)
    if errors:
        raise ConfigError(errors)
    return cfg


def apply_overrides(
    raw: dict[str, dict[str, str]], overrides: dict[str, str]
) -> dict[str, dict[str, str]]:
    """Apply "section.key" -> string overrides; unknown targets are errors."""
    errors: list[str] = []
    out = {s: dict(k) for s, k in raw.items()}
    for dotted, text in overrides.items():
        section, _, key = dotted.partition(".")
        if section not in SECTIONS or key not in get_type_hints(SECTIONS[section]):
            valid = ", ".join(
                f"{s}.{k}" for s, cls in SECTIONS.items() for k in get_type_hints(cls)
            )
            errors.append(f"unknown parameter {dotted!r}; valid parameters: {valid}")
            continue
        out.setdefault(section, {})[key] = text
    if errors:
        raise ConfigError(errors)
    return out


def load_config(path: str | Path, overrides: dict[str, str] | None = None) -> ScenarioConfig:
    """Load, override, and validate a scenario configuration file."""
    raw = read_raw(path)
    if overrides:
        raw = apply_overrides(raw, overrides)
    return from_raw(raw)
