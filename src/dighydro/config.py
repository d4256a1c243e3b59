"""Scenario configuration: flat INI-style files with one section per subsystem.

Every key is declared once, as a field of its section dataclass: its type,
its default and, through _positive, _nonneg or _level, its single-key range
rule: a sign, a bound on the magnitude of a signal level, or both.
Unknown sections or keys are hard errors so a sweep cannot silently mutate a
misspelled parameter. Validation collects every fault before raising, not
just the first.
"""

import configparser
import math
import re
from dataclasses import Field, dataclass, field, fields, replace
from pathlib import Path

from .controllers import (
    ModelBasedControllerState,
    PiControllerState,
    SwitchingControllerState,
    model_based_init,
)
from .orifice import OrificeModel
from .plant import HydraulicState, PlantModel, initial_state
from .reference import KINDS as REFERENCE_KINDS
from .reference import CHIRP_SINE, ReferenceSignal, chirp_phase_bound
from .sensor import SensorModel
from .tube import TipPositionMap, TubeModelLinear
from .valve import ValveDynamics

# Controller kind -> the units of its reference: pressure (Pa) or position (mm).
CONTROLLER_DOMAINS = {
    "none": "none",
    "pressure_model": "pressure",
    "switching": "position",
    "pi_pressure": "position",
}

# Control domain -> (the trace column its reference tracks, the [controller]
# key of its settle band); "none" tracks nothing: zero error, a band of 0.
DOMAIN_TRACKING = {
    "none": (None, None),
    "pressure": ("p_tube", "tolerance_pa"),
    "position": ("tip_y", "threshold_mm"),
}

# The most steps a run may take, and the most pressure steps of a hysteresis
# staircase. A run allocates eight of its trace columns before its first
# step, and the eleven alone take 88 bytes a step: about 0.9 GB at this budget.
MAX_STEPS = 10**7

# The largest magnitude of a signal level: a reference value, the initial
# pressure, a tip position limit or a sensor's noise spread. The difference
# of two levels, a tracking error where the output rests at its initial
# value or a limit, is at most 2e150, and its square summed over MAX_STEPS
# steps, 4e307, stays finite; a noise spread times a standard normal draw
# stays far inside the float range.
MAX_LEVEL = 1e150

# A run's files are named after its label, the longest with this suffix;
# 255 bytes is the longest file name that common file systems take.
MAX_LABEL_BYTES = 255 - len("_trace.csv.meta.json")


class ConfigError(Exception):
    """Raised with the full list of configuration faults."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors))


def _positive(default):
    """A field whose value must be > 0; None (where allowed) is not checked."""
    return field(default=default, metadata={"must_be": "> 0"})


def _nonneg(default):
    """A field whose value must be >= 0."""
    return field(default=default, metadata={"must_be": ">= 0"})


def _level(default, must_be=None):
    """A signal level, or a tuple of them: at most MAX_LEVEL in magnitude
    and, with must_be, in that range too."""
    return field(default=default, metadata={"must_be": must_be, "level": True})


@dataclass
class RunSection:
    label: str = "run"
    duration_s: float = _positive(10.0)
    dt_s: float = _positive(5e-4)
    command_quantum_s: float = 5e-3
    seed: int = _nonneg(0)


@dataclass
class PlantSection:
    supply_pressure_pa: float = 600e3
    tank_pressure_pa: float = _nonneg(0.0)
    tube_compliance_pa_per_m3: float = _positive(3.3e11)
    kv_hp: float = _positive(1e-8)
    kv_lp: float = _positive(1e-8)
    transition_pressure_pa: float = _positive(1e3)
    valve_delay_s: float = _nonneg(1e-3)
    valve_movement_time_s: float = _nonneg(2e-3)
    valve_sticking_time_s: float = _nonneg(1e-3)
    initial_pressure_pa: float = _level(0.0, ">= 0")


@dataclass
class TipMapSection:
    gain_mm_per_pa: float = _nonneg(2e-5)
    offset_mm: float = 0.0
    saturation_lo_mm: float = _level(-100.0)
    saturation_hi_mm: float = _level(100.0)
    play_width_pa: float = _nonneg(0.0)


@dataclass
class ControllerSection:
    kind: str = "none"
    tolerance_pa: float = _nonneg(10e3)
    sample_period_s: float = 5e-3
    # The controller's own flow factors; None (an empty value) keeps the plant's.
    ctrl_kv_hp: float | None = _positive(None)
    ctrl_kv_lp: float | None = _positive(None)
    threshold_mm: float = _positive(0.5)
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
    value: float = _level(0.0)
    step_times_s: tuple = (0.0,)
    step_levels: tuple = _level((0.0,))
    chirp_f0_hz: float = 0.0
    chirp_f1_hz: float = 1.0
    chirp_lo: float = _level(150e3)
    chirp_hi: float = _level(250e3)
    chirp_sweep_time_s: float = 30.0


@dataclass
class SensorSection:
    pressure_period_s: float = _positive(5e-3)
    pressure_delay_s: float = _nonneg(4e-3)
    pressure_quantization_pa: float = _nonneg(0.0)
    pressure_noise_std_pa: float = _level(0.0, ">= 0")
    # Vision tip tracker: update rate is an assumption, only the CAN timing
    # (5 ms period + 4 ms delay) is known; quantization from 800 px over an
    # 80 mm field of view.
    position_period_s: float = _positive(5e-2)
    position_delay_s: float = _nonneg(9e-3)
    position_quantization_mm: float = _nonneg(0.1)
    position_noise_std_mm: float = _level(0.0, ">= 0")


@dataclass
class HysteresisSection:
    pressure_max_pa: float = _positive(400e3)
    pressure_step_pa: float = _positive(5e3)


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
            p_supply=p.supply_pressure_pa,
            p_tank=p.tank_pressure_pa,
        )

    def build_initial_state(self, plant: PlantModel) -> HydraulicState:
        p = self.plant
        valve = ValveDynamics(
            delay=p.valve_delay_s,
            movement_time=p.valve_movement_time_s,
            sticking_time=p.valve_sticking_time_s,
        )
        return initial_state(plant, p.initial_pressure_pa, valve)

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

    def _sensor(self, period: float, delay: float, q: float, noise_std: float) -> SensorModel:
        """A sensor whose period and delay, given in seconds, count whole steps."""
        dt = self.run.dt_s
        return SensorModel(round(period / dt), round(delay / dt), q, noise_std)

    def build_pressure_sensor(self) -> SensorModel:
        s = self.sensor
        q, noise_std = s.pressure_quantization_pa, s.pressure_noise_std_pa
        return self._sensor(s.pressure_period_s, s.pressure_delay_s, q, noise_std)

    def build_position_sensor(self) -> SensorModel:
        s = self.sensor
        q, noise_std = s.position_quantization_mm, s.position_noise_std_mm
        return self._sensor(s.position_period_s, s.position_delay_s, q, noise_std)

    def build_model_based_controller(self, plant: PlantModel) -> ModelBasedControllerState:
        c = self.controller
        hp, lp = plant.hp_orifice, plant.lp_orifice
        model = replace(
            plant,
            hp_orifice=hp if c.ctrl_kv_hp is None else replace(hp, k_v=c.ctrl_kv_hp),
            lp_orifice=lp if c.ctrl_kv_lp is None else replace(lp, k_v=c.ctrl_kv_lp),
        )
        state = ModelBasedControllerState(model, c.tolerance_pa, c.sample_period_s)
        return model_based_init(state, self.plant.initial_pressure_pa)

    def build_switching_controller(self) -> SwitchingControllerState:
        return SwitchingControllerState(threshold=self.controller.threshold_mm)

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
        return CONTROLLER_DOMAINS[self.controller.kind]


# -- parsing ----------------------------------------------------------------

# section -> key -> field, from ScenarioConfig's fields; the one list of keys.
KEYS: dict[str, dict[str, Field]] = {
    s.name: {f.name: f for f in fields(s.default_factory)} for s in fields(ScenarioConfig)
}


def _convert(text: str, kind: type):
    """Parse text as a value of a field of type kind; ValueError says why not."""
    if kind is str:
        return text
    try:
        if kind is int:
            return int(text)
        if kind is tuple:
            value = tuple(float(s) for s in text.split(",") if s.strip())
        elif kind == float | None and not text.strip():
            return None
        else:
            value = float(text)
    except ValueError:
        name = getattr(kind, "__name__", "float")  # float | None has no name
        raise ValueError(f"cannot parse {text!r} as {name}") from None
    if not all(map(math.isfinite, value if kind is tuple else (value,))):
        raise ValueError(f"{text!r} is not finite")
    return value


def read_raw(path: str | Path) -> dict[str, dict[str, str]]:
    """Read a UTF-8 INI file into plain string sections without
    interpretation; a `%` is literal and `[DEFAULT]` is an ordinary (so
    unknown) section. A malformed file raises ConfigError."""
    # No header line can name a newline, so no section is the default one
    # whose keys configparser would copy into every other section.
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None, default_section="\n"
    )
    with open(path, encoding="utf-8") as fh:
        try:
            parser.read_file(fh, source=str(path))
        except configparser.Error as exc:
            raise ConfigError([str(exc)]) from None
        except UnicodeDecodeError as exc:
            raise ConfigError([f"{path}: not UTF-8 text ({exc})"]) from None
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _is_multiple(a: float, b: float) -> bool:
    if b <= 0.0:
        return False
    ratio = a / b
    # An infinite ratio (a subnormal b, a huge a) is no whole number.
    if not math.isfinite(ratio):
        return False
    return abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 1


def cross_validate(cfg: ScenarioConfig) -> list[str]:
    """Every key's range rule, then the rules that relate keys; returns the
    full fault list."""
    errors: list[str] = []
    for section, keys in KEYS.items():
        values = getattr(cfg, section)
        for key, f in keys.items():
            must_be = f.metadata.get("must_be")
            value = getattr(values, key)
            if value is None:
                continue
            if must_be is not None and not (value > 0 if must_be == "> 0" else value >= 0):
                errors.append(f"[{section}] {key} must be {must_be}")
            levels = value if isinstance(value, tuple) else (value,)
            if f.metadata.get("level") and not all(abs(x) <= MAX_LEVEL for x in levels):
                errors.append(f"[{section}] {key} must be at most {MAX_LEVEL:g} in magnitude")

    r, p, c, m, s = cfg.run, cfg.plant, cfg.controller, cfg.tip_map, cfg.sensor
    # The output files are named after the label, inside the output directory;
    # no file name holds a NUL, and a lone surrogate has no UTF-8 encoding.
    if r.label in ("", ".", "..") or re.search(r"[/\\\x00\ud800-\udfff]", r.label):
        errors.append("[run] label must be a file name: no path separator, NUL or lone surrogate")
    if len(r.label.encode("utf-8", "surrogatepass")) > MAX_LABEL_BYTES:
        errors.append(f"[run] label must be at most {MAX_LABEL_BYTES} bytes in UTF-8")
    # The time of the run's last row, as the engine computes it, once known.
    t_last = 0.0
    if r.dt_s > 0.0:
        if not _is_multiple(r.command_quantum_s, r.dt_s):
            errors.append("[run] command_quantum_s must be a whole multiple of dt_s")
        # Also rejects a duration shorter than one step, which would give an
        # empty trace; a duration <= 0 already failed its range rule.
        if _is_multiple(r.duration_s, r.dt_s):
            t_last = (round(r.duration_s / r.dt_s) - 1) * r.dt_s
        elif r.duration_s > 0.0:
            errors.append("[run] duration_s must be a whole multiple of dt_s")
        # round(ratio) > MAX_STEPS, and true of an infinite ratio too.
        if r.duration_s / r.dt_s > MAX_STEPS + 0.5:
            errors.append(f"[run] duration_s / dt_s must be at most {MAX_STEPS} steps")
        # The engine counts these in steps too: a whole number of quanta can
        # still be more steps than a float holds.
        for key in ("sample_period_s", "window_s", "pi_period_s"):
            value = getattr(c, key)
            if not (_is_multiple(value, r.command_quantum_s) and math.isfinite(value / r.dt_s)):
                errors.append(f"[controller] {key} must be a whole multiple of command_quantum_s")
        # The sensors count their timing in whole steps; a delay of 0 is allowed.
        for key in ("pressure_period_s", "pressure_delay_s", "position_period_s", "position_delay_s"):
            value = getattr(s, key)
            if value > 0.0 and not _is_multiple(value, r.dt_s):
                errors.append(f"[sensor] {key} must be a whole multiple of dt_s")

    if p.tank_pressure_pa >= p.supply_pressure_pa:
        errors.append("[plant] tank_pressure_pa must be < supply_pressure_pa")
    # The tube and the controller's estimate start from this volume; a
    # compliance fine enough to overflow it stops the run at its first step.
    if p.tube_compliance_pa_per_m3 > 0.0 and not math.isfinite(
        p.initial_pressure_pa / p.tube_compliance_pa_per_m3
    ):
        errors.append(
            "[plant] initial_pressure_pa / tube_compliance_pa_per_m3 must be finite"
            " (the initial tube volume)"
        )
    if m.saturation_lo_mm > m.saturation_hi_mm:
        errors.append("[tip_map] saturation_lo_mm must be <= saturation_hi_mm")
    if c.kind not in CONTROLLER_DOMAINS:
        errors.append(
            f"[controller] kind must be one of {tuple(CONTROLLER_DOMAINS)}, got {c.kind!r}"
        )
    if not 0.0 <= c.duty <= 1.0:
        errors.append("[controller] duty must be in [0, 1]")
    if c.pi_out_lo_pa > c.pi_out_hi_pa:
        errors.append("[controller] pi_out_lo_pa must be <= pi_out_hi_pa")

    if cfg.reference.kind not in REFERENCE_KINDS:
        errors.append(
            f"[reference] kind must be one of {REFERENCE_KINDS}, got {cfg.reference.kind!r}"
        )
    else:
        try:
            ref = cfg.build_reference()
        except ValueError as exc:
            errors.append(f"[reference] {exc}")
        else:
            # math.sin refuses an infinite phase, and a NaN one makes NaN.
            if ref.kind == CHIRP_SINE and not math.isfinite(chirp_phase_bound(ref, t_last)):
                errors.append(
                    "[reference] chirp_f0_hz and chirp_f1_hz must keep the chirp phase"
                    " finite over the run"
                )

    h = cfg.hysteresis
    if 0.0 < h.pressure_max_pa < h.pressure_step_pa:
        errors.append("[hysteresis] pressure_step_pa must be <= pressure_max_pa")
    # round(ratio) > MAX_STEPS, and true of an infinite ratio too.
    elif h.pressure_step_pa > 0.0 and h.pressure_max_pa / h.pressure_step_pa > MAX_STEPS + 0.5:
        errors.append(
            f"[hysteresis] pressure_max_pa / pressure_step_pa must be at most {MAX_STEPS} steps"
        )
    # The staircase takes round(ratio) steps, so its top is pressure_max_pa
    # only where the ratio is whole.
    elif min(h.pressure_max_pa, h.pressure_step_pa) > 0.0 and not _is_multiple(
        h.pressure_max_pa, h.pressure_step_pa
    ):
        errors.append("[hysteresis] pressure_max_pa must be a whole multiple of pressure_step_pa")

    return errors


def from_raw(raw: dict[str, dict[str, str]]) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from string sections."""
    errors: list[str] = []
    cfg = ScenarioConfig()

    for section, keys in raw.items():
        if section not in KEYS:
            errors.append(f"unknown section [{section}]")
            continue
        target = getattr(cfg, section)
        for key, text in keys.items():
            if key not in KEYS[section]:
                errors.append(f"unknown key {key!r} in section [{section}]")
                continue
            try:
                setattr(target, key, _convert(text, KEYS[section][key].type))
            except ValueError as exc:
                errors.append(f"[{section}] {key}: {exc}")

    if not errors:
        errors = cross_validate(cfg)
    if errors:
        raise ConfigError(errors)
    return cfg


def load_config(path: str | Path, overrides: dict[str, str] | None = None) -> ScenarioConfig:
    """Load a scenario file, set its "section.key" -> string overrides and validate it."""
    raw = read_raw(path)
    errors: list[str] = []
    for dotted, text in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if key not in KEYS.get(section, ()):
            valid = ", ".join(f"{s}.{k}" for s, keys in KEYS.items() for k in keys)
            errors.append(f"unknown parameter {dotted!r}; valid parameters: {valid}")
            continue
        raw.setdefault(section, {})[key] = text
    if errors:
        raise ConfigError(errors)
    return from_raw(raw)
