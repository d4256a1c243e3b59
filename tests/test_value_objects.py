"""The frozen state objects keep their dataclass contracts.

`valve_step`, `model_based_tick` and `pi_tick` build their results with the
positional constructor, and `HydraulicState` and `ValveDynamics` have their
own `__init__`; these tests hold them to what `dataclasses.replace` gave
before.
"""

import math
import struct
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dighydro import (
    HydraulicState,
    ModelBasedControllerState,
    OrificeModel,
    PiControllerState,
    PlantModel,
    ReferenceSignal,
    SensorModel,
    TipPositionMap,
    TubeModelLinear,
    ValveDynamics,
    initial_state,
    model_based_init,
    model_based_tick,
    pi_tick,
    plant_step,
    valve_step,
)

# Distinct timing parameters, so that a constructor argument in the wrong
# place shows as a changed field.
VALVE = ValveDynamics(delay=1.1e-3, movement_time=2.3e-3, sticking_time=0.7e-3)
TIP = TipPositionMap(gain=2e-5, sat_lo=0.0, sat_hi=14.0, play_width=15e3)
PLANT = PlantModel(
    TubeModelLinear(3.3e11), OrificeModel(1e-8, 1e3), OrificeModel(1e-8, 1e3), TIP, 6e5, 0.0
)
MODEL = replace(PLANT, hp_orifice=OrificeModel(1.1e-8, 1e3), lp_orifice=OrificeModel(0.9e-8, 2e3))
MB = model_based_init(ModelBasedControllerState(MODEL, tolerance=4e3, sample_period=5e-3), 200e3)
PI = PiControllerState(kp=3e4, ki=2e4, bias=1e5, out_lo=0.0, out_hi=6e5, integral=0.25)
SENSOR = SensorModel(sample_steps=5, delay_steps=2, quantization=1e3, noise_std=500.0)
STATE = HydraulicState(1e-6, 3.3e5, VALVE, VALVE, 6.6, 0.5, False)

OBJECTS = {
    "HydraulicState": STATE,
    "ValveDynamics": VALVE,
    "ModelBasedControllerState": MB,
    "PiControllerState": PI,
}

INVALID = [
    (STATE, {"v_tube": -1e-12}),
    (VALVE, {"delay": -1e-3}),
    (VALVE, {"armature": 1.5}),
    (VALVE, {"armature": math.nan}),
    (VALVE, {"phase": "ajar"}),
    (MB, {"tolerance": -1.0}),
    (MB, {"sample_period": 0.0}),
    (PI, {"out_lo": 7e5}),
    (MB.model.tube, {"c_a": math.inf}),
    (MB.model.hp_orifice, {"k_v": math.inf}),
    (PLANT, {"p_supply": math.inf}),
    (PLANT, {"p_tank": math.inf}),
]

CHIRP = ReferenceSignal(kind="chirp_sine", lo=150e3, hi=250e3, sweep_time=30.0)
STEPS = ReferenceSignal(kind="step_sequence", times=(0.0, 1.0, 2.0), levels=(0.0, 4.0, 2.0))

# Each range check is written `not (x >= 0)` or the like, so that NaN fails
# it; `x < 0` would let NaN through.
NAN = math.nan
NAN_REFUSED = {
    "ModelBasedControllerState-tolerance": lambda: replace(MB, tolerance=NAN),
    "ModelBasedControllerState-sample_period": lambda: replace(MB, sample_period=NAN),
    "PiControllerState-out_lo": lambda: replace(PI, out_lo=NAN),
    "PiControllerState-out_hi": lambda: replace(PI, out_hi=NAN),
    "PiControllerState-kp": lambda: replace(PI, kp=NAN),
    "PiControllerState-ki": lambda: replace(PI, ki=NAN),
    "PiControllerState-bias": lambda: replace(PI, bias=NAN),
    "ValveDynamics-delay": lambda: replace(VALVE, delay=NAN),
    "ValveDynamics-movement_time": lambda: replace(VALVE, movement_time=NAN),
    "ValveDynamics-sticking_time": lambda: replace(VALVE, sticking_time=NAN),
    "TipPositionMap-gain": lambda: replace(TIP, gain=NAN),
    "TipPositionMap-play_width": lambda: replace(TIP, play_width=NAN),
    "TipPositionMap-sat_lo": lambda: replace(TIP, sat_lo=NAN),
    "TipPositionMap-sat_hi": lambda: replace(TIP, sat_hi=NAN),
    "TipPositionMap-offset": lambda: replace(TIP, offset=NAN),
    "PlantModel-p_supply": lambda: replace(PLANT, p_supply=NAN),
    "PlantModel-p_tank": lambda: replace(PLANT, p_tank=NAN),
    "ReferenceSignal-lo": lambda: replace(CHIRP, lo=NAN),
    "ReferenceSignal-hi": lambda: replace(CHIRP, hi=NAN),
    "ReferenceSignal-sweep_time": lambda: replace(CHIRP, sweep_time=NAN),
    "ReferenceSignal-times": lambda: replace(STEPS, times=(0.0, NAN, 2.0)),
    "ReferenceSignal-f0": lambda: replace(CHIRP, f0=NAN),
    "ReferenceSignal-f1": lambda: replace(CHIRP, f1=NAN),
    "ReferenceSignal-value": lambda: ReferenceSignal(kind="constant", value=NAN),
    "ReferenceSignal-levels": lambda: replace(STEPS, levels=(0.0, NAN, 2.0)),
    "HydraulicState-v_tube": lambda: replace(STATE, v_tube=NAN),
    "HydraulicState-p_tube": lambda: replace(STATE, p_tube=NAN),
    "plant_step-dt": lambda: plant_step(PLANT, initial_state(PLANT, 2e5, VALVE), True, False, NAN),
    "valve_step-dt": lambda: valve_step(VALVE, True, NAN),
    "pi_tick-dt": lambda: pi_tick(PI, 1.0, NAN),
}


@pytest.mark.parametrize("build", NAN_REFUSED.values(), ids=NAN_REFUSED.keys())
def test_nan_parameter_is_refused(build):
    with pytest.raises(ValueError):
        build()


def field_values(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def assert_same_fields(got, expected) -> None:
    """Field for field: floats by their float64 bits, the rest by type and
    value (the nested models by identity)."""
    assert type(got) is type(expected)
    for name, want in field_values(expected).items():
        have = getattr(got, name)
        if isinstance(want, float):
            assert struct.pack("<d", have) == struct.pack("<d", want), name
        elif isinstance(want, (bool, str)):
            assert type(have) is type(want) and have == want, name
        else:
            assert have is want, name


@pytest.mark.parametrize("obj", OBJECTS.values(), ids=OBJECTS.keys())
def test_assignment_raises_frozen_instance_error(obj):
    for f in fields(obj):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))


@pytest.mark.parametrize(
    "obj, bad", INVALID, ids=[f"{type(o).__name__}-{next(iter(b))}" for o, b in INVALID]
)
def test_invalid_values_are_rejected_by_constructor_and_replace(obj, bad):
    with pytest.raises(ValueError):
        type(obj)(**{**field_values(obj), **bad})
    with pytest.raises(ValueError):
        replace(obj, **bad)


INFINITE = [
    (MB.model.tube, "c_a"),
    (MB.model.hp_orifice, "k_v"),
    (SENSOR, "quantization"),
    (SENSOR, "noise_std"),
]


@pytest.mark.parametrize("obj, name", INFINITE, ids=[f"{type(o).__name__}-{n}" for o, n in INFINITE])
def test_infinite_parameter_is_refused_by_name(obj, name):
    # Each would turn a run's values into NaN (inf * 0.0) and fail later,
    # if at all, with a message that names neither the object nor the field.
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        replace(obj, **{name: math.inf})


def test_hydraulic_state_init_is_the_dataclass_init():
    kwargs = field_values(STATE)
    assert list(vars(STATE)) == [f.name for f in fields(HydraulicState)]
    assert HydraulicState(**kwargs) == STATE
    assert hash(HydraulicState(**kwargs)) == hash(STATE)
    assert_same_fields(replace(STATE), STATE)
    moved = replace(STATE, tip_y=7.0, clamped=True)
    assert (moved.tip_y, moved.clamped, moved.v_tube) == (7.0, True, STATE.v_tube)
    short = HydraulicState(1e-6, 3.3e5, VALVE, VALVE, 6.6)
    assert (short.play_out, short.clamped) == (0.0, False)
    assert repr(short).startswith("HydraulicState(v_tube=1e-06, p_tube=330000.0,")


def test_valve_dynamics_init_is_the_dataclass_init():
    kwargs = field_values(VALVE)
    assert list(vars(VALVE)) == [f.name for f in fields(ValveDynamics)]
    assert ValveDynamics(**kwargs) == VALVE
    assert hash(ValveDynamics(**kwargs)) == hash(VALVE)
    assert_same_fields(replace(VALVE), VALVE)
    moved = replace(VALVE, armature=0.25, phase="opening", pending_open=True)
    assert (moved.armature, moved.phase, moved.pending_open, moved.delay) == (
        0.25,
        "opening",
        True,
        VALVE.delay,
    )
    assert moved != VALVE
    # The __init__ defaults are the declared field defaults; repr tells 0.0
    # from -0.0 and False from 0.
    defaults = ValveDynamics()
    for f in fields(ValveDynamics):
        assert repr(getattr(defaults, f.name)) == repr(f.default), f.name
    assert repr(ValveDynamics()) == (
        "ValveDynamics(delay=0.001, movement_time=0.002, sticking_time=0.001,"
        " armature=0.0, phase='closed', timer=0.0, pending_open=False)"
    )


@pytest.mark.seeded
@given(
    commands=st.lists(st.booleans(), min_size=1, max_size=40),
    dt=st.sampled_from([1e-4, 5e-4, 1e-3, 2.5e-3]),
)
def test_valve_step_result_equals_the_replace_built_one(commands, dt):
    valve = VALVE
    for command in commands:
        out = valve_step(valve, command, dt)
        moved = ("armature", "phase", "timer", "pending_open")
        assert_same_fields(out, replace(valve, **{name: getattr(out, name) for name in moved}))
        valve = out


@given(p_refs=st.lists(st.floats(0.0, 600e3), min_size=1, max_size=20))
def test_model_based_tick_result_equals_the_replace_built_one(p_refs):
    state = MB
    assert_same_fields(state, replace(MB, est_volume=200e3 / 3.3e11, est_pressure=200e3))
    for p_ref in p_refs:
        _, _, out = model_based_tick(state, p_ref)
        changed = {"est_volume": out.est_volume, "est_pressure": out.est_pressure}
        assert_same_fields(out, replace(state, **changed))
        state = out


@given(errors=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=20))
def test_pi_tick_result_equals_the_replace_built_one(errors):
    state = PI
    for e_p in errors:
        _, out = pi_tick(state, e_p, 0.05)
        assert_same_fields(out, replace(state, integral=out.integral))
        state = out
