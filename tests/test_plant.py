import math
import struct
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dighydro.plant as plant_module
from dighydro import (
    HydraulicState,
    OrificeModel,
    PlantModel,
    TipPositionMap,
    TubeModelLinear,
    ValveDynamics,
    initial_state,
    plant_step,
)

NO_DYNAMICS = ValveDynamics(delay=0.0, movement_time=0.0, sticking_time=0.0)


def make_plant(kv=1e-8, c_a=3.3e11, play=0.0):
    return PlantModel(
        tube=TubeModelLinear(c_a=c_a),
        hp_orifice=OrificeModel(k_v=kv, p_tr=1e3),
        lp_orifice=OrificeModel(k_v=kv, p_tr=1e3),
        tip_map=TipPositionMap(gain=2e-5, play_width=play),
        p_supply=600e3,
        p_tank=0.0,
    )


def make_state(plant, p_tube=200e3, valve=NO_DYNAMICS):
    return initial_state(plant, p_tube, valve)


def test_both_valves_closed_is_a_fixed_point():
    plant = make_plant()
    state = make_state(plant)
    for _ in range(10):
        state, dv = plant_step(plant, state, False, False, 5e-3)
        assert dv == 0.0
    assert state.p_tube == 200e3
    assert state.v_tube == 200e3 / 3.3e11


def test_fixed_point_is_handed_back_without_recomputing(monkeypatch):
    plant = make_plant()
    state = make_state(plant)
    for _ in range(2):
        state, _ = plant_step(plant, state, False, False, 5e-3)
    again, dv = plant_step(plant, state, False, False, 5e-3)
    assert again is state and dv == 0.0

    def no_flow(*args):
        raise AssertionError("orifice evaluated on a known fixed point")

    monkeypatch.setattr(plant_module, "orifice_flow", no_flow)
    assert plant_step(plant, state, False, False, 5e-3) == (state, 0.0)
    with pytest.raises(AssertionError, match="fixed point"):
        plant_step(plant, state, True, False, 5e-3)  # the HP valve starts to move
    with pytest.raises(AssertionError, match="fixed point"):
        plant_step(plant, state, False, False, 1e-3)  # another dt


SCALAR_FIELDS = [f.name for f in fields(HydraulicState) if f.name not in ("hp_valve", "lp_valve")]

# For each scalar field, a value that the next step of a rested empty tube
# (every float field 0.0) puts back, leaving the other fields as they are.
# Most are -0.0, equal to 0.0 under == but not the same state; play_out keeps
# a -0.0, so it gets the smallest subnormal instead.
CHANGED_VALUES = {
    "v_tube": -0.0,
    "p_tube": -0.0,
    "tip_y": -0.0,
    "play_out": 5e-324,
    "clamped": True,
}


def _scalar_texts(state):
    # repr tells 0.0 from -0.0, and is exact for every other float.
    return {name: repr(getattr(state, name)) for name in SCALAR_FIELDS}


@pytest.mark.parametrize("name", SCALAR_FIELDS)
def test_a_change_in_any_scalar_field_is_not_a_fixed_point(name):
    # A field left out of the fixed-point compare fails here: the changed
    # state would come back as itself.
    plant = make_plant()
    rested = make_state(plant, p_tube=0.0)
    for _ in range(2):
        rested, _ = plant_step(plant, rested, False, False, 5e-3)
    assert plant_step(plant, rested, False, False, 5e-3)[0] is rested
    changed = replace(rested, **{name: CHANGED_VALUES[name]})
    after, _ = plant_step(plant, changed, False, False, 5e-3)
    assert after is not changed
    before, now = _scalar_texts(changed), _scalar_texts(after)
    assert [k for k in SCALAR_FIELDS if before[k] != now[k]] == [name]
    assert now == _scalar_texts(rested)


def test_single_hp_step_transfers_expected_volume():
    # One 5 ms step with the HP valve fully open at a 400 kPa difference:
    # dv = 1e-8 * sqrt(4e5) * 5e-3 ~ 3.162e-8 m^3, dp ~ 10.44 kPa.
    plant = make_plant()
    state = make_state(plant)
    state, dv = plant_step(plant, state, True, False, 5e-3)
    assert dv == pytest.approx(1e-8 * math.sqrt(4e5) * 5e-3, rel=1e-12)
    assert state.p_tube - 200e3 == pytest.approx(3.3e11 * dv, rel=1e-12)
    assert state.p_tube == pytest.approx(210.4355e3, rel=1e-4)


def test_equal_pressures_give_zero_flow():
    plant = make_plant()
    state = make_state(plant, p_tube=600e3)
    state, dv = plant_step(plant, state, True, False, 5e-3)
    assert dv == 0.0
    assert state.p_tube == 600e3


def test_monotone_filling_with_hp_held_open():
    plant = make_plant()
    state = make_state(plant, p_tube=0.0)
    prev_v = state.v_tube
    for _ in range(2000):
        state, _ = plant_step(plant, state, True, False, 5e-4)
        assert state.v_tube >= prev_v
        assert 0.0 <= state.p_tube <= 600e3 + 1e-9
        prev_v = state.v_tube
    # long filling approaches the supply pressure
    assert state.p_tube > 550e3


def test_draining_clamps_at_empty_and_flags():
    # A large tank orifice and a coarse step overshoot empty once; the step
    # after a clamp starts from an empty tube, which has no outflow.
    plant = make_plant(kv=8e-8)
    state = make_state(plant, p_tube=5e3)
    clamps = 0
    for _ in range(2000):
        state, _ = plant_step(plant, state, False, True, 1e-3)
        clamps += state.clamped
        assert state.v_tube >= 0.0
    assert clamps == 1
    assert state.p_tube == 0.0


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@pytest.mark.seeded
@settings(max_examples=200)
@given(
    c_a=st.floats(1e5, 1e300),
    p_supply=st.floats(1e-3, 1e8),
    kv=st.floats(1e-12, 1e12),
    start=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    dt=st.sampled_from([1e-4, 5e-4, 1e-3]),
)
# c_a * (p_supply / c_a) rounds to 994.098674793112, past this supply, so a
# tube stopped at p_supply / c_a would pass it.
@example(c_a=1.0032447596048509e186, p_supply=994.0986747931119, kv=1e12, start=0.0, dt=5e-4)
def test_the_tube_never_passes_the_supply_pressure(c_a, p_supply, kv, start, dt):
    # The supply line is the only inflow, so a tube that starts at or below
    # the supply pressure stays there with the HP valve held open, at any
    # flow factor and step. Each step's books are exact, and the clamp
    # settles within two moves: later clamped steps are fixed points.
    orifice = OrificeModel(k_v=kv, p_tr=1e3)
    plant = PlantModel(TubeModelLinear(c_a), orifice, orifice, TipPositionMap(2e-5), p_supply, 0.0)
    state = make_state(plant, p_tube=start * p_supply)
    clamps = 0
    for _ in range(40):
        after, dv = plant_step(plant, state, True, False, dt)
        assert _bits(state.v_tube + dv) == _bits(after.v_tube)
        assert after.p_tube <= p_supply
        clamps += after is not state and after.clamped
        state = after
    assert clamps <= 2


def test_a_tank_above_the_supply_fills_the_tube_past_it():
    # The supply clamp holds only where the supply is the highest pressure.
    plant = replace(make_plant(), p_supply=100e3, p_tank=600e3)
    state = make_state(plant, p_tube=0.0)
    for _ in range(2000):
        state, _ = plant_step(plant, state, False, True, 5e-4)
        assert not state.clamped
    assert state.p_tube > 550e3


def test_pressure_stays_between_tank_and_supply():
    plant = make_plant()
    state = make_state(plant, p_tube=300e3, valve=ValveDynamics())
    for k in range(4000):
        hp = (k // 40) % 3 == 0
        lp = (k // 40) % 3 == 1
        state, _ = plant_step(plant, state, hp, lp, 5e-4)
        assert 0.0 - 1e-9 <= state.p_tube <= 600e3 + 1e-9


def test_rejects_nonpositive_dt_and_negative_state():
    plant = make_plant()
    state = make_state(plant)
    # The dt check is valve_step's, the first call plant_step makes.
    for dt in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="dt must be > 0"):
            plant_step(plant, state, False, False, dt)
    with pytest.raises(ValueError):
        replace(plant, p_supply=-1.0)
    with pytest.raises(ValueError):
        HydraulicState(
            v_tube=-1.0,
            p_tube=0.0,
            hp_valve=NO_DYNAMICS,
            lp_valve=NO_DYNAMICS,
            tip_y=0.0,
        )
