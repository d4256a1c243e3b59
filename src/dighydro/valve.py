"""On/off valve armature dynamics.

The armature responds to a boolean command through three timing parameters:
a dead time before any motion starts, a linear travel time between the end
stops, and a sticking dwell during which a command reversal caught mid-travel
is ignored. The model is a six-phase machine:

    closed -> delaying -> opening -> open -> delaying -> closing -> closed

with `stuck` entered whenever the command reverses while the armature is
moving. A command that reverts while still in the delay phase is cancelled
(the armature never started to move, so it simply stays put).

`valve_step` consumes the time step across phase boundaries, so the armature
trajectory is the exact piecewise-linear one regardless of how the step grid
aligns with the valve's own timing.
"""

from __future__ import annotations

from dataclasses import dataclass

CLOSED = "closed"
DELAYING = "delaying"
OPENING = "opening"
OPEN = "open"
CLOSING = "closing"
STUCK = "stuck"

PHASES = (CLOSED, DELAYING, OPENING, OPEN, CLOSING, STUCK)


@dataclass(frozen=True)
class ValveDynamics:
    """Timing parameters plus the current armature state of one valve.

    armature is dimensionless in [0, 1] (0 = closed seat, 1 = fully open).
    `timer` is the time left in the delaying/stuck phase; `pending_open`
    records which end stop the armature will head for once the delay runs out.

    Like `HydraulicState`, the class keeps its own `__init__`, which fills
    the instance dict in one update; it stays a frozen dataclass in every
    other respect (`replace` calls this `__init__`).
    """

    delay: float = 0.001
    movement_time: float = 0.002
    sticking_time: float = 0.001
    armature: float = 0.0
    phase: str = CLOSED
    timer: float = 0.0
    pending_open: bool = False

    def __init__(
        self,
        delay: float = 0.001,
        movement_time: float = 0.002,
        sticking_time: float = 0.001,
        armature: float = 0.0,
        phase: str = CLOSED,
        timer: float = 0.0,
        pending_open: bool = False,
    ) -> None:
        if not (delay >= 0.0 and movement_time >= 0.0 and sticking_time >= 0.0):
            raise ValueError("valve time parameters must be >= 0")
        if not 0.0 <= armature <= 1.0:
            raise ValueError(f"armature must be in [0, 1], got {armature}")
        if phase not in PHASES:
            raise ValueError(f"unknown valve phase {phase!r}")
        self.__dict__.update(
            delay=delay,
            movement_time=movement_time,
            sticking_time=sticking_time,
            armature=armature,
            phase=phase,
            timer=timer,
            pending_open=pending_open,
        )


def valve_step(valve: ValveDynamics, command: bool, dt: float) -> ValveDynamics:
    """Advance the armature by `dt` seconds under a held boolean command."""
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if valve.phase == (OPEN if command else CLOSED):
        # At rest against the commanded end stop: nothing moves, and the
        # valve itself is returned, so callers can tell by identity.
        return valve

    arm = valve.armature
    phase = valve.phase
    timer = valve.timer
    pending = valve.pending_open
    rem = dt

    while True:
        if phase == CLOSED or phase == OPEN:
            if command == (phase == OPEN):
                break
            phase, timer, pending = DELAYING, valve.delay, bool(command)
            continue
        if phase == DELAYING or phase == STUCK:
            if phase == DELAYING and command != pending:
                # Command reverted before the armature moved: cancel.
                phase = OPEN if arm >= 1.0 else CLOSED
                timer = 0.0
                continue
            if timer > rem:
                timer -= rem
                break
            rem -= timer
            timer = 0.0
            phase = OPENING if command else CLOSING
            continue

        # OPENING or CLOSING
        moving_open = phase == OPENING
        if command != moving_open:
            phase, timer = STUCK, valve.sticking_time
            continue
        target = 1.0 if moving_open else 0.0
        travel = abs(target - arm) * valve.movement_time
        if travel > rem:
            arm += (rem / valve.movement_time) * (1.0 if moving_open else -1.0)
            arm = min(1.0, max(0.0, arm))
            break
        rem -= travel
        arm = target
        phase = OPEN if moving_open else CLOSED

    # The positional constructor runs the checks replace() would, at a
    # fraction of its cost.
    return ValveDynamics(
        valve.delay, valve.movement_time, valve.sticking_time, arm, phase, timer, pending
    )
