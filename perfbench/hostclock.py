"""Contention-corrected host time for the benchmark's end-to-end timings.

The benchmark runs on a few vCPUs of a shared host. Other tenants' load
slows a pure-Python loop by 1.5x to 2x for stretches of a second to tens of
seconds, so plain wall time of the same code spreads wider between runs
minutes apart than any useful bound allows. A Sampler corrects for that.

While a timed region runs, a SIGALRM handler in the same thread runs a fixed
pure-Python reference kernel every PERIOD_S seconds and records how long it
took. The kernel's time against NOMINAL_KERNEL_S is the host's slowness at
that moment. A region's corrected time is its wall time with each stretch
between two samples divided by the slowness measured at its end, and with
the handler's own time left out: the seconds the region would take on a
host that runs the kernel in exactly NOMINAL_KERNEL_S. Program code that
gets faster gets faster by the same share in corrected time, while host
contention, and the host's own speed, largely cancel out. Largely, not
wholly: the kernel and the program slow by different shares under
different kinds of contention, and that mix drifts over minutes, so the
benchmark also divides by the corrected time of a frozen copy of the
program run beside it (run.py). (A base estimated
from each run's fastest kernel samples was tried first; its run-to-run
scatter of about 5 % went straight into the corrected times.)

Only the standard library is used, so the set-up probe can start a Sampler
before it imports anything else.
"""

from __future__ import annotations

import math
import signal
import time

PERIOD_S = 0.01
KERNEL_ITERATIONS = 250
# About the kernel's uncontended time on a 2 GHz Xeon core, so that
# corrected seconds read close to uncontended host seconds there.
NOMINAL_KERNEL_S = 0.0005
# Kernel calls made before a clock starts, so that the samples time
# specialised bytecode.
WARM_CALLS = 10

perf_counter = time.perf_counter


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: tuple) -> None:
        self.a = a
        self.b = b


def kernel() -> int:
    """Fixed interpreter work of the simulator's and trace writer's kind:
    small objects, float arithmetic and formatting, dict and list work.
    About 0.5 ms on an uncontended 2 GHz core. Of several kernels tried,
    this mix tracked the program's slowdown under contention most closely;
    a pure float loop corrected for only part of it."""
    rows = []
    table = {}
    for i in range(KERNEL_ITERATIONS):
        x = i * 0.37 + 1.0
        p = _Point(x, (i, x))
        rows.append("%.6g,%.6g" % (p.a, p.b[1] * 1e3))
        rows.append(repr(math.sqrt(x) * 1.1))
        table[i & 63] = p
    return len(",".join(rows).split(","))


class Sampler:
    """Times one region; use as a context manager. Afterwards `net_s` is the
    region's wall time less the handler's, `stretches` holds (program
    seconds before the sample, kernel seconds) per sample and `tail_s` the
    program seconds after the last sample."""

    def __init__(self) -> None:
        self.stretches: list[tuple[float, float]] = []
        self.net_s = 0.0
        self.tail_s = 0.0
        self._last = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        kernel()
        took = perf_counter() - start
        self.stretches.append((start - self._last, took))
        self._last = perf_counter()

    def __enter__(self) -> "Sampler":
        for _ in range(WARM_CALLS):
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._last = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.tail_s = end - self._last
        self.net_s = sum(s for s, _ in self.stretches) + self.tail_s

    def record(self) -> dict:
        return {"net_s": self.net_s, "tail_s": self.tail_s, "stretches": self.stretches}


def corrected_s(record: dict) -> float:
    """A region's time with host contention divided out (see the module
    docstring). A region too short to hold a sample is not corrected."""
    stretches = record["stretches"]
    if not stretches:
        return record["net_s"]
    total = sum(s * NOMINAL_KERNEL_S / k for s, k in stretches)
    return total + record["tail_s"] * NOMINAL_KERNEL_S / stretches[-1][1]
