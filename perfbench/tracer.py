"""Layer tracing for the benchmark's traced run.

The tracer wraps public dighydro functions from outside, by replacing the
module attributes their callers look up at call time, and restores every
attribute when it is done. Nothing inside the package is edited.

Every wrapped call adds to an aggregate for its layer: calls, inclusive
time, self time (inclusive minus the time of wrapped calls made inside it),
and how many wrapped calls it made directly and in total. Calls of the
coarse layers (config load, scenario runs, simulation, metrics, trace I/O)
are also kept as individual spans with their parent, so a pass can be
replayed from the spans file. The per-step layers are aggregated only: a
span per step would cost millions of records and inflate peak memory.

Wrapping costs time. What a wrapper spends after the wrapped call returns,
its hook included, is measured on every call. The rest is measured once by
`calibrate` on empty functions. `Aggregate.net_self_ns` / `net_inclusive_ns`
subtract both.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Aggregate:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    direct_children: int = 0
    descendants: int = 0
    descendant_post_ns: int = 0  # measured wrapper time after the calls beneath

    def net_self_ns(self, cal: "Calibration") -> float:
        """Self time minus the measured cost of this layer's own wrapper and
        of the wrappers of the calls it made."""
        return self.self_ns - self.calls * cal.leaf_ns - self.direct_children * cal.child_ns

    def net_inclusive_ns(self, cal: "Calibration") -> float:
        """Inclusive time minus the wrapper cost of this call and of every
        wrapped call beneath it."""
        return (
            self.total_ns
            - self.calls * cal.leaf_ns
            - self.descendants * (cal.leaf_ns + cal.child_ns)
            - self.descendant_post_ns
        )


@dataclass(frozen=True)
class Calibration:
    """leaf_ns: what a wrapped empty call records as its own span.
    child_ns: what a wrapped call adds to its caller's self time."""

    leaf_ns: float = 0.0
    child_ns: float = 0.0


class Tracer:
    """Aggregates and spans of one traced pass; see the module docstring."""

    def __init__(self) -> None:
        self.stats: dict[str, Aggregate] = {}
        self.spans: list[list] = []  # [name, parent span index, start_ns, end_ns]
        self.events: Counter = Counter()
        # Frames: [child ns, direct children, descendants, span index,
        # post-call wrapper ns of the descendants].
        self._stack: list[list[int]] = [[0, 0, 0, -1, 0]]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, hook=None, span=False):
        """Return a timing wrapper around fn. hook(tracer, args, result)
        runs after the clock stops; it is charged to neither the call nor
        its caller."""
        agg = self.stats.setdefault(name, Aggregate())
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if span:
                index = len(spans)
                record = [name, parent[3], 0, 0]
                spans.append(record)
            else:
                index = parent[3]
            frame = [0, 0, 0, index, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            if span:
                record[2] = t0
                record[3] = t1
            if hook is not None:
                hook(self, args, result)
            elapsed = t1 - t0
            agg.calls += 1
            agg.total_ns += elapsed
            agg.self_ns += elapsed - frame[0]
            agg.direct_children += frame[1]
            agg.descendants += frame[2]
            agg.descendant_post_ns += frame[4]
            t2 = clock()
            parent[0] += t2 - t0
            parent[1] += 1
            parent[2] += 1 + frame[2]
            parent[4] += frame[4] + t2 - t1
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, hook=None, span=False) -> None:
        """Replace module.attr by a wrapper; an absent attribute is skipped."""
        original = getattr(module, attr, None)
        if original is not None:
            setattr(module, attr, self.wrap(name, original, hook, span))
            self._patched.append((module, attr, original))

    def restore(self) -> list[str]:
        """Put every patched attribute back; return those that did not stick."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        left = [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._patched
            if getattr(module, attr) is not original
        ]
        self._patched.clear()
        return left

    def agg(self, name: str) -> Aggregate:
        return self.stats.get(name, Aggregate())


def _empty(a, b, c, d) -> None:
    return None


def calibrate(batch: int = 20000, batches: int = 7) -> Calibration:
    """Median wrapper cost over several batches of nested empty calls that
    pass four arguments, as the per-step layers do."""
    leaf_ns, child_ns = [], []
    for _ in range(batches):
        tracer = Tracer()
        leaf = tracer.wrap("leaf", _empty)

        def outer_body(a, b, c, d) -> None:
            leaf(a, b, c, d)

        outer = tracer.wrap("outer", outer_body)
        for i in range(batch):
            outer(i, 0.5, True, None)
        leaf_mean = tracer.agg("leaf").total_ns / batch
        leaf_ns.append(leaf_mean)
        child_ns.append(tracer.agg("outer").self_ns / batch - leaf_mean)
    return Calibration(statistics.median(leaf_ns), statistics.median(child_ns))
