import contextlib
import functools
import gc
import warnings

import pytest

from dighydro import load_config, run_simulation, scenario_path, write_trace
from dighydro.sim import TRACE_COLUMNS

# To report a failing example, hypothesis's pytest plugin imports
# hypothesis.extra._patching, which imports libcst where it is installed;
# libcst's use of the deprecated mypy_extensions.TypedDict warns, and under
# `-W error` that warning ends the whole session as an INTERNALERROR. The
# module is imported here first with only that warning ignored, so a failing
# property test is reported as a failure and the tests after it still run.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


# A large tank orifice at a coarse step overshoots empty on the way down to
# the -5 mm level of step_unloaded_p1, so the run clamps the tube volume.
DRAINING_RUN = (
    ("reference.step_levels", "2.0, -5.0"),
    ("plant.kv_lp", "8e-8"),
    ("run.dt_s", "1e-3"),
    ("run.duration_s", "3"),
)


@functools.lru_cache(maxsize=None)
def cached_scenario_run(name: str, overrides: tuple = ()):
    """Run a bundled scenario once per test session; overrides are
    ("section.key", "value") pairs."""
    cfg = load_config(scenario_path(name), dict(overrides))
    return cfg, run_simulation(cfg)


@pytest.fixture
def scenario_run():
    return cached_scenario_run


@contextlib.contextmanager
def collector_passes():
    """The passes of the cyclic garbage collector that start inside the
    block, each listed by its generation; the collector is emptied first,
    so that garbage made before the block adds no pass."""
    assert gc.isenabled()
    gc.collect()
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.callbacks.append(count)
    try:
        yield passes
    finally:
        gc.callbacks.remove(count)


def assert_writes_plain_repr(trace, path) -> None:
    """write_trace writes trace to path as the plain row-by-row repr of its
    columns."""
    write_trace(trace, path)
    rows = zip(*(trace[name].tolist() for name in TRACE_COLUMNS))
    plain = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    assert path.read_text() == ",".join(TRACE_COLUMNS) + "\n" + plain
