"""Hypothesis settings shared by every property test: the examples are
derived from the test, so runs repeat exactly, with no deadline and no
example database. Also the `traced` fixture of the memory tests, and
trajectory_of, which tests import to build a trajectory from points."""
import contextlib
import gc
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import settings

from kharita.ingest import PointArrays, Trajectory

settings.register_profile("kharita", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("kharita")


def trajectory_of(vehicle_id, points):
    """The trajectory of vehicle_id whose fixes are the GpsPoints points."""
    return Trajectory(vehicle_id, cols=PointArrays.from_points(points))


@contextlib.contextmanager
def _traced():
    """Trace allocations (numpy reports its buffers) while the block
    runs. The value yielded gets .held, the bytes still traced at the
    end after a collection, and .peak, the traced peak, both above the
    size traced at the start. Tracing always stops on leaving."""
    got = SimpleNamespace(held=0, peak=0)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        yield got
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
        got.held, got.peak = held - start, peak - start
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced():
    """The context manager _traced."""
    return _traced
