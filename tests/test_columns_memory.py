"""Bytes per fix of the batch pass's trajectories, traced with
tracemalloc on a synthetic city.

A trajectory holds five float64 columns, 40 bytes per fix, plus a few
hundred bytes of objects per trajectory. A GpsPoint per fix held about
266 bytes, and reading a whole file into Python rows before converting
them peaks above 270; both fail these bounds.

Measured on an 8x8-block city of 400 drives (23,997 fixes, 400
trajectories, 30,914 points after densify), Python 3.11, numpy 2.4:

    generate_synthetic   held  86.7, peak  88.2 B/fix (GpsPoints: 246)
    parse_trajectories   held  54.1, peak 129.0 B/fix (GpsPoints: 266)
    prepare_trajectories added 63.9 B/fix             (GpsPoints: 71.5)

The generator's share includes the truth graph. Each bound sits about a
quarter over the measured value.
"""
import gc
import tracemalloc

import pytest

from kharita.evaluate import GridSpec, generate_synthetic
from kharita.ingest import IngestConfig, parse_trajectories, prepare_trajectories
from kharita.mapio import save_trajectories_csv


def traced(fn):
    """(result, bytes still held, peak bytes) of one call."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


@pytest.fixture(scope="module")
def city():
    return lambda: generate_synthetic(GridSpec(rows=8, cols=8, block_m=200.0),
                                      noise_sigma_m=5.0, n_trajectories=400,
                                      sampling_spacing_m=20.0, rng_seed=0)


def test_columns_bound_the_bytes_per_fix(city, tmp_path):
    (truth, trajectories), held, peak = traced(city)
    fixes = sum(len(t) for t in trajectories)
    assert fixes > 20_000
    assert held / fixes < 110 and peak / fixes < 110

    path = str(tmp_path / "city.csv")
    save_trajectories_csv(trajectories, path)
    del truth, trajectories
    cfg = IngestConfig()
    parsed, held, peak = traced(lambda: parse_trajectories(path, cfg))
    assert sum(len(t) for t in parsed) == fixes
    assert held / fixes < 70 and peak / fixes < 165

    (prepared, _), held, _ = traced(lambda: prepare_trajectories(parsed, cfg))
    assert sum(len(t) for t in prepared) > fixes
    assert held / fixes < 80
