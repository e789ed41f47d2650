"""The benchmark's tracer wraps package functions by name
(perfbench/layers.py), and its workloads call config constructors and
library keywords (perfbench/workloads.py), so a change that breaks
either fails the benchmark, not this suite's own tests. These guards
install those hooks around a tiny offline run and run each workload
once on tiny inputs, timing nothing; perfbench itself stays out of the
suite, as its stage-timing tolerance needs an idle host."""
from pathlib import Path

import pytest

from kharita import evaluate, graphs, online
from kharita.clustering import ClusterConfig
from kharita.ingest import IngestConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    return layers


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    return workloads


def test_hooks_install_and_see_every_pipeline_stage(layers):
    _, trajectories = evaluate.generate_synthetic(
        evaluate.GridSpec(3, 3, block_m=100.0), noise_sigma_m=5.0,
        n_trajectories=12, sampling_spacing_m=20.0, rng_seed=1)
    stats = graphs.PipelineStats()
    tracer = layers.Tracer(layers.TARGETS)
    try:
        tracer.install()    # raises if a target no longer exists
        graphs.run_offline_pipeline(trajectories, IngestConfig(),
                                    ClusterConfig(), graphs.SpannerConfig(),
                                    stats)
    finally:
        tracer.uninstall()
    assert set(stats.timings) == set(layers.PIPELINE_STAGES)
    assert set(layers.PIPELINE_STAGES.values()) <= {s.name for s in tracer.spans}


def test_online_hooks_see_one_candidate_scan_per_query(layers):
    # spatial.grid_candidates_per_query divides the candidates counted
    # on GridIndex.candidates by the GridIndex.nearest calls
    _, trajectories = evaluate.generate_synthetic(
        evaluate.GridSpec(3, 3, block_m=100.0), noise_sigma_m=5.0,
        n_trajectories=12, sampling_spacing_m=20.0, rng_seed=1)
    stream = sorted((p for t in trajectories for p in t.points),
                    key=lambda p: p.timestamp)
    tracer = layers.Tracer(layers.TARGETS)
    try:
        tracer.install()
        state = online.consume_stream(stream, online.OnlineConfig())
    finally:
        tracer.uninstall()
    fn = tracer.by_function()
    nearest = fn["spatial.GridIndex.nearest"].calls
    assert state.graph.nodes and nearest > len(state.graph.nodes)
    assert fn["spatial.GridIndex.candidates"].calls == nearest
    assert tracer.counts["grid_candidates"] > 0


def test_every_workload_runs_once(workloads, tmp_path):
    City = workloads.City
    tiny = workloads.Sizes(    # the sizes of perfbench/test_smoke.py
        offline_city=City(3, 3, 100.0, 12, 20.0),
        online_city=City(3, 3, 100.0, 12, 20.0),
        eval_topo=City(3, 3, 100.0, 12, (20.0, 60.0)),
        resparsify_interval=50,
        topo_samples=3,
    )
    for name, workload in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        wl = workload(tiny)
        inp = wl.setup(str(tmp_path / name), 1)
        result = wl.run_pass(inp, str(tmp_path / name / "out"))
        assert result.items > 0
        assert all(Path(p).is_file() for p in result.outputs)
