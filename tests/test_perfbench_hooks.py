"""The benchmark's tracer wraps package functions by name
(perfbench/layers.py), so a rename that drops one fails the benchmark,
not this suite's own tests. This guard installs those hooks around a
tiny offline run and times nothing; perfbench itself stays out of the
suite, as its stage-timing tolerance needs an idle host."""
from pathlib import Path

import pytest

from kharita import evaluate, graphs
from kharita.clustering import ClusterConfig
from kharita.ingest import IngestConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    return layers


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
