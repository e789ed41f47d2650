"""Bytes per fix of the batch pass's trajectories, bytes per point of
its stages' temporaries, and bytes per node of the online map, traced
with tracemalloc on a synthetic city.

A trajectory holds five float64 columns, 40 bytes per fix, plus a few
hundred bytes of objects per trajectory. A GpsPoint per fix held about
266 bytes, and reading a whole file into Python rows before converting
them peaks above 270; both fail these bounds.

Measured on an 8x8-block city of 400 drives (23,997 fixes, 400
trajectories, 30,914 points after densify, none repeated), Python 3.11,
numpy 2.4:

    generate_synthetic   held  86.7, peak  88.2 B/fix (GpsPoints: 246)
    parse_trajectories   held  54.1, peak 129.0 B/fix (GpsPoints: 266)
    prepare_trajectories added 63.9 B/fix             (GpsPoints: 71.5)

The generator's share includes the truth graph. In the offline pipeline,
each stage's traced peak rose this far above what was live when it
began, in bytes per point after densify:

    prepare_trajectories 112.9
    distinct_points       18.0 (129.1 when it copied every point)
    select_seed_indices   82.7 (64.4 when the points of a block went
                                through a scalar greedy on a GridIndex;
                                109.4 when a chunk's arrays were kept
                                while the next was built)
    kmeans_arrays        171.1 (385.2 with moved points measured at
                                once and pair chunks of 2^17)
    candidate_edges_from_arrays
                          88.8 (94.4 with each edge also in a dict keyed
                                by (src, dst); 98.6 with unslotted
                                centroids and edges as well)
    greedy_spanner        27.0 (33.1 with the (src, dst) dict; 36.3 with
                                unslotted edges as well)
    duplexify              9.3 (14.2 with the (src, dst) dict; 17.2 with
                                unslotted edges as well)

TOPO on the offline map of the same city (539,329 marble-hole pairs
within 30 m, 4 samples) peaks this far above what was live when it
began, in bytes per pair:

    topo_score            24.3 (62.3 with int64 pair columns, their
                                concatenated copy, an int64 np.diff of
                                the owners and the hole permutation
                                built before the marble table)

The online map of the same city's stream (12,414 nodes, 18,124 edges)
holds this much per node after consume_stream:

    consume_stream       795.3 (924.6 with each edge also in a dict keyed
                                by (src, dst); 1295.9 when, as well, the
                                spatial index kept each node's position
                                and cell key in dicts, the heading sums
                                were a dict of tuples, and centroids and
                                edges had no slots)

Each bound sits about a quarter over the measured value.
"""
import pytest

from kharita import evaluate, graphs
from kharita.clustering import ClusterConfig
from kharita.evaluate import EvalConfig, GridSpec, generate_synthetic, topo_score
from kharita.ingest import (
    IngestConfig,
    parse_trajectories,
    prepare_trajectories,
    stream_points,
)
from kharita.mapio import save_trajectories_csv
from kharita.online import OnlineConfig, consume_stream


@pytest.fixture(scope="module")
def city():
    return lambda: generate_synthetic(GridSpec(rows=8, cols=8, block_m=200.0),
                                      noise_sigma_m=5.0, n_trajectories=400,
                                      sampling_spacing_m=20.0, rng_seed=0)


def test_columns_bound_the_bytes_per_fix(city, tmp_path, traced):
    with traced() as mem:
        truth, trajectories = city()
    fixes = sum(len(t) for t in trajectories)
    assert fixes > 20_000
    assert mem.held / fixes < 110 and mem.peak / fixes < 110

    path = str(tmp_path / "city.csv")
    save_trajectories_csv(trajectories, path)
    del truth, trajectories
    cfg = IngestConfig()
    with traced() as mem:
        parsed = parse_trajectories(path, cfg)
    assert sum(len(t) for t in parsed) == fixes
    assert mem.held / fixes < 70 and mem.peak / fixes < 165

    with traced() as mem:
        prepared, _ = prepare_trajectories(parsed, cfg)
    assert sum(len(t) for t in prepared) > fixes
    assert mem.held / fixes < 80


# the stages of run_offline_pipeline whose temporaries are bounded, by
# their names in graphs
STAGES = ("prepare_trajectories", "distinct_points", "select_seed_indices",
          "kmeans_arrays", "candidate_edges_from_arrays", "greedy_spanner",
          "duplexify")


def test_stage_transients_are_bounded(city, tmp_path, traced, monkeypatch):
    # how far each stage's traced peak rises above what was live when it
    # began, per point after densify
    _, trajectories = city()
    path = str(tmp_path / "city.csv")
    save_trajectories_csv(trajectories, path)
    del trajectories
    rise = {}

    def traced_stage(name, fn):
        def stage(*args, **kwargs):
            with traced() as mem:
                out = fn(*args, **kwargs)
            rise[name] = mem.peak
            return out
        return stage

    for name in STAGES:
        monkeypatch.setattr(graphs, name,
                            traced_stage(name, getattr(graphs, name)))
    cfg = IngestConfig()
    stats = graphs.PipelineStats()
    graphs.run_offline_pipeline(parse_trajectories(path, cfg), cfg,
                                ClusterConfig(), graphs.SpannerConfig(), stats)
    points = stats.counts["points"]
    assert stats.counts["distinct_points"] == points > 30_000
    assert rise["prepare_trajectories"] / points < 140
    assert rise["distinct_points"] / points < 23
    assert rise["select_seed_indices"] / points < 103
    assert rise["kmeans_arrays"] / points < 215
    assert rise["candidate_edges_from_arrays"] / points < 111
    assert rise["greedy_spanner"] / points < 34
    assert rise["duplexify"] / points < 12


def test_online_map_bytes_per_node_are_bounded(city, tmp_path, traced):
    # the node records are the map's only copy of each node's position
    _, trajectories = city()
    path = str(tmp_path / "city.csv")
    save_trajectories_csv(trajectories, path)
    del trajectories
    with traced() as mem:
        state = consume_stream(stream_points(path), OnlineConfig())
    nodes = len(state.graph.nodes)
    assert nodes > 10_000
    assert mem.held / nodes < 995


def test_topo_peak_per_pair_is_bounded(city, traced, monkeypatch):
    # the pairs far outweigh the screen's chunk temporaries (about 3 MB)
    truth, trajectories = city()
    inferred = graphs.run_offline_pipeline(trajectories, IngestConfig(),
                                           ClusterConfig(),
                                           graphs.SpannerConfig())
    pairs = []
    threshold_pairs = evaluate.threshold_pairs

    def counted(*args):
        out = threshold_pairs(*args)
        pairs.append(out[0].size)
        return out

    monkeypatch.setattr(evaluate, "threshold_pairs", counted)
    with traced() as mem:
        topo_score(inferred, truth, trajectories, EvalConfig(topo_samples=4))
    assert len(pairs) == 1 and pairs[0] > 400_000
    assert mem.peak / pairs[0] < 30
