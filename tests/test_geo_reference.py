"""GEO scoring against an exact reference.

The reference is the scoring as it stood before GEO read threshold
bands: each sample's nearest distance to the other map, here by exact
Vincenty over every pair of samples rather than kharita.spatial's grid,
then per threshold the share of samples within it, and F from the two
shares. geo_score must give the same floats to the last bit.
"""
import math

import numpy as np
import pytest

from kharita.clustering import ClusterCentroid, ClusterConfig
from kharita.evaluate import (
    EvalConfig,
    EvalReport,
    GridSpec,
    _sample_edges,
    generate_synthetic,
    geo_score,
)
from kharita.geo import M_PER_DEG_LAT, vincenty_m, vincenty_m_many, wrap_lon
from kharita.graphs import RoadGraph, SpannerConfig, run_offline_pipeline
from kharita.ingest import IngestConfig


def _f(p, r):
    return 0.0 if p + r == 0 else 2.0 * p * r / (p + r)


def _nearest(q, r):
    """Per sample of q, the Vincenty distance to its nearest sample of r,
    query first as in the scoring."""
    return np.array([vincenty_m_many(q.lat[i], q.lon[i], r.lat, r.lon).min()
                     for i in range(q.lat.size)])


def reference_geo_score(inferred, truth, cfg):
    holes = _sample_edges(truth, cfg.sample_spacing_m)
    marbles = _sample_edges(inferred, cfg.sample_spacing_m)
    ts = sorted(float(t) for t in cfg.matching_thresholds_m)
    md, hd = _nearest(marbles, holes), _nearest(holes, marbles)
    precision = [float(np.mean(md <= t)) for t in ts]
    recall = [float(np.mean(hd <= t)) for t in ts]
    return EvalReport(ts, precision, recall,
                      [_f(p, r) for p, r in zip(precision, recall)])


def _shifted(graph, east_m):
    """Copy of graph with every node moved east to east_m from where it
    was, by Vincenty, so that the samples of the north-south streets lie
    within a millimetre of east_m from theirs."""
    nodes = []
    for n in graph.nodes:
        dlon = east_m / (M_PER_DEG_LAT * math.cos(math.radians(n.lat)))
        for _ in range(3):
            dlon *= east_m / vincenty_m(n.lat, n.lon, n.lat, n.lon + dlon)
        nodes.append(ClusterCentroid(n.lat, wrap_lon(n.lon + dlon),
                                     n.heading_deg, support=n.support))
    out = RoadGraph(nodes)
    for (u, v), e in sorted(graph.edges.items()):
        out.add_edge(u, v, e.weight_m)
    return out


@pytest.fixture(scope="module", params=[
    GridSpec(rows=3, cols=3),
    GridSpec(rows=3, cols=4, two_way_fraction=0.5, origin_lon=179.9995),
], ids=["3x3", "3x4_one_way_streets_at_the_antimeridian"])
def city(request):
    truth, trajectories = generate_synthetic(request.param, noise_sigma_m=5.0,
                                             n_trajectories=40, rng_seed=3)
    inferred = run_offline_pipeline(trajectories, IngestConfig(),
                                    ClusterConfig(), SpannerConfig())
    return inferred, truth


CONFIGS = [EvalConfig(),
           EvalConfig(matching_thresholds_m=(12.0, 3.0, 12.0, 7.5))]


@pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "unsorted_duplicate"])
def test_inferred_map_matches_the_reference(city, cfg):
    inferred, truth = city
    assert geo_score(inferred, truth, cfg).as_dict() == \
        reference_geo_score(inferred, truth, cfg).as_dict()


# shifts at and either side of thresholds, so that many nearest
# distances fall within a millimetre of one; 30 m is also the search
# radius
@pytest.mark.parametrize("east_m", [4.9, 5.0, 5.1, 7.5, 29.9, 30.0, 30.1])
@pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "unsorted_duplicate"])
def test_shifted_truth_matches_the_reference(city, cfg, east_m):
    truth = city[1]
    shifted = _shifted(truth, east_m)
    assert geo_score(shifted, truth, cfg).as_dict() == \
        reference_geo_score(shifted, truth, cfg).as_dict()
