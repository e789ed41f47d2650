"""Configs check themselves: a config that exists is valid. Every
numeric field of every config rejects NaN and -inf, and +inf except on
the fields where it has a plain meaning; those still run."""
import dataclasses
import math

import numpy as np
import pytest

from kharita.clustering import ClusterConfig
from kharita.evaluate import (
    EvalConfig,
    GridSpec,
    generate_synthetic,
    topo_score,
)
from kharita.graphs import SpannerConfig, run_offline_pipeline
from kharita.ingest import IngestConfig, parse_trajectories, stream_points
from kharita.mapio import save_trajectories_csv
from kharita.online import OnlineConfig, consume_stream, mark_stale

CONFIGS = (IngestConfig, ClusterConfig, SpannerConfig, OnlineConfig,
           EvalConfig, GridSpec)
NUMERIC = [pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
           for cls in CONFIGS for f in dataclasses.fields(cls)
           if f.type != "bool"]
# the fields where +inf runs and means: never split, no densification
# (twice), one k-means update, every road two-way, never stale, and
# the whole graph
INF_FIELDS = [(IngestConfig, "new_trajectory_gap_s"),
              (IngestConfig, "sampling_rate_m"),
              (OnlineConfig, "sampling_rate_sr"),
              (ClusterConfig, "convergence_ratio"),
              (SpannerConfig, "duplex_speed_kmh"),
              (OnlineConfig, "staleness_horizon_s"),
              (EvalConfig, "topo_radius_m")]


def build(cls, name, value):
    if name == "matching_thresholds_m":
        value = (5.0, value)
    return cls(**{name: value})


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
def test_defaults_construct_and_fields_are_frozen(cls):
    cfg = cls()
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, f.name, getattr(cfg, f.name))


@pytest.mark.parametrize("cls, name", NUMERIC)
@pytest.mark.parametrize("value", [math.nan, -math.inf], ids=["nan", "-inf"])
def test_nan_and_minus_inf_rejected(cls, name, value):
    with pytest.raises(ValueError, match=name):
        build(cls, name, value)


@pytest.mark.parametrize("cls, name", NUMERIC)
def test_plus_inf_only_where_it_means_something(cls, name):
    if (cls, name) in INF_FIELDS:
        assert getattr(build(cls, name, math.inf), name) == math.inf
    else:
        with pytest.raises(ValueError, match=name):
            build(cls, name, math.inf)


def test_kinds_of_value():
    # numpy scalars are numbers; an integer field takes integers only
    assert ClusterConfig(seed_radius_cr=np.float64(30.0),
                         max_iterations=np.int64(5)).max_iterations == 5
    assert ClusterConfig(heading_weight_theta=None).theta == 40.0
    for kw in ({"max_iterations": 5.0}, {"max_iterations": True},
               {"seed_radius_cr": "30"}, {"split_threshold_deg": None}):
        with pytest.raises(ValueError, match=next(iter(kw))):
            ClusterConfig(**kw)
    with pytest.raises(ValueError, match="matching_thresholds_m"):
        EvalConfig(matching_thresholds_m=[5.0])


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    truth, trajectories = generate_synthetic(
        GridSpec(3, 3, block_m=100.0), noise_sigma_m=2.0, n_trajectories=12,
        rng_seed=1)
    csv = str(tmp_path_factory.mktemp("city") / "city.csv")
    save_trajectories_csv(trajectories, csv)
    return truth, trajectories, csv


@pytest.mark.parametrize("cls, name", INF_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n in INF_FIELDS])
def test_inf_fields_still_run(cls, name, city):
    truth, trajectories, csv = city
    cfg = cls(**{name: math.inf})
    if cls is EvalConfig:
        cfg = dataclasses.replace(cfg, topo_samples=3)
        assert topo_score(truth, truth, trajectories, cfg).f_at(30.0) == 1.0
        return
    if cls is OnlineConfig:
        state = consume_stream(stream_points(csv), cfg)
        graph = mark_stale(state, 1e12).graph
        if name == "staleness_horizon_s":
            assert all(e.active for e in graph.edges.values())
    else:
        configs = {c: cfg if c is cls else c()
                   for c in (IngestConfig, ClusterConfig, SpannerConfig)}
        graph = run_offline_pipeline(
            parse_trajectories(csv, configs[IngestConfig]), *configs.values())
        if name == "duplex_speed_kmh":
            assert all((v, u) in graph.edges for (u, v) in graph.edges)
    assert graph.edges
