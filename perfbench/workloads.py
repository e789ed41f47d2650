"""The benchmark's three workloads.

Each workload makes an input from a seed (setup); a pass makes the same
calls as one ``kharita`` command on that input.
Every call goes through a module attribute (``ingest.parse_trajectories``
rather than a name imported here), so the tracer's wrappers see it.

Why these workloads (see README.md for the full table):

- offline_city: a 10x10-block city with 1000 drives, the AC-09 city with
  about a third of its drives. k-means is about 70-80% of the pass, seed
  selection about 10%. No GridIndex, nearest_within or scoring code runs.
- online_city: the first 500 drives of that city, streamed. Scalar
  GridIndex.nearest (and the Vincenty calls it makes) dominates; many
  short cutoff Dijkstra queries; three resparsify sweeps. No clustering.
- eval_topo: the AC-05 city and its offline map, scored. nearest_within
  dominates TOPO; each sample also runs a whole-graph dists_within. No
  clustering or GridIndex code runs in the pass. The city is the one
  AC-05 is calibrated on (generator seed 7) and the run's seed is the
  evaluation seed: from most starts a 2 km radius reaches the whole
  400 m city, so a TOPO sample costs about the same whatever is drawn.
  With a new city per seed, six samples compared 2.8M to 3.6M point
  pairs over generator seeds 0-9 (quartiles 12% apart), and pass times
  spread with them.
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field

from kharita import evaluate, graphs, ingest, mapio, online
from kharita.clustering import ClusterConfig

# GEO/TOPO F@30 m reproduced from runs of the same calls outside the
# benchmark: offline_city on generator seed 11, and eval_topo with
# evaluation seed 0 (the AC-05 setting). Other seeds are held to the
# AC-05 quality floors below.
REFERENCE_F30 = {
    ("offline_city", 11): {"geo_f30": 0.9941},
    ("eval_topo", 0): {"geo_f30": 0.9886, "topo_f30": 0.9731},
}
AC05_SEED = 7               # generator seed of the eval_topo city
REFERENCE_TOL = 5e-5        # references are rounded to four places
GEO_F30_FLOOR = 0.80        # AC-05 floors
TOPO_F30_FLOOR = 0.70


@dataclass(frozen=True)
class City:
    """Arguments of one generate_synthetic call."""

    rows: int
    cols: int
    block_m: float
    n_trajectories: int
    sampling_spacing_m: float | tuple
    noise_sigma_m: float = 5.0

    def generate(self, seed: int):
        return evaluate.generate_synthetic(
            evaluate.GridSpec(self.rows, self.cols, block_m=self.block_m),
            noise_sigma_m=self.noise_sigma_m,
            n_trajectories=self.n_trajectories,
            sampling_spacing_m=self.sampling_spacing_m, rng_seed=seed)


@dataclass(frozen=True)
class Sizes:
    """Input sizes of all workloads; the smoke test swaps in tiny ones."""

    offline_city: City = City(10, 10, 200.0, 1000, 20.0)
    # the generator draws drives in order, so 500 drives are the first
    # half of offline_city's input
    online_city: City = City(10, 10, 200.0, 500, 20.0)
    eval_topo: City = City(5, 5, 100.0, 200, (20.0, 170.0))
    resparsify_interval: int = 10_000
    topo_samples: int = 40


FULL = Sizes()


@dataclass
class InputFiles:
    """Files written by setup, plus what the output checks need."""

    csv: str
    truth: object              # ground-truth RoadGraph, kept for scoring
    fixes: int
    truth_map: str = ""
    inferred_map: str = ""
    eval_cfg: evaluate.EvalConfig | None = None


@dataclass
class PassResult:
    items: int                 # fixes, pairs or TOPO samples
    outputs: list[str]         # files the pass wrote, in a fixed order
    pair_gaps_s: list[float] = field(default_factory=list)
    stats: graphs.PipelineStats | None = None
    scores: dict = field(default_factory=dict)


def _write_map_outputs(graph, out: str) -> list[str]:
    mapio.save_map(graph, out + ".edges")
    mapio.save_geojson(graph, out + ".geojson")
    return [out + ".edges", out + ".geojson"]


def _write_city(city: City, workdir: str, seed: int) -> InputFiles:
    truth, trajectories = city.generate(seed)
    csv = os.path.join(workdir, "city.csv")
    mapio.save_trajectories_csv(trajectories, csv)
    return InputFiles(csv, truth, sum(len(t.points) for t in trajectories))


class OfflineCity:
    """``kharita offline --input city.csv`` with default settings."""

    name = "offline_city"
    item_unit = "fixes"
    # k-means takes 20 to 25 iterations depending on the city (generator
    # seeds 0-9), so a run times two cities to narrow the spread of
    # throughput across seeds
    inputs_per_run = 2

    def __init__(self, sizes: Sizes = FULL):
        self.city = sizes.offline_city

    def setup(self, workdir: str, seed: int) -> InputFiles:
        return _write_city(self.city, workdir, seed)

    def run_pass(self, inp: InputFiles, out: str) -> PassResult:
        ingest_cfg = ingest.IngestConfig()
        cluster_cfg = ClusterConfig()
        spanner_cfg = graphs.SpannerConfig()
        stats = graphs.PipelineStats()
        trajectories = ingest.parse_trajectories(inp.csv, ingest_cfg)
        graph = graphs.run_offline_pipeline(trajectories, ingest_cfg,
                                            cluster_cfg, spanner_cfg, stats)
        outputs = _write_map_outputs(graph, out)
        mapio.write_manifest(out + ".manifest.json", "offline",
                             {"ingest": asdict(ingest_cfg),
                              "clustering": asdict(cluster_cfg),
                              "spanner": asdict(spanner_cfg)}, [inp.csv])
        return PassResult(inp.fixes, outputs + [out + ".manifest.json"],
                          stats=stats)


class OnlineCity:
    """``kharita online --input city.csv --resparsify-interval N``."""

    name = "online_city"
    item_unit = "pairs"
    inputs_per_run = 1

    def __init__(self, sizes: Sizes = FULL):
        self.city = sizes.online_city
        self.resparsify_interval = sizes.resparsify_interval

    def setup(self, workdir: str, seed: int) -> InputFiles:
        return _write_city(self.city, workdir, seed)

    def run_pass(self, inp: InputFiles, out: str) -> PassResult:
        cfg = online.OnlineConfig(resparsify_interval=self.resparsify_interval)
        gap_s, min_speed = 300.0, 5.0
        stamps = [time.perf_counter()]
        state = online.consume_stream(
            ingest.stream_points(inp.csv), cfg, gap_s=gap_s,
            min_speed_kmh=min_speed,
            on_pair=lambda _state: stamps.append(time.perf_counter()))
        outputs = _write_map_outputs(state.graph, out)
        mapio.write_manifest(out + ".manifest.json", "online",
                             {"online": asdict(cfg), "gap_s": gap_s,
                              "min_speed_kmh": min_speed,
                              "snapshot_every": 0}, [inp.csv])
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        return PassResult(state.pairs_processed,
                          outputs + [out + ".manifest.json"], pair_gaps_s=gaps)


class EvalTopo:
    """``kharita eval --inferred .. --truth .. --trajectories ..
    --topo-samples 40 --seed <seed> --json`` on the AC-05 city and its
    offline map."""

    name = "eval_topo"
    item_unit = "topo samples"
    inputs_per_run = 1

    def __init__(self, sizes: Sizes = FULL):
        self.city = sizes.eval_topo
        self.topo_samples = sizes.topo_samples

    def setup(self, workdir: str, seed: int) -> InputFiles:
        truth, trajectories = self.city.generate(AC05_SEED)
        inferred = graphs.run_offline_pipeline(
            trajectories, ingest.IngestConfig(), ClusterConfig(),
            graphs.SpannerConfig())
        inp = InputFiles(
            os.path.join(workdir, "city.csv"), truth,
            sum(len(t.points) for t in trajectories),
            truth_map=os.path.join(workdir, "truth.edges"),
            inferred_map=os.path.join(workdir, "inferred.edges"),
            eval_cfg=evaluate.EvalConfig(topo_samples=self.topo_samples,
                                         rng_seed=seed))
        mapio.save_map(truth, inp.truth_map)
        mapio.save_map(inferred, inp.inferred_map)
        mapio.save_trajectories_csv(trajectories, inp.csv)
        return inp

    def run_pass(self, inp: InputFiles, out: str) -> PassResult:
        cfg = inp.eval_cfg
        inferred = mapio.load_map(inp.inferred_map)
        truth = mapio.load_map(inp.truth_map)
        trajectories = ingest.parse_trajectories(inp.csv, ingest.IngestConfig())
        geo = evaluate.geo_score(inferred, truth, cfg)
        topo = evaluate.topo_score(inferred, truth, trajectories, cfg)
        with open(out + ".report.json", "w") as fh:
            json.dump({"rng_seed": cfg.rng_seed, "geo": geo.as_dict(),
                       "topo": topo.as_dict()}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        mapio.write_manifest(out + ".manifest.json", "eval",
                             {"eval": asdict(cfg)},
                             [inp.inferred_map, inp.truth_map, inp.csv],
                             rng_seed=cfg.rng_seed)
        return PassResult(cfg.topo_samples,
                          [out + ".report.json", out + ".manifest.json"],
                          scores={"geo_f30": geo.f_at(30.0),
                                  "topo_f30": topo.f_at(30.0)})


WORKLOADS = {w.name: w for w in (OfflineCity, OnlineCity, EvalTopo)}


def digest(paths: list[str]) -> str:
    """sha256 over the bytes of a pass's output files, in order."""
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def geo_f30(map_path: str, truth) -> float:
    """GEO F@30 m of an output map file against the truth graph."""
    graph = mapio.load_map(map_path)
    if not graph.edges:
        raise ValueError(f"{map_path}: output map has no edges")
    return evaluate.geo_score(graph, truth, evaluate.EvalConfig()).f_at(30.0)


def check_scores(workload: str, seed: int, scores: dict) -> list[str]:
    """Problems with a pass's quality scores; empty when they pass."""
    problems = []
    ref = REFERENCE_F30.get((workload, seed), {})
    for name, value in scores.items():
        if name in ref and abs(value - ref[name]) > REFERENCE_TOL:
            problems.append(f"{name} {value:.6f} differs from the reference "
                            f"{ref[name]} for seed {seed}")
    if scores.get("geo_f30", 1.0) < GEO_F30_FLOOR:
        problems.append(f"geo_f30 {scores['geo_f30']:.4f} < {GEO_F30_FLOOR}")
    if scores.get("topo_f30", 1.0) < TOPO_F30_FLOOR:
        problems.append(f"topo_f30 {scores['topo_f30']:.4f} < {TOPO_F30_FLOOR}")
    return problems
