"""What the traced run wraps, and the per-layer metrics it derives.

Layers are the modules of src/kharita. cli is left out on purpose: the
workloads make the same calls it makes.
"""
from __future__ import annotations

import os

from tracing import LAYERS, Target, Tracer


def _active_edges(graph) -> int:
    return sum(1 for e in graph.edges.values() if e.active)


def _size_of(path_arg: int):
    return lambda where, args, result: {"bytes_written": os.path.getsize(args[path_arg])}


# Stage-level functions keep one span per call; the rest are hot and
# only aggregated. ``count`` hooks add numbers the timings cannot give.
TARGETS = [
    # ingest
    Target("ingest", "stream_points"),
    Target("ingest", "parse_trajectories", span=True),
    Target("ingest", "prepare_trajectories", span=True, count=lambda w, a, r: {
        "points_densified": sum(len(t.points) for t in r[0])}),
    # clustering
    Target("clustering:PointArrays", "from_points", span=True),
    Target("clustering", "distinct_points", span=True),
    Target("clustering", "select_seed_indices", span=True,
           count=lambda w, a, r: {"seeds": int(r.size)}),
    Target("clustering:_Assigner", "__init__", span=True),
    Target("clustering:_Assigner", "__call__"),
    Target("clustering", "kmeans_arrays", span=True),
    Target("clustering", "split_by_heading", span=True),
    Target("clustering", "finalize_centroids", span=True,
           count=lambda w, a, r: {"clusters": len(r)}),
    # graphs
    Target("graphs", "run_offline_pipeline", span=True),
    Target("graphs", "candidate_edges_from_arrays", span=True),
    Target("graphs", "greedy_spanner", span=True, count=lambda w, a, r: {
        "spanner_in": _active_edges(a[0]), "spanner_out": len(r.edges)}),
    Target("graphs", "duplexify", span=True),
    Target("graphs:RoadGraph", "shortest_dist"),
    Target("graphs:RoadGraph", "dists_within"),
    Target("graphs:RoadGraph", "remove_edge"),
    # online
    Target("online", "consume_stream", span=True, count=lambda w, a, r: {
        "nodes": len(r.graph.nodes), "edges": len(r.graph.edges)}),
    Target("online", "process_pair"),
    Target("online", "_densify_pair", count=lambda w, a, r: {
        "points_densified": len(r[0])}),
    Target("online", "resparsify", span=True),
    # spatial
    Target("spatial:GridIndex", "nearest"),
    Target("spatial:GridIndex", "candidates", count=lambda w, a, r: {
        "grid_candidates": len(r)}),
    Target("spatial:GridIndex", "insert"),
    Target("spatial:GridIndex", "move"),
    Target("spatial", "nearest_within", count=lambda w, a, r: {
        "within_queries": len(a[0])}),
    # geo
    Target("geo", "vincenty_m"),
    Target("geo", "vincenty_m_many", count=lambda w, a, r: {
        f"vincenty_many_pairs@{w}": int(r.size)}),
    Target("geo", "initial_bearing_deg"),
    # evaluate
    Target("evaluate", "geo_score", span=True),
    Target("evaluate", "prune_unvisited_edges", span=True),
    Target("evaluate", "topo_score", span=True, count=lambda w, a, r: {
        "topo_samples": r.samples_total, "topo_samples_valid": r.samples_valid}),
    # mapio
    Target("mapio", "save_map", span=True, count=_size_of(1)),
    Target("mapio", "save_geojson", span=True, count=_size_of(1)),
    Target("mapio", "write_manifest", span=True, count=_size_of(0)),
    Target("mapio", "load_map", span=True),
]

# PipelineStats.timings key -> the span of the same stage
PIPELINE_STAGES = {
    "densify": "ingest.prepare_trajectories@graphs",
    "distinct": "clustering.distinct_points@graphs",
    "seeds": "clustering.select_seed_indices@graphs",
    "kmeans": "clustering.kmeans_arrays@graphs",
    "split": "clustering.split_by_heading@graphs",
    "edges": "graphs.candidate_edges_from_arrays@graphs",
    "spanner": "graphs.greedy_spanner@graphs",
    "duplexify": "graphs.duplexify@graphs",
}

# name -> unit, in print order; every traced run prints all of them
PER_LAYER_UNITS = {
    "ingest.parse_s": "s", "ingest.prepare_s": "s",
    "ingest.points_densified": "count",
    "clustering.distinct_s": "s", "clustering.seeds_s": "s",
    "clustering.kmeans_s": "s", "clustering.split_s": "s",
    "clustering.kmeans_iterations": "count",
    "clustering.kmeans_s_per_iter": "s", "clustering.seeds": "count",
    "clustering.clusters": "count",
    "graphs.candidate_edges_s": "s", "graphs.spanner_s": "s",
    "graphs.duplexify_s": "s", "graphs.spanner_keep_ratio": "ratio",
    "graphs.shortest_dist_calls": "count", "graphs.shortest_dist_s": "s",
    "graphs.dists_within_calls": "count", "graphs.dists_within_s": "s",
    "online.process_pair_self_s": "s", "online.pairs": "count",
    "online.nodes": "count", "online.edges": "count",
    "online.merge_ratio": "ratio", "online.resparsify_calls": "count",
    "online.resparsify_s": "s", "online.resparsify_removed": "count",
    "spatial.grid_nearest_calls": "count",
    "spatial.grid_nearest_self_s": "s",
    "spatial.grid_candidates_per_query": "count",
    "spatial.grid_exact_per_query": "count",
    "spatial.nearest_within_calls": "count",
    "spatial.nearest_within_queries": "count",
    "spatial.nearest_within_self_s": "s",
    "spatial.within_exact_per_query": "count",
    "geo.vincenty_calls": "count", "geo.vincenty_s": "s",
    "geo.vincenty_many_pairs": "count", "geo.vincenty_many_s": "s",
    "evaluate.geo_score_s": "s", "evaluate.prune_s": "s",
    "evaluate.topo_score_s": "s", "evaluate.topo_s_per_sample": "s",
    "evaluate.topo_samples_valid": "count",
    "mapio.save_s": "s", "mapio.load_s": "s", "mapio.manifest_s": "s",
    "mapio.bytes_written": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.other_s": "s", "trace.other_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, traced_wall_s: float) -> dict:
    """Per-pass means of every per-layer metric except the overhead
    ratio, which needs the untraced run. traced_wall_s is the summed
    wall time of the traced passes; the layer self times plus
    trace.other_s add up to it."""
    fn = tracer.by_function()
    cnt = tracer.counts

    def calls(name):
        return fn[name].calls if name in fn else 0

    def total(name):
        return fn[name].total_s if name in fn else 0.0

    def self_(name):
        return fn[name].self_s if name in fn else 0.0

    nearest = calls("spatial.GridIndex.nearest")
    within_q = cnt.get("within_queries", 0)
    iterations = calls("clustering._Assigner.__call__")
    sums = {
        "ingest.parse_s": self_("ingest.parse_trajectories")
        + total("ingest.stream_points"),
        "ingest.prepare_s": total("ingest.prepare_trajectories"),
        "ingest.points_densified": cnt.get("points_densified", 0),
        "clustering.distinct_s": total("clustering.distinct_points"),
        "clustering.seeds_s": total("clustering.select_seed_indices"),
        "clustering.kmeans_s": total("clustering.kmeans_arrays"),
        "clustering.split_s": total("clustering.split_by_heading"),
        "clustering.kmeans_iterations": iterations,
        "clustering.seeds": cnt.get("seeds", 0),
        "clustering.clusters": cnt.get("clusters", 0),
        "graphs.candidate_edges_s": total("graphs.candidate_edges_from_arrays"),
        "graphs.spanner_s": total("graphs.greedy_spanner"),
        "graphs.duplexify_s": total("graphs.duplexify"),
        "graphs.shortest_dist_calls": calls("graphs.RoadGraph.shortest_dist"),
        "graphs.shortest_dist_s": total("graphs.RoadGraph.shortest_dist"),
        "graphs.dists_within_calls": calls("graphs.RoadGraph.dists_within"),
        "graphs.dists_within_s": total("graphs.RoadGraph.dists_within"),
        "online.process_pair_self_s": self_("online.process_pair"),
        "online.pairs": calls("online.process_pair"),
        "online.nodes": cnt.get("nodes", 0),
        "online.edges": cnt.get("edges", 0),
        "online.resparsify_calls": calls("online.resparsify"),
        "online.resparsify_s": total("online.resparsify"),
        "online.resparsify_removed": calls("graphs.RoadGraph.remove_edge"),
        "spatial.grid_nearest_calls": nearest,
        "spatial.grid_nearest_self_s": self_("spatial.GridIndex.nearest"),
        "spatial.nearest_within_calls": calls("spatial.nearest_within"),
        "spatial.nearest_within_queries": within_q,
        "spatial.nearest_within_self_s": self_("spatial.nearest_within"),
        "geo.vincenty_calls": calls("geo.vincenty_m"),
        "geo.vincenty_s": total("geo.vincenty_m"),
        "geo.vincenty_many_pairs": sum(
            v for k, v in cnt.items() if k.startswith("vincenty_many_pairs@")),
        "geo.vincenty_many_s": total("geo.vincenty_m_many"),
        "evaluate.geo_score_s": total("evaluate.geo_score"),
        "evaluate.prune_s": total("evaluate.prune_unvisited_edges"),
        "evaluate.topo_score_s": total("evaluate.topo_score"),
        "evaluate.topo_samples_valid": cnt.get("topo_samples_valid", 0),
        "mapio.save_s": total("mapio.save_map") + total("mapio.save_geojson"),
        "mapio.load_s": total("mapio.load_map"),
        "mapio.manifest_s": total("mapio.write_manifest"),
        "mapio.bytes_written": cnt.get("bytes_written", 0),
    }
    layer_self = tracer.layer_self_s()
    for layer, s in layer_self.items():
        sums[f"{layer}.self_s"] = s
    other = traced_wall_s - sum(layer_self.values())
    sums["trace.other_s"] = other
    out = {k: v / passes for k, v in sums.items()}
    # ratios of the sums, so they need no division by the pass count
    out.update({
        "clustering.kmeans_s_per_iter": _ratio(
            total("clustering.kmeans_arrays"), iterations),
        "graphs.spanner_keep_ratio": _ratio(cnt.get("spanner_out", 0),
                                            cnt.get("spanner_in", 0)),
        "online.merge_ratio": 1.0 - _ratio(cnt.get("nodes", 0), nearest)
        if nearest else 0.0,
        "spatial.grid_candidates_per_query": _ratio(
            cnt.get("grid_candidates", 0), nearest),
        "spatial.grid_exact_per_query": _ratio(
            tracer.stats["geo.vincenty_m@spatial"].calls, nearest),
        "spatial.within_exact_per_query": _ratio(
            cnt.get("vincenty_many_pairs@spatial", 0), within_q),
        "evaluate.topo_s_per_sample": _ratio(total("evaluate.topo_score"),
                                             cnt.get("topo_samples", 0)),
        "trace.other_share": _ratio(other, traced_wall_s),
    })
    return out
