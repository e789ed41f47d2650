"""Directed road graphs: candidate edge inference from clustered
trajectories, greedy spanner sparsification, and two-way street repair.

The offline pipeline lives here too: prepared trajectories go in, a
routable sparse graph comes out.
"""
from __future__ import annotations

import heapq
import logging
import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .clustering import (
    ClusterCentroid,
    ClusterConfig,
    distinct_points,
    finalize_centroids,
    kmeans_arrays,
    select_seed_indices,
    split_by_heading,
)
from .config import Checked, within
from .geo import vincenty_m
from .ingest import (
    EmptyInputError,
    IngestConfig,
    PointArrays,
    Trajectory,
    prepare_trajectories,
)

log = logging.getLogger(__name__)

# repeated visits to the exact same coordinates still need a positive
# length for shortest-path math
MIN_EDGE_WEIGHT_M = 1e-3

_NO_EDGES: dict = {}


@dataclass(frozen=True)
class SpannerConfig(Checked):
    alpha: float = within("[1, inf)", math.sqrt(2.0))
    duplex_speed_kmh: float = within("[0, inf]", 60.0)    # inf: every road two-way


@dataclass(slots=True)
class Edge:
    src: int
    dst: int
    weight_m: float
    traj_count: int = 0
    last_seen: float = 0.0
    active: bool = True


class EdgeView(Mapping):
    """Read-only (src, dst) -> Edge view of a graph's out-dicts, in
    their order: by source as first given an edge, then by destination
    as added."""

    def __init__(self, out: dict[int, dict[int, Edge]]):
        self._out = out

    def __getitem__(self, key: tuple[int, int]) -> Edge:
        return self._out.get(key[0], _NO_EDGES)[key[1]]

    def __iter__(self):
        return ((u, v) for u, row in self._out.items() for v in row)

    def __len__(self) -> int:
        return sum(map(len, self._out.values()))

    def values(self):
        return (e for row in self._out.values() for e in row.values())


class RoadGraph:
    """Directed graph over ClusterCentroid nodes with weighted edges.

    Node ids are list positions and never change; removal is expressed
    by the active flags, except inside resparsification which may drop
    edges outright.

    Each edge is stored once, in _out: src -> {dst: edge}, the dicts
    _search walks, whose insertion order breaks ties between routes.
    edges is a read-only view of them keyed by (src, dst); only
    add_edge and remove_edge write. sorted_edges gives the records in
    (src, dst) order, the order of every file.
    """

    def __init__(self, nodes: list[ClusterCentroid] | None = None):
        self.nodes: list[ClusterCentroid] = nodes if nodes is not None else []
        self._out: dict[int, dict[int, Edge]] = {}
        self.edges = EdgeView(self._out)

    def __repr__(self) -> str:
        return f"RoadGraph(nodes={len(self.nodes)}, edges={len(self.edges)})"

    def add_node(self, node: ClusterCentroid) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def add_edge(self, src: int, dst: int, weight_m: float,
                 traj_count: int = 0, last_seen: float = 0.0,
                 active: bool = True) -> Edge:
        if not (0 <= src < len(self.nodes) and 0 <= dst < len(self.nodes)):
            raise KeyError(f"edge ({src}, {dst}) references a missing node")
        row = self._out.setdefault(src, {})
        if dst in row:
            raise KeyError(f"edge ({src}, {dst}) already present")
        e = row[dst] = Edge(src, dst, max(weight_m, MIN_EDGE_WEIGHT_M),
                            traj_count, last_seen, active)
        return e

    def remove_edge(self, src: int, dst: int) -> None:
        del self._out[src][dst]

    def sorted_edges(self) -> list[Edge]:
        """Edge records in (src, dst) order."""
        return [row[v] for _, row in sorted(self._out.items()) for v in sorted(row)]

    def _search(self, src: int, target: int | None = None,
                cutoff: float = math.inf, start_cost: float = 0.0,
                prev: dict | None = None) -> dict:
        """Dijkstra over active edges from src counting from start_cost,
        never past cutoff; stops once target is settled. Returns node ->
        distance, all final without a target; with one, only the target's
        is final, present exactly when reached. prev, when given, collects
        predecessors."""
        dist = {src: start_cost}
        heap = [(start_cost, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if u == target:
                break
            if d > dist[u]:
                continue
            for v, e in self._out.get(u, _NO_EDGES).items():
                if not e.active:
                    continue
                nd = d + e.weight_m
                if nd <= cutoff and nd < dist.get(v, math.inf):
                    dist[v] = nd
                    if prev is not None:
                        prev[v] = u
                    heapq.heappush(heap, (nd, v))
        return dist

    def shortest_dist(self, src: int, dst: int,
                      cutoff: float = math.inf) -> float:
        """Weighted directed distance src -> dst, or inf when dst is
        unreachable within cutoff."""
        return self._search(src, dst, cutoff).get(dst, math.inf)

    def dists_within(self, src: int, cutoff: float,
                     start_cost: float = 0.0) -> dict:
        """Distances to every node reachable from src within cutoff,
        starting the count at start_cost (for mid-edge starting points)."""
        if start_cost > cutoff:
            return {}
        return self._search(src, cutoff=cutoff, start_cost=start_cost)

    def shortest_path(self, src: int, dst: int) -> list | None:
        """Node sequence of one shortest route src -> dst, or None."""
        prev: dict[int, int] = {}
        if dst not in self._search(src, dst, prev=prev):
            return None
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        return path[::-1]


def spurious_edge_threshold(support_u: int, support_v: int) -> float:
    """Minimum trajectory count for an edge between clusters of the
    given supports to be believed."""
    m = min(support_u, support_v)
    return max(1.0, math.log(m) - 1.0) if m > 0 else 1.0


def candidate_edges_from_arrays(centroids: list[ClusterCentroid],
                                assign: np.ndarray,
                                ts: np.ndarray,
                                lengths: list[int]) -> RoadGraph:
    """Candidate graph from per-point cluster assignments.

    assign/ts hold every point of every trajectory, concatenated in
    order; lengths gives each trajectory's point count. An edge is drawn
    once per trajectory that moves between two distinct clusters, and
    kept only when enough trajectories agree relative to the endpoint
    supports (log-threshold rule).
    """
    assign = np.asarray(assign, dtype=np.int64)
    n_traj = len(lengths)
    traj = np.repeat(np.arange(n_traj), lengths)
    # point i moves from point i - 1 of its own trajectory to a new cluster
    i = np.flatnonzero((assign[1:] != assign[:-1]) & (traj[1:] == traj[:-1])) + 1
    k = len(centroids)
    keys, inv = np.unique(assign[i - 1] * k + assign[i], return_inverse=True)
    # each (edge, trajectory) pair counts once
    counts = np.bincount(np.unique(inv * n_traj + traj[i]) // n_traj,
                         minlength=keys.size)
    last = np.full(keys.size, -np.inf)
    np.maximum.at(last, inv, ts[i])

    g = RoadGraph(list(centroids))
    for key, f_e, seen in zip(keys.tolist(), counts.tolist(), last.tolist()):
        u, v = divmod(key, k)
        if f_e >= spurious_edge_threshold(centroids[u].support, centroids[v].support):
            w = vincenty_m(centroids[u].lat, centroids[u].lon,
                           centroids[v].lat, centroids[v].lon)
            g.add_edge(u, v, w, traj_count=f_e, last_seen=seen)
    return g


def greedy_spanner(graph: RoadGraph, cfg: SpannerConfig) -> RoadGraph:
    """Sparsify by scanning edges in increasing weight order and keeping
    an edge only when the graph built so far cannot already connect its
    endpoints within alpha times the edge weight.

    Every dropped edge is alpha-covered at drop time and stays covered,
    so all pairwise distances stretch by at most alpha.
    """
    out = RoadGraph(list(graph.nodes))
    pending = sorted((e for e in graph.edges.values() if e.active),
                     key=lambda e: (e.weight_m, e.src, e.dst))
    for e in pending:
        bound = cfg.alpha * e.weight_m
        if out.shortest_dist(e.src, e.dst, cutoff=bound) > bound:
            out.add_edge(e.src, e.dst, e.weight_m, e.traj_count,
                         e.last_seen, e.active)
    return out


def duplexify(graph: RoadGraph, cfg: SpannerConfig) -> RoadGraph:
    """Add reverse edges on slow roads, which are assumed two-way.

    A reverse edge appears when the faster of the two endpoint clusters
    stays at or below duplex_speed_kmh and the reversal is absent. The
    new edge carries no trajectory evidence of its own (traj_count 0).
    """
    for e in graph.sorted_edges():
        slow = max(graph.nodes[e.src].max_speed_kmh,
                   graph.nodes[e.dst].max_speed_kmh) <= cfg.duplex_speed_kmh
        if slow and (e.dst, e.src) not in graph.edges:
            graph.add_edge(e.dst, e.src, e.weight_m, traj_count=0,
                           last_seen=e.last_seen, active=e.active)
    return graph


@dataclass
class PipelineStats:
    """Per-stage wall times (seconds) and object counts."""

    timings: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)


def run_offline_pipeline(trajectories: list[Trajectory],
                         ingest_cfg: IngestConfig,
                         cluster_cfg: ClusterConfig,
                         spanner_cfg: SpannerConfig,
                         stats: PipelineStats | None = None) -> RoadGraph:
    """Full batch inference: prepare, cluster, infer edges, sparsify.

    Stage order: densify (after the pair rule and speed/heading
    inference), exact-duplicate collapse, seed selection, k-means,
    heading split, candidate edges, spanner, duplexify.
    """
    st = stats if stats is not None else PipelineStats()

    def stage(name, fn):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        st.timings[name] = dt
        log.info("stage %-16s %8.3fs", name, dt)
        return out

    prepared, _ = stage("densify", lambda: prepare_trajectories(trajectories, ingest_cfg))
    if not prepared:
        raise EmptyInputError("no usable points after preparation")
    lengths = [len(tr) for tr in prepared]
    pts = PointArrays.concat([tr.cols for tr in prepared])
    del prepared
    st.counts["points"] = pts.n

    dpts, inverse = stage("distinct", lambda: distinct_points(pts))
    st.counts["distinct_points"] = dpts.n

    seed_idx = stage("seeds", lambda: select_seed_indices(dpts, cluster_cfg))
    st.counts["seeds"] = int(seed_idx.size)

    cents, assign, costs = stage("kmeans", lambda: kmeans_arrays(
        dpts, dpts.lat[seed_idx], dpts.lon[seed_idx], dpts.heading[seed_idx],
        cluster_cfg))
    st.counts["kmeans_iterations"] = len(costs)

    (clat, clon, chdg), assign = stage("split", lambda: split_by_heading(
        dpts, cents["lat"], cents["lon"], cents["heading"], assign, cluster_cfg))
    centroids = finalize_centroids(dpts, assign, clat, clon, chdg)
    st.counts["clusters"] = len(centroids)

    full_assign = assign[inverse]
    candidate = stage("edges", lambda: candidate_edges_from_arrays(
        centroids, full_assign, pts.ts, lengths))
    st.counts["candidate_edges"] = len(candidate.edges)

    sparse = stage("spanner", lambda: greedy_spanner(candidate, spanner_cfg))
    st.counts["spanner_edges"] = len(sparse.edges)

    final = stage("duplexify", lambda: duplexify(sparse, spanner_cfg))
    st.counts["edges"] = len(final.edges)
    st.counts["nodes"] = len(final.nodes)
    log.info("pipeline done: %d nodes, %d edges", len(final.nodes), len(final.edges))
    return final
