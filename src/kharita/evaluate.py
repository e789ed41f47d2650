"""Map quality scoring with the holes-and-marbles protocols, plus a
synthetic grid-city generator for ground-truth-based testing.

GEO samples both maps every few meters (marbles on the tested map,
holes on the reference) and matches samples across maps within a
distance threshold. TOPO compares bounded-radius reachable sets from
matched starting points instead, so connectivity mistakes show up even
where the geometry looks perfect. The reference map is first pruned to
the edges that some trajectory actually passed, since roads no vehicle
drove cannot be inferred from the data.

A score asks of a match only which thresholds it meets, so both scores
read bands, a sample's band being the least threshold its match meets:
GEO's from each sample's nearest distance, TOPO's from the bands of the
marble-hole pairs, found once for all samples (spatial.threshold_pairs).
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .clustering import ClusterCentroid
from .config import Checked, check, within
from .geo import (
    M_PER_DEG_LAT,
    angle_diff_deg_many,
    initial_bearing_deg,
    lon_delta,
    vincenty_m,
    wrap_lon,
    wrap_lon_many,
)
from .graphs import RoadGraph
from .ingest import PointArrays, Trajectory
from .spatial import nearest_within, segments, threshold_pairs

log = logging.getLogger(__name__)

DEFAULT_THRESHOLDS_M = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
START_RETRIES = 1000    # draws per TOPO sample before it counts as invalid


@dataclass(frozen=True)
class EvalConfig(Checked):
    sample_spacing_m: float = within("(0, inf)", 5.0)
    matching_thresholds_m: tuple = within("(0, inf)", DEFAULT_THRESHOLDS_M)
    topo_radius_m: float = within("(0, inf]", 2000.0)    # inf: the whole graph
    topo_samples: int = within("[1, inf)", 200)
    start_match_distance_m: float = within("(0, inf)", 1.0)
    start_angle_tolerance_deg: float = within("(0, 180]", 10.0)
    visit_distance_m: float = within("(0, inf)", 30.0)   # passed-here test for pruning
    rng_seed: int = within("[0, inf)", 0)


@dataclass
class EvalReport:
    """Per-threshold scores; for reachable-set comparisons the values
    are means over the valid samples."""

    thresholds: list
    precision: list
    recall: list
    f_score: list
    samples_total: int = 0
    samples_valid: int = 0
    seed: int | None = None

    def f_at(self, threshold: float) -> float:
        return self.f_score[self.thresholds.index(threshold)]

    def as_dict(self) -> dict:
        return {
            "thresholds_m": list(self.thresholds),
            "precision": list(self.precision),
            "recall": list(self.recall),
            "f_score": list(self.f_score),
            "samples_total": self.samples_total,
            "samples_valid": self.samples_valid,
            "seed": self.seed,
        }


def _scores(least_m, least_h, none: int):
    """Precision, recall and F per threshold, as arrays: the shares of
    marbles and of holes whose least band (none where unmatched) is at
    most the threshold's, and F, 0 where both shares are."""
    p, r = (np.cumsum(np.bincount(b, minlength=none))[:none] / b.size
            for b in (least_m, least_h))
    s = p + r
    return p, r, np.divide(2.0 * p * r, s, out=np.zeros(none), where=s > 0)


def _zeros(ts: list, **kw) -> EvalReport:
    """The report of an empty tested map: zeros at every threshold."""
    log.warning("tested map is empty: scoring zeros")
    zeros = [0.0] * len(ts)
    return EvalReport(ts, zeros, zeros, zeros, **kw)


@dataclass
class _Samples:
    """Points laid every few meters along a graph's active edges,
    start-inclusive and end-exclusive (the end is the next edge's
    start), with enough provenance to walk distances along edges."""

    lat: np.ndarray
    lon: np.ndarray
    edge_id: np.ndarray     # index into edges, per sample
    offset: np.ndarray      # meters from the edge source, per sample
    edges: list             # Edge record per edge
    src: np.ndarray         # source node, per edge
    length: np.ndarray      # geometric meters, per edge
    bearing: np.ndarray     # degrees, per edge


def _sample_edges(graph: RoadGraph, spacing: float) -> _Samples:
    """Samples at offsets 0.5, 1.5, 2.5, ... spacings along each edge
    (half-phase, so edges sharing a node never duplicate a sample), or
    one at the middle of an edge shorter than half a spacing; an edge of
    length 0 has one sample on its source node. The offsets are those of
    np.arange(0.5 * spacing, length, spacing), bit for bit."""
    edges = [e for e in graph.sorted_edges() if e.active]
    ends = np.empty((len(edges), 6))
    for j, e in enumerate(edges):
        nu, nv = graph.nodes[e.src], graph.nodes[e.dst]
        L = vincenty_m(nu.lat, nu.lon, nv.lat, nv.lon)
        ends[j] = (nu.lat, nu.lon, nv.lat - nu.lat, lon_delta(nu.lon, nv.lon),
                   L if L > 0.0 else 0.0,
                   initial_bearing_deg(nu.lat, nu.lon, nv.lat, nv.lon)
                   if L > 0.0 else nu.heading_deg)
    lat0, lon0, dlat, dlon, length, bearing = ends.T
    # np.arange's count and values: start, start + spacing, then
    # start + i * (second - start)
    start = 0.5 * spacing
    count = np.maximum(np.ceil((length - start) / spacing), 0.0).astype(np.int64)
    short = count == 0
    count[short] = 1
    edge_id = np.repeat(np.arange(len(edges)), count)
    i = segments(np.zeros_like(count), count)
    offset = start + i * ((start + spacing) - start)
    offset[i == 1] = start + spacing
    along = length[edge_id]
    half = short[edge_id]
    offset[half] = along[half] / 2.0
    f = offset / np.where(along > 0.0, along, 1.0)
    lat = lat0[edge_id] + f * dlat[edge_id]
    lon = lon0[edge_id] + f * dlon[edge_id]
    return _Samples(lat, wrap_lon_many(lon), edge_id, offset, edges,
                    np.array([e.src for e in edges], dtype=np.int64),
                    length, bearing)


def geo_score(inferred: RoadGraph, truth: RoadGraph, cfg: EvalConfig) -> EvalReport:
    """Geometric agreement: what fraction of each map's sample points
    the other map covers, per matching threshold."""
    holes = _sample_edges(truth, cfg.sample_spacing_m)
    if holes.lat.size == 0:
        raise ValueError("reference map has no active edges to sample")
    marbles = _sample_edges(inferred, cfg.sample_spacing_m)
    ts = sorted(float(t) for t in cfg.matching_thresholds_m)
    if marbles.lat.size == 0:
        return _zeros(ts)
    rmax = ts[-1]
    md, _ = nearest_within(marbles.lat, marbles.lon, holes.lat, holes.lon, rmax)
    hd, _ = nearest_within(holes.lat, holes.lon, marbles.lat, marbles.lon, rmax)
    # side "left": a band is at most k exactly when d <= ts[k]
    return EvalReport(ts, *np.array(_scores(
        np.searchsorted(ts, md), np.searchsorted(ts, hd), len(ts))).tolist())


def prune_unvisited_edges(truth: RoadGraph, trajectories: list,
                          cfg: EvalConfig) -> RoadGraph:
    """Copy of the reference map keeping only edges that some
    trajectory point passes within the visit distance."""
    s = _sample_edges(truth, cfg.sample_spacing_m)
    out = RoadGraph(list(truth.nodes))
    if not s.edges:
        return out
    visited = np.zeros(len(s.edges), dtype=bool)
    if any(len(tr) for tr in trajectories):
        d, _ = nearest_within(s.lat, s.lon,
                              np.concatenate([tr.cols.lat for tr in trajectories]),
                              np.concatenate([tr.cols.lon for tr in trajectories]),
                              cfg.visit_distance_m)
        visited[s.edge_id[d <= cfg.visit_distance_m]] = True
    for e in itertools.compress(s.edges, visited):
        out.add_edge(e.src, e.dst, e.weight_m, e.traj_count, e.last_seen,
                     e.active)
    return out


def _reachable(graph: RoadGraph, s: _Samples, start: int,
               radius: float) -> np.ndarray:
    """Indices of samples whose along-graph distance from the start
    sample is within radius. Distance to a sample is the distance to
    its edge's source node plus the sample's offset; samples further
    along the start's own edge are reached directly."""
    e0 = int(s.edge_id[start])
    v0 = s.edges[e0].dst
    o0 = float(s.offset[start])
    into = graph.dists_within(v0, radius, start_cost=s.length[e0] - o0)
    node_dist = np.full(len(graph.nodes), math.inf)
    node_dist[np.fromiter(into.keys(), np.int64, len(into))] = \
        np.fromiter(into.values(), np.float64, len(into))
    cost = node_dist[s.src][s.edge_id] + s.offset
    fwd = (s.edge_id == e0) & (s.offset >= o0)
    cost[fwd] = np.minimum(cost[fwd], s.offset[fwd] - o0)
    return np.nonzero(cost <= radius)[0]


@dataclass
class _Owned:
    """The marble-hole pairs grouped by one of their ends, the owner:
    per pair its band and its other end, and per owner the position of
    its first pair, its number of pairs and its least band (none where
    it has no pair)."""

    band: np.ndarray
    other: np.ndarray
    start: np.ndarray
    count: np.ndarray
    least: np.ndarray


def _owned(owner, other, band, n: int, none: int) -> _Owned:
    """_Owned of pairs whose owners come grouped. A group's head is a
    pair whose owner differs from the one before, found with a boolean
    mask, so no widened copy of the owners is made; with no pairs there
    is no head."""
    heads = np.flatnonzero(np.append(owner.size > 0, owner[1:] != owner[:-1]))
    start = np.zeros(n, dtype=np.int64)
    count = np.zeros(n, dtype=np.int64)
    least = np.full(n, none, dtype=band.dtype)
    start[owner[heads]] = heads
    count[owner[heads]] = np.diff(heads, append=owner.size)
    if band.size:
        least[owner[heads]] = np.minimum.reduceat(band, heads)
    return _Owned(band, other, start, count, least)


def _least_reached(own: _Owned, reached, theirs: _Owned,
                   floor_theirs) -> np.ndarray:
    """Per reached owner (ascending indices), the least band of its
    pairs whose other end the sample reached, or none: a pair's band is
    raised to the floor of its other end, 0 where reached and none where
    not.

    Only an owner paired with an unreached item can lose its least
    band. Those owners are found through the pairs of the unreached
    items and rescanned over their own pairs; every other owner keeps
    its least band."""
    unreached = np.flatnonzero(floor_theirs)
    touched = np.zeros(own.least.size, dtype=bool)
    touched[theirs.other[segments(theirs.start[unreached],
                                  theirs.count[unreached])]] = True
    redo = np.flatnonzero(touched[reached])
    least = own.least[reached]
    if redo.size:
        n = own.count[reached[redo]]
        at = segments(own.start[reached[redo]], n)
        least[redo] = np.minimum.reduceat(
            np.maximum(own.band[at], floor_theirs[own.other[at]]),
            np.cumsum(n) - n)
    return least


def topo_score(inferred: RoadGraph, truth: RoadGraph, trajectories: list,
               cfg: EvalConfig) -> EvalReport:
    """Connectivity agreement: from random matched starting points,
    compare which sample points each map can reach within the radius.

    Starting pairs must sit within the start matching distance of each
    other on roads running the same direction; draws that find no
    partner are retried a bounded number of times, then the sample is
    skipped. Scores are means over valid samples; an empty tested map
    scores zeros with none valid, as in geo_score.

    The pairs stay in threshold_pairs' compact types. The hole
    permutation, a stable sort (a radix sort on 16-bit keys), is built
    after the marble table and freed once the hole table exists.
    """
    pruned = prune_unvisited_edges(truth, trajectories, cfg)
    holes = _sample_edges(pruned, cfg.sample_spacing_m)
    if holes.lat.size == 0:
        raise ValueError("no trajectory-visited reference edges to sample")
    marbles = _sample_edges(inferred, cfg.sample_spacing_m)
    ts = sorted(float(t) for t in cfg.matching_thresholds_m)
    if marbles.lat.size == 0:
        return _zeros(ts, samples_total=cfg.topo_samples, seed=cfg.rng_seed)

    # resolve every marble's start partner up front: nearest hole, kept
    # when close enough and pointing the same way
    sd, si = nearest_within(marbles.lat, marbles.lon, holes.lat, holes.lon,
                            cfg.start_match_distance_m)
    usable = sd <= cfg.start_match_distance_m
    mb = marbles.bearing[marbles.edge_id]
    hb = holes.bearing[holes.edge_id[np.where(usable, si, 0)]]
    usable &= angle_diff_deg_many(mb, hb) <= cfg.start_angle_tolerance_deg
    # draw through a geometric ordering so node relabelings that leave
    # the map unchanged leave the sampled starts unchanged too
    order = np.lexsort((marbles.offset, mb, marbles.lon, marbles.lat))
    # every marble-hole pair within the largest threshold with its band,
    # the least threshold it meets, grouped by marble and, through a
    # stable sort, by hole. A sample's match for a point is then the
    # least band among the pairs whose other end it reached
    pm, ph, band = threshold_pairs(marbles.lat, marbles.lon,
                                   holes.lat, holes.lon, ts)
    none = len(ts)
    marble_pairs = _owned(pm, ph, band, marbles.lat.size, none)
    by_hole = np.argsort(ph, kind="stable")
    hole_pairs = _owned(ph[by_hole], pm[by_hole], band[by_hole],
                        holes.lat.size, none)
    del by_hole

    sums = np.zeros((3, len(ts)))    # precision, recall, F
    valid = 0
    for i in range(cfg.topo_samples):
        rng = np.random.default_rng([cfg.rng_seed, i])
        start = -1
        for _ in range(START_RETRIES):
            j = int(order[int(rng.integers(0, marbles.lat.size))])
            if usable[j]:
                start = j
                break
        if start < 0:
            continue
        rm = _reachable(inferred, marbles, start, cfg.topo_radius_m)
        rh = _reachable(pruned, holes, int(si[start]), cfg.topo_radius_m)
        floor_m = np.full(marbles.lat.size, none, dtype=band.dtype)
        floor_h = np.full(holes.lat.size, none, dtype=band.dtype)
        floor_m[rm] = 0
        floor_h[rh] = 0
        sums += _scores(_least_reached(marble_pairs, rm, hole_pairs, floor_h),
                        _least_reached(hole_pairs, rh, marble_pairs, floor_m),
                        none)
        valid += 1
    if valid == 0:
        raise ValueError("no valid starting pair in any sample; "
                         "the maps never align within the start distance")
    return EvalReport(ts, *(sums / valid).tolist(), samples_valid=valid,
                      samples_total=cfg.topo_samples, seed=cfg.rng_seed)


@dataclass(frozen=True)
class GridSpec(Checked):
    """Synthetic city: a rows x cols lattice of intersections joined by
    straight streets, optionally with a central roundabout."""

    rows: int = within("[2, inf)", 5)
    cols: int = within("[2, inf)", 5)
    block_m: float = within("(0, inf)", 100.0)
    two_way_fraction: float = within("[0, 1]", 1.0)    # chance a street runs both ways
    roundabout: bool = False
    origin_lat: float = within("[-90, 90]", 25.0)
    origin_lon: float = within("[-180, 180]", 51.0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.roundabout and (self.rows < 3 or self.cols < 3):
            raise ValueError("roundabout needs an interior intersection")


SPEED_CLASSES_KMH = (40.0, 50.0, 60.0)


def generate_synthetic(spec: GridSpec, noise_sigma_m: float = 3.0,
                       n_trajectories: int = 120,
                       sampling_spacing_m: float = 20.0,
                       rng_seed: int = 0,
                       heading_noise_deg: float = 5.0):
    """Ground-truth graph plus simulated drives over it.

    Streets get a speed class and a direction regime from the seed;
    each trajectory follows a shortest route between two random
    intersections, emitting a fix every sampling_spacing_m with
    isotropic Gaussian position noise and Gaussian heading noise.
    sampling_spacing_m may be a (low, high) pair, giving each
    trajectory its own spacing drawn uniformly from the range. The
    same seed reproduces identical output.
    """
    if isinstance(sampling_spacing_m, tuple):
        spacing_lo, spacing_hi = sampling_spacing_m
    else:
        spacing_lo = spacing_hi = sampling_spacing_m
    check("noise_sigma_m", noise_sigma_m, "[0, inf)")
    check("n_trajectories", n_trajectories, "[0, inf)", integral=True)
    check("sampling_spacing_m", spacing_lo, "(0, inf)")
    check("sampling_spacing_m", spacing_hi, "(0, inf)")
    check("heading_noise_deg", heading_noise_deg, "[0, inf)")
    if spacing_hi < spacing_lo:
        raise ValueError("sampling_spacing_m range must not be reversed")
    rng = np.random.default_rng(rng_seed)
    lat_step = spec.block_m / M_PER_DEG_LAT
    lon_step = spec.block_m / (M_PER_DEG_LAT
                               * math.cos(math.radians(spec.origin_lat)))

    nodes = []
    for r in range(spec.rows):
        for c in range(spec.cols):
            nodes.append(ClusterCentroid(
                spec.origin_lat + r * lat_step,
                wrap_lon(spec.origin_lon + c * lon_step), 0.0, support=1))

    # one speed class and direction regime per whole street, a street
    # being its node ids: the west-east streets, then the south-north
    streets = ([range(r * spec.cols, (r + 1) * spec.cols) for r in range(spec.rows)]
               + [range(c, len(nodes), spec.cols) for c in range(spec.cols)])
    edges: dict[tuple[int, int], float] = {}    # key -> speed limit
    for street in streets:
        limit = float(rng.choice(SPEED_CLASSES_KMH))
        both = bool(rng.random() < spec.two_way_fraction)
        forward = bool(rng.integers(0, 2))      # eastward or northward
        for a, b in zip(street, street[1:]):
            if both or forward:
                edges[(a, b)] = limit
            if both or not forward:
                edges[(b, a)] = limit

    if spec.roundabout:
        _insert_roundabout(spec, nodes, edges,
                           (spec.rows // 2) * spec.cols + spec.cols // 2)

    graph = RoadGraph(nodes)
    for (a, b) in sorted(edges):
        na, nb = nodes[a], nodes[b]
        graph.add_edge(a, b, vincenty_m(na.lat, na.lon, nb.lat, nb.lon))

    trajectories = []
    for t in range(n_trajectories):
        path = None
        for _ in range(100):
            a, b = (int(x) for x in rng.integers(0, len(nodes), 2))
            if a == b:
                continue
            path = graph.shortest_path(a, b)
            if path is not None and len(path) >= 3:
                break
            path = None
        if path is None:
            continue
        spacing = spacing_lo if spacing_hi == spacing_lo \
            else float(rng.uniform(spacing_lo, spacing_hi))
        trajectories.append(Trajectory(f"veh{t:03d}", cols=_drive(
            graph, edges, path, t * 10000.0, noise_sigma_m, spacing,
            heading_noise_deg, rng)))
    return graph, trajectories


def _insert_roundabout(spec: GridSpec, nodes: list, edges: dict,
                       center: int) -> None:
    """Replace the central intersection with a one-way circle of four
    nodes; streets that met the center attach to the near circle node."""
    radius_m = min(15.0, spec.block_m / 4.0)
    cn = nodes[center]
    dlat = radius_m / M_PER_DEG_LAT
    dlon = radius_m / (M_PER_DEG_LAT * math.cos(math.radians(cn.lat)))
    ring = {}
    for name, (la, lo) in {"n": (cn.lat + dlat, cn.lon),
                           "w": (cn.lat, wrap_lon(cn.lon - dlon)),
                           "s": (cn.lat - dlat, cn.lon),
                           "e": (cn.lat, wrap_lon(cn.lon + dlon))}.items():
        ring[name] = len(nodes)
        nodes.append(ClusterCentroid(la, lo, 0.0, support=1))
    ring_limit = SPEED_CLASSES_KMH[0]
    for a, b in (("n", "w"), ("w", "s"), ("s", "e"), ("e", "n")):
        edges[(ring[a], ring[b])] = ring_limit

    r0, c0 = center // spec.cols, center % spec.cols
    side_of = {(r0 + 1) * spec.cols + c0: "n",
               (r0 - 1) * spec.cols + c0: "s",
               r0 * spec.cols + c0 + 1: "e",
               r0 * spec.cols + c0 - 1: "w"}
    for (a, b) in [k for k in edges if center in k]:
        limit = edges.pop((a, b))
        if a == center and b in side_of:
            edges[(ring[side_of[b]], b)] = limit
        elif b == center and a in side_of:
            edges[(a, ring[side_of[a]])] = limit


def _drive(graph: RoadGraph, limits: dict, path: list, t0: float,
           sigma_m: float, spacing_m: float, heading_sigma_deg: float,
           rng) -> PointArrays:
    """Fixes every spacing_m along the node path, with position and
    heading noise; per-point speed is a draw under the street limit.
    Each fix draws its position noise, heading noise and speed in that
    order from the shared rng, so the draws cannot be batched without
    changing the drives a seed gives."""
    legs = []
    for a, b in zip(path, path[1:]):
        na, nb = graph.nodes[a], graph.nodes[b]
        L = vincenty_m(na.lat, na.lon, nb.lat, nb.lon)
        legs.append((na, nb, L, initial_bearing_deg(na.lat, na.lon,
                                                    nb.lat, nb.lon),
                     limits[(a, b)]))
    total = sum(leg[2] for leg in legs)
    marks = np.arange(0.0, total, spacing_m)
    marks = np.append(marks, total)

    n = marks.size
    cols = PointArrays(np.empty(n), np.empty(n), np.empty(n), np.empty(n),
                       np.empty(n))
    t = t0
    prev_mark = 0.0
    li, acc = 0, 0.0
    for k, mark in enumerate(marks.tolist()):
        while li < len(legs) - 1 and mark > acc + legs[li][2]:
            acc += legs[li][2]
            li += 1
        na, nb, L, bearing, limit = legs[li]
        f = min((mark - acc) / L, 1.0)
        lat = na.lat + f * (nb.lat - na.lat)
        lon = na.lon + f * lon_delta(na.lon, nb.lon)
        if sigma_m > 0:
            lat += rng.normal(0.0, sigma_m) / M_PER_DEG_LAT
            lon += rng.normal(0.0, sigma_m) / (
                M_PER_DEG_LAT * math.cos(math.radians(lat)))
        heading = (bearing + rng.normal(0.0, heading_sigma_deg)) % 360.0
        speed = limit * float(rng.uniform(0.7, 1.0))
        if k:
            t += (mark - prev_mark) / (speed / 3.6)
        cols.lat[k], cols.lon[k], cols.heading[k] = lat, wrap_lon(lon), heading
        cols.speed[k], cols.ts[k] = speed, t
        prev_mark = mark
    return cols
