"""Streaming road-map construction from consecutive GPS point pairs.

The offline pipeline's two phases (clustering, then sparsification)
collapse into a single pass here: each incoming pair is densified, every
densified point either joins the nearest node whose heading is within
the heading tolerance of its own (incremental running means) or starts
a new one, and edges are admitted through the spanner test at insertion
time. The heading comes first, as in the streaming variant of
Stanojevic et al. (arXiv 1702.06025): a node of the opposite lane,
however near, is never the one a point joins. Staleness marking and
periodic re-sparsification keep long-running maps current and sparse.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

from .clustering import ClusterCentroid
from .config import Checked, within
from .geo import (
    COINCIDENT_M,
    NULL_RESULTANT,
    GpsPoint,
    angle_diff_deg,
    initial_bearing_deg,
    lon_delta,
    normalize_heading,
    vincenty_m,
    wrap_lon,
)
from .graphs import MIN_EDGE_WEIGHT_M, RoadGraph, SpannerConfig, greedy_spanner
from .ingest import IngestConfig, between, pair_rule
from .spatial import GridIndex, bound_scales, scalar_margins

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class OnlineConfig(Checked):
    clustering_radius_cr: float = within("(0, inf)", 20.0)    # meters
    sampling_rate_sr: float = within("(0, inf]", 20.0)    # meters; inf: no densification
    heading_tolerance_ha: float = within("(0, 180]", 45.0)    # degrees
    alpha: float = within("(1, inf)", math.sqrt(2.0))
    staleness_horizon_s: float = within("(0, inf]", 7 * 86400.0)  # inf: never stale
    resparsify_interval: int = within("[1, inf)", 100000)     # pairs between sweeps


class StreamState:
    """Mutable state of one online map build.

    cfg is the one config of the build: every call on the state reads
    it, and consume_stream refuses a state built from another before it
    changes anything. graph's nodes are the map: the index, sized from
    cfg's clustering radius and heading tolerance, reads their positions
    and headings, and _hsum[node] sums cos + i*sin of the headings the
    node absorbed. Single writer: process_pair, mark_stale and
    resparsify must be serialized per state. Read-only snapshots between
    calls are safe.
    """

    def __init__(self, cfg: OnlineConfig):
        self.cfg = cfg
        self.graph = RoadGraph()
        self.prev_node: dict[str, int] = {}      # vehicle_id -> last node
        self.last_fix: dict[str, GpsPoint] = {}  # vehicle_id -> last kept fix
        self.rule: IngestConfig | None = None    # pair rule of the first feed
        self.pairs_processed = 0
        self._index = GridIndex(cfg.clustering_radius_cr, self.graph.nodes,
                                cfg.heading_tolerance_ha)
        self._hsum: list[complex] = []


def _densify_pair(x_i: GpsPoint, x_next: GpsPoint, sr: float):
    """Expand a pair into points spaced close to sr, endpoints included.

    Returns (points, bearing). The intermediate points come from
    ingest.between and carry the pair's bearing; the endpoints keep
    their measured headings, falling back to the bearing when a heading
    is missing. bearing is None only when the fixes coincide and neither
    carries a heading.

    Unlike ingest.densify, which feeds clustering, this feeds node
    steps: there is no angle gate (no inference pass has filled missing
    headings, and a gap left sparse would become one long edge); both
    endpoints are returned because each pair arrives alone and
    process_pair drops a first point already folded in; and the spacing
    is d/k with k = max(1, floor(d/sr)), at least sr once d reaches sr,
    where batch spacing d/(floor(d/sr)+1) stays at or below sr.

    The pair's length d is needed only through k and the test
    d > geo.COINCIDENT_M for a bearing of its own. The planar bounds
    L <= d <= U under spatial.bound_scales at x_i's latitude and a reach
    of 2 * sr settle both for most pairs (U >= d once L is within the
    reach, and L <= d once d is): U under the hit margin of 2 * sr gives
    k = 1, and L over the miss margin of COINCIDENT_M gives
    d > COINCIDENT_M. That margin's 1e-6 m floor puts it a thousand
    times over COINCIDENT_M, far beyond Vincenty's nanometre rounding
    and its short reading (up to 0.34%) of pairs under 2 mm. Vincenty
    runs on the other pairs. With sr = inf, L has no longitude term, so
    a pair less than a micrometre apart in latitude needs Vincenty.
    """
    reach = 2.0 * sr
    lat_lo, lon_lo, lat_hi, lon_hi = bound_scales(x_i.lat, reach)
    dlat, dlon = x_next.lat - x_i.lat, lon_delta(x_i.lon, x_next.lon)
    a, b = dlat * lat_lo, dlon * lon_lo
    l2 = a * a + b * b
    a, b = dlat * lat_hi, dlon * lon_hi
    if a * a + b * b < scalar_margins(reach)[0] and l2 > scalar_margins(COINCIDENT_M)[1]:
        moved, k = True, 1
    else:
        d = vincenty_m(x_i.lat, x_i.lon, x_next.lat, x_next.lon)
        moved, k = d > COINCIDENT_M, max(1, int(d // sr))
    if moved:
        bearing = initial_bearing_deg(x_i.lat, x_i.lon, x_next.lat, x_next.lon)
    elif x_i.heading_deg is not None:
        bearing = x_i.heading_deg
    else:
        bearing = x_next.heading_deg
    first = x_i if x_i.heading_deg is not None else replace(x_i, heading_deg=bearing)
    last = x_next if x_next.heading_deg is not None else replace(x_next, heading_deg=bearing)
    return [first, *between(x_i, x_next, k - 1, bearing), last], bearing


def _update_node(state: StreamState, item: int, p: GpsPoint) -> None:
    """Fold one assigned point into a node's running statistics; the
    mean longitude moves the short way round the antimeridian."""
    n = state.graph.nodes[item]
    k = n.support + 1
    n.lat += (p.lat - n.lat) / k
    n.lon = wrap_lon(n.lon + lon_delta(n.lon, p.lon) / k)
    r = math.radians(p.heading_deg)
    state._hsum[item] += complex(math.cos(r), math.sin(r))
    h = state._hsum[item]
    if abs(h.imag) > NULL_RESULTANT or abs(h.real) > NULL_RESULTANT:
        n.heading_deg = normalize_heading(math.degrees(math.atan2(h.imag, h.real)))
    n.support = k
    if p.speed_kmh is not None:
        n.max_speed_kmh = max(n.max_speed_kmh, p.speed_kmh)
    n.last_seen = max(n.last_seen, p.timestamp)
    n.active = True
    state._index.move(item)


def _assign_or_create(state: StreamState, p: GpsPoint) -> int:
    """Node id the point lands on: the nearest node within the
    clustering radius among those whose heading is within the heading
    tolerance of the point's, else a fresh node. A nearer node of
    another heading, such as the opposite lane's, is passed over."""
    item = state._index.nearest(p.lat, p.lon, p.heading_deg)
    if item >= 0:
        _update_node(state, item, p)
        return item
    node = ClusterCentroid(p.lat, p.lon, normalize_heading(p.heading_deg),
                           support=1,
                           max_speed_kmh=p.speed_kmh if p.speed_kmh is not None else 0.0,
                           last_seen=p.timestamp, active=True)
    nid = state.graph.add_node(node)
    state._index.insert(nid)
    r = math.radians(node.heading_deg)
    state._hsum.append(complex(math.cos(r), math.sin(r)))
    return nid


def _maybe_link(state: StreamState, u: int, v: int,
                bearing: float | None) -> None:
    """Record the transition u -> v: bump the edge when it exists,
    otherwise create it if the heading gates and spanner test allow."""
    nu, nv = state.graph.nodes[u], state.graph.nodes[v]
    e = state.graph._out.get(u, {}).get(v)
    if e is not None:
        e.traj_count += 1
        e.last_seen = max(e.last_seen, nv.last_seen)
        e.active = True
        return
    ha = state.cfg.heading_tolerance_ha
    if angle_diff_deg(nu.heading_deg, nv.heading_deg) > ha:
        return
    if bearing is not None and angle_diff_deg(nu.heading_deg, bearing) > ha:
        return
    w = max(vincenty_m(nu.lat, nu.lon, nv.lat, nv.lon), MIN_EDGE_WEIGHT_M)
    bound = state.cfg.alpha * w
    if state.graph.shortest_dist(u, v, cutoff=bound) <= bound:
        return
    state.graph.add_edge(u, v, w, traj_count=1, last_seen=nv.last_seen)


def process_pair(state: StreamState, x_i: GpsPoint,
                 x_next: GpsPoint) -> StreamState:
    """Consume one consecutive pair of fixes from a single vehicle,
    under the state's config.

    The pair is densified to the sampling rate; each densified point is
    assigned to a node or becomes one, and each node-to-node transition
    may add an edge. A vehicle seen for the first time contributes its
    nodes without a leading edge. The pair's first point is skipped when
    the vehicle already has an anchor node, because that fix was the
    previous pair's tail and is already folded in.
    """
    vid = x_i.vehicle_id
    pts, bearing = _densify_pair(x_i, x_next, state.cfg.sampling_rate_sr)
    start = 1 if vid in state.prev_node else 0
    for p in pts[start:]:
        if p.heading_deg is None:
            continue    # coincident headingless fixes: nothing to orient by
        v_star = _assign_or_create(state, p)
        u = state.prev_node.get(vid)
        if u is not None and u != v_star:
            _maybe_link(state, u, v_star, bearing)
        state.prev_node[vid] = v_star
    state.pairs_processed += 1
    return state


def mark_stale(state: StreamState, now: float) -> StreamState:
    """Deactivate nodes and edges not visited within the state's
    staleness horizon of now. They stay in the graph, and save_map and
    save_geojson write them flagged; routing (RoadGraph._search), the
    spanner and GEO/TOPO sampling skip inactive edges. A later traversal
    reactivates them.
    """
    cutoff = now - state.cfg.staleness_horizon_s
    nodes = edges = 0
    for n in state.graph.nodes:
        if n.active and n.last_seen < cutoff:
            n.active = False
            nodes += 1
    for e in state.graph.edges.values():
        if e.active and e.last_seen < cutoff:
            e.active = False
            edges += 1
    if nodes or edges:
        log.info("marked stale: %d nodes, %d edges", nodes, edges)
    return state


def resparsify(state: StreamState) -> StreamState:
    """Re-run the greedy spanner, at the state's alpha, over the active
    edges and delete the active edges it rejects. Inactive edges are
    kept for reactivation. A graph that is already a valid spanner
    passes through unchanged.
    """
    spanner = greedy_spanner(state.graph, SpannerConfig(alpha=state.cfg.alpha))
    drop = [e for e in state.graph.edges.values()
            if e.active and (e.src, e.dst) not in spanner.edges]
    for e in drop:
        state.graph.remove_edge(e.src, e.dst)
    if drop:
        log.info("resparsify removed %d of %d active edges",
                 len(drop), len(drop) + len(spanner.edges))
    return state


def consume_stream(points, cfg: OnlineConfig, state: StreamState | None = None,
                   gap_s: float = IngestConfig.new_trajectory_gap_s,
                   min_speed_kmh: float = IngestConfig.min_speed_kmh,
                   on_pair=None) -> StreamState:
    """Feed an arrival-ordered stream of fixes through process_pair,
    each vehicle's paired one fix at a time by ingest.pair_rule under
    gap_s and min_speed_kmh, checked as IngestConfig checks them: a
    stream in time order hands it the pairs the batch prepares. A fix
    older than its vehicle's previous fix came late and is dropped, as
    a stream cannot re-sort. The state keeps each vehicle's previous
    fix, so a stream fed in several calls on one state builds the map
    of one call: a state is refused, before any fix is recorded, unless
    it was built from cfg and first fed under this gap_s and
    min_speed_kmh. Resparsifies every cfg.resparsify_interval pairs;
    on_pair, when given, is called with the state after every pair."""
    rule = IngestConfig(min_speed_kmh=min_speed_kmh, new_trajectory_gap_s=gap_s)
    if state is None:
        state = StreamState(cfg)
    elif state.cfg != cfg:
        raise ValueError(f"{cfg!r} on a state built from {state.cfg!r}")
    if state.rule is not None and state.rule != rule:
        raise ValueError(f"{rule!r} on a state first fed under {state.rule!r}")
    state.rule = rule
    last = state.last_fix
    for p in points:
        q = last.get(p.vehicle_id)
        dt = math.nan if q is None else p.timestamp - q.timestamp
        if dt < 0:
            continue    # late: keep the anchor
        d = (vincenty_m(q.lat, q.lon, p.lat, p.lon)
             if q is not None and q.speed_kmh is None else math.nan)
        drop, split = pair_rule(dt, math.nan if p.speed_kmh is None else p.speed_kmh, d, rule)
        if drop:
            continue
        last[p.vehicle_id] = p
        if split or q is None:
            state.prev_node.pop(p.vehicle_id, None)    # no edge spans a split
            continue
        process_pair(state, q, p)
        if on_pair is not None:
            on_pair(state)
        if state.pairs_processed % cfg.resparsify_interval == 0:
            resparsify(state)
    return state
