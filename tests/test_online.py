"""Streaming construction tests: incremental assignment, online edge
admission, staleness, re-sparsification, and the stream driver."""
import inspect
import math
import re
import typing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kharita import online
from kharita.evaluate import GridSpec, generate_synthetic
from kharita.geo import (
    GpsPoint,
    M_PER_DEG_LAT,
    M_PER_DEG_LAT_MIN,
    initial_bearing_deg,
    vincenty_m,
    vincenty_m_many,
    wrap_lon,
)
from kharita.ingest import between, stream_points
from kharita.mapio import save_map, save_trajectories_csv
from kharita.online import (
    OnlineConfig,
    StreamState,
    _densify_pair,
    consume_stream,
    mark_stale,
    process_pair,
    resparsify,
)
from kharita.spatial import GridIndex

LAT0, LON0 = 25.0, 51.0
DEG_PER_M_LAT = 1.0 / M_PER_DEG_LAT


def pt(vehicle, ts, north_m, east_m=0.0, speed=30.0, heading=0.0):
    lon_scale = DEG_PER_M_LAT / math.cos(math.radians(LAT0))
    return GpsPoint(vehicle, ts, LAT0 + north_m * DEG_PER_M_LAT,
                    LON0 + east_m * lon_scale, speed, heading)


def line_points(vehicle, spacing, count, t0=0.0, dt=3.0):
    return [pt(vehicle, t0 + i * dt, i * spacing) for i in range(count)]


def feed_pairs(state, points):
    for a, b in zip(points, points[1:]):
        process_pair(state, a, b)
    return state


class TestConfig:
    def test_defaults_valid(self):
        OnlineConfig()

    def test_only_the_state_and_the_stream_driver_take_a_config(self):
        # a build has one config, kept by its state: every other call
        # reads it there, so no call can pass a second one
        def takes_config(f):
            params = inspect.signature(f, eval_str=True).parameters.values()
            return any(p.name == "cfg" or p.annotation is OnlineConfig
                       or OnlineConfig in typing.get_args(p.annotation)
                       for p in params)

        functions = {}
        for name, obj in vars(online).items():
            if getattr(obj, "__module__", None) != online.__name__:
                continue
            if inspect.isfunction(obj):
                functions[name] = obj
            elif inspect.isclass(obj):
                functions.update((f"{name}.{k}", v)
                                 for k, v in vars(obj).items()
                                 if inspect.isfunction(v))
        assert {"process_pair", "resparsify", "mark_stale", "_maybe_link",
                "StreamState.__init__"} <= functions.keys()
        assert {name for name, f in functions.items() if takes_config(f)} \
            == {"consume_stream", "StreamState.__init__"}

    def test_bad_values_rejected(self):
        for kw in ({"clustering_radius_cr": 0.0}, {"sampling_rate_sr": -1.0},
                   {"heading_tolerance_ha": 0.0}, {"heading_tolerance_ha": 181.0},
                   {"alpha": 1.0}, {"staleness_horizon_s": 0.0},
                   {"resparsify_interval": 0}):
            with pytest.raises(ValueError):
                OnlineConfig(**kw)


class TestProcessPair:
    def test_first_trajectory_all_points_become_nodes(self):
        # 25 m fixes: each densified point clears the 20 m radius
        cfg = OnlineConfig()
        state = feed_pairs(StreamState(cfg), line_points("v", 25.0, 8))
        assert len(state.graph.nodes) == 8
        assert set(state.graph.edges) == {(i, i + 1) for i in range(7)}
        assert all(n.support == 1 for n in state.graph.nodes)

    def test_second_identical_trajectory_adds_nothing(self):
        cfg = OnlineConfig()
        state = feed_pairs(StreamState(cfg), line_points("v1", 25.0, 8))
        nodes, edges = len(state.graph.nodes), set(state.graph.edges)
        feed_pairs(state, line_points("v2", 25.0, 8, t0=100.0))
        assert len(state.graph.nodes) == nodes
        assert set(state.graph.edges) == edges
        assert all(n.support == 2 for n in state.graph.nodes)
        assert all(e.traj_count == 2 for e in state.graph.edges.values())

    def test_close_point_with_crossing_heading_makes_new_node(self):
        cfg = OnlineConfig()
        state = StreamState(cfg)
        process_pair(state, pt("v", 0.0, 0.0), pt("v", 3.0, 10.0, heading=90.0))
        assert len(state.graph.nodes) == 2      # 10 m away but 90 deg off
        assert state.graph.edges == {}          # edge gates fail too

    def test_assignment_drags_node_to_running_mean(self):
        cfg = OnlineConfig()
        state = StreamState(cfg)
        a, b = pt("v", 0.0, 0.0, speed=30.0), pt("v", 3.0, 12.0, speed=50.0)
        process_pair(state, a, b)
        assert len(state.graph.nodes) == 1
        n = state.graph.nodes[0]
        assert n.support == 2
        assert n.lat == pytest.approx((a.lat + b.lat) / 2)
        assert n.max_speed_kmh == 50.0
        assert n.last_seen == 3.0

    def test_long_pair_densified_to_sampling_rate(self):
        cfg = OnlineConfig()
        state = StreamState(cfg)
        # 100 m hop densifies to ~20 m steps; alternate steps get
        # absorbed by the previous node, leaving nodes every ~2 sr
        process_pair(state, pt("v", 0.0, 0.0), pt("v", 10.0, 100.0))
        assert 3 <= len(state.graph.nodes) <= 6
        ordered = sorted(state.graph.nodes, key=lambda n: n.lat)
        for u, v in zip(ordered, ordered[1:]):
            gap = vincenty_m(u.lat, u.lon, v.lat, v.lon)
            assert cfg.sampling_rate_sr <= gap < 2 * cfg.sampling_rate_sr

    def test_unknown_vehicle_never_links_backward(self):
        cfg = OnlineConfig()
        state = feed_pairs(StreamState(cfg), line_points("v1", 25.0, 4))
        edges = set(state.graph.edges)
        # v2 starts 50 km away: first pair must not connect to v1's chain
        far = [pt("v2", 0.0, 50000.0), pt("v2", 3.0, 50025.0)]
        process_pair(state, far[0], far[1])
        assert set(state.graph.edges) - edges == {(4, 5)}
        assert state.prev_node["v2"] == 5

    def test_perpendicular_travel_direction_blocks_edge(self):
        cfg = OnlineConfig()
        state = StreamState(cfg)
        # both fixes head north but the hop moves east: bearing gate fails
        process_pair(state, pt("v", 0.0, 0.0, 0.0), pt("v", 3.0, 0.0, 30.0))
        assert len(state.graph.nodes) == 2
        assert state.graph.edges == {}

    def test_covered_shortcut_not_added(self):
        cfg = OnlineConfig()
        state = feed_pairs(StreamState(cfg), line_points("v1", 25.0, 3))
        assert set(state.graph.edges) == {(0, 1), (1, 2)}
        # a vehicle anchored at node 0 lands on node 2: the direct edge
        # is covered by the existing path (50 <= alpha*50), so rejected
        state.prev_node["z"] = 0
        process_pair(state, pt("z", 50.0, 25.0), pt("z", 53.0, 50.0))
        assert len(state.graph.nodes) == 3
        assert set(state.graph.edges) == {(0, 1), (1, 2)}
        assert state.prev_node["z"] == 2

    def test_disconnected_jump_adds_edges(self):
        cfg = OnlineConfig()
        state = StreamState(cfg)
        feed_pairs(state, line_points("a", 25.0, 2))
        feed_pairs(state, [pt("b", 0.0, 200.0), pt("b", 3.0, 225.0)])
        assert state.graph.shortest_dist(0, 3) == math.inf
        # one long hop from a's chain to b's: densified points stitch it
        process_pair(state, pt("c", 10.0, 25.0), pt("c", 30.0, 200.0))
        assert state.graph.shortest_dist(0, 3) < math.inf

    def test_replay_never_rechecks_first_point(self):
        cfg = OnlineConfig()
        state = StreamState(cfg)
        points = line_points("v", 25.0, 5)
        feed_pairs(state, points)
        # interior fixes appear in two pairs but count once
        assert all(n.support == 1 for n in state.graph.nodes)
        assert state.pairs_processed == 4


class TestInsertionInvariant:
    def test_no_edge_was_alpha_covered_at_insertion(self):
        # every surviving edge must lack an alpha-cover among edges
        # born in earlier pairs (fewer edges, so distance only larger)
        cfg = OnlineConfig()
        rng = np.random.default_rng(11)
        state = StreamState(cfg)
        birth = {}
        streams = []
        for v in range(4):
            n, heading = 30, 0.0
            north = float(rng.uniform(0, 200))
            east = float(rng.uniform(0, 200))
            pts = []
            for i in range(n):
                step = float(rng.uniform(15, 60))
                heading = (heading + float(rng.uniform(-20, 20))) % 360.0
                north += step * math.cos(math.radians(heading))
                east += step * math.sin(math.radians(heading))
                pts.append(pt(f"v{v}", i * 3.0, north, east, heading=heading))
            streams.append(pts)
        pair_no = 0
        for pts in streams:
            for a, b in zip(pts, pts[1:]):
                before = set(state.graph.edges)
                process_pair(state, a, b)
                pair_no += 1
                for key in set(state.graph.edges) - before:
                    birth[key] = pair_no
        for (u, v), e in state.graph.edges.items():
            later = [k for k, p in birth.items() if p >= birth[(u, v)]]
            was = {k: state.graph.edges[k].active for k in later}
            for k in later:
                state.graph.edges[k].active = False
            bound = cfg.alpha * e.weight_m
            assert state.graph.shortest_dist(u, v, cutoff=bound) > bound
            for k, flag in was.items():
                state.graph.edges[k].active = flag


class TestMarkStale:
    def test_fresh_graph_untouched(self):
        cfg = OnlineConfig()
        state = feed_pairs(StreamState(cfg), line_points("v", 25.0, 4))
        mark_stale(state, now=9.0)
        assert all(n.active for n in state.graph.nodes)
        assert all(e.active for e in state.graph.edges.values())

    def test_old_edge_inactive_fresh_endpoints_active(self):
        cfg = OnlineConfig()
        state = feed_pairs(StreamState(cfg), line_points("v", 25.0, 3))
        eight_days = 8 * 86400.0
        state.graph.edges[(0, 1)].last_seen = 0.0      # one cold edge
        state.graph.edges[(1, 2)].last_seen = eight_days
        for n in state.graph.nodes:
            n.last_seen = eight_days
        mark_stale(state, now=eight_days + 60.0)
        assert not state.graph.edges[(0, 1)].active
        assert state.graph.edges[(1, 2)].active
        assert all(n.active for n in state.graph.nodes)

    def test_stale_elements_excluded_from_routing(self):
        cfg = OnlineConfig()
        state = feed_pairs(StreamState(cfg), line_points("v", 25.0, 3))
        mark_stale(state, now=1e9)
        assert all(not e.active for e in state.graph.edges.values())
        assert state.graph.shortest_dist(0, 2) == math.inf

    def test_new_traversal_reactivates(self):
        cfg = OnlineConfig()
        pts = line_points("v", 25.0, 4)
        state = feed_pairs(StreamState(cfg), pts)
        mark_stale(state, now=1e9)
        replay = line_points("w", 25.0, 4, t0=1e9)
        feed_pairs(state, replay)
        assert all(n.active for n in state.graph.nodes)
        assert all(e.active for e in state.graph.edges.values())
        assert state.graph.shortest_dist(0, 3) < math.inf


class TestResparsify:
    def test_valid_spanner_is_fixed_point(self):
        cfg = OnlineConfig()
        state = feed_pairs(StreamState(cfg), line_points("v", 25.0, 6))
        edges = dict(state.graph.edges)
        resparsify(state)
        assert state.graph.edges == edges

    def test_redundant_chord_removed(self):
        cfg = OnlineConfig()
        state = feed_pairs(StreamState(cfg), line_points("v", 25.0, 4))
        state.graph.add_edge(0, 3, 75.0, traj_count=1)   # covered: path is 75
        resparsify(state)
        assert (0, 3) not in state.graph.edges
        assert set(state.graph.edges) == {(0, 1), (1, 2), (2, 3)}

    def test_inactive_edges_survive(self):
        cfg = OnlineConfig()
        state = feed_pairs(StreamState(cfg), line_points("v", 25.0, 4))
        chord = state.graph.add_edge(0, 3, 75.0)
        chord.active = False
        resparsify(state)
        assert (0, 3) in state.graph.edges
        resparsify(state)                      # fixed point again
        assert (0, 3) in state.graph.edges
        assert set(state.graph.edges) == {(0, 1), (1, 2), (2, 3), (0, 3)}


class TestConsumeStream:
    def test_time_gap_splits_vehicle(self):
        cfg = OnlineConfig()
        part1 = line_points("v", 25.0, 3)
        part2 = [pt("v", 5000.0 + i * 3.0, 5000.0 + i * 25.0) for i in range(3)]
        state = consume_stream(part1 + part2, cfg)
        assert len(state.graph.nodes) == 6
        assert len(state.graph.edges) == 4    # two disjoint chains
        assert state.graph.shortest_dist(2, 3) == math.inf

    def test_slow_fixes_dropped(self):
        cfg = OnlineConfig()
        moving = line_points("v", 25.0, 3)
        idle = [pt("w", float(i), 500.0, speed=2.0) for i in range(10)]
        state = consume_stream(moving + idle, cfg)
        assert len(state.graph.nodes) == 3

    def test_unknown_speed_pairs_gated_by_implied_speed(self):
        cfg = OnlineConfig()
        creeping = [pt("v", i * 100.0, i * 1.0, speed=None) for i in range(5)]
        state = consume_stream(creeping, cfg)             # 0.036 km/h
        assert len(state.graph.nodes) == 0
        driving = [pt("w", i * 3.0, i * 25.0, speed=None) for i in range(4)]
        state = consume_stream(driving, cfg)              # 30 km/h
        assert len(state.graph.nodes) == 4

    def test_periodic_resparsify_runs(self):
        cfg = OnlineConfig(resparsify_interval=1)
        pts = line_points("v", 25.0, 4)
        state = consume_stream(pts, cfg)
        state.graph.add_edge(0, 3, 75.0)
        consume_stream([pt("v", 100.0, 75.0), pt("v", 103.0, 100.0)], cfg,
                       state=state)
        assert (0, 3) not in state.graph.edges

    # vehicle v drives 60 fixes and, a day later and 1.1 km on, 30 more;
    # w drives alongside its first drive. The splits cut a drive, fall
    # in the gap (100) or leave one call empty
    @pytest.mark.parametrize("split", [0, 1, 30, 61, 100, 115, 130])
    def test_resumed_stream_builds_the_map_of_one_call(self, split, tmp_path):
        cfg = OnlineConfig()
        later = [pt("v", 86400.0 + i * 3.0, 2575.0 + i * 25.0)
                 for i in range(30)]
        pts = sorted(line_points("v", 25.0, 60)
                     + line_points("w", 20.0, 40, t0=1.0),
                     key=lambda p: p.timestamp) + later
        whole, resumed = tmp_path / "whole.edges", tmp_path / "resumed.edges"
        save_map(consume_stream(pts, cfg).graph, str(whole))
        state = consume_stream(pts[:split], cfg)
        save_map(consume_stream(pts[split:], cfg, state=state).graph,
                 str(resumed))
        assert resumed.read_bytes() == whole.read_bytes()

    # a state built with defaults, fed under a config that differs in
    # one field; the int radius 20 equals the state's 20.0 m and runs
    @pytest.mark.parametrize("name, value, refused", [
        ("clustering_radius_cr", 40.0, True),
        ("heading_tolerance_ha", 90.0, True),
        ("sampling_rate_sr", 5.0, True), ("alpha", 2.0, True),
        ("clustering_radius_cr", 20, False)],
        ids=["cr", "ha", "sr", "alpha", "cr-int"])
    def test_refused_config_leaves_the_state_alone(self, name, value, refused,
                                                   tmp_path):
        # the refusal comes before the first fix is recorded, so a retry
        # with the state's own config builds the map of a fresh state
        pts = line_points("v", 30.0, 6, dt=1.0)
        fresh, retried = tmp_path / "fresh.edges", tmp_path / "retried.edges"
        save_map(consume_stream(pts, OnlineConfig()).graph, str(fresh))
        state = StreamState(OnlineConfig())
        other = OnlineConfig(**{name: value})
        if not refused:
            graph = consume_stream(pts, other, state=state).graph
        else:
            with pytest.raises(ValueError, match=re.escape(
                    f"{name}={value!r}") + ".* on a state built from "
                    + re.escape(repr(state.cfg))):
                consume_stream(pts, other, state=state)
            assert not state.last_fix and not state.prev_node
            assert not state.graph.nodes and not state.graph.edges
            graph = consume_stream(pts, OnlineConfig(), state=state).graph
        assert (len(graph.nodes), len(graph.edges)) == (6, 5)
        save_map(graph, str(retried))
        assert retried.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("recorded", [True, False])
    def test_late_fix_is_dropped(self, recorded, tmp_path):
        # a northbound drive with fix 20 delivered after fix 24, with and
        # without recorded speeds and headings
        drive = [pt("v", i * 3.0, i * 25.0, speed=30.0 if recorded else None,
                    heading=0.0 if recorded else None) for i in range(40)]
        late = drive[:20] + drive[21:25] + [drive[20]] + drive[25:]
        graph = consume_stream(late, OnlineConfig()).graph
        assert all(graph.nodes[v].lat > graph.nodes[u].lat
                   for (u, v) in graph.edges)
        with_late, without = tmp_path / "late.edges", tmp_path / "without.edges"
        save_map(graph, str(with_late))
        save_map(consume_stream(drive[:20] + drive[21:], OnlineConfig()).graph,
                 str(without))
        assert with_late.read_bytes() == without.read_bytes()

    def test_replay_is_deterministic(self):
        cfg = OnlineConfig()
        rng = np.random.default_rng(5)
        pts = []
        for v in range(3):
            heading, north, east = 0.0, float(rng.uniform(0, 100)), 0.0
            for i in range(25):
                heading = (heading + float(rng.uniform(-15, 15))) % 360.0
                north += 25 * math.cos(math.radians(heading))
                east += 25 * math.sin(math.radians(heading))
                pts.append(pt(f"v{v}", i * 3.0, north, east, heading=heading))
        pts.sort(key=lambda p: (p.timestamp, p.vehicle_id))
        s1 = consume_stream(pts, cfg)
        s2 = consume_stream(pts, cfg)
        assert [(n.lat, n.lon, n.heading_deg, n.support) for n in s1.graph.nodes] \
            == [(n.lat, n.lon, n.heading_deg, n.support) for n in s2.graph.nodes]
        assert {k: e.weight_m for k, e in s1.graph.edges.items()} \
            == {k: e.weight_m for k, e in s2.graph.edges.items()}


class TestNodeSpacing:
    def test_straight_line_path_spacing(self):
        cfg = OnlineConfig()
        pts = line_points("v", 20.0, 51)    # 1 km at the sampling rate
        state = consume_stream(pts, cfg)
        g = state.graph
        ordered = sorted(range(len(g.nodes)), key=lambda i: g.nodes[i].lat)
        for a, b in zip(ordered, ordered[1:]):
            gap = vincenty_m(g.nodes[a].lat, g.nodes[a].lon,
                             g.nodes[b].lat, g.nodes[b].lon)
            assert cfg.sampling_rate_sr <= gap < 2 * cfg.sampling_rate_sr
        # simple directed path: one component, degree caps
        out_deg, in_deg = {}, {}
        for (u, v) in g.edges:
            out_deg[u] = out_deg.get(u, 0) + 1
            in_deg[v] = in_deg.get(v, 0) + 1
        assert all(d == 1 for d in out_deg.values())
        assert all(d == 1 for d in in_deg.values())
        assert len(g.edges) == len(g.nodes) - 1


class TestAntimeridian:
    def test_drive_east_across_180(self):
        # the pair across the seam is densified with a midpoint near
        # 179.99998; the second vehicle, 4 m east, puts its midpoint near
        # -179.99998, onto the same node
        cfg = OnlineConfig()
        lons = [179.99903, 179.99938, 179.99973, -179.99977, -179.99942,
                -179.99907]
        pts = []
        for v, shift in (("a", 0.0), ("b", 0.00004)):
            for i, lon in enumerate(lons):
                lon = lon + shift
                if lon >= 180.0:
                    lon -= 360.0
                pts.append(GpsPoint(v, 100.0 * (v == "b") + 3.0 * i, 10.0,
                                    lon, 30.0, 90.0))
        state = consume_stream(pts, cfg)
        g = state.graph
        assert len(g.nodes) >= len(lons)
        assert any(n.support > 1 for n in g.nodes)
        for n in g.nodes:
            assert 180.0 - abs(n.lon) <= 1e-3 and -180.0 <= n.lon < 180.0
        assert g.edges
        for e in g.edges.values():
            assert e.weight_m <= 2 * cfg.sampling_rate_sr


def _exact_densify_pair(x_i, x_next, sr):
    """The rule of online._densify_pair with the pair's exact length d:
    a bearing of its own when d > 1e-9, and k = max(1, floor(d / sr))."""
    d = vincenty_m(x_i.lat, x_i.lon, x_next.lat, x_next.lon)
    if d > 1e-9:
        bearing = initial_bearing_deg(x_i.lat, x_i.lon, x_next.lat, x_next.lon)
    elif x_i.heading_deg is not None:
        bearing = x_i.heading_deg
    else:
        bearing = x_next.heading_deg
    first = x_i if x_i.heading_deg is not None else replace(x_i, heading_deg=bearing)
    last = x_next if x_next.heading_deg is not None else replace(x_next, heading_deg=bearing)
    k = max(1, int(d // sr))
    return [first, *between(x_i, x_next, k - 1, bearing), last], bearing


def _exact_nearest(index, lat, lon, radius_m):
    """GridIndex.nearest by Vincenty on every item: the nearest within
    radius_m, ties to the lowest item, or -1. Two coarse cuts spare the
    scalar Vincenty only the items that are surely beyond the radius: a
    degree of latitude is at least M_PER_DEG_LAT_MIN long, and the batch
    Vincenty agrees with the scalar one to a nanometre."""
    if not index._records:
        return -1
    items = np.arange(len(index._records))
    plat, plon = np.array([(r.lat, r.lon) for r in index._records]).T
    near = np.abs(plat - lat) * M_PER_DEG_LAT_MIN <= 2.0 * radius_m
    items, plat, plon = items[near], plat[near], plon[near]
    d = vincenty_m_many(np.full(plat.size, lat), np.full(plat.size, lon),
                        plat, plon)
    best = (math.inf, -1)
    for j in np.flatnonzero(d <= radius_m * (1.0 + 1e-6) + 1e-6).tolist():
        dj = vincenty_m(lat, lon, plat[j], plon[j])
        if dj <= radius_m and (dj, int(items[j])) < best:
            best = (dj, int(items[j]))
    return best[1]


class TestExactReference:
    """Online maps against a reference that decides every assignment
    and every densify count with exact distances."""

    @pytest.mark.parametrize("origin_lon, changes", [
        (51.0, {}),
        (51.0, {"sampling_rate_sr": math.inf}),
        (179.998, {}),
        (51.0, {"clustering_radius_cr": 1e-3}),
    ], ids=["ac05", "sr-inf", "seam", "cr-1mm"])
    def test_map_bytes_match(self, origin_lon, changes, tmp_path,
                             monkeypatch):
        # the AC-05 city; spacings of 20-170 m put points between fixes
        _, trajectories = generate_synthetic(
            GridSpec(rows=5, cols=5, block_m=100.0, origin_lon=origin_lon),
            noise_sigma_m=5.0, n_trajectories=200,
            sampling_spacing_m=(20.0, 170.0), rng_seed=7)
        csv = str(tmp_path / "city.csv")
        save_trajectories_csv(trajectories, csv)
        cfg = replace(OnlineConfig(), **changes)
        maps = []
        for exact in (False, True):
            if exact:
                monkeypatch.setattr(GridIndex, "nearest", _exact_nearest)
                monkeypatch.setattr(online, "_densify_pair",
                                    _exact_densify_pair)
            graph = consume_stream(stream_points(csv), cfg).graph
            assert graph.edges
            path = tmp_path / f"{exact}.edges"
            save_map(graph, str(path))
            maps.append(path.read_bytes())
        assert maps[0] == maps[1]


def _offset_point(p, meters, bearing_deg):
    """A point about meters from p along bearing_deg, scaled so that
    Vincenty puts it at meters to within about 1e-9 relative."""
    lat_scale = M_PER_DEG_LAT
    lon_scale = M_PER_DEG_LAT * math.cos(math.radians(p.lat))
    b = math.radians(bearing_deg)
    north, east = math.cos(b), math.sin(b)
    for _ in range(3):
        lat = p.lat + meters * north / lat_scale
        lon = wrap_lon(p.lon + meters * east / lon_scale)
        d = vincenty_m(p.lat, p.lon, lat, lon)
        if d == 0.0:
            break
        north, east = north * meters / d, east * meters / d
    return lat, lon


_heading = st.one_of(st.none(), st.floats(0.0, 359.9))


@st.composite
def _pairs(draw):
    lat = draw(st.one_of(st.floats(-80.0, 80.0),
                         st.sampled_from([0.0, 25.0, -33.9, 65.1])))
    lon = draw(st.one_of(st.floats(-180.0, 179.999),
                         st.sampled_from([179.99999, -180.0, -179.99999])))
    sr = draw(st.sampled_from([20.0, 7.5, 0.01, math.inf]))
    p = GpsPoint("v", 0.0, lat, lon, 30.0, draw(_heading))
    kind = draw(st.sampled_from(["sr", "2sr", "any", "tiny", "ulps"]))
    if kind == "ulps":
        # a few units in the last place: Vincenty rounds to nanometres
        qlat = lat + draw(st.integers(-8, 8)) * math.ulp(lat or 1.0)
        qlon = wrap_lon(lon + draw(st.integers(-8, 8)) * math.ulp(lon))
    else:
        rel = draw(st.floats(-1e-6, 1e-6))
        base = {"sr": sr, "2sr": 2.0 * sr,
                "any": draw(st.floats(0.0, 5.0)) * min(sr, 50.0),
                "tiny": draw(st.floats(0.0, 1e-8))}[kind]
        if not math.isfinite(base):
            base = draw(st.floats(0.0, 500.0))
        # east and west across the antimeridian when lon is at it
        bearing = draw(st.one_of(st.floats(0.0, 360.0),
                                 st.sampled_from([90.0, 270.0, 0.0])))
        qlat, qlon = _offset_point(p, base * (1.0 + rel), bearing)
    q = GpsPoint("v", 10.0, qlat, qlon, 30.0, draw(_heading))
    return p, q, sr


@settings(max_examples=600)
@given(pair=_pairs())
def test_densify_pair_matches_the_exact_rule(pair):
    p, q, sr = pair
    assert _densify_pair(p, q, sr) == _exact_densify_pair(p, q, sr)


def test_densify_pair_measures_only_the_pairs_the_bounds_leave_open(
        monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return vincenty_m(*args)

    monkeypatch.setattr(online, "vincenty_m", counted)
    a = pt("v", 0.0, 0.0)
    # under 2 sr by U and over a micrometre by L: k = 1 unmeasured
    assert _densify_pair(a, pt("v", 1.0, 10.0, 25.0), 20.0) == \
        _exact_densify_pair(a, pt("v", 1.0, 10.0, 25.0), 20.0)
    assert _densify_pair(a, pt("v", 1.0, 12.0), math.inf)[0][1:] == \
        [pt("v", 1.0, 12.0)]
    assert calls == []
    # long, coincident, or east-west under sr = inf: measured
    for b, sr in ((pt("v", 1.0, 50.0), 20.0), (pt("v", 1.0, 0.0), 20.0),
                  (pt("v", 1.0, 0.0, 12.0), math.inf)):
        calls.clear()
        assert _densify_pair(a, b, sr) == _exact_densify_pair(a, b, sr)
        assert len(calls) == 1
