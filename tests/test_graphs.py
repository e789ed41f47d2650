"""Graph construction tests: shortest-path queries, candidate edges,
spanner, duplexify, and the offline pipeline end to end.

An independent numpy Floyd-Warshall provides all-pairs distances to
check the spanner's stretch guarantee; networkx is the oracle for the
shortest-path queries.
"""
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

from kharita import spatial
from kharita.clustering import ClusterCentroid, ClusterConfig
from kharita.evaluate import GridSpec, generate_synthetic
from kharita.geo import GpsPoint
from kharita.graphs import (
    Edge,
    RoadGraph,
    SpannerConfig,
    candidate_edges_from_arrays,
    duplexify,
    greedy_spanner,
    run_offline_pipeline,
    spurious_edge_threshold,
)
from kharita.ingest import EmptyInputError, IngestConfig, prepare_trajectories

from conftest import trajectory_of


def node(lat=25.0, lon=51.0, heading=0.0, support=1, max_speed=40.0):
    return ClusterCentroid(lat, lon, heading, support, max_speed_kmh=max_speed)


def floyd_warshall(n, weights):
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for (u, v), w in weights.items():
        d[u, v] = min(d[u, v], w)
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


class TestRoadGraph:
    def test_add_and_query(self):
        g = RoadGraph([node(), node(lat=25.001)])
        g.add_edge(0, 1, 111.0, traj_count=3)
        assert (0, 1) in g.edges
        assert (1, 0) not in g.edges
        assert [e.dst for e in g._out[0].values()] == [1]

    def test_duplicate_edge_rejected(self):
        g = RoadGraph([node(), node(lat=25.001)])
        g.add_edge(0, 1, 100.0)
        with pytest.raises(KeyError):
            g.add_edge(0, 1, 100.0)

    def test_weight_floor(self):
        g = RoadGraph([node(), node()])
        e = g.add_edge(0, 1, 0.0)
        assert e.weight_m > 0.0

    def test_shortest_dist(self):
        g = RoadGraph([node() for _ in range(4)])
        g.add_edge(0, 1, 10.0)
        g.add_edge(1, 2, 10.0)
        g.add_edge(0, 2, 25.0)
        assert g.shortest_dist(0, 2) == pytest.approx(20.0)
        assert g.shortest_dist(2, 0) == math.inf
        assert g.shortest_dist(0, 0) == 0.0

    def test_shortest_dist_cutoff(self):
        g = RoadGraph([node() for _ in range(3)])
        g.add_edge(0, 1, 10.0)
        g.add_edge(1, 2, 10.0)
        assert g.shortest_dist(0, 2, cutoff=15.0) == math.inf
        assert g.shortest_dist(0, 2, cutoff=20.0) == pytest.approx(20.0)

    def test_shortest_dist_skips_inactive(self):
        g = RoadGraph([node() for _ in range(3)])
        g.add_edge(0, 1, 10.0)
        g.add_edge(1, 2, 10.0).active = False
        g.add_edge(0, 2, 50.0)
        assert g.shortest_dist(0, 2) == pytest.approx(50.0)


@st.composite
def edited_graphs(draw):
    """A small digraph with integer weights (exact sums), some inactive
    edges, some edges removed then added back and some removed for good.
    Returns the graph, each source's expected out-edge order and a
    reference dict of its edges kept beside the edits."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    specs = draw(st.lists(
        st.tuples(st.sampled_from(pairs), st.integers(1, 30), st.booleans()),
        max_size=3 * n, unique_by=lambda t: t[0]))
    g = RoadGraph([node() for _ in range(n)])
    order: dict[int, list[int]] = {}
    ref = {}
    for (u, v), w, active in specs:
        ref[(u, v)] = g.add_edge(u, v, float(w), active=active)
        order.setdefault(u, []).append(v)
    if specs:
        for i in draw(st.lists(st.integers(0, len(specs) - 1), max_size=4)):
            (u, v), _, _ = specs[i]
            e = g.edges[(u, v)]
            g.remove_edge(u, v)
            ref[(u, v)] = g.add_edge(u, v, e.weight_m, active=e.active)
            order[u].remove(v)
            order[u].append(v)
        for i in draw(st.lists(st.integers(0, len(specs) - 1), max_size=4,
                               unique=True)):
            (u, v), _, _ = specs[i]
            g.remove_edge(u, v)
            del ref[(u, v)]
            order[u].remove(v)
    return g, order, ref


class TestShortestPathProperties:
    @given(edited_graphs(), st.integers(0, 60), st.integers(1, 40))
    def test_queries_match_networkx(self, graph_and_order, cutoff, half_start):
        g, order, ref = graph_and_order
        n = len(g.nodes)
        for u in range(n):
            assert [e.dst for e in g._out.get(u, {}).values()] == order.get(u, [])
        # the edge view reads as the reference dict: removed and
        # never-added keys, and node n has no out-dict at all
        assert dict(g.edges.items()) == ref and len(g.edges) == len(ref)
        keys = list(g.edges)    # sources in the order of their first edge
        assert keys == [(u, v) for u, vs in order.items() for v in vs]
        assert list(map(id, g.edges.values())) == [id(ref[k]) for k in keys]
        assert [(e.src, e.dst) for e in g.sorted_edges()] == sorted(ref)
        for key in ((u, v) for u in range(n + 1) for v in range(n)):
            assert (key in g.edges) == (key in ref)
            assert g.edges.get(key) is ref.get(key)
            if key in ref:
                assert g.edges[key] is ref[key]
            else:
                with pytest.raises(KeyError):
                    g.edges[key]
        with pytest.raises(TypeError):
            g.edges[(0, 1)] = Edge(0, 1, 1.0)
        start = half_start / 2.0
        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        ref.add_weighted_edges_from(
            (e.src, e.dst, e.weight_m) for e in g.edges.values() if e.active)
        oracle = dict(nx.all_pairs_dijkstra_path_length(ref))
        for s in range(n):
            within = {v: start + d for v, d in oracle[s].items()
                      if start + d <= cutoff}
            assert g.dists_within(s, cutoff, start_cost=start) == within
            for t in range(n):
                d = oracle[s].get(t, math.inf)
                assert g.shortest_dist(s, t) == d
                assert g.shortest_dist(s, t, cutoff=cutoff) == \
                    (d if d <= cutoff else math.inf)
                path = g.shortest_path(s, t)
                if d == math.inf:
                    assert path is None
                    continue
                assert path[0] == s and path[-1] == t
                assert sum(ref[a][b]["weight"]
                           for a, b in zip(path, path[1:])) == d


class TestCandidateEdges:
    def test_spurious_threshold_values(self):
        assert spurious_edge_threshold(1, 1) == 1.0
        assert spurious_edge_threshold(7, 7) == 1.0        # ln(7)-1 < 1
        assert spurious_edge_threshold(1000, 1000) == pytest.approx(math.log(1000) - 1.0)
        assert spurious_edge_threshold(1000, 5) == 1.0     # min side rules

    def test_edges_counted_once_per_trajectory(self):
        cents = [node(), node(lat=25.001)]
        # one trajectory bounces 0 -> 1 -> 0 -> 1: edge (0,1) counts once
        assign = np.array([0, 1, 0, 1])
        ts = np.array([1.0, 2.0, 3.0, 4.0])
        g = candidate_edges_from_arrays(cents, assign, ts, [4])
        assert g.edges[(0, 1)].traj_count == 1
        assert g.edges[(1, 0)].traj_count == 1
        assert g.edges[(0, 1)].last_seen == 4.0   # latest traversal
        assert g.edges[(0, 1)].weight_m == pytest.approx(111.3, rel=0.01)

    def test_self_loops_never_appear(self):
        cents = [node(), node(lat=25.001)]
        assign = np.array([0, 0, 0, 1, 1])
        ts = np.arange(5.0)
        g = candidate_edges_from_arrays(cents, assign, ts, [5])
        assert list(g.edges) == [(0, 1)]

    def test_log_threshold_filters_rare_edges(self):
        # supports 1000/1000 demand ln(1000)-1 ~ 5.9 trajectories
        cents = [node(support=1000), node(lat=25.001, support=1000)]
        ts = np.array([1.0, 2.0])
        lengths = [2] * 6
        assign5 = np.tile([0, 1], 5)
        g5 = candidate_edges_from_arrays(cents, assign5, np.tile(ts, 5), lengths[:5])
        assert (0, 1) not in g5.edges
        assign6 = np.tile([0, 1], 6)
        g6 = candidate_edges_from_arrays(cents, assign6, np.tile(ts, 6), lengths)
        assert g6.edges[(0, 1)].traj_count == 6


def candidate_edges_loop(assign, ts, lengths):
    """Per-point reference: {(u, v): (trajectories, last seen)}."""
    counts, last, off = {}, {}, 0
    for n in lengths:
        seen = set()
        for i in range(off + 1, off + n):
            key = (int(assign[i - 1]), int(assign[i]))
            if key[0] == key[1]:
                continue
            if key not in seen:
                seen.add(key)
                counts[key] = counts.get(key, 0) + 1
            last[key] = max(last.get(key, -math.inf), float(ts[i]))
        off += n
    return {key: (counts[key], last[key]) for key in sorted(counts)}


class TestCandidateEdgesProperties:
    @given(st.lists(st.lists(st.tuples(st.integers(0, 3),
                                       st.integers(0, 20)), max_size=8),
                    max_size=6))
    def test_matches_per_point_loop(self, trajs):
        cents = [node(lat=25.0 + 0.001 * i) for i in range(4)]
        assign = np.array([a for t in trajs for a, _ in t], dtype=np.int64)
        ts = np.array([float(s) for t in trajs for _, s in t])
        lengths = [len(t) for t in trajs]
        g = candidate_edges_from_arrays(cents, assign, ts, lengths)
        # supports of 1 keep every candidate
        assert {k: (e.traj_count, e.last_seen) for k, e in g.edges.items()} \
            == candidate_edges_loop(assign, ts, lengths)
        assert list(g.edges) == sorted(g.edges)
        assert all(type(e.traj_count) is int and type(e.last_seen) is float
                   for e in g.edges.values())


class TestGreedySpanner:
    def test_stretch_bound_random_graphs(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            n = int(rng.integers(5, 40))
            g = RoadGraph([node() for _ in range(n)])
            weights = {}
            target = int(rng.integers(n, min(n * (n - 1), 200)))
            while len(weights) < target:
                u, v = (int(x) for x in rng.integers(0, n, 2))
                if u != v and (u, v) not in weights:
                    w = float(rng.uniform(10, 500))
                    weights[(u, v)] = w
                    g.add_edge(u, v, w)
            alpha = float(rng.choice([1.2, math.sqrt(2), 2.0]))
            h = greedy_spanner(g, SpannerConfig(alpha=alpha))
            dg = floyd_warshall(n, weights)
            dh = floyd_warshall(n, {k: e.weight_m for k, e in h.edges.items()})
            assert set(h.edges) <= set(weights)
            assert np.array_equal(np.isinf(dg), np.isinf(dh))
            finite = np.isfinite(dg)
            assert np.all(dh[finite] <= alpha * dg[finite] + 1e-6)
            assert np.all(dh[finite] >= dg[finite] - 1e-9)

    def test_triangle_long_edge_dropped(self):
        g = RoadGraph([node() for _ in range(3)])
        g.add_edge(0, 1, 100.0)
        g.add_edge(1, 2, 100.0)
        g.add_edge(0, 2, 150.0)   # 200 <= sqrt(2)*150 ~ 212: covered
        h = greedy_spanner(g, SpannerConfig())
        assert (0, 2) not in h.edges
        assert (0, 1) in h.edges and (1, 2) in h.edges

    def test_alpha_one_keeps_shortcuts(self):
        g = RoadGraph([node() for _ in range(3)])
        g.add_edge(0, 1, 100.0)
        g.add_edge(1, 2, 100.0)
        g.add_edge(0, 2, 150.0)   # 200 > 1.0*150: kept
        h = greedy_spanner(g, SpannerConfig(alpha=1.0))
        assert (0, 2) in h.edges

    def test_grid_chords_all_removed(self):
        side, n = 100.0, 4
        g = RoadGraph([node() for _ in range(n * n)])
        nid = lambda r, c: r * n + c
        for r in range(n):
            for c in range(n):
                if c + 1 < n:
                    g.add_edge(nid(r, c), nid(r, c + 1), side)
                    g.add_edge(nid(r, c + 1), nid(r, c), side)
                if r + 1 < n:
                    g.add_edge(nid(r, c), nid(r + 1, c), side)
                    g.add_edge(nid(r + 1, c), nid(r, c), side)
        chords = []
        for r in range(n - 1):
            for c in range(n - 1):
                chords.append((nid(r, c), nid(r + 1, c + 1)))
                g.add_edge(nid(r, c), nid(r + 1, c + 1), side * math.sqrt(2))
        h = greedy_spanner(g, SpannerConfig(alpha=math.sqrt(2)))
        assert all(ch not in h.edges for ch in chords)
        assert len(h.edges) == 2 * 2 * n * (n - 1)

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(3)
        g = RoadGraph([node() for _ in range(20)])
        seen = set()
        while len(seen) < 60:
            u, v = (int(x) for x in rng.integers(0, 20, 2))
            if u != v and (u, v) not in seen:
                seen.add((u, v))
                g.add_edge(u, v, float(rng.uniform(10, 300)))
        h1 = greedy_spanner(g, SpannerConfig())
        h2 = greedy_spanner(h1, SpannerConfig())
        assert set(h1.edges) == set(h2.edges)


class TestDuplexify:
    def test_slow_road_gets_reverse(self):
        g = RoadGraph([node(max_speed=40.0), node(lat=25.001, max_speed=55.0)])
        g.add_edge(0, 1, 111.0, traj_count=4, last_seen=99.0)
        duplexify(g, SpannerConfig())
        assert (1, 0) in g.edges
        rev = g.edges[(1, 0)]
        assert rev.weight_m == g.edges[(0, 1)].weight_m
        assert rev.traj_count == 0
        assert rev.last_seen == 99.0

    def test_fast_road_stays_one_way(self):
        g = RoadGraph([node(max_speed=40.0), node(lat=25.001, max_speed=80.0)])
        g.add_edge(0, 1, 111.0)
        duplexify(g, SpannerConfig())
        assert (1, 0) not in g.edges

    def test_existing_reverse_untouched(self):
        g = RoadGraph([node(), node(lat=25.001)])
        g.add_edge(0, 1, 111.0, traj_count=2)
        g.add_edge(1, 0, 111.0, traj_count=5)
        duplexify(g, SpannerConfig())
        assert g.edges[(1, 0)].traj_count == 5
        assert len(g.edges) == 2

    def test_boundary_speed_is_inclusive(self):
        g = RoadGraph([node(max_speed=60.0), node(lat=25.001, max_speed=60.0)])
        g.add_edge(0, 1, 111.0)
        duplexify(g, SpannerConfig())
        assert (1, 0) in g.edges


class TestOfflinePipeline:
    @staticmethod
    def straight_line(vehicle="v1", spacing=30.0, t0=0.0):
        pts = []
        for i, m in enumerate(np.arange(0.0, 1000.1, spacing)):
            pts.append(GpsPoint(vehicle, t0 + i * 3.0,
                                25.0 + m / 111319.49, 51.0, 36.0, 0.0))
        return trajectory_of(vehicle, pts)

    def test_straight_line_becomes_path(self):
        g = run_offline_pipeline([self.straight_line()], IngestConfig(),
                                 ClusterConfig(), SpannerConfig())
        n = len(g.nodes)
        assert 25 <= n <= 60
        fwd = [e for e in g.edges.values() if e.traj_count > 0]
        rev = [e for e in g.edges.values() if e.traj_count == 0]
        assert len(fwd) == n - 1          # one chain along the road
        assert len(rev) == n - 1          # slow road: duplexified back
        # undirected degree pattern of a simple path
        deg = {}
        for (u, v) in g.edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        hist = {}
        for d in deg.values():
            hist[d] = hist.get(d, 0) + 1
        assert hist == {4: n - 2, 2: 2}

    def test_builds_no_grid_index(self, monkeypatch):
        # every batch search runs on spatial._QueryCells; GridIndex is
        # the online index
        def refuse(self, cell_m):
            raise AssertionError("the offline pass built a GridIndex")

        monkeypatch.setattr(spatial.GridIndex, "__init__", refuse)
        _, drives = generate_synthetic(GridSpec(rows=3, cols=3),
                                       noise_sigma_m=3.0, n_trajectories=30,
                                       rng_seed=1)
        g = run_offline_pipeline(drives, IngestConfig(), ClusterConfig(),
                                 SpannerConfig())
        assert g.edges

    def test_identical_trajectories_double_counts(self):
        t1 = self.straight_line("a")
        t2 = self.straight_line("b")
        g1 = run_offline_pipeline([t1], IngestConfig(), ClusterConfig(), SpannerConfig())
        g2 = run_offline_pipeline([t1, t2], IngestConfig(), ClusterConfig(), SpannerConfig())
        assert len(g2.nodes) == len(g1.nodes)
        c1 = sorted(e.traj_count for e in g1.edges.values() if e.traj_count > 0)
        c2 = sorted(e.traj_count for e in g2.edges.values() if e.traj_count > 0)
        assert c2 == [2 * c for c in c1]

    def test_empty_after_filtering_raises(self):
        slow = trajectory_of("v", [GpsPoint("v", float(i), 25.0, 51.0, 2.0, 0.0)
                                   for i in range(5)])
        # an empty list too, as generate_synthetic gives for no drives
        assert prepare_trajectories([], IngestConfig()) == ([], 0)
        for trajectories in ([slow], []):
            with pytest.raises(EmptyInputError):
                run_offline_pipeline(trajectories, IngestConfig(), ClusterConfig(),
                                     SpannerConfig())

    def test_deterministic(self):
        trs = [self.straight_line("a"), self.straight_line("b", spacing=45.0)]
        g1 = run_offline_pipeline(trs, IngestConfig(), ClusterConfig(), SpannerConfig())
        g2 = run_offline_pipeline(trs, IngestConfig(), ClusterConfig(), SpannerConfig())
        assert [(n.lat, n.lon, n.heading_deg) for n in g1.nodes] == \
               [(n.lat, n.lon, n.heading_deg) for n in g2.nodes]
        assert {k: (e.weight_m, e.traj_count) for k, e in g1.edges.items()} == \
               {k: (e.weight_m, e.traj_count) for k, e in g2.edges.items()}
