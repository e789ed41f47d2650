"""Scoring protocol tests against hand-computable instances, plus the
synthetic generator's structural guarantees."""
import math

import numpy as np
import pytest

from kharita.clustering import ClusterCentroid
from kharita.evaluate import (
    EvalConfig,
    GridSpec,
    _owned,
    _sample_edges,
    generate_synthetic,
    geo_score,
    prune_unvisited_edges,
    topo_score,
)
from kharita.geo import (
    GpsPoint,
    M_PER_DEG_LAT,
    initial_bearing_deg,
    lon_delta,
    vincenty_m,
    wrap_lon_many,
)
from kharita.graphs import RoadGraph

from conftest import trajectory_of

LAT0, LON0 = 25.0, 51.0


def offset_deg(north_m, east_m):
    return (north_m / M_PER_DEG_LAT,
            east_m / (M_PER_DEG_LAT * math.cos(math.radians(LAT0))))


def street(points_m, shift_east_m=0.0):
    """One-way straight road through the given (north, east) meter marks."""
    g = RoadGraph()
    for n_m, e_m in points_m:
        dlat, dlon = offset_deg(n_m, e_m + shift_east_m)
        g.add_node(ClusterCentroid(LAT0 + dlat, LON0 + dlon, 0.0, 1))
    for i in range(len(points_m) - 1):
        a, b = g.nodes[i], g.nodes[i + 1]
        from kharita.geo import vincenty_m
        g.add_edge(i, i + 1, vincenty_m(a.lat, a.lon, b.lat, b.lon))
    return g


def trace_edges(graph, spacing=10.0):
    """One synthetic drive along every active edge, for pruning."""
    from kharita.geo import vincenty_m
    out = []
    for j, (u, v) in enumerate(sorted(graph.edges)):
        if not graph.edges[(u, v)].active:
            continue
        nu, nv = graph.nodes[u], graph.nodes[v]
        L = vincenty_m(nu.lat, nu.lon, nv.lat, nv.lon)
        pts = []
        k = max(2, int(L // spacing) + 1)
        for s in range(k):
            f = s / (k - 1)
            pts.append(GpsPoint(f"t{j}", s * 2.0,
                                nu.lat + f * (nv.lat - nu.lat),
                                nu.lon + f * (nv.lon - nu.lon), 30.0, 0.0))
        out.append(trajectory_of(f"t{j}", pts))
    return out


class TestConfig:
    def test_defaults_valid(self):
        EvalConfig()

    def test_bad_values_rejected(self):
        for kw in ({"sample_spacing_m": 0.0}, {"matching_thresholds_m": ()},
                   {"matching_thresholds_m": (5.0, -1.0)},
                   {"topo_radius_m": 0.0}, {"topo_samples": 0},
                   {"start_match_distance_m": 0.0},
                   {"start_angle_tolerance_deg": 0.0},
                   {"visit_distance_m": -5.0},
                   {"rng_seed": -1}):
            with pytest.raises(ValueError):
                EvalConfig(**kw)


class TestGeoScore:
    def test_identical_maps_score_one(self):
        g = street([(0, 0), (200, 0), (400, 0)])
        rep = geo_score(g, g, EvalConfig())
        assert rep.precision == [1.0] * 6
        assert rep.recall == [1.0] * 6
        assert rep.f_score == [1.0] * 6

    def test_lateral_shift_fails_tight_passes_loose(self):
        truth = street([(0, 0), (400, 0)])
        shifted = street([(0, 0), (400, 0)], shift_east_m=12.0)
        rep = geo_score(shifted, truth, EvalConfig())
        assert rep.f_at(5.0) == 0.0
        assert rep.f_at(10.0) == 0.0
        for t in (15.0, 20.0, 25.0, 30.0):
            assert rep.f_at(t) == 1.0

    def test_half_coverage_f_two_thirds(self):
        # two disjoint equal streets; only one inferred
        truth = street([(0, 0), (200, 0)])
        far = offset_deg(0, 1000)[1]
        n = len(truth.nodes)
        for k in range(2):
            dlat, _ = offset_deg(200 * k, 0)
            truth.add_node(ClusterCentroid(LAT0 + dlat, LON0 + far, 0.0, 1))
        from kharita.geo import vincenty_m
        a, b = truth.nodes[n], truth.nodes[n + 1]
        truth.add_edge(n, n + 1, vincenty_m(a.lat, a.lon, b.lat, b.lon))
        inferred = street([(0, 0), (200, 0)])
        rep = geo_score(inferred, truth, EvalConfig())
        for t in rep.thresholds:
            assert rep.precision[rep.thresholds.index(t)] == 1.0
            assert rep.recall[rep.thresholds.index(t)] == 0.5
            assert rep.f_at(t) == pytest.approx(2.0 / 3.0)

    def test_monotone_in_threshold(self):
        truth, trs = generate_synthetic(GridSpec(), noise_sigma_m=0.0,
                                        n_trajectories=10, rng_seed=1)
        bent, _ = generate_synthetic(GridSpec(rows=4, cols=6), rng_seed=2,
                                     noise_sigma_m=0.0, n_trajectories=0)
        rep = geo_score(bent, truth, EvalConfig())
        for seq in (rep.precision, rep.recall, rep.f_score):
            assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))
            assert all(0.0 <= x <= 1.0 for x in seq)

    def test_empty_inferred_scores_zero(self):
        truth = street([(0, 0), (200, 0)])
        rep = geo_score(RoadGraph(), truth, EvalConfig())
        assert rep.f_score == [0.0] * 6

    def test_empty_truth_rejected(self):
        inferred = street([(0, 0), (200, 0)])
        with pytest.raises(ValueError):
            geo_score(inferred, RoadGraph(), EvalConfig())


class TestPruning:
    def test_undriven_streets_dropped(self):
        truth, _ = generate_synthetic(GridSpec(rows=3, cols=3), rng_seed=0,
                                      noise_sigma_m=0.0, n_trajectories=0)
        # drive only the southern street, west to east
        pts = [GpsPoint("v", i * 2.0, LAT0,
                        LON0 + offset_deg(0, 10 * i)[1], 30.0, 90.0)
               for i in range(21)]
        pruned = prune_unvisited_edges(truth, [trajectory_of("v", pts)],
                                       EvalConfig())
        kept = set(pruned.edges)
        assert (0, 1) in kept and (1, 2) in kept    # the driven street
        # a street two blocks north is far outside the visit distance
        assert (6, 7) not in kept and (7, 8) not in kept
        assert (3, 4) not in kept                   # one block away too

    def test_no_trajectories_prunes_everything(self):
        truth = street([(0, 0), (200, 0)])
        pruned = prune_unvisited_edges(truth, [], EvalConfig())
        assert pruned.edges == {}


class TestTopoScore:
    def test_identical_maps_score_one(self):
        truth, trs = generate_synthetic(GridSpec(), noise_sigma_m=0.0,
                                        n_trajectories=60, rng_seed=4)
        cfg = EvalConfig(topo_samples=40, rng_seed=9)
        rep = topo_score(truth, truth, trs, cfg)
        assert rep.samples_valid == 40
        assert rep.f_score == [1.0] * 6

    def test_missing_bridge_lowers_score(self):
        marks = [(100 * i, 0) for i in range(11)]
        truth = street(marks)
        for i in range(10):                    # make it two-way
            e = truth.edges[(i, i + 1)]
            truth.add_edge(i + 1, i, e.weight_m)
        inferred = street(marks)
        for i in range(10):
            e = inferred.edges[(i, i + 1)]
            inferred.add_edge(i + 1, i, e.weight_m)
        inferred.remove_edge(5, 6)             # sever one direction mid-span
        inferred.remove_edge(6, 5)
        trs = trace_edges(truth)
        cfg = EvalConfig(topo_samples=60, rng_seed=2)
        whole = topo_score(truth, truth, trs, cfg)
        broken = topo_score(inferred, truth, trs, cfg)
        assert whole.f_at(30.0) == 1.0
        assert broken.f_at(30.0) < 0.9
        assert broken.samples_valid == 60

    def test_invariant_under_node_relabeling(self):
        truth, trs = generate_synthetic(GridSpec(rows=4, cols=4), rng_seed=6,
                                        noise_sigma_m=0.0, n_trajectories=40)
        rng = np.random.default_rng(33)
        perm = rng.permutation(len(truth.nodes))
        spots = np.empty(len(truth.nodes), dtype=np.int64)
        for new, old in enumerate(perm):
            spots[old] = new
        relabeled = RoadGraph()
        for old in perm:
            relabeled.add_node(truth.nodes[int(old)])
        for (u, v), e in sorted(truth.edges.items()):
            relabeled.add_edge(int(spots[u]), int(spots[v]), e.weight_m)
        cfg = EvalConfig(topo_samples=25, rng_seed=5)
        a = topo_score(truth, truth, trs, cfg)
        b = topo_score(relabeled, truth, trs, cfg)
        assert a.f_score == b.f_score
        assert a.precision == b.precision

    def test_disjoint_maps_have_no_start_pair(self):
        truth = street([(0, 0), (200, 0)])
        inferred = street([(0, 0), (200, 0)], shift_east_m=500.0)
        trs = trace_edges(truth)
        with pytest.raises(ValueError):
            topo_score(inferred, truth, trs, EvalConfig(topo_samples=5))

    def test_empty_inferred_scores_zero(self, caplog):
        # GEO's rule: an empty tested map warns and scores zeros
        truth = street([(0, 0), (200, 0)])
        cfg = EvalConfig(topo_samples=5, rng_seed=3)
        rep = topo_score(RoadGraph(), truth, trace_edges(truth), cfg)
        assert rep.precision == rep.recall == rep.f_score == [0.0] * 6
        assert rep.thresholds == sorted(cfg.matching_thresholds_m)
        assert (rep.samples_total, rep.samples_valid, rep.seed) == (5, 0, 3)
        assert "tested map is empty" in caplog.text

    def test_empty_or_unvisited_truth_rejected(self):
        truth = street([(0, 0), (200, 0)])
        for inferred in (truth, RoadGraph()):
            with pytest.raises(ValueError, match="reference edges"):
                topo_score(inferred, RoadGraph(), trace_edges(truth), EvalConfig())
            with pytest.raises(ValueError, match="reference edges"):
                topo_score(inferred, truth, [], EvalConfig())


def _owned_int64(owner, band, n, none):
    """(start, count, least) of _owned as they were built before the pairs
    came in their smallest types: the group heads from an int64
    np.diff of the owners."""
    owner = owner.astype(np.int64)
    heads = np.flatnonzero(np.diff(owner, prepend=-1))
    start = np.zeros(n, dtype=np.int64)
    count = np.zeros(n, dtype=np.int64)
    least = np.full(n, none, dtype=band.dtype)
    start[owner[heads]] = heads
    count[owner[heads]] = np.diff(heads, append=owner.size)
    if band.size:
        least[owner[heads]] = np.minimum.reduceat(band, heads)
    return start, count, least


class TestOwned:
    def test_matches_the_int64_tables(self):
        # owners up to the top of a uint16, their groups of 1-5 pairs in
        # a random order, as threshold_pairs gives the marbles; no pair
        # at all must give no group
        n, none = 1 << 16, 6
        rng = np.random.default_rng(23)
        top = n - 1
        cases = [np.empty(0, np.int64), np.array([0]), np.array([top]),
                 np.array([0, top])]
        cases += [np.union1d(rng.choice(n, k, replace=False), [top])
                  for k in (3, 200, 5000)]
        for ids in cases:
            sizes = rng.integers(1, 6, ids.size)
            owner = np.repeat(rng.permutation(ids), sizes).astype(np.uint16)
            other = rng.integers(0, n, owner.size).astype(np.uint16)
            band = rng.integers(0, none, owner.size).astype(np.uint8)
            got = _owned(owner, other, band, n, none)
            start, count, least = _owned_int64(owner, band, n, none)
            np.testing.assert_array_equal(got.start, start)
            np.testing.assert_array_equal(got.count, count)
            np.testing.assert_array_equal(got.least, least)
            assert got.least.dtype == np.uint8
            assert got.band is band and got.other is other
            assert int(count.sum()) == owner.size


class TestSampleEdges:
    @staticmethod
    def reference(graph, spacing):
        """Per edge, in key order: np.arange(spacing / 2, length,
        spacing), or the middle of a short edge, or the source node of an
        edge of length 0."""
        lat, lon, offset, bearing = [], [], [], []
        for u, v in sorted(k for k, e in graph.edges.items() if e.active):
            nu, nv = graph.nodes[u], graph.nodes[v]
            L = vincenty_m(nu.lat, nu.lon, nv.lat, nv.lon)
            if L <= 0.0:
                lat.append([nu.lat])
                lon.append([nu.lon])
                offset.append([0.0])
                bearing.append(nu.heading_deg)
                continue
            o = np.arange(0.5 * spacing, L, spacing)
            o = o if o.size else np.array([L / 2.0])
            lat.append(nu.lat + o / L * (nv.lat - nu.lat))
            lon.append(nu.lon + o / L * lon_delta(nu.lon, nv.lon))
            offset.append(o)
            bearing.append(initial_bearing_deg(nu.lat, nu.lon, nv.lat, nv.lon))
        return (np.concatenate(lat), wrap_lon_many(np.concatenate(lon)),
                np.concatenate(offset), np.array(bearing))

    @pytest.mark.parametrize("spacing", [5.0, 3.3, 0.7, 7.1, math.pi, 1e5])
    def test_matches_arange_per_edge(self, spacing):
        # the one-pass layout keeps np.arange's bits: its second value is
        # start + spacing and the rest start + i * (second - start)
        truth, _ = generate_synthetic(
            GridSpec(rows=3, cols=3, roundabout=True, origin_lon=179.999),
            n_trajectories=0)
        node = truth.add_node(truth.nodes[0])
        truth.add_edge(0, node, 0.0)
        truth.add_edge(node, 1, 1.0, active=False)
        s = _sample_edges(truth, spacing)
        want = self.reference(truth, spacing)
        for got, ref in zip((s.lat, s.lon, s.offset, s.bearing), want):
            assert got.tobytes() == ref.tobytes()
        assert s.src.tolist() == [e.src for e in s.edges]


class TestSynthetic:
    def test_grid_combinatorics(self):
        g, _ = generate_synthetic(GridSpec(), noise_sigma_m=0.0,
                                  n_trajectories=0, rng_seed=0)
        assert len(g.nodes) == 25
        assert len(g.edges) == 80      # fully two-way 5x5

    def test_one_way_grid_has_half_the_edges(self):
        g, _ = generate_synthetic(GridSpec(two_way_fraction=0.0),
                                  noise_sigma_m=0.0, n_trajectories=0,
                                  rng_seed=0)
        assert len(g.edges) == 40

    def test_roundabout_reshapes_center(self):
        g, _ = generate_synthetic(GridSpec(roundabout=True),
                                  noise_sigma_m=0.0, n_trajectories=0,
                                  rng_seed=0)
        assert len(g.nodes) == 29          # 25 grid + 4 ring
        assert len(g.edges) == 84          # -8 incident +4 ring +8 spokes
        center = 2 * 5 + 2
        assert not any(center in k for k in g.edges)
        # the ring circulates: corners and ring nodes all reach each other
        for a, b in ((0, 24), (24, 0), (4, 20), (25, 28), (0, 27)):
            assert g.shortest_dist(a, b) < math.inf

    def test_roundabout_across_the_antimeridian(self):
        # the centre column sits 5 m west of 180 degrees, so the ring's
        # east node and the columns east of it lie across the seam
        step = 100.0 / (M_PER_DEG_LAT * math.cos(math.radians(LAT0)))
        graphs = [generate_synthetic(
            GridSpec(roundabout=True, origin_lon=lon), noise_sigma_m=0.0,
            n_trajectories=0, rng_seed=0)[0]
            for lon in (LON0, 180.0 - 2.05 * step)]
        assert all(-180.0 <= n.lon < 180.0 for n in graphs[1].nodes)
        assert sum(n.lon < 0.0 for n in graphs[1].nodes) == 11
        assert list(graphs[1].edges) == list(graphs[0].edges)
        assert [e.weight_m for e in graphs[1].edges.values()] == pytest.approx(
            [e.weight_m for e in graphs[0].edges.values()], abs=1e-6)

    def test_noiseless_points_lie_on_streets(self):
        g, trs = generate_synthetic(GridSpec(), noise_sigma_m=0.0,
                                    n_trajectories=25, rng_seed=3)
        # axis-aligned grid: every point sits on a row line or column line
        rows = sorted({n.lat for n in g.nodes})
        cols = sorted({n.lon for n in g.nodes})
        for tr in trs:
            for p in tr.points:
                on_row = min(abs(p.lat - r) for r in rows) * M_PER_DEG_LAT
                on_col = min(abs(p.lon - c) for c in cols) * M_PER_DEG_LAT
                assert min(on_row, on_col) < 1e-6

    def test_speeds_within_class_limits(self):
        _, trs = generate_synthetic(GridSpec(), noise_sigma_m=2.0,
                                    n_trajectories=30, rng_seed=8)
        speeds = [p.speed_kmh for tr in trs for p in tr.points]
        assert min(speeds) > 5.0
        assert max(speeds) <= 60.0

    def test_seed_reproducibility(self):
        a_g, a_t = generate_synthetic(GridSpec(), noise_sigma_m=4.0,
                                      n_trajectories=20, rng_seed=42)
        b_g, b_t = generate_synthetic(GridSpec(), noise_sigma_m=4.0,
                                      n_trajectories=20, rng_seed=42)
        assert [(n.lat, n.lon) for n in a_g.nodes] == \
               [(n.lat, n.lon) for n in b_g.nodes]
        assert len(a_t) == len(b_t)
        for ta, tb in zip(a_t, b_t):
            assert [(p.timestamp, p.lat, p.lon, p.speed_kmh, p.heading_deg)
                    for p in ta.points] == \
                   [(p.timestamp, p.lat, p.lon, p.speed_kmh, p.heading_deg)
                    for p in tb.points]

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(rows=1)
        with pytest.raises(ValueError):
            GridSpec(block_m=0.0)
        with pytest.raises(ValueError):
            GridSpec(rows=2, cols=2, roundabout=True)
