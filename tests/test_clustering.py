"""Clustering tests: seed selection, k-means refinement, splitting.

Brute-force O(n^2) reimplementations of the distance logic act as
oracles for the grid-accelerated code paths.
"""
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kharita import clustering
from kharita.clustering import (
    ClusterConfig,
    PointArrays,
    _Assigner,
    _centroid_stats,
    _point_terms,
    distinct_points,
    finalize_centroids,
    kmeans_arrays,
    select_seed_indices,
    split_by_heading,
)
from kharita.geo import (
    GpsPoint,
    angle_diff_deg,
    combined_distance_m_many,
    heading_variability_deg,
    vincenty_m,
    wrap_lon,
)
from kharita.spatial import _QueryCells


def combined(lat1, lon1, h1, lat2, lon2, h2, theta):
    """The combined distance of one pair, first point first, in the one
    form that seed selection and k-means measure with."""
    return float(combined_distance_m_many(lat1, lon1, h1, lat2, lon2, h2,
                                          theta))


def random_points(rng, n, span=0.01):
    return PointArrays(
        rng.uniform(25.0, 25.0 + span, n),
        rng.uniform(51.0, 51.0 + span, n),
        rng.uniform(0, 360, n),
        rng.uniform(10, 60, n),
        rng.uniform(0, 1000, n),
    )


# near the pole and on the antimeridian
POLAR_SEAM = [(89.5, 180.0), (89.9, -180.0), (89.99, 180.0)]


def seam_points(rng, n, lat0, lon0, spread_m=200.0):
    """n random points within about spread_m of (lat0, lon0), with
    longitudes wrapped into [-180, 180). Headings spread over 30 degrees
    only, so most points are not seeds."""
    dlat = spread_m / 111000.0
    dlon = spread_m / (111000.0 * math.cos(math.radians(lat0)))
    return PointArrays(
        lat0 + rng.uniform(-dlat, dlat, n),
        (lon0 + rng.uniform(-dlon, dlon, n) + 180.0) % 360.0 - 180.0,
        rng.uniform(0, 30, n),
        rng.uniform(10, 60, n),
        rng.uniform(0, 1000, n),
    )


def combined_matrix(pts, clat, clon, chdg, theta):
    """Combined distance of every point (rows) to every centroid."""
    return combined_distance_m_many(
        pts.lat[:, None], pts.lon[:, None], pts.heading[:, None],
        clat[None, :], clon[None, :], chdg[None, :], theta)


def seeded_kmeans(pts: PointArrays, cfg: ClusterConfig):
    """Greedy seeds, then k-means, as the offline pipeline runs them."""
    sid = select_seed_indices(pts, cfg)
    return kmeans_arrays(pts, pts.lat[sid], pts.lon[sid], pts.heading[sid], cfg)


def as_arrays(cents: dict):
    return cents["lat"], cents["lon"], cents["heading"]


class TestConfig:
    def test_theta_defaults_to_twice_radius(self):
        assert ClusterConfig(seed_radius_cr=35.0).theta == 70.0
        assert ClusterConfig(seed_radius_cr=20.0, heading_weight_theta=5.0).theta == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(seed_radius_cr=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(convergence_ratio=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(max_iterations=0)


def at_distance(lat, lon, bearing_deg, d):
    """A point d meters from (lat, lon) along bearing_deg: a planar
    offset rescaled until Vincenty measures d, to about a nanometer."""
    s = d
    for _ in range(5):
        dlat = s * math.cos(math.radians(bearing_deg)) / 111000.0
        dlon = s * math.sin(math.radians(bearing_deg)) / (
            111000.0 * math.cos(math.radians(lat)))
        s *= d / vincenty_m(lat, lon, lat + dlat, lon + dlon)
    return lat + dlat, lon + dlon


def greedy_seeds(pts, cfg):
    """select_seed_indices by brute force over every earlier seed, each
    measured from the point."""
    seeds = []
    for i in range(pts.n):
        if np.all(combined_distance_m_many(
                pts.lat[i], pts.lon[i], pts.heading[i], pts.lat[seeds],
                pts.lon[seeds], pts.heading[seeds],
                cfg.theta) >= cfg.seed_radius_cr):
            seeds.append(i)
    return seeds


class TestSeedSelection:
    @pytest.mark.parametrize("lat0", [0.0, -33.0, 60.0, 80.0])
    def test_pairs_at_the_radius_match_brute_force(self, lat0):
        # anchors 300 m apart, each followed by a partner 1 mm inside the
        # combined radius and one 1 mm outside it: by distance alone, or
        # by distance and heading together
        rng = np.random.default_rng(int(abs(lat0)) + 5)
        cfg = ClusterConfig(seed_radius_cr=20.0)
        cr, theta = cfg.seed_radius_cr, cfg.theta
        lat, lon, hdg = [], [], []
        anchors = []
        for k in range(16):
            a_lat, a_lon = at_distance(lat0, 51.0, 90.0, 300.0 * (k + 1))
            h = float(rng.uniform(0.0, 360.0))
            anchors.append(len(lat))
            lat.append(a_lat); lon.append(a_lon); hdg.append(h)
            for want in (cr - 1e-3, cr + 1e-3):
                if k % 2:
                    dg = float(rng.uniform(2.0, 15.0))
                    h2 = (h + 180.0 / theta * math.sqrt(want ** 2 - dg ** 2)) % 360.0
                else:
                    dg, h2 = want, h
                p_lat, p_lon = at_distance(a_lat, a_lon,
                                           float(rng.uniform(0.0, 360.0)), dg)
                lat.append(p_lat); lon.append(p_lon); hdg.append(h2)
        n = len(lat)
        # clutter after the pairs
        c_lat, c_lon = at_distance(lat0, 51.0, 90.0, 5000.0)
        lat += list(rng.uniform(lat0, c_lat + 1e-4, 60))
        lon += list(rng.uniform(51.0, c_lon, 60))
        hdg += list(rng.uniform(0.0, 360.0, 60))
        m = len(lat)
        pts = PointArrays(np.array(lat), np.array(lon), np.array(hdg),
                          np.full(m, 30.0), np.arange(m, dtype=float))
        got = list(select_seed_indices(pts, cfg))
        assert got == greedy_seeds(pts, cfg)
        # the partner 1 mm outside seeds, the one 1 mm inside does not
        assert [i for i in got if i < n] == \
            [i for a in anchors for i in (a, a + 2)]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        pts = random_points(rng, 500)
        cfg = ClusterConfig(seed_radius_cr=20.0)
        assert list(select_seed_indices(pts, cfg)) == greedy_seeds(pts, cfg)
        for lat0, lon0 in POLAR_SEAM:
            pts = seam_points(rng, 300, lat0, lon0)
            assert list(select_seed_indices(pts, cfg)) == greedy_seeds(pts, cfg)

    @pytest.mark.parametrize("lat0", [0.0, 89.5, 89.9, 89.99])
    def test_seam_pair_gives_one_seed(self, lat0):
        # two fixes with one heading, 2.2 m apart across the antimeridian
        dlon = 1.1 / (111000.0 * math.cos(math.radians(lat0)))
        pts = PointArrays(np.array([lat0, lat0]),
                          np.array([180.0 - dlon, -180.0 + dlon]),
                          np.array([90.0, 90.0]), np.full(2, 30.0), np.zeros(2))
        assert vincenty_m(lat0, 180.0 - dlon, lat0, -180.0 + dlon) < 2.3
        assert list(select_seed_indices(pts, ClusterConfig())) == [0]

    def test_pairwise_separation_and_coverage(self):
        rng = np.random.default_rng(23)
        pts = random_points(rng, 400)
        cfg = ClusterConfig(seed_radius_cr=25.0)
        seeds = select_seed_indices(pts, cfg)
        # every point to every seed, the point first
        ds = combined_matrix(pts, pts.lat[seeds], pts.lon[seeds],
                             pts.heading[seeds], cfg.theta)
        later = seeds[:, None] > seeds[None, :]
        assert ds[seeds][later].min() >= cfg.seed_radius_cr
        assert np.all(ds.min(axis=1) < cfg.seed_radius_cr)

    def test_same_spot_opposite_headings_both_seed(self):
        # heading weight makes opposite directions 40 m apart at theta=40
        pts = [GpsPoint("v", 0.0, 25.0, 51.0, 30.0, 0.0),
               GpsPoint("v", 1.0, 25.0, 51.0, 30.0, 180.0)]
        cfg = ClusterConfig(seed_radius_cr=20.0)
        assert list(select_seed_indices(PointArrays.from_points(pts), cfg)) == [0, 1]

    def test_first_point_always_seeds(self):
        pts = [GpsPoint("v", 0.0, 25.0, 51.0, 30.0, 90.0),
               GpsPoint("v", 1.0, 25.0, 51.0, 30.0, 90.0)]
        seeds = select_seed_indices(PointArrays.from_points(pts), ClusterConfig())
        assert list(seeds) == [0]

    def test_measures_as_k_means_does(self):
        # a pair whose combined distance by scalar Vincenty and
        # math.hypot rounds under the array form's. With cr at the array
        # value the pair is not within cr, as the test is strict: both
        # points seed, and k-means reads that same value for the pair
        rng = np.random.default_rng(3)
        theta = 40.0
        for _ in range(1000):
            lat = 25.0 + rng.uniform(0.0, 1e-4, 2)
            lon = 51.0 + rng.uniform(0.0, 1e-4, 2)
            hdg = rng.uniform(0.0, 360.0, 2)
            # the later point first, as seed selection measures
            array = combined(lat[1], lon[1], hdg[1], lat[0], lon[0], hdg[0],
                             theta)
            scalar = math.hypot(vincenty_m(lat[1], lon[1], lat[0], lon[0]),
                                theta * angle_diff_deg(hdg[1], hdg[0]) / 180.0)
            if scalar < array:
                break
        else:
            pytest.fail("no pair whose two forms round apart")
        cfg = ClusterConfig(seed_radius_cr=array, heading_weight_theta=theta)
        pts = PointArrays(lat, lon, hdg, np.full(2, 30.0), np.zeros(2))
        assert list(select_seed_indices(pts, cfg)) == [0, 1]
        _, dist, _ = _Assigner(pts, cfg)(lat[:1], lon[:1], hdg[:1],
                                         np.ones(1, dtype=bool))
        assert dist[1] == array


    def test_sub_millimetre_radius_at_the_pole(self):
        # two fixes 5.6e-5 m apart next to the pole, exactly at least cr
        # apart: the planar U there rounds 2.24e-5 relative below
        # Vincenty, so only the 1e-6 m floor of the margins keeps the
        # second fix a seed, in blocks of one point and of all of them
        cfg = ClusterConfig(seed_radius_cr=5.584753802239989e-05)
        pts = PointArrays(np.array([89.999999999, 89.9999999985]),
                          np.zeros(2), np.zeros(2), np.full(2, 30.0),
                          np.zeros(2))
        assert greedy_seeds(pts, cfg) == [0, 1]
        for block in (1, 4096):
            with patch.object(clustering, "_SEED_BLOCK", block):
                assert list(select_seed_indices(pts, cfg)) == [0, 1]

    # a 2.5 m lattice, for duplicates and equal distances, with few
    # headings; blocks of one point, of a few and of all of them
    @settings(max_examples=150)
    @given(lat0=st.one_of(st.floats(-89.5, 89.5),
                          st.sampled_from([89.99, -89.99])),
           lon0=st.sampled_from([-180.0, -179.9999, 0.0, 51.0, 179.9999]),
           sited=st.lists(st.tuples(
               st.tuples(st.integers(-16, 16).map(lambda n: n * 2.5),
                         st.integers(-16, 16).map(lambda e: e * 2.5)),
               st.sampled_from([0.0, 10.0, 90.0, 180.0, 350.0])),
               min_size=1, max_size=80),
           cr=st.sampled_from([5.0, 20.0]),
           theta=st.sampled_from([None, 0.0, 1e6]))
    def test_blocks_match_brute_force(self, lat0, lon0, sited, cr, theta):
        pts = lattice_site(lat0, lon0, sited)
        cfg = ClusterConfig(seed_radius_cr=cr, heading_weight_theta=theta)
        want = greedy_seeds(pts, cfg)
        for block in (1, 7, 4096):
            with patch.object(clustering, "_SEED_BLOCK", block):
                assert list(select_seed_indices(pts, cfg)) == want

    @pytest.mark.parametrize("theta", [None, 0.0, 1e6])
    def test_blocks_match_brute_force_on_clouds(self, theta):
        # random clouds in the open, near the pole and across the
        # antimeridian, each followed by copies of some of its points
        rng = np.random.default_rng(59)
        cfg = ClusterConfig(seed_radius_cr=20.0, heading_weight_theta=theta)
        sites = [random_points(rng, 300, span=0.002)] + [
            seam_points(rng, 300, lat0, lon0) for lat0, lon0 in POLAR_SEAM]
        for pts in sites:
            dup = np.concatenate([np.arange(pts.n), rng.integers(0, pts.n, 60)])
            pts = PointArrays(*(a[dup] for a in (
                pts.lat, pts.lon, pts.heading, pts.speed, pts.ts)))
            want = greedy_seeds(pts, cfg)
            for block in (1, 7, 4096):
                with patch.object(clustering, "_SEED_BLOCK", block):
                    assert list(select_seed_indices(pts, cfg)) == want


class TestNear:
    @pytest.mark.parametrize("theta", [None, 0.0, 1e6])
    def test_lists_exactly_the_pairs_within_cr(self, theta):
        # the clouds of TestSeedSelection with their copies, queries and
        # references apart and the same. The seed tests cannot see a
        # missing pair whose point another pair covers, so every pair is
        # checked here
        rng = np.random.default_rng(61)
        cfg = ClusterConfig(seed_radius_cr=20.0, heading_weight_theta=theta)
        cr = cfg.seed_radius_cr
        sites = [random_points(rng, 300, span=0.002)] + [
            seam_points(rng, 300, lat0, lon0) for lat0, lon0 in POLAR_SEAM]
        for pts in sites:
            pts = pts.take(np.concatenate([np.arange(pts.n),
                                           rng.integers(0, pts.n, 60)]))
            every = np.arange(pts.n)
            for qi, ri in ((every[::2], every[1::2]), (every, every)):
                # every pair measured, query first
                want = set(map(tuple, np.argwhere(combined_matrix(
                    pts.take(qi), pts.lat[ri], pts.lon[ri], pts.heading[ri],
                    cfg.theta) < cr).tolist()))
                q, r = clustering._near(pts, qi, ri, cr, cfg.theta)
                got = list(zip(q.tolist(), r.tolist()))
                assert len(got) == len(set(got))
                assert set(got) == want
                assert want


class TestAssignment:
    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(31)
        cfg = ClusterConfig(seed_radius_cr=20.0)
        sites = [random_points(rng, 600)] + [
            seam_points(rng, 600, lat0, lon0) for lat0, lon0 in POLAR_SEAM]
        for pts in sites:
            sid = select_seed_indices(pts, cfg)
            # the first seeds twice: equal distances, the lower id wins
            sid = np.concatenate([sid, sid[:10]])
            clat, clon, chdg = pts.lat[sid], pts.lon[sid], pts.heading[sid]
            assign, dist, lower = _Assigner(pts, cfg)(
                clat, clon, chdg, np.ones(sid.size, dtype=bool))
            ds = combined_matrix(pts, clat, clon, chdg, cfg.theta)
            np.testing.assert_array_equal(dist, ds.min(axis=1))
            np.testing.assert_array_equal(assign, ds.argmin(axis=1))
            # the runner-up: the second least, ties counted, capped at the
            # cell size for the points that have a centroid within it
            cell = cfg.seed_radius_cr + cfg.theta
            second = np.sort(ds, axis=1)[:, 1]
            np.testing.assert_array_equal(
                lower, np.where(dist <= cell, np.minimum(second, cell), second))
            # and for a subset, the same rows
            which = np.arange(0, pts.n, 7)
            got = _Assigner(pts, cfg)(clat, clon, chdg,
                                      np.ones(sid.size, dtype=bool), which)
            for a, b in zip(got, (assign, dist, lower)):
                np.testing.assert_array_equal(a, b[which])

    def test_far_point_falls_back_to_exact_scan(self):
        # points far outside every centroid's 3x3 neighborhood; the
        # nearest centroid of the last one lies across the antimeridian
        pts = PointArrays(
            np.array([25.0, 25.0, 25.05, 25.0]),
            np.array([51.0, 51.001, 51.0, 179.997]),
            np.zeros(4), np.full(4, 30.0), np.zeros(4))
        cfg = ClusterConfig(seed_radius_cr=20.0)
        clat = np.full(4, 25.0)
        clon = np.array([51.0, 51.001, 179.99, -179.9995])
        chdg = np.zeros(4)
        assign, dist, lower = _Assigner(pts, cfg)(clat, clon, chdg,
                                                  np.ones(4, bool))
        assert assign[2] == 0
        assert dist[2] == pytest.approx(
            combined(25.05, 51.0, 0.0, 25.0, 51.0, 0.0, cfg.theta), rel=1e-9)
        assert lower[2] == pytest.approx(
            combined(25.05, 51.0, 0.0, 25.0, 51.001, 0.0, cfg.theta), rel=1e-9)
        assert assign[3] == 3
        assert dist[3] == pytest.approx(
            combined(25.0, 179.997, 0.0, 25.0, -179.9995, 0.0, cfg.theta),
            rel=1e-9)
        assert lower[3] == pytest.approx(
            combined(25.0, 179.997, 0.0, 25.0, 179.99, 0.0, cfg.theta),
            rel=1e-9)

    def test_separation_is_a_lower_bound(self):
        # every live centroid's separation is at most its least combined
        # distance to another live centroid, and at most the cell size;
        # repeated centroids are 0 apart
        rng = np.random.default_rng(37)
        cfg = ClusterConfig(seed_radius_cr=20.0)
        cell = cfg.seed_radius_cr + cfg.theta
        sites = [random_points(rng, 400, span=0.002)] + [
            seam_points(rng, 400, lat0, lon0) for lat0, lon0 in POLAR_SEAM]
        for pts in sites:
            sid = np.concatenate([select_seed_indices(pts, cfg),
                                  rng.integers(0, pts.n, 5)])
            clat, clon, chdg = pts.lat[sid], pts.lon[sid], pts.heading[sid]
            alive = rng.random(sid.size) < 0.8
            which = np.nonzero(alive)[0]
            got = _Assigner(pts, cfg).separation(clat, clon, chdg, alive, which)
            cents = PointArrays(clat, clon, chdg, chdg, chdg)
            ds = combined_matrix(cents, clat, clon, chdg, cfg.theta)
            ds[np.arange(sid.size), np.arange(sid.size)] = np.inf
            want = ds[np.ix_(which, which)].min(axis=1)
            assert np.all(got <= np.minimum(want, cell))
            # and it is not vacuous: within 20% of the exact separation
            # where that is under the cell size (about 1% off the pole)
            near = want < 0.9 * cell
            assert near.sum() > 10
            assert np.all(got[near] >= 0.8 * want[near])


def exact_separation(self, clat, clon, chdg, alive, which):
    """_Assigner.separation from exact distances: per centroid of which,
    the least combined distance to another live centroid, capped at the
    cell size."""
    live = np.nonzero(alive)[0]
    ds = combined_matrix(PointArrays(clat[which], clon[which], chdg[which],
                                     chdg[which], chdg[which]),
                         clat[live], clon[live], chdg[live], self.theta)
    ds[live[None, :] == which[:, None]] = np.inf
    return np.minimum(ds.min(axis=1), self.cells.cell_m)


def checked_spare(raised):
    """_Assigner.spare, checking after each call that every point's
    bound is at most its exact combined distance to every other live
    centroid. Appends to raised, per call, the number of bounds raised
    and the least gap between a raised bound and that distance."""
    real = _Assigner.spare

    def spare(self, clat, clon, chdg, alive, assign, dist, lower, slack,
              redo):
        before = lower.copy()
        left = real(self, clat, clon, chdg, alive, assign, dist, lower,
                    slack, redo)
        live = np.nonzero(alive)[0]
        ds = combined_matrix(self.pts, clat[live], clon[live], chdg[live],
                             self.theta)
        ds[live[None, :] == assign[:, None]] = np.inf
        gap = ds.min(axis=1) - lower
        assert np.all(gap >= 0.0)
        up = lower > before
        raised.append((np.count_nonzero(up), gap[up].min(initial=np.inf)))
        return left

    return spare


def lloyd(pts, seed_lat, seed_lon, seed_hdg, cfg):
    """kmeans_arrays with every point assigned by brute force in every
    iteration, no bounds: (centroids, assignments, costs) alike."""
    k = seed_lat.size
    clat, clon, chdg = (np.array(x, dtype=np.float64)
                        for x in (seed_lat, seed_lon, seed_hdg))
    alive = np.ones(k, dtype=bool)
    costs, best = [], None
    for _ in range(cfg.max_iterations):
        live = np.nonzero(alive)[0]
        ds = combined_matrix(pts, clat[live], clon[live], chdg[live], cfg.theta)
        assign, dist = live[ds.argmin(axis=1)], ds.min(axis=1)
        cost = float(dist @ dist)
        costs.append(cost)
        if best is not None and cost > best[4]:
            break
        stop = best is not None and best[4] - cost < cfg.convergence_ratio * cost
        best = (clat, clon, chdg, assign, cost)
        if stop or cost == 0.0:
            break
        counts, nlat, nlon, nhdg = _centroid_stats(pts, assign, k,
                                                   _point_terms(pts))
        alive = counts > 0
        clat = np.where(alive, nlat, clat)
        clon = np.where(alive, nlon, clon)
        chdg = np.where(alive, nhdg, chdg)
    clat, clon, chdg, assign, _ = best
    keep = np.nonzero(np.bincount(assign, minlength=k))[0]
    return ({"lat": clat[keep], "lon": clon[keep], "heading": chdg[keep]},
            np.searchsorted(keep, assign), costs)


def assert_matches_lloyd(*args):
    """kmeans_arrays(*args) gives the bits of lloyd(*args), returned."""
    got, want = kmeans_arrays(*args), lloyd(*args)
    for key in ("lat", "lon", "heading"):
        np.testing.assert_array_equal(got[0][key], want[0][key])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2]
    return want


def lattice_site(lat0, lon0, sited):
    """PointArrays at (north, east) meter offsets from (lat0, lon0),
    longitudes wrapped, with the given headings."""
    lat = np.array([min(lat0 + n / 111000.0, 89.99) for (n, _), _ in sited])
    lon = np.array([wrap_lon(lon0 + e / (111000.0 * math.cos(math.radians(lat0))))
                    for (_, e), _ in sited])
    hdg = np.array([h for _, h in sited])
    m = lat.size
    return PointArrays(lat, lon, hdg, np.full(m, 30.0), np.arange(m, dtype=float))


class TestKmeans:
    # a 2.5 m lattice, for equal positions and equal distances; few
    # headings, so equal combined distances too. The spread is several
    # cells of the small radius, so centroids move between cells
    @settings(max_examples=150)
    @given(lat0=st.one_of(st.floats(-89.5, 89.5),
                          st.sampled_from([89.9, -89.95, 89.99])),
           lon0=st.sampled_from([-180.0, -179.9999, 0.0, 51.0, 179.9999]),
           sited=st.lists(st.tuples(
               st.tuples(st.integers(-40, 40).map(lambda n: n * 2.5),
                         st.integers(-40, 40).map(lambda e: e * 2.5)),
               st.sampled_from([0.0, 10.0, 90.0, 180.0, 350.0])),
               min_size=1, max_size=60),
           seeds=st.lists(st.integers(0, 59), min_size=1, max_size=12),
           cr=st.sampled_from([5.0, 20.0]))
    def test_matches_plain_lloyd(self, lat0, lon0, sited, seeds, cr):
        # bounds that skip a point wrongly change an assignment, and a
        # distance they reuse wrongly changes a cost
        pts = lattice_site(lat0, lon0, sited)
        sid = np.array(seeds) % pts.n       # repeats make centroid ties
        cfg = ClusterConfig(seed_radius_cr=cr)
        assert_matches_lloyd(pts, pts.lat[sid], pts.lon[sid],
                             pts.heading[sid], cfg)

    @pytest.mark.parametrize("cr", [5.0, 20.0])
    def test_matches_plain_lloyd_on_clouds(self, cr):
        # random clouds of several cells, in the open, near the pole and
        # across the antimeridian; greedy seeds as in the pipeline, and
        # random ones that leave centroids to travel far
        rng = np.random.default_rng(int(cr))
        cfg = ClusterConfig(seed_radius_cr=cr)
        sites = [random_points(rng, 300, span=0.002)] + [
            seam_points(rng, 300, lat0, lon0) for lat0, lon0 in POLAR_SEAM]
        for pts in sites:
            for sid in (select_seed_indices(pts, cfg), rng.integers(0, pts.n, 40)):
                assert_matches_lloyd(pts, pts.lat[sid], pts.lon[sid],
                                     pts.heading[sid], cfg)

    def test_tie_at_the_bound_is_searched_again(self):
        # Geodesics on the equator run along it, so the triangle
        # inequality under the bound is tight. Centroid 0 drifts from
        # 3e-5 to 1e-5 degrees east of the fix at lon 0, centroid 1 from
        # 2e-5 to 1e-5 degrees west: the fix is then equally far from
        # both and goes to centroid 0. Its bound, the distance to
        # centroid 0 less its drift, is that distance in exact
        # arithmetic and 7e-16 m more once rounded, so only the margin
        # sends the fix to be searched again
        pts = PointArrays(np.zeros(3), np.array([0.0, -2e-5, 1e-5]),
                          np.zeros(3), np.full(3, 30.0), np.zeros(3))
        _, assign, _ = assert_matches_lloyd(
            pts, np.zeros(2), np.array([3e-5, -2e-5]), np.zeros(2),
            ClusterConfig())
        assert assign.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("exact", [False, True])
    def test_tie_halfway_between_centroids_is_searched_again(
            self, exact, monkeypatch):
        # On the equator the fix at lon 0 lies exactly halfway between
        # the centroids at lon 7e-5 and -7e-5 once they have drifted
        # there (centroid 0 from 21e-5, centroid 1 from -14e-5), so it
        # ties and goes to centroid 0. It was centroid 1's, and the
        # lower bound does not hold it, as in the test above. Its
        # distance is exactly half the centroids' separation in exact
        # arithmetic, and the rounded half separation exceeds it by
        # 9e-16 m. With the exact separation (exact=True), only the
        # margin sends the fix to be searched again; the planar
        # separation lies about 1% below it
        pts = PointArrays(np.zeros(3), np.array([0.0, -14e-5, 7e-5]),
                          np.zeros(3), np.full(3, 30.0), np.zeros(3))
        cfg = ClusterConfig()
        half = vincenty_m(0.0, -7e-5, 0.0, 7e-5) / 2.0
        assert half > vincenty_m(0.0, 0.0, 0.0, -7e-5) == \
            vincenty_m(0.0, 0.0, 0.0, 7e-5)
        if exact:
            monkeypatch.setattr(_Assigner, "separation", exact_separation)
        _, assign, _ = assert_matches_lloyd(
            pts, np.zeros(2), np.array([21e-5, -14e-5]), np.zeros(2), cfg)
        assert assign.tolist() == [0, 1, 0]

    def test_points_deep_in_a_cluster_are_not_searched_again(self):
        # Clusters A and B, 30 m apart, and C, 120 m east of A, whose
        # seed starts 50 m east of A: its first update moves it 70 m,
        # more than any lower bound of A or B, so the lower test fails
        # for all their points. A point within a metre of its centroid
        # is nearer than half the 30 m separation of A and B, and keeps
        # its centroid without a search. The point 15.5 m east starts in
        # A, is searched again and moves to B
        rng = np.random.default_rng(71)
        east = np.concatenate([rng.uniform(-1, 1, 20), np.full(1, 15.5),
                               30.0 + rng.uniform(-1, 1, 20),
                               120.0 + rng.uniform(-1, 1, 10)])
        north = np.concatenate([rng.uniform(-1, 1, 20), np.zeros(1),
                                rng.uniform(-1, 1, 20), rng.uniform(-1, 1, 10)])
        lat0, lon0 = 25.0, 51.0
        m_lon = 111320.0 * math.cos(math.radians(lat0))
        pts = PointArrays(lat0 + north / 110570.0, lon0 + east / m_lon,
                          np.zeros(east.size), np.full(east.size, 30.0),
                          np.arange(east.size, dtype=float))
        deep = np.r_[0:20, 21:51]
        seed_east = np.array([0.5, 31.0, 50.0])
        searched = []
        real = _Assigner.__call__

        def spy(self, clat, clon, chdg, alive, which=None):
            searched.append(which)
            return real(self, clat, clon, chdg, alive, which)

        cfg = ClusterConfig()
        with patch.object(_Assigner, "__call__", spy):
            _, assign, costs = assert_matches_lloyd(
                pts, np.full(3, lat0), lon0 + seed_east / m_lon, np.zeros(3),
                cfg)
        assert assign.tolist() == [0] * 20 + [1] * 21 + [2] * 10
        assert searched[0] is None and len(searched) == len(costs)
        again = np.concatenate([np.asarray(w) for w in searched[1:]])
        assert not np.isin(again, deep).any()
        assert 20 in again

    def test_raised_bounds_stay_below_every_other_centroid(self):
        # after each separation test, every point's bound, raised or
        # not, is at most its exact distance to every other live
        # centroid; and some bounds are raised
        rng = np.random.default_rng(43)
        cfg = ClusterConfig(seed_radius_cr=20.0)
        raised = []
        sites = [random_points(rng, 300, span=0.002),
                 seam_points(rng, 300, 25.0, 180.0),
                 seam_points(rng, 300, 89.99, 180.0)]
        with patch.object(_Assigner, "spare", checked_spare(raised)):
            for pts in sites:
                raised.clear()
                for sid in (select_seed_indices(pts, cfg),
                            rng.integers(0, pts.n, 30)):
                    assert_matches_lloyd(pts, pts.lat[sid], pts.lon[sid],
                                         pts.heading[sid], cfg)
                assert sum(n for n, _ in raised) > 0

    def test_raised_bound_is_tight_on_the_equator(self):
        # The clusters of test_points_deep_in_a_cluster_are_not_searched_
        # again, on the equator, with the exact separation s. Geodesics
        # there run along it, so a point between its centroid and the
        # other is s - dist from that one in exact arithmetic; the
        # computed distances miss that by micrometres, and only the
        # slack keeps the raised bound under them
        rng = np.random.default_rng(71)
        east = np.concatenate([rng.uniform(-1, 1, 20),
                               30.0 + rng.uniform(-1, 1, 20),
                               120.0 + rng.uniform(-1, 1, 10)])
        m_lon = 111319.49
        pts = PointArrays(np.zeros(east.size), east / m_lon,
                          np.zeros(east.size), np.full(east.size, 30.0),
                          np.arange(east.size, dtype=float))
        raised = []
        with patch.object(_Assigner, "separation", exact_separation), \
                patch.object(_Assigner, "spare", checked_spare(raised)):
            _, assign, _ = assert_matches_lloyd(
                pts, np.zeros(3), np.array([0.5, 31.0, 50.0]) / m_lon,
                np.zeros(3), ClusterConfig())
        assert assign.tolist() == [0] * 20 + [1] * 20 + [2] * 10
        # C is 90 m from B, beyond the cell: every point is spared
        assert raised[0][0] == 50
        assert min(gap for _, gap in raised) < 1e-4

    @pytest.mark.parametrize("block", [1, 7])
    def test_moved_point_blocks_change_no_result(self, block, monkeypatch):
        # the moved points' distances are measured _MOVED_BLOCK at a
        # time; these clouds have a few hundred, one block by default.
        # Mid-latitude, across the antimeridian and near the pole, with
        # greedy and random seeds
        rng = np.random.default_rng(47)
        cfg = ClusterConfig()
        default = clustering._MOVED_BLOCK
        sites = [random_points(rng, 300, span=0.002),
                 seam_points(rng, 300, 25.0, 180.0),
                 seam_points(rng, 300, 89.99, 180.0)]
        for pts in sites:
            for sid in (select_seed_indices(pts, cfg),
                        rng.integers(0, pts.n, 30)):
                args = (pts, pts.lat[sid], pts.lon[sid], pts.heading[sid], cfg)
                want = kmeans_arrays(*args)
                monkeypatch.setattr(clustering, "_MOVED_BLOCK", block)
                got = kmeans_arrays(*args)
                monkeypatch.setattr(clustering, "_MOVED_BLOCK", default)
                assert len(want[2]) > 1
                for key in ("lat", "lon", "heading"):
                    np.testing.assert_array_equal(got[0][key], want[0][key])
                np.testing.assert_array_equal(got[1], want[1])
                assert got[2] == want[2]

    def test_working_set_stays_chunk_sized(self, traced):
        # numpy reports its buffers to tracemalloc. The first assignment
        # of this cloud has 1.17M pairs, 24 chunks of the batch search;
        # k-means peaked at 4.1 MB traced over its whole run, at 9.2 MB
        # with 2^17-pair chunks and the moved points measured at once,
        # and at 58 MB with all the pairs in one chunk (2M budget)
        rng = np.random.default_rng(61)
        pts = random_points(rng, 10_000, span=0.004)
        sid = rng.choice(pts.n, 800, replace=False)
        cfg = ClusterConfig()
        cells = _QueryCells(pts.lat, pts.lon, cfg.seed_radius_cr + cfg.theta)
        assert sum(1 for _ in cells._chunks(pts.lat[sid], pts.lon[sid])) >= 8
        with traced() as mem:
            kmeans_arrays(pts, pts.lat[sid], pts.lon[sid], pts.heading[sid],
                          cfg)
        assert mem.peak < 20e6

    def test_cost_never_increases(self):
        rng = np.random.default_rng(41)
        pts = random_points(rng, 700, span=0.005)
        cfg = ClusterConfig(seed_radius_cr=20.0)
        sid = select_seed_indices(pts, cfg)
        _, _, costs = kmeans_arrays(pts, pts.lat[sid], pts.lon[sid],
                                    pts.heading[sid], cfg)
        assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))

    def test_converges_in_one_iteration_on_exact_seeds(self):
        # points already sit at well-separated seed locations
        pts = [GpsPoint("v", 0.0, 25.0, 51.0, 30.0, 0.0),
               GpsPoint("v", 1.0, 25.01, 51.0, 30.0, 0.0),
               GpsPoint("v", 2.0, 25.02, 51.0, 30.0, 0.0)]
        cents, assign, costs = seeded_kmeans(PointArrays.from_points(pts),
                                             ClusterConfig())
        assert list(cents["lat"]) == [25.0, 25.01, 25.02]
        assert list(assign) == [0, 1, 2]
        assert costs == [0.0]

    def test_assignments_consistent_with_returned_centroids(self):
        rng = np.random.default_rng(53)
        pts = random_points(rng, 300)
        cfg = ClusterConfig(seed_radius_cr=30.0)
        cents, assign, _ = seeded_kmeans(pts, cfg)
        assert assign.size == pts.n
        ds = combined_matrix(pts, *as_arrays(cents), cfg.theta)
        np.testing.assert_allclose(ds[np.arange(pts.n), assign],
                                   ds.min(axis=1), rtol=0.0, atol=1e-9)

    def test_centroid_stats(self):
        # two points in one cluster: mean position, max speed, last seen
        pts = PointArrays.from_points([GpsPoint("v", 10.0, 25.0, 51.0, 30.0, 10.0),
                                       GpsPoint("v", 20.0, 25.0001, 51.0, 50.0, 20.0)])
        cents, assign, _ = kmeans_arrays(pts, np.array([25.00005]), np.array([51.0]),
                                         np.array([15.0]), ClusterConfig())
        got = finalize_centroids(pts, assign, *as_arrays(cents))
        assert len(got) == 1
        c = got[0]
        assert c.lat == pytest.approx(25.00005)
        assert c.support == 2
        assert c.max_speed_kmh == 50.0
        assert c.last_seen == 20.0
        assert c.heading_deg == pytest.approx(15.0, abs=1e-6)
        assert heading_variability_deg(pts.heading, c.heading_deg) == \
            pytest.approx(5.0, abs=1e-6)
        assert list(assign) == [0, 0]

    def test_cluster_across_the_antimeridian_stays_there(self):
        # two fixes 2.2 m apart on either side of 180 degrees make one
        # seed; the update must move it onto the seam, not to lon 0
        pts = PointArrays.from_points([GpsPoint("v", 0.0, 10.0, 179.99999, 30.0, 90.0),
                                       GpsPoint("v", 1.0, 10.0, -179.99999, 30.0, 90.0)])
        cents, assign, costs = seeded_kmeans(pts, ClusterConfig())
        assert costs == pytest.approx([4.808, 2.404, 2.404], abs=1e-3)
        assert list(assign) == [0, 0]
        assert -180.0 <= cents["lon"][0] < 180.0
        assert 180.0 - abs(cents["lon"][0]) < 1e-9

    def test_empty_clusters_dropped(self):
        # second seed attracts nothing and must vanish
        pts = PointArrays.from_points([GpsPoint("v", 0.0, 25.0, 51.0, 30.0, 0.0),
                                       GpsPoint("v", 1.0, 25.00001, 51.0, 30.0, 0.0)])
        cents, assign, _ = kmeans_arrays(pts, np.array([25.0, 25.1]),
                                         np.array([51.0, 51.0]), np.zeros(2),
                                         ClusterConfig())
        assert cents["lat"].size == 1
        assert set(assign) == {0}

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        pts = random_points(rng, 250)
        cfg = ClusterConfig()
        a = seeded_kmeans(pts, cfg)
        b = seeded_kmeans(pts, cfg)
        for x, y in zip(as_arrays(a[0]), as_arrays(b[0])):
            assert np.array_equal(x, y)
        assert np.array_equal(a[1], b[1])
        assert a[2] == b[2]


class TestSplit:
    def test_opposing_directions_split(self):
        rng = np.random.default_rng(4)
        n = 40
        hdg = np.concatenate([rng.normal(10, 2, n // 2) % 360,
                              rng.normal(190, 2, n // 2) % 360])
        pts = PointArrays(25.0 + rng.normal(0, 1e-5, n), 51.0 + rng.normal(0, 1e-5, n),
                          hdg, np.full(n, 30.0), np.arange(n, dtype=float))
        (clat, clon, chdg), assign = split_by_heading(
            pts, np.array([25.0]), np.array([51.0]), np.array([10.0]),
            np.zeros(n, dtype=np.int64), ClusterConfig())
        assert clat.size == 2
        sizes = np.bincount(assign)
        assert sorted(sizes) == [20, 20]

    def test_four_way_junction_splits_recursively(self):
        rng = np.random.default_rng(8)
        hdg = np.concatenate([rng.normal(d, 3, 25) % 360 for d in (0, 90, 180, 270)])
        n = hdg.size
        pts = PointArrays(np.full(n, 25.0), np.full(n, 51.0), hdg,
                          np.full(n, 30.0), np.arange(n, dtype=float))
        (clat, _, chdg), assign = split_by_heading(
            pts, np.array([25.0]), np.array([51.0]), np.array([0.0]),
            np.zeros(n, dtype=np.int64), ClusterConfig())
        assert clat.size == 4
        got = sorted(round(h / 10) * 10 % 360 for h in chdg)
        assert got == [0, 90, 180, 270]

    def test_every_multimember_cluster_ends_within_threshold(self):
        rng = np.random.default_rng(12)
        pts = random_points(rng, 300, span=0.002)
        cfg = ClusterConfig(seed_radius_cr=40.0)
        cents, assign, _ = seeded_kmeans(pts, cfg)
        split, assign2 = split_by_heading(pts, *as_arrays(cents), assign, cfg)
        cents2 = finalize_centroids(pts, assign2, *split)
        assert len(cents2) >= cents["lat"].size
        for cid, c in enumerate(cents2):
            members = np.nonzero(assign2 == cid)[0]
            if members.size >= 2:
                assert heading_variability_deg(pts.heading[members], c.heading_deg) \
                    <= cfg.split_threshold_deg + 1e-9
            assert c.support == members.size

    def test_homogeneous_cluster_untouched(self):
        pts = PointArrays.from_points(
            [GpsPoint("v", float(i), 25.0, 51.0, 30.0, 100.0 + i) for i in range(5)])
        (clat, _, chdg), assign = split_by_heading(
            pts, np.array([25.0]), np.array([51.0]), np.array([102.0]),
            np.zeros(5, dtype=np.int64), ClusterConfig())
        assert clat.size == 1 and list(chdg) == [102.0]
        assert set(assign) == {0}

    def test_split_partitions_by_heading_only(self):
        # members keep their cluster's geography; only headings separate
        pts = PointArrays.from_points([GpsPoint("v", 0.0, 25.0, 51.0, 30.0, 0.0),
                                       GpsPoint("v", 1.0, 25.0002, 51.0, 30.0, 0.0),
                                       GpsPoint("v", 2.0, 25.0, 51.0, 30.0, 180.0),
                                       GpsPoint("v", 3.0, 25.0002, 51.0, 30.0, 180.0)])
        split, assign = split_by_heading(
            pts, np.array([25.0001]), np.array([51.0]), np.array([0.0]),
            np.zeros(4, dtype=np.int64), ClusterConfig())
        got = finalize_centroids(pts, assign, *split)
        assert len(got) == 2
        assert assign[0] == assign[1] and assign[2] == assign[3]
        assert assign[0] != assign[2]
        for c in got:
            assert c.lat == pytest.approx(25.0001)

    def test_split_across_the_antimeridian_keeps_the_seam(self):
        pts = PointArrays.from_points([GpsPoint("v", 0.0, 25.0, 179.99999, 30.0, 0.0),
                                       GpsPoint("v", 1.0, 25.0, -179.99998, 30.0, 0.0),
                                       GpsPoint("v", 2.0, 25.0, 179.99998, 30.0, 180.0),
                                       GpsPoint("v", 3.0, 25.0, -179.99999, 30.0, 180.0)])
        (_, clon, _), assign = split_by_heading(
            pts, np.array([25.0]), np.array([-180.0]), np.array([0.0]),
            np.zeros(4, dtype=np.int64), ClusterConfig())
        assert assign.tolist() == [0, 0, 1, 1]
        for lon, mean in zip(clon, (-179.999995, 179.999995)):
            assert -180.0 <= lon < 180.0
            assert lon == pytest.approx(mean, abs=1e-9)


def loop_farthest_heading_pair(h: np.ndarray) -> tuple[int, int]:
    """_farthest_heading_pair as it was before it became one array pass:
    each value in turn probes its circle-opposite and the two
    neighbours in a sorted copy, keeping the largest separation, then
    the smallest i, then the smallest j."""
    m = h.size
    order = np.lexsort((np.arange(m), h))
    sv = h[order]
    best = (-1.0, m, m)
    for a in range(m):
        target = (h[a] + 180.0) % 360.0
        pos = int(np.searchsorted(sv, target))
        for q in (pos - 1, pos % m, (pos + 1) % m):
            b = int(order[q % m])
            if b == a:
                continue
            d = angle_diff_deg(h[a], h[b])
            i, j = (a, b) if a < b else (b, a)
            if (d, -i, -j) > (best[0], -best[1], -best[2]):
                best = (d, i, j)
    return best[1], best[2]


# headings in [0, 360): spread out, repeated, exactly opposite, and at
# either side of north
HEADING = st.one_of(
    st.floats(0.0, 360.0, exclude_max=True),
    st.sampled_from([0.0, 90.0, 180.0, 270.0, 359.9999999, 1e-9, 45.0, 225.0]))


@settings(max_examples=500)
@given(headings=st.lists(HEADING, max_size=40))
def test_farthest_heading_pair_matches_the_loop(headings):
    h = np.array(headings, dtype=np.float64)
    got = clustering._farthest_heading_pair(h)
    assert got == loop_farthest_heading_pair(h)
    assert all(type(x) is int for x in got)


def void_view_distinct(pts: PointArrays):
    """distinct_points as it was before it sorted bit patterns: np.unique
    over a 24-byte void view of (lat, lon, heading), the groups re-ranked
    by first appearance, every column copied."""
    stacked = np.stack([pts.lat, pts.lon, pts.heading], axis=1)
    view = np.ascontiguousarray(stacked).view(
        np.dtype((np.void, stacked.dtype.itemsize * 3))).ravel()
    _, first, inverse = np.unique(view, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    inverse = rank[inverse]
    first = first[order]
    k = first.size
    speed = np.full(k, -np.inf)
    has_speed = ~np.isnan(pts.speed)
    np.maximum.at(speed, inverse[has_speed], pts.speed[has_speed])
    speed[speed == -np.inf] = np.nan
    ts = np.full(k, -np.inf)
    np.maximum.at(ts, inverse, pts.ts)
    out = PointArrays(pts.lat[first], pts.lon[first], pts.heading[first], speed, ts)
    return out, inverse


# rows of (lat, lon, heading, speed, ts) from few values, so that rows
# repeat: -0.0 beside 0.0, and NaN among the positions and the speeds
POSITION = st.sampled_from([0.0, -0.0, 1.5, 25.0, 359.0, math.nan])
ROW = st.tuples(POSITION, POSITION, POSITION,
                st.sampled_from([math.nan, 0.0, -0.0, 5.0, 30.5, 90.0]),
                st.sampled_from([0.0, -0.0, 1.0, 100.0, 1e9]))


def rows_to_points(rows) -> PointArrays:
    cols = np.array(rows, dtype=np.float64).reshape(len(rows), 5).T
    return PointArrays(*(np.ascontiguousarray(c) for c in cols))


def position_bits(row) -> bytes:
    return np.array(row[:3], dtype=np.float64).tobytes()


def assert_matches_void_view(pts: PointArrays):
    """distinct_points(pts) gives the bits of void_view_distinct(pts),
    and pts itself when no row repeats; returns the distinct count."""
    (got, got_inv), (want, want_inv) = distinct_points(pts), void_view_distinct(pts)
    assert got_inv.dtype == want_inv.dtype
    np.testing.assert_array_equal(got_inv, want_inv)
    for name in ("lat", "lon", "heading", "speed", "ts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.float64
        assert a.view(np.uint64).tolist() == b.view(np.uint64).tolist()
        if want.n == pts.n:
            assert a.size == 0 or np.shares_memory(a, getattr(pts, name))
    return want.n


class TestDistinctPoints:
    @settings(max_examples=300)
    @given(rows=st.lists(ROW, max_size=40), repeat_first=st.booleans())
    def test_matches_the_void_view_version(self, rows, repeat_first):
        # repeat_first puts a repeat at the first and the last index
        if repeat_first and rows:
            rows = rows + [rows[0]]
        assert_matches_void_view(rows_to_points(rows))

    @settings(max_examples=100)
    @given(rows=st.lists(ROW, max_size=40, unique_by=position_bits))
    def test_without_repeats_the_input_comes_back(self, rows):
        pts = rows_to_points(rows)
        assert assert_matches_void_view(pts) == pts.n

    @pytest.mark.parametrize("rows", [
        [],
        [(1.0, 2.0, 3.0, math.nan, 4.0)],
        [(0.0, 1.0, 2.0, 5.0, 1.0), (-0.0, 1.0, 2.0, 6.0, 2.0)],
        [(math.nan, 1.0, 2.0, 5.0, 1.0), (1.0, 1.0, 2.0, 5.0, 1.0),
         (math.nan, 1.0, 2.0, math.nan, 3.0)],
        [(1.0, 1.0, 2.0, 5.0, 1.0), (2.0, 1.0, 2.0, 5.0, 1.0),
         (1.0, 1.0, 2.0, 7.0, 0.0)]])
    def test_edge_cases_match_the_void_view_version(self, rows):
        # none, one, -0.0 against 0.0, NaN positions and a NaN speed, and
        # a repeat at the first and the last index
        assert_matches_void_view(rows_to_points(rows))

    def test_dedupe_keeps_first_occurrence_order(self):
        pts = PointArrays(
            np.array([1.0, 2.0, 1.0, 3.0, 2.0]),
            np.array([5.0, 6.0, 5.0, 7.0, 6.0]),
            np.array([10.0, 20.0, 10.0, 30.0, 20.0]),
            np.array([1.0, 2.0, 9.0, 4.0, np.nan]),
            np.array([100.0, 200.0, 300.0, 400.0, 50.0]))
        d, inv = distinct_points(pts)
        assert d.n == 3
        assert list(d.lat) == [1.0, 2.0, 3.0]
        assert list(inv) == [0, 1, 0, 2, 1]
        assert d.speed[0] == 9.0          # max over the duplicate group
        assert d.ts[1] == 200.0           # nan-speed row still counts for ts
        assert d.ts[0] == 300.0

    def test_no_duplicates_is_identity(self):
        rng = np.random.default_rng(2)
        pts = random_points(rng, 50)
        d, inv = distinct_points(pts)
        assert d.n == 50
        assert np.array_equal(inv, np.arange(50))
        assert np.array_equal(d.lat, pts.lat)
