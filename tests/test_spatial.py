"""Bucketed neighbor search checked against brute-force Vincenty."""
import numpy as np
import pytest

from kharita.geo import vincenty_m_many
from kharita.spatial import nearest_within, pairs_within

RADIUS_M = 30.0


def _cloud(rng, lat0, lon0, n, spread_m):
    """n points scattered about spread_m around (lat0, lon0)."""
    dlat = spread_m / 111000.0
    dlon = spread_m / (111000.0 * max(np.cos(np.radians(lat0)), 1e-3))
    return (lat0 + rng.uniform(-dlat, dlat, n),
            lon0 + rng.uniform(-dlon, dlon, n))


def _brute(qlat, qlon, rlat, rlon):
    return vincenty_m_many(qlat[:, None], qlon[:, None],
                           rlat[None, :], rlon[None, :])


@pytest.mark.parametrize("lat0", [0.0, 25.3, -47.0, 80.0, 89.5])
def test_nearest_within_matches_brute_force(lat0):
    rng = np.random.default_rng(int(abs(lat0) * 10))
    qlat, qlon = _cloud(rng, lat0, 51.0, 150, 400.0)
    rlat, rlon = _cloud(rng, lat0, 51.0, 120, 400.0)
    dist, idx = nearest_within(qlat, qlon, rlat, rlon, RADIUS_M)
    full = _brute(qlat, qlon, rlat, rlon)
    best = full.min(axis=1)
    hit = best <= RADIUS_M
    assert hit.any() and not hit.all()
    np.testing.assert_array_equal(dist[hit], best[hit])
    np.testing.assert_array_equal(idx[hit], full[hit].argmin(axis=1))
    assert np.all(np.isinf(dist[~hit])) and np.all(idx[~hit] == -1)


@pytest.mark.parametrize("lat0", [0.0, 25.3, 80.0])
def test_pairs_within_matches_brute_force(lat0):
    rng = np.random.default_rng(7)
    qlat, qlon = _cloud(rng, lat0, -12.0, 80, 100.0)
    rlat, rlon = _cloud(rng, lat0, -12.0, 90, 100.0)
    q, r, d = pairs_within(qlat, qlon, rlat, rlon, RADIUS_M)
    full = _brute(qlat, qlon, rlat, rlon)
    want_q, want_r = np.nonzero(full <= RADIUS_M)
    assert sorted(zip(q.tolist(), r.tolist())) == \
        sorted(zip(want_q.tolist(), want_r.tolist()))
    np.testing.assert_array_equal(d, full[q, r])
    # grouped by query, nearest first, ties to the lowest index
    assert np.all(np.diff(q) >= 0)
    same = q[1:] == q[:-1]
    assert np.all(d[1:][same] >= d[:-1][same])
    # the first pair of each query is its nearest_within match
    dist, idx = nearest_within(qlat, qlon, rlat, rlon, RADIUS_M)
    first = np.ones(q.size, dtype=bool)
    first[1:] = ~same
    np.testing.assert_array_equal(idx[q[first]], r[first])
    np.testing.assert_array_equal(dist[q[first]], d[first])


def test_points_exactly_at_the_radius_are_kept():
    lat = np.array([25.0])
    lon = np.array([51.0])
    other_lat = np.array([25.0 + 30.0 / 110800.0])
    d = float(vincenty_m_many(lat, lon, other_lat, lon)[0])
    dist, idx = nearest_within(lat, lon, other_lat, lon, d)
    assert dist[0] == d and idx[0] == 0
    q, _, _ = pairs_within(lat, lon, other_lat, lon, d)
    assert q.tolist() == [0]


def test_empty_inputs():
    e = np.empty(0)
    dist, idx = nearest_within(e, e, np.array([1.0]), np.array([1.0]), 10.0)
    assert dist.size == 0 and idx.size == 0
    q, r, d = pairs_within(np.array([1.0]), np.array([1.0]), e, e, 10.0)
    assert q.size == r.size == d.size == 0
