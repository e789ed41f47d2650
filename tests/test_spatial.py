"""Bucketed neighbor search checked against brute-force Vincenty."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kharita import clustering, spatial
from kharita.clustering import (
    ClusterConfig,
    PointArrays,
    kmeans_arrays,
    select_seed_indices,
)
from kharita.geo import (
    angle_diff_deg,
    angle_diff_deg_many,
    vincenty_m,
    vincenty_m_many,
    wrap_lon,
)
from kharita.spatial import (
    GridIndex,
    _QueryCells,
    nearest_within,
    threshold_pairs,
)

RADIUS_M = 30.0


def _cloud(rng, lat0, lon0, n, spread_m):
    """n points scattered about spread_m around (lat0, lon0), with
    longitudes wrapped into [-180, 180)."""
    dlat = spread_m / 111000.0
    dlon = spread_m / (111000.0 * np.cos(np.radians(lat0)))
    return (lat0 + rng.uniform(-dlat, dlat, n),
            (lon0 + rng.uniform(-dlon, dlon, n) + 180.0) % 360.0 - 180.0)


def _brute(qlat, qlon, rlat, rlon):
    return vincenty_m_many(qlat[:, None], qlon[:, None],
                           rlat[None, :], rlon[None, :])


def _check_nearest(dist, idx, full, radius):
    """dist/idx against a full distance matrix: the nearest within the
    radius, ties to the lowest index, or (inf, -1)."""
    best = full.min(axis=1, initial=np.inf)
    hit = best <= radius
    if hit.any():
        np.testing.assert_array_equal(dist[hit], best[hit])
        np.testing.assert_array_equal(idx[hit], full[hit].argmin(axis=1))
    assert np.all(np.isinf(dist[~hit])) and np.all(idx[~hit] == -1)
    return hit


def _check_runner_up(dist, idx, runner, full, radius):
    """The runner-up search against a full distance matrix: the nearest
    as in _check_nearest, then the second least distance, ties counted,
    capped at the radius, for each query that has a nearest."""
    hit = _check_nearest(dist, idx, full, radius)
    second = np.sort(full, axis=1)[:, 1] if full.shape[1] > 1 \
        else np.full(full.shape[0], np.inf)
    np.testing.assert_array_equal(runner[hit], np.minimum(second[hit], radius))
    assert np.all(np.isinf(runner[~hit]))


# latitudes up to 0.01 degree from the pole, and clouds that straddle
# the antimeridian (centred on 180)
@pytest.mark.parametrize("lat0", [0.0, 25.3, -47.0, 80.0, 89.5, 89.9, 89.99])
def test_nearest_within_matches_brute_force(lat0):
    rng = np.random.default_rng(int(abs(lat0) * 10))
    for lon0 in (51.0, 180.0):
        qlat, qlon = _cloud(rng, lat0, lon0, 150, 400.0)
        rlat, rlon = _cloud(rng, lat0, lon0, 120, 400.0)
        dist, idx = nearest_within(qlat, qlon, rlat, rlon, RADIUS_M)
        hit = _check_nearest(dist, idx, _brute(qlat, qlon, rlat, rlon),
                             RADIUS_M)
        assert hit.any() and not hit.all()


def _check_bands(q, r, band, full, thresholds):
    """threshold_pairs' output against a full distance matrix: every
    pair within the largest threshold once, with the band searchsorted
    gives its exact distance among the sorted thresholds, and the pairs
    of each query contiguous."""
    ts = np.sort(np.asarray(thresholds, dtype=np.float64))
    want = np.searchsorted(ts, full, "left")
    want_q, want_r = np.nonzero(want < ts.size)
    assert sorted(zip(q.tolist(), r.tolist(), band.tolist())) == \
        sorted(zip(want_q.tolist(), want_r.tolist(),
                   want[want_q, want_r].tolist()))
    heads = q[np.flatnonzero(np.diff(q, prepend=-1))]
    assert np.unique(heads).size == heads.size


@pytest.mark.parametrize("lat0", [0.0, 25.3, 80.0, 89.5, 89.9, 89.99])
def test_pairs_within_matches_brute_force(lat0):
    rng = np.random.default_rng(7)
    for lon0 in (-12.0, 180.0):
        qlat, qlon = _cloud(rng, lat0, lon0, 80, 100.0)
        rlat, rlon = _cloud(rng, lat0, lon0, 90, 100.0)
        full = _brute(qlat, qlon, rlat, rlon)
        for thresholds in ((RADIUS_M,), (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)):
            q, r, band = threshold_pairs(qlat, qlon, rlat, rlon, thresholds)
            assert q.size
            _check_bands(q, r, band, full, thresholds)


def test_points_exactly_at_the_radius_are_kept():
    lat = np.array([25.0])
    lon = np.array([51.0])
    other_lat = np.array([25.0 + 30.0 / 110800.0])
    d = float(vincenty_m_many(lat, lon, other_lat, lon)[0])
    dist, idx = nearest_within(lat, lon, other_lat, lon, d)
    assert dist[0] == d and idx[0] == 0
    below, above = np.nextafter(d, 0.0), np.nextafter(d, np.inf)
    for thresholds, band in (([d], 0), ([above, d], 0), ([d, below], 1),
                             ([below, above], 1), ([5.0, d, d, 40.0], 1)):
        q, r, b = threshold_pairs(lat, lon, other_lat, lon, thresholds)
        assert (q.tolist(), r.tolist(), b.tolist()) == ([0], [0], [band])
    assert threshold_pairs(lat, lon, other_lat, lon, [below])[0].size == 0


def test_empty_inputs():
    e = np.empty(0)
    dist, idx = nearest_within(e, e, np.array([1.0]), np.array([1.0]), 10.0)
    assert dist.size == 0 and idx.size == 0
    one = np.array([1.0])
    for args in ((one, one, e, e), (e, e, one, one), (e, e, e, e)):
        q, r, band = threshold_pairs(*args, [5.0, 10.0])
        assert q.size == r.size == band.size == 0
        # indices in the smallest type of the larger point count, bands
        # in that of the threshold count: here 1 point and 2 thresholds
        assert q.dtype == r.dtype == band.dtype == np.uint8


@pytest.mark.parametrize("refs, index_type", [(255, np.uint8), (256, np.uint16),
                                              (65_535, np.uint16),
                                              (65_536, np.uint32)])
def test_index_types_at_their_boundaries(refs, index_type):
    # 16 references near the queries, half at each end of the index
    # range, and one on a query, so the largest index is paired. The
    # rest lie about 5.5 km north, beyond every threshold, and are left
    # out of the brute-force matrix, whose columns for them read inf
    rng = np.random.default_rng(refs)
    qlat, qlon = _cloud(rng, 25.3, 51.0, 12, 40.0)
    rlat, rlon = _cloud(rng, 25.35, 51.0, refs, 40.0)
    near = np.r_[0:8, refs - 8:refs]
    rlat[near], rlon[near] = _cloud(rng, 25.3, 51.0, near.size, 40.0)
    rlat[-1], rlon[-1] = qlat[0], qlon[0]
    full = np.full((qlat.size, refs), np.inf)
    full[:, near] = _brute(qlat, qlon, rlat[near], rlon[near])
    thresholds = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    q, r, band = threshold_pairs(qlat, qlon, rlat, rlon, thresholds)
    assert q.dtype == r.dtype == index_type and band.dtype == np.uint8
    assert r.max() == refs - 1
    _check_bands(q, r, band, full, thresholds)


def _columns_around(col, n):
    """The columns of a 3x3 neighborhood in a row of n, each once."""
    return ((col - 1) % n, col % n, (col + 1) % n) if n >= 3 else range(n)


def _brute_nearest(positions, lat, lon, radius_m, headings=None,
                   heading=0.0, tolerance=180.0):
    """The nearest position's item within radius_m, ties to the lowest
    item, or -1: every item checked with Vincenty. With headings (item
    -> heading), only the items within tolerance of heading count."""
    best = (math.inf, -1)
    for item in sorted(positions):
        if headings is not None and \
                angle_diff_deg(headings[item], heading) > tolerance:
            continue
        d = vincenty_m(lat, lon, *positions[item])
        if d <= radius_m and (d, item) < best:
            best = (d, item)
    return best[1]


# offsets in meters on a 2.5 m lattice, so equal positions (exact ties)
# and near-equal distances are common; the span covers the 3x3 cells
_offset = st.tuples(st.integers(-24, 24), st.integers(-24, 24)).map(
    lambda ne: (ne[0] * 2.5, ne[1] * 2.5))


def _place(lat0, lon0, north_m, east_m):
    """Position about (north_m, east_m) from (lat0, lon0), wrapped."""
    lat = min(lat0 + north_m / 111000.0, 89.99)
    return lat, wrap_lon(lon0 + east_m / (111000.0 * math.cos(math.radians(lat0))))


_lat0 = st.one_of(st.floats(0.0, 89.5), st.sampled_from([89.9, 89.95, 89.99]))
_lon0 = st.sampled_from([-180.0, -179.9999, 0.0, 51.0, 179.9999])
# few headings, so equal combined distances occur too
_sited = st.tuples(_offset, st.sampled_from([0.0, 45.0, 180.0]))
# headings around the circle, 45 degrees apart and across north, so a
# difference lands on each sampled tolerance and across the wrap
_heading = st.sampled_from([0.0, 45.0, 90.0, 180.0, 225.0, 315.0, 359.5])


@settings(max_examples=300)
@given(lat0=_lat0, south=st.booleans(), lon0=_lon0,
       queries=st.lists(_sited, min_size=1, max_size=15),
       refs=st.lists(_sited, max_size=25), on_boundary=st.booleans())
def test_batch_kernel_matches_brute_force(lat0, south, lon0, queries, refs,
                                          on_boundary):
    if south:
        lat0 = -lat0

    def columns(sited):
        pos = [_place(lat0, lon0, n, e) for (n, e), _ in sited]
        return (np.array([p[0] for p in pos]), np.array([p[1] for p in pos]),
                np.array([h for _, h in sited]))

    qlat, qlon, qh = columns(queries)
    rlat, rlon, rh = columns(refs)
    full = _brute(qlat, qlon, rlat, rlon)
    radius = 20.0
    if on_boundary and rlat.size and 0.0 < full[0, -1] <= radius:
        # a radius exactly at some pair's distance keeps that pair
        radius = float(full[0, -1])
    _check_nearest(*nearest_within(qlat, qlon, rlat, rlon, radius), full,
                   radius)
    _check_bands(*threshold_pairs(qlat, qlon, rlat, rlon, [radius]), full,
                 [radius])
    # the k-means form: a heading term in quadrature
    theta = 40.0
    combined = np.hypot(full, theta * angle_diff_deg_many(
        qh[:, None], rh[None, :]) / 180.0)
    cells = _QueryCells(qlat, qlon, radius)
    # the nearest search and its runner-up, with and without the
    # heading term
    _check_runner_up(*cells.nearest(rlat, rlon), full, radius)
    _check_runner_up(*cells.nearest(rlat, rlon, (qh, rh, theta)), combined,
                     radius)
    # max_around: the largest value among the references of the 3x3
    # neighborhood, which holds every reference within the cell size
    value = np.arange(1.0, rlat.size + 1.0)
    top = cells.max_around(rlat, rlon, value)
    (qrow, qcol), (rrow, rcol) = (np.divmod(cells._keys(la, lo), cells.ncols)
                                  for la, lo in ((qlat, qlon), (rlat, rlon)))
    for q in range(qlat.size):
        around = [v for v, r, c in zip(value, rrow, rcol)
                  if abs(r - qrow[q]) <= 1
                  and c in _columns_around(qcol[q], cells.ncols)]
        assert top[q] == max(around, default=0.0)
        assert top[q] >= max(value[full[q] <= radius], default=0.0)


# thresholds drawn from a few values, so that unsorted and duplicate
# lists are common; some are set at a pair's distance or next to it
_thresholds = st.lists(st.sampled_from([2.5, 5.0, 7.5, 12.0, 20.0, 25.0]),
                       min_size=1, max_size=6)


@settings(max_examples=300)
@given(lat0=_lat0, south=st.booleans(), lon0=_lon0,
       queries=st.lists(_offset, max_size=15),
       refs=st.lists(_offset, max_size=25), thresholds=_thresholds,
       at_pairs=st.lists(st.tuples(st.integers(0, 14), st.integers(0, 24),
                                   st.sampled_from([-1, 0, 1])), max_size=4))
def test_threshold_bands_match_brute_force(lat0, south, lon0, queries, refs,
                                           thresholds, at_pairs):
    if south:
        lat0 = -lat0

    def columns(offsets):
        pos = [_place(lat0, lon0, n, e) for n, e in offsets]
        return (np.array([p[0] for p in pos], dtype=np.float64),
                np.array([p[1] for p in pos], dtype=np.float64))

    qlat, qlon = columns(queries)
    rlat, rlon = columns(refs)
    full = _brute(qlat, qlon, rlat, rlon)
    for i, j, step in at_pairs if full.size else ():
        # a threshold at a pair's distance, or the float next to it
        d = full[i % qlat.size, j % rlat.size]
        if 0.0 < d <= 25.0:
            thresholds = thresholds + [float(
                d if step == 0 else np.nextafter(d, step * np.inf))]
    _check_bands(*threshold_pairs(qlat, qlon, rlat, rlon, thresholds), full,
                 thresholds)


def _searches(qlat, qlon, rlat, rlon, qh, rh, radius):
    """Every batch search on one input, and the seed selection and
    k-means of clustering on the queries, as a flat list of arrays."""
    cells = _QueryCells(qlat, qlon, radius)
    value = np.arange(1.0, rlat.size + 1.0)
    # headings over 30 degrees, so that about 60 of 150 points seed and
    # k-means runs four iterations
    pts = PointArrays(qlat, qlon, qh / 12.0, np.full(qlat.size, 30.0),
                      np.zeros(qlat.size))
    cfg = ClusterConfig(seed_radius_cr=radius)
    sid = select_seed_indices(pts, cfg)
    cents, assign, costs = kmeans_arrays(pts, qlat[sid], qlon[sid],
                                         pts.heading[sid], cfg)
    return [*nearest_within(qlat, qlon, rlat, rlon, radius),
            *threshold_pairs(qlat, qlon, rlat, rlon, [radius / 3, radius]),
            *cells.nearest(rlat, rlon), *cells.nearest(rlat, rlon, (qh, rh, 40.0)),
            cells.max_around(rlat, rlon, value),
            sid, cents["lat"], cents["lon"], cents["heading"], assign,
            np.asarray(costs)]


@pytest.mark.parametrize("lat0,lon0", [(25.3, 51.0), (-47.0, 180.0),
                                       (89.99, 51.0)])
def test_chunk_boundaries_change_no_result(lat0, lon0, monkeypatch):
    # the default budget holds these pairs in one chunk; budgets of 1, 7
    # and 100 pairs end a chunk after every cell or every few cells.
    # Seed selection screens a block against the seeds before it in
    # batch, so blocks of 16 points make it chunk too
    monkeypatch.setattr(clustering, "_SEED_BLOCK", 16)
    rng = np.random.default_rng(3)
    qlat, qlon = _cloud(rng, lat0, lon0, 150, 200.0)
    rlat, rlon = _cloud(rng, lat0, lon0, 120, 200.0)
    qh, rh = rng.uniform(0.0, 360.0, 150), rng.uniform(0.0, 360.0, 120)
    want = _searches(qlat, qlon, rlat, rlon, qh, rh, RADIUS_M)
    cells = _QueryCells(qlat, qlon, RADIUS_M)
    assert len(list(cells._chunks(rlat, rlon))) == 1
    for budget in (1, 7, 100):
        monkeypatch.setattr(spatial, "_PAIR_BUDGET", budget)
        assert len(list(cells._chunks(rlat, rlon))) > 1
        got = _searches(qlat, qlon, rlat, rlon, qh, rh, RADIUS_M)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("lat0,lon0", [(0.0, 180.0), (-33.0, -179.99999),
                                       (89.99995, 51.0), (-89.9999, 180.0)])
def test_tiny_cells_match_brute_force(lat0, lon0):
    # the TOPO start match: a 1 m radius on a 0.25 m lattice, about one
    # query per cell, with exact ties and coincident points
    rng = np.random.default_rng(11)
    steps = np.arange(-16, 17) * 0.25
    north, east = (g.ravel() for g in np.meshgrid(steps, steps))
    lat = lat0 + north / 111_000.0
    lon = np.array([wrap_lon(lon0 + e / (111_000.0 * math.cos(math.radians(a))))
                    for e, a in zip(east, lat)])
    q = rng.random(lat.size) < 0.3
    r = rng.random(lat.size) < 0.05
    qlat, qlon, rlat, rlon = lat[q], lon[q], lat[r], lon[r]
    full = _brute(qlat, qlon, rlat, rlon)
    hit = _check_nearest(*nearest_within(qlat, qlon, rlat, rlon, 1.0), full,
                         1.0)
    assert hit.any() and not hit.all()
    _check_bands(*threshold_pairs(qlat, qlon, rlat, rlon, [0.25, 0.5, 1.0]),
                 full, [0.25, 0.5, 1.0])


def test_tiny_cells_over_a_wide_extent():
    # 0.1 mm cells over 10 degrees of latitude: row * ncols would pass
    # int64, so the cells take fewer, wider columns
    rng = np.random.default_rng(5)
    qlat, qlon = rng.uniform(20.0, 30.0, 50), rng.uniform(-180.0, 180.0, 50)
    rlat = np.append(qlat + 3e-10, rng.uniform(20.0, 30.0, 20))
    rlon = np.append(qlon, rng.uniform(-180.0, 180.0, 20))
    cells = _QueryCells(qlat, qlon, 1e-4)
    assert (cells.nrows + 1) * cells.ncols < np.iinfo(np.int64).max
    full = _brute(qlat, qlon, rlat, rlon)
    hit = _check_nearest(*nearest_within(qlat, qlon, rlat, rlon, 1e-4), full,
                         1e-4)
    assert hit.all()
    _check_bands(*threshold_pairs(qlat, qlon, rlat, rlon, [1e-4]), full, [1e-4])


def test_threshold_bands_next_to_the_pole():
    # pairs along a meridian next to the pole, 0.01 mm to 100 m long,
    # where the upper bound meets the distance to within rounding, with a
    # threshold at the distance, just below it or just above it
    for north in np.logspace(-9, -3, 49):
        for frac in (0.1, 0.45, 0.9):
            for lon in (51.0, -179.9):
                lat, other = 90.0 - north, 90.0 - north * (1.0 + frac)
                d = float(vincenty_m_many(lat, lon, other, lon))
                for t in (np.nextafter(d, 0.0), d * (1.0 - 1e-9), d,
                          np.nextafter(d, np.inf)):
                    ts = [t / 2.0, t, 2.0 * t]
                    q, r, band = threshold_pairs([lat], [lon], [other],
                                                 [lon], ts)
                    assert band.tolist() == [int(np.searchsorted(ts, d))]


def _record(lat, lon, heading=0.0):
    """A record GridIndex can index: a node of the online map."""
    return clustering.ClusterCentroid(lat, lon, heading)


def _move(record, lat, lon):
    record.lat, record.lon = lat, lon


def _grid(cell_m, positions, tolerance_deg=180.0, headings=None):
    """A GridIndex over records at positions, inserted in order, each
    with its heading of headings (0 by default). The tolerance of 180
    makes every item compatible with every query."""
    headings = headings or [0.0] * len(positions)
    index = GridIndex(cell_m, [_record(*p, h) for p, h in
                               zip(positions, headings)], tolerance_deg)
    for item in range(len(positions)):
        index.insert(item)
    return index


class TestGridIndex:
    CELL_M = 20.0

    @settings(max_examples=300)
    @given(lat0=_lat0,
           south=st.booleans(),
           lon0=_lon0,
           inserts=st.lists(st.tuples(_offset, _heading), min_size=1,
                            max_size=25),
           moves=st.lists(st.tuples(st.integers(0, 24), _offset), max_size=10),
           tolerance=st.sampled_from([180.0, 90.0, 45.0, 1e-9]),
           queries=st.lists(st.tuples(_offset, _heading, st.sampled_from(
               ["cell", "at", "inside", "outside", "mm"])),
                            min_size=1, max_size=6))
    def test_nearest_matches_brute_force(self, lat0, south, lon0, inserts,
                                         moves, tolerance, queries):
        if south:
            lat0 = -lat0
        records = []
        index = GridIndex(self.CELL_M, records, tolerance)
        positions, headings = {}, [h for _, h in inserts]
        for item, ((n, e), h) in enumerate(inserts):
            positions[item] = _place(lat0, lon0, n, e)
            records.append(_record(*positions[item], h))
            index.insert(item)
        for item, (n, e) in moves:
            if item in positions:
                positions[item] = _place(lat0, lon0, n, e)
                _move(records[item], *positions[item])
                index.move(item)
        # every item is in exactly one cell
        assert sorted(i for cell in index._cells.values() for i in cell) == \
            sorted(positions)
        for (n, e), heading, radius_at in queries:
            lat, lon = _place(lat0, lon0, n, e)
            radius = self.CELL_M
            # a radius exactly at some item's distance keeps that item,
            # and one a hair inside or outside it decides by its side
            d = vincenty_m(lat, lon, *positions[len(inserts) // 2])
            scale = {"at": 1.0, "inside": 1.0 - 1e-7, "outside": 1.0 + 1e-7}
            if radius_at in scale and 0.0 < d * scale[radius_at] <= self.CELL_M:
                radius = d * scale[radius_at]
            elif radius_at == "mm":
                radius = 1e-3
            # an index answers within its cell size: another radius
            # takes an index of its own over the same positions
            at = index if radius == self.CELL_M else _grid(
                radius, [positions[i] for i in range(len(positions))],
                tolerance, headings)
            assert at.nearest(lat, lon, heading) == _brute_nearest(
                positions, lat, lon, radius, headings, heading, tolerance)

    def test_found_far_from_the_first_inserted_latitude(self):
        # the first insert at the equator must not fix the longitude
        # scale: at 60 N a node 18 m east of the query is in the radius
        index = _grid(self.CELL_M, [(0.0, 0.0), (60.0, 10.0)])
        east = 18.0 / (111000.0 * math.cos(math.radians(60.0)))
        missed = 0
        for i in range(200):
            lon = 10.0 + i * 1.7e-5
            _move(index._records[1], 60.0, lon + east)
            index.move(1)
            missed += index.nearest(60.0, lon, 0.0) != 1
        assert missed == 0

    def test_columns_wrap_at_the_antimeridian(self):
        index = _grid(self.CELL_M, [(10.0, 179.99995), (10.0, 0.0)])
        assert vincenty_m(10.0, -179.99995, 10.0, 179.99995) < self.CELL_M
        assert index.nearest(10.0, -179.99995, 0.0) == 0

    def test_rows_near_the_pole(self):
        # whole-circle rows hold only a few columns; none is scanned twice
        index = _grid(self.CELL_M, [(89.99995, 0.0), (89.99995, 120.0)])
        assert sorted(index.candidates(89.99995, -120.0)) == [0, 1]
        assert index.nearest(89.99995, -120.0, 0.0) == \
            _brute_nearest({0: (89.99995, 0.0), 1: (89.99995, 120.0)},
                           89.99995, -120.0, self.CELL_M)

    def test_ties_go_to_the_lowest_item(self):
        # item 0 leaves and rejoins the cell, so it is scanned last
        index = _grid(self.CELL_M, [(25.0, 51.0)] * 3)
        _move(index._records[0], 25.001, 51.0)
        index.move(0)
        _move(index._records[0], 25.0, 51.0)
        index.move(0)
        assert index.candidates(25.0, 51.0) == [1, 2, 0]
        assert index.nearest(25.0, 51.00001, 0.0) == 0

    def test_skips_items_of_another_heading(self):
        # the opposite lane's item lies 1 m off, a same-way item 15 m
        # off; a nearer item that is skipped must not narrow the screen
        pos = [_place(25.0, 51.0, 1.0, 0.0), _place(25.0, 51.0, 15.0, 0.0)]
        index = _grid(self.CELL_M, pos, 45.0, [180.0, 10.0])
        assert index.nearest(25.0, 51.0, 0.0) == 1
        assert index.nearest(25.0, 51.0, 180.0) == 0
        # a difference of exactly the tolerance is compatible
        assert index.nearest(25.0, 51.0, 325.0) == 1
        assert index.nearest(25.0, 51.0, 324.0) == -1
        # at 180 degrees every item is compatible: the nearest wins
        assert _grid(self.CELL_M, pos, 180.0,
                     [180.0, 10.0]).nearest(25.0, 51.0, 0.0) == 0

    def test_ties_go_to_the_lowest_compatible_item(self):
        index = _grid(self.CELL_M, [(25.0, 51.0)] * 4, 45.0,
                      [180.0, 90.0, 350.0, 20.0])
        assert index.nearest(25.0, 51.00001, 0.0) == 2
        assert index.nearest(25.0, 51.00001, 100.0) == 1
        assert _grid(self.CELL_M, [(25.0, 51.0)] * 4, 180.0,
                     [180.0, 90.0, 350.0, 20.0]).nearest(
                         25.0, 51.00001, 0.0) == 0

    def test_none_when_only_other_headings_are_within_the_radius(self):
        pos = [_place(25.0, 51.0, n, 0.0) for n in (2.0, -5.0, 25.0)]
        index = _grid(self.CELL_M, pos, 45.0, [180.0, 90.0, 0.0])
        assert index.nearest(25.0, 51.0, 0.0) == -1
        assert _grid(self.CELL_M, pos, 180.0,
                     [180.0, 90.0, 0.0]).nearest(25.0, 51.0, 0.0) == 0

    def test_vincenty_only_where_the_bounds_leave_it_open(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return vincenty_m(*args)

        monkeypatch.setattr(spatial, "vincenty_m", counted)
        index = _grid(self.CELL_M, [
            _place(25.0, 51.0, n, e) for n, e in
            [(5.0, 0.0), (0.0, 15.0), (-12.0, -9.0), (40.0, 0.0), (0.0, -18.0)]])
        pos = {i: (r.lat, r.lon) for i, r in enumerate(index._records)}
        lat, lon = 25.0, 51.0
        # one candidate is left, well inside: no exact distance
        assert index.nearest(lat, lon, 0.0) == 0
        assert calls == []
        # the one left is outside by its lower bound: item 0 lies due
        # north, so L is its latitude step at M_PER_DEG_LAT_MIN
        low = (pos[0][0] - lat) * spatial.M_PER_DEG_LAT_MIN
        radius = low / 1.0005
        assert low <= 1.001 * radius    # within the screen's slack
        assert _grid(radius, list(pos.values())).nearest(lat, lon, 0.0) == -1
        assert calls == []
        # the one left sits at the radius
        d = vincenty_m(lat, lon, *pos[0])
        assert _grid(d, list(pos.values())).nearest(lat, lon, 0.0) == 0
        assert len(calls) == 1
        # two candidates whose bounds overlap
        calls.clear()
        pos[5] = _place(25.0, 51.0, 0.0, 5.0)
        index._records.append(_record(*pos[5]))
        index.insert(5)
        assert index.nearest(lat, lon, 0.0) == \
            _brute_nearest(pos, lat, lon, self.CELL_M)
        assert len(calls) == 2
