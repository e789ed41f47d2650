"""Lat/lon bucket grids for radius-bounded neighbor queries.

The batch searches (nearest_within, pairs_within) bucket both point
sets on one grid. Its cells are sized in meters, with a longitude scale
that is safe over the data's whole latitude range. GridIndex, the
incremental index, gives each grid row its own longitude scale and a
whole number of columns around the globe, so it is safe at any latitude
and wraps at the antimeridian. Both screen candidates with planar
bounds on the geodesic distance and run exact Vincenty only on the
candidates that can still win.
"""
from __future__ import annotations

import math

import numpy as np

from .geo import (
    EARTH_A,
    EARTH_B,
    M_PER_DEG_LAT,
    M_PER_DEG_LAT_MIN,
    vincenty_m,
    vincenty_m_many,
)

# below this the lon/deg scale would blow up; data this close to a pole
# is out of scope anyway
_MIN_COS = 0.01
# the meridian and prime-vertical radii of curvature never exceed a^2/b,
# so no degree of latitude, nor of longitude on the equator, is longer
M_PER_DEG_MAX = EARTH_A * EARTH_A / EARTH_B * math.pi / 180.0


def bound_scales(lat: float, radius_m: float) -> tuple[float, float, float, float]:
    """Meters per degree (lat_lo, lon_lo, lat_hi, lon_hi) that bound the
    geodesic distance d from (lat, lon) to (lat + dlat, lon + dlon), for
    dlon taken the short way round:

        L = hypot(dlat * lat_lo, dlon * lon_lo) <= d  whenever d <= radius_m
        U = hypot(dlat * lat_hi, dlon * lon_hi) >= d  whenever |dlat| <= w

    with the band half width w = 1.001 * radius_m / M_PER_DEG_LAT_MIN
    degrees. L <= radius_m implies |dlat| <= w, so U holds for every
    point that L does not rule out.

    L: a path of length d <= radius_m stays within w of lat. In that
    band a degree of latitude is at least M_PER_DEG_LAT_MIN meters and a
    degree of longitude at least M_PER_DEG_LAT * cos(outer band edge),
    so the path is no shorter than the planar distance under those
    scales. U: the straight segment in (lat, lon) is never shorter than
    the geodesic. Along it |lat| stays above the inner band edge, a
    degree of latitude is at most M_PER_DEG_MAX and a degree of
    longitude at most M_PER_DEG_MAX * cos(inner band edge).
    """
    w = 1.001 * radius_m / M_PER_DEG_LAT_MIN
    a = abs(lat)
    return (M_PER_DEG_LAT_MIN,
            M_PER_DEG_LAT * math.cos(math.radians(min(a + w, 90.0))),
            M_PER_DEG_MAX,
            M_PER_DEG_MAX * math.cos(math.radians(max(a - w, 0.0))))


def safe_lon_scale(lats) -> float:
    """Scale that never undersizes a cell anywhere in the data's range."""
    a = np.asarray(lats, dtype=np.float64)
    if a.size == 0:
        return M_PER_DEG_LAT * max(_MIN_COS, math.cos(math.radians(45.0)))
    hi = float(np.max(np.abs(a)))
    return M_PER_DEG_LAT * max(math.cos(math.radians(min(hi, 89.9))), _MIN_COS)


def cell_arrays(lat, lon, cell_m: float, lon_m_per_deg: float):
    """Integer (row, col) cell coordinates for arrays of positions.

    Rows use the minimum meters-per-degree so a cell is never narrower
    than cell_m anywhere; a 3x3 neighborhood then always covers cell_m.
    """
    rows = np.floor(np.asarray(lat, dtype=np.float64) * (M_PER_DEG_LAT_MIN / cell_m)).astype(np.int64)
    cols = np.floor(np.asarray(lon, dtype=np.float64) * (lon_m_per_deg / cell_m)).astype(np.int64)
    return rows, cols


def bucket_map(rows: np.ndarray, cols: np.ndarray) -> dict:
    """Map (row, col) -> array of item indices in that cell."""
    order = np.lexsort((cols, rows))
    r, c = rows[order], cols[order]
    if r.size == 0:
        return {}
    change = np.nonzero((r[1:] != r[:-1]) | (c[1:] != c[:-1]))[0] + 1
    starts = np.concatenate(([0], change, [r.size]))
    out = {}
    for i in range(starts.size - 1):
        s = starts[i]
        out[(int(r[s]), int(c[s]))] = order[s:starts[i + 1]]
    return out


def gather_3x3(buckets: dict, row: int, col: int) -> np.ndarray:
    """Concatenated indices of the 3x3 cell neighborhood (may be empty)."""
    parts = []
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            b = buckets.get((row + dr, col + dc))
            if b is not None:
                parts.append(b)
    if not parts:
        return np.empty(0, dtype=np.int64)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


def _candidate_chunks(qlat, qlon, rlat, rlon, radius_m: float,
                      pair_budget: int):
    """Yield (pq, pr, lens): query/reference index pairs from each
    query's 3x3 cell neighborhood, in chunks of about pair_budget pairs.
    Pairs of one query are contiguous; lens holds each query's count."""
    scale = min(safe_lon_scale(qlat), safe_lon_scale(rlat))
    rr, rc = cell_arrays(rlat, rlon, radius_m, scale)
    buckets = bucket_map(rr, rc)
    qr, qc = cell_arrays(qlat, qlon, radius_m, scale)

    # group queries by cell so candidate sets are shared
    order = np.lexsort((qc, qr))
    gr, gc = qr[order], qc[order]
    change = np.nonzero((gr[1:] != gr[:-1]) | (gc[1:] != gc[:-1]))[0] + 1
    starts = np.concatenate(([0], change, [qlat.size]))

    buf_q, buf_r, buf_len = [], [], []
    pending = 0
    for i in range(starts.size - 1):
        grp = order[starts[i]:starts[i + 1]]
        cand = gather_3x3(buckets, int(gr[starts[i]]), int(gc[starts[i]]))
        if cand.size == 0:
            continue
        buf_q.append(np.repeat(grp, cand.size))
        buf_r.append(np.tile(cand, grp.size))
        buf_len.extend([cand.size] * grp.size)
        pending += grp.size * cand.size
        if pending >= pair_budget:
            yield np.concatenate(buf_q), np.concatenate(buf_r), np.asarray(buf_len)
            buf_q, buf_r, buf_len = [], [], []
            pending = 0
    if buf_q:
        yield np.concatenate(buf_q), np.concatenate(buf_r), np.asarray(buf_len)


def _gated_dist(qlat, qlon, rlat, rlon, radius_m: float) -> np.ndarray:
    """Vincenty distance of each pair, or inf where a lower bound
    already exceeds radius_m.

    A path of length <= radius_m stays in the latitude band of half
    width radius_m / M_PER_DEG_LAT_MIN around the query. In that band a
    degree of latitude is at least M_PER_DEG_LAT_MIN meters and a
    degree of longitude at least M_PER_DEG_LAT * cos(band edge), so the
    planar distance under those scales never exceeds the geodesic one.
    """
    band = np.minimum(np.abs(qlat) + radius_m / M_PER_DEG_LAT_MIN, 90.0)
    ns = (qlat - rlat) * M_PER_DEG_LAT_MIN
    ew = (qlon - rlon) * (M_PER_DEG_LAT * np.cos(np.radians(band)))
    near = ns * ns + ew * ew <= (radius_m * 1.001) ** 2
    d = np.full(qlat.size, np.inf)
    d[near] = vincenty_m_many(qlat[near], qlon[near], rlat[near], rlon[near])
    return d


def nearest_within(qlat, qlon, rlat, rlon, radius_m: float,
                   pair_budget: int = 2_000_000):
    """Nearest reference point within radius_m of each query point.

    Returns (dist, idx) arrays; unmatched queries get (inf, -1); ties
    go to the lowest reference index. Work is bucketed on a grid of cell
    size radius_m so only a 3x3 neighborhood is examined per query, in
    chunks bounded by pair_budget.
    """
    qlat = np.asarray(qlat, dtype=np.float64)
    qlon = np.asarray(qlon, dtype=np.float64)
    rlat = np.asarray(rlat, dtype=np.float64)
    rlon = np.asarray(rlon, dtype=np.float64)
    nq = qlat.size
    dist = np.full(nq, np.inf)
    idx = np.full(nq, -1, dtype=np.int64)
    if nq == 0 or rlat.size == 0:
        return dist, idx

    for pq, pr, lens in _candidate_chunks(qlat, qlon, rlat, rlon,
                                          radius_m, pair_budget):
        d = _gated_dist(qlat[pq], qlon[pq], rlat[pr], rlon[pr], radius_m)
        seg = np.concatenate(([0], np.cumsum(lens)[:-1]))
        dmin = np.minimum.reduceat(d, seg)
        heads = pq[seg]
        take = d == np.repeat(dmin, lens)
        cand = np.where(take, pr, np.iinfo(np.int64).max)
        imin = np.minimum.reduceat(cand, seg)
        ok = dmin <= radius_m
        dist[heads[ok]] = dmin[ok]
        idx[heads[ok]] = imin[ok]
    return dist, idx


def pairs_within(qlat, qlon, rlat, rlon, radius_m: float,
                 pair_budget: int = 2_000_000):
    """Every (query, reference) pair at most radius_m apart.

    Returns (q, r, dist) arrays sorted by query, then distance, then
    reference index, so the first pair of a query is its nearest_within
    match. Searching a subset of the references is then a scan of the
    pairs whose reference is in it, with no distance recomputed.
    """
    qlat = np.asarray(qlat, dtype=np.float64)
    qlon = np.asarray(qlon, dtype=np.float64)
    rlat = np.asarray(rlat, dtype=np.float64)
    rlon = np.asarray(rlon, dtype=np.float64)
    out_q, out_r, out_d = [], [], []
    if qlat.size and rlat.size:
        for pq, pr, _ in _candidate_chunks(qlat, qlon, rlat, rlon,
                                           radius_m, pair_budget):
            d = _gated_dist(qlat[pq], qlon[pq], rlat[pr], rlon[pr], radius_m)
            ok = d <= radius_m
            out_q.append(pq[ok]); out_r.append(pr[ok]); out_d.append(d[ok])
    if not out_q:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0))
    q, r, d = np.concatenate(out_q), np.concatenate(out_r), np.concatenate(out_d)
    order = np.lexsort((r, d, q))
    return q[order], r[order], d[order]


class GridIndex:
    """Incremental point index for within-radius nearest queries.

    Rows are cell_m / M_PER_DEG_LAT_MIN degrees of latitude high. Each
    row splits the circle of longitude into a whole number of columns,
    each at least 1.001 * cell_m wide at the most poleward latitude of
    the row and its two neighbours. A 3x3 neighborhood then holds every
    item within cell_m at any latitude, and columns wrap at the
    antimeridian. The index keeps each item's position, set by insert
    and move.
    """

    def __init__(self, cell_m: float):
        self.cell_m = float(cell_m)
        self._row_deg = self.cell_m / M_PER_DEG_LAT_MIN
        self._rows: dict[int, tuple[int, float]] = {}  # row -> (columns, degrees each)
        self._cells: dict[tuple[int, int], list[int]] = {}
        self._keys: dict[int, tuple[int, int]] = {}
        self._pos: dict[int, tuple[float, float]] = {}

    def __len__(self) -> int:
        return len(self._pos)

    def _columns(self, row: int) -> tuple[int, float]:
        got = self._rows.get(row)
        if got is None:
            edge = min(max(abs(row - 1), abs(row + 2)) * self._row_deg, 90.0)
            n = max(1, int(360.0 * M_PER_DEG_LAT * math.cos(math.radians(edge))
                           / (1.001 * self.cell_m)))
            got = self._rows[row] = (n, 360.0 / n)
        return got

    def _key(self, lat: float, lon: float) -> tuple[int, int]:
        row = math.floor(lat / self._row_deg)
        n, width = self._columns(row)
        return row, math.floor((lon + 180.0) / width) % n

    def insert(self, item: int, lat: float, lon: float) -> None:
        key = self._key(lat, lon)
        self._cells.setdefault(key, []).append(item)
        self._keys[item] = key
        self._pos[item] = (lat, lon)

    def move(self, item: int, lat: float, lon: float) -> None:
        """Record an item's new position, re-bucketing it if needed."""
        self._pos[item] = (lat, lon)
        old = self._keys.get(item)
        key = self._key(lat, lon)
        if old == key:
            return
        if old is not None:
            cell = self._cells[old]
            cell.remove(item)
            if not cell:
                del self._cells[old]
        self._cells.setdefault(key, []).append(item)
        self._keys[item] = key

    def candidates(self, lat: float, lon: float) -> list[int]:
        """Items in the 3x3 neighborhood of the position's cell."""
        row = math.floor(lat / self._row_deg)
        x = lon + 180.0
        out = []
        for r in (row - 1, row, row + 1):
            n, width = self._columns(r)
            c = math.floor(x / width)
            for cc in ((c - 1, c, c + 1) if n >= 3 else range(n)):
                got = self._cells.get((r, cc % n))
                if got:
                    out.extend(got)
        return out

    def nearest(self, lat: float, lon: float,
                radius_m: float) -> tuple[float, int]:
        """(distance, item) of the nearest item within radius_m, or
        (inf, -1); ties go to the lowest item. Requires radius_m <= cell_m.

        Vincenty runs only on candidates that can still win: the lower
        bound L of bound_scales must be within radius_m (with the 0.1%
        slack of _gated_dist, so rounding never drops a point at the
        radius) and no larger than the least upper bound U among them.
        A candidate whose L exceeds another's U is strictly farther.
        """
        lat_lo, lon_lo, lat_hi, lon_hi = bound_scales(lat, radius_m)
        gate = (1.001 * radius_m) ** 2
        pos = self._pos
        near = []
        u_min = math.inf
        for item in self.candidates(lat, lon):
            plat, plon = pos[item]
            dlat = plat - lat
            dlon = plon - lon
            if dlon > 180.0:
                dlon -= 360.0
            elif dlon < -180.0:
                dlon += 360.0
            a, b = dlat * lat_lo, dlon * lon_lo
            lo = a * a + b * b
            if lo > gate:
                continue
            a, b = dlat * lat_hi, dlon * lon_hi
            hi = a * a + b * b
            if hi < u_min:
                u_min = hi
            near.append((lo, item, plat, plon))
        best_d, best_i = math.inf, -1
        for lo, item, plat, plon in near:
            if lo > u_min:
                continue
            d = vincenty_m(lat, lon, plat, plon)
            if d < best_d or (d == best_d and item < best_i):
                best_d, best_i = d, item
        if best_d > radius_m:
            return math.inf, -1
        return best_d, best_i
