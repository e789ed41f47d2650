"""Lat/lon grids for radius-bounded neighbor queries: one grid rule and
one screen, shared by every search.

Grid rule. Rows are cell_m / M_PER_DEG_LAT_MIN degrees of latitude high.
A row splits the circle of longitude into a whole number of columns,
each at least 1.001 * cell_m wide at the most poleward latitude of the
row and its two neighbours (_column_count). A 3x3 neighborhood then
holds every point within cell_m at any latitude. Columns wrap at the
antimeridian, and a row of fewer than three columns is scanned whole.
GridIndex, the incremental index of the online mode, gives each row its
own count, reads each item's position and heading from the record it
indexes and answers within its cell size, the online clustering radius,
among the items within its heading tolerance of the query.
The batch searches (nearest_within, threshold_pairs, seed selection and
k-means assignment, all through _QueryCells) give every row the count
of the most poleward row their queries reach, so the columns of
neighbouring rows line up and a 3x3 neighborhood is 9 cells.
There a cell's key is row * ncols + col, and _QueryCells keeps its
queries as sorted keys over a stable argsort: one searchsorted of the
nine neighbour keys of every query cell into the sorted keys of the
references finds all the candidates, and np.repeat plus a ramp
(segments) lays out the pairs, with no loop over cells.

Screen. bound_scales gives planar bounds L <= d <= U on the geodesic
distance d. A candidate is kept only if its L is within the radius. A
batch nearest search also drops a candidate whose L exceeds the
second-least U among its query's candidates: it is strictly farther
than two others, so the survivors hold the two smallest exact
distances, the nearest and the runner-up that k-means needs. Exact
Vincenty runs on the survivors alone, and ties go to the lowest index.
_QueryCells.nearest is the batch form of the screen. The scalar
GridIndex.nearest needs the nearest heading-compatible item alone: one
pass over the candidates keeps the compatible ones whose L is within
the least U seen so far, and when one is left its bounds against the
margins of threshold_margins settle whether it is within the radius;
Vincenty runs only when several are left or the one left straddles the
radius. Seed selection lists every pair within its radius: a pair whose
U is under the hit margin is in, one whose L is over the miss margin is
out, and the exact distance, in the array form k-means measures with,
settles the rest. threshold_pairs asks only which of several thresholds
each pair meets, so a pair gets an exact distance only when a threshold
lies between its L and U. It keeps every pair it finds, so it returns
them in the smallest unsigned types that hold them: an index in that of
the larger point count, a band in that of the threshold count.

Chunks. A batch search screens its pairs _PAIR_BUDGET at a time, so its
temporaries stay small however many pairs a call has: the first
k-means assignment of an offline city has a few million. A chunk's
per-query arrays are built with the chunk, not for every query at once.
The chunk size changes no result, as each query's pairs are kept in one
chunk. With k-means measuring its moved points in blocks, budgets of
2^14, 2^15, 2^16 and 2^17 pairs peaked at 66.1-66.2, 66.9-67.9,
69.0-69.1 and 72.0-72.4 MB RSS on offline_city (two seeds each, 2 vCPU
Xeon, numpy 2.4.6); eval_topo peaked at 51.8 MB at 2^15 and 53.9 at
2^17. k-means on city 0 took a median 1.14, 1.03 and 1.07 s at 2^14,
2^15 and 2^17 pairs (16 interleaved passes). 2^15 is the smallest
budget that does not slow k-means; 2^14 saves about 1 MB more.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .geo import (
    EARTH_A,
    EARTH_B,
    M_PER_DEG_LAT,
    M_PER_DEG_LAT_MIN,
    angle_diff_deg,
    angle_diff_deg_many,
    combined_distance_m_many,
    lon_delta,
    lon_delta_many,
    vincenty_m,
    vincenty_m_many,
)

# the meridian and prime-vertical radii of curvature never exceed a^2/b,
# so no degree of latitude, nor of longitude on the equator, is longer
M_PER_DEG_MAX = EARTH_A * EARTH_A / EARTH_B * math.pi / 180.0
# query/reference pairs screened at a time by the batch searches. A
# chunk makes about ten int64/float64 temporaries of its length: 2.6 MB
# at 2^15 pairs. At 2^17 pairs they set the peak of k-means and of an
# offline pass (72 MB RSS, against 67), and at 2M pairs they took
# 160 MB, at no gain in speed (see Chunks in the docstring)
_PAIR_BUDGET = 1 << 15
_INT_MAX = np.iinfo(np.int64).max
# the relative margin of every screen and bound test: Vincenty and the
# planar bounds round by about a nanometer, a relative 1e-6 of a
# millimetre. threshold_margins adds 1e-6 m to it; k-means takes it of
# its bounds
REL_MARGIN = 1e-6


def bound_scales(lat: float, radius_m: float) -> tuple[float, float, float, float]:
    """Meters per degree (lat_lo, lon_lo, lat_hi, lon_hi) that bound the
    geodesic distance d from (lat, lon) to (lat + dlat, lon + dlon), for
    dlon taken the short way round (geo.lon_delta):

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


def _column_count(row: int, row_deg: float, cell_m: float) -> int:
    """Columns around the circle in a grid row: each is at least
    1.001 * cell_m wide at the most poleward latitude of the row and its
    two neighbours, where a path of cell_m from the row can reach."""
    edge = min(max(abs(row - 1), abs(row + 2)) * row_deg, 90.0)
    return max(1, int(360.0 * M_PER_DEG_LAT * math.cos(math.radians(edge))
                      / (1.001 * cell_m)))


def segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions start, start + 1, ..., start + count - 1 of every
    segment, one segment after another."""
    at = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    at += np.arange(at.size)
    return at


class _QueryCells:
    """Query points grouped by cell once, for batch searches within
    cell_m against any set of reference points.

    The grid has one column count, that of the most poleward row the
    queries reach (see the module docstring). A cell's key is
    row * ncols + col, with rows counted from the row below the lowest
    query row, so the keys sort by row, then column. The queries are
    held in a stable argsort of their keys, and each query cell keeps
    the keys of the cells of its 3x3 neighbourhood: rows row-1..row+1,
    each with columns col-1..col+1 wrapped, or the whole row when it
    has fewer than three columns.
    """

    def __init__(self, lat, lon, cell_m: float):
        self.lat = np.asarray(lat, dtype=np.float64)
        self.lon = np.asarray(lon, dtype=np.float64)
        self.cell_m = float(cell_m)
        self.row_deg = self.cell_m / M_PER_DEG_LAT_MIN
        ends = [math.floor(a / self.row_deg)
                for a in (self.lat.min(), self.lat.max())] \
            if self.lat.size else [0, 0]
        # neighbour rows are 0..nrows-1; a reference elsewhere is put in
        # row -1 or nrows, which no query looks at. Fewer, wider columns
        # keep every key inside int64 on tiny cells
        self.row0 = ends[0] - 1
        self.nrows = ends[1] - self.row0 + 2
        self.ncols = min(min(_column_count(r, self.row_deg, self.cell_m)
                             for r in ends),
                         max(1, _INT_MAX // 2 // (self.nrows + 1)))
        key = self._keys(self.lat, self.lon)
        self.order = np.argsort(key, kind="stable")
        key = key[self.order]
        heads = np.flatnonzero(np.diff(key, prepend=-1))
        # per query cell: its first position in order, the keys of its
        # neighbourhood and the bound scales of its row (see _chunks)
        self.starts = np.append(heads, key.size)
        n = self.ncols
        row, col = np.divmod(key[heads], n)
        cols = (col[:, None] + np.array([-1, 0, 1])) % n if n >= 3 \
            else np.broadcast_to(np.arange(n), (col.size, n))
        self.around = ((row[:, None] + np.array([-1, 0, 1]))[:, :, None] * n
                       + cols[:, None, :]).reshape(col.size, 3 * cols.shape[1])
        rows, self.cell_row = np.unique(row, return_inverse=True)
        self.lon_hi = np.empty(rows.size)
        self.inv_rho2 = np.empty(rows.size)
        for i, r in enumerate(rows.tolist()):
            lat_lo, lon_lo, lat_hi, lon_hi = bound_scales(
                (r + self.row0 + 0.5) * self.row_deg, 1.5 * self.cell_m)
            rho = min(lat_lo / lat_hi, lon_lo / lon_hi)
            self.lon_hi[i] = lon_hi
            self.inv_rho2[i] = 1.0 / (rho * rho)

    def _keys(self, lat, lon):
        """Each point's cell key, rows counted from row0."""
        rows = np.floor(lat / self.row_deg).astype(np.int64) - self.row0
        cols = np.floor((lon + 180.0) / (360.0 / self.ncols)).astype(np.int64)
        return np.clip(rows, -1, self.nrows) * self.ncols + cols % self.ncols

    def _around(self, rlat, rlon):
        """(order, heads, at): the references in a stable argsort of their
        keys, the first position in it of each reference cell, and per
        query cell and neighbour the index of that reference cell in
        heads, or heads.size where no reference lies."""
        key = self._keys(np.asarray(rlat, dtype=np.float64),
                         np.asarray(rlon, dtype=np.float64))
        order = np.argsort(key, kind="stable")
        key = key[order]
        heads = np.flatnonzero(np.diff(key, prepend=np.int64(-2) * self.ncols))
        keys = key[heads]
        at = np.searchsorted(keys, self.around)
        at[np.append(keys, 0)[at] != self.around] = keys.size
        return order, heads, at

    def _chunks(self, rlat, rlon):
        """Yield (pq, pr, lens, lon_hi, inv_rho2): the query/reference
        pairs of each query's 3x3 neighborhood, about _PAIR_BUDGET at a
        time with the pairs of a query contiguous, and per query its
        number of pairs and the bound scales of its row. The queries
        come by cell, in key order, and a cell's references by
        neighbour, then by index; a chunk ends after the first cell that
        brings it to _PAIR_BUDGET pairs.

        Each row takes bound_scales at its middle latitude with a band of
        1.5 * cell_m: that covers the rows row-1..row+1, which hold every
        candidate and every path of cell_m from a query of the row, so
        L and U hold for all of its pairs. rho is the smaller ratio of
        lower to upper scale, so that L >= rho * U.
        """
        order, heads, at = self._around(rlat, rlon)
        size = np.append(np.diff(heads, append=order.size), 0)[at]
        # every cell's candidates, one cell after another
        cand = order[segments(np.append(heads, 0)[at].ravel(), size.ravel())]
        size = size.sum(axis=1)
        first = np.cumsum(size) - size
        # the cells with candidates, their queries, and the pairs before
        # each of them
        busy = np.flatnonzero(size)
        members = np.diff(self.starts)[busy]
        pairs = np.append(0, np.cumsum(members * size[busy]))
        done = 0
        while done < busy.size:
            stop = min(int(np.searchsorted(pairs, pairs[done] + _PAIR_BUDGET)),
                       busy.size)
            # per query of the chunk's cells, its candidates' first
            # position in cand and their number
            cells, m = busy[done:stop], members[done:stop]
            n = np.repeat(size[cells], m)
            row = np.repeat(self.cell_row[cells], m)
            yield (np.repeat(self.order[segments(self.starts[cells], m)], n),
                   cand[segments(np.repeat(first[cells], m), n)],
                   n, self.lon_hi[row], self.inv_rho2[row])
            done = stop

    def _upper(self, rlat, rlon, heading=None):
        """Yield (pq, pr, lens, u, inv_rho2) per chunk of _chunks, with u
        each pair's squared upper bound U^2. Each pair gets one planar
        distance, its U, and rho * U stands in for L.

        heading=(qh, rh, theta) bounds the combined metric of geo
        instead: its heading term theta * (heading difference) / 180
        adds to U in quadrature, and L >= rho * U still holds.
        """
        qlat, qlon = self.lat, self.lon
        for pq, pr, lens, lon_hi, inv_rho2 in self._chunks(rlat, rlon):
            # squared U, in place; lat_hi is M_PER_DEG_MAX in every band
            u = qlat[pq]
            u -= rlat[pr]
            u *= M_PER_DEG_MAX
            u *= u
            dlon = qlon[pq]
            lon_delta_many(rlon[pr], dlon, out=dlon)
            dlon *= np.repeat(lon_hi, lens)
            dlon *= dlon
            u += dlon
            del dlon
            if heading is not None:
                qh, rh, theta = heading
                ha = angle_diff_deg_many(qh[pq], rh[pr])
                ha *= theta / 180.0
                ha *= ha
                u += ha
                del ha
            yield pq, pr, lens, u, inv_rho2

    def nearest(self, rlat, rlon, heading=None):
        """(dist, idx, runner): each query's nearest reference within
        cell_m, or (inf, -1), with ties to the lowest reference index;
        and for each query with a nearest, a lower bound on its distance
        to every other reference. That is the second-least distance in
        its 3x3 neighborhood, capped at cell_m: every reference outside
        the neighborhood is farther than cell_m. runner is inf for the
        queries without a nearest. heading is as in _upper.

        Exact distances run only on the pairs whose L is within the gate
        and their query's second-least U: a dropped pair is farther than
        both smallest-U candidates, so the survivors hold the two
        smallest distances."""
        rlat = np.asarray(rlat, dtype=np.float64)
        rlon = np.asarray(rlon, dtype=np.float64)
        qlat, qlon = self.lat, self.lon
        gate = (1.001 * self.cell_m) ** 2
        dist = np.full(self.lat.size, np.inf)
        idx = np.full(self.lat.size, -1, dtype=np.int64)
        runner = np.full(self.lat.size, np.inf)
        for pq, pr, lens, u, inv_rho2 in self._upper(rlat, rlon, heading):
            # the second-least U: set the first least U of each query
            # aside
            starts = np.cumsum(lens) - lens
            least_u = np.minimum.reduceat(u, starts)
            at = np.flatnonzero(u == np.repeat(least_u, lens))
            at = at[np.searchsorted(at, starts)]
            u[at] = np.inf
            bound = np.minimum(gate, np.minimum.reduceat(u, starts))
            u[at] = least_u
            keep = u <= np.repeat(bound * inv_rho2, lens)
            del u
            pq, pr = pq[keep], pr[keep]
            if heading is None:
                d = vincenty_m_many(qlat[pq], qlon[pq], rlat[pr], rlon[pr])
            else:
                qh, rh, theta = heading
                d = combined_distance_m_many(qlat[pq], qlon[pq], qh[pq],
                                             rlat[pr], rlon[pr], rh[pr], theta)
            first = np.flatnonzero(np.diff(pq, prepend=-1))
            lens = np.diff(first, append=pq.size)
            dmin = np.minimum.reduceat(d, first)
            is_min = d == np.repeat(dmin, lens)
            imin = np.minimum.reduceat(np.where(is_min, pr, _INT_MAX), first)
            ok = dmin <= self.cell_m
            heads = pq[first[ok]]
            dist[heads] = dmin[ok]
            idx[heads] = imin[ok]
            # a reference is paired with a query once, so this drops
            # only the nearest pair
            d[pr == np.repeat(imin, lens)] = np.inf
            second = np.minimum.reduceat(d, first)[ok]
            runner[heads] = np.minimum(second, self.cell_m)
        return dist, idx, runner

    def max_around(self, rlat, rlon, value):
        """Per query, the largest of the non-negative values of the
        references in its 3x3 neighborhood, or 0 where it holds none."""
        order, heads, at = self._around(rlat, rlon)
        top = np.zeros(heads.size + 1)
        if heads.size:
            top[:-1] = np.maximum.reduceat(
                np.asarray(value, dtype=np.float64)[order], heads)
        out = np.empty(self.lat.size)
        out[self.order] = np.repeat(top[at].max(axis=1), np.diff(self.starts))
        return out


def nearest_within(qlat, qlon, rlat, rlon, radius_m: float):
    """Nearest reference point within radius_m of each query point.

    Returns (dist, idx) arrays; unmatched queries get (inf, -1); ties
    go to the lowest reference index. Both sets are put on a grid
    of cell size radius_m, so only a 3x3 neighborhood is examined per
    query.
    """
    return _QueryCells(qlat, qlon, radius_m).nearest(rlat, rlon)[:2]


def threshold_margins(threshold):
    """Squared (hit, miss) margins of a distance threshold, or of an
    array of them: a pair whose upper bound U has U^2 under hit is within
    the threshold, and one whose lower bound L has L^2 over miss is
    beyond it. Each widens the threshold by REL_MARGIN relative and
    1e-6 m: Vincenty and the bounds round by about a nanometer, over
    1e-6 of a pair under a millimetre."""
    t = np.asarray(threshold, dtype=np.float64)
    return (np.maximum(t / (1.0 + REL_MARGIN) - 1e-6, 0.0) ** 2,
            (t / (1.0 - REL_MARGIN) + 1e-6) ** 2)


@functools.lru_cache(maxsize=64)
def scalar_margins(threshold: float) -> tuple[float, float]:
    """threshold_margins of one threshold, as floats, for the scalar
    screens that ask it once per query."""
    hit2, miss2 = threshold_margins(threshold)
    return float(hit2), float(miss2)


def threshold_pairs(qlat, qlon, rlat, rlon, thresholds):
    """Every (query, reference) pair at most the largest threshold
    apart, with its band: the index of the least threshold at or above
    its distance among the sorted thresholds (searchsorted "left"), so
    a pair meets sorted threshold k exactly when its band is <= k.

    Returns (q, r, band) arrays with the pairs of each query contiguous:
    q and r in np.min_scalar_type of the larger point count, band in
    that of the threshold count, each chunk cast as it is kept.
    A pair whose bounds L and U fall in the same band, with the margins
    of threshold_margins, takes that band; exact Vincenty runs only on
    the pairs that straddle a threshold.
    """
    ts = np.sort(np.asarray(thresholds, dtype=np.float64))
    cells = _QueryCells(qlat, qlon, ts[-1])
    rlat = np.asarray(rlat, dtype=np.float64)
    rlon = np.asarray(rlon, dtype=np.float64)
    hi2, lo2 = threshold_margins(ts)
    itype = np.min_scalar_type(max(cells.lat.size, rlat.size))
    btype = np.min_scalar_type(ts.size)
    out = [(np.empty(0, itype), np.empty(0, itype), np.empty(0, btype))]
    for pq, pr, lens, u, inv_rho2 in cells._upper(rlat, rlon):
        l2 = u / np.repeat(inv_rho2, lens)
        keep = l2 <= lo2[-1]
        pq, pr, u, l2 = pq[keep], pr[keep], u[keep], l2[keep]
        band = np.searchsorted(hi2, u)
        exact = np.flatnonzero(band != np.searchsorted(lo2, l2))
        e_q, e_r = pq[exact], pr[exact]
        band[exact] = np.searchsorted(ts, vincenty_m_many(
            cells.lat[e_q], cells.lon[e_q], rlat[e_r], rlon[e_r]))
        keep = band < ts.size
        out.append((pq[keep].astype(itype), pr[keep].astype(itype),
                    band[keep].astype(btype)))
    return tuple(np.concatenate(x) for x in zip(*out))


class GridIndex:
    """The online index: incremental, for nearest queries within its
    cell size cell_m among the items whose heading is within
    tolerance_deg of the query's, on the grid rule of the module
    docstring with each row's own column count. It holds no position
    and no heading: item i is records[i], at that record's lat and lon
    and with its heading_deg, and items are inserted in order. A cell's
    key is row * stride + col, with stride the column count of row 0,
    which no row exceeds.
    """

    def __init__(self, cell_m: float, records: list, tolerance_deg: float):
        self.cell_m = float(cell_m)
        self.tolerance_deg = float(tolerance_deg)
        self._row_deg = self.cell_m / M_PER_DEG_LAT_MIN
        self._stride = _column_count(0, self._row_deg, self.cell_m)
        # row -> (columns, degrees each, key of its column 0)
        self._rows: dict[int, tuple[int, float, int]] = {}
        self._cells: dict[int, list[int]] = {}
        self._records = records
        self._keys: list[int] = []    # by item
        # the screen of nearest: L^2 is kept within this, and the hit and
        # miss margins of cell_m settle a lone survivor
        self._gate = (1.001 * self.cell_m) ** 2
        self._hit2, self._miss2 = scalar_margins(self.cell_m)

    def _row(self, row: int) -> tuple[int, float, int]:
        got = self._rows.get(row)
        if got is None:
            n = _column_count(row, self._row_deg, self.cell_m)
            got = self._rows[row] = (n, 360.0 / n, row * self._stride)
        return got

    def _key(self, lat: float, lon: float) -> int:
        n, width, base = self._row(math.floor(lat / self._row_deg))
        return base + math.floor((lon + 180.0) / width) % n

    def insert(self, item: int) -> None:
        """Index records[item], the next item in order."""
        r = self._records[item]
        key = self._key(r.lat, r.lon)
        self._cells.setdefault(key, []).append(item)
        self._keys.append(key)

    def move(self, item: int) -> None:
        """Re-bucket an item after its record moved, if it changed cell."""
        r = self._records[item]
        key = self._key(r.lat, r.lon)
        old = self._keys[item]
        if old == key:
            return
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
        rows, cells = self._rows, self._cells
        out = []
        for r in (row - 1, row, row + 1):
            n, width, base = rows.get(r) or self._row(r)
            if n < 3:
                for c in range(base, base + n):
                    got = cells.get(c)
                    if got:
                        out += got
                continue
            c = math.floor(x / width) % n
            got = cells.get(base + c - 1 if c else base + n - 1)
            if got:
                out += got
            got = cells.get(base + c)
            if got:
                out += got
            got = cells.get(base + c + 1 if c + 1 < n else base)
            if got:
                out += got
        return out

    def nearest(self, lat: float, lon: float, heading_deg: float) -> int:
        """The nearest item within cell_m whose heading is within
        tolerance_deg of heading_deg (geo.angle_diff_deg), or -1; ties
        go to the lowest item. An item of another heading is skipped
        however near it lies.

        One pass over the candidates keeps a compatible candidate while
        its L is within 1.001 * cell_m, a slack that keeps rounding from
        dropping a point at the radius, and the least U seen so far: one
        whose L exceeds another's U cannot win. The heading is tested
        only on the candidates whose L is within that bound, and only
        compatible ones lower it. When one candidate is left, the
        margins of threshold_margins settle it: U under the hit margin
        is inside, L over the miss margin outside. Vincenty runs only
        when several candidates are left, or the one left straddles the
        radius.
        """
        lat_lo, lon_lo, lat_hi, lon_hi = bound_scales(lat, self.cell_m)
        bound = self._gate
        records = self._records
        tolerance = self.tolerance_deg
        near = []
        for item in self.candidates(lat, lon):
            r = records[item]
            dlat = r.lat - lat
            a = dlat * lat_lo
            lo = a * a
            if lo > bound:
                continue
            dlon = lon_delta(lon, r.lon)
            b = dlon * lon_lo
            lo += b * b
            if lo <= bound and angle_diff_deg(r.heading_deg,
                                              heading_deg) <= tolerance:
                a, b = dlat * lat_hi, dlon * lon_hi
                hi = a * a + b * b
                if hi < bound:
                    bound = hi
                near.append((lo, hi, item))
        near = [c for c in near if c[0] <= bound]
        if len(near) == 1:
            lo, hi, item = near[0]
            if hi < self._hit2:
                return item
            if lo > self._miss2:
                return -1
        best_d, best_i = math.inf, -1
        for lo, hi, item in near:
            d = vincenty_m(lat, lon, records[item].lat, records[item].lon)
            if d < best_d or (d == best_d and item < best_i):
                best_d, best_i = d, item
        return best_i if best_d <= self.cell_m else -1
