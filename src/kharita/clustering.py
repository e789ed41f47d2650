"""Location+heading clustering of GPS fixes into road-node centroids.

Seeds are picked greedily in input order so that no two seeds sit within
the clustering radius of each other under the combined distance; k-means
then refines them with arithmetic-mean position updates and circular-mean
heading updates; clusters mixing distinct travel directions are split.
"""
from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geo import (
    GpsPoint,
    M_PER_DEG_LAT,
    M_PER_DEG_LAT_MIN,
    angle_diff_deg,
    angle_diff_deg_many,
    circular_mean_deg,
    heading_variability_deg,
    vincenty_m,
    vincenty_m_many,
)
from .spatial import (
    bound_scales,
    bucket_map,
    cell_arrays,
    gather_3x3,
    safe_lon_scale,
)

log = logging.getLogger(__name__)

_INT_MAX = np.iinfo(np.int64).max


@dataclass
class ClusterConfig:
    seed_radius_cr: float = 20.0          # meters
    heading_weight_theta: float | None = None   # meters per half-turn; 2*cr when None
    split_threshold_deg: float = 10.0
    convergence_ratio: float = 1e-4
    max_iterations: int = 100

    @property
    def theta(self) -> float:
        return 2.0 * self.seed_radius_cr if self.heading_weight_theta is None \
            else self.heading_weight_theta

    def validate(self) -> None:
        if self.seed_radius_cr <= 0:
            raise ValueError("seed_radius_cr must be positive")
        if self.heading_weight_theta is not None and self.heading_weight_theta < 0:
            raise ValueError("heading_weight_theta must be non-negative")
        if not 0 < self.split_threshold_deg <= 180:
            raise ValueError("split_threshold_deg must be in (0, 180]")
        if self.convergence_ratio <= 0:
            raise ValueError("convergence_ratio must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class ClusterCentroid:
    """A road-node candidate: mean position, mean direction, and the
    bookkeeping carried through graph construction."""

    lat: float
    lon: float
    heading_deg: float
    support: int = 1
    max_speed_kmh: float = 0.0
    last_seen: float = 0.0
    active: bool = True


@dataclass
class PointArrays:
    """Column layout of a point set; the working format of this module."""

    lat: np.ndarray
    lon: np.ndarray
    heading: np.ndarray
    speed: np.ndarray     # nan where unknown
    ts: np.ndarray

    @property
    def n(self) -> int:
        return self.lat.size

    @classmethod
    def from_points(cls, points: list[GpsPoint]) -> "PointArrays":
        n = len(points)
        lat = np.empty(n); lon = np.empty(n); hdg = np.empty(n)
        spd = np.empty(n); ts = np.empty(n)
        for i, p in enumerate(points):
            lat[i] = p.lat; lon[i] = p.lon
            hdg[i] = p.heading_deg if p.heading_deg is not None else 0.0
            spd[i] = p.speed_kmh if p.speed_kmh is not None else np.nan
            ts[i] = p.timestamp
        return cls(lat, lon, hdg, spd, ts)


def distinct_points(pts: PointArrays) -> tuple[PointArrays, np.ndarray]:
    """Collapse exact (lat, lon, heading) duplicates, first occurrence
    order preserved. Speed and last-seen keep the group maximum.

    Returns (distinct arrays, inverse) with inverse mapping each input
    row to its distinct row.
    """
    stacked = np.stack([pts.lat, pts.lon, pts.heading], axis=1)
    view = np.ascontiguousarray(stacked).view(
        np.dtype((np.void, stacked.dtype.itemsize * 3))).ravel()
    _, first, inverse = np.unique(view, return_index=True, return_inverse=True)
    # np.unique sorts by value; re-rank groups by first appearance
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


def select_seed_indices(pts: PointArrays, cfg: ClusterConfig) -> np.ndarray:
    """Greedy scan in input order; a point becomes a seed only if every
    existing seed is at least seed_radius_cr away in combined distance.

    The planar bounds L <= dg <= U of spatial.bound_scales settle most
    pairs: hypot(L, ha) >= cr is no hit and hypot(U, ha) < cr is one.
    Vincenty runs only in between; both tests keep a relative margin of
    1e-6, far above its rounding, so seeds are those of exact distances.
    """
    cr = cfg.seed_radius_cr
    theta = cfg.theta
    cell = cr + theta
    scale = safe_lon_scale(pts.lat)
    inv_lat = M_PER_DEG_LAT_MIN / cell
    inv_lon = scale / cell
    ang_gate = 180.0 * cr / theta if theta > 0 else 181.0
    miss2 = (cr * (1.0 + 1e-6)) ** 2
    hit2 = (cr * (1.0 - 1e-6)) ** 2

    cells: dict[tuple[int, int], list[int]] = {}
    seeds: list[int] = []
    # views index to plain floats, without copying the columns to lists
    lat, lon, hdg = (memoryview(np.ascontiguousarray(a, dtype=np.float64))
                     for a in (pts.lat, pts.lon, pts.heading))
    for i in range(pts.n):
        la = lat[i]; lo = lon[i]; h = hdg[i]
        r = int(la * inv_lat) if la >= 0 else int(math.floor(la * inv_lat))
        c = int(lo * inv_lon) if lo >= 0 else int(math.floor(lo * inv_lon))
        lat_lo, lon_lo, lat_hi, lon_hi = bound_scales(la, cr)
        hit = False
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                bucket = cells.get((r + dr, c + dc))
                if not bucket:
                    continue
                for j in bucket:
                    da = abs(hdg[j] - h) % 360.0
                    if da > 180.0:
                        da = 360.0 - da
                    if da > ang_gate:
                        continue
                    ha = theta * da / 180.0
                    ha2 = ha * ha
                    dlat = lat[j] - la
                    dlon = lon[j] - lo
                    x, y = dlat * lat_lo, dlon * lon_lo
                    if x * x + y * y + ha2 >= miss2:
                        continue
                    x, y = dlat * lat_hi, dlon * lon_hi
                    if x * x + y * y + ha2 < hit2:
                        hit = True
                        break
                    dg = vincenty_m(la, lo, lat[j], lon[j])
                    if math.hypot(dg, ha) < cr:
                        hit = True
                        break
                if hit:
                    break
            if hit:
                break
        if not hit:
            seeds.append(i)
            cells.setdefault((r, c), []).append(i)
    return np.asarray(seeds, dtype=np.int64)


def _combined_pairs(pts: PointArrays, pair_p: np.ndarray,
                    clat, clon, chdg, pair_c: np.ndarray,
                    theta: float) -> np.ndarray:
    d = vincenty_m_many(pts.lat[pair_p], pts.lon[pair_p],
                        clat[pair_c], clon[pair_c])
    da = angle_diff_deg_many(pts.heading[pair_p], chdg[pair_c])
    return np.hypot(d, theta * da / 180.0)


class _Assigner:
    """Vectorized nearest-centroid search under the combined distance.

    Points are bucketed once; per call the live centroids are bucketed
    and each point is matched against its 3x3 cell neighborhood, with an
    equirectangular prescreen (safe 2% + 2 m slack) so the exact
    geodesic runs only on near-minimal candidates. Points whose 3x3
    neighborhood cannot certify the true minimum fall back to an exact
    expanding-ring scan.
    """

    def __init__(self, pts: PointArrays, cfg: ClusterConfig,
                 pair_budget: int = 2_000_000):
        self.pts = pts
        self.cfg = cfg
        self.theta = cfg.theta
        self.cell_m = cfg.seed_radius_cr + self.theta
        self.scale = safe_lon_scale(pts.lat)
        self.pair_budget = pair_budget
        rows, cols = cell_arrays(pts.lat, pts.lon, self.cell_m, self.scale)
        order = np.lexsort((cols, rows))
        r, c = rows[order], cols[order]
        if r.size:
            change = np.nonzero((r[1:] != r[:-1]) | (c[1:] != c[:-1]))[0] + 1
            starts = np.concatenate(([0], change, [r.size]))
        else:
            starts = np.array([0])
        self.groups = [(int(r[starts[g]]), int(c[starts[g]]),
                        order[starts[g]:starts[g + 1]])
                       for g in range(starts.size - 1)]
        # meters per degree of longitude at each point, for the prescreen
        self.coslat_m = M_PER_DEG_LAT * np.cos(np.radians(pts.lat))

    def __call__(self, clat, clon, chdg, alive: np.ndarray):
        pts = self.pts
        n = pts.n
        assign = np.full(n, -1, dtype=np.int64)
        adist = np.full(n, np.inf)
        live_ids = np.nonzero(alive)[0]
        if live_ids.size == 0:
            raise ValueError("no live centroids to assign to")
        crow, ccol = cell_arrays(clat[live_ids], clon[live_ids],
                                 self.cell_m, self.scale)
        buckets = bucket_map(crow, ccol)

        buf_p, buf_c, buf_len = [], [], []
        pending = 0
        no_cand: list[np.ndarray] = []

        def flush():
            nonlocal pending
            if not buf_p:
                return
            pp = np.concatenate(buf_p)
            cc = np.concatenate(buf_c)
            lens = np.asarray(buf_len)
            seg = np.concatenate(([0], np.cumsum(lens)[:-1]))
            # prescreen: equirectangular + heading, certified within 2%+2m
            dlat = (pts.lat[pp] - clat[cc]) * M_PER_DEG_LAT
            dlon = (pts.lon[pp] - clon[cc]) * self.coslat_m[pp]
            da = angle_diff_deg_many(pts.heading[pp], chdg[cc])
            eq = np.hypot(np.hypot(dlat, dlon), self.theta * da / 180.0)
            eq_min = np.minimum.reduceat(eq, seg)
            keep = eq <= np.repeat(eq_min * 1.02 + 2.0, lens)
            pp_k = pp[keep]; cc_k = cc[keep]
            lens_k = np.add.reduceat(keep.astype(np.int64), seg)
            seg_k = np.concatenate(([0], np.cumsum(lens_k)[:-1]))
            d = _combined_pairs(pts, pp_k, clat, clon, chdg, cc_k, self.theta)
            dmin = np.minimum.reduceat(d, seg_k)
            heads = pp_k[seg_k]
            is_min = d == np.repeat(dmin, lens_k)
            cand = np.where(is_min, cc_k, _INT_MAX)
            cmin = np.minimum.reduceat(cand, seg_k)
            assign[heads] = cmin
            adist[heads] = dmin
            buf_p.clear(); buf_c.clear(); buf_len.clear()
            pending = 0

        for row, col, members in self.groups:
            cand = gather_3x3(buckets, row, col)
            if cand.size == 0:
                no_cand.append(members)
                continue
            ids = live_ids[cand]
            buf_p.append(np.repeat(members, ids.size))
            buf_c.append(np.tile(ids, members.size))
            buf_len.extend([ids.size] * members.size)
            pending += members.size * ids.size
            if pending >= self.pair_budget:
                flush()
        flush()

        # exact fallback where the 3x3 window cannot certify the minimum
        unresolved = adist > self.cell_m
        if no_cand:
            unresolved[np.concatenate(no_cand)] = True
        for i in np.nonzero(unresolved)[0]:
            assign[i], adist[i] = self._ring_scan(int(i), clat, clon, chdg, buckets, live_ids)
        return assign, adist

    def _ring_scan(self, i: int, clat, clon, chdg, buckets, live_ids):
        pts = self.pts
        row = int(math.floor(pts.lat[i] * M_PER_DEG_LAT_MIN / self.cell_m))
        col = int(math.floor(pts.lon[i] * self.scale / self.cell_m))
        best_d, best_c = np.inf, -1
        ring = 0
        max_ring = 2 + int(2.0e7 / self.cell_m)
        while ring <= max_ring:
            hits = []
            if ring == 0:
                if (row, col) in buckets:
                    hits.append(buckets[(row, col)])
            else:
                for dr in range(-ring, ring + 1):
                    for dc in range(-ring, ring + 1):
                        if max(abs(dr), abs(dc)) != ring:
                            continue
                        b = buckets.get((row + dr, col + dc))
                        if b is not None:
                            hits.append(b)
            if hits:
                cand = live_ids[np.concatenate(hits)]
                d = _combined_pairs(pts, np.full(cand.size, i), clat, clon,
                                    chdg, cand, self.theta)
                j = int(np.argmin(d))
                ties = np.nonzero(d == d[j])[0]
                cid = int(cand[ties].min())
                if d[j] < best_d or (d[j] == best_d and cid < best_c):
                    best_d, best_c = float(d[j]), cid
            # cells beyond this ring are at least ring*cell away
            if best_c >= 0 and best_d <= ring * self.cell_m:
                break
            ring += 1
        return best_c, best_d


def _centroid_stats(pts: PointArrays, assign: np.ndarray, k: int):
    """Per-cluster aggregates; clusters are rows 0..k-1 of the outputs."""
    counts = np.bincount(assign, minlength=k)
    safe = np.maximum(counts, 1)
    lat = np.bincount(assign, weights=pts.lat, minlength=k) / safe
    lon = np.bincount(assign, weights=pts.lon, minlength=k) / safe
    rad = np.radians(pts.heading)
    s = np.bincount(assign, weights=np.sin(rad), minlength=k) / safe
    c = np.bincount(assign, weights=np.cos(rad), minlength=k) / safe
    hdg = np.degrees(np.arctan2(s, c)) % 360.0
    degenerate = (np.abs(s) < 1e-12) & (np.abs(c) < 1e-12) & (counts > 0)
    if degenerate.any():
        first = np.full(k, pts.n, dtype=np.int64)
        np.minimum.at(first, assign, np.arange(assign.size))
        hdg[degenerate] = pts.heading[first[degenerate]]
    return counts, lat, lon, hdg


def kmeans_arrays(pts: PointArrays, seed_lat, seed_lon, seed_hdg,
                  cfg: ClusterConfig, assigner: _Assigner | None = None):
    """Lloyd iterations under the combined distance.

    Returns (centroid arrays dict, assignments, costs). Assignments are
    consistent with the returned centroid state; empty clusters are
    dropped and ids compacted in seed order.
    """
    if assigner is None:
        assigner = _Assigner(pts, cfg)
    k = seed_lat.size
    clat = np.array(seed_lat, dtype=np.float64)
    clon = np.array(seed_lon, dtype=np.float64)
    chdg = np.array(seed_hdg, dtype=np.float64)
    alive = np.ones(k, dtype=bool)
    costs: list[float] = []
    best = None   # (clat, clon, chdg, alive, assign, dist, cost)

    for _ in range(cfg.max_iterations):
        assign, dist = assigner(clat, clon, chdg, alive)
        cost = float(dist @ dist)
        costs.append(cost)
        if best is not None and cost > best[6]:
            break   # an update made things worse; keep the previous state
        stop = best is not None and (best[6] - cost) < cfg.convergence_ratio * cost
        best = (clat, clon, chdg, alive, assign, dist, cost)
        if stop or cost == 0.0:
            break
        counts, nlat, nlon, nhdg = _centroid_stats(pts, assign, k)
        alive = counts > 0
        clat = np.where(alive, nlat, clat)
        clon = np.where(alive, nlon, clon)
        chdg = np.where(alive, nhdg, chdg)

    clat, clon, chdg, alive, assign, dist, cost = best
    counts = np.bincount(assign, minlength=k)
    keep = np.nonzero(counts > 0)[0]
    remap = np.full(k, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    assign = remap[assign]
    return {
        "lat": clat[keep], "lon": clon[keep], "heading": chdg[keep],
    }, assign, costs


def finalize_centroids(pts: PointArrays, assign: np.ndarray,
                       clat, clon, chdg) -> list[ClusterCentroid]:
    """Build centroid records with support, speed, and recency stats."""
    k = clat.size
    counts = np.bincount(assign, minlength=k)
    speed = np.zeros(k)
    has = ~np.isnan(pts.speed)
    np.maximum.at(speed, assign[has], pts.speed[has])
    seen = np.zeros(k)
    np.maximum.at(seen, assign, pts.ts)
    return [ClusterCentroid(float(clat[i]), float(clon[i]), float(chdg[i]),
                            int(counts[i]), float(speed[i]), float(seen[i]))
            for i in range(k)]


def _farthest_heading_pair(h: np.ndarray) -> tuple[int, int]:
    """Pair of indices whose circular separation is largest, found by
    probing each value's circle-opposite in a sorted copy. Deterministic
    tie handling. O(m log m)."""
    m = h.size
    order = np.lexsort((np.arange(m), h))   # by value, then original index
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
            cand = (d, -i, -j)
            if cand > (best[0], -best[1], -best[2]):
                best = (d, i, j)
    return best[1], best[2]


def _two_means_headings(h: np.ndarray) -> np.ndarray | None:
    """Binary split of headings by circular 2-means; returns a boolean
    side mask or None when no usable split exists."""
    i, j = _farthest_heading_pair(h)
    if i >= h.size or j >= h.size:
        return None
    c0, c1 = float(h[i]), float(h[j])
    if angle_diff_deg(c0, c1) == 0.0:
        return None
    side = None
    for _ in range(100):
        new_side = angle_diff_deg_many(h, c1) < angle_diff_deg_many(h, c0)
        if not new_side.any() or new_side.all():
            break
        if side is not None and np.array_equal(side, new_side):
            break
        side = new_side
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            c0 = circular_mean_deg(h[~side])
            c1 = circular_mean_deg(h[side])
    return side


def split_by_heading(pts: PointArrays, clat, clon, chdg,
                     assign: np.ndarray, cfg: ClusterConfig):
    """Split clusters whose heading spread exceeds the threshold.

    Repeats until every cluster with 2+ members has heading variability
    at or below split_threshold_deg. Splitting partitions only by
    heading; each side's full centroid state is recomputed.
    """
    clat = list(np.asarray(clat, dtype=float))
    clon = list(np.asarray(clon, dtype=float))
    chdg = list(np.asarray(chdg, dtype=float))
    assign = np.array(assign, dtype=np.int64)

    def members_of(cid):
        return np.nonzero(assign == cid)[0]

    def recenter(cid, idx):
        clat[cid] = float(pts.lat[idx].mean())
        clon[cid] = float(pts.lon[idx].mean())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            chdg[cid] = circular_mean_deg(pts.heading[idx])

    queue = [cid for cid in range(len(clat))
             if (idx := members_of(cid)).size >= 2
             and heading_variability_deg(pts.heading[idx], chdg[cid])
             > cfg.split_threshold_deg]
    while queue:
        cid = queue.pop(0)
        idx = members_of(cid)
        if idx.size < 2:
            continue
        side = _two_means_headings(pts.heading[idx])
        if side is None:
            continue
        new_id = len(clat)
        clat.append(0.0); clon.append(0.0); chdg.append(0.0)
        assign[idx[side]] = new_id
        recenter(cid, idx[~side])
        recenter(new_id, idx[side])
        for c in (cid, new_id):
            m = members_of(c)
            if m.size >= 2 and heading_variability_deg(
                    pts.heading[m], chdg[c]) > cfg.split_threshold_deg:
                queue.append(c)
    return (np.asarray(clat), np.asarray(clon), np.asarray(chdg)), assign
