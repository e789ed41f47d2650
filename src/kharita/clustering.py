"""Location+heading clustering of GPS fixes into road-node centroids.

Seeds are picked greedily in input order so that no two seeds sit within
the clustering radius of each other under the combined distance; k-means
then refines them with arithmetic-mean position updates and circular-mean
heading updates; clusters mixing distinct travel directions are split.

k-means searches again, each iteration, only the points whose centroid
can change. Every point keeps a lower bound on its distance to all other
centroids (Hamerly, SDM 2010), lowered by the drift of the centroids
near it (the local bound of Yinyang k-means, Ding et al., ICML 2015).
The assignments, centroids and costs are exactly those of searching
every point.
"""
from __future__ import annotations

import logging
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .config import Checked, within
from .geo import (
    GpsPoint,
    angle_diff_deg,
    angle_diff_deg_many,
    circular_mean_deg,
    combined_distance_m,
    combined_distance_m_many,
    heading_variability_deg,
    lon_delta_many,
    wrap_lon,
    wrap_lon_many,
)
from .spatial import GridIndex, _QueryCells, scalar_margins

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ClusterConfig(Checked):
    seed_radius_cr: float = within("(0, inf)", 20.0)    # meters
    # meters per half-turn; 2*cr when None
    heading_weight_theta: float | None = within("[0, inf)", None)
    split_threshold_deg: float = within("(0, 180]", 10.0)
    convergence_ratio: float = within("(0, inf]", 1e-4)     # inf: one update
    max_iterations: int = within("[1, inf)", 100)

    @property
    def theta(self) -> float:
        return 2.0 * self.seed_radius_cr if self.heading_weight_theta is None \
            else self.heading_weight_theta


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


# points screened at a time against the seeds chosen before them, in
# select_seed_indices
_SEED_BLOCK = 4096


def _covered(pts: PointArrays, block: slice, seeds: np.ndarray,
             cr: float, theta: float) -> np.ndarray:
    """Whether each point of the block lies within cr of one of the
    seeds in combined distance, by one batch screen: a pair is a hit
    when its U is under the hit margin of threshold_margins and a miss
    when its L >= rho * U is over the miss margin; the combined distance
    settles the rest."""
    hit2, miss2 = scalar_margins(cr)
    qlat, qlon, qh = pts.lat[block], pts.lon[block], pts.heading[block]
    slat, slon, sh = pts.lat[seeds], pts.lon[seeds], pts.heading[seeds]
    cells = _QueryCells(qlat, qlon, cr)
    out = np.zeros(qlat.size, dtype=bool)
    for pq, pr, lens, u, inv_rho2 in cells._upper(slat, slon, (qh, sh, theta)):
        out[pq[u < hit2]] = True
        # the pairs neither bound decides
        open_ = (u >= hit2) & (u <= miss2 * np.repeat(inv_rho2, lens))
        for q, r in zip(pq[open_].tolist(), pr[open_].tolist()):
            if not out[q] and combined_distance_m(
                    qlat[q], qlon[q], qh[q], slat[r], slon[r], sh[r],
                    theta) < cr:
                out[q] = True
    return out


def select_seed_indices(pts: PointArrays, cfg: ClusterConfig) -> np.ndarray:
    """Greedy scan in input order; a point becomes a seed only if every
    existing seed is at least seed_radius_cr away in combined distance.

    The points go in blocks of _SEED_BLOCK. One batch screen (_covered)
    finds the points of a block within cr of a seed chosen before the
    block began. The others go through the scalar greedy in input order,
    against a GridIndex of cell cr that holds the block's own seeds:
    its screen yields the seeds that can lie within cr with planar
    bounds L <= dg <= U, and hypot(L, ha) over the miss margin is no
    hit, hypot(U, ha) under the hit margin is one. The exact combined
    distance runs only in between. Both screens take the margins of
    spatial.threshold_margins, so every decision is that of exact
    distances and the seeds do not depend on the block size.
    """
    cr = cfg.seed_radius_cr
    theta = cfg.theta
    hit2, miss2 = scalar_margins(cr)
    # views index to plain floats, without copying the columns to lists
    lat, lon, hdg = (memoryview(np.ascontiguousarray(a, dtype=np.float64))
                     for a in (pts.lat, pts.lon, pts.heading))
    seeds: list[int] = []
    for start in range(0, pts.n, _SEED_BLOCK):
        block = slice(start, min(start + _SEED_BLOCK, pts.n))
        todo = np.arange(block.start, block.stop)
        if seeds:
            todo = todo[~_covered(pts, block, np.asarray(seeds), cr, theta)]
        index = GridIndex(cr)
        for i in todo.tolist():
            la = lat[i]; lo = lon[i]; h = hdg[i]
            for lo2, hi2, j, plat, plon in index.screened(la, lo, cr):
                ha = theta * angle_diff_deg(hdg[j], h) / 180.0
                ha2 = ha * ha
                if lo2 + ha2 > miss2:
                    continue
                if (hi2 + ha2 < hit2 or combined_distance_m(
                        la, lo, h, plat, plon, hdg[j], theta) < cr):
                    break
            else:
                seeds.append(i)
                index.insert(i, la, lo)
    return np.asarray(seeds, dtype=np.int64)


class _Assigner:
    """Nearest live centroid of points under the combined distance, and
    a lower bound on their distance to every other live centroid.

    All the points are grouped by grid cell once, with cells of
    cr + theta; a call on a subset groups its points afresh. Each call
    runs the nearest search of spatial on the live centroids, with the
    heading term theta * (heading difference) / 180 added in quadrature
    to its bounds, and exact distances in the combined metric. A 3x3
    neighborhood holds every centroid within the cell size, so it
    certifies any minimum within it, and the runner-up bound is capped
    at the cell size; the points without a minimum there get an exact
    scan over every live centroid, whose second least is their bound.
    """

    def __init__(self, pts: PointArrays, cfg: ClusterConfig):
        self.pts = pts
        self.theta = cfg.theta
        self.cells = _QueryCells(pts.lat, pts.lon, cfg.seed_radius_cr + self.theta)

    def __call__(self, clat, clon, chdg, alive: np.ndarray, which=None):
        """(assign, dist, lower) of the points `which` (every point when
        None): nearest live centroid, distance to it, and a lower bound
        on the distance to any other live centroid."""
        live = np.nonzero(alive)[0]
        if live.size == 0:
            raise ValueError("no live centroids to assign to")
        clat, clon, chdg = clat[live], clon[live], chdg[live]
        pts = self.pts
        if which is None:
            lat, lon, hdg, cells = pts.lat, pts.lon, pts.heading, self.cells
        else:
            lat, lon, hdg = pts.lat[which], pts.lon[which], pts.heading[which]
            cells = _QueryCells(lat, lon, self.cells.cell_m)
        dist, near, lower = cells.nearest(clat, clon, (hdg, chdg, self.theta))
        for i in np.nonzero(near < 0)[0]:
            d = combined_distance_m_many(lat[i], lon[i], hdg[i], clat, clon,
                                         chdg, self.theta)
            near[i] = np.argmin(d)
            dist[i] = d[near[i]]
            d[near[i]] = np.inf
            lower[i] = d.min()
        return live[near], dist, lower


def _centroid_stats(pts: PointArrays, assign: np.ndarray, k: int):
    """Per-cluster aggregates; clusters are rows 0..k-1 of the outputs.
    A cluster whose longitudes span more than 180 degrees straddles the
    antimeridian: it averages their deltas from 180, then wraps."""
    counts = np.bincount(assign, minlength=k)
    safe = np.maximum(counts, 1)
    lat = np.bincount(assign, weights=pts.lat, minlength=k) / safe
    lon = np.bincount(assign, weights=pts.lon, minlength=k) / safe
    if np.ptp(pts.lon) > 180.0:
        lo = np.full(k, np.inf)
        hi = np.full(k, -np.inf)
        np.minimum.at(lo, assign, pts.lon)
        np.maximum.at(hi, assign, pts.lon)
        seam = hi - lo > 180.0
        if seam.any():
            off = np.bincount(assign, weights=lon_delta_many(180.0, pts.lon),
                              minlength=k) / safe
            lon[seam] = wrap_lon_many(180.0 + off[seam])
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


# relative margin of the bound test, as in spatial.threshold_margins.
# It is taken of the cell size at least: the bound sums distances and
# drifts whose rounding is absolute, about a nanometer each
_BOUND_MARGIN = 1e-6


def kmeans_arrays(pts: PointArrays, seed_lat, seed_lon, seed_hdg,
                  cfg: ClusterConfig):
    """Lloyd iterations under the combined distance.

    Returns (centroid arrays dict, assignments, costs). Assignments are
    consistent with the returned centroid state; empty clusters are
    dropped and ids compacted in seed order.

    Every point keeps a lower bound on its distance to every centroid
    other than its own. The combined distance is a metric, so when the
    centroids drift the bound falls by at most the largest drift among
    the centroids that were in the point's 3x3 neighborhood, and stays
    at least the cell size less the largest drift of all, as the other
    centroids were farther than the cell size. A point nearer its own
    centroid than its bound, by a margin above rounding, keeps it and
    cannot tie; only the others are searched again.
    """
    assigner = _Assigner(pts, cfg)
    cells = assigner.cells
    k = seed_lat.size
    clat = np.array(seed_lat, dtype=np.float64)
    clon = np.array(seed_lon, dtype=np.float64)
    chdg = np.array(seed_hdg, dtype=np.float64)
    alive = np.ones(k, dtype=bool)
    costs: list[float] = []
    best = None   # (clat, clon, chdg, alive, assign, dist, cost)

    assign, dist, lower = assigner(clat, clon, chdg, alive)
    for it in range(cfg.max_iterations):
        if it:
            # the update moved the centroids from (olat, olon, ohdg)
            moved = (clat != olat) | (clon != olon) | (chdg != ohdg)
            drift = np.zeros(k)
            drift[moved] = combined_distance_m_many(
                olat[moved], olon[moved], ohdg[moved],
                clat[moved], clon[moved], chdg[moved], cfg.theta)
            lower = np.minimum(lower - cells.max_around(olat, olon, drift),
                               cells.cell_m - drift.max())
            dist = dist.copy()
            stale = np.nonzero(moved[assign])[0]
            own = assign[stale]
            dist[stale] = combined_distance_m_many(
                pts.lat[stale], pts.lon[stale], pts.heading[stale],
                clat[own], clon[own], chdg[own], cfg.theta)
            slack = _BOUND_MARGIN * np.maximum(lower, cells.cell_m)
            redo = np.nonzero(dist >= lower - slack)[0]
            assign = assign.copy()
            assign[redo], dist[redo], lower[redo] = assigner(
                clat, clon, chdg, alive, redo)
        cost = float(dist @ dist)
        costs.append(cost)
        if best is not None and cost > best[6]:
            break   # an update made things worse; keep the previous state
        stop = best is not None and (best[6] - cost) < cfg.convergence_ratio * cost
        best = (clat, clon, chdg, alive, assign, dist, cost)
        if stop or cost == 0.0:
            break
        counts, nlat, nlon, nhdg = _centroid_stats(pts, assign, k)
        olat, olon, ohdg = clat, clon, chdg
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
    # members of each cluster in ascending point order, grouped once
    ends = np.cumsum(np.bincount(assign, minlength=len(clat)))
    members = np.split(np.argsort(assign, kind="stable"), ends[:-1])

    def recenter(cid, idx):
        clat[cid] = float(pts.lat[idx].mean())
        lon = pts.lon[idx]
        clon[cid] = float(lon.mean()) if np.ptp(lon) <= 180.0 \
            else wrap_lon(180.0 + float(lon_delta_many(180.0, lon).mean()))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            chdg[cid] = circular_mean_deg(pts.heading[idx])

    def too_spread(cid):
        idx = members[cid]
        return idx.size >= 2 and heading_variability_deg(
            pts.heading[idx], chdg[cid]) > cfg.split_threshold_deg

    queue = deque(cid for cid in range(len(clat)) if too_spread(cid))
    while queue:
        cid = queue.popleft()
        idx = members[cid]
        side = _two_means_headings(pts.heading[idx])
        if side is None:
            continue
        new_id = len(clat)
        clat.append(0.0); clon.append(0.0); chdg.append(0.0)
        assign[idx[side]] = new_id
        members[cid] = idx[~side]
        members.append(idx[side])
        for c in (cid, new_id):
            recenter(c, members[c])
        queue.extend(c for c in (cid, new_id) if too_spread(c))
    return (np.asarray(clat), np.asarray(clon), np.asarray(chdg)), assign
