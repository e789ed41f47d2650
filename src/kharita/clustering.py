"""Location+heading clustering of GPS fixes into road-node centroids.

Seeds are picked greedily in input order so that no two seeds sit within
the clustering radius of each other under the combined distance; k-means
then refines them with arithmetic-mean position updates and circular-mean
heading updates; clusters mixing distinct travel directions are split.

Seed selection asks one question, whether two points lie within the
radius, of one batch screen (_near) on the grid of spatial: block by
block, first against the seeds chosen before the block, then within it.
The greedy then runs over the pairs it lists.

k-means searches again, each iteration, only the points whose centroid
can change. Every point keeps a lower bound on its distance to all other
centroids (Hamerly, SDM 2010), lowered by the drift of the centroids
near it (the local bound of Yinyang k-means, Ding et al., ICML 2015).
A point that fails that test keeps its centroid all the same when it is
nearer than half the centroid's separation, a planar lower bound on the
centroid's distance to every other centroid (Hamerly's second test;
Elkan, ICML 2003, Lemma 1); its bound is then raised to the separation
less its distance, which the triangle inequality gives. The
assignments, centroids and costs are exactly those of searching every
point.
"""
from __future__ import annotations

import logging
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .config import Checked, within
from .geo import (
    NULL_RESULTANT,
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
from .ingest import PointArrays
from .spatial import _QueryCells, scalar_margins

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


@dataclass(slots=True)
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


def distinct_points(pts: PointArrays) -> tuple[PointArrays, np.ndarray]:
    """Collapse exact (lat, lon, heading) duplicates, first occurrence
    order preserved. Speed and last-seen keep the group maximum.

    Returns (distinct arrays, inverse) with inverse mapping each input
    row to its distinct row. Two rows repeat when each of the three
    values has the same bits, so -0.0 and 0.0 differ and a NaN repeats
    only a NaN of the same bits. One stable lexsort of the bit patterns
    puts repeats next to each other, each group's first row first. When
    no row repeats, pts itself comes back with an identity inverse: the
    only temporaries are the sort's order and one sorted key at a time.
    """
    n = pts.n
    keys = [np.asarray(a, dtype=np.float64).view(np.uint64)
            for a in (pts.heading, pts.lon, pts.lat)]
    order = np.lexsort(keys)
    # repeat[j]: sorted row j + 1 repeats sorted row j
    repeat = np.ones(max(n - 1, 0), dtype=bool)
    for key in keys:
        s = key[order]
        repeat &= s[1:] == s[:-1]
        del s
    if not repeat.any():
        return pts, np.arange(n)
    starts = np.flatnonzero(np.append(True, ~repeat))
    is_first = np.zeros(n, dtype=bool)
    is_first[order[starts]] = True
    first = np.flatnonzero(is_first)
    # groups are ranked by first appearance
    rank = np.cumsum(is_first) - 1
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.repeat(rank[order[starts]], np.diff(starts, append=n))
    k = first.size
    speed = np.full(k, -np.inf)
    has_speed = ~np.isnan(pts.speed)
    np.maximum.at(speed, inverse[has_speed], pts.speed[has_speed])
    speed[speed == -np.inf] = np.nan
    ts = np.full(k, -np.inf)
    np.maximum.at(ts, inverse, pts.ts)
    out = PointArrays(pts.lat[first], pts.lon[first], pts.heading[first], speed, ts)
    return out, inverse


# points screened at a time in select_seed_indices, against the seeds
# chosen before them and then against each other: the block also bounds
# the pair lists of _near
_SEED_BLOCK = 4096


def _near(pts: PointArrays, qi: np.ndarray, ri: np.ndarray, cr: float,
          theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (q, r) of positions in qi and ri whose points lie within
    cr of each other in combined distance, by one batch screen: a pair
    is a hit when its U is under the hit margin of threshold_margins and
    a miss when its L >= rho * U is over the miss margin; the scalar
    combined distance, query point first, settles the rest."""
    hit2, miss2 = scalar_margins(cr)
    qlat, qlon, qh = pts.lat[qi], pts.lon[qi], pts.heading[qi]
    rlat, rlon, rh = pts.lat[ri], pts.lon[ri], pts.heading[ri]
    out = [(np.empty(0, dtype=np.int64),) * 2]
    for pq, pr, lens, u, inv_rho2 in _QueryCells(qlat, qlon, cr)._upper(
            rlat, rlon, (qh, rh, theta)):
        near = u < hit2
        # the pairs neither bound decides
        at = np.flatnonzero(~near & (u <= miss2 * np.repeat(inv_rho2, lens)))
        q, r = pq[at], pr[at]
        near[at] = [combined_distance_m(*pair, theta) < cr for pair in zip(
            qlat[q].tolist(), qlon[q].tolist(), qh[q].tolist(),
            rlat[r].tolist(), rlon[r].tolist(), rh[r].tolist())]
        out.append((pq[near], pr[near]))
        # freed before the next chunk is built, which cuts the peak by a
        # quarter
        del pq, pr, u, near
    return tuple(np.concatenate(x) for x in zip(*out))


def select_seed_indices(pts: PointArrays, cfg: ClusterConfig) -> np.ndarray:
    """Greedy scan in input order; a point becomes a seed only if every
    existing seed is at least seed_radius_cr away in combined distance.

    The points go in blocks of _SEED_BLOCK, and each block takes two
    batch screens (_near). The first drops the points within cr of a
    seed chosen before the block. The second pairs the points left with
    each other, and the greedy runs in input order over each point's
    earlier neighbours: a point seeds unless one of them did. The screen
    takes the margins of spatial.threshold_margins, so every decision is
    that of exact distances and the seeds do not depend on the block
    size.
    """
    cr, theta = cfg.seed_radius_cr, cfg.theta
    seeds = np.empty(0, dtype=np.int64)
    for start in range(0, pts.n, _SEED_BLOCK):
        todo = np.arange(start, min(start + _SEED_BLOCK, pts.n))
        if seeds.size:
            todo = np.delete(todo, _near(pts, todo, seeds, cr, theta)[0])
        q, r = _near(pts, todo, todo, cr, theta)
        earlier = np.flatnonzero(r < q)
        earlier = earlier[np.argsort(q[earlier])]
        # by ascending q, every r < q is settled when q's pairs come
        seed = [True] * todo.size
        for a, b in zip(q[earlier].tolist(), r[earlier].tolist()):
            if seed[b]:
                seed[a] = False
        seeds = np.concatenate([seeds, todo[seed]])
    return seeds


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

    def separation(self, clat, clon, chdg, alive, which: np.ndarray):
        """Per centroid of `which`, a lower bound on its combined distance
        to every other live centroid, with no exact distance: the least
        rho * U over the live centroids of its 3x3 neighborhood, as in
        _QueryCells._upper, capped at the cell size, which every centroid
        outside the neighborhood exceeds."""
        live = np.nonzero(alive)[0]
        cell_m = self.cells.cell_m
        cells = _QueryCells(clat[which], clon[which], cell_m)
        sep2 = np.full(which.size, cell_m * cell_m)
        for pq, pr, lens, u, inv_rho2 in cells._upper(
                clat[live], clon[live], (chdg[which], chdg[live], self.theta)):
            u[live[pr] == which[pq]] = np.inf
            starts = np.cumsum(lens) - lens
            q = pq[starts]
            sep2[q] = np.minimum(sep2[q],
                                 np.minimum.reduceat(u, starts) / inv_rho2)
        return np.sqrt(sep2)

    def spare(self, clat, clon, chdg, alive, assign, dist, lower, slack,
              redo: np.ndarray) -> np.ndarray:
        """The points of redo that the separation test leaves to be
        searched again. A point whose dist is under half its centroid's
        separation s by its slack keeps its centroid: every other live
        centroid is at least s - dist > dist away. Its bound in lower is
        raised to s - dist less the slack, so the lower-bound test can
        settle it in the iterations that follow."""
        own = np.flatnonzero(np.bincount(assign[redo], minlength=clat.size))
        sep = np.zeros(clat.size)
        sep[own] = self.separation(clat, clon, chdg, alive, own)
        s, d, margin = sep[assign[redo]], dist[redo], slack[redo]
        search = d >= 0.5 * s - margin
        kept = redo[~search]
        lower[kept] = np.maximum(lower[kept], (s - d - margin)[~search])
        return redo[search]


def _point_terms(pts: PointArrays):
    """The per-point inputs of _centroid_stats, which no k-means
    iteration changes: the sine and cosine of every heading, and every
    longitude's delta from 180 when the longitudes span more than 180
    degrees, else None."""
    rad = np.radians(pts.heading)
    seam = lon_delta_many(180.0, pts.lon) \
        if pts.n and np.ptp(pts.lon) > 180.0 else None
    return np.sin(rad), np.cos(rad), seam


def _centroid_stats(pts: PointArrays, assign: np.ndarray, k: int, terms):
    """Per-cluster aggregates; clusters are rows 0..k-1 of the outputs.
    terms are the _point_terms of pts. A cluster whose longitudes span
    more than 180 degrees straddles the antimeridian: it averages their
    deltas from 180, then wraps."""
    sin, cos, seam_delta = terms
    counts = np.bincount(assign, minlength=k)
    safe = np.maximum(counts, 1)
    lat = np.bincount(assign, weights=pts.lat, minlength=k) / safe
    lon = np.bincount(assign, weights=pts.lon, minlength=k) / safe
    if seam_delta is not None:
        lo = np.full(k, np.inf)
        hi = np.full(k, -np.inf)
        np.minimum.at(lo, assign, pts.lon)
        np.maximum.at(hi, assign, pts.lon)
        seam = hi - lo > 180.0
        if seam.any():
            off = np.bincount(assign, weights=seam_delta, minlength=k) / safe
            lon[seam] = wrap_lon_many(180.0 + off[seam])
    s = np.bincount(assign, weights=sin, minlength=k) / safe
    c = np.bincount(assign, weights=cos, minlength=k) / safe
    hdg = np.degrees(np.arctan2(s, c)) % 360.0
    degenerate = ((np.abs(s) < NULL_RESULTANT) & (np.abs(c) < NULL_RESULTANT)
                  & (counts > 0))
    if degenerate.any():
        first = np.full(k, pts.n, dtype=np.int64)
        np.minimum.at(first, assign, np.arange(assign.size))
        hdg[degenerate] = pts.heading[first[degenerate]]
    return counts, lat, lon, hdg


# relative margin of the bound test, as in spatial.threshold_margins.
# It is taken of the cell size at least: the bound sums distances and
# drifts whose rounding is absolute, about a nanometer each
_BOUND_MARGIN = 1e-6
# points whose centroid moved that kmeans_arrays measures again at a
# time. A block makes about 36 float64 temporaries per point, 2 MB at
# 2^13: under the peak of a search chunk. Measured at once, the moved
# points of an offline city set the peak of k-means (20 MB traced)
_MOVED_BLOCK = 1 << 13


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
    cannot tie. So does one nearer than half its centroid's separation
    s (_Assigner.separation) by that margin: any other centroid is at
    least s - dist > dist away. Only the points that fail both tests
    are searched again; the bound of a point spared by the second is
    raised to s - dist less the margin (_Assigner.spare), so the first
    test settles it while the centroids stay put. The per-point terms
    of the centroid update are taken once (_point_terms), and the
    distances of the points whose centroid moved are measured
    _MOVED_BLOCK points at a time, so an iteration's temporaries do not
    grow with the points.
    """
    assigner = _Assigner(pts, cfg)
    cells = assigner.cells
    terms = _point_terms(pts)
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
            stale = np.flatnonzero(moved[assign])
            for at in range(0, stale.size, _MOVED_BLOCK):
                i = stale[at:at + _MOVED_BLOCK]
                own = assign[i]
                dist[i] = combined_distance_m_many(
                    pts.lat[i], pts.lon[i], pts.heading[i],
                    clat[own], clon[own], chdg[own], cfg.theta)
            slack = _BOUND_MARGIN * np.maximum(lower, cells.cell_m)
            redo = np.nonzero(dist >= lower - slack)[0]
            if redo.size:
                redo = assigner.spare(clat, clon, chdg, alive, assign, dist,
                                      lower, slack, redo)
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
        counts, nlat, nlon, nhdg = _centroid_stats(pts, assign, k, terms)
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
    """Pair of indices i < j whose circular separation is largest, found
    by probing each value's circle-opposite and its two neighbours in a
    sorted copy; ties go to the smallest i, then j. (m, m) when there is
    no pair. O(m log m)."""
    m = h.size
    order = np.lexsort((np.arange(m), h))   # by value, then original index
    pos = np.searchsorted(h[order], (h + 180.0) % 360.0)
    a = np.repeat(np.arange(m), 3)
    b = order[(np.repeat(pos, 3) + np.tile([-1, 0, 1], m)) % m]
    a, b = a[a != b], b[a != b]
    if not a.size:
        return m, m
    i, j = np.minimum(a, b), np.maximum(a, b)
    best = np.lexsort((-j, -i, angle_diff_deg_many(h[a], h[b])))[-1]
    return int(i[best]), int(j[best])


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
