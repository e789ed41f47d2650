"""Trajectory ingestion: CSV parsing, speed/heading inference, slow-point
filtering, and densification of long gaps between fixes.

Input CSV format (header required, UTF-8 with or without a BOM):

    vehicle_id,timestamp,lat,lon,speed_kmh,heading_deg

timestamp is epoch seconds or ISO-8601 (auto-detected per file; naive
ISO timestamps are taken as UTC). speed_kmh and heading_deg may be empty.

A Trajectory holds its fixes as columns (PointArrays), one float64 array
per field, with NaN where a speed or heading is absent. The batch pass
keeps that layout from the CSV to clustering; GpsPoint objects are built
only when a trajectory's points are read, and only stream_points, which
feeds the online mode, yields them from a file.
"""
from __future__ import annotations

import csv
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import islice

import numpy as np

from .config import Checked, within
from .geo import (
    COINCIDENT_M,
    GpsPoint,
    angle_diff_deg_many,
    initial_bearing_deg,
    lon_delta,
    lon_delta_many,
    normalize_heading,
    valid_latlon,
    vincenty_m,
    wrap_lon,
    wrap_lon_many,
)
from .spatial import bound_scales, scalar_margins

log = logging.getLogger(__name__)

EXPECTED_COLUMNS = ["vehicle_id", "timestamp", "lat", "lon", "speed_kmh", "heading_deg"]


class EmptyInputError(ValueError):
    """Raised when an input file yields no valid data rows."""


@dataclass(frozen=True)
class IngestConfig(Checked):
    min_speed_kmh: float = within("[0, inf)", 5.0)      # fixes at or below are dropped
    sampling_rate_m: float = within("(0, inf]", 20.0)   # spacing; inf: no densification
    densify_angle_gate_deg: float = within("[0, 180]", 5.0)
    new_trajectory_gap_s: float = within("(0, inf]", 300.0)    # inf: never split


_FIELDS = ("lat", "lon", "heading", "speed", "ts")


@dataclass
class PointArrays:
    """Column layout of a point set, one float64 array per field, with
    NaN for an absent speed or heading: the working format of the batch
    pass from parsing to clustering."""

    lat: np.ndarray
    lon: np.ndarray
    heading: np.ndarray   # nan where unknown
    speed: np.ndarray     # nan where unknown
    ts: np.ndarray

    @property
    def n(self) -> int:
        return self.lat.size

    @classmethod
    def from_points(cls, points) -> "PointArrays":
        # an absent speed or heading (None) becomes NaN
        return cls(*(np.array([getattr(p, name) for p in points], dtype=np.float64)
                     for name in ("lat", "lon", "heading_deg", "speed_kmh",
                                  "timestamp")))

    @classmethod
    def concat(cls, parts: list["PointArrays"]) -> "PointArrays":
        return cls(*(np.concatenate([getattr(p, name) for p in parts])
                     for name in _FIELDS))

    def take(self, which) -> "PointArrays":
        """The rows `which` (indices, a mask or a slice) of every column."""
        return PointArrays(*(getattr(self, name)[which] for name in _FIELDS))


class _Fixes(Sequence):
    """A trajectory's fixes as a read-only sequence of GpsPoints, each
    built when read, with None where a column holds NaN; its length
    builds none."""

    __slots__ = ("_vid", "_cols")

    def __init__(self, vehicle_id: str, cols: PointArrays):
        self._vid = vehicle_id
        self._cols = cols

    def __len__(self) -> int:
        return self._cols.n

    def __getitem__(self, i: int) -> GpsPoint:
        c = self._cols
        speed, heading = float(c.speed[i]), float(c.heading[i])
        return GpsPoint(self._vid, float(c.ts[i]), float(c.lat[i]),
                        float(c.lon[i]), None if speed != speed else speed,
                        None if heading != heading else heading)


class Trajectory:
    """Time-ordered fixes of one vehicle between long gaps, as columns.
    points is a read-only sequence of GpsPoints built on access;
    PointArrays.from_points makes the columns of a list of them."""

    __slots__ = ("vehicle_id", "cols")

    def __init__(self, vehicle_id: str, cols: PointArrays):
        self.vehicle_id = vehicle_id
        self.cols = cols

    def __len__(self) -> int:
        return self.cols.n

    @property
    def points(self) -> _Fixes:
        return _Fixes(self.vehicle_id, self.cols)


def _parse_epoch(raw: str) -> float:
    return float(raw)


def _parse_iso(raw: str) -> float:
    dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _detect_ts_parser(raw: str):
    try:
        _parse_epoch(raw)
        return _parse_epoch
    except ValueError:
        _parse_iso(raw)   # raises if neither format fits
        return _parse_iso


def _rows(path: str):
    """(vehicle_id, timestamp, lat, lon, speed, heading) of each valid
    row in file order, speed and heading None when empty: the row rules
    of both readers.

    Rows that fail to parse (bad numbers, out-of-range coordinates,
    negative speeds) are skipped; the count is logged once the file is
    exhausted. Raises ValueError on a missing or wrong header.
    """
    malformed = 0
    ts_parser = None

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != EXPECTED_COLUMNS:
            raise ValueError(
                f"{path}: expected header {','.join(EXPECTED_COLUMNS)!r}, "
                f"got {','.join(header) if header else 'empty file'!r}")
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(EXPECTED_COLUMNS):
                malformed += 1
                continue
            vid, ts_raw, lat_raw, lon_raw, spd_raw, hdg_raw = (c.strip() for c in row)
            try:
                if ts_parser is None:
                    ts_parser = _detect_ts_parser(ts_raw)
                ts = ts_parser(ts_raw)
                lat = float(lat_raw)
                lon = float(lon_raw)
                speed = float(spd_raw) if spd_raw else None
                heading = float(hdg_raw) if hdg_raw else None
            except ValueError:
                malformed += 1
                continue
            if not vid or not math.isfinite(ts) or not valid_latlon(lat, lon):
                malformed += 1
                continue
            if speed is not None and not (math.isfinite(speed) and speed >= 0):
                malformed += 1
                continue
            if heading is not None:
                if not math.isfinite(heading):
                    malformed += 1
                    continue
                heading = normalize_heading(heading)
            yield vid, ts, lat, lon, speed, heading

    if malformed:
        log.warning("%s: skipped %d malformed row(s)", path, malformed)


def stream_points(path: str):
    """Yield valid GPS fixes in file order, as the streaming mode needs.

    The row rules are those of parse_trajectories: malformed rows are
    skipped and counted in the log, and a missing or wrong header raises
    ValueError.
    """
    for row in _rows(path):
        yield GpsPoint(*row)


# rows turned into columns at a time by parse_trajectories, so that no
# more than a block of them is ever held as Python objects
_PARSE_BLOCK = 4096


def parse_trajectories(path: str, cfg: IngestConfig) -> list[Trajectory]:
    """Read a trajectory CSV and split it into per-vehicle trajectories.

    Same row rules as stream_points, turned into columns a block of rows
    at a time. Vehicles come in order of first appearance and each one's
    fixes in time order, equal times in file order (one stable sort on
    vehicle, then time). A time gap larger than cfg.new_trajectory_gap_s
    starts a new trajectory for that vehicle. The trajectories' columns
    are views of one array per field. Raises EmptyInputError when no
    valid rows remain.
    """
    codes: dict[str, int] = {}      # vehicle id -> order of first appearance
    vehicle_blocks, value_blocks = [], []
    rows = _rows(path)
    while block := list(islice(rows, _PARSE_BLOCK)):
        vehicle_blocks.append(np.array(
            [codes.setdefault(r[0], len(codes)) for r in block], dtype=np.int64))
        # (ts, lat, lon, speed, heading); None becomes NaN
        value_blocks.append(np.array([r[1:] for r in block], dtype=np.float64))
        del block
    if not codes:
        raise EmptyInputError(f"{path}: no valid data rows")

    vehicle = np.concatenate(vehicle_blocks)
    values = np.concatenate(value_blocks)
    del vehicle_blocks, value_blocks
    order = np.lexsort((values[:, 0], vehicle))
    vehicle = vehicle[order]
    cols = np.empty((5, vehicle.size))
    for j in range(5):
        np.take(values[:, j], order, out=cols[j])
    del values, order
    ts, lat, lon, speed, heading = cols

    starts = np.flatnonzero((vehicle[1:] != vehicle[:-1])
                            | (np.diff(ts) > cfg.new_trajectory_gap_s)) + 1
    names = list(codes)
    bounds = [0, *starts.tolist(), vehicle.size]
    fixes = PointArrays(lat, lon, heading, speed, ts)
    return [Trajectory(names[vehicle[s]], cols=fixes.take(slice(s, e)))
            for s, e in zip(bounds, bounds[1:])]


def infer_speed_heading(tr: Trajectory) -> Trajectory | None:
    """Fill missing speeds (km/h) and headings from consecutive fixes.

    A trajectory with every field already present is returned as is.
    Equal-timestamp successors are dropped before inference. Trajectories
    too short to infer from (fewer than 2 points) are dropped (None).

    A missing heading takes the bearing to the next fix; where the fixes
    coincide (geo.COINCIDENT_M), or at the last fix, it takes the
    heading before it, and a stationary prefix takes the first bearing
    ahead (0 when there is none). A missing speed is the speed implied
    to the next fix, and the last fix's the one before it.
    """
    c = tr.cols
    if not (np.isnan(c.speed).any() or np.isnan(c.heading).any()):
        return tr
    if c.n < 2:
        return None
    keep = np.ones(c.n, dtype=bool)
    keep[1:] = c.ts[1:] != c.ts[:-1]
    if not keep.all():
        c = c.take(keep)
    n = c.n
    if n < 2:
        return None

    lat, lon = c.lat.tolist(), c.lon.tolist()
    dists = np.array([vincenty_m(lat[i], lon[i], lat[i + 1], lon[i + 1])
                      for i in range(n - 1)])
    # the bearing of each fix to the next; NaN where they coincide and
    # at the last fix
    bearing = np.full(n, np.nan)
    for i in np.flatnonzero(dists > COINCIDENT_M).tolist():
        bearing[i] = initial_bearing_deg(lat[i], lon[i], lat[i + 1], lon[i + 1])

    heading = c.heading.copy()
    absent = np.isnan(heading)
    heading[absent] = bearing[absent]
    if np.isnan(heading[0]):
        ahead = bearing[~np.isnan(bearing)]
        heading[0] = ahead[0] if ahead.size else 0.0
    # a fix still without a heading takes the one before it
    last_set = np.where(np.isnan(heading), 0, np.arange(n))
    heading = heading[np.maximum.accumulate(last_set)]

    speed = c.speed.copy()
    absent = np.flatnonzero(np.isnan(speed[:-1]))
    speed[absent] = dists[absent] / np.diff(c.ts)[absent] * 3.6
    if np.isnan(speed[-1]):
        speed[-1] = speed[-2]
    return Trajectory(tr.vehicle_id, cols=PointArrays(c.lat, c.lon, heading,
                                                      speed, c.ts))


def filter_slow_points(tr: Trajectory, cfg: IngestConfig) -> Trajectory:
    """Drop fixes at or below the minimum speed (jitter while stopped),
    and those without a speed."""
    kept = tr.cols.speed > cfg.min_speed_kmh
    return tr if kept.all() else Trajectory(tr.vehicle_id, cols=tr.cols.take(kept))


def _lerp_speed(a: GpsPoint, b: GpsPoint, f: float) -> float | None:
    if a.speed_kmh is None:
        return b.speed_kmh
    if b.speed_kmh is None:
        return a.speed_kmh
    return a.speed_kmh + f * (b.speed_kmh - a.speed_kmh)


def between(a: GpsPoint, b: GpsPoint, n: int, bearing: float) -> list[GpsPoint]:
    """n points spaced evenly strictly between fixes a and b, at the
    fractions i/(n+1) of the way: timestamps, latitudes and speeds are
    interpolated (a missing speed takes the other fix's), longitudes the
    short way round the antimeridian, and every point heads along
    bearing. The online densify calls it per pair; batch densify
    inserts the same points, bit for bit, in _insert_between."""
    # an explicit loop: most online pairs insert no point, and a
    # comprehension costs more per call than it saves
    out = []
    dlon = lon_delta(a.lon, b.lon)
    for i in range(1, n + 1):
        f = i / (n + 1)
        out.append(GpsPoint(a.vehicle_id,
                            a.timestamp + f * (b.timestamp - a.timestamp),
                            a.lat + f * (b.lat - a.lat),
                            wrap_lon(a.lon + f * dlon),
                            _lerp_speed(a, b, f),
                            bearing))
    return out


def _insert_between(c: PointArrays, pair: np.ndarray, count: np.ndarray,
                    bearing: np.ndarray) -> tuple[PointArrays, np.ndarray]:
    """c with count[j] points inserted between fixes pair[j] and
    pair[j] + 1, each those of between(..., count[j], bearing[j]),
    computed in its order of operations so that the bits match. Also
    returns where each fix of c went."""
    total = int(count.sum())
    a = np.repeat(pair, count)
    # i = 1..n within each pair, at the fraction i / (n + 1)
    i = np.arange(1, total + 1) - np.repeat(np.cumsum(count) - count, count)
    f = i / (np.repeat(count, count) + 1)
    # every fix moves down by the points inserted before it
    shift = np.zeros(c.n, dtype=np.int64)
    shift[pair + 1] = count
    old_at = np.arange(c.n) + np.cumsum(shift)
    new_at = old_at[a] + i
    del i, shift

    def inserted(name):
        if name == "heading":
            return np.repeat(bearing, count)
        col = getattr(c, name)
        fa, fb = col[a], col[a + 1]
        if name == "lon":
            return wrap_lon_many(fa + f * lon_delta_many(fa, fb))
        lerp = fa + f * (fb - fa)
        if name == "speed":    # a missing speed takes the other fix's
            return np.where(np.isnan(fa), fb, np.where(np.isnan(fb), fa, lerp))
        return lerp

    out = np.empty((5, c.n + total))
    for row, name in zip(out, _FIELDS):
        row[old_at] = getattr(c, name)
        row[new_at] = inserted(name)
    return PointArrays(*out), old_at


def pair_bounds(dlat, dlon, scales):
    """Squared planar bounds (L^2, U^2) on the geodesic distance d of
    two fixes dlat degrees of latitude and dlon of longitude apart (dlon
    taken the short way round), under the meters per degree (lat_lo,
    lon_lo, lat_hi, lon_hi) of spatial.bound_scales at the first fix's
    latitude and a reach, or of looser scales. Both hold once U is under
    reach: U >= d whenever L <= reach, and L <= d whenever d <= reach.
    Both densify modes call it, each with its own count rule: the online
    one on floats, the batch one on arrays, with the same bits."""
    lat_lo, lon_lo, lat_hi, lon_hi = scales
    a, b = dlat * lat_lo, dlon * lon_lo
    c, d = dlat * lat_hi, dlon * lon_hi
    return a * a + b * b, c * c + d * d


# densify settles a pair's count from its bounds up to this many
# sampling rates; longer pairs are measured
_REACH_SR = 4


def densify(tr: Trajectory, cfg: IngestConfig) -> Trajectory:
    """Insert equidistant points into gaps wider than the sampling rate.

    A pair of consecutive fixes L1, L2 gets floor(dist/sr) points from
    between, with the pair's forward bearing, but only when their
    headings differ by less than the angle gate (straight-line motion);
    curved gaps are left alone. With sr = inf no pair gets a point. A
    trajectory that gets no point is returned as is.

    The count needs the pair's length d only through n = floor(d/sr)
    and the test d > geo.COINCIDENT_M. The bounds L <= d <= U of
    pair_bounds, at a reach of _REACH_SR * sr, settle both when L and U
    fall in one band [n * sr, (n + 1) * sr) inside the margins of
    spatial.threshold_margins, and L is over the miss margin of
    COINCIDENT_M.
    Vincenty runs on the other pairs, the longer ones among them, and
    the bearing only on the pairs that get a point.

    The scales are taken once per trajectory, each at the latitude that
    makes it loosest for every pair: lon_lo at the most poleward |lat|,
    lon_hi at the least. bound_scales' lon_lo only falls and its lon_hi
    only rises as |lat| moves that way, and its latitude scales do not
    depend on lat.
    """
    return _densify_all([tr], cfg)[0]


def _densify_all(trajectories: list[Trajectory],
                 cfg: IngestConfig) -> list[Trajectory]:
    """densify of each trajectory, done at once on their columns joined
    into one set; the densified trajectories are views of one array per
    field."""
    sr = cfg.sampling_rate_m
    work = [k for k, tr in enumerate(trajectories) if len(tr) >= 2]
    if sr == math.inf or not work:
        return list(trajectories)
    c = PointArrays.concat([trajectories[k].cols for k in work])
    lengths = np.array([len(trajectories[k]) for k in work])
    starts = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(len(work)), lengths)
    reach = _REACH_SR * sr
    abs_lat = np.abs(c.lat)
    lat_lo, _, lat_hi, _ = bound_scales(0.0, reach)
    lon_lo = np.array([bound_scales(x, reach)[1]
                       for x in np.maximum.reduceat(abs_lat, starts).tolist()])
    lon_hi = np.array([bound_scales(x, reach)[3]
                       for x in np.minimum.reduceat(abs_lat, starts).tolist()])
    del abs_lat
    # squared margins of the band edges k * sr, k = 0.._REACH_SR; the
    # miss margins are taken at COINCIDENT_M at least, for the test
    # d > COINCIDENT_M
    hit2 = np.array([scalar_margins(k * sr)[0] for k in range(_REACH_SR + 1)])
    miss2 = np.array([scalar_margins(max(k * sr, COINCIDENT_M))[1]
                      for k in range(_REACH_SR)])

    # the pairs within one trajectory that the gate passes (a missing
    # heading fails it)
    pair = np.flatnonzero((angle_diff_deg_many(c.heading[:-1], c.heading[1:])
                           < cfg.densify_angle_gate_deg)
                          & (owner[:-1] == owner[1:]))
    t = owner[pair]
    l2, u2 = pair_bounds(c.lat[pair + 1] - c.lat[pair],
                         lon_delta_many(c.lon[pair], c.lon[pair + 1]),
                         (lat_lo, lon_lo[t], lat_hi, lon_hi[t]))
    n = np.sqrt(l2) // sr
    band = np.minimum(n, _REACH_SR - 1).astype(np.int64)
    settled = (n < _REACH_SR) & (u2 < hit2[band + 1]) & (l2 > miss2[band])
    count = np.where(settled, n, 0.0).astype(np.int64)
    del t, l2, u2, n, band

    def ends(which):
        """(lat1, lon1, lat2, lon2) of each pair `which`, as floats."""
        i = pair[which]
        return zip(c.lat[i].tolist(), c.lon[i].tolist(),
                   c.lat[i + 1].tolist(), c.lon[i + 1].tolist())

    # measure only the pairs the bounds leave open, and take the bearing
    # only of those that get a point
    measured = np.flatnonzero(~settled)
    for j, args in zip(measured.tolist(), ends(measured)):
        d = vincenty_m(*args)
        count[j] = int(d // sr) if d > COINCIDENT_M else 0
    filled = np.flatnonzero(count)
    if not filled.size:
        return list(trajectories)
    bearing = np.array([initial_bearing_deg(*args) for args in ends(filled)])
    dense, old_at = _insert_between(c, pair[filled], count[filled], bearing)
    del c, pair, count

    out = list(trajectories)
    bounds = [*old_at[starts].tolist(), dense.n]
    for k, s, e in zip(work, bounds, bounds[1:]):
        out[k] = Trajectory(out[k].vehicle_id, cols=dense.take(slice(s, e)))
    return out


def prepare_trajectories(trajectories: list[Trajectory],
                         cfg: IngestConfig) -> tuple[list[Trajectory], int]:
    """infer -> filter -> densify over a batch. Returns the surviving
    trajectories and the number dropped as too short or fully filtered."""
    kept = []
    dropped = 0
    for tr in trajectories:
        got = infer_speed_heading(tr)
        if got is None:
            dropped += 1
            continue
        got = filter_slow_points(got, cfg)
        if not len(got):
            dropped += 1
            continue
        kept.append(got)
    if dropped:
        log.warning("dropped %d trajectory segment(s) during preparation", dropped)
    return _densify_all(kept, cfg), dropped
