"""Trajectory ingestion: CSV parsing, the pair rule of both modes,
speed/heading inference, and densification of long gaps between fixes.

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
    vincenty_m_many,
    wrap_lon,
    wrap_lon_many,
)

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
        return cls(*(np.concatenate([getattr(p, name) for p in parts] or [[]])
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


def _implied_speed_kmh(d, dt):
    """The speed in km/h of a move of d meters in dt seconds."""
    return d / dt * 3.6


def pair_rule(dt, speed, d, cfg: IngestConfig):
    """(drop, split) for a vehicle's next fix p and its previous kept
    fix q, on floats or arrays alike, in both modes: p is dropped, or
    else the fixes split before p, which starts anew, or else (q, p) is
    a pair. dt is p's time less q's, speed p's speed, d the meters from
    q to p; each is NaN where there is no q, no known speed, or q has a
    speed. In order, p is dropped 1. when its speed is at or below
    cfg.min_speed_kmh, 2. at q's time; the fixes split 3. when dt is
    over cfg.new_trajectory_gap_s, 4. when q has no speed and implies
    one to p at or below the minimum. A trajectory left with fewer than
    two fixes has no pair, and is dropped."""
    # dt + (dt == 0) is dt, but where p is dropped by 2
    return ((speed <= cfg.min_speed_kmh) | (dt == 0),
            (dt > cfg.new_trajectory_gap_s)
            | (_implied_speed_kmh(d, dt + (dt == 0)) <= cfg.min_speed_kmh))


# rows turned into columns at a time by parse_trajectories, so that no
# more than a block of them is ever held as Python objects
_PARSE_BLOCK = 4096


def parse_trajectories(path: str, cfg: IngestConfig) -> list[Trajectory]:
    """Read a trajectory CSV and split it into per-vehicle trajectories.

    Same row rules as stream_points, turned into columns a block of rows
    at a time. Vehicles come in order of first appearance and each one's
    fixes in time order, equal times in file order (one stable sort on
    vehicle, then time). A time gap that pair_rule splits at starts a
    new trajectory for that vehicle. The trajectories' columns are views
    of one array per field. Raises EmptyInputError when no valid rows
    remain.
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
                            | pair_rule(np.diff(ts), np.nan, np.nan, cfg)[1]) + 1
    names = list(codes)
    bounds = [0, *starts.tolist(), vehicle.size]
    fixes = PointArrays(lat, lon, heading, speed, ts)
    return [Trajectory(names[vehicle[s]], cols=fixes.take(slice(s, e)))
            for s, e in zip(bounds, bounds[1:])]


def infer_speed_heading(tr: Trajectory) -> Trajectory:
    """Fill missing speeds (km/h) and headings from consecutive fixes,
    two or more at distinct times as pair_rule leaves them; a complete
    trajectory is returned as is. A missing heading takes the bearing to
    the next fix; where the fixes coincide (geo.COINCIDENT_M), or at the
    last fix, the heading before it, and a stationary prefix the first
    bearing ahead (0 when there is none). A missing speed is the speed
    implied to the next fix, and the last fix's the one before it."""
    c = tr.cols
    if not (np.isnan(c.speed).any() or np.isnan(c.heading).any()):
        return tr
    lat, lon = c.lat.tolist(), c.lon.tolist()
    dists = np.array([vincenty_m(lat[i], lon[i], lat[i + 1], lon[i + 1])
                      for i in range(c.n - 1)])
    # the bearing of each fix to the next; NaN where they coincide and
    # at the last fix
    bearing = np.full(c.n, np.nan)
    for i in np.flatnonzero(dists > COINCIDENT_M).tolist():
        bearing[i] = initial_bearing_deg(lat[i], lon[i], lat[i + 1], lon[i + 1])

    heading = c.heading.copy()
    absent = np.isnan(heading)
    heading[absent] = bearing[absent]
    if np.isnan(heading[0]):
        ahead = bearing[~np.isnan(bearing)]
        heading[0] = ahead[0] if ahead.size else 0.0
    # a fix still without a heading takes the one before it
    last_set = np.where(np.isnan(heading), 0, np.arange(c.n))
    heading = heading[np.maximum.accumulate(last_set)]

    speed = c.speed.copy()
    absent = np.flatnonzero(np.isnan(speed[:-1]))
    speed[absent] = _implied_speed_kmh(dists[absent], np.diff(c.ts)[absent])
    if np.isnan(speed[-1]):
        speed[-1] = speed[-2]
    return Trajectory(tr.vehicle_id, cols=PointArrays(c.lat, c.lon, heading,
                                                      speed, c.ts))


def _joined(trajectories: list[Trajectory]):
    """Joined columns of trajectories, each one's first index, each fix's owner."""
    lengths = np.array([len(tr) for tr in trajectories], dtype=np.int64)
    return (PointArrays.concat([tr.cols for tr in trajectories]),
            np.cumsum(lengths) - lengths,
            np.repeat(np.arange(lengths.size), lengths))


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


# gated pairs measured at a time by _densify_all, so that their gathered
# ends and lengths stay small however many pairs a batch has: measured in
# one call, the pairs of an 8x8-block city of 400 drives raised prepare's
# traced peak from 114.9 to 158.6 B a point
_DENSIFY_BLOCK = 4096


def densify(tr: Trajectory, cfg: IngestConfig) -> Trajectory:
    """Insert equidistant points into gaps wider than the sampling rate.

    A pair of consecutive fixes L1, L2 gets floor(dist/sr) points from
    between, with the pair's forward bearing, but only when their
    headings differ by less than the angle gate (straight-line motion);
    curved gaps are left alone, as are fixes that coincide
    (geo.COINCIDENT_M). With sr = inf no pair gets a point. A trajectory
    that gets no point is returned as is.
    """
    return _densify_all([tr], cfg)[0]


def _densify_all(trajectories: list[Trajectory],
                 cfg: IngestConfig) -> list[Trajectory]:
    """densify of each trajectory, done at once on their columns joined
    into one set; the densified trajectories are views of one array per
    field. Every gated pair is measured by geo.vincenty_m_many,
    _DENSIFY_BLOCK pairs at a time, and the scalar bearing runs only on
    the pairs that get a point."""
    sr = cfg.sampling_rate_m
    work = [k for k, tr in enumerate(trajectories) if len(tr) >= 2]
    if sr == math.inf or not work:
        return list(trajectories)
    c, starts, owner = _joined([trajectories[k] for k in work])
    # the pairs within one trajectory that the gate passes (a missing
    # heading fails it)
    pair = np.flatnonzero((angle_diff_deg_many(c.heading[:-1], c.heading[1:])
                           < cfg.densify_angle_gate_deg)
                          & (owner[:-1] == owner[1:]))
    count = np.empty(pair.size, dtype=np.int64)
    for at in range(0, pair.size, _DENSIFY_BLOCK):
        i = pair[at:at + _DENSIFY_BLOCK]
        d = vincenty_m_many(c.lat[i], c.lon[i], c.lat[i + 1], c.lon[i + 1])
        count[at:at + i.size] = np.where(d > COINCIDENT_M, d // sr, 0.0)
    filled = np.flatnonzero(count)
    if not filled.size:
        return list(trajectories)
    i = pair[filled]
    bearing = np.array([initial_bearing_deg(*args) for args in zip(
        c.lat[i].tolist(), c.lon[i].tolist(),
        c.lat[i + 1].tolist(), c.lon[i + 1].tolist())])
    dense, old_at = _insert_between(c, i, count[filled], bearing)
    del c, pair, count

    out = list(trajectories)
    bounds = [*old_at[starts].tolist(), dense.n]
    for k, s, e in zip(work, bounds, bounds[1:]):
        out[k] = Trajectory(out[k].vehicle_id, cols=dense.take(slice(s, e)))
    return out


def prepare_trajectories(trajectories: list[Trajectory],
                         cfg: IngestConfig) -> tuple[list[Trajectory], int]:
    """pair_rule -> infer -> densify over a batch: the runs of two fixes
    or more the rule leaves, views of their trajectory's columns where it
    drops none inside them, and the number of fixes it dropped or left in
    no pair. The rule runs at once on the trajectories' joined columns."""
    c, starts, owner = _joined(trajectories)
    at = np.flatnonzero(~pair_rule(np.nan, c.speed, np.nan, cfg)[0])    # rule 1 needs no q
    while True:
        # q is the fix before p, but where p is its trajectory's first;
        # the drops do not read d
        dt = np.where(owner[at[1:]] == owner[at[:-1]], np.diff(c.ts[at]), np.nan)
        drop = pair_rule(dt, c.speed[at[1:]], np.nan, cfg)[0]
        if not drop.any():
            break
        at = np.delete(at, np.flatnonzero(drop) + 1)
    # rule 4 measures each pair within a trajectory whose q has no
    # speed, by the scalar Vincenty of the online mode
    d = np.full(dt.size, np.nan)
    for j in np.flatnonzero(np.isnan(c.speed[at[:-1]]) & ~np.isnan(dt)).tolist():
        d[j] = vincenty_m(c.lat[at[j]], c.lon[at[j]], c.lat[at[j + 1]], c.lon[at[j + 1]])
    split = pair_rule(dt, c.speed[at[1:]], d, cfg)[1]
    kept = []
    for i in [i for i in np.split(at, np.flatnonzero(split | np.isnan(dt)) + 1) if i.size > 1]:
        tr, i = trajectories[owner[i[0]]], i - starts[owner[i[0]]]
        if i.size < len(tr):    # a run of part of tr
            tr = Trajectory(tr.vehicle_id, cols=tr.cols.take(
                slice(i[0], i[-1] + 1) if i[-1] - i[0] == i.size - 1 else i))
        kept.append(infer_speed_heading(tr))
    dropped = c.n - sum(map(len, kept))
    del c, owner, at, dt, d    # freed before densify joins the runs
    if dropped:
        log.warning("dropped %d fix(es) during preparation", dropped)
    return _densify_all(kept, cfg), dropped
