"""Trajectory ingestion: CSV parsing, speed/heading inference, slow-point
filtering, and densification of long gaps between fixes.

Input CSV format (header required):

    vehicle_id,timestamp,lat,lon,speed_kmh,heading_deg

timestamp is epoch seconds or ISO-8601 (auto-detected per file; naive
ISO timestamps are taken as UTC). speed_kmh and heading_deg may be empty.
"""
from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

from .config import Checked, within
from .geo import (
    GpsPoint,
    angle_diff_deg,
    initial_bearing_deg,
    lon_delta,
    normalize_heading,
    valid_latlon,
    vincenty_m,
    wrap_lon,
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


@dataclass
class Trajectory:
    """Time-ordered fixes of one vehicle between long gaps."""

    vehicle_id: str
    points: list[GpsPoint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)


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


def stream_points(path: str):
    """Yield valid GPS fixes in file order, as the streaming mode needs.

    Rows that fail to parse (bad numbers, out-of-range coordinates,
    negative speeds) are skipped; the count is logged once the file is
    exhausted. Raises ValueError on a missing or wrong header.
    """
    malformed = 0
    ts_parser = None

    with open(path, newline="") as fh:
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
            yield GpsPoint(vid, ts, lat, lon, speed, heading)

    if malformed:
        log.warning("%s: skipped %d malformed row(s)", path, malformed)


def parse_trajectories(path: str, cfg: IngestConfig) -> list[Trajectory]:
    """Read a trajectory CSV and split it into per-vehicle trajectories.

    Same row handling as stream_points. A time gap larger than
    cfg.new_trajectory_gap_s starts a new trajectory for that vehicle.
    Raises EmptyInputError when no valid rows remain.
    """
    per_vehicle: dict[str, list[GpsPoint]] = {}
    for p in stream_points(path):
        per_vehicle.setdefault(p.vehicle_id, []).append(p)

    if not per_vehicle:
        raise EmptyInputError(f"{path}: no valid data rows")

    out: list[Trajectory] = []
    for vid, pts in per_vehicle.items():
        pts.sort(key=lambda p: p.timestamp)
        cur = Trajectory(vid, [pts[0]])
        for p in pts[1:]:
            if p.timestamp - cur.points[-1].timestamp > cfg.new_trajectory_gap_s:
                out.append(cur)
                cur = Trajectory(vid, [])
            cur.points.append(p)
        out.append(cur)
    return out


def infer_speed_heading(tr: Trajectory) -> Trajectory | None:
    """Fill missing speeds (km/h) and headings from consecutive fixes.

    A trajectory with every field already present is returned as is.
    Equal-timestamp successors are dropped before inference. Trajectories
    too short to infer from (fewer than 2 points) are dropped (None).
    """
    if all(p.speed_kmh is not None and p.heading_deg is not None for p in tr.points):
        return tr
    if len(tr.points) < 2:
        return None

    pts = [tr.points[0]]
    for p in tr.points[1:]:
        if p.timestamp == pts[-1].timestamp:
            continue
        pts.append(p)
    if len(pts) < 2:
        return None

    n = len(pts)
    dists = [vincenty_m(pts[i].lat, pts[i].lon, pts[i + 1].lat, pts[i + 1].lon)
             for i in range(n - 1)]
    bearings: list[float | None] = []
    for i in range(n - 1):
        if dists[i] > 1e-9:
            bearings.append(initial_bearing_deg(pts[i].lat, pts[i].lon,
                                                pts[i + 1].lat, pts[i + 1].lon))
        else:
            bearings.append(None)

    out: list[GpsPoint] = []
    prev_heading: float | None = None
    for i, p in enumerate(pts):
        heading = p.heading_deg
        if heading is None:
            if i < n - 1 and bearings[i] is not None:
                heading = bearings[i]
            elif prev_heading is not None:
                heading = prev_heading
            else:
                # stationary prefix: borrow the first defined bearing ahead
                heading = next((b for b in bearings[i:] if b is not None), 0.0)
        speed = p.speed_kmh
        if speed is None:
            if i < n - 1:
                speed = dists[i] / (pts[i + 1].timestamp - p.timestamp) * 3.6
            else:
                prev = out[-1]
                speed = prev.speed_kmh if prev.speed_kmh is not None else 0.0
        out.append(replace(p, speed_kmh=speed, heading_deg=heading))
        prev_heading = heading
    return Trajectory(tr.vehicle_id, out)


def filter_slow_points(tr: Trajectory, cfg: IngestConfig) -> Trajectory:
    """Drop fixes at or below the minimum speed (jitter while stopped)."""
    kept = [p for p in tr.points
            if p.speed_kmh is not None and p.speed_kmh > cfg.min_speed_kmh]
    return Trajectory(tr.vehicle_id, kept)


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
    bearing. Both densify modes call it, each with its own count."""
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


def pair_bounds(a: GpsPoint, b: GpsPoint, scales) -> tuple[float, float]:
    """Squared planar bounds (L^2, U^2) on the geodesic distance d of
    fixes a and b, under the meters per degree (lat_lo, lon_lo, lat_hi,
    lon_hi) of spatial.bound_scales at a's latitude and a reach, or of
    looser scales. Both hold once U is under reach: U >= d whenever
    L <= reach, and L <= d whenever d <= reach. Both densify modes call
    it, each with its own count rule."""
    lat_lo, lon_lo, lat_hi, lon_hi = scales
    dlat = b.lat - a.lat
    dlon = lon_delta(a.lon, b.lon)
    return ((dlat * lat_lo) ** 2 + (dlon * lon_lo) ** 2,
            (dlat * lat_hi) ** 2 + (dlon * lon_hi) ** 2)


# densify settles a pair's count from its bounds up to this many
# sampling rates; longer pairs are measured
_REACH_SR = 4


def densify(tr: Trajectory, cfg: IngestConfig) -> Trajectory:
    """Insert equidistant points into gaps wider than the sampling rate.

    A pair of consecutive fixes L1, L2 gets floor(dist/sr) points from
    between, with the pair's forward bearing, but only when their
    headings differ by less than the angle gate (straight-line motion);
    curved gaps are left alone. With sr = inf no pair gets a point.

    The count needs the pair's length d only through n = floor(d/sr)
    and the test d > 1e-9. The bounds L <= d <= U of pair_bounds, at a
    reach of _REACH_SR * sr, settle both when L and U fall in one band
    [n * sr, (n + 1) * sr) inside the margins of
    spatial.threshold_margins, and L is over the miss margin of 1e-9 m.
    Vincenty runs on the other pairs, the longer ones among them.

    The scales are taken once per trajectory, each at the latitude that
    makes it loosest for every pair: lon_lo at the most poleward |lat|,
    lon_hi at the least. bound_scales' lon_lo only falls and its lon_hi
    only rises as |lat| moves that way, and its latitude scales do not
    depend on lat.
    """
    sr = cfg.sampling_rate_m
    if len(tr.points) < 2 or sr == math.inf:
        return tr
    gate = cfg.densify_angle_gate_deg
    reach = _REACH_SR * sr
    abs_lat = [abs(p.lat) for p in tr.points]
    lat_lo, _, lat_hi, lon_hi = bound_scales(min(abs_lat), reach)
    scales = (lat_lo, bound_scales(max(abs_lat), reach)[1], lat_hi, lon_hi)
    # squared margins of the band edges k * sr, k = 0.._REACH_SR; the
    # miss margins are taken at 1e-9 m at least, for the test d > 1e-9
    hit2 = [scalar_margins(k * sr)[0] for k in range(_REACH_SR + 1)]
    miss2 = [scalar_margins(max(k * sr, 1e-9))[1] for k in range(_REACH_SR)]
    out: list[GpsPoint] = [tr.points[0]]
    for a, b in zip(tr.points, tr.points[1:]):
        # measure only the pairs the gate passes and the bounds leave
        # open, and take the bearing only of those that get a point
        if (a.heading_deg is not None and b.heading_deg is not None
                and angle_diff_deg(a.heading_deg, b.heading_deg) < gate):
            l2, u2 = pair_bounds(a, b, scales)
            n = int(math.sqrt(l2) // sr)
            if not (n < _REACH_SR and u2 < hit2[n + 1] and l2 > miss2[n]):
                d = vincenty_m(a.lat, a.lon, b.lat, b.lon)
                n = int(d // sr) if d > 1e-9 else 0
            if n:
                out += between(a, b, n,
                               initial_bearing_deg(a.lat, a.lon, b.lat, b.lon))
        out.append(b)
    return Trajectory(tr.vehicle_id, out)


def prepare_trajectories(trajectories: list[Trajectory],
                         cfg: IngestConfig) -> tuple[list[Trajectory], int]:
    """infer -> filter -> densify over a batch. Returns the surviving
    trajectories and the number dropped as too short or fully filtered."""
    out = []
    dropped = 0
    for tr in trajectories:
        got = infer_speed_heading(tr)
        if got is None:
            dropped += 1
            continue
        got = filter_slow_points(got, cfg)
        if not got.points:
            dropped += 1
            continue
        out.append(densify(got, cfg))
    if dropped:
        log.warning("dropped %d trajectory segment(s) during preparation", dropped)
    return out, dropped
