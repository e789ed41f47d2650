"""The columnar reader and inference against the object-based reference
they replaced.

parse_trajectories turns rows into columns a block at a time and splits
them with one stable sort; infer_speed_heading fills columns. The
references below are the earlier implementations, one GpsPoint per fix,
kept here verbatim in behaviour. Both must agree on hostile files and
trajectories: the same segments in the same order, every value bit for
bit (an absent field is None in a GpsPoint and NaN in a column), and the
same malformed-row count in the log.
"""
import csv
import logging
import math
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kharita import ingest
from kharita.geo import (
    GpsPoint,
    initial_bearing_deg,
    normalize_heading,
    valid_latlon,
    vincenty_m,
)
from kharita.ingest import (
    EXPECTED_COLUMNS,
    EmptyInputError,
    IngestConfig,
    infer_speed_heading,
    parse_trajectories,
    stream_points,
)

from conftest import trajectory_of


# -- the object-based reference --------------------------------------------


def _ref_ts_parser(raw):
    try:
        float(raw)
        return float
    except ValueError:
        _ref_iso(raw)
        return _ref_iso


def _ref_iso(raw):
    dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def ref_stream(path):
    """(points, malformed count) as the object reader read them."""
    out, malformed, ts_parser = [], 0, None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != EXPECTED_COLUMNS:
            raise ValueError("bad header")
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(EXPECTED_COLUMNS):
                malformed += 1
                continue
            vid, ts_raw, lat_raw, lon_raw, spd_raw, hdg_raw = (c.strip() for c in row)
            try:
                if ts_parser is None:
                    ts_parser = _ref_ts_parser(ts_raw)
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
            out.append(GpsPoint(vid, ts, lat, lon, speed, heading))
    return out, malformed


def ref_parse(path, cfg):
    """[(vehicle_id, [GpsPoint, ...]), ...] as the object reader split them."""
    per_vehicle = {}
    for p in ref_stream(path)[0]:
        per_vehicle.setdefault(p.vehicle_id, []).append(p)
    if not per_vehicle:
        raise EmptyInputError(path)
    out = []
    for vid, pts in per_vehicle.items():
        pts.sort(key=lambda p: p.timestamp)
        cur = [pts[0]]
        for p in pts[1:]:
            if p.timestamp - cur[-1].timestamp > cfg.new_trajectory_gap_s:
                out.append((vid, cur))
                cur = []
            cur.append(p)
        out.append((vid, cur))
    return out


def ref_infer(vid, points):
    """The object-based infer_speed_heading, on a list of GpsPoints."""
    if all(p.speed_kmh is not None and p.heading_deg is not None for p in points):
        return points
    if len(points) < 2:
        return None
    pts = [points[0]]
    for p in points[1:]:
        if p.timestamp == pts[-1].timestamp:
            continue
        pts.append(p)
    if len(pts) < 2:
        return None
    n = len(pts)
    dists = [vincenty_m(pts[i].lat, pts[i].lon, pts[i + 1].lat, pts[i + 1].lon)
             for i in range(n - 1)]
    bearings = [initial_bearing_deg(pts[i].lat, pts[i].lon,
                                    pts[i + 1].lat, pts[i + 1].lon)
                if dists[i] > 1e-9 else None for i in range(n - 1)]
    out, prev_heading = [], None
    for i, p in enumerate(pts):
        heading = p.heading_deg
        if heading is None:
            if i < n - 1 and bearings[i] is not None:
                heading = bearings[i]
            elif prev_heading is not None:
                heading = prev_heading
            else:
                heading = next((b for b in bearings[i:] if b is not None), 0.0)
        speed = p.speed_kmh
        if speed is None:
            if i < n - 1:
                speed = dists[i] / (pts[i + 1].timestamp - p.timestamp) * 3.6
            else:
                speed = out[-1].speed_kmh if out[-1].speed_kmh is not None else 0.0
        out.append(replace(p, speed_kmh=speed, heading_deg=heading))
        prev_heading = heading
    return out


# -- helpers ----------------------------------------------------------------


def bits(points):
    """Each fix's fields, floats by repr: exact, and -0.0 apart from 0.0."""
    return [(p.vehicle_id, *(repr(v) for v in (p.timestamp, p.lat, p.lon,
                                                p.speed_kmh, p.heading_deg)))
            for p in points]


@contextmanager
def ingest_warnings():
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("kharita.ingest")
    logger.addHandler(handler)
    level = logger.level
    logger.setLevel(logging.WARNING)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


# -- hostile files ------------------------------------------------------------

_EPOCHS = st.sampled_from(["0", "1", "1.5", "299", "300", "300.0", "600",
                           "600.5", "900", "-300", "1e3", " 42 ", "-0.0"])
_ISO = st.sampled_from(["2023-05-01T00:00:00Z", "2023-05-01T00:05:00+00:00",
                        "2023-05-01T00:05:00.5", "2023-05-01T00:10:01Z",
                        "2023-05-01T01:00:00+01:00"])
_BAD = st.sampled_from(["", "x", "nan", "inf", "-inf", "NaN", "1,5", "0x10"])


def _mostly(common, rare=_BAD):
    """common seven times in eight, else rare (by default a value no
    float parse accepts)"""
    return st.tuples(st.sampled_from(range(8)), common, rare).map(
        lambda t: t[2] if t[0] == 7 else t[1])


_LAT = _mostly(st.one_of(st.floats(-90.0, 90.0).map(repr),
                         st.sampled_from(["90", "-90", "25.0"])),
               st.one_of(_BAD, st.sampled_from(["90.0001", "-91"])))
_LON = _mostly(st.one_of(st.floats(-180.0, 180.0).map(repr),
                         st.sampled_from(["180", "-180", "51.0"])),
               st.one_of(_BAD, st.sampled_from(["180.5", "-200"])))
_SPEED = _mostly(st.one_of(st.just(""), st.floats(0.0, 400.0).map(repr),
                           st.sampled_from(["0", "-0.0", "5", " 7 "])),
                 st.one_of(_BAD, st.sampled_from(["-1", "-1e-300"])))
_HEADING = _mostly(st.one_of(st.just(""), st.floats(-720.0, 720.0).map(repr),
                             st.sampled_from(["0", "-0.0", "360", "720.5"])))


@st.composite
def _rows(draw):
    # the first timestamp read fixes the file's format; the other
    # format then counts as malformed
    usual, other = (_EPOCHS, _ISO) if draw(st.booleans()) else (_ISO, _EPOCHS)
    row = st.tuples(st.sampled_from(["a", "b", "a", "b", "c", " a", "vé", ""]),
                    _mostly(usual, st.one_of(other, _BAD)),
                    _LAT, _LON, _SPEED, _HEADING).map(list)
    short = st.lists(st.text("0123456789.,", max_size=4), max_size=5)
    blank = st.sampled_from([[], [""], ["", "", "", "", "", ""], ["  "]])
    return draw(st.lists(_mostly(row, st.one_of(short, blank)), max_size=60))


def _write(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(EXPECTED_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


@settings(max_examples=200, deadline=None)
@given(rows=_rows(), block=st.sampled_from([1, 2, 3, 4096]),
       gap=st.sampled_from([300.0, 0.5, math.inf]))
def test_parse_matches_the_object_reader(scratch, rows, block, gap):
    path = str(scratch / "in.csv")
    _write(path, rows)
    cfg = IngestConfig(new_trajectory_gap_s=gap)
    expected_points, malformed = ref_stream(path)
    try:
        expected = ref_parse(path, cfg)
    except EmptyInputError:
        expected = None
    with ingest_warnings() as records, \
            mock.patch.object(ingest, "_PARSE_BLOCK", block):
        if expected is None:
            with pytest.raises(EmptyInputError):
                parse_trajectories(path, cfg)
        else:
            got = parse_trajectories(path, cfg)
            assert [(t.vehicle_id, bits(t.points)) for t in got] == \
                [(vid, bits(pts)) for vid, pts in expected]
            for t, (_, pts) in zip(got, expected):
                assert np.array_equal(np.isnan(t.cols.speed),
                                      [p.speed_kmh is None for p in pts])
                assert np.array_equal(np.isnan(t.cols.heading),
                                      [p.heading_deg is None for p in pts])
    assert [r.getMessage() for r in records] == \
        ([f"{path}: skipped {malformed} malformed row(s)"] if malformed else [])

    with ingest_warnings() as records:
        assert bits(stream_points(path)) == bits(expected_points)
    assert len(records) == (1 if malformed else 0)


# -- hostile trajectories ---------------------------------------------------


@st.composite
def _fixes(draw):
    """A short vehicle track with repeated and out-of-order times,
    coincident positions and absent speeds and headings."""
    n = draw(st.integers(0, 8))
    times = draw(st.lists(st.sampled_from([0.0, 1.0, 1.0, 2.0, 5.0, 4.0, 9.0]),
                          min_size=n, max_size=n))
    out = []
    lat, lon = draw(st.sampled_from([(25.0, 51.0), (0.0, 179.9999), (89.99, 0.0)]))
    for t in times:
        if draw(st.booleans()):
            lat = min(90.0, lat + draw(st.floats(0.0, 1e-3)))
            lon = lon + draw(st.floats(-1e-3, 1e-3))
            lon = lon - 360.0 if lon >= 180.0 else lon
        speed = draw(st.one_of(st.none(), st.floats(0.0, 90.0)))
        heading = draw(st.one_of(st.none(), st.floats(0.0, 359.9)))
        out.append(GpsPoint("v", t, lat, lon, speed, heading))
    return out


@settings(max_examples=300, deadline=None)
@given(points=_fixes())
def test_inference_matches_the_object_version(points):
    expected = ref_infer("v", points)
    got = infer_speed_heading(trajectory_of("v", points))
    if expected is None:
        assert got is None
    else:
        assert bits(got.points) == bits(expected)
        assert not np.isnan(got.cols.heading).any()
        assert not np.isnan(got.cols.speed).any()
