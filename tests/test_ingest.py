"""CSV parsing, inference, filtering, and densification tests."""
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kharita import ingest
from kharita.geo import (
    M_PER_DEG_LAT,
    GpsPoint,
    angle_diff_deg,
    initial_bearing_deg,
    lon_delta,
    vincenty_m,
    wrap_lon,
)
from kharita.ingest import (
    EmptyInputError,
    IngestConfig,
    PointArrays,
    Trajectory,
    between,
    densify,
    filter_slow_points,
    infer_speed_heading,
    parse_trajectories,
    prepare_trajectories,
    stream_points,
)

from conftest import trajectory_of

CFG = IngestConfig()

HEADER = "vehicle_id,timestamp,lat,lon,speed_kmh,heading_deg\n"


def write_csv(tmp_path, body, name="in.csv"):
    p = tmp_path / name
    p.write_text(HEADER + body)
    return str(p)


def north_of(lat, lon, meters):
    """Roughly `meters` north of (lat, lon)."""
    return lat + meters / 111319.49, lon


class TestParse:
    def test_basic_grouping_and_order(self, tmp_path):
        path = write_csv(tmp_path, (
            "a,100,25.0,51.0,30,0\n"
            "b,100,25.1,51.1,30,90\n"
            "a,110,25.001,51.0,30,0\n"
            "a,105,25.0005,51.0,30,0\n"
        ))
        trs = parse_trajectories(path, CFG)
        assert [t.vehicle_id for t in trs] == ["a", "b"]
        assert [p.timestamp for p in trs[0].points] == [100.0, 105.0, 110.0]

    def test_gap_splits_trajectory(self, tmp_path):
        path = write_csv(tmp_path, (
            "a,100,25.0,51.0,30,0\n"
            "a,200,25.001,51.0,30,0\n"
            "a,900,25.002,51.0,30,0\n"   # 700 s gap > 300 s
        ))
        trs = parse_trajectories(path, CFG)
        assert len(trs) == 2
        assert len(trs[0]) == 2 and len(trs[1]) == 1
        assert trs[0].vehicle_id == trs[1].vehicle_id == "a"

    def test_iso_timestamps(self, tmp_path):
        path = write_csv(tmp_path, (
            "a,2023-05-01T00:00:00Z,25.0,51.0,30,0\n"
            "a,2023-05-01T00:01:00+00:00,25.001,51.0,30,0\n"
        ))
        trs = parse_trajectories(path, CFG)
        assert trs[0].points[1].timestamp - trs[0].points[0].timestamp == 60.0

    def test_missing_optional_fields(self, tmp_path):
        path = write_csv(tmp_path, "a,100,25.0,51.0,,\n")
        trs = parse_trajectories(path, CFG)
        p = trs[0].points[0]
        assert p.speed_kmh is None and p.heading_deg is None

    def test_malformed_rows_skipped_and_counted(self, tmp_path, caplog):
        path = write_csv(tmp_path, (
            "a,100,25.0,51.0,30,0\n"
            "a,notatime,25.0,51.0,30,0\n"
            "a,101,91.5,51.0,30,0\n"      # lat out of range
            "a,102,25.0,51.0,-4,0\n"      # negative speed
            "a,103,25.0\n"                # wrong column count
        ))
        with caplog.at_level("WARNING"):
            trs = parse_trajectories(path, CFG)
        assert sum(len(t) for t in trs) == 1
        assert "4" in caplog.text

    def test_heading_normalized(self, tmp_path):
        path = write_csv(tmp_path, "a,100,25.0,51.0,30,361.5\n")
        trs = parse_trajectories(path, CFG)
        assert trs[0].points[0].heading_deg == pytest.approx(1.5)

    def test_empty_input_raises(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(EmptyInputError):
            parse_trajectories(path, CFG)
        path = write_csv(tmp_path, "a,bad,25.0,51.0,,\n", name="allbad.csv")
        with pytest.raises(EmptyInputError):
            parse_trajectories(path, CFG)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        body = ("a,100,25.0,51.0,30,0\n"
                "b,100,25.1,51.1,,\n"
                "a,110,25.001,51.0,30,0\n")
        plain = write_csv(tmp_path, body)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + (HEADER + body).encode("utf-8"))
        assert [(t.vehicle_id, list(t.points)) for t in parse_trajectories(str(bom), CFG)] \
            == [(t.vehicle_id, list(t.points)) for t in parse_trajectories(plain, CFG)]
        assert list(stream_points(str(bom))) == list(stream_points(plain))

    def test_wrong_header_raises(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError):
            parse_trajectories(str(p), CFG)


class TestPointView:
    """Trajectory.points reads the columns as GpsPoints, each built when
    read; it is no list, and keeps no point."""

    @staticmethod
    def two_fixes():
        return Trajectory("a", cols=PointArrays(
            np.array([25.0, 25.001]), np.array([51.0, 51.0]),
            np.array([math.nan, 90.0]), np.array([30.0, math.nan]),
            np.array([0.0, 10.0])))

    def test_len_builds_no_point(self, monkeypatch):
        # perfbench counts len(t.points) of every prepared trajectory
        # inside the pipeline's densify timing but outside its traced
        # span, and fails a traced run whose two times differ by more
        # than 2 ms + 1%: the length must be O(1), building no point
        tr = trajectory_of("a", [GpsPoint("a", float(i), 25.0, 51.0, 30.0, 0.0)
                                 for i in range(1000)])

        def no_point(*args):
            raise AssertionError("a GpsPoint was built")

        monkeypatch.setattr(ingest, "GpsPoint", no_point)
        assert len(tr.points) == 1000
        with pytest.raises(AssertionError):
            tr.points[0]

    def test_items_read_none_where_a_column_holds_nan(self):
        tr = self.two_fixes()
        assert list(tr.points) == [GpsPoint("a", 0.0, 25.0, 51.0, 30.0, None),
                                   GpsPoint("a", 10.0, 25.001, 51.0, None, 90.0)]
        assert tr.points[-1] == tr.points[1]
        with pytest.raises(IndexError):
            tr.points[2]

    def test_is_read_only_and_no_list(self):
        # each read builds a new point, so a change to one is not kept;
        # tests compare list(tr.points) and slice with tr.cols.take
        view = self.two_fixes().points
        assert view[0] is not view[0]
        with pytest.raises(TypeError):
            view[0] = view[1]
        with pytest.raises(TypeError):
            view[:]
        assert not hasattr(view, "__add__")
        assert type(view).__eq__ is object.__eq__
        assert view != list(view)

    def test_points_are_frozen(self, tmp_path):
        # a point read from the view is built afresh, and so is a fix
        # streamed from a file: a write to either would be lost
        with pytest.raises(FrozenInstanceError):
            self.two_fixes().points[0].speed_kmh = None
        path = tmp_path / "one.csv"
        path.write_text("vehicle_id,timestamp,lat,lon,speed_kmh,heading_deg\n"
                        "a,0,25.0,51.0,30,90\n")
        fix = next(stream_points(str(path)))
        with pytest.raises(FrozenInstanceError):
            fix.heading_deg = None


class TestInferSpeedHeading:
    def test_complete_trajectory_unchanged(self):
        tr = trajectory_of("a", [
            GpsPoint("a", 0.0, 25.0, 51.0, 30.0, 0.0),
            GpsPoint("a", 10.0, 25.001, 51.0, 30.0, 0.0),
        ])
        assert infer_speed_heading(tr) is tr

    def test_speed_and_heading_filled(self):
        lat2, lon2 = north_of(25.0, 51.0, 100.0)
        tr = trajectory_of("a", [
            GpsPoint("a", 0.0, 25.0, 51.0, None, None),
            GpsPoint("a", 10.0, lat2, lon2, None, None),
        ])
        got = infer_speed_heading(tr)
        d = vincenty_m(25.0, 51.0, lat2, lon2)
        assert got.points[0].speed_kmh == pytest.approx(d / 10.0 * 3.6)
        assert got.points[0].heading_deg == pytest.approx(0.0, abs=1e-6)
        # last point copies its predecessor's heading
        assert got.points[1].heading_deg == got.points[0].heading_deg
        assert got.points[1].speed_kmh == got.points[0].speed_kmh

    def test_zero_dt_point_dropped(self):
        lat2, lon2 = north_of(25.0, 51.0, 50.0)
        tr = trajectory_of("a", [
            GpsPoint("a", 0.0, 25.0, 51.0, None, None),
            GpsPoint("a", 0.0, 25.00001, 51.0, None, None),
            GpsPoint("a", 10.0, lat2, lon2, None, None),
        ])
        got = infer_speed_heading(tr)
        assert len(got) == 2

    def test_short_trajectory_dropped(self):
        tr = trajectory_of("a", [GpsPoint("a", 0.0, 25.0, 51.0, None, None)])
        assert infer_speed_heading(tr) is None


class TestFilterSlow:
    def test_threshold_inclusive(self):
        tr = trajectory_of("a", [
            GpsPoint("a", 0.0, 25.0, 51.0, 5.0, 0.0),    # == min_speed: dropped
            GpsPoint("a", 1.0, 25.0, 51.0, 5.1, 0.0),
            GpsPoint("a", 2.0, 25.0, 51.0, 0.0, 0.0),
        ])
        got = filter_slow_points(tr, CFG)
        assert [p.timestamp for p in got.points] == [1.0]


class TestDensify:
    def make_pair(self, meters, h1=0.0, h2=0.0, speed=40.0):
        lat2, lon2 = north_of(25.0, 51.0, meters)
        return trajectory_of("a", [
            GpsPoint("a", 0.0, 25.0, 51.0, speed, h1),
            GpsPoint("a", 10.0, lat2, lon2, speed, h2),
        ])

    def test_short_gap_untouched(self):
        got = densify(self.make_pair(15.0), CFG)
        assert len(got) == 2

    def test_170m_gap_gets_8_points(self):
        got = densify(self.make_pair(170.1), CFG)
        assert len(got) == 10
        # inserted points are equidistant and ordered in time
        ts = [p.timestamp for p in got.points]
        assert ts == sorted(ts)
        pts = list(got.points)
        gaps = [vincenty_m(a.lat, a.lon, b.lat, b.lon)
                for a, b in zip(pts, pts[1:])]
        assert max(gaps) - min(gaps) < 0.01
        assert all(g < CFG.sampling_rate_m for g in gaps)

    def test_heading_gate_blocks_curved_gap(self):
        got = densify(self.make_pair(170.0, h1=0.0, h2=20.0), CFG)
        assert len(got) == 2

    def test_gate_boundary_is_exclusive(self):
        assert len(densify(self.make_pair(100.0, h1=0.0, h2=5.0), CFG)) == 2
        assert len(densify(self.make_pair(100.0, h1=0.0, h2=4.9), CFG)) > 2

    def test_inserted_points_carry_pair_bearing(self):
        got = densify(self.make_pair(100.0), CFG)
        for p in list(got.points)[1:-1]:
            assert angle_diff_deg(p.heading_deg, 0.0) < 1e-6

    def test_missing_speed_takes_the_known_one(self):
        # the online rule; inference leaves no speed missing in the pipeline
        a, b = self.make_pair(100.0).points
        tr = trajectory_of("a", [a, replace(b, speed_kmh=None)])
        got = densify(tr, CFG)
        assert len(got) > 2
        assert all(p.speed_kmh == 40.0 for p in list(got.points)[1:-1])

    def test_gap_across_the_antimeridian(self):
        # 0.002 degrees of longitude on the equator, about 223 m east
        tr = trajectory_of("a", [GpsPoint("a", 0.0, 0.0, 179.999, 40.0, 90.0),
                                 GpsPoint("a", 10.0, 0.0, -179.999, 40.0, 90.0)])
        lons = [p.lon for p in densify(tr, CFG).points]
        assert len(lons) == 2 + 11
        assert all(-180.0 <= x < 180.0 for x in lons)
        steps = [lon_delta(a, b) for a, b in zip(lons, lons[1:])]
        assert min(steps) > 0.0 and max(steps) - min(steps) < 1e-9

    def test_idempotent(self):
        once = densify(self.make_pair(170.0), CFG)
        twice = densify(once, CFG)
        assert len(twice) == len(once)

    def test_preserves_endpoints_and_order(self):
        tr = self.make_pair(100.0)
        got = densify(tr, CFG)
        assert got.points[0] == tr.points[0]
        assert got.points[-1] == tr.points[-1]


def _measured_densify(tr, cfg):
    """densify with every gated pair measured by Vincenty: the rule that
    the count from bounds must reproduce."""
    pts = list(tr.points)
    out = [pts[0]]
    for a, b in zip(pts, pts[1:]):
        if (a.heading_deg is not None and b.heading_deg is not None
                and angle_diff_deg(a.heading_deg, b.heading_deg)
                < cfg.densify_angle_gate_deg):
            d = vincenty_m(a.lat, a.lon, b.lat, b.lon)
            if d > 1e-9 and (n := int(d // cfg.sampling_rate_m)):
                out += between(a, b, n, initial_bearing_deg(
                    a.lat, a.lon, b.lat, b.lon))
        out.append(b)
    return trajectory_of(tr.vehicle_id, out)


def _offset(lat, lon, meters, bearing_deg):
    """A point about meters from (lat, lon) along bearing_deg, rescaled
    until Vincenty puts it at meters to about 1e-9 relative."""
    b = math.radians(bearing_deg)
    north = math.cos(b) / M_PER_DEG_LAT
    east = math.sin(b) / (M_PER_DEG_LAT * math.cos(math.radians(lat)))
    for _ in range(4):
        qlat = max(-90.0, min(90.0, lat + meters * north))
        qlon = wrap_lon(lon + meters * east)
        d = vincenty_m(lat, lon, qlat, qlon)
        if d == 0.0:
            break
        north, east = north * meters / d, east * meters / d
    return qlat, qlon


@st.composite
def _drives(draw):
    """A short drive at the pole, across the antimeridian or anywhere,
    whose steps sit at and within 1e-6 relative of k * sr (k = 0..4),
    under 10 nm, at zero or anywhere up to 6 * sr, and the sr."""
    sr = draw(st.sampled_from([20.0, 7.5, 0.01, math.inf]))
    lat = draw(st.one_of(st.floats(-89.9, 89.9),
                         st.sampled_from([89.9, -89.9, 0.0, 25.0])))
    lon = draw(st.one_of(st.floats(-180.0, 179.999),
                         st.sampled_from([179.99999, -180.0, -179.99999])))
    # turns of under 2.5 degrees pass the 5 degree gate; 90 and a
    # missing heading do not
    h0 = draw(st.floats(0.0, 359.9))
    headings = st.one_of(st.floats(0.0, 2.4).map(lambda t: (h0 + t) % 360.0),
                         st.just((h0 + 90.0) % 360.0), st.none())
    step = 20.0 if sr == math.inf else sr
    points = [GpsPoint("v", 0.0, lat, lon, 30.0, h0)]
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["band", "band", "tiny", "zero", "any"]))
        meters = {"band": draw(st.integers(0, 4)) * step
                  * (1.0 + draw(st.floats(-1e-6, 1e-6))),
                  "tiny": draw(st.floats(0.0, 1e-8)),
                  "zero": 0.0,
                  "any": draw(st.floats(0.0, 6.0)) * step}[kind]
        # east and west cross the antimeridian from a longitude at it
        bearing = draw(st.one_of(st.floats(0.0, 360.0),
                                 st.sampled_from([90.0, 270.0, 0.0, 180.0])))
        lat, lon = _offset(lat, lon, meters, bearing)
        points.append(GpsPoint("v", i + 1.0, lat, lon, 30.0, draw(headings)))
    return trajectory_of("v", points), replace(CFG, sampling_rate_m=sr)


@settings(max_examples=500)
@given(drive=_drives())
def test_densify_matches_every_pair_measured(drive):
    tr, cfg = drive
    assert list(densify(tr, cfg).points) == list(_measured_densify(tr, cfg).points)


@settings(max_examples=200)
@given(first=_drives(), second=_drives())
def test_densify_across_latitudes_matches_every_pair_measured(first, second):
    # densify takes its bound scales at the trajectory's extreme
    # latitudes, so two drives joined into one, each anywhere, get
    # bounds as loose as the pair of latitudes makes them. A headingless
    # fix keeps the gate shut across the jump, which would fill the gap
    # between them with up to 1e9 points
    (a, cfg), (b, _) = first, second
    gap = replace(b.points[0], heading_deg=None)
    tr = trajectory_of("v", [*a.points, gap, *b.points])
    assert list(densify(tr, cfg).points) == list(_measured_densify(tr, cfg).points)


@settings(max_examples=100)
@given(drives=st.lists(_drives(), min_size=1, max_size=4),
       cut=st.integers(1, 4), lone=st.lists(st.integers(0, 4), max_size=2))
def test_densify_of_a_batch_matches_each_trajectory_alone(drives, cut, lone):
    # prepare_trajectories densifies all trajectories at once on their
    # joined columns; no pair may span two of them, even where one
    # drive goes straight on into the next, and each keeps the bound
    # scales of its own latitudes. Trajectories of one fix and of none
    # ride along at their places
    cfg = drives[0][1]
    trs = [tr for tr, _ in drives]
    first = trs[0].cols
    trs[:1] = [Trajectory("v", cols=first.take(slice(cut))),
               Trajectory("v", cols=first.take(slice(cut, None)))]
    for k in lone:
        trs.insert(min(k, len(trs)),
                   Trajectory("v", cols=trs[0].cols.take(slice(k % 2))))
    got = ingest._densify_all(trs, cfg)
    assert [list(t.points) for t in got] == [
        list((_measured_densify(t, cfg) if len(t) >= 2 else t).points) for t in trs]


def test_densify_measures_only_the_pairs_the_bounds_leave_open(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return vincenty_m(*args)

    monkeypatch.setattr(ingest, "vincenty_m", counted)

    def drive(*meters):
        pts = [GpsPoint("v", 0.0, 25.0, 51.0, 40.0, 0.0)]
        for i, m in enumerate(meters):
            pts.append(GpsPoint("v", i + 1.0, *_offset(pts[-1].lat, 51.0, m, 0.0),
                                40.0, 0.0))
        return trajectory_of("v", pts)

    # 15 m, 25 m and 70 m at sr 20 settle by the bounds (counts 0, 1, 3)
    tr = drive(15.0, 25.0, 70.0)
    assert list(densify(tr, CFG).points) == list(_measured_densify(tr, CFG).points)
    assert len(densify(tr, CFG)) == 4 + 1 + 3
    assert calls == []
    # coincident, 40 m (on a band edge), and beyond 4 * sr: measured
    for m in (0.0, 40.0, 100.0):
        calls.clear()
        densify(drive(m), CFG)
        assert len(calls) == 1
    # sr = inf: no pair gets a point, none is measured
    calls.clear()
    inf_cfg = replace(CFG, sampling_rate_m=math.inf)
    assert list(densify(tr, inf_cfg).points) == list(tr.points)
    assert calls == []


def test_prepare_pipeline(tmp_path):
    lat2, lon2 = north_of(25.0, 51.0, 100.0)
    lat3, lon3 = north_of(25.0, 51.0, 200.0)
    trs = [
        trajectory_of("a", [
            GpsPoint("a", 0.0, 25.0, 51.0, None, None),
            GpsPoint("a", 10.0, lat2, lon2, None, None),
            GpsPoint("a", 20.0, lat3, lon3, None, None),
        ]),
        trajectory_of("b", [GpsPoint("b", 0.0, 25.0, 51.0, None, None)]),
    ]
    out, dropped = prepare_trajectories(trs, CFG)
    assert dropped == 1
    assert len(out) == 1
    # 100 m at 10 s is 36 km/h: survives filtering, both gaps densified
    assert len(out[0]) == 3 + 2 * 4
