"""Map file format tests: byte stability, lossless round trips, and
line-numbered rejection of malformed input."""
import json
import math

import numpy as np
import pytest

from kharita.clustering import ClusterCentroid, ClusterConfig
from kharita.evaluate import GridSpec, generate_synthetic
from kharita.graphs import RoadGraph, SpannerConfig, run_offline_pipeline
from kharita.ingest import IngestConfig, parse_trajectories
from kharita.mapio import (
    MapFormatError,
    file_sha256,
    load_map,
    save_geojson,
    save_map,
    save_trajectories_csv,
    write_manifest,
)

from conftest import trajectory_of


def messy_graph():
    """Graph exercising every stored field, including inactive parts."""
    g = RoadGraph()
    rng = np.random.default_rng(7)
    for i in range(6):
        g.add_node(ClusterCentroid(
            lat=25.0 + rng.random() * 0.01, lon=51.0 + rng.random() * 0.01,
            heading_deg=float(rng.random() * 360.0), support=int(i * 3 + 1),
            max_speed_kmh=float(rng.random() * 90.0),
            last_seen=float(rng.random() * 1e9), active=bool(i % 2)))
    g.add_edge(0, 1, 33.123456789, traj_count=4, last_seen=17.5)
    g.add_edge(1, 0, 33.123456789, traj_count=1, last_seen=2.0, active=False)
    g.add_edge(2, 5, 1500.0, traj_count=0, last_seen=0.0)
    g.add_edge(5, 3, 0.75, traj_count=99, last_seen=1.6e9)
    return g


class TestEdgeListRoundTrip:
    def test_all_fields_survive(self, tmp_path):
        g = messy_graph()
        p = str(tmp_path / "m.edges")
        save_map(g, p)
        back = load_map(p)
        assert len(back.nodes) == len(g.nodes)
        for a, b in zip(g.nodes, back.nodes):
            assert b.lat == pytest.approx(a.lat, abs=1e-9)
            assert b.lon == pytest.approx(a.lon, abs=1e-9)
            assert b.heading_deg == pytest.approx(a.heading_deg, abs=1e-9)
            assert b.support == a.support
            assert b.max_speed_kmh == pytest.approx(a.max_speed_kmh, abs=1e-9)
            assert b.last_seen == pytest.approx(a.last_seen, abs=1e-6)
            assert b.active == a.active
        assert set(back.edges) == set(g.edges)
        for k, e in g.edges.items():
            r = back.edges[k]
            assert r.weight_m == pytest.approx(e.weight_m, abs=1e-9)
            assert r.traj_count == e.traj_count
            assert r.last_seen == pytest.approx(e.last_seen, abs=1e-6)
            assert r.active == e.active

    def test_save_is_byte_stable(self, tmp_path):
        g = messy_graph()
        p1, p2 = str(tmp_path / "a.edges"), str(tmp_path / "b.edges")
        save_map(g, p1)
        save_map(g, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        save_map(load_map(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_empty_graph(self, tmp_path):
        p = str(tmp_path / "e.edges")
        save_map(RoadGraph(), p)
        back = load_map(p)
        assert back.nodes == [] and back.edges == {}

    def test_header_line_alone(self, tmp_path):
        p = str(tmp_path / "h.edges")
        save_map(RoadGraph(), p)
        assert open(p).read() == "# kharita-map v1\n"


class TestLoadDiagnostics:
    def write(self, tmp_path, text):
        p = tmp_path / "bad.edges"
        p.write_text(text)
        return str(p)

    def test_missing_header(self, tmp_path):
        p = self.write(tmp_path, "N 0 25.0 51.0 0.0 1 0.0 0.0 1\n")
        with pytest.raises(MapFormatError, match=":1:"):
            load_map(p)

    def test_unknown_record(self, tmp_path):
        p = self.write(tmp_path, "# kharita-map v1\nX 1 2\n")
        with pytest.raises(MapFormatError, match=":2:.*record"):
            load_map(p)

    def test_short_node_line(self, tmp_path):
        p = self.write(tmp_path, "# kharita-map v1\nN 0 25.0 51.0\n")
        with pytest.raises(MapFormatError, match=":2:.*9 fields"):
            load_map(p)

    def test_bad_number(self, tmp_path):
        p = self.write(tmp_path,
                       "# kharita-map v1\n"
                       "N 0 25.0 fifty 0.0 1 0.0 0.0 1\n")
        with pytest.raises(MapFormatError, match=":2:"):
            load_map(p)

    def test_bad_flag(self, tmp_path):
        p = self.write(tmp_path,
                       "# kharita-map v1\n"
                       "N 0 25.0 51.0 0.0 1 0.0 0.0 yes\n")
        with pytest.raises(MapFormatError, match="flag"):
            load_map(p)

    def test_gapped_node_ids(self, tmp_path):
        p = self.write(tmp_path,
                       "# kharita-map v1\n"
                       "N 0 25.0 51.0 0.0 1 0.0 0.0 1\n"
                       "N 2 25.1 51.0 0.0 1 0.0 0.0 1\n")
        with pytest.raises(MapFormatError, match=":3:.*consecutive"):
            load_map(p)

    def test_edge_to_missing_node(self, tmp_path):
        p = self.write(tmp_path,
                       "# kharita-map v1\n"
                       "N 0 25.0 51.0 0.0 1 0.0 0.0 1\n"
                       "E 0 4 10.0 1 0.0 1\n")
        with pytest.raises(MapFormatError, match=":3:"):
            load_map(p)

    def test_duplicate_edge(self, tmp_path):
        p = self.write(tmp_path,
                       "# kharita-map v1\n"
                       "N 0 25.0 51.0 0.0 1 0.0 0.0 1\n"
                       "N 1 25.1 51.0 0.0 1 0.0 0.0 1\n"
                       "E 0 1 10.0 1 0.0 1\n"
                       "E 0 1 10.0 1 0.0 1\n")
        with pytest.raises(MapFormatError, match=":5:"):
            load_map(p)

    # each field of a well-formed line made hostile in turn, on line 4
    @pytest.mark.parametrize("line, problem", [
        ("N 2 nan 51.0 0.0 1 0.0 0.0 1", "position"),
        ("N 2 95.0 51.0 0.0 1 0.0 0.0 1", "position"),
        ("N 2 25.0 400.0 0.0 1 0.0 0.0 1", "position"),
        ("N 2 25.0 -inf 0.0 1 0.0 0.0 1", "position"),
        ("N 2 25.0 51.0 nan 1 0.0 0.0 1", "heading"),
        ("N 2 25.0 51.0 0.0 -1 0.0 0.0 1", "support"),
        ("N 2 25.0 51.0 0.0 1 inf 0.0 1", "speed"),
        ("N 2 25.0 51.0 0.0 1 0.0 -inf 1", "last seen"),
        ("E 0 1 -5.0 1 0.0 1", "weight"),
        ("E 0 1 0.0 1 0.0 1", "weight"),
        ("E 0 1 nan 1 0.0 1", "weight"),
        ("E 0 1 inf 1 0.0 1", "weight"),
        ("E 0 1 10.0 -1 0.0 1", "count"),
        ("E 0 1 10.0 1 nan 1", "last seen"),
    ])
    def test_hostile_value(self, tmp_path, line, problem):
        p = self.write(tmp_path,
                       "# kharita-map v1\n"
                       "N 0 25.0 51.0 0.0 1 0.0 0.0 1\n"
                       "N 1 25.1 51.0 0.0 1 0.0 0.0 1\n" + line + "\n")
        with pytest.raises(MapFormatError, match=f":4:.*{problem}"):
            load_map(p)

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = self.write(tmp_path,
                       "# kharita-map v1\n\n# remark\n"
                       "N 0 25.0 51.0 0.0 1 0.0 0.0 1\n")
        g = load_map(p)
        assert len(g.nodes) == 1


def geojson_geometry(a, b):
    """Reference GeoJSON geometry of the edge a -> b: a LineString, or
    two parts meeting at +-180 where the short way crosses it."""
    if abs(b.lon - a.lon) <= 180.0:
        parts = [[(a.lon, a.lat), (b.lon, b.lat)]]
    else:
        d = b.lon - a.lon - math.copysign(360.0, b.lon - a.lon)
        side = math.copysign(180.0, d)    # east of a reaches +180
        lat = a.lat + (side - a.lon) / d * (b.lat - a.lat)
        parts = [[(a.lon, a.lat), (side, lat)], [(-side, lat), (b.lon, b.lat)]]
    coords = [[[round(lon, 9), round(lat, 9)] for lon, lat in part]
              for part in parts]
    if len(coords) == 1:
        return {"type": "LineString", "coordinates": coords[0]}
    return {"type": "MultiLineString", "coordinates": coords}


class TestGeoJson:
    def test_feature_per_edge(self, tmp_path):
        g = messy_graph()
        p = str(tmp_path / "m.geojson")
        save_geojson(g, p)
        doc = json.load(open(p))
        assert doc["type"] == "FeatureCollection"
        assert len(doc["features"]) == len(g.edges)
        f0 = doc["features"][0]
        assert f0["geometry"]["type"] == "LineString"
        lon, lat = f0["geometry"]["coordinates"][0]
        assert 50.0 < lon < 52.0 and 24.0 < lat < 26.0
        assert set(f0["properties"]) == {"weight", "traj_count", "active"}

    def test_bytes_match_json_dump(self, tmp_path):
        # inactive edges, negative and numpy coordinates, tiny and large
        # weights, edges across the antimeridian both ways, and the
        # empty graph
        g = messy_graph()
        g.add_node(ClusterCentroid(lat=np.float64(-33.123456789123),
                                   lon=-70.000000001, heading_deg=0.0))
        g.add_node(ClusterCentroid(lat=-0.5, lon=-179.999999999987,
                                   heading_deg=90.0))
        g.add_node(ClusterCentroid(lat=-0.4, lon=179.99, heading_deg=270.0))
        g.add_edge(6, 7, 1.5e7, traj_count=12345, active=False)
        g.add_edge(7, 6, 1e-12, traj_count=0)
        g.add_edge(7, 8, 1113.2, traj_count=3)
        g.add_edge(8, 7, 1113.2, traj_count=2, active=False)
        for name, graph in (("full", g), ("empty", RoadGraph())):
            features = []
            for key in sorted(graph.edges):
                e = graph.edges[key]
                a, b = graph.nodes[e.src], graph.nodes[e.dst]
                features.append({
                    "type": "Feature",
                    "geometry": geojson_geometry(a, b),
                    "properties": {"weight": round(e.weight_m, 9),
                                   "traj_count": e.traj_count,
                                   "active": e.active},
                })
            doc = {"type": "FeatureCollection", "features": features}
            p = str(tmp_path / f"{name}.geojson")
            save_geojson(graph, p)
            with open(p) as fh:
                assert fh.read() == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_city_across_the_antimeridian_is_cut(self, tmp_path):
        # the AC-05 city 2 m west of 180 degrees: every edge whose short
        # way crosses it is cut there, the others stay LineStrings
        _, trajectories = generate_synthetic(
            GridSpec(rows=5, cols=5, block_m=100.0, origin_lon=179.998),
            noise_sigma_m=5.0, n_trajectories=200,
            sampling_spacing_m=(20.0, 170.0), rng_seed=7)
        csv_path = str(tmp_path / "seam.csv")
        save_trajectories_csv(trajectories, csv_path)
        g = run_offline_pipeline(parse_trajectories(csv_path, IngestConfig()),
                                 IngestConfig(), ClusterConfig(),
                                 SpannerConfig())
        p = str(tmp_path / "seam.geojson")
        save_geojson(g, p)
        features = json.load(open(p))["features"]
        assert len(features) == len(g.edges) == 636
        kinds = [f["geometry"]["type"] for f in features]
        assert kinds.count("MultiLineString") == 46
        assert kinds.count("LineString") == 590
        for f, key in zip(features, sorted(g.edges)):
            geometry = f["geometry"]
            assert geometry == geojson_geometry(*(g.nodes[i] for i in key))
            parts = geometry["coordinates"]
            if geometry["type"] == "LineString":
                parts = [parts]
            else:
                (lon0, lat0), (lon1, lat1) = parts[0][-1], parts[1][0]
                assert abs(lon0) == 180.0 and lon1 == -lon0 and lat0 == lat1
            for part in parts:
                for (lon0, _), (lon1, _) in zip(part, part[1:]):
                    assert abs(lon1 - lon0) <= 180.0

    def test_byte_stable(self, tmp_path):
        g = messy_graph()
        p1, p2 = str(tmp_path / "a.geojson"), str(tmp_path / "b.geojson")
        save_geojson(g, p1)
        save_geojson(g, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestManifest:
    def test_records_config_seed_and_hashes(self, tmp_path):
        data = tmp_path / "in.csv"
        data.write_text("hello\n")
        p = str(tmp_path / "run.manifest.json")
        write_manifest(p, "offline", {"alpha": 1.5, "cr": 20.0},
                       [str(data)], rng_seed=7)
        doc = json.load(open(p))
        assert doc["command"] == "offline"
        assert doc["config"] == {"alpha": 1.5, "cr": 20.0}
        assert doc["rng_seed"] == 7
        assert doc["inputs"][str(data)] == f"sha256:{file_sha256(str(data))}"
        assert "time" not in json.dumps(doc).lower()

    def test_rerun_is_identical(self, tmp_path):
        data = tmp_path / "in.csv"
        data.write_text("payload")
        p1, p2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
        for p in (p1, p2):
            write_manifest(p, "eval", {"k": [1, 2]}, [str(data)])
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_hash_tracks_content(self, tmp_path):
        data = tmp_path / "in.csv"
        data.write_text("v1")
        h1 = file_sha256(str(data))
        data.write_text("v2")
        assert file_sha256(str(data)) != h1


class TestTrajectoryCsv:
    def test_round_trip_exact(self, tmp_path):
        _, trs = generate_synthetic(GridSpec(rows=3, cols=3), rng_seed=5,
                                    noise_sigma_m=2.0, n_trajectories=12)
        p = str(tmp_path / "t.csv")
        save_trajectories_csv(trs, p)
        back = parse_trajectories(p, IngestConfig())
        flat = sorted((q.vehicle_id, q.timestamp, q.lat, q.lon,
                       q.speed_kmh, q.heading_deg)
                      for tr in trs for q in tr.points)
        flat_back = sorted((q.vehicle_id, q.timestamp, q.lat, q.lon,
                            q.speed_kmh, q.heading_deg)
                           for tr in back for q in tr.points)
        assert flat == flat_back

    def test_absent_fields_stay_absent(self, tmp_path):
        from kharita.geo import GpsPoint
        tr = trajectory_of("v", [GpsPoint("v", 0.0, 25.0, 51.0, None, None),
                                 GpsPoint("v", 5.0, 25.001, 51.0, None, None)])
        p = str(tmp_path / "n.csv")
        save_trajectories_csv([tr], p)
        back = parse_trajectories(p, IngestConfig())
        assert all(q.speed_kmh is None and q.heading_deg is None
                   for q in back[0].points)

    def test_byte_stable(self, tmp_path):
        _, trs = generate_synthetic(GridSpec(rows=3, cols=3), rng_seed=5,
                                    noise_sigma_m=2.0, n_trajectories=6)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        save_trajectories_csv(trs, p1)
        save_trajectories_csv(trs, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
