"""Command-line contract tests: exit codes, output files, config file
layering, and cross-run determinism."""
import json
from dataclasses import fields

import pytest

from kharita.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    _config,
    build_parser,
    main,
)
from kharita.clustering import ClusterConfig
from kharita.evaluate import EvalConfig, GridSpec, generate_synthetic
from kharita.graphs import SpannerConfig
from kharita.ingest import IngestConfig
from kharita.mapio import load_map, save_trajectories_csv
from kharita.online import OnlineConfig

CSV_HEADER = "vehicle_id,timestamp,lat,lon,speed_kmh,heading_deg\n"


@pytest.fixture()
def dataset(tmp_path):
    """Small synthetic world: truth map and trajectory CSV."""
    out = str(tmp_path / "demo")
    rc = main(["synth", "--out", out, "--rows", "4", "--cols", "4",
               "--traj", "40", "--noise", "2", "--seed", "7"])
    assert rc == EXIT_OK
    return {"truth": out + ".truth.edges",
            "csv": out + ".trajectories.csv",
            "dir": tmp_path}


class TestSynth:
    def test_writes_truth_and_trajectories(self, dataset):
        g = load_map(dataset["truth"])
        assert len(g.nodes) == 16 and len(g.edges) == 48
        lines = open(dataset["csv"]).read().splitlines()
        assert lines[0] == CSV_HEADER.strip()
        assert len(lines) > 100

    def test_manifest_records_seed(self, dataset):
        doc = json.load(open(str(dataset["dir"] / "demo.manifest.json")))
        assert doc["command"] == "synth"
        assert doc["rng_seed"] == 7
        assert doc["config"]["grid"]["rows"] == 4

    def test_degenerate_grid_is_usage_error(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x"),
                     "--rows", "1"]) == EXIT_USAGE

    @pytest.mark.parametrize("flag,value", [("--noise", "-1"),
                                            ("--spacing", "0"),
                                            ("--traj", "-1")])
    def test_bad_generator_option_is_usage_error(self, tmp_path, flag, value):
        assert main(["synth", "--out", str(tmp_path / "x"),
                     flag, value]) == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    def test_defaults_are_the_generators(self, tmp_path):
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out)]) == EXIT_OK
        _, trajectories = generate_synthetic(GridSpec())
        save_trajectories_csv(trajectories, str(tmp_path / "lib.csv"))
        assert (tmp_path / "lib.csv").read_bytes() == \
               (tmp_path / "d.trajectories.csv").read_bytes()
        doc = json.load(open(str(out) + ".manifest.json"))
        assert doc["config"]["n_trajectories"] == 120
        assert doc["rng_seed"] == 0

    def test_same_seed_identical_files(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert main(["synth", "--out", out, "--rows", "3", "--cols", "3",
                         "--traj", "15", "--seed", "3"]) == EXIT_OK
        for suffix in (".truth.edges", ".trajectories.csv"):
            assert open(a + suffix, "rb").read() == \
                   open(b + suffix, "rb").read()


class TestOffline:
    def test_happy_path_writes_map(self, dataset, tmp_path):
        out = str(tmp_path / "inferred")
        rc = main(["offline", "--input", dataset["csv"], "--out", out,
                   "--cr", "20", "--alpha", "1.41421356"])
        assert rc == EXIT_OK
        g = load_map(out + ".edges")
        assert len(g.nodes) > 0 and len(g.edges) > 0
        assert json.load(open(out + ".geojson"))["type"] == "FeatureCollection"
        doc = json.load(open(out + ".manifest.json"))
        assert doc["config"]["clustering"]["seed_radius_cr"] == 20.0
        assert list(doc["inputs"].values())[0].startswith("sha256:")

    def test_csv_with_a_byte_order_mark_gives_the_same_map(self, dataset,
                                                          tmp_path):
        # spreadsheet exports often start a UTF-8 file with a BOM
        bom = tmp_path / "bom.csv"
        with open(dataset["csv"], "rb") as fh:
            bom.write_bytes(b"\xef\xbb\xbf" + fh.read())
        for name, path in (("plain", dataset["csv"]), ("bom", str(bom))):
            assert main(["offline", "--input", path,
                         "--out", str(tmp_path / name)]) == EXIT_OK
        for suffix in (".edges", ".geojson"):
            assert (tmp_path / ("bom" + suffix)).read_bytes() == \
                (tmp_path / ("plain" + suffix)).read_bytes()

    def test_missing_input_names_path(self, tmp_path, caplog):
        rc = main(["offline", "--input", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_USAGE
        assert "nope.csv" in caplog.text

    def test_zero_cr_fails_before_reading(self, tmp_path):
        rc = main(["offline", "--input", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "x"), "--cr", "0"])
        assert rc == EXIT_USAGE

    def test_header_only_input_is_runtime_error(self, tmp_path):
        src = tmp_path / "hdr.csv"
        src.write_text(CSV_HEADER)
        rc = main(["offline", "--input", str(src),
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_RUNTIME

    def test_deterministic_outputs(self, dataset, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = str(tmp_path / name)
            assert main(["offline", "--input", dataset["csv"],
                         "--out", out]) == EXIT_OK
            outs.append(out)
        assert open(outs[0] + ".edges", "rb").read() == \
               open(outs[1] + ".edges", "rb").read()
        assert open(outs[0] + ".geojson", "rb").read() == \
               open(outs[1] + ".geojson", "rb").read()


class TestOnline:
    def test_happy_path_with_snapshots(self, dataset, tmp_path):
        out = str(tmp_path / "om")
        rc = main(["online", "--input", dataset["csv"], "--out", out,
                   "--snapshot-every", "150"])
        assert rc == EXIT_OK
        assert len(load_map(out + ".edges").nodes) > 0
        snaps = sorted(tmp_path.glob("om.snapshot*.edges"))
        assert len(snaps) >= 2
        early = load_map(str(snaps[0]))
        final = load_map(out + ".edges")
        assert len(early.nodes) < len(final.nodes)

    def test_empty_stream_exits_zero_with_warning(self, tmp_path, caplog):
        src = tmp_path / "empty.csv"
        src.write_text(CSV_HEADER)
        out = str(tmp_path / "em")
        rc = main(["online", "--input", str(src), "--out", out])
        assert rc == EXIT_OK
        assert "no usable pairs" in caplog.text
        assert load_map(out + ".edges").nodes == []

    @pytest.mark.parametrize("flag, value", [
        ("--gap", "0"), ("--min-speed", "-1"),
        ("--staleness-horizon", "3600")])
    def test_bad_option_fails_before_reading(self, tmp_path, flag, value):
        # ingest options are checked as offline checks them; staleness
        # is not a command option
        src = tmp_path / "empty.csv"
        src.write_text(CSV_HEADER)
        rc = main(["online", "--input", str(src),
                   "--out", str(tmp_path / "x"), flag, value])
        assert rc == EXIT_USAGE
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.csv"]

    def test_deterministic_outputs(self, dataset, tmp_path):
        outs = []
        for name in ("o1", "o2"):
            out = str(tmp_path / name)
            assert main(["online", "--input", dataset["csv"],
                         "--out", out]) == EXIT_OK
            outs.append(out)
        assert open(outs[0] + ".edges", "rb").read() == \
               open(outs[1] + ".edges", "rb").read()


class TestEval:
    def test_self_comparison_prints_ones(self, dataset, tmp_path, capsys):
        rc = main(["eval", "--inferred", dataset["truth"],
                   "--truth", dataset["truth"],
                   "--out", str(tmp_path / "ev")])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["threshold_m", "geo_p", "geo_r", "geo_f"]
        for line in lines[1:]:
            assert line.split()[1:] == ["1.000", "1.000", "1.000"]

    def test_topo_columns_with_trajectories(self, dataset, tmp_path, capsys):
        rc = main(["eval", "--inferred", dataset["truth"],
                   "--truth", dataset["truth"],
                   "--trajectories", dataset["csv"],
                   "--topo-samples", "10", "--seed", "5",
                   "--out", str(tmp_path / "ev")])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "topo_f" in out.splitlines()[0]
        assert "seed 5" in out

    def test_topo_flag_without_trajectories_is_usage_error(self, dataset):
        rc = main(["eval", "--inferred", dataset["truth"],
                   "--truth", dataset["truth"], "--topo"])
        assert rc == EXIT_USAGE

    def test_json_report_records_seed(self, dataset, tmp_path):
        out = str(tmp_path / "ev")
        rc = main(["eval", "--inferred", dataset["truth"],
                   "--truth", dataset["truth"], "--json", "--seed", "11",
                   "--out", out])
        assert rc == EXIT_OK
        doc = json.load(open(out + ".report.json"))
        assert doc["rng_seed"] == 11
        assert doc["geo"]["f_score"] == [1.0] * 6
        assert doc["topo"] is None

    def test_empty_online_map_scores_zeros(self, dataset, tmp_path, caplog):
        # a stream with no usable pair gives an empty map; GEO and TOPO
        # both score it zeros rather than fail
        src = tmp_path / "empty.csv"
        src.write_text(CSV_HEADER)
        em = str(tmp_path / "em")
        assert main(["online", "--input", str(src), "--out", em]) == EXIT_OK
        out = str(tmp_path / "ev")
        rc = main(["eval", "--inferred", em + ".edges",
                   "--truth", dataset["truth"],
                   "--trajectories", dataset["csv"], "--json", "--out", out])
        assert rc == EXIT_OK
        doc = json.load(open(out + ".report.json"))
        for kind in ("geo", "topo"):
            for name in ("precision", "recall", "f_score"):
                assert doc[kind][name] == [0.0] * 6
        assert doc["topo"]["samples_valid"] == 0
        assert "tested map is empty" in caplog.text

    def test_malformed_map_is_runtime_error(self, dataset, tmp_path, caplog):
        bad = tmp_path / "bad.edges"
        bad.write_text("not a map\n")
        rc = main(["eval", "--inferred", str(bad),
                   "--truth", dataset["truth"]])
        assert rc == EXIT_RUNTIME
        assert "bad.edges:1" in caplog.text

    def test_custom_thresholds(self, dataset, tmp_path, capsys):
        rc = main(["eval", "--inferred", dataset["truth"],
                   "--truth", dataset["truth"], "--thresholds", "5,25",
                   "--out", str(tmp_path / "ev")])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1].split()[0] == "5.0"
        assert lines[2].split()[0] == "25.0"


class TestConfigFile:
    def test_file_values_applied_and_flags_override(self, dataset, tmp_path):
        conf = tmp_path / "tune.conf"
        conf.write_text("# tuning\ncr = 25\nalpha = 2.0\n")
        out = str(tmp_path / "cfgd")
        rc = main(["offline", "--input", dataset["csv"], "--out", out,
                   "--config", str(conf), "--alpha", "1.2"])
        assert rc == EXIT_OK
        doc = json.load(open(out + ".manifest.json"))
        assert doc["config"]["clustering"]["seed_radius_cr"] == 25.0
        assert doc["config"]["spanner"]["alpha"] == 1.2

    def test_unknown_key_is_usage_error(self, dataset, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("bogus-key = 3\n")
        rc = main(["offline", "--input", dataset["csv"],
                   "--out", str(tmp_path / "x"), "--config", str(conf)])
        assert rc == EXIT_USAGE

    def test_garbled_line_is_usage_error(self, dataset, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("just words\n")
        rc = main(["offline", "--input", dataset["csv"],
                   "--out", str(tmp_path / "x"), "--config", str(conf)])
        assert rc == EXIT_USAGE

    def test_missing_config_file(self, dataset, tmp_path):
        rc = main(["offline", "--input", dataset["csv"],
                   "--out", str(tmp_path / "x"),
                   "--config", str(tmp_path / "ghost.conf")])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("command", ["offline", "online"])
    @pytest.mark.parametrize("key", ["min_speed", "min-speed"])
    def test_key_spellings(self, dataset, tmp_path, command, key):
        conf = tmp_path / "s.conf"
        conf.write_text(f"{key} = 3\n")
        out = str(tmp_path / "ks")
        rc = main([command, "--input", dataset["csv"], "--out", out,
                   "--config", str(conf)])
        assert rc == EXIT_OK
        config = json.load(open(out + ".manifest.json"))["config"]
        if command == "offline":
            config = config["ingest"]
        assert config["min_speed_kmh"] == 3.0

    def test_boolean_key_in_config(self, tmp_path):
        conf = tmp_path / "s.conf"
        conf.write_text("roundabout = true\nrows = 5\ncols = 5\n")
        out = str(tmp_path / "rb")
        rc = main(["synth", "--out", out, "--traj", "0",
                   "--config", str(conf)])
        assert rc == EXIT_OK
        assert len(load_map(out + ".truth.edges").nodes) == 29


class TestParser:
    @pytest.mark.parametrize("argv, classes", [
        (["offline", "--input", "t.csv", "--out", "o"],
         [IngestConfig, ClusterConfig, SpannerConfig]),
        (["online", "--input", "t.csv", "--out", "o"],
         [IngestConfig, OnlineConfig]),
        (["eval", "--inferred", "a.edges", "--truth", "b.edges"],
         [EvalConfig]),
        (["synth", "--out", "o"], [GridSpec])])
    def test_parser_holds_no_config_default(self, argv, classes):
        args = build_parser().parse_args(argv)
        for cls in classes:
            assert not {f.name for f in fields(cls)} & set(vars(args))
            assert _config(cls, args) == cls()


class TestNonFinite:
    @pytest.fixture()
    def inputs(self, tmp_path):
        for name in ("in.csv", "a.edges", "b.edges"):
            (tmp_path / name).write_text(CSV_HEADER)
        return tmp_path

    @pytest.mark.parametrize("argv", [
        ["offline", "--input", "in.csv", "--alpha", "nan"],
        ["offline", "--input", "in.csv", "--duplex-speed", "nan"],
        ["online", "--input", "in.csv", "--alpha", "inf"],
        ["eval", "--inferred", "a.edges", "--truth", "b.edges",
         "--topo-radius", "nan"],
        ["synth", "--block", "nan"],
        ["synth", "--heading-noise", "nan"],
        ["offline", "--input", "in.csv", "--config", "nan.conf"]])
    def test_is_usage_error_and_writes_nothing(self, inputs, argv,
                                               monkeypatch):
        (inputs / "nan.conf").write_text("alpha = nan\n")
        before = sorted(inputs.iterdir())
        monkeypatch.chdir(inputs)
        assert main(argv + ["--out", "x"]) == EXIT_USAGE
        assert sorted(inputs.iterdir()) == before


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "offline" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()
