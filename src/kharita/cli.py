"""Command-line surface: batch inference, streaming inference, map
scoring, and synthetic ground-truth generation.

Every command checks its configuration before touching data, logs
timings and counts to stderr, and writes a manifest alongside its
outputs so a run can be reproduced byte for byte. Exit codes: 0 on
success, 1 on runtime failures (unreadable data, empty input, format
violations), 2 on usage or configuration errors.
"""
from __future__ import annotations

import argparse
import inspect
import json
import logging
import os
import sys
import time
from dataclasses import asdict, fields

from .clustering import ClusterConfig
from .evaluate import (
    EvalConfig,
    GridSpec,
    generate_synthetic,
    geo_score,
    topo_score,
)
from .graphs import PipelineStats, SpannerConfig, run_offline_pipeline
from .ingest import IngestConfig, parse_trajectories, stream_points
from .mapio import (
    load_map,
    save_geojson,
    save_map,
    save_trajectories_csv,
    write_manifest,
)
from .online import OnlineConfig, StreamState, consume_stream

log = logging.getLogger("kharita")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

TRUE_WORDS = {"1", "true", "yes", "on"}
FALSE_WORDS = {"0", "false", "no", "off"}


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit code 2."""


def _require_file(path: str) -> None:
    if not os.path.isfile(path):
        raise UsageError(f"input file not found: {path}")


def _config(cls, args):
    """A cls built from the flags named after its fields, the rest at
    their defaults; a config checks its fields when it is built."""
    given = vars(args)
    try:
        return cls(**{f.name: given[f.name] for f in fields(cls)
                      if f.name in given})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _config_file_args(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """Translate key=value lines into flag tokens of one command's
    parser. Keys are flag names, with '_' or '-'; a flag that takes no
    value takes a true/false word.

    The tokens are inserted before the explicit command line, so flags
    given on the command line override the file.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    out: list[str] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (s.strip() for s in line.partition("="))
        if not sep or not key or not value:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        flag = "--" + key.replace("_", "-")
        action = parser._option_string_actions.get(flag)
        if action is not None and action.nargs == 0:
            if value.lower() in TRUE_WORDS:
                out.append(flag)
            elif value.lower() not in FALSE_WORDS:
                raise UsageError(
                    f"{path}:{lineno}: {key} takes a true/false value")
        else:
            out.extend([flag, value])
    return out


def _thresholds(text: str) -> tuple:
    return tuple(float(t) for t in text.split(","))


def _write_map_outputs(graph, out_prefix: str) -> None:
    save_map(graph, out_prefix + ".edges")
    save_geojson(graph, out_prefix + ".geojson")
    log.info("map: %d nodes, %d edges -> %s.edges, %s.geojson",
             len(graph.nodes), len(graph.edges), out_prefix, out_prefix)


def cmd_offline(args) -> int:
    ingest_cfg = _config(IngestConfig, args)
    cluster_cfg = _config(ClusterConfig, args)
    spanner_cfg = _config(SpannerConfig, args)
    _require_file(args.input)

    t0 = time.perf_counter()
    trajectories = parse_trajectories(args.input, ingest_cfg)
    graph = run_offline_pipeline(trajectories, ingest_cfg, cluster_cfg,
                                 spanner_cfg, PipelineStats())
    log.info("total %.3f s for %d trajectories",
             time.perf_counter() - t0, len(trajectories))

    _write_map_outputs(graph, args.out)
    write_manifest(args.out + ".manifest.json", "offline",
                   {"ingest": asdict(ingest_cfg),
                    "clustering": asdict(cluster_cfg),
                    "spanner": asdict(spanner_cfg)},
                   [args.input])
    return EXIT_OK


def cmd_online(args) -> int:
    cfg = _config(OnlineConfig, args)
    ingest = _config(IngestConfig, args)
    if args.snapshot_every < 0:
        raise UsageError("--snapshot-every must be >= 0")
    _require_file(args.input)

    snapshot_count = 0

    def on_pair(state: StreamState) -> None:
        nonlocal snapshot_count
        if state.pairs_processed % args.snapshot_every == 0:
            path = f"{args.out}.snapshot{snapshot_count:04d}.edges"
            save_map(state.graph, path)
            snapshot_count += 1

    t0 = time.perf_counter()
    state = consume_stream(
        stream_points(args.input), cfg,
        gap_s=ingest.new_trajectory_gap_s, min_speed_kmh=ingest.min_speed_kmh,
        on_pair=on_pair if args.snapshot_every else None)
    log.info("total %.3f s for %d pairs",
             time.perf_counter() - t0, state.pairs_processed)
    if snapshot_count:
        log.info("wrote %d snapshots", snapshot_count)
    if not state.graph.nodes:
        log.warning("stream held no usable pairs; writing an empty map")

    _write_map_outputs(state.graph, args.out)
    write_manifest(args.out + ".manifest.json", "online",
                   {"online": asdict(cfg),
                    "gap_s": ingest.new_trajectory_gap_s,
                    "min_speed_kmh": ingest.min_speed_kmh,
                    "snapshot_every": args.snapshot_every},
                   [args.input])
    return EXIT_OK


def _report_rows(geo, topo):
    for i, t in enumerate(geo.thresholds):
        row = [f"{t:11.1f}", f"{geo.precision[i]:7.3f}",
               f"{geo.recall[i]:7.3f}", f"{geo.f_score[i]:7.3f}"]
        if topo is not None:
            row += [f"{topo.precision[i]:8.3f}", f"{topo.recall[i]:8.3f}",
                    f"{topo.f_score[i]:8.3f}"]
        yield "".join(row)


def cmd_eval(args) -> int:
    cfg = _config(EvalConfig, args)
    want_topo = args.topo or args.trajectories is not None
    if want_topo and args.trajectories is None:
        raise UsageError("TOPO scoring needs --trajectories")
    _require_file(args.inferred)
    _require_file(args.truth)
    if args.trajectories is not None:
        _require_file(args.trajectories)

    inferred = load_map(args.inferred)
    truth = load_map(args.truth)
    t0 = time.perf_counter()
    geo = geo_score(inferred, truth, cfg)
    topo = None
    if want_topo:
        trajectories = parse_trajectories(args.trajectories, IngestConfig())
        topo = topo_score(inferred, truth, trajectories, cfg)
    log.info("scored in %.3f s", time.perf_counter() - t0)

    header = "threshold_m  geo_p  geo_r  geo_f"
    if topo is not None:
        header += "  topo_p  topo_r  topo_f"
    print(header)
    for line in _report_rows(geo, topo):
        print(line)
    if topo is not None:
        print(f"topo samples: {topo.samples_valid}/{topo.samples_total} "
              f"valid, seed {topo.seed}")

    if args.json:
        doc = {"rng_seed": cfg.rng_seed, "geo": geo.as_dict(),
               "topo": topo.as_dict() if topo is not None else None}
        with open(args.out + ".report.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        log.info("wrote %s.report.json", args.out)

    inputs = [args.inferred, args.truth]
    if args.trajectories is not None:
        inputs.append(args.trajectories)
    write_manifest(args.out + ".manifest.json", "eval",
                   {"eval": asdict(cfg)}, inputs, rng_seed=cfg.rng_seed)
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = _config(GridSpec, args)
    # the generator's keywords: those given, the rest at its defaults
    given = vars(args)
    kw = {p.name: given.get(p.name, p.default)
          for p in inspect.signature(generate_synthetic).parameters.values()
          if p.default is not p.empty}
    t0 = time.perf_counter()
    try:
        graph, trajectories = generate_synthetic(spec, **kw)
    except ValueError as exc:   # the generator checks its own arguments
        raise UsageError(str(exc)) from exc
    log.info("generated %d nodes, %d edges, %d trajectories in %.3f s",
             len(graph.nodes), len(graph.edges), len(trajectories),
             time.perf_counter() - t0)

    save_map(graph, args.out + ".truth.edges")
    save_trajectories_csv(trajectories, args.out + ".trajectories.csv")
    log.info("wrote %s.truth.edges, %s.trajectories.csv",
             args.out, args.out)
    rng_seed = kw.pop("rng_seed")
    write_manifest(args.out + ".manifest.json", "synth",
                   {"grid": asdict(spec), **kw}, [], rng_seed=rng_seed)
    return EXIT_OK


class _FlagMetavar(argparse.HelpFormatter):
    """Names an option's value after its flag, not its config field."""

    def _get_default_metavar_for_optional(self, action):
        return action.option_strings[0].lstrip("-").replace("-", "_").upper()


def _config_flag() -> argparse.ArgumentParser:
    """The --config flag every command takes; alone, the pre-parser
    that finds it."""
    p = argparse.ArgumentParser(prog="kharita", usage=argparse.SUPPRESS,
                                add_help=False)
    p.add_argument("--config",
                   help="key=value file; command-line flags override it")
    return p


def build_parser() -> argparse.ArgumentParser:
    """The kharita parser. A flag that sets a config field or a
    generate_synthetic keyword stores into that name and has no
    default, so the configs and the generator own every default; the
    other flags keep theirs."""
    parser = argparse.ArgumentParser(
        prog="kharita",
        description="Road-network inference from GPS trajectories")
    sub = parser.add_subparsers(dest="command", required=True)
    common = dict(parents=[_config_flag()], formatter_class=_FlagMetavar,
                  argument_default=argparse.SUPPRESS)

    p = sub.add_parser("offline", help="batch inference from a trajectory CSV",
                       **common)
    p.add_argument("--input", required=True, help="trajectory CSV")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--cr", dest="seed_radius_cr", type=float,
                   help="cluster seed radius, meters")
    p.add_argument("--theta", dest="heading_weight_theta", type=float,
                   help="heading weight, meters per half-turn (default 2*cr)")
    p.add_argument("--alpha", type=float, help="spanner stretch factor")
    p.add_argument("--sr", dest="sampling_rate_m", type=float,
                   help="densification spacing, meters")
    p.add_argument("--min-speed", dest="min_speed_kmh", type=float,
                   help="drop fixes at or below this speed, km/h")
    p.add_argument("--gap", dest="new_trajectory_gap_s", type=float,
                   help="time gap starting a new trajectory, seconds")
    p.add_argument("--densify-angle", dest="densify_angle_gate_deg",
                   type=float,
                   help="max heading change for densification, degrees")
    p.add_argument("--split-threshold", dest="split_threshold_deg",
                   type=float,
                   help="heading variability split threshold, degrees")
    p.add_argument("--convergence-ratio", type=float)
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--duplex-speed", dest="duplex_speed_kmh", type=float,
                   help="add reverse edges at or below this speed, km/h")
    p.set_defaults(func=cmd_offline)

    p = sub.add_parser("online", help="streaming inference from a CSV in "
                                      "arrival order", **common)
    p.add_argument("--input", required=True, help="trajectory CSV")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--cr", dest="clustering_radius_cr", type=float,
                   help="clustering radius, meters")
    p.add_argument("--sr", dest="sampling_rate_sr", type=float,
                   help="densification spacing, meters")
    p.add_argument("--ha", dest="heading_tolerance_ha", type=float,
                   help="heading tolerance, degrees")
    p.add_argument("--alpha", type=float, help="spanner stretch factor")
    p.add_argument("--resparsify-interval", type=int,
                   help="pairs between spanner re-runs")
    p.add_argument("--min-speed", dest="min_speed_kmh", type=float,
                   help="drop fixes at or below this speed, km/h")
    p.add_argument("--gap", dest="new_trajectory_gap_s", type=float,
                   help="silence splitting a vehicle's stream, seconds")
    p.add_argument("--snapshot-every", type=int, default=0,
                   help="write a numbered snapshot every N pairs (0 = off)")
    p.set_defaults(func=cmd_online)

    p = sub.add_parser("eval", help="score an inferred map against a truth map",
                       **common)
    p.add_argument("--inferred", required=True, help="edge-list map file")
    p.add_argument("--truth", required=True, help="edge-list map file")
    p.add_argument("--trajectories", default=None,
                   help="trajectory CSV; enables TOPO scoring")
    p.add_argument("--out", default="kharita-eval",
                   help="output path prefix for report and manifest")
    p.add_argument("--topo", action="store_true", default=False,
                   help="require TOPO scoring (needs --trajectories)")
    p.add_argument("--json", action="store_true", default=False,
                   help="also write the report as JSON")
    p.add_argument("--thresholds", dest="matching_thresholds_m",
                   type=_thresholds,
                   help="comma-separated matching thresholds, meters")
    p.add_argument("--sample-spacing", dest="sample_spacing_m", type=float,
                   help="edge sampling spacing, meters")
    p.add_argument("--topo-radius", dest="topo_radius_m", type=float,
                   help="reachability radius, meters")
    p.add_argument("--topo-samples", type=int,
                   help="number of random starting points")
    p.add_argument("--start-match-distance", dest="start_match_distance_m",
                   type=float,
                   help="max distance between paired starts, meters")
    p.add_argument("--start-angle-tolerance",
                   dest="start_angle_tolerance_deg", type=float,
                   help="max heading difference between paired starts, degrees")
    p.add_argument("--visit-distance", dest="visit_distance_m", type=float,
                   help="point-to-edge distance that marks a truth edge "
                        "as visited, meters")
    p.add_argument("--seed", dest="rng_seed", type=int,
                   help="evaluation RNG seed")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a ground-truth grid and "
                                     "simulated trajectories", **common)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--block", dest="block_m", type=float,
                   help="block edge length, meters")
    p.add_argument("--two-way", dest="two_way_fraction", type=float,
                   help="fraction of streets that run both ways")
    p.add_argument("--roundabout", action="store_true",
                   help="replace the central intersection with a circle")
    # generate_synthetic keywords, not GridSpec fields
    p.add_argument("--traj", dest="n_trajectories", type=int,
                   help="number of trajectories")
    p.add_argument("--noise", dest="noise_sigma_m", type=float,
                   help="GPS noise sigma, meters")
    p.add_argument("--spacing", dest="sampling_spacing_m", type=float,
                   help="fix spacing along routes, meters")
    p.add_argument("--heading-noise", dest="heading_noise_deg", type=float,
                   help="heading noise sigma, degrees")
    p.add_argument("--seed", dest="rng_seed", type=int,
                   help="generator RNG seed")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args_in = list(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s: %(message)s")
    parser = build_parser()
    # name -> command parser; argparse keeps no public handle on them
    commands = parser._subparsers._group_actions[0].choices

    try:
        cfg_path = _config_flag().parse_known_args(args_in)[0].config
        if cfg_path is not None and args_in[0] in commands:
            _require_file(cfg_path)
            args_in[1:1] = _config_file_args(cfg_path, commands[args_in[0]])
        args = parser.parse_args(args_in)
    except UsageError as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    try:
        return args.func(args)
    except UsageError as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
