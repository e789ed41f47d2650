"""Map and trajectory file formats.

The edge-list format is the machine interface: plain text, one record
per line, floats at fixed precision, nodes in id order and edges in
key order, so equal graphs serialize to equal bytes and outputs can be
diffed or hashed. GeoJSON export exists for putting a map on a slippy
screen, nothing reads it back. Manifests record what produced an
output file: command, full config, seed, and a content hash of every
input, with no timestamps, so reruns are comparable byte for byte.
"""
from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
from typing import Iterable

from .clustering import ClusterCentroid
from .geo import lon_delta, valid_latlon
from .graphs import RoadGraph
from .ingest import EXPECTED_COLUMNS, Trajectory

log = logging.getLogger(__name__)

MAP_HEADER = "# kharita-map v1"


class MapFormatError(ValueError):
    """A map file that does not follow the edge-list format."""

    def __init__(self, path: str, lineno: int, problem: str):
        super().__init__(f"{path}:{lineno}: {problem}")
        self.path = path
        self.lineno = lineno


def save_map(graph: RoadGraph, path: str) -> None:
    """Write the edge-list form of a graph.

    Node lines carry id, position, heading, support, max speed, last
    seen and the active flag; edge lines carry endpoints, weight,
    trajectory count, last seen and the active flag. Cluster heading
    variability is not part of the format.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MAP_HEADER + "\n")
        for i, n in enumerate(graph.nodes):
            fh.write(f"N {i} {n.lat:.9f} {n.lon:.9f} {n.heading_deg:.9f} "
                     f"{n.support} {n.max_speed_kmh:.9f} "
                     f"{n.last_seen:.9f} {int(n.active)}\n")
        for e in graph.sorted_edges():
            fh.write(f"E {e.src} {e.dst} {e.weight_m:.9f} {e.traj_count} "
                     f"{e.last_seen:.9f} {int(e.active)}\n")


def _flag(raw: str, path: str, lineno: int) -> bool:
    if raw == "0":
        return False
    if raw == "1":
        return True
    raise MapFormatError(path, lineno, f"active flag must be 0 or 1, got {raw!r}")


def load_map(path: str) -> RoadGraph:
    """Read an edge-list map file back into a RoadGraph.

    Any problem raises MapFormatError naming the offending line: bad
    header, unknown record type, wrong field count, numbers that do not
    parse, non-consecutive node ids, edges that mention unknown nodes,
    and values no map holds: coordinates out of range (the rule of the
    CSV reader), a heading, speed or last seen that is not finite, a
    weight that is not finite and positive, or a negative support or
    trajectory count.
    """
    graph = RoadGraph()
    with open(path, encoding="utf-8-sig") as fh:
        first = fh.readline()
        if first.rstrip("\n") != MAP_HEADER:
            raise MapFormatError(path, 1, f"expected header {MAP_HEADER!r}")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            kind = parts[0]
            try:
                if kind == "N":
                    if len(parts) != 9:
                        raise MapFormatError(
                            path, lineno,
                            f"node line needs 9 fields, got {len(parts)}")
                    nid = int(parts[1])
                    if nid != len(graph.nodes):
                        raise MapFormatError(
                            path, lineno,
                            f"node ids must be consecutive from 0, got {nid}")
                    lat, lon, heading, speed, seen = (
                        float(parts[i]) for i in (2, 3, 4, 6, 7))
                    support = int(parts[5])
                    if not valid_latlon(lat, lon):
                        raise MapFormatError(
                            path, lineno,
                            f"node position out of range: {lat} {lon}")
                    if not all(map(math.isfinite, (heading, speed, seen))):
                        raise MapFormatError(
                            path, lineno,
                            "node heading, speed and last seen must be finite")
                    if support < 0:
                        raise MapFormatError(
                            path, lineno,
                            f"node support must be >= 0, got {support}")
                    graph.add_node(ClusterCentroid(
                        lat, lon, heading, support, speed, seen,
                        _flag(parts[8], path, lineno)))
                elif kind == "E":
                    if len(parts) != 7:
                        raise MapFormatError(
                            path, lineno,
                            f"edge line needs 7 fields, got {len(parts)}")
                    weight, count, seen = (float(parts[3]), int(parts[4]),
                                           float(parts[5]))
                    if not (math.isfinite(weight) and weight > 0.0):
                        raise MapFormatError(
                            path, lineno,
                            f"edge weight must be finite and positive, got {weight}")
                    if count < 0:
                        raise MapFormatError(
                            path, lineno,
                            f"edge trajectory count must be >= 0, got {count}")
                    if not math.isfinite(seen):
                        raise MapFormatError(path, lineno,
                                             "edge last seen must be finite")
                    graph.add_edge(int(parts[1]), int(parts[2]), weight,
                                   traj_count=count, last_seen=seen,
                                   active=_flag(parts[6], path, lineno))
                else:
                    raise MapFormatError(path, lineno,
                                         f"unknown record type {kind!r}")
            except MapFormatError:
                raise
            except ValueError as exc:
                raise MapFormatError(path, lineno, str(exc)) from exc
            except KeyError as exc:
                raise MapFormatError(path, lineno,
                                     str(exc).strip("'\"")) from exc
    return graph


def save_geojson(graph: RoadGraph, path: str) -> None:
    """Write one feature per edge, for visual inspection: a LineString,
    or a MultiLineString cut at the antimeridian when the end
    longitudes differ by more than 180 degrees.

    The bytes are those of json.dump(doc, fh, indent=2, sort_keys=True)
    plus a newline, written one feature at a time instead of through
    the pure-Python indenting encoder, with no document built in memory.
    Map values are finite, so every float is its repr.
    """
    num = float.__repr__
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "features": [')
        sep = "\n"
        for e in graph.sorted_edges():
            a, b = graph.nodes[e.src], graph.nodes[e.dst]
            if abs(b.lon - a.lon) > 180.0:
                # two parts meeting at +-180, at the latitude interpolated
                # along lon_delta (RFC 7946, section 3.1.9)
                side = 180.0 if a.lon > 0.0 else -180.0
                lat = a.lat + (side - a.lon) / lon_delta(a.lon, b.lon) * (b.lat - a.lat)
                parts = [[(a.lon, a.lat), (side, lat)], [(-side, lat), (b.lon, b.lat)]]
                geometry = json.dumps(
                    {"coordinates": [[[round(x, 9) for x in p] for p in part]
                                     for part in parts],
                     "type": "MultiLineString"},
                    indent=2, sort_keys=True).replace("\n", "\n      ")
            else:
                geometry = f"""{{
        "coordinates": [
          [
            {num(round(a.lon, 9))},
            {num(round(a.lat, 9))}
          ],
          [
            {num(round(b.lon, 9))},
            {num(round(b.lat, 9))}
          ]
        ],
        "type": "LineString"
      }}"""
            fh.write(f"""{sep}    {{
      "geometry": {geometry},
      "properties": {{
        "active": {"true" if e.active else "false"},
        "traj_count": {e.traj_count},
        "weight": {num(round(e.weight_m, 9))}
      }},
      "type": "Feature"
    }}""")
            sep = ",\n"
        fh.write("\n  ]" if graph.edges else "]")
        fh.write(',\n  "type": "FeatureCollection"\n}\n')


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path: str, command: str, config: dict,
                   inputs: Iterable[str], rng_seed: int | None = None) -> None:
    """Record what produced a run's outputs.

    config must already be a plain dict of JSON-compatible values.
    inputs are hashed by content; the manifest holds no timestamps so
    identical reruns write identical manifests.
    """
    doc = {
        "format": "kharita-manifest v1",
        "command": command,
        "config": config,
        "rng_seed": rng_seed,
        "inputs": {p: f"sha256:{file_sha256(p)}" for p in sorted(inputs)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_trajectories_csv(trajectories: list[Trajectory], path: str) -> None:
    """Write trajectories in the same CSV shape parse_trajectories reads.

    Floats use repr so a round trip reproduces values exactly; absent
    speed or heading (NaN) becomes an empty field.
    """
    def field(x: float) -> str:
        return "" if x != x else repr(x)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EXPECTED_COLUMNS)
        for tr in trajectories:
            c = tr.cols
            vid = tr.vehicle_id
            writer.writerows(
                (vid, repr(ts), repr(lat), repr(lon), field(spd), field(hdg))
                for ts, lat, lon, spd, hdg in zip(
                    c.ts.tolist(), c.lat.tolist(), c.lon.tolist(),
                    c.speed.tolist(), c.heading.tolist()))
