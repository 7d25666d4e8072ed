"""Minimum-path distances between locations.

Three providers feed the same :class:`DistanceMatrix`: a directed road
network loaded from CSV (shortest paths via Dijkstra), an explicit matrix,
or synthetic Euclidean coordinates inflated by a detour factor.  A single
matrix serves both driving and cycling legs; mode differences enter only
through the speeds.  Unreachable pairs carry ``inf`` and simply suppress
arcs downstream.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .domain import Instance, Location

MATRIX_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RoadNetwork:
    """Directed road graph: node id -> (x, y), links as (from, to, km)."""

    nodes: dict[str, tuple[float, float]]
    links: tuple[tuple[str, str, float], ...]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def link_count(self) -> int:
        return len(self.links)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Dense location-to-location distances in km, ``inf`` when unreachable."""

    ids: tuple[str, ...]
    values: np.ndarray
    index: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", {i: k for k, i in enumerate(self.ids)})
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.ids), len(self.ids)):
            raise ValueError("matrix shape does not match id list")
        if np.any(np.isnan(values)):
            raise ValueError("distances must not be NaN (use inf for unreachable)")
        if np.any(np.diag(values) != 0.0):
            raise ValueError("self-distances must be zero")
        if np.any(values < 0.0):
            raise ValueError("distances must be nonnegative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def distance(self, from_id: str, to_id: str) -> float:
        try:
            return float(self.values[self.index[from_id], self.index[to_id]])
        except KeyError as exc:
            raise KeyError(f"location {exc.args[0]!r} not covered by matrix") from None


def load_nodes(source: io.TextIOBase | str) -> dict[str, tuple[float, float]]:
    """Parse ``id,x,y`` node records from a CSV stream.

    Blank lines, ``#`` comments and an ``id`` header row are skipped.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    nodes: dict[str, tuple[float, float]] = {}
    for lineno, row in enumerate(csv.reader(source), start=1):
        if not row or row[0].strip().startswith("#"):
            continue
        if row[0].strip() == "id":  # header
            continue
        if len(row) != 3:
            raise ValueError(f"node record {lineno}: expected id,x,y got {row!r}")
        nodes[row[0].strip()] = (float(row[1]), float(row[2]))
    return nodes


def load_road_network(source: io.TextIOBase | str, links_source: io.TextIOBase | str) -> RoadNetwork:
    """Load a road network from two CSV streams.

    Node records are ``id,x,y`` (see :func:`load_nodes`); link records are
    ``from,to,length_km`` (directed).  A link referencing a missing node is
    a parse error naming the offending record.
    """
    nodes = load_nodes(source)
    if isinstance(links_source, str):
        links_source = io.StringIO(links_source)

    links: list[tuple[str, str, float]] = []
    for lineno, row in enumerate(csv.reader(links_source), start=1):
        if not row or row[0].strip().startswith("#"):
            continue
        if row[0].strip() == "from":  # header
            continue
        if len(row) != 3:
            raise ValueError(f"link record {lineno}: expected from,to,length_km got {row!r}")
        u, v, length = row[0].strip(), row[1].strip(), float(row[2])
        for endpoint in (u, v):
            if endpoint not in nodes:
                raise ValueError(
                    f"link record {lineno} ({u}->{v}) references unknown node {endpoint!r}"
                )
        if length < 0:
            raise ValueError(f"link record {lineno}: negative length {length}")
        links.append((u, v, length))

    return RoadNetwork(nodes=nodes, links=tuple(links))


def shortest_path_matrix(network: RoadNetwork, locations: Iterable[Location]) -> DistanceMatrix:
    """Directed shortest-path distances between the locations' network nodes.

    One label-setting run per source location; unreachable pairs get ``inf``.
    """
    locations = list(locations)
    if not locations:
        return DistanceMatrix(ids=(), values=np.zeros((0, 0)))
    node_index = {nid: k for k, nid in enumerate(network.nodes)}
    for loc in locations:
        if loc.network_node is None or loc.network_node not in node_index:
            raise ValueError(f"location {loc.id!r}: network node {loc.network_node!r} not in network")

    n = len(node_index)
    rows, cols, lengths = [], [], []
    for u, v, length in network.links:
        rows.append(node_index[u])
        cols.append(node_index[v])
        lengths.append(length)
    graph = csr_matrix((lengths, (rows, cols)), shape=(n, n))

    sources = [node_index[loc.network_node] for loc in locations]
    dist = dijkstra(graph, directed=True, indices=sources)
    # Duplicate network nodes across locations are fine; diagonal is 0 by construction.
    return DistanceMatrix(ids=tuple(loc.id for loc in locations), values=np.array(dist[:, sources]))


def euclidean_matrix(locations: Iterable[Location], detour_factor: float = 1.0) -> DistanceMatrix:
    """Straight-line distances scaled by a detour factor (symmetric)."""
    locations = list(locations)
    if detour_factor < 1.0:
        raise ValueError("detour_factor must be >= 1")
    coords = []
    for loc in locations:
        if loc.coordinates is None:
            raise ValueError(f"location {loc.id!r} has no coordinates")
        coords.append(loc.coordinates)
    pts = np.asarray(coords, dtype=float).reshape(len(locations), 2)
    diff = pts[:, None, :] - pts[None, :, :]
    values = detour_factor * np.sqrt((diff**2).sum(axis=2))
    return DistanceMatrix(ids=tuple(loc.id for loc in locations), values=values)


def matrix_to_json(matrix: DistanceMatrix) -> str:
    """Serialize row-major with the location-id index; ``inf`` maps to null."""
    rows = [[None if math.isinf(v) else v for v in row] for row in matrix.values.tolist()]
    doc = {"format_version": MATRIX_FORMAT_VERSION, "ids": list(matrix.ids), "rows": rows}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _matrix_from_doc(doc: dict) -> DistanceMatrix:
    """Matrix from a document's ``ids`` and row-major ``rows``; null is ``inf``."""
    rows = [[math.inf if v is None else float(v) for v in row] for row in doc["rows"]]
    return DistanceMatrix(ids=tuple(doc["ids"]), values=np.array(rows, dtype=float))


def matrix_from_json(text: str) -> DistanceMatrix:
    doc = json.loads(text)
    if doc.get("format_version") != MATRIX_FORMAT_VERSION:
        raise ValueError(f"unsupported matrix format_version {doc.get('format_version')!r}")
    return _matrix_from_doc(doc)


def instance_locations(instance: Instance) -> list[Location]:
    """Depot plus the distinct request locations, in first-appearance order."""
    locations: list[Location] = [instance.depot]
    seen = {instance.depot.id}
    for req in instance.requests:
        if req.location.id not in seen:
            seen.add(req.location.id)
            locations.append(req.location)
    return locations


def matrix_for_instance(instance: Instance, base_dir: str | None = None) -> DistanceMatrix:
    """Build the distance matrix named by the instance's source descriptor.

    ``base_dir`` resolves relative file paths for road-network sources.
    """
    source = instance.distance_source
    kind = source.get("type")
    locations = instance_locations(instance)
    if kind == "euclidean":
        return euclidean_matrix(locations, float(source.get("detour_factor", 1.0)))
    if kind == "matrix":
        full = _matrix_from_doc(source)
        # restrict to the instance's locations, in canonical order
        idx = [full.index[loc.id] for loc in locations]
        sub = full.values[np.ix_(idx, idx)]
        return DistanceMatrix(ids=tuple(loc.id for loc in locations), values=np.array(sub))
    if kind == "road_network":
        nodes_path = source["nodes_csv"]
        links_path = source["links_csv"]
        if base_dir is not None:
            nodes_path = os.path.join(base_dir, nodes_path)
            links_path = os.path.join(base_dir, links_path)
        with open(nodes_path, newline="") as nf, open(links_path, newline="") as lf:
            network = load_road_network(nf, lf)
        return shortest_path_matrix(network, locations)
    raise ValueError(f"unknown distance source type {kind!r}")
