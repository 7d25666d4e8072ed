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

from .domain import Instance, Location, _list, _number, _object

MATRIX_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RoadNetwork:
    """Directed road graph: node id -> (x, y), links as (from, to, km)."""

    nodes: dict[str, tuple[float, float]]
    links: tuple[tuple[str, str, float], ...]


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


def _records(source: io.TextIOBase | str, kind: str, header: str):
    """``(name, fields)`` of each CSV record, its fields stripped.

    ``header`` names the three fields, as in ``id,x,y``.  Blank lines, ``#``
    comments and rows whose first field is the header's are skipped.  The
    name is ``<kind> record <line>``; raises ``ValueError`` naming it for a
    record with another number of fields.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    for lineno, row in enumerate(csv.reader(source), start=1):
        row = [cell.strip() for cell in row]
        if not row or row[0].startswith("#") or row[0] == header.split(",")[0]:
            continue
        name = f"{kind} record {lineno}"
        if len(row) != 3:
            raise ValueError(f"{name}: expected {header} got {row!r}")
        yield name, row


def _finite(text: str, name: str) -> float:
    """The number in ``text``; ``ValueError`` naming the record unless it is finite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{name}: {text!r} is not a finite number")
    return value


def load_nodes(source: io.TextIOBase | str) -> dict[str, tuple[float, float]]:
    """Parse ``id,x,y`` node records from a CSV stream (see :func:`_records`).

    Raises ``ValueError`` naming the record for a coordinate that is not a
    finite number.
    """
    nodes: dict[str, tuple[float, float]] = {}
    for name, (node, x, y) in _records(source, "node", "id,x,y"):
        nodes[node] = (_finite(x, name), _finite(y, name))
    return nodes


def load_road_network(source: io.TextIOBase | str, links_source: io.TextIOBase | str) -> RoadNetwork:
    """Load a road network from two CSV streams.

    Node records are ``id,x,y`` (see :func:`load_nodes`); link records are
    ``from,to,length_km`` (directed).  A link referencing a missing node, or
    with a negative or non-finite length, is a parse error naming the
    offending record.
    """
    nodes = load_nodes(source)
    links: list[tuple[str, str, float]] = []
    for name, (u, v, length) in _records(links_source, "link", "from,to,length_km"):
        length = _finite(length, name)
        for endpoint in (u, v):
            if endpoint not in nodes:
                raise ValueError(f"{name} ({u}->{v}) references unknown node {endpoint!r}")
        if length < 0:
            raise ValueError(f"{name}: negative length {length}")
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


def _matrix_from_doc(doc: dict, where: str) -> DistanceMatrix:
    """Matrix from a document's ``ids`` and row-major ``rows``; null is ``inf``.

    Raises ``ValueError`` naming the field (under ``where``) unless ``ids``
    is a list of strings and ``rows`` a list of lists of numbers or nulls.
    """
    ids = _list(doc["ids"], f"{where}.ids")
    for i, name in enumerate(ids):
        if not isinstance(name, str):
            raise ValueError(f"{where}.ids[{i}] must be a string, got {name!r}")
    rows = []
    for i, row in enumerate(_list(doc["rows"], f"{where}.rows")):
        name = f"{where}.rows[{i}]"
        cells = enumerate(_list(row, name))
        rows.append([math.inf if v is None else _number(v, f"{name}[{j}]") for j, v in cells])
    return DistanceMatrix(ids=tuple(ids), values=np.array(rows, dtype=float))


def matrix_from_json(text: str) -> DistanceMatrix:
    doc = _object(json.loads(text), "matrix JSON")
    if doc.get("format_version") != MATRIX_FORMAT_VERSION:
        raise ValueError(f"unsupported matrix format_version {doc.get('format_version')!r}")
    return _matrix_from_doc(doc, "matrix")


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
        full = _matrix_from_doc(source, "distance_source")
        # restrict to the instance's locations, in canonical order
        idx = [full.index[loc.id] for loc in locations]
        sub = full.values[np.ix_(idx, idx)]
        return DistanceMatrix(ids=tuple(loc.id for loc in locations), values=np.array(sub))
    if kind == "road_network":
        paths = []
        for key in ("nodes_csv", "links_csv"):
            if not isinstance(source[key], str):
                raise ValueError(f"distance_source.{key} must be a path, got {source[key]!r}")
            paths.append(os.path.join(base_dir or "", source[key]))
        with open(paths[0], newline="") as nf, open(paths[1], newline="") as lf:
            network = load_road_network(nf, lf)
        return shortest_path_matrix(network, locations)
    raise ValueError(f"unknown distance source type {kind!r}")
