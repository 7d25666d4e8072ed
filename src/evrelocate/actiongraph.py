"""Action graph over requests: nodes are pickups, deliveries and the depot.

Arcs are worker actions rather than road segments.  An *EV arc* drives a
picked-up car from a pickup to a delivery; a *bike arc* cycles from a
delivery (or the depot) to a pickup (or back to the depot).  Arc existence
encodes pairwise compatibility:

* EV arc (i, j), i pickup, j delivery: requires the delivery deadline to be
  reachable from the earliest pickup time -- ``tau_j >= tau_i + d_ij/s' +
  q' + q''`` -- and the drive to fit a full battery, ``d_ij <= L``.
* bike arc (j, i), j delivery, i pickup: requires ``tau_i >= tau_j +
  d_ji/s'' + q''``.  The loading overhead q'' appears only in this
  existence condition; the arc's operational time is pure riding time, with
  handling charged on the EV arc that follows.
* depot arcs (0, i) and (j, 0) always exist when the distance is finite:
  the depot has no time bound of its own.

Every route is then an elementary cycle through the depot, alternating
bike and EV arcs, even when several requests share one parking location.

Layout.  An :class:`ActionGraph` is arrays in one canonical order, the one
the MILP uses: ``nodes`` is the depot, then the request ids sorted; arc
``a`` runs from node ``src[a]`` to node ``dst[a]`` (indices into
``nodes``) with ``is_ev[a]``, ``distance_km[a]`` and ``op_time_min[a]``,
and arcs are sorted by (from node, to node) in node order.
:func:`build_graph` computes each arc class over a whole block of
candidate pairs of the distance matrix at once.  The :class:`Arc` objects
(``arcs``), the per-node ``out_arcs``/``in_arcs`` and the ``arc_index``
behind :meth:`ActionGraph.arc` are views made from the arrays on first
use, for the search and the scheduler; building and exporting the model
reads the arrays alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .distances import DistanceMatrix
from .domain import DEPOT_NODE, Instance, RequestKind, TIME_TOL


class ArcKind(str, Enum):
    EV = "ev"
    BIKE = "bike"


@dataclass(frozen=True, slots=True)
class Arc:
    """A worker action with its driving distance and operational time."""

    from_node: str
    to_node: str
    kind: ArcKind
    distance_km: float
    op_time_min: float


@dataclass(frozen=True, eq=False)
class ActionGraph:
    """Immutable arc arrays in canonical order, plus the distance matrix they used."""

    instance: Instance
    distances: DistanceMatrix
    nodes: tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    is_ev: np.ndarray
    distance_km: np.ndarray
    op_time_min: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.src, self.dst, self.is_ev, self.distance_km, self.op_time_min):
            column.setflags(write=False)  # the cached views must not go stale

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        nodes, kinds = self.nodes, (ArcKind.BIKE, ArcKind.EV)
        columns = (self.src, self.dst, self.is_ev, self.distance_km, self.op_time_min)
        return tuple(
            Arc(nodes[i], nodes[j], kinds[ev], km, cost)
            for i, j, ev, km, cost in zip(*(column.tolist() for column in columns))
        )

    @cached_property
    def out_arcs(self) -> dict[str, tuple[Arc, ...]]:
        return self._by_node(self.src)

    @cached_property
    def in_arcs(self) -> dict[str, tuple[Arc, ...]]:
        return self._by_node(self.dst)

    @cached_property
    def arc_index(self) -> dict[tuple[str, str], Arc]:
        return {(arc.from_node, arc.to_node): arc for arc in self.arcs}

    def _by_node(self, ends: np.ndarray) -> dict[str, tuple[Arc, ...]]:
        """The arcs at each node (an entry for every node), where ``ends`` says."""
        groups: dict[str, list[Arc]] = {node: [] for node in self.nodes}
        for end, arc in zip(ends.tolist(), self.arcs):
            groups[self.nodes[end]].append(arc)
        return {node: tuple(arcs) for node, arcs in groups.items()}

    def arc(self, from_node: str, to_node: str) -> Arc | None:
        return self.arc_index.get((from_node, to_node))

    def ev_arcs(self) -> tuple[Arc, ...]:
        return tuple(arc for arc in self.arcs if arc.kind is ArcKind.EV)


def build_graph(instance: Instance, distances: DistanceMatrix) -> ActionGraph:
    """Construct the action graph for an instance.

    Raises ``ValueError`` naming the first node, in node order, whose
    location the matrix does not cover, and that location.
    """
    params = instance.parameters
    requests = sorted(instance.requests, key=lambda r: r.id)
    nodes = (DEPOT_NODE,) + tuple(r.id for r in requests)
    places = [("the depot", instance.depot.id)]
    places += [(f"request {r.id!r}", r.location.id) for r in requests]
    row = np.empty(len(nodes), dtype=np.int64)  # matrix index of each node's location
    for n, (owner, location) in enumerate(places):
        if location not in distances.index:
            raise ValueError(f"distance matrix does not cover location {location!r} of {owner}")
        row[n] = distances.index[location]
    tau = np.array([0.0] + [r.time_min for r in requests])
    pickups = 1 + np.flatnonzero([r.kind is RequestKind.PICKUP for r in requests])
    deliveries = 1 + np.flatnonzero([r.kind is RequestKind.DELIVERY for r in requests])
    depot = np.zeros(1, dtype=np.int64)

    def finite_pairs(sources: np.ndarray, targets: np.ndarray):
        """(source, target, km) of every reachable pair, source-major."""
        km = distances.values[np.ix_(row[sources], row[targets])]
        i, j = np.nonzero(np.isfinite(km))
        return sources[i], targets[j], km[i, j]

    def ride(km: np.ndarray) -> np.ndarray:
        return km / params.bike_speed_kmh * 60.0

    p, d, km = finite_pairs(pickups, deliveries)
    op = km / params.ev_speed_kmh * 60.0 + params.handling_min
    keep = ~(km > params.max_range_km + 1e-9) & ~(tau[d] < tau[p] + op - TIME_TOL)
    ev = (p[keep], d[keep], km[keep], op[keep])

    d, p, km = finite_pairs(deliveries, pickups)
    op = ride(km)
    keep = ~(tau[p] < tau[d] + op + params.load_and_exit_min - TIME_TOL)
    bike = (d[keep], p[keep], km[keep], op[keep])

    _, p, km = finite_pairs(depot, pickups)
    leave = (np.zeros_like(p), p, km, ride(km))
    d, _, km = finite_pairs(deliveries, depot)
    back = (d, np.zeros_like(d), km, ride(km))

    src, dst, dist, cost = (np.concatenate(column) for column in zip(ev, bike, leave, back))
    is_ev = np.arange(len(src)) < len(ev[0])  # the EV arcs were concatenated first
    order = np.argsort(src * len(nodes) + dst, kind="stable")
    return ActionGraph(
        instance=instance,
        distances=distances,
        nodes=nodes,
        src=src[order],
        dst=dst[order],
        is_ev=is_ev[order],
        distance_km=dist[order],
        op_time_min=cost[order],
    )


def arc_count_bound_check(graph: ActionGraph) -> bool:
    """True iff the arc count is strictly below the squared node count."""
    return len(graph.src) < graph.node_count**2


def to_dot(graph: ActionGraph) -> str:
    """Render the graph in DOT format for inspection."""
    lines = ["digraph actions {"]
    lines.append(f'  "{DEPOT_NODE}" [label="depot", shape=box];')
    for req in graph.instance.requests:
        lines.append(
            f'  "{req.id}" [label="{req.id}\\n{req.kind.value}\\n'
            f"t={req.time_min:g} c={req.charge:g}\"];"
        )
    for arc in graph.arcs:
        style = "solid" if arc.kind is ArcKind.EV else "dashed"
        lines.append(
            f'  "{arc.from_node}" -> "{arc.to_node}" '
            f'[label="{arc.kind.value} c={arc.op_time_min:.2f} d={arc.distance_km:.2f}", style={style}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
