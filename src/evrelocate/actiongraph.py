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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
import math

from .distances import DistanceMatrix
from .domain import DEPOT_NODE, Instance, TIME_TOL, minutes_of


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


@dataclass(frozen=True)
class ActionGraph:
    """Immutable arc set with adjacency, plus the distance matrix it used."""

    instance: Instance
    arcs: tuple[Arc, ...]
    distances: DistanceMatrix
    out_arcs: dict[str, tuple[Arc, ...]] = field(init=False)
    in_arcs: dict[str, tuple[Arc, ...]] = field(init=False)
    arc_index: dict[tuple[str, str], Arc] = field(init=False)

    def __post_init__(self) -> None:
        nodes = self.node_ids
        out: dict[str, list[Arc]] = {n: [] for n in nodes}
        incoming: dict[str, list[Arc]] = {n: [] for n in nodes}
        index: dict[tuple[str, str], Arc] = {}
        for arc in self.arcs:
            out[arc.from_node].append(arc)
            incoming[arc.to_node].append(arc)
            index[(arc.from_node, arc.to_node)] = arc
        object.__setattr__(self, "out_arcs", {n: tuple(a) for n, a in out.items()})
        object.__setattr__(self, "in_arcs", {n: tuple(a) for n, a in incoming.items()})
        object.__setattr__(self, "arc_index", index)

    @property
    def node_ids(self) -> tuple[str, ...]:
        return (DEPOT_NODE,) + tuple(r.id for r in self.instance.requests)

    @property
    def node_count(self) -> int:
        return len(self.instance.requests) + 1

    def arc(self, from_node: str, to_node: str) -> Arc | None:
        return self.arc_index.get((from_node, to_node))

    def ev_arcs(self) -> tuple[Arc, ...]:
        return tuple(a for a in self.arcs if a.kind is ArcKind.EV)


def build_graph(instance: Instance, distances: DistanceMatrix) -> ActionGraph:
    """Construct the action graph for an instance."""
    params = instance.parameters
    pickups = instance.pickups
    deliveries = instance.deliveries

    def dist(a: str, b: str) -> float:
        try:
            return distances.distance(instance.location_id(a), instance.location_id(b))
        except KeyError as exc:
            raise ValueError(f"distance matrix does not cover {a!r}/{b!r}: {exc}") from None

    arcs: list[Arc] = []

    for p in pickups:
        for d in deliveries:
            d_km = dist(p.id, d.id)
            if math.isinf(d_km):
                continue
            if d_km > params.max_range_km + 1e-9:
                continue
            travel = minutes_of(params.ev_speed_kmh, d_km)
            op_time = travel + params.handling_min
            if d.time_min < p.time_min + op_time - TIME_TOL:
                continue
            arcs.append(Arc(p.id, d.id, ArcKind.EV, d_km, op_time))

    for d in deliveries:
        for p in pickups:
            d_km = dist(d.id, p.id)
            if math.isinf(d_km):
                continue
            ride = minutes_of(params.bike_speed_kmh, d_km)
            if p.time_min < d.time_min + ride + params.load_and_exit_min - TIME_TOL:
                continue
            arcs.append(Arc(d.id, p.id, ArcKind.BIKE, d_km, ride))

    for p in pickups:
        d_km = dist(DEPOT_NODE, p.id)
        if math.isinf(d_km):
            continue
        arcs.append(Arc(DEPOT_NODE, p.id, ArcKind.BIKE, d_km, minutes_of(params.bike_speed_kmh, d_km)))

    for d in deliveries:
        d_km = dist(d.id, DEPOT_NODE)
        if math.isinf(d_km):
            continue
        arcs.append(Arc(d.id, DEPOT_NODE, ArcKind.BIKE, d_km, minutes_of(params.bike_speed_kmh, d_km)))

    return ActionGraph(instance=instance, arcs=tuple(arcs), distances=distances)


def arc_count_bound_check(graph: ActionGraph) -> bool:
    """True iff the arc count is strictly below the squared node count."""
    return len(graph.arcs) < graph.node_count**2


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
