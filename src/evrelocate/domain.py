"""Core data model for the electric-vehicle relocation toolkit.

Workers on folding bicycles relocate shared electric cars between parking
stations of a one-way car-sharing service: a *pickup* request removes an EV
(with some residual battery charge) from a station no earlier than a given
time, a *delivery* request places an EV at a station with at least a given
charge level available by a deadline.  A worker drives an EV from a pickup
to a delivery with the bike in the trunk, then cycles to the next pickup.

Everything in this module is an immutable value object shared by the graph
builder, the solvers and the benchmark harness.  Units are canonical across
the whole package: minutes since midnight for times, kilometres for
distances, km/h for speeds, and battery charge as a fraction in [0, 1].

An :class:`Instance` is the one source of the facts of a solve: the worker
count K is ``instance.parameters.workers`` (no solver or model builder takes
it separately; solve a different K on a ``dataclasses.replace`` copy), and
``Instance.request`` / ``Instance.location_id`` are O(1) lookups through an
id index built once at construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Any, Iterable

# Shared absolute comparison tolerances for the floating-point pipeline.
TIME_TOL = 1e-6  # minutes
CHARGE_TOL = 1e-9  # charge fraction

INSTANCE_FORMAT_VERSION = 1
SOLUTION_FORMAT_VERSION = 1

#: Node id reserved for the depot in action graphs and exported models.
DEPOT_NODE = "0"


class RequestKind(str, Enum):
    PICKUP = "pickup"
    DELIVERY = "delivery"


@dataclass(frozen=True, slots=True)
class Parameters:
    """Fleet-wide operating constants.

    Every constant but ``workers`` must be finite and strictly positive;
    ``workers`` is a positive integer.

    Attributes
    ----------
    max_range_km : float
        Distance an EV covers on a full battery; range scales linearly
        with the charge fraction.
    recharge_time_min : float
        Minutes for an empty battery to reach full charge while parked
        (constant-rate charging phase); charge grows at 1/recharge_time_min
        per minute, capped at 1.
    shift_limit_min : float
        Maximum duration of a worker's route, depot to depot.
    workers : int
        Number of available workers.
    ev_speed_kmh : float
        Average driving speed of an EV.
    bike_speed_kmh : float
        Average speed on the folding bicycle.
    park_and_unload_min : float
        Time to park the EV and take the bike out of the trunk.
    load_and_exit_min : float
        Time to load the bike into the trunk and exit the parking.
    """

    max_range_km: float
    recharge_time_min: float
    shift_limit_min: float
    workers: int
    ev_speed_kmh: float
    bike_speed_kmh: float
    park_and_unload_min: float
    load_and_exit_min: float

    def __post_init__(self) -> None:
        for name in (
            "max_range_km",
            "recharge_time_min",
            "shift_limit_min",
            "ev_speed_kmh",
            "bike_speed_kmh",
            "park_and_unload_min",
            "load_and_exit_min",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and strictly positive, got {value}")
        if not (isinstance(self.workers, int) and self.workers >= 1):
            raise ValueError("workers must be a positive integer")

    @property
    def handling_min(self) -> float:
        """Total per-drive handling overhead (park+unload plus load+exit)."""
        return self.park_and_unload_min + self.load_and_exit_min

    def driving_range_km(self, charge: float) -> float:
        """Distance coverable at the given charge fraction."""
        return charge * self.max_range_km

    def recharged(self, charge: float, parked_min: float) -> float:
        """Charge fraction after staying parked for ``parked_min`` minutes."""
        return min(1.0, charge + parked_min / self.recharge_time_min)


@dataclass(frozen=True, slots=True)
class Location:
    """A parking place, resolvable by the configured distance provider.

    ``network_node`` points into that provider (road-network node id or
    matrix key); it may be omitted when distances come from coordinates.
    Coordinates, when present, are planar km offsets.
    """

    id: str
    network_node: str | None = None
    coordinates: tuple[float, float] | None = None


@dataclass(frozen=True, slots=True)
class Request:
    """One pickup or delivery demand.

    ``charge`` is the residual battery fraction for a pickup, or the minimum
    fraction that must be available at ``time_min`` for a delivery (an EV
    delivered early may arrive below it as long as recharging closes the gap
    by ``time_min``).  ``time_min`` is the earliest pickup time for a pickup
    and the latest delivery time for a delivery.
    """

    id: str
    kind: RequestKind
    location: Location
    charge: float
    time_min: float

    def __post_init__(self) -> None:
        if not self.id or self.id == DEPOT_NODE:
            raise ValueError(f"request id must be nonempty and not {DEPOT_NODE!r}")
        if not 0.0 <= self.charge <= 1.0:
            raise ValueError(f"charge must lie in [0, 1], got {self.charge}")
        if not (math.isfinite(self.time_min) and self.time_min >= 0):
            raise ValueError(f"time_min must be finite and nonnegative, got {self.time_min}")


@dataclass(frozen=True, slots=True)
class Instance:
    """A full problem instance: parameters, depot, requests, distance source.

    ``distance_source`` is a descriptor dict with a ``"type"`` key of
    ``"euclidean"``, ``"matrix"`` or ``"road_network"``; see
    :func:`evrelocate.distances.matrix_for_instance`.
    """

    parameters: Parameters
    depot: Location
    requests: tuple[Request, ...]
    distance_source: dict[str, Any]
    _by_id: dict[str, Request] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", tuple(self.requests))
        by_id: dict[str, Request] = {}
        for req in self.requests:
            if req.id in by_id:
                raise ValueError(f"duplicate request id {req.id!r}")
            by_id[req.id] = req
        object.__setattr__(self, "_by_id", by_id)

    @property
    def pickups(self) -> tuple[Request, ...]:
        return tuple(r for r in self.requests if r.kind is RequestKind.PICKUP)

    @property
    def deliveries(self) -> tuple[Request, ...]:
        return tuple(r for r in self.requests if r.kind is RequestKind.DELIVERY)

    def request(self, request_id: str) -> Request:
        try:
            return self._by_id[request_id]
        except KeyError:
            raise KeyError(f"unknown request id {request_id!r}") from None

    def location_id(self, node: str) -> str:
        """Location id of an action-graph node: the depot's for ``DEPOT_NODE``."""
        return self.depot.id if node == DEPOT_NODE else self.request(node).location.id


@dataclass(frozen=True, slots=True)
class Route:
    """One worker's tour: depot -> pickup -> delivery -> ... -> depot.

    ``visits`` holds ``(request_id, visit_time_min)`` pairs and must
    alternate pickup, delivery, starting with a pickup and ending with a
    delivery (the action-graph arc structure forces this); visit times are
    non-decreasing and the depot-to-depot span stays within the shift limit.
    Those instance-dependent invariants are enforced by the solution checker
    rather than at construction.
    """

    worker_index: int
    visits: tuple[tuple[str, float], ...]
    depot_departure_min: float
    depot_return_min: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "visits", tuple(tuple(v) for v in self.visits))

    @property
    def request_ids(self) -> tuple[str, ...]:
        return tuple(rid for rid, _ in self.visits)

    @property
    def duration_min(self) -> float:
        return self.depot_return_min - self.depot_departure_min


@dataclass(frozen=True, slots=True)
class Solution:
    """A set of routes; the objective is the number of requests served."""

    routes: tuple[Route, ...]
    served_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "routes", tuple(self.routes))

    @classmethod
    def from_routes(cls, routes: Iterable[Route]) -> "Solution":
        routes = tuple(routes)
        count = sum(len(r.visits) for r in routes)
        sol = cls(routes=routes, served_count=count)
        served_count(sol)  # validates uniqueness across routes
        return sol

    @classmethod
    def empty(cls) -> "Solution":
        return cls(routes=(), served_count=0)


def served_count(solution: Solution) -> int:
    """Number of distinct requests visited across all routes.

    Raises ``ValueError`` if any request id appears in more than one route
    or more than once within a route.
    """
    seen: set[str] = set()
    for route in solution.routes:
        for rid, _ in route.visits:
            if rid in seen:
                raise ValueError(f"request {rid!r} served more than once")
            seen.add(rid)
    return len(seen)


def minutes_of(speed_kmh: float, distance_km: float) -> float:
    """Travel time in minutes for ``distance_km`` at ``speed_kmh``."""
    if speed_kmh <= 0:
        raise ValueError("speed must be strictly positive")
    return distance_km / speed_kmh * 60.0


# ---------------------------------------------------------------------------
# JSON serialization (canonical instance / solution file formats)
# ---------------------------------------------------------------------------


def _location_to_dict(loc: Location) -> dict[str, Any]:
    out: dict[str, Any] = {"id": loc.id}
    if loc.network_node is not None:
        out["network_node"] = loc.network_node
    if loc.coordinates is not None:
        out["coordinates"] = list(loc.coordinates)
    return out


def _location_from_dict(data: dict[str, Any]) -> Location:
    coords = data.get("coordinates")
    return Location(
        id=data["id"],
        network_node=data.get("network_node"),
        coordinates=tuple(coords) if coords is not None else None,
    )


def instance_to_json(instance: Instance) -> str:
    """Serialize an instance to its canonical JSON text (version 1)."""
    doc = {
        "format_version": INSTANCE_FORMAT_VERSION,
        "parameters": {
            "max_range_km": instance.parameters.max_range_km,
            "recharge_time_min": instance.parameters.recharge_time_min,
            "shift_limit_min": instance.parameters.shift_limit_min,
            "workers": instance.parameters.workers,
            "ev_speed_kmh": instance.parameters.ev_speed_kmh,
            "bike_speed_kmh": instance.parameters.bike_speed_kmh,
            "park_and_unload_min": instance.parameters.park_and_unload_min,
            "load_and_exit_min": instance.parameters.load_and_exit_min,
        },
        "depot": _location_to_dict(instance.depot),
        "requests": [
            {
                "id": r.id,
                "kind": r.kind.value,
                "location": _location_to_dict(r.location),
                "charge": r.charge,
                "time_min": r.time_min,
            }
            for r in instance.requests
        ],
        "distance_source": instance.distance_source,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _number(value: Any, field: str) -> int | float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    return value


def instance_from_json(text: str) -> Instance:
    """Parse the canonical instance JSON format.

    Raises ``ValueError`` naming the field for unknown or missing parameter
    keys and for non-numeric parameters, charges and times.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("instance JSON must be an object")
    version = doc.get("format_version")
    if version != INSTANCE_FORMAT_VERSION:
        raise ValueError(f"unsupported instance format_version {version!r}")
    raw = doc["parameters"]
    names = [f.name for f in fields(Parameters)]
    if set(raw) != set(names):
        unknown, missing = sorted(set(raw) - set(names)), sorted(set(names) - set(raw))
        raise ValueError(f"parameters: unknown keys {unknown}, missing keys {missing}")
    params = Parameters(**{name: _number(raw[name], f"parameters.{name}") for name in names})
    requests = tuple(
        Request(
            id=r["id"],
            kind=RequestKind(r["kind"]),
            location=_location_from_dict(r["location"]),
            charge=_number(r["charge"], f"requests[{i}].charge"),
            time_min=_number(r["time_min"], f"requests[{i}].time_min"),
        )
        for i, r in enumerate(doc["requests"])
    )
    return Instance(
        parameters=params,
        depot=_location_from_dict(doc["depot"]),
        requests=requests,
        distance_source=doc["distance_source"],
    )


def solution_to_json(solution: Solution) -> str:
    doc = {
        "format_version": SOLUTION_FORMAT_VERSION,
        "served_count": solution.served_count,
        "routes": [
            {
                "worker_index": r.worker_index,
                "depot_departure_min": r.depot_departure_min,
                "depot_return_min": r.depot_return_min,
                "visits": [
                    {"request_id": rid, "time_min": t} for rid, t in r.visits
                ],
            }
            for r in solution.routes
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def solution_from_json(text: str) -> Solution:
    doc = json.loads(text)
    version = doc.get("format_version")
    if version != SOLUTION_FORMAT_VERSION:
        raise ValueError(f"unsupported solution format_version {version!r}")
    routes = tuple(
        Route(
            worker_index=r["worker_index"],
            visits=tuple((v["request_id"], v["time_min"]) for v in r["visits"]),
            depot_departure_min=r["depot_departure_min"],
            depot_return_min=r["depot_return_min"],
        )
        for r in doc["routes"]
    )
    return Solution(routes=routes, served_count=doc["served_count"])
