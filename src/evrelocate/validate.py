"""Raw-constraint validation of candidate solutions.

Every constraint family of the routing model is re-evaluated directly from
the instance data and a solution's explicit visit times, independently of
how the solution was produced.  Families:

* 2  -- at most one depot departure per worker
* 3  -- each request served at most once
* 4  -- flow conservation at every visited node
* 5  -- visit time propagation along every used arc into a request node
* 6  -- route duration within the shift limit
* 7  -- pickups not served before their earliest time
* 8  -- deliveries not served after their deadline
* 9  -- drive distance covered by the charge held at the pickup (battery
        capped at full, so an overlong drive is caught even after a long wait)
* 10 -- charge handed over recharges to the required level by the deadline
* 11 -- same requirement assuming a full battery at the pickup (the cap)

Arc costs are recomputed from the distance matrix and speed parameters, so
a solution claiming a physically impossible action fails the corresponding
family row instead of being rejected up front.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .actiongraph import ActionGraph
from .domain import (
    CHARGE_TOL,
    DEPOT_NODE,
    Instance,
    RequestKind,
    Solution,
    TIME_TOL,
    minutes_of,
)

DIST_TOL = 1e-6  # km

FAMILY_LABELS = {
    2: "one depot departure per worker",
    3: "request served at most once",
    4: "flow conservation",
    5: "visit-time propagation",
    6: "route duration limit",
    7: "pickup earliest time",
    8: "delivery deadline",
    9: "drive within charged range",
    10: "handover charge reaches requirement",
    11: "full-battery handover bound",
}


@dataclass(frozen=True, slots=True)
class RowResult:
    family: int
    row: str
    satisfied: bool
    slack: float


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple[RowResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.satisfied for r in self.rows)

    def failures(self) -> tuple[RowResult, ...]:
        return tuple(r for r in self.rows if not r.satisfied)

    def to_json(self) -> str:
        doc = [
            {"family": r.family, "row": r.row, "satisfied": r.satisfied, "slack": r.slack}
            for r in self.rows
        ]
        return json.dumps(doc, indent=2) + "\n"


def _leg_cost_km(instance: Instance, graph: ActionGraph, a: str, b: str) -> tuple[float, float]:
    """(op_time_min, distance_km) for the action a -> b, by node kinds."""
    params = instance.parameters
    d_km = graph.distances.distance(instance.location_id(a), instance.location_id(b))
    a_kind = None if a == DEPOT_NODE else instance.request(a).kind
    b_kind = None if b == DEPOT_NODE else instance.request(b).kind
    if a_kind is RequestKind.PICKUP and b_kind is RequestKind.DELIVERY:
        return minutes_of(params.ev_speed_kmh, d_km) + params.handling_min, d_km
    if a_kind in (None, RequestKind.DELIVERY) and b_kind in (None, RequestKind.PICKUP):
        return minutes_of(params.bike_speed_kmh, d_km), d_km
    raise ValueError(f"route step {a!r} -> {b!r} does not alternate pickup/delivery")


def check_solution(instance: Instance, graph: ActionGraph, solution: Solution) -> ValidationReport:
    """Evaluate every applicable constraint row against a candidate solution."""
    params = instance.parameters
    gamma = params.recharge_time_min
    cap_km = params.max_range_km
    t_limit = params.shift_limit_min
    known = {r.id for r in instance.requests}
    for route in solution.routes:
        for rid, _ in route.visits:
            if rid not in known:
                raise ValueError(f"solution visits unknown request {rid!r}")

    rows: list[RowResult] = []

    # family 2: departures per worker
    departures: dict[int, int] = {}
    for route in solution.routes:
        departures[route.worker_index] = departures.get(route.worker_index, 0) + 1
    for k in sorted(set(range(params.workers)) | set(departures)):
        used = departures.get(k, 0)
        ok = used <= 1 and 0 <= k < params.workers
        rows.append(RowResult(2, f"worker {k + 1} departures", ok, 1.0 - used))

    # family 3: request multiplicity
    visit_count: dict[str, int] = {r.id: 0 for r in instance.requests}
    for route in solution.routes:
        for rid, _ in route.visits:
            visit_count[rid] += 1
    for req in instance.requests:
        count = visit_count[req.id]
        rows.append(RowResult(3, f"request {req.id}", count <= 1, 1.0 - count))

    # families 4-11 are evaluated per route
    for route in solution.routes:
        k = route.worker_index + 1
        seq = [DEPOT_NODE] + [rid for rid, _ in route.visits] + [DEPOT_NODE]
        times = {DEPOT_NODE: route.depot_departure_min}
        times.update({rid: t for rid, t in route.visits})

        # family 4: each node on the cycle has matching in/out degree
        out_deg: dict[str, int] = {}
        in_deg: dict[str, int] = {}
        for a, b in zip(seq, seq[1:]):
            out_deg[a] = out_deg.get(a, 0) + 1
            in_deg[b] = in_deg.get(b, 0) + 1
        for node in dict.fromkeys(seq):
            diff = out_deg.get(node, 0) - in_deg.get(node, 0)
            rows.append(RowResult(4, f"node {node} worker {k}", diff == 0, float(-abs(diff))))

        # family 5: arcs into request nodes
        for a, b in zip(seq, seq[1:]):
            if b == DEPOT_NODE:
                continue
            cost, _ = _leg_cost_km(instance, graph, a, b)
            slack = times[b] - times[a] - cost
            rows.append(
                RowResult(5, f"arc {a}->{b} worker {k}", slack >= -TIME_TOL, slack)
            )

        # family 6: duration from depot departure to return
        last = seq[-2]
        if last != DEPOT_NODE:
            cost, _ = _leg_cost_km(instance, graph, last, DEPOT_NODE)
            duration = times[last] + cost - route.depot_departure_min
            slack = t_limit - duration
            rows.append(RowResult(6, f"route of worker {k}", slack >= -TIME_TOL, slack))

        # families 7/8: request time bounds
        for rid, t in route.visits:
            req = instance.request(rid)
            if req.kind is RequestKind.PICKUP:
                slack = t - req.time_min
                rows.append(RowResult(7, f"pickup {rid} worker {k}", slack >= -TIME_TOL, slack))
            else:
                slack = req.time_min - t
                rows.append(RowResult(8, f"delivery {rid} worker {k}", slack >= -TIME_TOL, slack))

        # families 9-11: battery conditions on each drive
        for a, b in zip(seq, seq[1:]):
            if a == DEPOT_NODE or b == DEPOT_NODE:
                continue
            p = instance.request(a)
            d = instance.request(b)
            if p.kind is not RequestKind.PICKUP or d.kind is not RequestKind.DELIVERY:
                continue
            _, d_km = _leg_cost_km(instance, graph, a, b)
            uncapped = p.charge + (times[a] - p.time_min) / gamma
            charge_at_pickup = min(1.0, uncapped)
            slack9 = cap_km * charge_at_pickup - d_km
            rows.append(RowResult(9, f"drive {a}->{b} worker {k}", slack9 >= -DIST_TOL, slack9))
            # family 10 uses the uncapped charge level; together with the
            # full-battery bound of family 11 this is the capped condition.
            required_now = d.charge - (d.time_min - times[b]) / gamma
            slack10 = (uncapped - d_km / cap_km) - required_now
            rows.append(
                RowResult(10, f"handover {a}->{b} worker {k}", slack10 >= -CHARGE_TOL, slack10)
            )
            slack11 = (1.0 - d_km / cap_km) - required_now
            rows.append(
                RowResult(11, f"full-battery {a}->{b} worker {k}", slack11 >= -CHARGE_TOL, slack11)
            )

    return ValidationReport(rows=tuple(rows))
