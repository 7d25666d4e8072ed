"""Charge-aware scheduling of a single worker's route, one pair at a time.

Given an ordered list of (pickup, delivery) pairs, decide whether visit
times exist satisfying every timing and battery condition, and produce the
canonical (earliest, minimally delayed) times when they do.

Per leg with pickup p (charge rho_p, earliest time tau_p), delivery d
(required charge rho_d at deadline tau_d) and drive distance ``dist``:

* the pickup cannot be served before ``tau_p``, before the bike arrives,
  or before the battery has recharged enough to cover the drive:
  ``t_p >= tau_p + Gamma * (dist/L - rho_p)`` (the EV charges at rate
  1/Gamma from its known level rho_p at tau_p, capped at full);
* the delivery happens on arrival, ``t_d = t_p + c`` with c the drive time
  plus both handling overheads;
* the battery handed over must recharge to rho_d by tau_d.  Below the cap
  the margin is independent of when the pickup happens (waiting gains
  exactly what the shorter post-delivery window loses), which yields a
  time-free feasibility constant per leg; once the pickup charge saturates
  at 1, extra delay only hurts, which yields an upper bound on t_p.
  Together: infeasible unless
  ``rho_p - dist/L + (tau_d - tau_p - c)/Gamma >= rho_d``  and
  ``t_p <= tau_d - c + Gamma * (1 - dist/L - rho_d)``.

So every leg is an interval ``[low, up]`` on its pickup service time plus
a charge-margin verdict, constants of its EV arc (:func:`leg_bounds`).  The
route duration counts from depot departure (derived: the latest departure
reaching the first pickup on time), so when the earliest schedule is too
long the whole start is delayed as far as the per-leg upper bounds allow,
which can only shrink the span.  A 1-minute grid search over service times
is the reference oracle for this logic in the test suite.

The step.  :func:`extend` appends a ride and a leg to a route prefix
(:data:`Prefix`) in O(1) by forward time slack (Savelsbergh 1992): the new
pickup's earliest service is the larger of its ``low`` and the last one's
plus the travel between them, and the start-delay cap shrinks to the new
leg's room.  :func:`start_delay` tests the shift in O(1).  Two verdicts
come out.  The *open route* ends at its last delivery: per-leg windows and
charge, the pickup chain, and the shift limit measured to the last
delivery.  Once violated these stay violated as pairs are appended, so a
search may prune a prefix on them (``extendable``).  The *closed route*
rides back to the depot: it needs that arc and must fit the shift with
that leg charged (``feasible``).  One more pair can end a route nearer the
depot, so the return leg never decides a prefix.  :func:`schedule_route`
validates a whole pair list, folds :func:`extend` over it and writes the
times, so a search that carries prefixes gets its verdicts bit for bit.
It resolves request ids through the graph's node index and reads each
request's time, charge and kind from the graph's node arrays, the same
arrays the search reads; the instance gives only the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actiongraph import ActionGraph
from .domain import CHARGE_TOL, DEPOT_NODE, Instance, TIME_TOL

#: (earliest first service, earliest last service, chain total, start-delay
#: cap, shift left after the ride from the depot, last drive), all minutes.
Prefix = tuple[float, float, float, float, float, float]


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling one route.

    ``feasible``: the closed route, depot to depot, has valid times; the
    times are set only then.  ``extendable``: the route up to its last
    delivery has valid times; if not, no route starting with these pairs is
    feasible.
    """

    feasible: bool
    extendable: bool
    visit_times: dict[str, float]
    depot_departure_min: float
    depot_return_min: float
    charge_trace: tuple[tuple[float, float], ...]
    reason: str | None = None


def _infeasible(reason: str, extendable: bool) -> ScheduleResult:
    return ScheduleResult(False, extendable, {}, 0.0, 0.0, (), reason)


def leg_bounds(params, p_time, p_charge, d_time, d_charge, km, op):
    """Per EV leg, the pickup window ``(low, up)`` and whether the charge margin holds.

    Per leg: pickup and delivery time and charge, km and operational time;
    arrays of legs or the floats of one.
    """
    gamma = params.recharge_time_min
    need = km / params.max_range_km
    low = np.maximum(p_time, p_time + gamma * (need - p_charge))  # release, battery coverage
    deadline = d_time - op
    up = np.minimum(deadline, deadline + gamma * (1.0 - need - d_charge))  # deadline, saturation
    margin = p_charge - need + (d_time - p_time - op) / gamma
    return low, up, margin >= d_charge - CHARGE_TOL  # inputs are finite, so never NaN


def extend(
    prefix: Prefix | None, low: float, up: float, op: float, ride: float, shift_limit: float
) -> Prefix | None:
    """``prefix`` followed by a ride of ``ride`` minutes and the leg ``(low, up, op)``.

    With ``prefix`` None the leg opens a route and the ride is from the
    depot.  Returns None when the leg's earliest service passes ``up``.
    """
    if prefix is None:
        first = max(low, ride)  # depot departure at or after 0
        if first > up + TIME_TOL:
            return None
        return (first, first, 0.0, up - first, shift_limit - ride, op)
    first, last, chain, cap, budget, last_op = prefix
    travel = last_op + ride  # from the last pickup's service to this pickup's arrival
    earliest = max(low, last + travel)
    if earliest > up + TIME_TOL:
        return None
    chain += travel
    return (first, earliest, chain, min(cap, up - first - chain), budget, op)


def start_delay(prefix: Prefix, ride_home: float = 0.0) -> float | None:
    """Least delay of the whole start that fits the shift; None if none does.

    The shift runs from depot departure to the last delivery plus ``ride_home``.
    """
    first, last, chain, cap, budget, op = prefix
    span = budget - op - ride_home
    if chain > span + TIME_TOL:
        return None
    excess = (last - first) - span
    if excess <= TIME_TOL:
        return 0.0
    if excess > cap + TIME_TOL:
        return None
    return min(excess, cap)


def schedule_route(
    instance: Instance,
    graph: ActionGraph,
    pairs: list[tuple[str, str]],
) -> ScheduleResult:
    """Schedule an alternating pickup/delivery sequence on existing arcs.

    ``pairs`` lists (pickup_id, delivery_id) in service order.  Raises
    ``ValueError`` when the sequence is malformed (wrong kinds, repeated
    requests, or an arc of the open route missing from the graph); returns
    an infeasible result when the sequence is well-formed but no valid
    times exist, including when the last delivery has no arc back to the
    depot.
    """
    if not pairs:
        raise ValueError("route must contain at least one pickup/delivery pair")
    params = instance.parameters
    ids = [rid for pair in pairs for rid in pair]
    nodes = [graph.node_index.get(rid, 0) for rid in ids]  # node 0, the depot, is no request
    if 0 in nodes:
        raise KeyError(f"unknown request id {ids[nodes.index(0)]!r}")
    tau, charge, pickup = (c[nodes].tolist() for c in (graph.tau, graph.charge, graph.is_pickup))
    for k in range(0, len(ids), 2):
        if not pickup[k] or pickup[k + 1]:
            raise ValueError(f"pair ({ids[k]}, {ids[k + 1]}) does not alternate pickup/delivery")
    repeated = [rid for k, rid in enumerate(ids) if rid in ids[:k]]
    if repeated:
        raise ValueError(f"request {repeated[0]!r} repeated in route")

    # arcs in route order: ride to the first pickup, leg, ride, ..., leg, ride home
    stops = [DEPOT_NODE] + ids + [DEPOT_NODE]
    arcs = []
    for a, (i, j) in enumerate(zip(stops, stops[1:])):
        arcs.append(graph.arc_position(i, j))
        if arcs[-1] < 0 and a < len(ids):  # only the ride home may be missing
            raise ValueError(f"no {'EV' if a % 2 else 'bike'} arc {i} -> {j} in graph")
    minutes = graph.op_time_min[arcs[:-1]].tolist()  # ride, leg, ride, ..., leg
    rides, op = minutes[0::2], minutes[1::2]
    km = graph.distance_km[arcs[1:-1:2]].tolist()
    prefix = None
    earliest = []
    for k in range(len(pairs)):
        p, d = 2 * k, 2 * k + 1
        low, up, fits = leg_bounds(params, tau[p], charge[p], tau[d], charge[d], km[k], op[k])
        if not fits:
            reach = f"delivered charge cannot reach {charge[d]:g} by {tau[d]:g}"
            return _infeasible(f"leg {ids[p]}->{ids[d]}: {reach}", extendable=False)
        prefix = extend(prefix, float(low), float(up), op[k], rides[k], params.shift_limit_min)
        if prefix is None:
            return _infeasible(f"leg {ids[p]}->{ids[d]}: earliest service exceeds {up:g}", False)
        earliest.append(prefix[1])
    if start_delay(prefix) is None:
        return _infeasible("shift limit exceeded by the last delivery", extendable=False)
    if arcs[-1] < 0:
        return _infeasible(f"no arc from {ids[-1]} back to the depot", extendable=True)
    ride_home = float(graph.op_time_min[arcs[-1]])
    delay = start_delay(prefix, ride_home)
    if delay is None:
        return _infeasible("route duration exceeds the shift limit", extendable=True)

    t_p = earliest[0] + delay
    departure = t_p - rides[0]
    visit_times: dict[str, float] = {}
    trace = []
    for k in range(len(pairs)):
        p, d = 2 * k, 2 * k + 1
        if k:
            t_p = max(earliest[k], t_p + (op[k - 1] + rides[k]))
        charge_at_pickup = min(1.0, charge[p] + (t_p - tau[p]) / params.recharge_time_min)
        visit_times[ids[p]] = t_p
        visit_times[ids[d]] = t_p + op[k]
        trace.append((charge_at_pickup, charge_at_pickup - km[k] / params.max_range_km))
    return ScheduleResult(
        feasible=True,
        extendable=True,
        visit_times=visit_times,
        depot_departure_min=departure,
        depot_return_min=visit_times[ids[-1]] + ride_home,
        charge_trace=tuple(trace),
    )
