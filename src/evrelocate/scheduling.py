"""Charge-aware scheduling of a single worker's route.

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

All per-leg conditions are therefore intervals on the pickup service time
plus chain constraints, so one forward pass computes earliest times.  The
route duration counts from depot departure (derived: the latest departure
reaching the first pickup on time), so when the earliest schedule is too
long the whole start is delayed as far as the per-leg upper bounds allow,
which can only shrink the span.  A 1-minute grid search over service times
is the reference oracle for this logic in the test suite.

Two verdicts come out of one pass.  The *open route* ends at its last
delivery: per-leg windows and charge, the pickup chain, and the shift limit
measured to the last delivery.  Once violated these stay violated as pairs
are appended, so a search may prune a prefix on them (``extendable``).  The
*closed route* rides back to the depot: it needs that arc and must fit the
shift with that leg charged (``feasible``).  One more pair can end a route
nearer the depot, so the return leg never decides a prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .actiongraph import ActionGraph, ArcKind
from .domain import CHARGE_TOL, DEPOT_NODE, Instance, RequestKind, TIME_TOL


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

    @property
    def duration_min(self) -> float:
        return self.depot_return_min - self.depot_departure_min


def _infeasible(reason: str, extendable: bool) -> ScheduleResult:
    return ScheduleResult(False, extendable, {}, 0.0, 0.0, (), reason)


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
    big_t = params.shift_limit_min
    gamma = params.recharge_time_min
    cap_km = params.max_range_km

    arc = graph.arc_index.get  # one attribute read per call, not per leg
    seen: set[str] = set()
    legs = []
    for p_id, d_id in pairs:
        p = instance.request(p_id)
        d = instance.request(d_id)
        if p.kind is not RequestKind.PICKUP or d.kind is not RequestKind.DELIVERY:
            raise ValueError(f"pair ({p_id}, {d_id}) does not alternate pickup/delivery")
        for rid in (p_id, d_id):
            if rid in seen:
                raise ValueError(f"request {rid!r} repeated in route")
            seen.add(rid)
        ev = arc((p_id, d_id))
        if ev is None or ev.kind is not ArcKind.EV:
            raise ValueError(f"no EV arc {p_id} -> {d_id} in graph")
        legs.append((p, d, ev))

    first_bike = arc((DEPOT_NODE, pairs[0][0]))
    if first_bike is None:
        raise ValueError(f"no depot arc to {pairs[0][0]} in graph")
    connectors = []
    for (_, d_prev, _), (p_next, _, _) in zip(legs, legs[1:]):
        bike = arc((d_prev.id, p_next.id))
        if bike is None or bike.kind is not ArcKind.BIKE:
            raise ValueError(f"no bike arc {d_prev.id} -> {p_next.id} in graph")
        connectors.append(bike)

    m = len(legs)
    lows = []
    ups = []
    for k, (p, d, ev) in enumerate(legs):
        need = ev.distance_km / cap_km
        low = max(p.time_min, p.time_min + gamma * (need - p.charge))  # release, battery coverage
        if k == 0:
            low = max(low, first_bike.op_time_min)  # depot departure at or after 0
        deadline = d.time_min - ev.op_time_min
        up = min(deadline, deadline + gamma * (1.0 - need - d.charge))  # deadline, saturation
        margin = p.charge - need + (d.time_min - p.time_min - ev.op_time_min) / gamma
        if margin < d.charge - CHARGE_TOL:
            return _infeasible(
                f"leg {p.id}->{d.id}: delivered charge cannot reach {d.charge:g} by {d.time_min:g}",
                extendable=False,
            )
        lows.append(low)
        ups.append(up)

    deltas = [0.0]  # travel from previous pickup service to next pickup arrival
    for bike, (_, _, ev_prev) in zip(connectors, legs):
        deltas.append(ev_prev.op_time_min + bike.op_time_min)

    earliest = [lows[0]]
    for k in range(1, m):
        earliest.append(max(lows[k], earliest[k - 1] + deltas[k]))
    for k in range(m):
        if earliest[k] > ups[k] + TIME_TOL:
            p, d, _ = legs[k]
            return _infeasible(
                f"leg {p.id}->{d.id}: earliest service {earliest[k]:g} exceeds bound {ups[k]:g}",
                extendable=False,
            )

    chain_total = sum(deltas)

    def start_delay(span_max: float) -> float | None:
        """Least start delay fitting the span in ``span_max``; None if none does."""
        if chain_total > span_max + TIME_TOL:
            return None
        excess = (earliest[-1] - earliest[0]) - span_max
        if excess <= TIME_TOL:
            return 0.0
        # Delay the whole start; forced chain positions must respect the
        # per-leg upper bounds (the earliest positions already do).
        delay_cap = math.inf
        cum = 0.0
        for k in range(m):
            cum += deltas[k]
            delay_cap = min(delay_cap, ups[k] - earliest[0] - cum)
        if excess > delay_cap + TIME_TOL:
            return None
        return min(excess, delay_cap)

    span_open = big_t - first_bike.op_time_min - legs[-1][2].op_time_min
    if start_delay(span_open) is None:
        return _infeasible("shift limit exceeded by the last delivery", extendable=False)
    last_bike = arc((pairs[-1][1], DEPOT_NODE))
    if last_bike is None:
        return _infeasible(f"no arc from {pairs[-1][1]} back to the depot", extendable=True)
    delay = start_delay(span_open - last_bike.op_time_min)
    if delay is None:
        return _infeasible("route duration exceeds the shift limit", extendable=True)

    times = [earliest[0] + delay]
    for k in range(1, m):
        times.append(max(earliest[k], times[k - 1] + deltas[k]))

    visit_times: dict[str, float] = {}
    trace = []
    for k, (p, d, ev) in enumerate(legs):
        t_p = times[k]
        t_d = t_p + ev.op_time_min
        charge_at_pickup = min(1.0, p.charge + (t_p - p.time_min) / gamma)
        visit_times[p.id] = t_p
        visit_times[d.id] = t_d
        trace.append((charge_at_pickup, charge_at_pickup - ev.distance_km / cap_km))

    departure = times[0] - first_bike.op_time_min
    arrival = visit_times[legs[-1][1].id] + last_bike.op_time_min
    return ScheduleResult(
        feasible=True,
        extendable=True,
        visit_times=visit_times,
        depot_departure_min=departure,
        depot_return_min=arrival,
        charge_trace=tuple(trace),
    )
