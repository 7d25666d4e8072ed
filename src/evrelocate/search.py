"""Exact and heuristic solving over the action graph.

``solve_branch_and_bound`` runs a depth-first search that grows worker
routes one (pickup, delivery) pair at a time, over successor lists read
once per solve from the graph's arrays, and prunes on an admissible count
bound.  Each node carries its route's prefix
(:mod:`evrelocate.scheduling`), so a node costs O(1) scheduling: one
``extend`` and one or two ``start_delay`` per candidate pair, which give
the verdicts of ``schedule_route`` on the whole route bit for bit.  Only
the routes the search returns are timed by ``schedule_route``.  A prefix
is pruned only on conditions that no extension repairs, the open-route
verdict (``extendable``: per-leg windows and charge, the pickup chain, the
shift limit up to the last delivery).  The bike leg back to the depot is
charged only when a route is recorded as an incumbent or closed to start
the next worker (``feasible``): one more pair can end a route nearer the
depot, so that leg must not prune a prefix.

The count bound at a node is ``served + 2 * min(open pickups, open
deliveries)`` over the EV arcs between unserved requests (:class:`CountBound`).
It is kept up to date as pairs are marked served and unmarked on backtrack,
touching only the pair's EV neighbours, so a node costs O(degree) rather
than a rescan of every EV arc.

The search stops at its limits at once.  The node limit and the deadline
are tested on entering a node that could beat the incumbent and before
each extension, so an incumbent that meets the bound at the root is
proved even when the bound took the whole budget; once either trips, no
further node is visited, and every open level adds its own
optimistic value to the frontier bound and returns without opening its
next-worker branch.  ``best_bound`` stays a valid upper bound because the
optimistic value never rises below a node: an extension serves two more
requests but closes at least one open pickup and one open delivery, and a
worker switch changes neither term.  ``nodes_explored`` is at most
``node_limit + 1``.

The route bound.  Under ``use_upper_bound`` or ``use_warm_start`` a solve
first enumerates every schedulable single-worker route once
(:func:`_route_columns`), depth first over the search's own successor
lists and ``extend``/``start_delay`` verdicts, keeping one route per
distinct request set.  It prunes only prefixes that are not extendable,
which no schedulable route starts with, so the enumeration is complete.
Every K-worker answer is a packing of at most K schedulable routes with
disjoint request sets, and every such packing is a K-worker answer, so
the largest packing is the optimum (:func:`_route_packing`).  An exact
search finds it first: depth first over the routes, largest first, with
the routes still disjoint from the chosen ones as one bit set, it cuts a
branch once the free slots times the size of its largest candidate
cannot beat the best packing; every later candidate is no larger, so the
cut loses nothing and a search that ends has proved its best packing.
Those routes, timed by ``schedule_route``, are the warm start and their
count the bound, and the root visit proves them.  K=1 takes one step,
and most cells at K=2-3 end within ``PACKING_STEPS`` branches.  Past
that cap the LP that packs at most K routes, each request in at most
one, maximising the requests served, bounds the optimum instead; rounded
down to an even count it is the bound.  The search's best packing is the
warm start where it meets that bound; else, from a fractional optimum,
the LP dives (fixes a column to 1 and solves again) while its value
keeps the bound.  Where a dive falls short the solve keeps the bound and
takes the warm start from ``heuristic_sequential``; past ``ROUTE_CAP``
request sets the enumeration gives up and the solve falls back to
``compute_upper_bound`` as well.  Every HiGHS solve gets only the time
left before the deadline and none starts without it; an LP that runs out
of time gives no bound, and the search prunes with the count bound alone.
The enumeration itself does not watch the clock.

``brute_force`` is the desk-scale oracle: plain enumeration of all
pairings, partitions and orderings, with no bounding logic shared with the
search.  ``heuristic_sequential`` fixes one exact single-worker route at a
time, on a one-worker copy of the instance.  ``compute_upper_bound`` is the
LP relaxation of the K-worker model of :func:`evrelocate.milp.build_milp`.
Every function here reads K from ``instance.parameters.workers``.

That bound is valid by construction, for any distance matrix: every route
set the scheduler accepts satisfies every row of the model (its big-M
values come from time windows that contain every schedulable visit time),
so the model's optimum, and its LP relaxation above that, is at least the
largest servable count.  The workers are interchangeable, so the LP is
solved on one worker copy (see :func:`compute_upper_bound`).  Served counts
are even, so the LP value is rounded down to an even number.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from itertools import combinations, permutations, product
from numbers import Integral, Real

import numpy as np
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as highs
from scipy.sparse import csc_array

# build_graph is unused here, but perfbench's traced run wraps evrelocate.search.build_graph.
from .actiongraph import ActionGraph, build_graph  # noqa: F401
from .domain import DEPOT_NODE, Instance, Route, Solution
from . import milp
from .scheduling import Prefix, extend, leg_bounds, schedule_route, start_delay


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the branch-and-bound search.

    ``use_upper_bound`` prunes with the route packing bound, computed up
    front (see the module docstring): the optimum of an exact packing
    search, or past its step cap the packing LP, or past the route cap
    :func:`compute_upper_bound`.  ``use_warm_start`` seeds the incumbent
    with the search's best packing, or the routes of an integral LP
    optimum found by diving, else with :func:`heuristic_sequential`,
    except at K=1, where that heuristic would repeat the search.  The
    limits are a positive integer ``node_limit`` and a positive, finite
    ``time_limit_s``; anything else raises ``ValueError``.
    ``break_worker_symmetry`` explores each route *set* once (routes in
    increasing order of their first pickup) instead of every assignment of
    routes to interchangeable workers; it changes search effort, never the
    optimal objective.
    """

    use_upper_bound: bool = False
    use_warm_start: bool = False
    break_worker_symmetry: bool = False
    node_limit: int | None = None
    time_limit_s: float | None = None

    def __post_init__(self) -> None:
        limit = self.node_limit
        if limit is not None and (
            isinstance(limit, bool) or not isinstance(limit, Integral) or limit <= 0
        ):
            raise ValueError(f"node_limit must be a positive integer, not {limit!r}")
        seconds = self.time_limit_s
        if seconds is not None and (
            isinstance(seconds, bool)
            or not isinstance(seconds, Real)
            or not math.isfinite(seconds)
            or seconds <= 0
        ):
            raise ValueError(f"time_limit_s must be positive and finite, not {seconds!r}")


@dataclass
class SolveResult:
    solution: Solution
    optimal: bool
    best_bound: int
    nodes_explored: int
    elapsed_s: float


@dataclass
class _SearchState:
    best_count: int = -1
    best_routes: tuple[tuple[tuple[int, int], ...], ...] = ()  # node-index pairs per route
    nodes: int = 0
    aborted: bool = False
    frontier_bound: int = 0


class CountBound:
    """How many more requests the open EV arcs can serve, kept as pairs are marked.

    A pickup is *open* while it is unserved and has an EV arc to an unserved
    delivery; a delivery is open while it is unserved and has an EV arc from
    an unserved pickup.  Every further pair joins an open pickup to an open
    delivery, so at most ``2 * min(open pickups, open deliveries)`` more
    requests can be served.  Marking or unmarking a pair touches only the
    two nodes' EV neighbours.
    """

    def __init__(self, ev_next: dict[int, list[int]]) -> None:
        self.served: set[int] = set()
        size = 1 + max([*ev_next, *(d for ds in ev_next.values() for d in ds)], default=-1)
        # both directions of every EV arc, per node index
        self._neighbours: list[list[int]] = [[] for _ in range(size)]
        for p, ds in ev_next.items():
            self._neighbours[p] += ds
            for d in ds:
                self._neighbours[d].append(p)
        # per node, its EV neighbours that are still unserved
        self._degree = [len(ns) for ns in self._neighbours]
        # open pickups, open deliveries
        self._open = [
            sum(1 for p in ev_next if self._degree[p]),
            sum(1 for n, ns in enumerate(self._neighbours) if ns and n not in ev_next),
        ]

    def mark(self, pickup: int, delivery: int) -> None:
        """Mark served an unserved pair joined by an EV arc."""
        degree, served, opened = self._degree, self.served, self._open
        for node, side in ((pickup, 0), (delivery, 1)):
            if degree[node]:
                opened[side] -= 1
            served.add(node)
            for other in self._neighbours[node]:
                left = degree[other] = degree[other] - 1
                if not left and other not in served:
                    opened[1 - side] -= 1

    def unmark(self, pickup: int, delivery: int) -> None:
        """Undo the latest ``mark`` not yet undone, which must be of this pair."""
        degree, served, opened = self._degree, self.served, self._open
        for node, side in ((delivery, 1), (pickup, 0)):
            for other in self._neighbours[node]:
                if not degree[other] and other not in served:
                    opened[1 - side] += 1
                degree[other] += 1
            served.discard(node)
            if degree[node]:
                opened[side] += 1

    def value(self) -> int:
        """At most this many more requests can be served."""
        return 2 * min(self._open)


def _routes_to_solution(instance: Instance, graph: ActionGraph, routes) -> Solution:
    """One route per worker, each (pickup, delivery) id pairs the scheduler accepts, timed by it."""
    timed = []
    for worker, pairs in enumerate(routes):
        sched = schedule_route(instance, graph, list(pairs))
        visits = tuple((rid, sched.visit_times[rid]) for pair in pairs for rid in pair)
        timed.append(Route(worker, visits, sched.depot_departure_min, sched.depot_return_min))
    return Solution.from_routes(timed)


def _child(route, prefix, pair, leg, ride, ride_home, shift_limit):
    """``(route, prefix, feasible)`` one pair below ``route``; None if it is not extendable.

    ``leg`` is the pair's ``(low, up, op)``; ``ride_home`` is None without an arc home.
    """
    prefix = extend(prefix, *leg, ride, shift_limit)
    if prefix is None or start_delay(prefix) is None:
        return None
    feasible = ride_home is not None and start_delay(prefix, ride_home) is not None
    return route + (pair,), prefix, feasible


def _successors(instance: Instance, graph: ActionGraph, allowed: set[str]):
    """``(legs, rides, ride_home, ev_next)`` per node index, over the ``allowed`` requests.

    In request-id order: ``legs[p]`` is ``(delivery, (low, up, op))`` of
    each EV leg whose charge margin holds, ``rides[n]`` is ``(pickup,
    minutes)`` of each bike ride, ``ride_home[d]`` the minutes of the ride
    to the depot (None without that arc), and ``ev_next`` every EV arc, for
    the count bound.
    """
    # schedule_route's lookups, built now rather than when a deadline has passed
    graph.arc_position(DEPOT_NODE, DEPOT_NODE)
    params, nodes, tau, charge = instance.parameters, graph.nodes, graph.tau, graph.charge
    usable = [False] + [node in allowed for node in nodes[1:]]
    ev = graph.is_ev
    pick, drop, drive = graph.src[ev], graph.dst[ev], graph.op_time_min[ev]
    low, up, fits = leg_bounds(
        params, tau[pick], charge[pick], tau[drop], charge[drop], graph.distance_km[ev], drive
    )
    ev_next: dict[int, list[int]] = {}
    legs = [[] for _ in nodes]
    for p, d, lo, hi, op, fit in zip(*(c.tolist() for c in (pick, drop, low, up, drive, fits))):
        if usable[p] and usable[d]:
            ev_next.setdefault(p, []).append(d)
            if fit:
                legs[p].append((d, (lo, hi, op)))
    rides = [[] for _ in nodes]
    ride_home = [None] * len(nodes)
    for i, j, op in zip(*(c[~ev].tolist() for c in (graph.src, graph.dst, graph.op_time_min))):
        if j == 0:
            ride_home[i] = op
        elif usable[j]:
            rides[i].append((j, op))
    return legs, rides, ride_home, ev_next


def _named(nodes: tuple[str, ...], routes) -> list[list[tuple[str, str]]]:
    """Routes of node-index pairs as request-id pairs."""
    return [[(nodes[p], nodes[d]) for p, d in route] for route in routes]


#: The route enumeration gives up past this many distinct request sets.
ROUTE_CAP = 20_000


def _route_columns(legs, rides, ride_home, shift_limit: float) -> dict[int, tuple] | None:
    """One schedulable single-worker route per distinct request set; None past ``ROUTE_CAP`` sets.

    Keys are bit masks of node indices; each value is the first route, as
    node-index pairs, found with that set.
    """
    columns: dict[int, tuple] = {}

    def grow(route: tuple, prefix: Prefix | None, used: int, last: int) -> bool:
        for p, ride in rides[last]:
            if used >> p & 1:
                continue
            for d, leg in legs[p]:
                if used >> d & 1:
                    continue
                child = _child(route, prefix, (p, d), leg, ride, ride_home[d], shift_limit)
                if child is None:
                    continue
                mask = used | 1 << p | 1 << d
                if child[2] and mask not in columns:
                    columns[mask] = child[0]
                    if len(columns) > ROUTE_CAP:
                        return False
                if not grow(child[0], child[1], mask, d):
                    return False
        return True

    return columns if grow((), None, 0, 0) else None


#: The exact packing search gives up past this many branches, and the packing LP takes over.
#: Set by measurement on the default generator: a step costs about 1 us and the LP 2-50 ms;
#: 1 000 steps settle 80 % of the 24-request K=3 cells, while 2 000 make the K=4-5 cells,
#: which seldom settle, 14-28 % slower than the LP alone.
PACKING_STEPS = 1000


def _members(routes: list[tuple], node_count: int) -> np.ndarray:
    """Boolean (node index, column): the nodes of each route, and the depot's row 0 in every column."""
    member = np.zeros((node_count, len(routes)), dtype=bool)
    nodes = [n for route in routes for pair in route for n in pair]
    member[nodes, np.repeat(np.arange(len(routes)), [2 * len(route) for route in routes])] = True
    member[0] = True
    return member


def _route_packing(
    columns: dict[int, tuple], k_total: int, node_count: int, deadline: float | None = None
):
    """``(bound, routes)``: at most ``k_total`` disjoint route columns serving the most requests.

    A depth-first search over the columns, largest first, keeps the
    candidates still disjoint from the chosen ones as a bit set over column
    indices.  A branch is cut once ``slots`` more columns of the size of its
    largest candidate cannot beat the best packing, so when the search ends
    its best packing is optimal: ``bound`` is its count and ``routes`` its
    columns.  Past ``PACKING_STEPS`` branches the search stops, and
    :func:`_packing_lp` gives the bound; the search's best packing stands
    as ``routes`` where it meets that bound, else the LP's dive gives them.
    ``bound`` is None when the time before ``deadline`` runs out in the LP,
    and then ``routes`` is the search's best packing.
    """
    routes = list(columns.values())
    lengths = list(map(len, routes))
    order = sorted(range(len(routes)), key=lengths.__getitem__, reverse=True)
    size = [lengths[c] for c in order]
    everything = (1 << len(routes)) - 1
    if k_total > 1:  # K=1 takes the largest column and needs no clash sets
        member = _members(routes, node_count)
        rows = np.packbits(member[:, order], axis=1, bitorder="little")
        holders = [int.from_bytes(row.tobytes(), "little") for row in rows]  # per node
    apart: list[int | None] = [None] * len(routes)  # per column, the columns disjoint from it

    best_total, best_chosen, chosen, steps = 0, [], [], 0

    def pack(candidates: int, slots: int, total: int) -> bool:
        """Search below ``chosen``; False once the step cap is passed."""
        nonlocal best_total, best_chosen, steps
        if total > best_total:
            best_total, best_chosen = total, chosen[:]
        while candidates:
            lowest = candidates & -candidates
            c = lowest.bit_length() - 1
            if total + slots * size[c] <= best_total:  # no later candidate is larger
                return True
            if slots == 1:
                best_total, best_chosen = total + size[c], chosen + [c]
                return True
            steps += 1
            if steps > PACKING_STEPS:
                return False
            if apart[c] is None:
                clash = 0
                for p, d in routes[order[c]]:
                    clash |= holders[p] | holders[d]
                apart[c] = everything ^ clash
            chosen.append(c)
            if not pack(candidates & apart[c], slots - 1, total + size[c]):
                return False
            chosen.pop()
            candidates ^= lowest
        return True

    finished = pack(everything, k_total, 0)
    found = [routes[order[c]] for c in best_chosen]
    if finished:  # always at K=1: its one slot takes the first candidate
        return 2 * best_total, found
    # in enumeration order: HiGHS's choice among optimal vertices, so the dive's length, follows it
    bound, dived = _packing_lp(routes, member, k_total, deadline, 2 * best_total)
    return bound, found if bound is None or 2 * best_total >= bound else dived


def _packing_lp(routes: list[tuple], member: np.ndarray, k_total: int, deadline, reached: int):
    """``(bound, routes)`` of the packing LP over the route columns, ``member`` from :func:`_members`.

    The LP maximises the requests served by at most ``k_total`` columns,
    each request in at most one; ``bound`` is its value rounded down to an
    even count, None when the time before ``deadline`` runs out first.
    Unless a packing serving ``reached`` requests already meets ``bound``,
    ``routes`` are the columns of an integral optimum, found by diving:
    while the optimum is fractional, the fractional column of largest value
    is fixed to 1 and the LP solved again, at most ``k_total`` times.
    ``routes`` is None when a dive's value falls below ``bound``, its time
    runs out or no dive is needed.  Raises ``RuntimeError`` when the LP
    solver reports neither an optimum nor its time limit.
    """
    # row 0, the depot's, counts the columns against K; every other row holds a request once
    upper = np.ones(len(member))
    upper[0] = k_total
    rows = LinearConstraint(csc_array(member, dtype=float), -np.inf, upper)
    served = -2.0 * np.array([len(route) for route in routes])
    fixed = np.zeros(len(routes))
    bound = None
    while True:
        result = _solve_lp(served, rows, Bounds(fixed, 1.0), deadline, "route packing LP")
        if result is None:
            return bound, None
        value = math.floor(-result.fun + 1e-6)  # the slack absorbs solver round-off
        if bound is None:
            bound = value - value % 2
            if reached >= bound:
                return bound, None
        elif value < bound:
            return bound, None
        y = result.x
        fractional = np.flatnonzero(np.minimum(y, 1.0 - y) >= 1e-6)
        if not len(fractional):
            return bound, [routes[c] for c in np.flatnonzero(y > 0.5)]
        fixed[fractional[np.argmax(y[fractional])]] = 1.0


def _solve_lp(cost, rows, bounds, deadline, what: str):
    """HiGHS on an LP given the time left before ``deadline``; None when that time runs out.

    Raises ``RuntimeError`` when HiGHS reports neither an optimum nor its time limit.
    """
    options = {}
    if deadline is not None:
        options["time_limit"] = deadline - time.perf_counter()
        if options["time_limit"] <= 0:
            return None
    # scipy's milp entry with no integer column: HiGHS solves the LP with less overhead than linprog
    result = highs(cost, constraints=rows, bounds=bounds, options=options)
    if result.status == 1:  # the time (or iteration) limit
        return None
    if result.status != 0:
        raise RuntimeError(f"{what} not solved: {result.message}")
    return result


def solve_branch_and_bound(
    instance: Instance,
    graph: ActionGraph,
    options: SolveOptions | None = None,
    *,
    available: set[str] | None = None,
    incumbent: Solution | None = None,
) -> SolveResult:
    """Depth-first exact search; returns the incumbent and an optimality flag.

    When a node or time limit stops the search early the flag is False and
    ``best_bound`` is still a valid upper bound on the true optimum (the
    maximum optimistic value over the unexplored frontier).
    """
    options = options or SolveOptions()
    params = instance.parameters
    k_total = params.workers
    start = time.perf_counter()
    deadline = start + options.time_limit_s if options.time_limit_s else None

    allowed = available if available is not None else {r.id for r in instance.requests}
    nodes = graph.nodes
    legs, rides, ride_home, ev_next = _successors(instance, graph, allowed)

    state = _SearchState()

    def time_left() -> float | None:
        """Seconds before the deadline (None without one); 0 once it has passed."""
        return None if deadline is None else max(0.0, deadline - time.perf_counter())

    bound_value: int | None = None
    warm: Solution | None = None
    if options.use_upper_bound or options.use_warm_start:
        columns = _route_columns(legs, rides, ride_home, params.shift_limit_min)
        if columns is not None:
            bound_value, packed = _route_packing(columns, k_total, len(nodes), deadline)
            if packed is not None and options.use_warm_start:
                warm = _routes_to_solution(instance, graph, _named(nodes, packed))
        # at K=1 the heuristic is the very single-worker search that follows
        left = time_left()
        if options.use_warm_start and warm is None and k_total > 1 and left != 0:
            warm = heuristic_sequential(
                instance,
                graph,
                available=allowed,
                node_limit=options.node_limit,
                time_limit_s=left,
            )
        left = time_left()
        if not options.use_upper_bound:
            bound_value = None
        elif columns is None and left != 0:  # past the route cap
            bound_value = compute_upper_bound(instance, graph, left)

    best_external: Solution | None = None
    for candidate in (warm, incumbent):
        if candidate is not None and candidate.served_count > state.best_count:
            state.best_count = candidate.served_count
            best_external = candidate
    if state.best_count < 0:
        state.best_count = 0
    state.frontier_bound = state.best_count

    fixed: list[tuple[tuple[int, int], ...]] = []  # closed routes of the earlier workers
    count_bound = CountBound(ev_next)
    served = count_bound.served
    mark, unmark = count_bound.mark, count_bound.unmark
    symmetry = options.break_worker_symmetry
    shift_limit = params.shift_limit_min

    def out_of_budget() -> bool:
        if not state.aborted:
            over_nodes = options.node_limit is not None and state.nodes > options.node_limit
            over_time = deadline is not None and time.perf_counter() > deadline
            state.aborted = over_nodes or over_time
        return state.aborted

    def expand(route: tuple, prefix: Prefix | None, feasible: bool) -> None:
        last = route[-1][1] if route else 0
        # routes in increasing order of their first pickup; node 0 is no pickup
        floor = fixed[-1][0][0] if symmetry and fixed and not route else 0
        for p, ride in rides[last]:
            if p in served or p <= floor:
                continue
            for d, leg in legs[p]:
                if d in served:
                    continue
                if out_of_budget():
                    return
                child = _child(route, prefix, (p, d), leg, ride, ride_home[d], shift_limit)
                if child is None:
                    continue
                mark(p, d)
                visit(*child)
                unmark(p, d)
        if feasible and len(fixed) + 1 < k_total and not out_of_budget():
            fixed.append(route)
            visit((), None, False)
            fixed.pop()

    def visit(route: tuple, prefix: Prefix | None, feasible: bool) -> None:
        # prefix is None at a route's start; otherwise the route may be open,
        # unable yet to return to the depot (not feasible)
        state.nodes += 1
        if (prefix is None or feasible) and len(served) > state.best_count:
            state.best_count = len(served)
            state.best_routes = tuple(fixed) + ((route,) if route else ())
        optimistic = len(served) + count_bound.value()
        if bound_value is not None:
            optimistic = min(optimistic, bound_value)
        if optimistic > state.best_count and not out_of_budget():
            expand(route, prefix, feasible)
        if state.aborted:
            # this level's unexplored branches can serve no more than optimistic
            state.frontier_bound = max(state.frontier_bound, optimistic)

    visit((), None, False)

    optimal = not state.aborted
    if state.best_routes:
        # only these routes are timed
        solution = _routes_to_solution(instance, graph, _named(nodes, state.best_routes))
    elif best_external is not None and best_external.served_count >= state.best_count:
        solution = best_external
    else:
        solution = Solution.empty()
    best_bound = state.best_count if optimal else max(state.frontier_bound, state.best_count)
    return SolveResult(
        solution=solution,
        optimal=optimal,
        best_bound=best_bound,
        nodes_explored=state.nodes,
        elapsed_s=time.perf_counter() - start,
    )


def brute_force(instance: Instance, graph: ActionGraph) -> Solution:
    """Exhaustive oracle: every pairing, partition and order, largest first.

    Guarded to instances with at most 10 requests.
    """
    if len(instance.requests) > 10:
        raise ValueError("brute force is guarded to instances with at most 10 requests")
    k_total = instance.parameters.workers

    pickups = sorted(r.id for r in instance.pickups)
    deliveries = sorted(r.id for r in instance.deliveries)

    feasible_cache: dict[tuple[tuple[str, str], ...], bool] = {}

    def feasible(seq: tuple[tuple[str, str], ...]) -> bool:
        if seq not in feasible_cache:
            try:
                feasible_cache[seq] = schedule_route(instance, graph, list(seq)).feasible
            except ValueError:  # an arc of the open route is missing
                feasible_cache[seq] = False
        return feasible_cache[seq]

    for m in range(min(len(pickups), len(deliveries)), 0, -1):
        for p_sub in combinations(pickups, m):
            for d_perm in permutations(deliveries, m):
                pairing = tuple(zip(p_sub, d_perm))
                if any(graph.arc_position(p, d) < 0 for p, d in pairing):  # no EV arc
                    continue
                for assignment in product(range(k_total), repeat=m):
                    groups: list[list[tuple[str, str]]] = [[] for _ in range(k_total)]
                    for pair, worker in zip(pairing, assignment):
                        groups[worker].append(pair)
                    nonempty = [g for g in groups if g]
                    for ordering in product(*(permutations(g) for g in nonempty)):
                        if all(feasible(seq) for seq in ordering):
                            return _routes_to_solution(instance, graph, ordering)
    return Solution.empty()


def heuristic_sequential(
    instance: Instance,
    graph: ActionGraph,
    *,
    available: set[str] | None = None,
    node_limit: int | None = None,
    time_limit_s: float | None = None,
) -> Solution:
    """Fix one exact single-worker route at a time over unserved requests.

    The single-worker searches share ``time_limit_s``: each gets an even
    share of the time the earlier ones left to it and the workers after it,
    and none starts once the time is spent.  Raises ``ValueError`` for
    limits that :class:`SolveOptions` rejects.
    """
    SolveOptions(node_limit=node_limit, time_limit_s=time_limit_s)
    remaining = set(available) if available is not None else {r.id for r in instance.requests}
    deadline = time.perf_counter() + time_limit_s if time_limit_s else None
    single = replace(instance, parameters=replace(instance.parameters, workers=1))

    routes: list[Route] = []
    workers = instance.parameters.workers
    for k in range(workers):
        if not remaining:
            break
        share = None
        if deadline is not None:
            share = (deadline - time.perf_counter()) / (workers - k)
            if share <= 0:
                break
        options = SolveOptions(node_limit=node_limit, time_limit_s=share)
        result = solve_branch_and_bound(single, graph, options, available=remaining)
        picked = result.solution.routes
        if not picked or not picked[0].visits:
            break
        route = picked[0]
        routes.append(replace(route, worker_index=k))
        remaining -= set(route.request_ids)
    return Solution.from_routes(routes)


def compute_upper_bound(
    instance: Instance, graph: ActionGraph, time_limit_s: float | None = None
) -> int | None:
    """LP relaxation of the K-worker model, rounded down to an even count, from one worker copy.

    Permuting the workers maps the model onto itself, and only family 3
    (each request served at most once) sums over workers.  So averaging an
    optimal LP solution over all K! permutations keeps the objective and
    every row (a per-worker row of the average is a mean of rows that hold)
    and gives each worker the same values y, with K y <= 1 in family 3.
    Hence the K-worker LP is K times the one-worker LP with family 3's rhs
    1/K, since K copies of any y feasible there are feasible for K workers
    (orbit averaging, Margot 2010).

    HiGHS gets what is left of ``time_limit_s`` once the model is built;
    None when that time runs out before an optimum.  Raises
    ``RuntimeError`` when the LP solver reports neither.
    """
    deadline = time.perf_counter() + time_limit_s if time_limit_s is not None else None
    k_total = instance.parameters.workers
    single = replace(instance, parameters=replace(instance.parameters, workers=1))
    model = milp.build_milp(single, graph)
    rhs = np.where(model.families == 3, model.rhs / k_total, model.rhs)
    rows = LinearConstraint(
        model.matrix,
        np.where(model.senses == "<=", -np.inf, rhs),
        np.where(model.senses == ">=", np.inf, rhs),
    )
    bounds = Bounds(0.0, model.upper)
    result = _solve_lp(-model.objective, rows, bounds, deadline, "LP relaxation")
    if result is None:
        return None
    # the slack keeps solver round-off (e.g. 3.9999999) from losing a count
    served = math.floor(-k_total * result.fun + 1e-6)
    return served - served % 2
