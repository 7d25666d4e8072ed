"""Exact and heuristic solving over the action graph.

``solve_branch_and_bound`` has two configurations (:class:`SolveOptions`):
the baseline search, and the paper configuration, which answers from the
pool of single-worker routes.

The baseline search grows worker routes depth first, one (pickup,
delivery) pair at a time, over successor lists read once per solve from
the graph's arrays.  Each node carries its route's prefix
(:mod:`evrelocate.scheduling`), so a node costs O(1) scheduling: one
``extend`` and one or two ``start_delay`` per candidate pair, which give
the verdicts of ``schedule_route`` on the whole route bit for bit; only the
returned routes are timed by ``schedule_route``.  A prefix is pruned only
on conditions that no extension repairs (``extendable``: per-leg windows
and charge, the pickup chain, the shift limit up to the last delivery).
The bike leg back to the depot is charged only when a route is recorded as
an incumbent or closed to start the next worker (``feasible``): one more
pair can end a route nearer the depot.  A node is pruned on its count
bound, ``served + 2 * min(open pickups, open deliveries)`` over the EV
arcs between unserved requests (:class:`CountBound`, kept up to date in
O(degree) as pairs are marked and unmarked).  The node limit and the
deadline are tested on entering a node that could beat the incumbent and
before each extension; once either trips, no further node is visited, and
every open level adds its own optimistic value to the frontier bound.
``best_bound`` stays a valid upper bound because the optimistic value
never rises below a node: an extension serves two more requests but closes
at least one open pickup and one open delivery, and a worker switch
changes neither term.  ``nodes_explored`` is at most ``node_limit + 1``.

The paper configuration first enumerates every schedulable single-worker
route once (:func:`_route_columns`), depth first over the same successor
lists and verdicts, keeping one route per distinct request set; it prunes
only prefixes that are not extendable, so the enumeration is complete.
Every K-worker answer is a packing of at most K schedulable routes with
disjoint request sets, and every such packing is a K-worker answer, so the
largest packing is the optimum (:func:`_route_packing`).  An exact search
finds it first: depth first over the routes, largest first, with the
routes still disjoint from the chosen ones as one bit set, it cuts a branch
once the free slots times the size of its largest candidate cannot beat
the best packing, so a search that ends has proved its best packing.  K=1
takes one step, and most cells at K=2-3 end within ``PACKING_STEPS``
branches.  Past that cap the packing LP (at most K routes, each request in
at most one), rounded down to an even count, is the bound; the search's
best packing is the answer where it meets it, else the LP dives (fixes a
column to 1 and solves again) while its value keeps the bound.  Where the
dive falls short, or the LP runs out of time, the packing search runs
again without its step cap, under the deadline.  The answer is read at the
root (``nodes_explored`` is 1): the K-worker search never runs.

The enumeration gives up past ``ROUTE_CAP`` request sets, or once the
deadline passes (it reads the clock every 512 routes tried).  Then at K>1
the answer is :func:`heuristic_sequential`'s, run with the time left, and
:func:`compute_upper_bound` gets whatever time remains; at K=1
:func:`compute_upper_bound` comes first and prunes the baseline search.
Every HiGHS solve gets only the time left and none starts without it; an
LP that runs out of time gives no bound.  The paper configuration's
``best_bound`` is the smallest bound that ran, the root's count bound
among them, and ``optimal`` holds where the answer meets it.

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
    """The configuration of a solve and its limits.

    ``use_upper_bound``, ``use_warm_start`` and ``break_worker_symmetry``
    are one switch spelled three ways: all on select the paper
    configuration, all off the baseline search (see the module docstring),
    and a mix raises ``ValueError``.  They stay three fields only because
    the benchmark passes them by name.  The limits are a positive integer
    ``node_limit`` (of baseline search nodes) and a positive, finite
    ``time_limit_s``; anything else raises ``ValueError``.
    """

    use_upper_bound: bool = False
    use_warm_start: bool = False
    break_worker_symmetry: bool = False
    node_limit: int | None = None
    time_limit_s: float | None = None

    def __post_init__(self) -> None:
        switch = (self.use_upper_bound, self.use_warm_start, self.break_worker_symmetry)
        if len(set(map(bool, switch))) > 1:
            raise ValueError(
                "use_upper_bound, use_warm_start and break_worker_symmetry must be all on "
                "(the paper configuration) or all off (the baseline search)"
            )
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
    best_count: int = 0
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


def _past(deadline: float | None) -> bool:
    """Whether ``deadline`` has passed (never without one)."""
    return deadline is not None and time.perf_counter() > deadline


def _time_left(deadline: float | None) -> float | None:
    """Seconds before ``deadline`` (None without one); 0 once it has passed."""
    return None if deadline is None else max(0.0, deadline - time.perf_counter())


def _route_columns(legs, rides, ride_home, shift_limit: float, deadline=None) -> dict | None:
    """One schedulable single-worker route per distinct request set.

    Keys are bit masks of node indices; each value is the first route, as
    node-index pairs, found with that set.  None past ``ROUTE_CAP`` sets,
    or once ``deadline`` has passed: the clock is read every 512 routes tried.
    """
    columns: dict[int, tuple] = {}
    tried = 0

    def grow(route: tuple, prefix: Prefix | None, used: int, last: int) -> bool:
        nonlocal tried
        for p, ride in rides[last]:
            if used >> p & 1:
                continue
            for d, leg in legs[p]:
                if used >> d & 1:
                    continue
                tried += 1
                if not tried % 512 and _past(deadline):
                    return False
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


def _route_packing(columns: dict, k_total: int, node_count: int, deadline=None, capped=True):
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
    and then ``routes`` is the search's best packing.  Not ``capped``, the
    search runs under ``deadline`` instead, reading the clock every 512
    branches, and no LP runs: once the deadline passes ``bound`` is None
    and ``routes`` the best packing found.
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
            if not capped:
                if not steps % 512 and _past(deadline):
                    return False
            elif steps > PACKING_STEPS:
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
    if not capped:
        return None, found
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
) -> SolveResult:
    """The answer of the configuration ``options`` selects, over the ``available`` requests.

    When a limit stops a solve early ``optimal`` is False and
    ``best_bound`` is still a valid upper bound on the true optimum.
    """
    options = options or SolveOptions()
    start = time.perf_counter()
    deadline = start + options.time_limit_s if options.time_limit_s else None
    allowed = available if available is not None else {r.id for r in instance.requests}
    successors = _successors(instance, graph, allowed)
    if options.use_upper_bound:
        answer = _from_routes(instance, graph, successors, allowed, options.node_limit, deadline)
    else:
        answer = _search(instance, graph, successors, options.node_limit, deadline)
    return SolveResult(*answer, elapsed_s=time.perf_counter() - start)


def _from_routes(instance, graph, successors, allowed, node_limit, deadline):
    """The paper configuration: ``(solution, optimal, best_bound, nodes_explored)``.

    The packing of the route pool; past the route cap the sequential
    heuristic, or at K=1 the baseline search pruned by the compact bound
    (see the module docstring).
    """
    legs, rides, ride_home, ev_next = successors
    params = instance.parameters
    k_total, nodes = params.workers, graph.nodes
    columns = _route_columns(legs, rides, ride_home, params.shift_limit_min, deadline)
    if columns is None and k_total == 1:
        compact = _compact_bound(instance, graph, deadline)
        return _search(instance, graph, successors, node_limit, deadline, compact)
    if columns is None:
        left = _time_left(deadline)
        solution = Solution.empty()
        if left != 0:
            solution = heuristic_sequential(
                instance, graph, available=allowed, node_limit=node_limit, time_limit_s=left
            )
        bound = _compact_bound(instance, graph, deadline)
    else:
        bound, routes = _route_packing(columns, k_total, len(nodes), deadline)
        if bound is None or routes is None:  # the LP ran out of time, or its dive fell short
            searched, routes = _route_packing(columns, k_total, len(nodes), deadline, capped=False)
            bound = bound if searched is None else searched
        solution = _routes_to_solution(instance, graph, _named(nodes, routes))
    root = CountBound(ev_next).value()
    bound = root if bound is None else min(bound, root)
    return solution, solution.served_count == bound, bound, 1


def _compact_bound(instance, graph, deadline) -> int | None:
    """:func:`compute_upper_bound` given the time left; None when none is left or it runs out."""
    left = _time_left(deadline)
    return None if left == 0 else compute_upper_bound(instance, graph, left)


def _search(instance, graph, successors, node_limit, deadline, bound_value=None):
    """The baseline search: ``(solution, optimal, best_bound, nodes_explored)``.

    ``bound_value``, where given, caps the optimistic value of every node.
    """
    legs, rides, ride_home, ev_next = successors
    params = instance.parameters
    k_total, shift_limit = params.workers, params.shift_limit_min
    state = _SearchState()
    fixed: list[tuple[tuple[int, int], ...]] = []  # closed routes of the earlier workers
    count_bound = CountBound(ev_next)
    served = count_bound.served
    mark, unmark = count_bound.mark, count_bound.unmark

    def out_of_budget() -> bool:
        if not state.aborted:
            over_nodes = node_limit is not None and state.nodes > node_limit
            over_time = deadline is not None and time.perf_counter() > deadline
            state.aborted = over_nodes or over_time
        return state.aborted

    def expand(route: tuple, prefix: Prefix | None, feasible: bool) -> None:
        last = route[-1][1] if route else 0
        for p, ride in rides[last]:
            if p in served:
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
    # only the returned routes are timed
    solution = _routes_to_solution(instance, graph, _named(graph.nodes, state.best_routes))
    best_bound = state.best_count if optimal else max(state.frontier_bound, state.best_count)
    return solution, optimal, best_bound, state.nodes


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
