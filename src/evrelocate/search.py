"""Exact and heuristic solving over the action graph.

``solve_branch_and_bound`` has two configurations (:class:`SolveOptions`):
the baseline search, and the paper configuration, which answers from the
pool of single-worker routes.

The baseline search grows worker routes depth first, one (pickup,
delivery) pair at a time, over next-pair lists read once per solve from
the graph's arrays (:func:`_next_pairs`).  Each node carries its route's
prefix (:mod:`evrelocate.scheduling`), so a node costs O(1) scheduling: one
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
route once (:func:`_route_columns`), depth first over the same next-pair
lists with ``extend`` and ``start_delay`` inlined on the same floats,
keeping the first route of each distinct request set; it prunes only
prefixes that are not extendable, so the enumeration is complete.  The
pool is one flat list of node indices, route after route in pair order,
with column pointers: the packing search and the packing LP read it, and
only the routes a solve returns become pairs.  Every K-worker answer is a
packing of at most K schedulable routes with disjoint request sets, and
every such packing is a K-worker answer, so the largest packing is the
optimum (:func:`_route_packing`).  An exact search
finds it: depth first over the routes, largest first, with the routes
still disjoint from the chosen ones as one bit set, it cuts a branch once
the free slots times the size of its largest candidate cannot beat the
best packing, and stops once its best packing reaches an upper bound, so a
search that ends has proved its best packing.  K=1 takes one step, and
most cells at K=2-3 end within ``PACKING_STEPS`` branches.  Past that cap
the packing LP (at most K routes, each request in at most one), rounded
down to an even count, is the bound and the search's goal, and the search
goes on under the deadline until its best packing meets that bound or it
ends.  The answer is read at the root (``nodes_explored`` is 1): the
K-worker search never runs.

The enumeration gives up past ``ROUTE_CAP`` request sets, or once the
deadline passes (it reads the clock every 512 prefixes).  Then
:func:`compute_upper_bound` runs first on at most ``BOUND_SHARE`` of the
time left, but only where ``COMPACT_LP_RATE`` says it finishes in that
share: HiGHS cannot be stopped at its limit (it overruns by tens of
milliseconds at 200 requests), and a bound cut short is no bound.  The
rest of the time goes at K>1 to :func:`heuristic_sequential`, whose answer
it is, and at K=1 to the baseline search, pruned by that bound.  Every
HiGHS solve gets only the time left and none starts without it; an LP
that runs out of time gives no bound.  The paper configuration's
``best_bound`` is the smallest bound that ran, the root's count bound
(twice the smaller count of pickups and deliveries that an EV arc touches)
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
from .domain import DEPOT_NODE, TIME_TOL, Instance, Route, Solution
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


def _next_pairs(instance: Instance, graph: ActionGraph, allowed: set[str]):
    """``(nexts, root)``: per node index, the pairs a route may take next; the root count bound.

    ``nexts[n]`` holds ``(ride, legs)`` for each bike ride of ``ride``
    minutes from ``n`` to an ``allowed`` pickup ``p``, in node order:
    ``legs`` holds ``(bits, p, d, low, up, op, ride_home)`` for each EV leg
    ``(low, up, op)`` from ``p`` to an ``allowed`` delivery ``d`` whose
    charge margin holds, in node order; ``bits`` marks ``p`` and ``d``, and
    ``ride_home`` is None where ``d`` has no arc to the depot.  ``root`` is
    twice the smaller count of pickups and deliveries that an EV arc
    between ``allowed`` requests touches.
    """
    graph.arc_position(DEPOT_NODE, DEPOT_NODE)  # schedule_route's lookups, built before any deadline
    tau, charge, src, dst, minutes = graph.tau, graph.charge, graph.src, graph.dst, graph.op_time_min
    usable = np.array([False] + [node in allowed for node in graph.nodes[1:]])
    ev = graph.is_ev & usable[src] & usable[dst]
    pick, drop, drive = src[ev], dst[ev], minutes[ev]
    root = 2 * min(len(set(pick.tolist())), len(set(drop.tolist())))
    low, up, fits = leg_bounds(
        instance.parameters, tau[pick], charge[pick], tau[drop], charge[drop], graph.distance_km[ev], drive
    )
    home = dict(zip(src[dst == 0].tolist(), minutes[dst == 0].tolist()))  # no EV arc ends at the depot
    legs = [[] for _ in usable]
    for p, d, lo, hi, op in zip(*(c[fits].tolist() for c in (pick, drop, low, up, drive))):
        legs[p].append((1 << p | 1 << d, p, d, lo, hi, op, home.get(d)))
    # one tuple of legs per pickup, shared by its rides: tuples of numbers the garbage collector
    # stops tracking, while lists in every ride would bring its next full collection forward
    legs = [tuple(pairs) for pairs in legs]
    nexts = [[] for _ in usable]
    for n, p, ride in zip(*(c[~graph.is_ev & usable[dst]].tolist() for c in (src, dst, minutes))):
        nexts[n].append((ride, legs[p]))
    return nexts, root


def _successors(instance: Instance, graph: ActionGraph, allowed: set[str], nexts=None):
    """``(nexts, ev_next)`` of the baseline search.

    ``nexts`` is :func:`_next_pairs`'s, built here unless given; ``ev_next``
    maps each ``allowed`` pickup to its EV arcs' ``allowed`` deliveries, for
    :class:`CountBound`.
    """
    usable = np.array([False] + [node in allowed for node in graph.nodes[1:]])
    ev = graph.is_ev & usable[graph.src] & usable[graph.dst]
    ev_next: dict[int, list[int]] = {}
    for p, d in zip(graph.src[ev].tolist(), graph.dst[ev].tolist()):
        ev_next.setdefault(p, []).append(d)
    return _next_pairs(instance, graph, allowed)[0] if nexts is None else nexts, ev_next


def _named(nodes: tuple[str, ...], routes) -> list[list[tuple[str, str]]]:
    """Routes of node-index pairs as request-id pairs."""
    return [[(nodes[p], nodes[d]) for p, d in route] for route in routes]


#: The route enumeration gives up past this many distinct request sets.
ROUTE_CAP = 20_000

#: Past ``ROUTE_CAP`` the compact bound gets at most this share of the time left, and the
#: search or the sequential heuristic after it the rest.
BOUND_SHARE = 0.5

#: Seconds :func:`compute_upper_bound` takes per ``arcs ** 1.5`` of the graph: at most
#: 1.1e-6 over 80-200 requests (generator seeds 1-3, 0.06-1.0 s, on a 2-core x86-64 host).
COMPACT_LP_RATE = 1.2e-6


def _past(deadline: float | None) -> bool:
    """Whether ``deadline`` has passed (never without one)."""
    return deadline is not None and time.perf_counter() > deadline


def _time_left(deadline: float | None) -> float | None:
    """Seconds before ``deadline`` (None without one); 0 once it has passed."""
    return None if deadline is None else max(0.0, deadline - time.perf_counter())


def _route_columns(nexts, shift_limit: float, deadline=None):
    """``(nodes, starts)``: one schedulable single-worker route per distinct request set.

    Column ``c`` is the first route found with its request set, as node
    indices in pair order (pickup, delivery, pickup, ...):
    ``nodes[starts[c]:starts[c + 1]]``.  Depth first over ``nexts`` (see
    :func:`_next_pairs`), with :func:`extend` and :func:`start_delay`
    inlined on the same floats.  None past ``ROUTE_CAP`` sets, or once
    ``deadline`` has passed: the clock is read every 512 prefixes.
    """
    nodes, starts, seen = [], [0], set()
    entered = 0

    def grow(used, route, home, first, latest, chain, cap, budget, drive) -> bool:
        # route (node indices) has the Prefix (first, ..., drive) and rides `home` back
        nonlocal entered
        entered += 1
        if not entered % 512 and _past(deadline):
            return False
        span = budget - drive
        spread = latest - first
        excess = spread - span
        if chain > span + TIME_TOL or excess > TIME_TOL and excess > cap + TIME_TOL:
            return True  # not extendable
        if home is not None and used not in seen:
            span -= home
            excess = spread - span
            if chain <= span + TIME_TOL and (excess <= TIME_TOL or excess <= cap + TIME_TOL):
                seen.add(used)
                nodes.extend(route)
                starts.append(len(nodes))
                if len(seen) > ROUTE_CAP:
                    return False
        for ride, legs in nexts[route[-1]]:
            travel = drive + ride
            reach, chained = latest + travel, chain + travel
            for bits, p, d, low, up, op, ride_home in legs:
                if used & bits:
                    continue
                earliest = reach if reach > low else low  # max and min as builtins cost a quarter
                if earliest > up + TIME_TOL:
                    continue
                room = up - first - chained
                if not room < cap:
                    room = cap
                if not grow(used | bits, route + (p, d), ride_home, first, earliest, chained, room, budget, op):
                    return False
        return True

    for ride, legs in nexts[0]:
        for bits, p, d, low, up, op, ride_home in legs:
            prefix = extend(None, low, up, op, ride, shift_limit)
            if prefix is not None and not grow(bits, (p, d), ride_home, *prefix):
                return None
    return nodes, starts


#: The exact packing search gives up past this many branches, and the packing LP takes over.
#: Set by measurement on the default generator: a step costs about 1 us and the LP 2-50 ms;
#: 1 000 steps settle 80 % of the 24-request K=3 cells, while 2 000 make the K=4-5 cells,
#: which seldom settle, 14-28 % slower than the LP alone.
PACKING_STEPS = 1000


def _pairs(pool, c: int) -> tuple[tuple[int, int], ...]:
    """Column ``c`` of ``pool`` (see :func:`_route_columns`) as node-index pairs."""
    nodes, starts = pool
    start, end = starts[c], starts[c + 1]
    return tuple(zip(nodes[start:end:2], nodes[start + 1 : end : 2]))


def _route_packing(pool, k_total: int, node_count: int, deadline=None):
    """``(bound, routes)``: at most ``k_total`` disjoint columns of ``pool`` serving the most requests.

    ``pool`` is :func:`_route_columns`'s.  A depth-first search over its
    columns, largest first, keeps the candidates still disjoint from the
    chosen ones as a bit set over column ranks, made from each node's set
    of holding columns.  A branch is cut once ``slots`` more columns of the
    size of its largest candidate cannot beat the best packing, and the
    search stops once its best packing reaches the goal, an upper bound.
    When it ends its best packing is optimal: ``bound`` is its count and
    ``routes`` its columns, as node-index pairs.  Past ``PACKING_STEPS``
    branches :func:`_packing_lp`'s bound becomes the goal, and the search
    goes on under ``deadline``, reading the clock every 512 branches.  Once
    the deadline passes, ``bound`` is the LP's (None when the LP ran out of
    time) and ``routes`` the best packing found.
    """
    nodes, starts = pool
    sizes = [(end - start) // 2 for start, end in zip(starts, starts[1:])]  # pairs per column
    order = sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True)
    size = [sizes[c] for c in order]
    everything = (1 << len(order)) - 1
    if k_total > 1:  # K=1 takes the largest column and needs no clash sets
        member = np.zeros((node_count, len(order)), dtype=bool)  # per node, its columns
        member[np.asarray(nodes, dtype=np.intp), np.repeat(np.arange(len(order)), np.diff(starts))] = True
        rows = np.packbits(member[:, order], axis=1, bitorder="little")
        holders = [int.from_bytes(row.tobytes(), "little") for row in rows]  # per node
    apart: list[int | None] = [None] * len(order)  # per rank, the ranks disjoint from it

    best_total, best_chosen, chosen, bound = 0, [], [], None
    goal = k_total * size[0] if size else 0  # pairs no packing exceeds, until the LP lowers it
    steps, stop = 0, PACKING_STEPS  # past `stop` steps the LP runs the first time, then the clock

    def pack(candidates: int, slots: int, total: int) -> bool:
        """Search below ``chosen``; False once the deadline stops it."""
        nonlocal best_total, best_chosen, steps, stop, goal, bound
        if total > best_total:
            best_total, best_chosen = total, chosen[:]
        while candidates and best_total < goal:
            lowest = candidates & -candidates
            c = lowest.bit_length() - 1
            if total + slots * size[c] <= best_total:  # no later candidate is larger
                return True
            if slots == 1:
                best_total, best_chosen = total + size[c], chosen + [c]
                return True
            steps += 1
            if steps > stop:
                if stop == PACKING_STEPS:
                    bound = _packing_lp(pool, sizes, node_count, k_total, deadline)
                    if bound is not None:
                        goal = bound // 2
                if _past(deadline):
                    return False
                stop += 512
            if apart[c] is None:
                clash = 0
                for n in nodes[starts[order[c]] : starts[order[c] + 1]]:
                    clash |= holders[n]
                apart[c] = everything ^ clash
            chosen.append(c)
            if not pack(candidates & apart[c], slots - 1, total + size[c]):
                return False
            chosen.pop()
            candidates ^= lowest
        return True

    finished = pack(everything, k_total, 0)  # always at K=1: its one slot takes the first candidate
    found = [_pairs(pool, order[c]) for c in best_chosen]
    return 2 * best_total if finished else bound, found


def _packing_lp(pool, sizes: list[int], node_count: int, k_total: int, deadline) -> int | None:
    """The packing LP's bound over the columns of ``pool``, of ``sizes`` pairs each.

    The LP maximises the requests served by at most ``k_total`` columns,
    each request in at most one; its value, rounded down to an even count,
    is the bound, None when the time before ``deadline`` runs out first.
    One HiGHS solve.  Raises ``RuntimeError`` when the LP solver reports
    neither an optimum nor its time limit.
    """
    # row 0, the depot's, is in every column and counts them against K, every other row a request once
    nodes, starts = pool
    entries = np.insert(np.asarray(nodes), starts[:-1], 0)
    pointers = np.asarray(starts) + np.arange(len(starts))
    matrix = csc_array((np.ones(len(entries)), entries, pointers), shape=(node_count, len(sizes)))
    matrix.sort_indices()
    upper = np.ones(node_count)
    upper[0] = k_total
    rows = LinearConstraint(matrix, -np.inf, upper)
    result = _solve_lp(-2.0 * np.array(sizes), rows, Bounds(0.0, 1.0), deadline, "route packing LP")
    if result is None:
        return None
    value = math.floor(-result.fun + 1e-6)  # the slack absorbs solver round-off
    return value - value % 2


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
    if options.use_upper_bound:
        answer = _from_routes(instance, graph, allowed, options.node_limit, deadline)
    else:
        answer = _search(instance, graph, _successors(instance, graph, allowed), options.node_limit, deadline)
    return SolveResult(*answer, elapsed_s=time.perf_counter() - start)


def _from_routes(instance, graph, allowed, node_limit, deadline):
    """The paper configuration: ``(solution, optimal, best_bound, nodes_explored)``.

    The packing of the route pool; past the route cap the compact bound
    where it fits in its share, then the sequential heuristic, or at K=1
    the baseline search pruned by that bound (see the module docstring).
    """
    params = instance.parameters
    k_total, node_count = params.workers, len(graph.nodes)
    nexts, root = _next_pairs(instance, graph, allowed)
    pool = _route_columns(nexts, params.shift_limit_min, deadline)
    if pool is not None:
        bound, routes = _route_packing(pool, k_total, node_count, deadline)
        solution = _routes_to_solution(instance, graph, _named(graph.nodes, routes))
    else:
        left = _time_left(deadline)
        bound = None
        if left is None or COMPACT_LP_RATE * len(graph.src) ** 1.5 <= BOUND_SHARE * left:
            bound = compute_upper_bound(instance, graph, None if left is None else BOUND_SHARE * left)
        if k_total == 1:
            successors = _successors(instance, graph, allowed, nexts)
            return _search(instance, graph, successors, node_limit, deadline, bound)
        rest = _time_left(deadline)
        solution = Solution.empty()
        if rest != 0:
            solution = heuristic_sequential(
                instance, graph, available=allowed, node_limit=node_limit, time_limit_s=rest
            )
    bound = root if bound is None else min(bound, root)
    return solution, solution.served_count == bound, bound, 1


def _search(instance, graph, successors, node_limit, deadline, bound_value=None):
    """The baseline search: ``(solution, optimal, best_bound, nodes_explored)``.

    ``bound_value``, where given, caps the optimistic value of every node.
    """
    nexts, ev_next = successors
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
        for ride, legs in nexts[last]:
            for _, p, d, low, up, op, ride_home in legs:
                if p in served or d in served:
                    continue
                if out_of_budget():
                    return
                child = _child(route, prefix, (p, d), (low, up, op), ride, ride_home, shift_limit)
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
    and none starts once the time is spent.  A search that its share cuts
    short before any route leaves its worker idle, and the next worker goes
    on; any other search without a route ends the answer: none is left, or
    the node limit would stop every worker alike.  Raises ``ValueError`` for
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
            if result.optimal or share is None or result.elapsed_s < share:
                break  # none is left, or the node limit would stop every worker alike
            continue  # its share ran out: the next worker goes on
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
