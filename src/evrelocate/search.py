"""Exact and heuristic solving over the action graph.

Every solve answers from the pool of single-worker routes.  It first
enumerates every schedulable single-worker route once
(:func:`_route_columns`), depth first over per-node next-pair lists read
once per solve from the graph's arrays (:func:`_next_pairs`), with
``extend`` and ``start_delay`` (:mod:`evrelocate.scheduling`) inlined on the
same floats, keeping the first route of each distinct request set.  A
prefix is pruned only on conditions that no extension repairs
(``extendable``: per-leg windows and charge, the pickup chain, the shift
limit up to the last delivery), so the enumeration is complete; the bike
leg back to the depot only decides whether a route closes, since one more
pair can end a route nearer the depot.  The pool is one flat list of node
indices, route after route in pair order, with column pointers: the
packing search and the packing LP read it, and only the routes a solve
returns become pairs, timed by ``schedule_route``.  Every K-worker answer
is a packing of at most K schedulable routes with disjoint request sets,
and every such packing is a K-worker answer, so the largest packing is the
optimum (:func:`_route_packing`).  An exact search finds it: depth first
over the routes, largest first, with the routes still disjoint from the
chosen ones as one bit set, it cuts a branch once the free slots times the
size of its largest candidate cannot beat the best packing, and stops once
its best packing reaches an upper bound, so a search that ends has proved
its best packing.  K=1 takes one step, and most cells at K=2-3 end within
``PACKING_STEPS`` branches.  Past that cap the packing LP (at most K
routes, each request in at most one), rounded down to an even count, is the
bound and the search's goal, and the search goes on under the deadline
until its best packing meets that bound or it ends.  The answer is read at
the root: ``nodes_explored`` is 1.

The enumeration gives up past ``ROUTE_CAP`` request sets, or once the
deadline passes (it reads the clock every 512 prefixes).  Then
:func:`compute_upper_bound` runs first on at most ``BOUND_SHARE`` of the
time left, but only where ``COMPACT_LP_RATE`` says it finishes in that
share: HiGHS cannot be stopped at its limit (it overruns by tens of
milliseconds at 200 requests), and a bound cut short is no bound.  The rest
of the time goes to :func:`heuristic_sequential`, whose answer it is.  Its
single-worker search (:func:`_longest_route`) is the enumeration's own loop
with a second leaf, which keeps only the longest closed route: it counts
the prefixes it enters against its share of ``node_limit`` and stops once
its route meets the bound it is told.  The first worker's search covers
every request, so when it ends no route serves more than its route, and K
times that count is a bound too: at K=1 a search that ends proves its
route.
Every HiGHS solve gets only the time left and none starts without it; an
LP that runs out of time gives no bound.  ``best_bound`` is the smallest
bound that ran, the root's count bound (twice the smaller count of pickups
and deliveries that an EV arc touches) among them, ``optimal`` holds where
the answer meets it, and ``nodes_explored`` is the prefixes the
single-worker searches entered.

``brute_force`` is the desk-scale oracle: plain enumeration of all
pairings, partitions and orderings, with no bounding logic shared with the
search.  ``heuristic_sequential`` fixes one longest single-worker route at
a time over the requests the earlier workers left.  ``compute_upper_bound``
is the LP relaxation of the K-worker model of
:func:`evrelocate.milp.build_milp`.  Every function here reads K from
``instance.parameters.workers``.

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
from .scheduling import extend, leg_bounds, schedule_route


@dataclass(frozen=True)
class SolveOptions:
    """The limits of a solve.

    ``node_limit`` is a positive integer: the prefixes that the
    single-worker searches past ``ROUTE_CAP`` may enter, split among them
    as the time is (see :func:`_sequential`).
    ``time_limit_s`` is positive and finite.  Anything else raises
    ``ValueError``.  ``use_upper_bound``, ``use_warm_start`` and
    ``break_worker_symmetry`` are accepted and read by nothing: every solve
    answers from the route pool (see the module docstring).  They stay
    only because the benchmark passes them by name.
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


def _routes_to_solution(instance: Instance, graph: ActionGraph, routes) -> Solution:
    """Route k for worker k, each (pickup, delivery) id pairs the scheduler accepts, timed by it.

    An empty route leaves its worker idle.
    """
    timed = []
    for worker, pairs in enumerate(routes):
        if pairs:
            sched = schedule_route(instance, graph, list(pairs))
            visits = tuple((rid, sched.visit_times[rid]) for pair in pairs for rid in pair)
            timed.append(Route(worker, visits, sched.depot_departure_min, sched.depot_return_min))
    return Solution.from_routes(timed)


def _next_pairs(instance: Instance, graph: ActionGraph):
    """``(nexts, root)``: per node index, the pairs a route may take next; the root count bound.

    ``nexts[n]`` holds ``(ride, legs)`` for each bike ride of ``ride``
    minutes from ``n`` to a pickup ``p``, in node order: ``legs`` holds
    ``(bits, p, d, low, up, op, ride_home)`` for each EV leg
    ``(low, up, op)`` from ``p`` to a delivery ``d`` whose charge margin
    holds, in node order; ``bits`` marks ``p`` and ``d``, and
    ``ride_home`` is None where ``d`` has no arc to the depot.  ``root`` is
    twice the smaller count of pickups and deliveries that an EV arc
    touches.
    """
    graph.arc_position(DEPOT_NODE, DEPOT_NODE)  # schedule_route's lookups, built before any deadline
    tau, charge, src, dst, minutes = graph.tau, graph.charge, graph.src, graph.dst, graph.op_time_min
    ev = graph.is_ev
    pick, drop, drive = src[ev], dst[ev], minutes[ev]
    root = 2 * min(len(set(pick.tolist())), len(set(drop.tolist())))
    low, up, fits = leg_bounds(
        instance.parameters, tau[pick], charge[pick], tau[drop], charge[drop], graph.distance_km[ev], drive
    )
    home = dict(zip(src[dst == 0].tolist(), minutes[dst == 0].tolist()))  # no EV arc ends at the depot
    legs = [[] for _ in graph.nodes]
    for p, d, lo, hi, op in zip(*(c[fits].tolist() for c in (pick, drop, low, up, drive))):
        legs[p].append((1 << p | 1 << d, p, d, lo, hi, op, home.get(d)))
    # one tuple of legs per pickup, shared by its rides: tuples of numbers the garbage collector
    # stops tracking, while lists in every ride would bring its next full collection forward
    legs = [tuple(pairs) for pairs in legs]
    nexts = [[] for _ in graph.nodes]
    for n, p, ride in zip(*(c[~ev & (dst > 0)].tolist() for c in (src, dst, minutes))):  # rides to pickups
        nexts[n].append((ride, legs[p]))
    return nexts, root


def _named(nodes: tuple[str, ...], routes) -> list[list[tuple[str, str]]]:
    """Routes of node-index pairs as request-id pairs."""
    return [[(nodes[p], nodes[d]) for p, d in route] for route in routes]


#: The route enumeration gives up past this many distinct request sets.
ROUTE_CAP = 20_000

#: Past ``ROUTE_CAP`` the compact bound gets at most this share of the time left, and the
#: sequential heuristic after it the rest.
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


def _walk(nexts, shift_limit: float, deadline, taken: int = 0, node_limit=None, goal=None):
    """``(nodes, starts, best, entered, stopped)``: depth first over every schedulable single-worker route.

    Over ``nexts`` (see :func:`_next_pairs`) without the nodes marked in
    ``taken``, with :func:`extend` and ``start_delay`` inlined on the
    same floats; a route is a tuple of node indices in pair order (pickup,
    delivery, pickup, ...).  Without ``goal`` each closed route of a new
    request set joins the pool ``(nodes, starts)`` (see
    :func:`_route_columns`), and the walk stops past ``ROUTE_CAP`` sets.
    With one only the first longest closed route is kept, as ``best``, and
    the walk stops once it serves ``goal`` requests.  ``entered`` counts the
    prefixes entered; the walk stops past ``node_limit`` of them, or once
    ``deadline`` has passed: the clock is read every 512 prefixes.
    """
    nodes, starts, seen = [], [0], set()
    longest, best, entered = goal is not None, (), 0
    limit = math.inf if node_limit is None else node_limit
    check = min(limit + 1, 512)  # the next count of prefixes at which the limits are read

    def grow(used, route, home, first, latest, chain, cap, budget, drive) -> bool:
        # route has the Prefix (first, ..., drive) and rides `home` back; False stops the walk
        nonlocal entered, best, check
        entered += 1
        if entered == check:
            if entered > limit or _past(deadline):
                return False
            check = min(limit + 1, entered + 512)
        span = budget - drive
        spread = latest - first
        excess = spread - span
        if chain > span + TIME_TOL or excess > TIME_TOL and excess > cap + TIME_TOL:
            return True  # not extendable
        if home is not None and (len(route) > len(best) if longest else used not in seen):
            span -= home
            excess = spread - span
            if chain <= span + TIME_TOL and (excess <= TIME_TOL or excess <= cap + TIME_TOL):
                if longest:
                    best = route
                    if len(route) >= goal:
                        return False
                else:
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
            if taken & bits:
                continue
            prefix = extend(None, low, up, op, ride, shift_limit)
            if prefix is not None and not grow(taken | bits, (p, d), ride_home, *prefix):
                return nodes, starts, best, entered, True
    return nodes, starts, best, entered, False


def _route_columns(nexts, shift_limit: float, deadline=None):
    """``(nodes, starts)``: one schedulable single-worker route per distinct request set.

    Column ``c`` is the first route found with its request set, as node
    indices in pair order: ``nodes[starts[c]:starts[c + 1]]``
    (:func:`_walk`).  None past ``ROUTE_CAP`` sets, or once ``deadline`` has
    passed.
    """
    nodes, starts, _, _, stopped = _walk(nexts, shift_limit, deadline)
    return None if stopped else (nodes, starts)


def _longest_route(nexts, shift_limit: float, deadline, taken: int, node_limit, goal: int):
    """``(route, entered, ended)``: the first longest schedulable route without the nodes in ``taken``.

    :func:`_walk` keeping only its longest closed route, which serves
    ``len(route)`` requests.  ``goal`` must bound what any such route
    serves.  ``ended``: the walk ran to its end, or its route meets
    ``goal``; either way no route serves more.  Otherwise ``node_limit``
    or ``deadline`` stopped it, and ``route`` is the longest found.
    """
    _, _, route, entered, stopped = _walk(nexts, shift_limit, deadline, taken, node_limit, goal)
    return route, entered, not stopped or len(route) >= goal


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
) -> SolveResult:
    """The best packing of the route pool (see the module docstring).

    Past ``ROUTE_CAP`` the compact bound where it fits in its share, then
    the sequential heuristic.  When a limit stops a solve early ``optimal``
    is False and ``best_bound`` is still a valid upper bound on the true
    optimum.
    """
    options = options or SolveOptions()
    start = time.perf_counter()
    deadline = start + options.time_limit_s if options.time_limit_s else None
    params = instance.parameters
    nexts, root = _next_pairs(instance, graph)
    pool = _route_columns(nexts, params.shift_limit_min, deadline)
    if pool is not None:
        packed, routes = _route_packing(pool, params.workers, len(graph.nodes), deadline)
        bound = root if packed is None else min(packed, root)
        solution, nodes = _routes_to_solution(instance, graph, _named(graph.nodes, routes)), 1
    else:
        left = _time_left(deadline)
        compact = None
        if left is None or COMPACT_LP_RATE * len(graph.src) ** 1.5 <= BOUND_SHARE * left:
            compact = compute_upper_bound(instance, graph, None if left is None else BOUND_SHARE * left)
        bound = root if compact is None else min(compact, root)
        solution, bound, nodes = _sequential(instance, graph, nexts, bound, options.node_limit, deadline)
    return SolveResult(solution, solution.served_count == bound, bound, nodes, time.perf_counter() - start)


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
    node_limit: int | None = None,
    time_limit_s: float | None = None,
) -> Solution:
    """Fix one longest single-worker route at a time over the requests the earlier workers left.

    Every worker's search walks the same next-pair lists with the requests
    already served masked out, and stops once its route meets what the
    root count bound leaves (see :func:`_sequential`).  At K=1 its answer
    is exact where the search ends.  Raises ``ValueError`` for limits that
    :class:`SolveOptions` rejects.
    """
    SolveOptions(node_limit=node_limit, time_limit_s=time_limit_s)
    deadline = time.perf_counter() + time_limit_s if time_limit_s else None
    nexts, root = _next_pairs(instance, graph)
    return _sequential(instance, graph, nexts, root, node_limit, deadline)[0]


def _sequential(instance, graph, nexts, bound: int, node_limit, deadline):
    """``(solution, bound, entered)``: one :func:`_longest_route` per worker over ``nexts``.

    ``bound`` bounds the answer, and each search's goal is what it leaves.
    It comes back lowered to K times the longest route where a search that
    covers every request ends.  The searches share ``deadline`` and
    ``node_limit``: each gets an even share of the time and of the
    prefixes the earlier ones left to it and the workers after it, and none
    starts once either is spent, so the searches enter at most one prefix
    past ``node_limit`` together.  A search that its share cuts short
    before any route leaves its worker idle, and the next gets all that is
    left, since with an even share it would walk the same prefixes and stop
    alike; a search without a route that ends, or that had all that was
    left, ends the answer.
    """
    workers, shift_limit = instance.parameters.workers, instance.parameters.shift_limit_min
    routes, taken, served, entered, stalled = [], 0, 0, 0, False
    for k in range(workers):
        parts = 1 if stalled else workers - k
        limit = None if node_limit is None else -((entered - node_limit) // parts)  # rounded up
        if served >= bound or limit is not None and limit <= 0:
            break
        stop = None
        if deadline is not None:
            share = (deadline - time.perf_counter()) / parts
            if share <= 0:
                break
            stop = time.perf_counter() + share
        route, count, ended = _longest_route(nexts, shift_limit, stop, taken, limit, bound - served)
        entered += count
        if ended and not taken:  # no route serves more, and no worker
            bound = min(bound, workers * len(route))
        if not route and (ended or stalled):
            break  # none is left, or no share is larger
        stalled = not route
        routes.append(tuple(zip(route[::2], route[1::2])))
        served += len(route)
        for node in route:
            taken |= 1 << node
    return _routes_to_solution(instance, graph, _named(graph.nodes, routes)), bound, entered


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
