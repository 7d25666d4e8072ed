"""Exact and heuristic solving over the action graph.

``solve_branch_and_bound`` runs a depth-first search that grows worker
routes one (pickup, delivery) pair at a time along graph arcs, rescheduling
the partial route after every extension and pruning on an admissible count
bound.  A prefix is pruned only on conditions that no extension repairs,
the open-route verdict of :func:`evrelocate.scheduling.schedule_route`
(``ScheduleResult.extendable``: per-leg windows and charge, the pickup
chain, the shift limit up to the last delivery).  The bike leg back to the
depot is charged only when a route is recorded as an incumbent or closed to
start the next worker (``ScheduleResult.feasible``): one more pair can end a
route nearer the depot, so that leg must not prune a prefix.

The count bound at a node is ``served + 2 * min(open pickups, open
deliveries)`` over the EV arcs between unserved requests (:class:`CountBound`).
It is kept up to date as pairs are marked served and unmarked on backtrack,
touching only the pair's EV neighbours, so a node costs O(degree) besides
its ``schedule_route`` call rather than a rescan of every EV arc.

The search stops at its limits at once.  The node limit and the deadline
are tested on entering a node and before each candidate's
``schedule_route``; once either trips, no further node is visited and no
further route scheduled, and every open level adds its own optimistic
value to the frontier bound and returns without opening its next-worker
branch.  ``best_bound`` stays a valid upper bound because the optimistic
value never rises below a node: an extension serves two more requests but
closes at least one open pickup and one open delivery, and a worker switch
changes neither term.  ``nodes_explored`` is at most ``node_limit + 1``.

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
largest servable count.  Served counts are even, so the LP value is rounded
down to an even number.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from itertools import combinations, permutations, product

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import diags

# build_graph is unused here, but perfbench's traced run wraps evrelocate.search.build_graph.
from .actiongraph import ActionGraph, ArcKind, build_graph  # noqa: F401
from .domain import DEPOT_NODE, Instance, Route, Solution
from . import milp
from .scheduling import ScheduleResult, schedule_route


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the branch-and-bound search.

    ``use_upper_bound`` computes the LP-relaxation bound up front and
    prunes with it.  ``use_warm_start`` seeds the incumbent with the sequential heuristic.
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
        if self.node_limit is not None and self.node_limit <= 0:
            raise ValueError("node_limit must be positive")
        if self.time_limit_s is not None and self.time_limit_s <= 0:
            raise ValueError("time_limit_s must be positive")


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
    best_routes: tuple[tuple[tuple[tuple[str, str], ...], ScheduleResult], ...] = ()
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

    def __init__(self, ev_next: dict[str, list[str]]) -> None:
        self.served: set[str] = set()
        # both directions of every EV arc; pickup and delivery ids are disjoint
        self._neighbours: dict[str, list[str]] = {}
        for p, ds in ev_next.items():
            self._neighbours.setdefault(p, []).extend(ds)
            for d in ds:
                self._neighbours.setdefault(d, []).append(p)
        # per node, its EV neighbours that are still unserved
        self._degree = {n: len(ns) for n, ns in self._neighbours.items()}
        # open pickups, open deliveries
        self._open = [
            sum(1 for p in ev_next if self._degree[p]),
            sum(1 for n in self._neighbours if n not in ev_next),
        ]

    def _close(self, node: str, side: int) -> None:
        if self._degree[node]:
            self._open[side] -= 1
        self.served.add(node)
        for other in self._neighbours[node]:
            self._degree[other] -= 1
            if not self._degree[other] and other not in self.served:
                self._open[1 - side] -= 1

    def _reopen(self, node: str, side: int) -> None:
        for other in self._neighbours[node]:
            if not self._degree[other] and other not in self.served:
                self._open[1 - side] += 1
            self._degree[other] += 1
        self.served.discard(node)
        if self._degree[node]:
            self._open[side] += 1

    def mark(self, pickup: str, delivery: str) -> None:
        """Mark served an unserved pair joined by an EV arc."""
        self._close(pickup, 0)
        self._close(delivery, 1)

    def unmark(self, pickup: str, delivery: str) -> None:
        """Undo the latest ``mark`` not yet undone, which must be of this pair."""
        self._reopen(delivery, 1)
        self._reopen(pickup, 0)

    def value(self) -> int:
        """At most this many more requests can be served."""
        return 2 * min(self._open)


def _routes_to_solution(
    fixed: list[tuple[tuple[tuple[str, str], ...], ScheduleResult]],
) -> Solution:
    routes = []
    for worker, (pairs, sched) in enumerate(fixed):
        visits = []
        for p_id, d_id in pairs:
            visits.append((p_id, sched.visit_times[p_id]))
            visits.append((d_id, sched.visit_times[d_id]))
        routes.append(
            Route(
                worker_index=worker,
                visits=tuple(visits),
                depot_departure_min=sched.depot_departure_min,
                depot_return_min=sched.depot_return_min,
            )
        )
    return Solution.from_routes(routes)


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
    k_total = instance.parameters.workers
    start = time.perf_counter()
    deadline = start + options.time_limit_s if options.time_limit_s else None

    allowed = available if available is not None else {r.id for r in instance.requests}

    # pair adjacency in deterministic lexicographic order
    ev_next: dict[str, list[str]] = {}
    bike_next: dict[str, list[str]] = {}
    for arc in graph.arcs:
        if arc.kind is ArcKind.EV:
            if arc.from_node in allowed and arc.to_node in allowed:
                ev_next.setdefault(arc.from_node, []).append(arc.to_node)
        elif arc.to_node != DEPOT_NODE and arc.to_node in allowed:
            bike_next.setdefault(arc.from_node, []).append(arc.to_node)
    for lst in ev_next.values():
        lst.sort()
    for lst in bike_next.values():
        lst.sort()

    state = _SearchState()

    bound_value = compute_upper_bound(instance, graph) if options.use_upper_bound else None
    warm: Solution | None = None
    if options.use_warm_start:
        warm = heuristic_sequential(
            instance,
            graph,
            available=allowed,
            node_limit=options.node_limit,
            time_limit_s=options.time_limit_s,
        )

    best_external: Solution | None = None
    for candidate in (warm, incumbent):
        if candidate is not None and candidate.served_count > state.best_count:
            state.best_count = candidate.served_count
            best_external = candidate
    if state.best_count < 0:
        state.best_count = 0
    state.frontier_bound = state.best_count

    fixed: list[tuple[tuple[tuple[str, str], ...], ScheduleResult]] = []
    count_bound = CountBound(ev_next)
    served = count_bound.served

    def out_of_budget() -> bool:
        if not state.aborted:
            over_nodes = options.node_limit is not None and state.nodes > options.node_limit
            over_time = deadline is not None and time.perf_counter() > deadline
            state.aborted = over_nodes or over_time
        return state.aborted

    def record(current: list[tuple[str, str]], sched: ScheduleResult | None) -> None:
        if len(served) > state.best_count:
            state.best_count = len(served)
            snapshot = list(fixed)
            if sched is not None:
                snapshot.append((tuple(current), sched))
            state.best_routes = tuple(snapshot)

    def expand(current: list[tuple[str, str]], sched: ScheduleResult | None) -> None:
        last = current[-1][1] if current else DEPOT_NODE
        if not current and options.break_worker_symmetry and fixed:
            floor = fixed[-1][0][0][0]  # first pickup of the previous route
        else:
            floor = None
        for p in bike_next.get(last, ()):
            if p in served or (floor is not None and p <= floor):
                continue
            for d in ev_next.get(p, ()):
                if d in served:
                    continue
                if out_of_budget():
                    return
                trial = current + [(p, d)]
                result = schedule_route(instance, graph, trial)
                if not result.extendable:
                    continue
                count_bound.mark(p, d)
                visit(trial, result)
                count_bound.unmark(p, d)
        if sched is not None and sched.feasible and len(fixed) + 1 < k_total and not out_of_budget():
            fixed.append((tuple(current), sched))
            visit([], None)
            fixed.pop()

    def visit(current: list[tuple[str, str]], sched: ScheduleResult | None) -> None:
        # sched is None at a route's start; otherwise current may be an open
        # route that cannot yet return to the depot (not sched.feasible)
        state.nodes += 1
        if sched is None or sched.feasible:
            record(current, sched)
        optimistic = len(served) + count_bound.value()
        if bound_value is not None:
            optimistic = min(optimistic, bound_value)
        if not out_of_budget() and optimistic > state.best_count:
            expand(current, sched)
        if state.aborted:
            # this level's unexplored branches can serve no more than optimistic
            state.frontier_bound = max(state.frontier_bound, optimistic)

    visit([], None)

    optimal = not state.aborted
    if state.best_routes:
        solution = _routes_to_solution(list(state.best_routes))
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

    def has_ev_arc(p: str, d: str) -> bool:
        arc = graph.arc(p, d)
        return arc is not None and arc.kind is ArcKind.EV

    feasible_cache: dict[tuple[tuple[str, str], ...], ScheduleResult | None] = {}

    def sequence_schedule(seq: tuple[tuple[str, str], ...]) -> ScheduleResult | None:
        if seq in feasible_cache:
            return feasible_cache[seq]
        try:
            result = schedule_route(instance, graph, list(seq))
        except ValueError:
            result = None
        else:
            result = result if result.feasible else None
        feasible_cache[seq] = result
        return result

    for m in range(min(len(pickups), len(deliveries)), 0, -1):
        for p_sub in combinations(pickups, m):
            for d_perm in permutations(deliveries, m):
                pairing = tuple(zip(p_sub, d_perm))
                if not all(has_ev_arc(p, d) for p, d in pairing):
                    continue
                for assignment in product(range(k_total), repeat=m):
                    groups: list[list[tuple[str, str]]] = [[] for _ in range(k_total)]
                    for pair, worker in zip(pairing, assignment):
                        groups[worker].append(pair)
                    nonempty = [g for g in groups if g]
                    for ordering in product(*(permutations(g) for g in nonempty)):
                        schedules = [sequence_schedule(seq) for seq in ordering]
                        if all(s is not None for s in schedules):
                            fixed = [
                                (seq, sched)
                                for seq, sched in zip(ordering, schedules)
                                if sched is not None
                            ]
                            return _routes_to_solution(fixed)
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
    and none starts once the time is spent.
    """
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


def compute_upper_bound(instance: Instance, graph: ActionGraph) -> int:
    """LP relaxation of the K-worker model, rounded down to an even count.

    Raises ``RuntimeError`` when the LP solver does not report an optimum.
    """
    model = milp.build_milp(instance, graph)
    sign = np.where(model.senses == ">=", -1.0, 1.0)  # ">=" rows enter A_ub negated
    signed = diags(sign) @ model.matrix
    eq = model.senses == "="
    result = linprog(
        -model.objective,
        A_ub=signed[~eq],
        b_ub=(sign * model.rhs)[~eq],
        A_eq=model.matrix[eq],
        b_eq=model.rhs[eq],
        bounds=np.column_stack([np.zeros_like(model.upper), model.upper]),
        method="highs",
    )
    if result.status != 0:
        raise RuntimeError(f"LP relaxation not solved: {result.message}")
    # the slack keeps solver round-off (e.g. 3.9999999) from losing a count
    served = math.floor(-result.fun + 1e-6)
    return served - served % 2
