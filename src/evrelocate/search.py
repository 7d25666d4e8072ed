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

# build_graph is unused here, but perfbench's traced run wraps evrelocate.search.build_graph.
from .actiongraph import ActionGraph, ArcKind, build_graph  # noqa: F401
from .domain import DEPOT_NODE, Instance, Route, Solution
from .milp import build_milp, matrix_form
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

    def remaining_estimate(served: set[str]) -> int:
        p_avail = 0
        d_avail = set()
        for p, ds in ev_next.items():
            if p in served:
                continue
            open_ds = [d for d in ds if d not in served]
            if open_ds:
                p_avail += 1
                d_avail.update(open_ds)
        return 2 * min(p_avail, len(d_avail))

    fixed: list[tuple[tuple[tuple[str, str], ...], ScheduleResult]] = []
    served: set[str] = set()

    def record(current: list[tuple[str, str]], sched: ScheduleResult | None) -> None:
        count = 2 * (sum(len(p) for p, _ in fixed) + len(current))
        if count > state.best_count:
            state.best_count = count
            snapshot = list(fixed)
            if sched is not None:
                snapshot.append((tuple(current), sched))
            state.best_routes = tuple(snapshot)

    def visit(current: list[tuple[str, str]], sched: ScheduleResult | None) -> None:
        # sched is None at a route's start; otherwise current may be an open
        # route that cannot yet return to the depot (not sched.feasible)
        state.nodes += 1
        if sched is None or sched.feasible:
            record(current, sched)
        count = 2 * (sum(len(p) for p, _ in fixed) + len(current))
        optimistic = count + remaining_estimate(served)
        if bound_value is not None:
            optimistic = min(optimistic, bound_value)
        if state.aborted or (
            (options.node_limit is not None and state.nodes > options.node_limit)
            or (deadline is not None and time.perf_counter() > deadline)
        ):
            state.aborted = True
            state.frontier_bound = max(state.frontier_bound, optimistic)
            return
        if optimistic <= state.best_count:
            return

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
                trial = current + [(p, d)]
                result = schedule_route(instance, graph, trial)
                if not result.extendable:
                    continue
                served.add(p)
                served.add(d)
                visit(trial, result)
                served.discard(p)
                served.discard(d)
        if sched is not None and sched.feasible and len(fixed) + 1 < k_total:
            fixed.append((tuple(current), sched))
            visit([], None)
            fixed.pop()

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
    """Fix one exact single-worker route at a time over unserved requests."""
    remaining = set(available) if available is not None else {r.id for r in instance.requests}
    options = SolveOptions(node_limit=node_limit, time_limit_s=time_limit_s)
    single = replace(instance, parameters=replace(instance.parameters, workers=1))

    routes: list[Route] = []
    for k in range(instance.parameters.workers):
        if not remaining:
            break
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
    form = matrix_form(build_milp(instance, graph))
    result = linprog(
        -form.objective,
        A_ub=form.a_ub,
        b_ub=form.b_ub,
        A_eq=form.a_eq,
        b_eq=form.b_eq,
        bounds=np.column_stack([np.zeros_like(form.upper), form.upper]),
        method="highs",
    )
    if result.status != 0:
        raise RuntimeError(f"LP relaxation not solved: {result.message}")
    # the slack keeps solver round-off (e.g. 3.9999999) from losing a count
    served = math.floor(-result.fun + 1e-6)
    return served - served % 2
