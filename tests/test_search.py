import dataclasses
import math
import random
import time
from itertools import permutations, product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, linprog, milp
from scipy.sparse import diags

import evrelocate.search
from evrelocate.cli import main
from evrelocate.domain import TIME_TOL
from evrelocate.scheduling import extend, leg_bounds, start_delay
from evrelocate import (
    DEFAULT_PARAMETERS,
    GeneratorConfig,
    Instance,
    Location,
    Request,
    RequestKind,
    SolveOptions,
    brute_force,
    build_graph,
    build_milp,
    check_solution,
    compute_upper_bound,
    evaluate_assignment,
    generate_instance,
    heuristic_sequential,
    matrix_for_instance,
    schedule_route,
    solution_to_values,
    solve_branch_and_bound,
    values_to_solution,
)
from conftest import delivery, make_instance, make_matrix, pickup


def with_workers(instance, k):
    return dataclasses.replace(
        instance, parameters=dataclasses.replace(instance.parameters, workers=k)
    )


PAPER = dict(use_upper_bound=True, use_warm_start=True, break_worker_symmetry=True)


def random_case(seed, size=8):
    inst = generate_instance(GeneratorConfig(request_total=size, seed=seed))
    matrix = matrix_for_instance(inst)
    return inst, build_graph(inst, matrix)


def spread_case(seed, size, footprint_km, stations, workers, explicit=False):
    """Stations and depot at random on a square footprint.

    With ``explicit`` the distances are a random asymmetric matrix instead:
    no triangle inequality, and one pair in ten unreachable.
    """
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, footprint_km, size=(stations + 1, 2))
    locations = [Location(f"s{i}", coordinates=tuple(map(float, xy))) for i, xy in enumerate(points)]
    config = GeneratorConfig(
        request_total=size,
        seed=seed,
        stations=tuple(locations[1:]),
        depot=locations[0],
        parameters=dataclasses.replace(DEFAULT_PARAMETERS, workers=workers),
    )
    inst = generate_instance(config)
    if explicit:
        values = rng.uniform(0.0, footprint_km, size=(stations + 1, stations + 1))
        values[rng.random(values.shape) < 0.1] = np.inf
        np.fill_diagonal(values, 0.0)
        rows = [[None if np.isinf(v) else float(v) for v in row] for row in values]
        source = {"type": "matrix", "ids": [loc.id for loc in locations], "rows": rows}
        inst = dataclasses.replace(inst, distance_source=source)
    return inst, build_graph(inst, matrix_for_instance(inst))


def far_delivery_case():
    """The prefix (p1, d1) cannot return within the shift; (p1, d1, p2, d2) can.

    A prefix prune that charged the bike leg back to the depot lost the
    optimum here.
    """
    depot = Location("depot", coordinates=(0.0, 0.0))
    far = Location("far", coordinates=(60.0, 0.0))
    requests = (
        Request("p1", RequestKind.PICKUP, depot, 1.0, 480.0),
        Request("d1", RequestKind.DELIVERY, far, 0.0, 626.0),
        Request("p2", RequestKind.PICKUP, far, 1.0, 627.0),
        Request("d2", RequestKind.DELIVERY, depot, 0.0, 900.0),
    )
    params = dataclasses.replace(DEFAULT_PARAMETERS, workers=1)
    inst = Instance(params, depot, requests, {"type": "euclidean", "detour_factor": 1.0})
    return inst, build_graph(inst, matrix_for_instance(inst))


def no_way_home_case():
    """From d1, one pair more ends at d2, which has no ride home, and two pairs more end at d3.

    p2's charge cannot reach d3's, and the ride from a to b is too long to
    reach p3 from d1, so a completion table cut after one level must bound
    the two-pair return by more than the one-pair returns.
    """
    requests = [
        pickup("p1", "a", 1.0, 480.0),
        delivery("d1", "a", 0.0, 490.0),
        pickup("p2", "a", 0.3, 500.0),
        delivery("d2", "b", 0.0, 580.0),
        pickup("p3", "b", 1.0, 590.0),
        delivery("d3", "c", 0.9, 700.0),
    ]
    inst = make_instance(requests)
    entries = {("depot", s): 1.0 for s in "abc"} | {("a", "depot"): 1.0, ("b", "depot"): np.inf, ("c", "depot"): 1.0}
    matrix = make_matrix(["depot", "a", "b", "c"], entries, default=30.0)
    return inst, build_graph(inst, matrix)


def k_worker_lp_bound(instance, graph):
    """The LP relaxation of the K-worker model itself, the reference of the one-copy bound."""
    model = build_milp(instance, graph)
    sign = np.where(model.senses == ">=", -1.0, 1.0)
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
    assert result.status == 0, result.message
    served = int(np.floor(-result.fun + 1e-6))
    return served - served % 2


def violated_rows(inst, graph, solution):
    """Rows of the model that the solution's completed assignment violates."""
    model = build_milp(inst, graph)
    ok, slack = evaluate_assignment(model, solution_to_values(model, graph, solution))
    return [(model.row_names[i], slack[i]) for i in np.flatnonzero(~ok)]


def unique_route_case():
    """Exactly one full-service ordering exists: (p1,d1) then (p2,d2)."""
    requests = [
        pickup("p1", "s1", 1.0, 480.0),
        delivery("d1", "s2", 0.0, 492.0),
        pickup("p2", "s3", 1.0, 510.0),
        delivery("d2", "s4", 0.0, 530.0),
    ]
    inst = make_instance(requests)
    ids = ["depot", "s1", "s2", "s3", "s4"]
    entries = {}
    for s in ids[1:]:
        entries[("depot", s)] = 1.0
        entries[(s, "depot")] = 1.0
    matrix = make_matrix(ids, entries, default=4.0)
    graph = build_graph(inst, matrix)
    return inst, graph


class TestBranchAndBound:
    def test_no_ev_arcs_means_zero(self):
        inst = make_instance(
            [pickup("p1", "a", 0.5, 480.0), delivery("d1", "b", 0.5, 481.0)]
        )
        matrix = make_matrix(["depot", "a", "b"], {}, default=5.0)
        graph = build_graph(inst, matrix)
        result = solve_branch_and_bound(inst, graph)
        assert result.solution.served_count == 0
        assert result.optimal

    def test_one_pair_three_workers(self, one_pair):
        inst, matrix = one_pair
        inst = with_workers(inst, 3)
        graph = build_graph(inst, matrix)
        result = solve_branch_and_bound(inst, graph)
        assert result.solution.served_count == 2
        assert result.optimal
        assert len(result.solution.routes) == 1  # two workers idle

    def test_matches_brute_force_on_random_instances(self):
        for seed in range(25):
            inst, graph = random_case(seed)
            for k in (1, 2):
                inst_k = with_workers(inst, k)
                bb = solve_branch_and_bound(inst_k, graph)
                oracle = brute_force(inst_k, graph)
                assert bb.optimal
                assert bb.solution.served_count == oracle.served_count, (seed, k)

    def test_node_limit_yields_flagged_incumbent(self, monkeypatch):
        # the node limit stops the single-worker searches past the route cap
        monkeypatch.setattr(evrelocate.search, "ROUTE_CAP", 0)
        inst, graph = random_case(3)
        result = solve_branch_and_bound(inst, graph, SolveOptions(node_limit=1))
        assert not result.optimal
        assert result.best_bound >= result.solution.served_count

    def test_deterministic_reproducibility(self):
        inst, graph = random_case(5)
        a = solve_branch_and_bound(inst, graph)
        b = solve_branch_and_bound(inst, graph)
        assert a.solution == b.solution
        assert a.nodes_explored == b.nodes_explored

    def test_solutions_pass_checker(self):
        for seed in range(10):
            inst, graph = random_case(seed)
            result = solve_branch_and_bound(inst, graph)
            report = check_solution(inst, graph, result.solution)
            assert report.passed, (seed, report.failures())

    def test_option_combinations_preserve_objective(self):
        # the three switches are read by nothing: with or without them, one optimum
        for seed in range(8):
            inst, graph = random_case(seed)
            for k in (2, 3):
                inst_k = with_workers(inst, k)
                reference = solve_branch_and_bound(inst_k, graph).solution.served_count
                result = solve_branch_and_bound(inst_k, graph, SolveOptions(**PAPER))
                assert result.optimal
                assert result.solution.served_count == reference, (seed, k)

    def test_monotone_in_workers(self):
        for seed in range(6):
            inst, graph = random_case(seed)
            previous = -1
            for k in (1, 2, 3):
                result = solve_branch_and_bound(with_workers(inst, k), graph)
                assert result.solution.served_count >= previous
                previous = result.solution.served_count


class TestBruteForce:
    def test_empty_instance(self):
        inst = make_instance([])
        matrix = make_matrix(["depot"], {})
        graph = build_graph(inst, matrix)
        assert brute_force(inst, graph).served_count == 0

    def test_single_loose_pair(self, one_pair):
        inst, matrix = one_pair
        graph = build_graph(inst, matrix)
        assert brute_force(inst, graph).served_count == 2

    def test_unique_ordering_found(self):
        inst, graph = unique_route_case()
        solution = brute_force(inst, graph)
        assert solution.served_count == 4
        assert len(solution.routes) == 1
        route = solution.routes[0]
        assert route.request_ids == ("p1", "d1", "p2", "d2")
        times = dict(route.visits)
        assert times["p1"] == pytest.approx(480.0)
        assert times["d1"] == pytest.approx(491.6)
        assert times["p2"] == pytest.approx(510.0)
        assert times["d2"] == pytest.approx(521.6)

    def test_guard_on_large_instances(self):
        inst = generate_instance(GeneratorConfig(request_total=12, seed=0))
        matrix = matrix_for_instance(inst)
        graph = build_graph(inst, matrix)
        with pytest.raises(ValueError, match="at most 10"):
            brute_force(inst, graph)


class TestHeuristic:
    def test_single_worker_equals_exact(self):
        for seed in range(6):
            inst, graph = random_case(seed)
            inst = with_workers(inst, 1)
            heur = heuristic_sequential(inst, graph)
            exact = solve_branch_and_bound(inst, graph)
            assert heur.served_count == exact.solution.served_count

    def test_extra_workers_idle_when_one_suffices(self, one_pair):
        inst, matrix = one_pair
        inst = with_workers(inst, 4)
        graph = build_graph(inst, matrix)
        solution = heuristic_sequential(inst, graph)
        assert solution.served_count == 2
        assert len(solution.routes) == 1

    def test_never_beats_exact(self):
        for seed in range(10):
            inst, graph = random_case(seed)
            for k in (1, 2):
                inst_k = with_workers(inst, k)
                heur = heuristic_sequential(inst_k, graph)
                exact = brute_force(inst_k, graph)
                assert heur.served_count <= exact.served_count

    def test_stalled_worker_passes_on(self, monkeypatch):
        # the first worker's search returns no route: cut short by its share of the time or
        # of the node limit, the next worker gets all that is left, and the later workers
        # serve what a two-worker run serves; ended empty, the answer ends there, and so it
        # does where the next worker stalls too
        inst, graph = random_case(1, size=24)
        inst = with_workers(inst, 3)
        two_workers = heuristic_sequential(with_workers(inst, 2), graph)
        search = evrelocate.search._longest_route
        cases = (
            (1, False, {"time_limit_s": 60.0}),
            (1, True, {}),
            (1, False, {"node_limit": 10**6}),
            (2, False, {"node_limit": 10**6}),
        )
        for stalls, ended, limits in cases:
            calls = []

            def first_stalls(nexts, shift_limit, deadline, taken, node_limit, goal, table, aim):
                left = None if deadline is None else deadline - time.perf_counter()
                calls.append((taken, node_limit, left))
                if len(calls) <= stalls:  # its share or its node budget spent, or none of it
                    return (), (node_limit or 0) + 1, 0 if ended else goal
                return search(nexts, shift_limit, deadline, taken, node_limit, goal, table, aim)

            monkeypatch.setattr(evrelocate.search, "_longest_route", first_stalls)
            solution = heuristic_sequential(inst, graph, **limits)
            if ended or stalls == 2:
                assert [taken for taken, _, _ in calls] == [0] * stalls, limits
                assert solution.served_count == 0, limits
                continue
            assert len(calls) == 3 and [taken for taken, _, _ in calls[:2]] == [0, 0]
            if "node_limit" in limits:  # a third of the limit, then all that is left
                assert [limit for _, limit, _ in calls[:2]] == [333_334, 666_665]
            else:
                assert calls[0][2] < 20.5 and calls[1][2] > 39.0
            assert solution.served_count == two_workers.served_count > 0
            assert {route.worker_index for route in solution.routes} == {1, 2}
            assert check_solution(inst, graph, solution).passed

    def test_heuristic_solutions_pass_checker(self):
        for seed in range(6):
            inst, graph = random_case(seed)
            inst = with_workers(inst, 2)
            solution = heuristic_sequential(inst, graph)
            report = check_solution(inst, graph, solution)
            assert report.passed


class TestUpperBound:
    def test_single_pair_bound_is_two(self, one_pair):
        inst, matrix = one_pair
        graph = build_graph(inst, matrix)
        for k in (1, 2, 5):
            assert compute_upper_bound(with_workers(inst, k), graph) == 2

    def test_sandwich_on_random_instances(self):
        for seed in range(20):
            inst, graph = random_case(seed)
            for k in (1, 2):
                inst_k = with_workers(inst, k)
                exact = brute_force(inst_k, graph).served_count
                heur = heuristic_sequential(inst_k, graph).served_count
                bound = compute_upper_bound(inst_k, graph)
                assert heur <= exact <= bound, (seed, k, heur, exact, bound)

    def test_upper_bound_never_blocks_optimum(self, monkeypatch):
        # K=1 runs neither the route enumeration nor the compact bound: the single-worker walk's
        # goal, the root count bound or the table's root, never stops it short of the pool's
        # largest column
        cases = [(with_workers(inst, 1), graph) for inst, graph in map(random_case, range(8))]
        largest = [2 * max(map(len, pool_routes(route_columns(*case))), default=0) for case in cases]
        bounds = counted_calls(monkeypatch, "compute_upper_bound")
        pools = counted_calls(monkeypatch, "_route_columns")
        results = [solve_branch_and_bound(inst, graph) for inst, graph in cases]
        assert bounds == pools == []
        for (inst, graph), result, optimum in zip(cases, results, largest):
            assert result.optimal and result.solution.served_count == result.best_bound == optimum
            assert optimum == brute_force(inst, graph).served_count

    def test_bound_valid_and_optimum_completes_on_spread_instances(self):
        # wide footprints, co-located stations and non-metric matrices: the
        # bound never falls below the optimum, the optimum violates no row
        # of the model once completed, and branch and bound proves the same
        # optimum
        cells = product((False, True), (10, 30, 60), (1, 3, 9), (6, 8, 10), (1, 2, 3))
        for cell in cells:
            explicit, footprint, stations, size, k = cell
            seed = footprint * 1000 + stations * 100 + size * 10 + k
            inst, graph = spread_case(seed, size, float(footprint), stations, k, explicit)
            optimum = brute_force(inst, graph)
            bound = compute_upper_bound(inst, graph)
            assert bound == k_worker_lp_bound(inst, graph), cell
            assert bound >= optimum.served_count, cell
            assert not violated_rows(inst, graph, optimum), cell
            result = solve_branch_and_bound(inst, graph)
            assert result.optimal, cell
            assert result.solution.served_count == optimum.served_count, cell

    def test_far_delivery_instance(self):
        inst, graph = far_delivery_case()
        optimum = brute_force(inst, graph)
        assert optimum.served_count == 4
        assert compute_upper_bound(inst, graph) == 4
        assert not violated_rows(inst, graph, optimum)
        result = solve_branch_and_bound(inst, graph)
        assert result.optimal
        assert result.solution.served_count == 4
        assert check_solution(inst, graph, result.solution).passed

    @pytest.mark.parametrize("size, seed", [(24, 1), (24, 2), (60, 1)])
    def test_one_copy_bound_equals_k_worker_lp(self, size, seed):
        inst = generate_instance(GeneratorConfig(request_total=size, seed=seed))
        graph = build_graph(inst, matrix_for_instance(inst))
        for k in (1, 2, 3):
            inst_k = with_workers(inst, k)
            assert compute_upper_bound(inst_k, graph) == k_worker_lp_bound(inst_k, graph), k

    def test_solver_failure_raises(self, monkeypatch, one_pair):
        inst, matrix = one_pair
        graph = build_graph(inst, matrix)
        failed = OptimizeResult(status=4, message="numerical difficulties", fun=None)
        monkeypatch.setattr(evrelocate.search, "highs", lambda *a, **kw: failed)
        with pytest.raises(RuntimeError, match="numerical difficulties"):
            compute_upper_bound(inst, graph)


#: Per generator seed of 24 requests, the prefixes that the K=1 walk enters: 100005's walk
#: passes its first clock read, and 100007's reaches its second, where the completion table is
#: made, and the table's root stops it.
K1_PREFIXES = {
    1: 303, 2: 125, 3: 414, 100007: 1024, 100000: 179, 100001: 435, 100002: 365, 100003: 295, 100005: 711
}


def spread_cells(sizes=(6, 8, 10)):
    """``(cell, (instance, graph))`` of the spread family's 162 cells, those of ``sizes`` only."""
    for cell in product((False, True), (10, 30, 60), (1, 3, 9), (6, 8, 10), (1, 2, 3)):
        explicit, footprint, stations, size, k = cell
        if size in sizes:
            seed = footprint * 1000 + stations * 100 + size * 10 + k
            yield cell, spread_case(seed, size, float(footprint), stations, k, explicit)


def next_pairs(inst, graph):
    """The walk's next-pair lists and the root count bound, as a solve makes them."""
    return evrelocate.search._next_pairs(graph, evrelocate.search._legs(inst, graph))


def route_columns(inst, graph):
    """The paper configuration's route pool, ``(nodes, starts)``."""
    nexts, _ = next_pairs(inst, graph)
    return evrelocate.search._route_columns(nexts, inst.parameters.shift_limit_min)


def pool_routes(pool):
    """The columns of a route pool as node-index pairs, in pool order."""
    return [evrelocate.search._pairs(pool, c) for c in range(len(pool[1]) - 1)]


def pool_of(routes):
    """A route pool, ``(nodes, starts)``, of routes of node-index pairs."""
    nodes, starts = [], [0]
    for route in routes:
        nodes += [n for pair in route for n in pair]
        starts.append(len(nodes))
    return nodes, starts


def reference_columns(inst, graph, made=None):
    """Mask of each request set -> its first route: the pool by plain calls, no cap.

    The enumeration the flat pool replaced: successor lists read from the
    graph's arrays, then :func:`reference_pool`.  The reference for the
    pool's next-pair lists, its inlined arithmetic and its order.
    """
    ev, tau, charge = graph.is_ev, graph.tau, graph.charge
    pick, drop, drive = graph.src[ev], graph.dst[ev], graph.op_time_min[ev]
    low, up, fits = leg_bounds(
        inst.parameters, tau[pick], charge[pick], tau[drop], charge[drop], graph.distance_km[ev], drive
    )
    legs = [[] for _ in graph.nodes]  # per pickup, (delivery, (low, up, op)) of each EV leg that fits
    for p, d, lo, hi, op, fit in zip(*(c.tolist() for c in (pick, drop, low, up, drive, fits))):
        if fit:
            legs[p].append((d, (lo, hi, op)))
    rides = [[] for _ in graph.nodes]  # per node, (pickup, minutes) of each bike ride
    ride_home = [None] * len(graph.nodes)
    for i, j, op in zip(*(c[~ev].tolist() for c in (graph.src, graph.dst, graph.op_time_min))):
        if j == 0:
            ride_home[i] = op
        else:
            rides[i].append((j, op))
    return reference_pool(legs, rides, ride_home, inst.parameters.shift_limit_min, made)


def child(route, prefix, pair, leg, ride, ride_home, shift_limit):
    """``(route, prefix, feasible)`` one pair below ``route``; None if it is not extendable.

    ``leg`` is the pair's ``(low, up, op)``; ``ride_home`` is None without an arc home.
    """
    prefix = extend(prefix, *leg, ride, shift_limit)
    if prefix is None or start_delay(prefix) is None:
        return None
    feasible = ride_home is not None and start_delay(prefix, ride_home) is not None
    return route + (pair,), prefix, feasible


def reference_pool(legs, rides, ride_home, shift_limit, made=None):
    """Mask -> first route over successor lists, by :func:`child` on every pair.

    ``made``, where given, gains ``(route, child)`` for every pair tried below ``route``.
    """
    columns = {}

    def grow(route, prefix, used, last):
        for p, ride in rides[last]:
            if used >> p & 1:
                continue
            for d, leg in legs[p]:
                if used >> d & 1:
                    continue
                made_here = child(route, prefix, (p, d), leg, ride, ride_home[d], shift_limit)
                if made is not None:
                    made.append((route + ((p, d),), made_here))
                if made_here is None:
                    continue
                child_route, child_prefix, feasible = made_here
                mask = used | 1 << p | 1 << d
                if feasible and mask not in columns:
                    columns[mask] = child_route
                grow(child_route, child_prefix, mask, d)

    grow((), None, 0, 0)
    return columns


def random_lists(rng, pairs=6):
    """Random successor lists ``(legs, rides, ride_home, shift_limit)`` with overlapping windows.

    Node 0 is the depot, 1..pairs the pickups and the rest the deliveries.
    """
    pickups, deliveries = range(1, pairs + 1), range(pairs + 1, 2 * pairs + 1)
    legs = [[] for _ in range(2 * pairs + 1)]
    for p in pickups:
        for d in deliveries:
            if rng.random() < 0.5:
                low = rng.uniform(0.0, 120.0)
                legs[p].append((d, (low, low + rng.uniform(0.0, 60.0), rng.uniform(1.0, 30.0))))
    rides = [[(p, rng.uniform(1.0, 20.0)) for p in pickups if rng.random() < 0.6] for _ in legs]
    ride_home = [None if rng.random() < 0.2 else rng.uniform(1.0, 20.0) for _ in legs]
    return legs, rides, ride_home, rng.uniform(40.0, 200.0)
def schedulable_request_sets(inst, graph):
    """Request sets of every pair order that ``schedule_route`` accepts, by plain permutation."""
    pickups = sorted(r.id for r in inst.pickups)
    deliveries = sorted(r.id for r in inst.deliveries)
    sets = set()
    for m in range(1, min(len(pickups), len(deliveries)) + 1):
        for ps in permutations(pickups, m):
            for ds in permutations(deliveries, m):
                try:
                    feasible = schedule_route(inst, graph, list(zip(ps, ds))).feasible
                except ValueError:  # an arc of the open route is missing
                    feasible = False
                if feasible:
                    sets.add(frozenset(ps + ds))
    return sets


def highs_calls(monkeypatch):
    """A list that gains one entry per HiGHS solve the search module makes."""
    solver, calls = evrelocate.search.highs, []

    def spy(*args, **kwargs):
        calls.append(1)
        return solver(*args, **kwargs)

    monkeypatch.setattr(evrelocate.search, "highs", spy)
    return calls


def counted_calls(monkeypatch, name):
    """Replace ``evrelocate.search.<name>`` by a wrapper; returns the list of its calls' K.

    A function whose first argument is no instance records None per call.
    """
    original, calls = getattr(evrelocate.search, name), []

    def spy(instance, *args, **kwargs):
        calls.append(instance.parameters.workers if isinstance(instance, Instance) else None)
        return original(instance, *args, **kwargs)

    monkeypatch.setattr(evrelocate.search, name, spy)
    return calls


class TestRouteBound:
    """The packing of every schedulable single-worker route: exact search, else LP."""

    def test_columns_equal_permutation_oracle(self):
        for cell, (inst, graph) in spread_cells(sizes=(6, 8)):
            routes = pool_routes(route_columns(inst, graph))
            got = [frozenset(graph.nodes[n] for pair in r for n in pair) for r in routes]
            assert len(got) == len(set(got)), cell  # one column per request set
            assert set(got) == schedulable_request_sets(inst, graph), cell
            for route in routes:
                pairs = [(graph.nodes[p], graph.nodes[d]) for p, d in route]
                assert schedule_route(inst, graph, pairs).feasible, (cell, pairs)

    def test_pool_equals_reference_on_random_lists(self):
        # a graph's bike arcs release each pickup no earlier than the last pickup's window
        # closes plus the travel between them, so there a later leg never caps the start
        # delay and the pickup chain never binds; overlapping random windows make both bind
        rng = random.Random(0)
        for case in range(300):
            legs, rides, ride_home, shift_limit = random_lists(rng)
            nexts = [
                [(ride, [(1 << p | 1 << d, p, d, *leg, ride_home[d]) for d, leg in legs[p]]) for p, ride in row]
                for row in rides
            ]
            pool = evrelocate.search._route_columns(nexts, shift_limit)
            assert pool_routes(pool) == list(reference_pool(legs, rides, ride_home, shift_limit).values()), case

    @pytest.mark.parametrize("family", ["spread", "generator-24", "generator-40", "generator-60"])
    def test_pool_equals_reference_enumeration(self, monkeypatch, family):
        # column for column: the same request sets, the same first route of each, in the same order
        if family == "spread":
            cells = [case for _, case in spread_cells()]
        else:
            size = int(family.split("-")[1])
            seeds = {24: range(100000, 100010), 40: range(5), 60: [1]}[size]
            cells = [random_case(seed, size=size) for seed in seeds]
        monkeypatch.setattr(evrelocate.search, "ROUTE_CAP", 10**9)  # 60 requests pass the cap
        for inst, graph in cells:
            assert pool_routes(route_columns(inst, graph)) == list(reference_columns(inst, graph).values())

    def test_exact_search_on_spread_instances(self, monkeypatch):
        lps = []
        monkeypatch.setattr(evrelocate.search, "_packing_lp", lambda *a: lps.append(a))
        for cell, (inst, graph) in spread_cells():
            optimum = brute_force(inst, graph).served_count
            k, nodes = inst.parameters.workers, len(graph.nodes)
            bound, routes = evrelocate.search._route_packing(route_columns(inst, graph), k, nodes)
            assert bound == optimum, cell
            assert len(routes) <= k and 2 * sum(map(len, routes)) == optimum, cell
            served = [n for route in routes for pair in route for n in pair]
            assert len(served) == len(set(served)), cell
            for route in routes:
                pairs = [(graph.nodes[p], graph.nodes[d]) for p, d in route]
                assert schedule_route(inst, graph, pairs).feasible, (cell, pairs)
        assert lps == []  # every search ended: no LP

    def test_between_optimum_and_compact_bound_on_spread_instances(self, monkeypatch):
        # the packing LP's bound lies between the optimum and the compact bound; with no
        # capped search steps it is the goal of the search from K=2 on, which still proves
        monkeypatch.setattr(evrelocate.search, "PACKING_STEPS", 0)
        for cell, (inst, graph) in spread_cells():
            optimum = brute_force(inst, graph).served_count
            k, nodes = inst.parameters.workers, len(graph.nodes)
            pool = route_columns(inst, graph)
            sizes = list(map(len, pool_routes(pool)))
            lp = evrelocate.search._packing_lp(pool, sizes, nodes, k, None) if sizes else 0
            assert optimum <= lp <= compute_upper_bound(inst, graph), cell
            bound, routes = evrelocate.search._route_packing(pool, k, nodes)
            assert len(routes) <= k and 2 * sum(map(len, routes)) == bound == optimum, cell

    @pytest.mark.parametrize("seed, lp_solves", [(1, 0), (2, 0), (3, 0), (100007, 1)])
    def test_paper_configuration_proves_at_the_root(self, monkeypatch, seed, lp_solves):
        # K=2-3 pack the route pool at the root; K=1 is one walk of K1_PREFIXES[seed] prefixes,
        # which serves the pool's largest column
        inst = generate_instance(GeneratorConfig(request_total=24, seed=seed))
        graph = build_graph(inst, matrix_for_instance(inst))
        largest = 2 * max(map(len, pool_routes(route_columns(inst, graph))))
        bounds = counted_calls(monkeypatch, "compute_upper_bound")
        walks = counted_calls(monkeypatch, "_sequential")
        solves, pools = highs_calls(monkeypatch), counted_calls(monkeypatch, "_route_columns")
        for k in (1, 2, 3):
            inst_k = with_workers(inst, k)
            paper = solve_branch_and_bound(inst_k, graph, SolveOptions(**PAPER))
            assert paper.optimal and paper.nodes_explored == (K1_PREFIXES[seed] if k == 1 else 1), k
            assert paper.best_bound == paper.solution.served_count
            assert check_solution(inst_k, graph, paper.solution).passed, k
            assert len(pools) == k - 1, k  # no enumeration at K=1
            assert k > 1 or paper.solution.served_count == largest
        assert bounds == []
        # the packing search settles every K>1 cell but seed 100007's K=3, where one LP
        # meets the search's best packing: the sequential heuristic runs at K=1 only
        assert len(solves) == lp_solves
        assert walks == [1]

    def test_k4_cell_proves_at_the_root(self):
        # the search stops at its step cap here; its best packing meets the LP bound
        inst = generate_instance(GeneratorConfig(request_total=24, seed=200053))
        inst = with_workers(inst, 4)
        graph = build_graph(inst, matrix_for_instance(inst))
        result = solve_branch_and_bound(inst, graph, SolveOptions(**PAPER))
        assert result.optimal and result.nodes_explored == 1
        assert result.solution.served_count == result.best_bound == 18
        assert check_solution(inst, graph, result.solution).passed

    def test_exact_packing_of_the_triangle(self):
        # three two-pair routes, any two sharing a pair, and one single pair: the
        # search packs one two-pair route, with the single pair where it exists
        triangle = (((1, 2), (3, 4)), ((3, 4), (5, 6)), ((1, 2), (5, 6)))
        single = ((7, 8),)
        packing = evrelocate.search._route_packing
        assert packing(pool_of(triangle), 2, 9) == (4, [triangle[0]])
        pool = pool_of((*triangle, single))
        assert packing(pool, 2, 9) == (6, [triangle[0], single])
        assert packing(pool, 3, 9) == (6, [triangle[0], single])

    def test_search_reaches_a_fractional_lp_bound(self, monkeypatch):
        # the triangle and the single pair again, with no capped search steps: at K=2 the
        # LP takes each two-pair route at one half, 7 served, rounded down to 6; the
        # search, going on with that goal, reaches 6 with the single pair
        monkeypatch.setattr(evrelocate.search, "PACKING_STEPS", 0)
        solves = highs_calls(monkeypatch)
        triangle = (((1, 2), (3, 4)), ((3, 4), (5, 6)), ((1, 2), (5, 6)))
        single = ((7, 8),)
        packing = evrelocate.search._route_packing
        pool = pool_of((*triangle, single))
        bound, routes = packing(pool, 2, 9)
        assert bound == 6 and len(routes) == 2 and single in routes
        assert len({n for route in routes for pair in route for n in pair}) == 6
        assert len(solves) == 1
        # without the single pair the LP's 6 cannot be reached: the search ends and proves 4
        assert packing(pool_of(triangle), 2, 9) == (4, [triangle[0]])
        assert len(solves) == 2
        assert packing(pool, 1, 9) == (4, [triangle[0]])
        assert len(solves) == 2

    def test_prefix_that_cannot_return_is_extended(self):
        # (p1, d1) cannot ride home within the shift; (p1, d1, p2, d2) can
        inst, graph = far_delivery_case()
        routes = pool_routes(route_columns(inst, graph))
        sets = {frozenset(graph.nodes[n] for pair in r for n in pair) for r in routes}
        assert frozenset(["p1", "d1", "p2", "d2"]) in sets
        assert sets == schedulable_request_sets(inst, graph)
        result = solve_branch_and_bound(inst, graph, SolveOptions(**PAPER))
        assert result.optimal and result.solution.served_count == 4

    def test_root_proof_survives_a_spent_budget(self):
        # the enumeration reads the clock every 512 routes tried; here it tries fewer
        # the bound and its incumbent outlast the limit; their match is still a proof
        inst, graph = random_case(1, size=24)
        for k in (2, 3):
            options = SolveOptions(time_limit_s=1e-4, **PAPER)
            result = solve_branch_and_bound(with_workers(inst, k), graph, options)
            assert result.optimal and result.nodes_explored == 1, k
            assert result.solution.served_count == result.best_bound, k

    def test_past_the_cap_falls_back(self, monkeypatch):
        # the sequential heuristic's answer against the smallest of the compact bound, the
        # root's count bound and K times the longest route, which the first worker's search
        # finds when it ends; at K=1 that proves the pool's optimum
        cells = []
        for seed in range(6):
            inst, graph = random_case(seed, size=12)
            for k in (1, 2, 3):
                inst_k = with_workers(inst, k)
                cells.append(((seed, k), inst_k, graph, solve_branch_and_bound(inst_k, graph)))
        monkeypatch.setattr(evrelocate.search, "ROUTE_CAP", 0)
        proved = []
        for cell, inst, graph, pooled in cells:
            k = inst.parameters.workers
            result = solve_branch_and_bound(inst, graph)
            served = result.solution.served_count
            assert check_solution(inst, graph, result.solution).passed, cell
            assert served == heuristic_sequential(inst, graph).served_count, cell
            longest = 2 * max(map(len, reference_columns(inst, graph).values()), default=0)
            root = recount(graph)
            assert result.best_bound == min(compute_upper_bound(inst, graph), root, k * longest), cell
            assert result.optimal == (served == result.best_bound) and result.nodes_explored >= 1, cell
            if k == 1:
                assert result.optimal and served == pooled.solution.served_count, cell
            proved.append(result.optimal)
        assert set(proved) == {False, True}

    @pytest.mark.parametrize("size, seeds", [(24, range(100000, 100010)), (40, range(5))])
    def test_k1_past_the_cap_proves_the_optimum(self, monkeypatch, size, seeds):
        # one single-worker search, run to its end or to the compact bound, proves K=1
        cells = [(with_workers(inst, 1), graph) for inst, graph in (random_case(seed, size) for seed in seeds)]
        pooled = [solve_branch_and_bound(inst, graph) for inst, graph in cells]
        monkeypatch.setattr(evrelocate.search, "ROUTE_CAP", 0)
        for (inst, graph), expected in zip(cells, pooled):
            result = solve_branch_and_bound(inst, graph)
            assert result.optimal and result.nodes_explored >= 1
            assert result.solution.served_count == result.best_bound == expected.best_bound
            assert check_solution(inst, graph, result.solution).passed

    @pytest.mark.parametrize("family", ["spread", "generator-24", "generator-40"])
    def test_longest_route_is_the_largest_reference_column(self, family):
        # the enumeration's loop kept to its longest route, run to its end: the first of the
        # reference pool's largest columns
        if family == "spread":
            cells = [case for _, case in spread_cells()]
        else:
            size = int(family.split("-")[1])
            cells = [random_case(seed, size=size) for seed in {24: range(100000, 100010), 40: range(5)}[size]]
        for inst, graph in cells:
            nexts, _ = next_pairs(inst, graph)
            shift_limit = inst.parameters.shift_limit_min
            route, entered, most = evrelocate.search._longest_route(nexts, shift_limit, None, 0, None, math.inf)
            largest = max(reference_columns(inst, graph).values(), key=len, default=())
            assert most == len(route) and route == tuple(n for pair in largest for n in pair)
            assert entered >= len(route) // 2

    def test_lp_cells_closed_by_the_packing_search(self, monkeypatch):
        # with no capped search steps every K>1 cell takes one LP solve, and the packing
        # search, going on with the LP's bound as its goal, proves the same optimum; K=1
        # packs nothing: its walk proves alone
        cells = [(seed, k) for seed in (1, 2, 3, 100007) for k in (1, 2, 3)]
        reference = {}
        for seed, k in cells:
            inst = with_workers(generate_instance(GeneratorConfig(request_total=24, seed=seed)), k)
            graph = build_graph(inst, matrix_for_instance(inst))
            expected = solve_branch_and_bound(inst, graph, SolveOptions(**PAPER))
            reference[seed, k] = inst, graph, expected
        monkeypatch.setattr(evrelocate.search, "PACKING_STEPS", 0)
        solves = highs_calls(monkeypatch)
        for (seed, k), (inst, graph, expected) in reference.items():
            solves.clear()
            result = solve_branch_and_bound(inst, graph, SolveOptions(**PAPER))
            assert result.optimal and result.nodes_explored == (K1_PREFIXES[seed] if k == 1 else 1), (seed, k)
            assert result.solution.served_count == result.best_bound == expected.best_bound
            assert check_solution(inst, graph, result.solution).passed, (seed, k)
            assert len(solves) == (k > 1), (seed, k)

    def test_k1_packing_is_the_largest_column(self):
        inst, graph = random_case(4, size=24)
        pool = route_columns(inst, graph)
        bound, routes = evrelocate.search._route_packing(pool, 1, len(graph.nodes))
        assert bound == 2 * max(map(len, pool_routes(pool))) == 2 * len(routes[0])
        assert routes[0] in pool_routes(pool)
        assert evrelocate.search._route_packing(pool_of([]), 2, len(graph.nodes)) == (0, [])


def recount(graph):
    """The root's count bound from scratch: twice the smaller count of pickups and deliveries on EV arcs."""
    pickups, deliveries = set(), set()
    for p, d in zip(graph.src[graph.is_ev].tolist(), graph.dst[graph.is_ev].tolist()):
        pickups.add(p)
        deliveries.add(d)
    return 2 * min(len(pickups), len(deliveries))


@pytest.fixture(scope="module")
def case_200():
    inst = generate_instance(GeneratorConfig(request_total=200, seed=1))
    return inst, build_graph(inst, matrix_for_instance(inst))


def completion_table(inst, graph, levels=None, make=None):
    """The completion table; with ``levels``, cut after that many levels, as a passed deadline cuts it.

    ``make`` builds it, :func:`evrelocate.search._completion_table` by default.
    """
    make, legs = make or evrelocate.search._completion_table, evrelocate.search._legs(inst, graph)
    if levels is None:
        return make(inst, graph, legs, None)
    reads = iter(range(10**6))  # the table reads the clock once before each level
    with patch.object(evrelocate.search, "_past", lambda deadline: next(reads) >= levels):
        return make(inst, graph, legs, None)


def reference_table(inst, graph, legs, deadline):
    """The completion table, node-major, with every level made over every cell and read as a list.

    The layout the cell-major table replaced: per leg and cell, then per
    ride and cell, both gathers and their reductions over whole rows.  The
    reference for the table's values, level by level, and for its root.
    """
    search = evrelocate.search
    pick, drop, low, up, op = legs
    if not len(pick):
        return None
    src, dst, minutes = graph.src, graph.dst, graph.op_time_min
    nodes, start, step = len(graph.nodes), low.min(), search.TABLE_STEP
    cells = int((up.max() + TIME_TOL + op.max() - start) // step) + 1
    size = nodes * cells  # flat (node, cell) index; row `size` of `reach` stays inf, a missed window

    def cell(t):
        return np.minimum((t - start) / step, cells - 1).astype(np.intp)

    grid = start + step * np.arange(cells)
    service = np.maximum(low[:, None], grid)
    arrive = drop[:, None] * cells + cell(service + op[:, None])
    at_leg = np.where(service <= up[:, None] + TIME_TOL, arrive, size)
    pickups, by_pickup = np.unique(pick, return_index=True)
    row = np.full(nodes, -1)
    row[pickups] = np.arange(len(pickups))
    ride = ~graph.is_ev & (src > 0) & (row[dst] >= 0)
    steps = minutes[ride, None] // step * step
    at_ride = row[dst[ride], None] * cells + cell(grid + steps)
    deliveries, by_delivery = np.unique(src[ride], return_index=True)
    home = np.full(nodes, np.inf)
    home[src[dst == 0]] = minutes[dst == 0]
    reach = np.full(size + 1, np.inf)
    reach[:size] = np.tile(grid, nodes) + np.repeat(home, cells)
    levels = [reach[:size]]
    for _ in pickups:
        if search._past(deadline) or np.isinf(reach).all():  # no chain gets home: nor with more pairs
            break
        at_pickup = np.minimum.reduceat(reach.take(at_leg), by_pickup).reshape(-1)
        reach = np.full(size + 1, np.inf)
        at_delivery = np.minimum.reduceat(at_pickup.take(at_ride), by_delivery)
        reach[:size].reshape(nodes, cells)[deliveries] = at_delivery
        levels.append(reach[:size])
    if np.isfinite(levels[-1]).any() and len(levels) <= len(pickups):  # cut short: m pairs take m legs
        levels[-1] = np.minimum(levels[-1], np.tile(grid, nodes) + (len(levels) - 1) * op.min() + home.min())
    levels = np.minimum.accumulate(levels[::-1])[::-1]
    from_depot = ~graph.is_ev & (src == 0)
    depot = np.full(nodes, np.inf)
    depot[dst[from_depot]] = minutes[from_depot]
    first = np.maximum(low, depot[pick])
    fits = first <= up + TIME_TOL
    leave, first, up, drop, op = (column[fits] for column in (depot[pick], first, up, drop, op))
    latest = first + inst.parameters.shift_limit_min - leave + np.maximum(up - first, 0.0) + 2 * TIME_TOL
    most = int((levels[:, drop * cells + cell(first + op)] <= latest).sum(axis=0).max(initial=0))
    return [level.tolist() for level in levels], start, cells, None if most == len(levels) else 2 * most


def assert_table_equals_reference(inst, graph):
    """The table equals :func:`reference_table` element for element: whole, and cut after 1 and 2 levels."""
    for levels in (None, 1, 2):
        got = completion_table(inst, graph, levels)
        expected = completion_table(inst, graph, levels, make=reference_table)
        if expected is None:
            assert got is None
            continue
        assert got[1:] == expected[1:], levels
        assert len(got[0]) == len(expected[0]), levels
        for j, (row, reference) in enumerate(zip(got[0], expected[0])):
            assert np.array_equal(row, reference), (levels, j)


def assert_table_keeps_the_longest_route(inst, graph):
    """With no limit the walk cut by the completion table finds the plain walk's route and verdict,
    and the walk aimed at the table's root a route as long, which the scheduler accepts.

    For the first worker and for a second one, which the first one's route
    leaves out, with the whole table and with one cut after one and two
    levels; the root of a table that ran to its end is at least that route.
    """
    nexts, _ = next_pairs(inst, graph)
    shift, longest = inst.parameters.shift_limit_min, evrelocate.search._longest_route
    first = longest(nexts, shift, None, 0, None, math.inf)
    taken = sum(1 << n for n in first[0])
    second = longest(nexts, shift, None, taken, None, math.inf)
    for levels in (None, 1, 2):
        table = completion_table(inst, graph, levels)
        if table is None:  # no EV leg
            assert first[0] == ()
            continue
        for mask, (route, _, most) in ((0, first), (taken, second)):
            cut = longest(nexts, shift, None, mask, None, math.inf, table)
            assert (cut[0], cut[2]) == (route, most), levels
            aimed, _, aimed_most = longest(nexts, shift, None, mask, None, math.inf, table, True)
            assert (len(aimed), aimed_most) == (len(route), most), levels
            pairs = [(graph.nodes[p], graph.nodes[d]) for p, d in zip(aimed[::2], aimed[1::2])]
            assert not pairs or schedule_route(inst, graph, pairs).feasible, (levels, pairs)
        root = table[3]
        assert root is not None or levels is not None
        assert root is None or root >= len(first[0]), levels


def earliest_returns(nexts, ride_home, node, at, pairs=0, best=None):
    """Per count ``m``, the earliest return home after ``m`` or more pairs, from ``node`` at ``at``.

    Plain recursion over the walk's next-pair lists with exact times, the
    shift, the pickup chain and the start delay left out as the completion
    table leaves them out: ``{m: minutes}``.
    """
    best = {} if best is None else best
    if ride_home is not None:
        for m in range(pairs + 1):
            best[m] = min(best.get(m, math.inf), at + ride_home)
    for ride, legs in nexts[node]:
        for _, _, d, low, up, op, home in legs:
            service = max(low, at + ride)
            if service <= up + TIME_TOL:
                earliest_returns(nexts, home, d, service + op, pairs + 1, best)
    return best


def assert_table_below_earliest_returns(inst, graph):
    """Every value of the completion table, whole or cut after one or two levels, is at most the
    earliest return it bounds, at every delivery and every cell of the grid."""
    nexts, _ = next_pairs(inst, graph)
    home = dict(zip(graph.src[graph.dst == 0].tolist(), graph.op_time_min[graph.dst == 0].tolist()))
    tables = [completion_table(inst, graph, levels) for levels in (None, 1, 2)]
    if tables[0] is None:
        return
    _, start, cells, _ = tables[0]
    for d in np.flatnonzero(~graph.is_pickup[1:]) + 1:
        for i in range(cells):
            best = earliest_returns(nexts, home.get(d), d, start + i * evrelocate.search.TABLE_STEP)
            for rows, _, _, _ in tables:
                for m, minutes in best.items():
                    assert rows[min(m, len(rows) - 1)][d * cells + i] <= minutes + 1e-9, (d, i, m)


class TestCompletionTable:
    """The single-worker search past the route cap, cut where no completion beats its best route."""

    @pytest.mark.parametrize("family", ["spread", "generator-24", "generator-40", "far-delivery"])
    def test_cut_keeps_the_longest_route(self, family):
        if family == "spread":
            cells = [case for _, case in spread_cells()]
        elif family == "far-delivery":
            cells = [far_delivery_case(), no_way_home_case()]
        else:
            size = int(family.split("-")[1])
            cells = [random_case(seed, size=size) for seed in {24: range(100000, 100010), 40: range(5)}[size]]
        for inst, graph in cells:
            assert_table_keeps_the_longest_route(inst, graph)

    @pytest.mark.parametrize("step", [1.0, 10.0])
    def test_any_grid_step_keeps_the_longest_route(self, monkeypatch, step):
        monkeypatch.setattr(evrelocate.search, "TABLE_STEP", step)
        for size, seed in ((12, 1), (24, 100003), (40, 2)):
            assert_table_keeps_the_longest_route(*random_case(seed, size=size))

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(
        seed=st.integers(0, 10**6),
        footprint=st.sampled_from((10.0, 30.0, 60.0)),
        stations=st.integers(1, 9),
        size=st.sampled_from((2, 4, 6, 8, 12, 16)),
        explicit=st.booleans(),
    )
    def test_cut_keeps_the_longest_route_on_the_property_family(self, seed, footprint, stations, size, explicit):
        inst, graph = spread_case(seed, size, footprint, stations, 1, explicit)
        assert_table_keeps_the_longest_route(inst, graph)
        if size <= 8:
            assert_table_below_earliest_returns(inst, graph)

    @pytest.mark.parametrize("step", [1.0, 5.0, 10.0])
    def test_values_below_the_earliest_returns(self, monkeypatch, step):
        monkeypatch.setattr(evrelocate.search, "TABLE_STEP", step)
        for inst, graph in [no_way_home_case(), far_delivery_case(), random_case(1, size=12), random_case(2, size=16)]:
            assert_table_below_earliest_returns(inst, graph)

    def test_no_table_where_its_first_level_does_not_fit(self, case_200):
        # at 200 requests a first level takes about 4 ms, and the walk keeps a shorter time
        inst, graph = case_200
        make, legs = evrelocate.search._completion_table, evrelocate.search._legs(inst, graph)
        assert make(inst, graph, legs, time.perf_counter() + 0.001) is None
        table = make(inst, graph, legs, time.perf_counter() + 1.0)
        assert table is not None and table[3] == 18

    def test_k1_at_200_requests_proves(self, case_200):
        # with no limit, no compact bound (26 here): the table's root (18) is the optimum
        inst, graph = case_200
        inst = with_workers(inst, 1)
        result = solve_branch_and_bound(inst, graph)
        assert (result.solution.served_count, result.best_bound, result.optimal) == (18, 18, True)
        assert check_solution(inst, graph, result.solution).passed

    @pytest.mark.parametrize("seed, optimum", [(1, 18), (2, 16), (3, 22)])
    def test_k1_at_200_requests_proves_within_a_second(self, seed, optimum):
        # the anytime budget, where the compact bound cannot run in its share
        inst = with_workers(generate_instance(GeneratorConfig(request_total=200, seed=seed)), 1)
        graph = build_graph(inst, matrix_for_instance(inst))
        result = solve_branch_and_bound(inst, graph, SolveOptions(time_limit_s=1.0))
        assert (result.solution.served_count, result.best_bound, result.optimal) == (optimum, optimum, True)
        assert result.elapsed_s < 1.0
        assert check_solution(inst, graph, result.solution).passed

    @pytest.mark.parametrize("family", ["spread", "generator-24", "generator-40", "no-way-home-and-200"])
    def test_table_equals_the_node_major_reference(self, family):
        if family == "spread":
            cells = [case for _, case in spread_cells()]
        elif family == "no-way-home-and-200":
            cells = [no_way_home_case(), *(random_case(seed, size=200) for seed in (1, 2, 3))]
        else:
            size = int(family.split("-")[1])
            cells = [random_case(seed, size=size) for seed in {24: range(100000, 100010), 40: range(5)}[size]]
        for inst, graph in cells:
            assert_table_equals_reference(inst, graph)

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(
        seed=st.integers(0, 10**6),
        footprint=st.sampled_from((10.0, 30.0, 60.0)),
        stations=st.integers(1, 9),
        size=st.sampled_from((2, 4, 6, 8, 12, 16)),
        explicit=st.booleans(),
    )
    def test_table_equals_the_reference_on_the_property_family(self, seed, footprint, stations, size, explicit):
        assert_table_equals_reference(*spread_case(seed, size, footprint, stations, 1, explicit))

    def test_walk_makes_the_table_at_its_second_clock_read(self, monkeypatch):
        # 100000's walk ends before its first clock read (512 prefixes) and 100005's between its
        # first and second: both prove with no table; 100007's reaches the second read, makes
        # the table there, and the table's root stops it
        seeds = (100000, 100005, 100007)
        instances = [generate_instance(GeneratorConfig(request_total=24, seed=seed)) for seed in seeds]
        cells = [(with_workers(inst, 1), build_graph(inst, matrix_for_instance(inst))) for inst in instances]
        largest = [2 * max(map(len, pool_routes(route_columns(*case)))) for case in cells]
        made = counted_calls(monkeypatch, "_completion_table")
        for (inst, graph), optimum, seed, tables in zip(cells, largest, seeds, (0, 0, 1)):
            made.clear()
            result = solve_branch_and_bound(inst, graph)
            assert len(made) == tables and result.nodes_explored == K1_PREFIXES[seed], seed
            assert result.optimal and result.solution.served_count == result.best_bound == optimum, seed
            assert check_solution(inst, graph, result.solution).passed, seed

    def test_stopped_walk_reports_the_table_bound(self, case_200):
        # the node limit stops the walk before it finds a route of 18, and the bound is K times
        # the table's root, far below the root count bound
        inst, graph = case_200
        for k in (1, 3):
            inst_k = with_workers(inst, k)
            result = solve_branch_and_bound(inst_k, graph, SolveOptions(time_limit_s=1.0, node_limit=100))
            assert not result.optimal and result.nodes_explored <= 101
            assert result.solution.served_count <= result.best_bound == 18 * k < recount(graph)
            assert check_solution(inst_k, graph, result.solution).passed

    def test_k1_at_400_requests_proves_by_an_aimed_walk(self):
        # the table's root (26) is the optimum: aimed at it, the walk enters about 17 000
        # prefixes, where a walk that only cuts what cannot beat its best route enters 2.5 M
        inst = with_workers(generate_instance(GeneratorConfig(request_total=400, seed=1)), 1)
        graph = build_graph(inst, matrix_for_instance(inst))
        result = solve_branch_and_bound(inst, graph)
        assert (result.solution.served_count, result.best_bound, result.optimal) == (26, 26, True)
        assert result.nodes_explored < 100_000
        assert check_solution(inst, graph, result.solution).passed

    def test_node_limit_after_a_refuted_goal_reports_that_goal_less_two(self, monkeypatch, case_200):
        # the generator's roots are the optimum or 2 above it, and the walk's first round finds
        # the optimum there, so the table's root (18) is raised to 22, still a bound: the
        # walk refutes 22 within about 5 300 prefixes and 20 within about 8 700, and its route
        # reaches 18 later; a node limit between the two refutations reports 20, not 22
        inst, graph = case_200
        inst = with_workers(inst, 1)
        make = evrelocate.search._completion_table

        def raised(*args):
            levels, start, cells, root = make(*args)
            return levels, start, cells, root + 4

        monkeypatch.setattr(evrelocate.search, "_completion_table", raised)
        result = solve_branch_and_bound(inst, graph, SolveOptions(node_limit=7000))
        assert not result.optimal and result.nodes_explored <= 7001
        assert result.solution.served_count < result.best_bound == 20
        assert check_solution(inst, graph, result.solution).passed
        whole = solve_branch_and_bound(inst, graph)
        assert (whole.solution.served_count, whole.best_bound, whole.optimal) == (18, 18, True)


class TestSearchUnchanged:
    """Pinned answers, cell by cell.

    Every K>1 cell is proved at the root by the route packing and its bound,
    so it pins one node, and every K=1 cell by its one walk, so it pins the
    walk's prefixes (``K1_PREFIXES``), with the three switches or without
    them.
    """

    @pytest.mark.parametrize(
        "seed, paper, k, expected",
        [
            # generator seed, configuration, K: (served, best_bound, optimal, nodes_explored)
            (100000, True, 1, (6, 6, True, 179)),
            (100000, True, 2, (10, 10, True, 1)),
            (100000, True, 3, (14, 14, True, 1)),
            (100000, False, 1, (6, 6, True, 179)),
            (100000, False, 2, (10, 10, True, 1)),
            (100000, False, 3, (14, 14, True, 1)),
            (100001, True, 1, (6, 6, True, 435)),
            (100001, True, 2, (12, 12, True, 1)),
            (100001, False, 1, (6, 6, True, 435)),
            (100001, False, 2, (12, 12, True, 1)),
            (100001, False, 3, (16, 16, True, 1)),
            (100002, True, 1, (6, 6, True, 365)),
            (100002, True, 2, (10, 10, True, 1)),
            (100002, False, 1, (6, 6, True, 365)),
            (100002, False, 2, (10, 10, True, 1)),
            (100002, False, 3, (12, 12, True, 1)),
            (100003, True, 1, (6, 6, True, 295)),
            (100003, True, 2, (10, 10, True, 1)),
            (100003, True, 3, (14, 14, True, 1)),
            (100003, False, 1, (6, 6, True, 295)),
            (100003, False, 2, (10, 10, True, 1)),
            (100003, False, 3, (14, 14, True, 1)),
        ],
    )
    def test_node_limited_cells_pinned(self, seed, paper, k, expected):
        # SolveOptions() proves alike; paper: the switches and a 100 000-node limit, default:
        # none and a 20 000-node limit, which the pool reads neither of and no K=1 walk reaches
        inst = with_workers(generate_instance(GeneratorConfig(request_total=24, seed=seed)), k)
        graph = build_graph(inst, matrix_for_instance(inst))
        options = SolveOptions(node_limit=100_000, **PAPER) if paper else SolveOptions(node_limit=20_000)
        result = solve_branch_and_bound(inst, graph, options)
        got = (result.solution.served_count, result.best_bound, result.optimal, result.nodes_explored)
        assert got == expected
        assert k > 1 or result.nodes_explored == K1_PREFIXES[seed]
        assert check_solution(inst, graph, result.solution).passed

    def test_carried_verdicts_equal_schedule_route(self):
        # every child the reference enumeration makes, extendable or not, against a
        # fresh schedule of its whole route: a prefix gone stale on backtrack shows as
        # a verdict that differs; the pool equals that enumeration column for column, and
        # its columns and the longest route, each scheduled whole, are feasible
        verdicts = set()
        for size, seed in ((24, 100000), (40, 3), (40, 4)):
            inst = generate_instance(GeneratorConfig(request_total=size, seed=seed))
            graph = build_graph(inst, matrix_for_instance(inst))
            made = []
            reference_columns(inst, graph, made)
            assert len(made) > 150
            for route, child_made in made[:6000]:
                pairs = [(graph.nodes[p], graph.nodes[d]) for p, d in route]
                fresh = schedule_route(inst, graph, pairs)
                carried = (child_made is not None, child_made is not None and child_made[2])
                assert carried == (fresh.extendable, fresh.feasible), (size, seed, pairs)
                assert child_made is None or child_made[0] == route
                verdicts.add(carried)
            nexts, _ = next_pairs(inst, graph)
            longest, _, _ = evrelocate.search._longest_route(nexts, 300.0, None, 0, None, math.inf)
            for route in [*pool_routes(route_columns(inst, graph)), tuple(zip(longest[::2], longest[1::2]))]:
                pairs = [(graph.nodes[p], graph.nodes[d]) for p, d in route]
                assert schedule_route(inst, graph, pairs).feasible, (size, seed, pairs)
        assert verdicts == {(False, False), (True, False), (True, True)}


class TestStoppingRule:
    def test_node_limit_overshoots_by_at_most_one(self, monkeypatch):
        # past the route cap the single-worker searches split the node limit
        monkeypatch.setattr(evrelocate.search, "ROUTE_CAP", 0)
        inst, graph = random_case(1, size=40)
        for k in (2, 3):
            for limit in (500, 2000):
                result = solve_branch_and_bound(
                    with_workers(inst, k), graph, SolveOptions(node_limit=limit)
                )
                assert not result.optimal
                assert result.nodes_explored <= limit + 1, (k, limit)
                # each worker has its own share of the limit, so each serves a route
                assert len(result.solution.routes) == k, (k, limit)

    @pytest.mark.parametrize("k, paper", [(1, False), (3, True)])
    def test_time_limit_stops_search(self, case_200, k, paper):
        # at K=1 the completion table lets the walk prove within about 3 000 prefixes and
        # 0.03 s (test_k1_at_200_requests_proves), so a node limit stops it first there
        inst, graph = case_200
        limits = {"node_limit": 1000} if k == 1 else {}
        options = SolveOptions(time_limit_s=0.3, **limits, **(PAPER if paper else {}))
        result = solve_branch_and_bound(with_workers(inst, k), graph, options)
        assert not result.optimal
        assert result.elapsed_s < 0.8
        # past the route cap the heuristic's single-worker searches split the budget,
        # so each finds a route
        assert len(result.solution.routes) == k
        assert check_solution(with_workers(inst, k), graph, result.solution).passed

    def test_bound_runs_first_past_the_cap(self):
        # past ROUTE_CAP the compact bound gets its share before the sequential heuristic:
        # at 80 requests the enumeration takes about 0.13 s and the compact LP 0.07 s
        inst = with_workers(generate_instance(GeneratorConfig(request_total=80, seed=1)), 2)
        graph = build_graph(inst, matrix_for_instance(inst))
        result = solve_branch_and_bound(inst, graph, SolveOptions(time_limit_s=0.5, **PAPER))
        assert result.solution.served_count <= result.best_bound <= 34
        assert check_solution(inst, graph, result.solution).passed

    def test_search_gets_the_rest_past_the_cap(self, monkeypatch, case_200):
        # at K=1 the compact LP (about 1 s at 200 requests) cannot finish in its share, so
        # it does not run and the single-worker search gets the rest of the limit
        inst, graph = case_200
        solves = highs_calls(monkeypatch)
        result = solve_branch_and_bound(with_workers(inst, 1), graph, SolveOptions(time_limit_s=0.3, **PAPER))
        assert solves == [] and result.solution.served_count > 0
        assert check_solution(with_workers(inst, 1), graph, result.solution).passed

    @pytest.mark.parametrize("size, k", [(200, 1), (200, 3), (48, 3)])
    def test_paper_configuration_keeps_its_time_limit(self, monkeypatch, size, k):
        # HiGHS gets only the time left and none starts without it, and the route
        # enumeration reads the clock; the rest of the overrun is the compact model's build
        inst = with_workers(generate_instance(GeneratorConfig(request_total=size, seed=1)), k)
        graph = build_graph(inst, matrix_for_instance(inst))
        solver, limits = evrelocate.search.highs, []

        def spy(*args, options, **kwargs):
            limits.append(options["time_limit"])
            return solver(*args, options=options, **kwargs)

        monkeypatch.setattr(evrelocate.search, "highs", spy)
        result = solve_branch_and_bound(inst, graph, SolveOptions(time_limit_s=0.1, **PAPER))
        assert result.elapsed_s < 0.1 + 0.15
        assert all(0 < limit <= 0.1 for limit in limits)
        assert result.solution.served_count <= result.best_bound
        assert check_solution(inst, graph, result.solution).passed

    def test_lp_stopped_by_its_limit_gives_no_bound(self, monkeypatch):
        inst, graph = random_case(1, size=24)
        inst = with_workers(inst, 3)
        stopped = OptimizeResult(status=1, message="Time limit reached", fun=None, x=None)

        def runs_out(*args, options, **kwargs):  # HiGHS spends its time and stops
            time.sleep(options.get("time_limit", 0.0))
            return stopped

        monkeypatch.setattr(evrelocate.search, "highs", runs_out)
        assert compute_upper_bound(inst, graph, time_limit_s=0.01) is None
        columns, nodes = route_columns(inst, graph), len(graph.nodes)
        packing = evrelocate.search._route_packing
        # the oracle: a step cap the search never reaches
        monkeypatch.setattr(evrelocate.search, "PACKING_STEPS", 10**9)
        optimum, _ = packing(columns, 3, nodes)
        # past the step cap the LP stops at the deadline, and so does the search after it:
        # no bound, and the best packing of the capped steps as the routes
        monkeypatch.setattr(evrelocate.search, "PACKING_STEPS", 10)
        bound, routes = packing(columns, 3, nodes, time.perf_counter() + 0.05)
        assert bound is None and 0 < len(routes) <= 3
        assert optimum >= 2 * sum(map(len, routes))
        # with no deadline the search goes on after the stopped LP and proves the optimum
        result = solve_branch_and_bound(inst, graph, SolveOptions(**PAPER))
        assert result.optimal and result.solution.served_count == result.best_bound == optimum
        assert check_solution(inst, graph, result.solution).passed

    @pytest.mark.parametrize(
        "name, value",
        [
            ("time_limit_s", math.nan),
            ("time_limit_s", math.inf),
            ("time_limit_s", 0.0),
            ("time_limit_s", True),
            ("node_limit", 2.5),
            ("node_limit", True),
            ("node_limit", 0),
            ("use_upper_bound", True),
            ("use_warm_start", True),
            ("break_worker_symmetry", True),
        ],
    )
    def test_malformed_limits_rejected(self, capsys, name, value):
        if name.startswith("use_") or name == "break_worker_symmetry":
            # the switches are read by nothing, and the CLI has no flag for them
            flag = {"use_upper_bound": "--upper-bound", "use_warm_start": "--warm-start"}
            with pytest.raises(SystemExit) as exited:
                main(["solve", "--instance", "x.json", flag.get(name, "--symmetry-breaking")])
            assert exited.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
            return
        with pytest.raises(ValueError, match=f"{name} must be (a )?positive"):
            SolveOptions(**{name: value})
        inst, graph = random_case(1)
        with pytest.raises(ValueError, match=f"{name} must be (a )?positive"):
            heuristic_sequential(inst, graph, **{name: value})

    def test_route_enumeration_keeps_the_time_limit(self, monkeypatch):
        # at 60 requests the whole enumeration takes about 1 s; K=2, as K=1 enumerates nothing
        monkeypatch.setattr(evrelocate.search, "ROUTE_CAP", 10**9)
        inst = with_workers(generate_instance(GeneratorConfig(request_total=60, seed=1)), 2)
        graph = build_graph(inst, matrix_for_instance(inst))
        pools = counted_calls(monkeypatch, "_route_columns")
        result = solve_branch_and_bound(inst, graph, SolveOptions(time_limit_s=0.1, **PAPER))
        assert len(pools) == 1
        assert result.elapsed_s < 0.25
        assert not result.optimal and result.solution.served_count <= result.best_bound

    def test_solve_makes_no_arc_objects(self):
        inst = generate_instance(GeneratorConfig(request_total=200, seed=1))
        graph = build_graph(inst, matrix_for_instance(inst))
        result = solve_branch_and_bound(inst, graph, SolveOptions(time_limit_s=0.2))
        assert result.solution.served_count > 0
        assert not {"arcs", "arc_index"} & set(vars(graph))

    def test_scheduler_lookups_built_before_search(self, monkeypatch):
        # the returned routes are timed after the deadline, so their lookups must exist by then
        inst, graph = random_case(1, size=24)
        timed = evrelocate.search._routes_to_solution
        built = []

        def spy(instance, graph, routes):
            built.append({"node_index", "_keys"} <= set(vars(graph)))
            return timed(instance, graph, routes)

        monkeypatch.setattr(evrelocate.search, "_routes_to_solution", spy)
        solve_branch_and_bound(inst, graph, SolveOptions(node_limit=200))
        assert built == [True]

    def test_frontier_bound_valid_when_stopped_early(self, monkeypatch):
        # the spread cells of test_bound_valid_and_optimum_completes_on_spread_instances,
        # past the route cap, where the node limit stops the single-worker searches
        monkeypatch.setattr(evrelocate.search, "ROUTE_CAP", 0)
        cells = product((False, True), (10, 30, 60), (1, 3, 9), (6, 8, 10), (1, 2, 3))
        for cell in cells:
            explicit, footprint, stations, size, k = cell
            seed = footprint * 1000 + stations * 100 + size * 10 + k
            inst, graph = spread_case(seed, size, float(footprint), stations, k, explicit)
            optimum = brute_force(inst, graph).served_count
            for limit in (1, 3, 10, 30, 100):
                result = solve_branch_and_bound(inst, graph, SolveOptions(node_limit=limit))
                assert result.best_bound >= optimum, (cell, limit)
                assert result.solution.served_count <= optimum, (cell, limit)


def highs_optimum(model):
    """Integer optimum of the model through HiGHS, independent of the search, and its values."""
    integrality = np.r_[np.ones(len(model.binaries)), np.zeros(len(model.continuous))]
    result = milp(
        -model.objective,
        constraints=[
            LinearConstraint(
                model.matrix,
                np.where(model.senses == "<=", -np.inf, model.rhs),
                np.where(model.senses == ">=", np.inf, model.rhs),
            )
        ],
        integrality=integrality,
        bounds=Bounds(np.zeros_like(model.upper), model.upper),
    )
    assert result.status == 0, result.message
    return round(-result.fun), result.x


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    seed=st.integers(0, 10**6),
    footprint=st.sampled_from((10.0, 30.0, 60.0)),
    stations=st.integers(1, 9),
    size=st.sampled_from((2, 4, 6, 8)),
    k=st.integers(1, 3),
    explicit=st.booleans(),
)
def test_search_equals_enumeration_equals_highs(seed, footprint, stations, size, k, explicit):
    inst, graph = spread_case(seed, size, footprint, stations, k, explicit)
    pool = route_columns(inst, graph)
    assert pool_routes(pool) == list(reference_columns(inst, graph).values())
    optimum = brute_force(inst, graph).served_count
    result = solve_branch_and_bound(inst, graph)
    with patch.object(evrelocate.search, "PACKING_STEPS", 0):  # the packing LP from K=2 on
        lp_result = solve_branch_and_bound(inst, graph)
    nexts, root = next_pairs(inst, graph)
    table = lambda: completion_table(inst, graph)  # noqa: E731  made at the walk's second clock read
    shift_limit = inst.parameters.shift_limit_min
    walk = evrelocate.search._longest_route(nexts, shift_limit, None, 0, None, root, table, True)
    for solved in (result, lp_result):
        # read at the root from K=2 on; at K=1 the one walk's prefixes, and the pool's largest column
        assert solved.optimal and solved.nodes_explored == (1 if k > 1 else walk[1])
        assert solved.solution.served_count == solved.best_bound == optimum
        assert k > 1 or optimum == 2 * max(map(len, pool_routes(pool)), default=0)
        assert check_solution(inst, graph, solved.solution).passed
    model = build_milp(inst, graph)
    served, values = highs_optimum(model)
    assert served == optimum
    # the solver's binaries decode to routes; its times may miss TIME_TOL, so each
    # decoded pair order is re-timed by the scheduler instead of checked as it stands
    decoded = values_to_solution(model, graph, values)
    assert decoded.served_count == optimum
    for route in decoded.routes:
        ids = route.request_ids
        assert schedule_route(inst, graph, list(zip(ids[0::2], ids[1::2]))).feasible, ids
