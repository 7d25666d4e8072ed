import dataclasses
import math
import random
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

    def test_node_limit_yields_flagged_incumbent(self):
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
        # the two configurations, the baseline search and the paper's, prove one optimum
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
        # past the route cap at K=1 the compact bound prunes the search
        monkeypatch.setattr(evrelocate.search, "ROUTE_CAP", 0)
        bounds = counted_calls(monkeypatch, "compute_upper_bound")
        for seed in range(8):
            inst, graph = random_case(seed)
            inst = with_workers(inst, 1)
            capped = solve_branch_and_bound(inst, graph, SolveOptions(**PAPER))
            plain = solve_branch_and_bound(inst, graph)
            assert capped.optimal
            assert capped.solution.served_count == plain.solution.served_count
        assert bounds == [1] * 8

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


def spread_cells(sizes=(6, 8, 10)):
    """``(cell, (instance, graph))`` of the spread family's 162 cells, those of ``sizes`` only."""
    for cell in product((False, True), (10, 30, 60), (1, 3, 9), (6, 8, 10), (1, 2, 3)):
        explicit, footprint, stations, size, k = cell
        if size in sizes:
            seed = footprint * 1000 + stations * 100 + size * 10 + k
            yield cell, spread_case(seed, size, float(footprint), stations, k, explicit)


def route_columns(inst, graph):
    legs, rides, home, _ = evrelocate.search._successors(inst, graph, {r.id for r in inst.requests})
    return evrelocate.search._route_columns(legs, rides, home, inst.parameters.shift_limit_min)


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


def counted_calls(monkeypatch, name):
    """Replace ``evrelocate.search.<name>`` by a wrapper; returns the list of its calls' K."""
    original, calls = getattr(evrelocate.search, name), []

    def spy(instance, *args, **kwargs):
        calls.append(instance.parameters.workers)
        return original(instance, *args, **kwargs)

    monkeypatch.setattr(evrelocate.search, name, spy)
    return calls


class TestRouteBound:
    """The packing of every schedulable single-worker route: exact search, else LP."""

    def test_columns_equal_permutation_oracle(self):
        for cell, (inst, graph) in spread_cells(sizes=(6, 8)):
            columns = route_columns(inst, graph)
            got = {frozenset(graph.nodes[n] for pair in r for n in pair) for r in columns.values()}
            assert got == schedulable_request_sets(inst, graph), cell
            for mask, route in columns.items():
                assert mask == sum(1 << n for pair in route for n in pair), cell
                pairs = [(graph.nodes[p], graph.nodes[d]) for p, d in route]
                assert schedule_route(inst, graph, pairs).feasible, (cell, pairs)

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
        # with no search steps, the packing LP gives the bound from K=2 on
        monkeypatch.setattr(evrelocate.search, "PACKING_STEPS", 0)
        for cell, (inst, graph) in spread_cells():
            optimum = brute_force(inst, graph).served_count
            k, nodes = inst.parameters.workers, len(graph.nodes)
            bound, routes = evrelocate.search._route_packing(route_columns(inst, graph), k, nodes)
            assert optimum <= bound <= compute_upper_bound(inst, graph), cell
            if routes is not None:  # an integral packing is a solution, so it is optimal
                assert len(routes) <= k and 2 * sum(map(len, routes)) == bound == optimum, cell

    @pytest.mark.parametrize("seed, lp_solves", [(1, 0), (2, 0), (3, 0), (100007, 1)])
    def test_paper_configuration_proves_at_the_root(self, monkeypatch, seed, lp_solves):
        inst = generate_instance(GeneratorConfig(request_total=24, seed=seed))
        graph = build_graph(inst, matrix_for_instance(inst))
        bounds = counted_calls(monkeypatch, "compute_upper_bound")
        warm_starts = counted_calls(monkeypatch, "heuristic_sequential")
        solver, solves = evrelocate.search.highs, []

        def counted_solver(*args, **kwargs):
            solves.append(1)
            return solver(*args, **kwargs)

        monkeypatch.setattr(evrelocate.search, "highs", counted_solver)
        for k in (1, 2, 3):
            inst_k = with_workers(inst, k)
            paper = solve_branch_and_bound(inst_k, graph, SolveOptions(**PAPER))
            default = solve_branch_and_bound(inst_k, graph, SolveOptions(node_limit=20_000))
            assert paper.optimal and paper.nodes_explored == 1, k
            assert paper.best_bound == paper.solution.served_count >= default.solution.served_count
            assert check_solution(inst_k, graph, paper.solution).passed, k
        assert bounds == []
        # the packing search settles every cell but seed 100007's K=3, where one LP
        # meets the search's best packing: no dive and no sequential warm start runs
        assert len(solves) == lp_solves
        assert warm_starts == []

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
        columns = {sum(1 << n for pair in r for n in pair): r for r in triangle}
        assert packing(columns, 2, 9) == (4, [triangle[0]])
        columns[1 << 7 | 1 << 8] = single
        assert packing(columns, 2, 9) == (6, [triangle[0], single])
        assert packing(columns, 3, 9) == (6, [triangle[0], single])

    def test_dive_on_a_fractional_optimum(self, monkeypatch):
        # the triangle and the single pair again, with no search steps: at K=2 the
        # LP takes each two-pair route at one half, 7 served, rounded down to 6; one
        # dive step fixes a two-pair route and reaches 6 with the single pair
        monkeypatch.setattr(evrelocate.search, "PACKING_STEPS", 0)
        triangle = (((1, 2), (3, 4)), ((3, 4), (5, 6)), ((1, 2), (5, 6)))
        single = ((7, 8),)
        packing = evrelocate.search._route_packing
        columns = {sum(1 << n for pair in r for n in pair): r for r in (*triangle, single)}
        bound, routes = packing(columns, 2, 9)
        assert bound == 6 and len(routes) == 2 and single in routes
        assert len({n for route in routes for pair in route for n in pair}) == 6
        # without the single pair the LP's 6 cannot be reached: the dive gives up
        assert packing(dict(list(columns.items())[:3]), 2, 9) == (6, None)
        assert packing(columns, 1, 9) == (4, [triangle[0]])

    def test_prefix_that_cannot_return_is_extended(self):
        # (p1, d1) cannot ride home within the shift; (p1, d1, p2, d2) can
        inst, graph = far_delivery_case()
        columns = route_columns(inst, graph).values()
        sets = {frozenset(graph.nodes[n] for pair in r for n in pair) for r in columns}
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
        # K=2-3: the sequential heuristic's answer against the smaller of the compact
        # bound and the root's count bound; K=1: the search pruned by the compact bound
        monkeypatch.setattr(evrelocate.search, "ROUTE_CAP", 0)
        proved = []
        for seed in range(6):
            inst, graph = random_case(seed, size=12)
            allowed = {r.id for r in inst.requests}
            root = recount(evrelocate.search._successors(inst, graph, allowed)[3], set())
            for k in (1, 2, 3):
                inst_k = with_workers(inst, k)
                paper = solve_branch_and_bound(inst_k, graph, SolveOptions(**PAPER))
                served = paper.solution.served_count
                assert check_solution(inst_k, graph, paper.solution).passed, (seed, k)
                if k == 1:
                    default = solve_branch_and_bound(inst_k, graph)
                    assert paper.optimal and served == default.solution.served_count, seed
                    continue
                assert served == heuristic_sequential(inst_k, graph).served_count, (seed, k)
                bound = min(compute_upper_bound(inst_k, graph), root)
                assert paper.best_bound == bound, (seed, k)
                assert paper.optimal == (served == bound) and paper.nodes_explored == 1, (seed, k)
                proved.append(paper.optimal)
        assert set(proved) == {False, True}

    def test_short_dive_closed_by_the_packing_search(self, monkeypatch):
        # every K>1 cell takes the LP, and no dive reaches its bound: the packing
        # search, run again without its step cap, proves the optimum
        cells = [(seed, k) for seed in (1, 2, 3, 100007) for k in (1, 2, 3)]
        reference = {}
        for seed, k in cells:
            inst = with_workers(generate_instance(GeneratorConfig(request_total=24, seed=seed)), k)
            graph = build_graph(inst, matrix_for_instance(inst))
            expected = solve_branch_and_bound(inst, graph, SolveOptions(**PAPER))
            reference[seed, k] = inst, graph, expected
        packing_lp, uncapped = evrelocate.search._packing_lp, []
        monkeypatch.setattr(evrelocate.search, "PACKING_STEPS", 0)
        monkeypatch.setattr(evrelocate.search, "_packing_lp", lambda *a: (packing_lp(*a)[0], None))
        packing = evrelocate.search._route_packing

        def spy(*args, capped=True):
            uncapped.append(not capped)
            return packing(*args, capped=capped)

        monkeypatch.setattr(evrelocate.search, "_route_packing", spy)
        for (seed, k), (inst, graph, expected) in reference.items():
            result = solve_branch_and_bound(inst, graph, SolveOptions(**PAPER))
            assert result.optimal and result.nodes_explored == 1, (seed, k)
            assert result.solution.served_count == result.best_bound == expected.best_bound
            assert check_solution(inst, graph, result.solution).passed, (seed, k)
        assert uncapped.count(True) == 2 * len(reference) // 3  # every K>1 cell

    def test_k1_packing_is_the_largest_column(self):
        inst, graph = random_case(4, size=24)
        columns = route_columns(inst, graph)
        bound, routes = evrelocate.search._route_packing(columns, 1, len(graph.nodes))
        assert bound == 2 * max(map(len, columns.values())) == 2 * len(routes[0])
        assert evrelocate.search._route_packing({}, 2, len(graph.nodes)) == (0, [])


def recount(ev_next, served):
    """The count bound from scratch: a rescan of every EV arc."""
    open_pickups = 0
    open_deliveries = set()
    for p, ds in ev_next.items():
        if p in served:
            continue
        open_ds = [d for d in ds if d not in served]
        if open_ds:
            open_pickups += 1
            open_deliveries.update(open_ds)
    return 2 * min(open_pickups, len(open_deliveries))


class TestCountBound:
    def test_matches_recount_under_random_marks(self):
        rng = random.Random(0)
        for _ in range(200):
            pickups = list(range(1, rng.randint(1, 9)))  # node indices, as the search has them
            deliveries = list(range(10, rng.randint(10, 18)))
            density = rng.random()
            ev_next = {}
            for p in pickups:
                ds = [d for d in deliveries if rng.random() < density]
                if ds:
                    ev_next[p] = ds
            bound = evrelocate.search.CountBound(ev_next)
            marked = []
            assert bound.value() == recount(ev_next, set())
            for _ in range(30):
                arcs = [
                    (p, d)
                    for p, ds in ev_next.items()
                    for d in ds
                    if p not in bound.served and d not in bound.served
                ]
                if arcs and (not marked or rng.random() < 0.6):
                    pair = rng.choice(arcs)
                    bound.mark(*pair)
                    marked.append(pair)
                elif marked:
                    bound.unmark(*marked.pop())
                assert bound.served == {n for pair in marked for n in pair}
                assert bound.value() == recount(ev_next, bound.served)


@pytest.fixture(scope="module")
def case_200():
    inst = generate_instance(GeneratorConfig(request_total=200, seed=1))
    return inst, build_graph(inst, matrix_for_instance(inst))



class TestSearchUnchanged:
    """The search tree of the whole-route scheduler it replaced, cell by cell.

    The paper configuration's cells are proved at the root by the route
    packing bound and its incumbent, so they pin one node each.
    """

    @pytest.mark.parametrize(
        "seed, paper, k, expected",
        [
            # generator seed, configuration, K: (served, best_bound, optimal, nodes_explored)
            (100000, True, 1, (6, 6, True, 1)),
            (100000, True, 2, (10, 10, True, 1)),
            (100000, True, 3, (14, 14, True, 1)),
            (100000, False, 1, (6, 6, True, 160)),
            (100000, False, 2, (10, 10, True, 12811)),
            (100000, False, 3, (12, 18, False, 20001)),
            (100001, True, 1, (6, 6, True, 1)),
            (100001, True, 2, (12, 12, True, 1)),
            (100001, False, 1, (6, 6, True, 436)),
            (100001, False, 2, (12, 22, False, 20001)),
            (100001, False, 3, (14, 22, False, 20001)),
            (100002, True, 1, (6, 6, True, 1)),
            (100002, True, 2, (10, 10, True, 1)),
            (100002, False, 1, (6, 6, True, 366)),
            (100002, False, 2, (10, 20, False, 20001)),
            (100002, False, 3, (12, 20, False, 20001)),
            (100003, True, 1, (6, 6, True, 1)),
            (100003, True, 2, (10, 10, True, 1)),
            (100003, True, 3, (14, 14, True, 1)),
            (100003, False, 1, (6, 6, True, 264)),
            (100003, False, 2, (10, 10, True, 15043)),
            (100003, False, 3, (12, 18, False, 20001)),
        ],
    )
    def test_node_limited_cells_pinned(self, seed, paper, k, expected):
        # paper: the speedups with a 100 000-node limit; default: a 20 000-node limit
        inst = with_workers(generate_instance(GeneratorConfig(request_total=24, seed=seed)), k)
        graph = build_graph(inst, matrix_for_instance(inst))
        options = SolveOptions(node_limit=100_000, **PAPER) if paper else SolveOptions(node_limit=20_000)
        result = solve_branch_and_bound(inst, graph, options)
        got = (result.solution.served_count, result.best_bound, result.optimal, result.nodes_explored)
        assert got == expected
        assert check_solution(inst, graph, result.solution).passed

    def test_carried_verdicts_equal_schedule_route(self, monkeypatch):
        # every child the search makes, extendable or not, against a fresh
        # schedule of its whole route: a prefix gone stale on backtrack or at
        # a worker switch shows as a verdict that differs
        child = evrelocate.search._child
        calls = []

        def spy(route, prefix, pair, *args):
            made = child(route, prefix, pair, *args)
            calls.append((route + (pair,), made))
            return made

        verdicts = set()
        # the paper configuration's route enumeration; past the route cap (0) its
        # sequential heuristic's single-worker searches; the baseline's worker switches
        cases = ((40, 3, 2, True, 20_000), (40, 3, 3, True, 0), (60, 1, 2, False, 20_000))
        for size, seed, k, paper, cap in cases:
            inst = with_workers(generate_instance(GeneratorConfig(request_total=size, seed=seed)), k)
            graph = build_graph(inst, matrix_for_instance(inst))
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(evrelocate.search, "_child", spy)
                patch.setattr(evrelocate.search, "ROUTE_CAP", cap)
                options = SolveOptions(node_limit=3000, **(PAPER if paper else {}))
                solve_branch_and_bound(inst, graph, options)
            assert len(calls) > 3000
            for route, made in calls:
                pairs = [(graph.nodes[p], graph.nodes[d]) for p, d in route]
                fresh = schedule_route(inst, graph, pairs)
                carried = (made is not None, made is not None and made[2])
                assert carried == (fresh.extendable, fresh.feasible), (size, seed, k, pairs)
                assert made is None or made[0] == route
                verdicts.add(carried)
        assert verdicts == {(False, False), (True, False), (True, True)}


class TestStoppingRule:
    def test_node_limit_overshoots_by_at_most_one(self):
        inst, graph = random_case(1, size=24)
        for k in (2, 3):
            for limit in (500, 2000):
                result = solve_branch_and_bound(
                    with_workers(inst, k), graph, SolveOptions(node_limit=limit)
                )
                assert not result.optimal
                assert result.nodes_explored <= limit + 1, (k, limit)

    @pytest.mark.parametrize("k, paper", [(1, False), (3, True)])
    def test_time_limit_stops_search(self, case_200, k, paper):
        inst, graph = case_200
        options = SolveOptions(time_limit_s=0.3, **(PAPER if paper else {}))
        result = solve_branch_and_bound(with_workers(inst, k), graph, options)
        assert not result.optimal
        assert result.elapsed_s < 0.8
        # past the route cap the heuristic's single-worker searches split the budget,
        # so each finds a route
        assert len(result.solution.routes) == k
        assert check_solution(with_workers(inst, k), graph, result.solution).passed

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
        monkeypatch.setattr(evrelocate.search, "highs", lambda *a, **kw: stopped)
        assert compute_upper_bound(inst, graph, time_limit_s=1.0) is None
        columns = route_columns(inst, graph)
        # past the step cap: no bound, and the search's best packing as the routes
        monkeypatch.setattr(evrelocate.search, "PACKING_STEPS", 10)
        bound, routes = evrelocate.search._route_packing(columns, 3, len(graph.nodes))
        assert bound is None and 0 < len(routes) <= 3
        # the solve runs the packing search on without its step cap, which needs no LP
        result = solve_branch_and_bound(inst, graph, SolveOptions(**PAPER))
        optimum, _ = evrelocate.search._route_packing(columns, 3, len(graph.nodes), capped=False)
        assert result.optimal and result.solution.served_count == result.best_bound == optimum
        assert optimum >= 2 * sum(map(len, routes))
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
            # one switch spelled three ways: a mix is neither configuration
            with pytest.raises(ValueError, match=f"{name}.* must be all on"):
                SolveOptions(**{name: value})
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
        # at 60 requests the whole enumeration takes about 1 s
        monkeypatch.setattr(evrelocate.search, "ROUTE_CAP", 10**9)
        inst = with_workers(generate_instance(GeneratorConfig(request_total=60, seed=1)), 1)
        graph = build_graph(inst, matrix_for_instance(inst))
        result = solve_branch_and_bound(inst, graph, SolveOptions(time_limit_s=0.1, **PAPER))
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

    def test_frontier_bound_valid_when_stopped_early(self):
        # the spread cells of test_bound_valid_and_optimum_completes_on_spread_instances
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
    optimum = brute_force(inst, graph).served_count
    result = solve_branch_and_bound(inst, graph)
    assert result.optimal
    assert result.solution.served_count == optimum
    paper = solve_branch_and_bound(inst, graph, SolveOptions(**PAPER))
    with patch.object(evrelocate.search, "PACKING_STEPS", 0):  # the packing LP from K=2 on
        lp_paper = solve_branch_and_bound(inst, graph, SolveOptions(**PAPER))
    for solved in (paper, lp_paper):
        assert solved.optimal and solved.nodes_explored == 1  # the K-worker search never runs
        assert solved.solution.served_count == solved.best_bound == optimum
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
