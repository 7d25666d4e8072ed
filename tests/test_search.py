import dataclasses
from itertools import product

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import evrelocate.search
from evrelocate import (
    DEFAULT_PARAMETERS,
    GeneratorConfig,
    Instance,
    Location,
    Request,
    RequestKind,
    SolveOptions,
    assignment_to_values,
    brute_force,
    build_graph,
    build_milp,
    check_solution,
    compute_upper_bound,
    evaluate_assignment,
    generate_instance,
    heuristic_sequential,
    matrix_for_instance,
    solution_to_assignment,
    solve_branch_and_bound,
)
from conftest import delivery, make_instance, make_matrix, pickup


def with_workers(instance, k):
    return dataclasses.replace(
        instance, parameters=dataclasses.replace(instance.parameters, workers=k)
    )


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


def violated_rows(inst, graph, solution):
    """Rows of the model that the solution's completed assignment violates."""
    model = build_milp(inst, graph)
    x, t = solution_to_assignment(inst, graph, solution)
    values = assignment_to_values(model, x, t)
    return [(row.name, slack) for row, ok, slack in evaluate_assignment(model, values) if not ok]


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
        for seed in range(8):
            inst, graph = random_case(seed)
            inst = with_workers(inst, 2)
            reference = solve_branch_and_bound(inst, graph).solution.served_count
            for opts in (
                SolveOptions(break_worker_symmetry=True),
                SolveOptions(use_upper_bound=True),
                SolveOptions(use_warm_start=True),
                SolveOptions(
                    break_worker_symmetry=True, use_upper_bound=True, use_warm_start=True
                ),
            ):
                result = solve_branch_and_bound(inst, graph, opts)
                assert result.optimal
                assert result.solution.served_count == reference, (seed, opts)

    def test_symmetry_breaking_reduces_nodes(self):
        inst, graph = random_case(1)
        inst = with_workers(inst, 3)
        plain = solve_branch_and_bound(inst, graph)
        canonical = solve_branch_and_bound(inst, graph, SolveOptions(break_worker_symmetry=True))
        assert canonical.solution.served_count == plain.solution.served_count
        assert canonical.nodes_explored <= plain.nodes_explored

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

    def test_upper_bound_never_blocks_optimum(self):
        for seed in range(8):
            inst, graph = random_case(seed)
            inst = with_workers(inst, 2)
            capped = solve_branch_and_bound(inst, graph, SolveOptions(use_upper_bound=True))
            plain = solve_branch_and_bound(inst, graph)
            assert capped.solution.served_count == plain.solution.served_count

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
            assert compute_upper_bound(inst, graph) >= optimum.served_count, cell
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

    def test_solver_failure_raises(self, monkeypatch, one_pair):
        inst, matrix = one_pair
        graph = build_graph(inst, matrix)
        failed = OptimizeResult(status=4, message="numerical difficulties", fun=None)
        monkeypatch.setattr(evrelocate.search, "linprog", lambda *a, **kw: failed)
        with pytest.raises(RuntimeError, match="numerical difficulties"):
            compute_upper_bound(inst, graph)
