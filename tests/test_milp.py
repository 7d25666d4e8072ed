import dataclasses

import pytest

from evrelocate import (
    DEPOT_NODE,
    GeneratorConfig,
    ModelOptions,
    Solution,
    assignment_to_solution,
    assignment_to_values,
    build_graph,
    build_milp,
    compute_upper_bound,
    evaluate_assignment,
    export_lp,
    generate_instance,
    matrix_for_instance,
    models_equivalent,
    parse_lp,
    read_solution_values,
    route_operational_cost,
    solve_branch_and_bound,
    solution_to_assignment,
    values_to_assignment,
)
from conftest import BASE_PARAMS, delivery, make_instance, make_matrix, pickup


def with_workers(inst, k):
    return dataclasses.replace(inst, parameters=dataclasses.replace(inst.parameters, workers=k))


def three_node_model(workers=1, options=None):
    inst = make_instance(
        [pickup("p1", "a", 0.5, 480.0), delivery("d1", "b", 0.4, 700.0)],
        params=dataclasses.replace(BASE_PARAMS, workers=workers),
    )
    matrix = make_matrix(["depot", "a", "b"], {}, default=5.0)
    graph = build_graph(inst, matrix)
    model = build_milp(inst, graph, options)
    return inst, graph, model


def family_counts(model):
    counts = {}
    for row in model.rows:
        counts[row.family] = counts.get(row.family, 0) + 1
    return counts


class TestModelShape:
    def test_three_node_counts(self):
        _, graph, model = three_node_model()
        assert len(graph.arcs) == 3  # no bike arc d1 -> p1: p1 is released first
        assert len(model.binaries) == 3
        assert len(model.continuous) == 3
        counts = family_counts(model)
        assert counts[2] == 1
        assert counts[3] == 2
        assert counts[4] == 3
        assert counts[5] == 2  # arcs not entering the depot
        assert counts[6] == 1
        assert counts[7] == 1
        assert counts[8] == 1
        assert counts[9] == counts[10] == counts[11] == 1

    def test_symmetry_rows_pair_count(self):
        _, _, model = three_node_model(workers=2, options=ModelOptions(symmetry_breaking=True))
        assert len(model.family_rows(14)) == 1
        _, _, model3 = three_node_model(workers=3, options=ModelOptions(symmetry_breaking=True))
        assert len(model3.family_rows(14)) == 3

    def test_upper_bound_row(self):
        _, _, model = three_node_model(options=ModelOptions(upper_bound_cut=5))
        rows = model.family_rows(15)
        assert len(rows) == 1
        assert rows[0].rhs == 5.0
        assert rows[0].sense == "<="

    def test_big_m_from_time_windows(self):
        # c(0,p1) = 20 and c(p1,d1) = 14 minutes; windows: p1 [480, 686],
        # d1 [494, 700], depot [0, 666]
        _, _, model = three_node_model()
        f5 = {r.name: r for r in model.family_rows(5)}
        assert f5["f5_0_p1_k1"].rhs == pytest.approx(666.0 + 20.0 - 480.0)
        assert f5["f5_0_p1_k1"].coeffs["x_0_p1_1"] == pytest.approx(20.0 + 206.0)
        assert f5["f5_p1_d1_k1"].rhs == pytest.approx(686.0 + 14.0 - 494.0)
        (f6,) = model.family_rows(6)
        assert f6.rhs == pytest.approx(300.0 + 400.0)  # M_d = tau_d - T
        assert f6.coeffs["x_d1_0_1"] == pytest.approx(20.0 + 400.0)

    def test_worker_count_validation(self):
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            three_node_model(workers=0)

    def test_closed_form_counts_on_random_instances(self):
        for seed in range(20):
            k = 2
            inst = with_workers(generate_instance(GeneratorConfig(request_total=8, seed=seed)), k)
            matrix = matrix_for_instance(inst)
            graph = build_graph(inst, matrix)
            model = build_milp(inst, graph, ModelOptions(symmetry_breaking=True, upper_bound_cut=4))
            n_requests = len(inst.requests)
            n_pick = len(inst.pickups)
            n_arcs = len(graph.arcs)
            n_into_depot = len(graph.in_arcs[DEPOT_NODE])
            n_ev = len(graph.ev_arcs())
            counts = family_counts(model)
            assert len(model.binaries) == k * n_arcs
            assert len(model.continuous) == k * (n_requests + 1)
            assert counts[2] == k
            assert counts[3] == n_requests
            assert counts[4] == k * (n_requests + 1)
            assert counts[5] == k * (n_arcs - n_into_depot)
            assert counts[6] == k * n_into_depot
            assert counts[7] == k * n_pick
            assert counts[8] == k * (n_requests - n_pick)
            assert counts[9] == counts[10] == counts[11] == k * n_ev
            assert counts[14] == k * (k - 1) // 2
            assert counts[15] == 1


class TestLpExport:
    def test_header_and_sections(self):
        _, _, model = three_node_model()
        text = export_lp(model)
        assert text.startswith("\\")
        for section in ("Maximize", "Subject To", "Bounds", "Binaries", "End"):
            assert section in text

    def test_objective_counts_non_depot_arcs(self):
        _, graph, model = three_node_model(workers=2)
        non_depot = [a for a in graph.arcs if a.from_node != DEPOT_NODE]
        assert len(model.objective) == 2 * len(non_depot)
        assert all(c == 1.0 for c in model.objective.values())

    def test_byte_stable_across_builds(self):
        _, _, model_a = three_node_model(workers=2)
        _, _, model_b = three_node_model(workers=2)
        assert export_lp(model_a) == export_lp(model_b)

    def test_round_trip_through_reader(self):
        for options in (
            None,
            ModelOptions(symmetry_breaking=True, upper_bound_cut=3),
        ):
            _, _, model = three_node_model(workers=2, options=options)
            parsed = parse_lp(export_lp(model))
            assert models_equivalent(model, parsed)

    def test_round_trip_on_generated_instance(self):
        inst = with_workers(generate_instance(GeneratorConfig(request_total=10, seed=4)), 2)
        matrix = matrix_for_instance(inst)
        graph = build_graph(inst, matrix)
        model = build_milp(inst, graph)
        text = export_lp(model)
        assert export_lp(build_milp(inst, graph)) == text
        assert models_equivalent(model, parse_lp(text))


class TestAssignments:
    def test_single_cycle_decodes(self, one_pair):
        inst, matrix = one_pair
        graph = build_graph(inst, matrix)
        x = {("0", "p1", 1): 1.0, ("p1", "d1", 1): 1.0, ("d1", "0", 1): 1.0}
        t = {("0", 1): 460.0, ("p1", 1): 480.0, ("d1", 1): 494.0}
        solution = assignment_to_solution(inst, graph, x, t)
        assert solution.served_count == 2
        assert solution.routes[0].request_ids == ("p1", "d1")
        assert solution.routes[0].depot_departure_min == 460.0

    def test_all_zero_is_empty(self, one_pair):
        inst, matrix = one_pair
        graph = build_graph(inst, matrix)
        solution = assignment_to_solution(inst, graph, {}, {})
        assert solution.served_count == 0

    def test_two_disjoint_cycles(self):
        inst = make_instance(
            [
                pickup("p1", "a", 1.0, 480.0),
                delivery("d1", "b", 0.0, 700.0),
                pickup("p2", "a", 1.0, 480.0),
                delivery("d2", "b", 0.0, 700.0),
            ],
        )
        inst = dataclasses.replace(
            inst, parameters=dataclasses.replace(inst.parameters, workers=2)
        )
        matrix = make_matrix(["depot", "a", "b"], {}, default=5.0)
        graph = build_graph(inst, matrix)
        x = {
            ("0", "p1", 1): 1.0,
            ("p1", "d1", 1): 1.0,
            ("d1", "0", 1): 1.0,
            ("0", "p2", 2): 1.0,
            ("p2", "d2", 2): 1.0,
            ("d2", "0", 2): 1.0,
        }
        t = {
            ("0", 1): 460.0,
            ("p1", 1): 480.0,
            ("d1", 1): 494.0,
            ("0", 2): 465.0,
            ("p2", 2): 485.0,
            ("d2", 2): 499.0,
        }
        solution = assignment_to_solution(inst, graph, x, t)
        assert solution.served_count == 4
        assert len(solution.routes) == 2

    def test_worker_outside_instance_rejected(self, one_pair):
        inst, matrix = one_pair  # K = 1
        graph = build_graph(inst, matrix)
        x = {("0", "p1", 2): 1.0, ("p1", "d1", 2): 1.0, ("d1", "0", 2): 1.0}
        t = {("0", 2): 460.0, ("p1", 2): 480.0, ("d1", 2): 494.0}
        with pytest.raises(ValueError, match="outside"):
            assignment_to_solution(inst, graph, x, t)
        decoded = assignment_to_solution(with_workers(inst, 2), graph, x, t)
        assert decoded.served_count == 2

    def test_isolated_cycle_rejected(self, one_pair):
        inst, matrix = one_pair
        graph = build_graph(inst, matrix)
        x = {("p1", "d1", 1): 1.0, ("d1", "p1", 1): 1.0}
        t = {("p1", 1): 480.0, ("d1", 1): 494.0}
        with pytest.raises(ValueError, match="depot"):
            assignment_to_solution(inst, graph, x, t)

    def test_fractional_value_rejected(self, one_pair):
        inst, matrix = one_pair
        graph = build_graph(inst, matrix)
        x = {("0", "p1", 1): 0.5, ("p1", "d1", 1): 1.0, ("d1", "0", 1): 1.0}
        with pytest.raises(ValueError, match="not binary"):
            assignment_to_solution(inst, graph, x, {})

    def test_solution_file_round_trip(self, one_pair):
        inst, matrix = one_pair
        graph = build_graph(inst, matrix)
        model = build_milp(inst, graph)
        text = "# solver output\nx_0_p1_1 1\nx_p1_d1_1 1\nx_d1_0_1 1\nt_0_1 460\nt_p1_1 480\nt_d1_1 494\n"
        values = read_solution_values(text)
        x, t = values_to_assignment(model, values)
        solution = assignment_to_solution(inst, graph, x, t)
        assert solution.served_count == 2


class TestCrossValidation:
    def test_solver_solutions_satisfy_all_rows(self):
        for seed in range(12):
            inst = generate_instance(GeneratorConfig(request_total=8, seed=seed))
            inst = dataclasses.replace(
                inst, parameters=dataclasses.replace(inst.parameters, workers=2)
            )
            matrix = matrix_for_instance(inst)
            graph = build_graph(inst, matrix)
            solution = solve_branch_and_bound(inst, graph).solution
            model = build_milp(inst, graph)
            x, t = solution_to_assignment(inst, graph, solution)
            values = assignment_to_values(model, x, t)
            bad = [(r.name, s) for r, okr, s in evaluate_assignment(model, values) if not okr]
            assert not bad, (seed, bad[:5])

    def test_strengthened_model_admits_reordered_optimum(self):
        # certificate that adding the symmetry and cap rows keeps the
        # optimum: reorder optimal routes by non-increasing cost and check
        # every row of the strengthened model
        for seed in range(8):
            inst = generate_instance(GeneratorConfig(request_total=8, seed=seed))
            inst = dataclasses.replace(
                inst, parameters=dataclasses.replace(inst.parameters, workers=2)
            )
            matrix = matrix_for_instance(inst)
            graph = build_graph(inst, matrix)
            result = solve_branch_and_bound(inst, graph)
            assert result.optimal
            bound = compute_upper_bound(inst, graph)
            routes = sorted(
                result.solution.routes,
                key=lambda r: -route_operational_cost(graph, r),
            )
            reordered = Solution.from_routes(
                [dataclasses.replace(r, worker_index=i) for i, r in enumerate(routes)]
            )
            model = build_milp(
                inst,
                graph,
                ModelOptions(symmetry_breaking=True, upper_bound_cut=bound),
            )
            x, t = solution_to_assignment(inst, graph, reordered)
            values = assignment_to_values(model, x, t)
            bad = [(r.name, s) for r, okr, s in evaluate_assignment(model, values) if not okr]
            assert not bad, (seed, bad[:5])
