import json

import pytest

from evrelocate import (
    Route,
    Solution,
    build_graph,
    check_solution,
    schedule_route,
)
from conftest import (
    delivery,
    make_instance,
    make_matrix,
    pickup,
    result_to_solution,
)


def scheduled_solution(tau_d=700.0, rho_p=1.0, rho_d=0.0, d_pd=10.0):
    inst = make_instance(
        [pickup("p1", "a", rho_p, 480.0), delivery("d1", "b", rho_d, tau_d)]
    )
    matrix = make_matrix(
        ["depot", "a", "b"], {("a", "b"): d_pd, ("b", "a"): d_pd}, default=2.5
    )
    graph = build_graph(inst, matrix)
    result = schedule_route(inst, graph, [("p1", "d1")])
    assert result.feasible
    return inst, graph, result_to_solution([("p1", "d1")], result)


def shift(solution, node, delta):
    """Copy of the solution with one visit time moved by delta minutes."""
    route = solution.routes[0]
    visits = tuple(
        (rid, t + delta if rid == node else t) for rid, t in route.visits
    )
    moved = Route(route.worker_index, visits, route.depot_departure_min, route.depot_return_min)
    return Solution.from_routes([moved])


class TestCheckerOnScheduledRoutes:
    def test_scheduler_output_passes_all_families(self):
        inst, graph, solution = scheduled_solution()
        report = check_solution(inst, graph, solution)
        assert report.passed
        families = {r.family for r in report.rows}
        assert families == {2, 3, 4, 5, 6, 7, 8, 9, 10, 11}

    def test_report_json_shape(self):
        inst, graph, solution = scheduled_solution()
        report = check_solution(inst, graph, solution)
        doc = json.loads(report.to_json())
        assert all({"family", "row", "satisfied", "slack"} <= set(row) for row in doc)


class TestViolationDetection:
    def test_late_delivery_fails_family_8(self):
        inst, graph, solution = scheduled_solution(tau_d=700.0)
        late = shift(solution, "d1", 700.0 - solution.routes[0].visits[1][1] + 1.0)
        report = check_solution(inst, graph, late)
        fails = [r for r in report.failures() if r.family == 8]
        assert len(fails) == 1
        assert fails[0].slack == pytest.approx(-1.0)

    def test_early_pickup_fails_family_7(self):
        inst, graph, solution = scheduled_solution()
        early = shift(solution, "p1", -5.0)
        report = check_solution(inst, graph, early)
        assert any(r.family == 7 for r in report.failures())

    def test_duplicate_request_fails_family_3(self):
        inst, graph, solution = scheduled_solution()
        route = solution.routes[0]
        twin = Route(0, route.visits, route.depot_departure_min, route.depot_return_min)
        twin2 = Route(1, route.visits, route.depot_departure_min, route.depot_return_min)
        doubled = Solution(routes=(twin, twin2), served_count=4)
        report = check_solution(inst, graph, doubled)
        assert any(r.family == 3 and not r.satisfied for r in report.rows)

    def test_overlong_drive_fails_family_9_despite_wait(self):
        # an 80 km drive with a full battery is fine; claim it with 160 km
        # and even an infinite wait cannot stretch a capped battery that far
        inst = make_instance(
            [pickup("p1", "a", 1.0, 480.0), delivery("d1", "b", 0.0, 2000.0)]
        )
        matrix = make_matrix(
            ["depot", "a", "b"], {("a", "b"): 160.0, ("b", "a"): 160.0}, default=2.5
        )
        # the graph has no EV arc this long; costs come from its matrix
        graph = build_graph(inst, matrix)
        visits = (("p1", 1000.0), ("d1", 1000.0 + 160.0 / 25.0 * 60.0 + 2.0))
        route = Route(0, visits, 990.0, 1400.0)
        report = check_solution(inst, graph, Solution.from_routes([route]))
        fails = {r.family for r in report.failures()}
        assert 9 in fails

    def test_insufficient_handover_charge_fails_family_10(self):
        # 0.2 battery drives 10 km and is handed over at 0.133 four minutes
        # before a deadline that requires 0.9: recharge cannot close the gap
        harder = make_instance(
            [pickup("p1", "a", 0.2, 480.0), delivery("d1", "b", 0.9, 510.0)]
        )
        matrix = make_matrix(
            ["depot", "a", "b"], {("a", "b"): 10.0, ("b", "a"): 10.0}, default=2.5
        )
        graph2 = build_graph(harder, matrix)
        bad = Route(0, (("p1", 480.0), ("d1", 506.0)), 470.0, 516.0)
        report = check_solution(harder, graph2, Solution.from_routes([bad]))
        fails = {r.family for r in report.failures()}
        assert 10 in fails
        assert 11 not in fails  # a full battery would have made it

    def test_unknown_request_is_an_error(self):
        inst, graph, solution = scheduled_solution()
        ghost = Route(0, (("zz", 480.0), ("d1", 500.0)), 470.0, 510.0)
        with pytest.raises(ValueError, match="unknown request"):
            check_solution(inst, graph, Solution(routes=(ghost,), served_count=2))

    def test_non_alternating_route_is_structural_error(self):
        inst, graph, solution = scheduled_solution()
        bad = Route(0, (("d1", 500.0), ("p1", 520.0)), 470.0, 560.0)
        with pytest.raises(ValueError, match="alternate"):
            check_solution(inst, graph, Solution(routes=(bad,), served_count=2))

    def test_two_routes_same_worker_fails_family_2(self):
        inst, graph, solution = scheduled_solution()
        second = make_instance(
            [
                pickup("p1", "a", 1.0, 480.0),
                delivery("d1", "b", 0.0, 700.0),
                pickup("p2", "a", 1.0, 480.0),
                delivery("d2", "b", 0.0, 700.0),
            ]
        )
        graph2 = build_graph(second, graph.distances)
        r1 = Route(0, (("p1", 480.0), ("d1", 506.0)), 470.0, 520.0)
        r2 = Route(0, (("p2", 480.0), ("d2", 506.0)), 470.0, 520.0)
        report = check_solution(second, graph2, Solution(routes=(r1, r2), served_count=4))
        assert any(r.family == 2 and not r.satisfied for r in report.rows)

    def test_overlong_duration_fails_family_6(self):
        inst, graph, solution = scheduled_solution()
        route = solution.routes[0]
        stretched = Route(
            0,
            (("p1", 480.0), ("d1", 790.0)),
            480.0 - 10.0,
            800.0,
        )
        # d1 deadline is 700 so family 8 fails too; duration 330 > 300
        report = check_solution(inst, graph, Solution.from_routes([stretched]))
        assert any(r.family == 6 and not r.satisfied for r in report.rows)
