import math

import pytest

from evrelocate import DEPOT_NODE, ArcKind, RequestKind, build_graph, minutes_of, to_dot
from evrelocate.domain import TIME_TOL
from conftest import ORACLE_CASES, delivery, make_instance, make_matrix, oracle_case, pickup


def oracle_arcs(instance, distances):
    """(from, to, kind, km, op_time) of every arc, built pair by pair, in canonical order.

    This is the loop that the array build replaced, kept as its reference.
    """
    params = instance.parameters

    def dist(a, b):
        return distances.distance(instance.location_id(a), instance.location_id(b))

    arcs = []
    for p in instance.pickups:
        for d in instance.deliveries:
            d_km = dist(p.id, d.id)
            if math.isinf(d_km) or d_km > params.max_range_km + 1e-9:
                continue
            op_time = minutes_of(params.ev_speed_kmh, d_km) + params.handling_min
            if d.time_min < p.time_min + op_time - TIME_TOL:
                continue
            arcs.append((p.id, d.id, ArcKind.EV, d_km, op_time))
    for d in instance.deliveries:
        for p in instance.pickups:
            d_km = dist(d.id, p.id)
            if math.isinf(d_km):
                continue
            ride = minutes_of(params.bike_speed_kmh, d_km)
            if p.time_min < d.time_min + ride + params.load_and_exit_min - TIME_TOL:
                continue
            arcs.append((d.id, p.id, ArcKind.BIKE, d_km, ride))
    for p in instance.pickups:
        d_km = dist(DEPOT_NODE, p.id)
        if not math.isinf(d_km):
            ride = minutes_of(params.bike_speed_kmh, d_km)
            arcs.append((DEPOT_NODE, p.id, ArcKind.BIKE, d_km, ride))
    for d in instance.deliveries:
        d_km = dist(d.id, DEPOT_NODE)
        if not math.isinf(d_km):
            ride = minutes_of(params.bike_speed_kmh, d_km)
            arcs.append((d.id, DEPOT_NODE, ArcKind.BIKE, d_km, ride))
    order = {n: i for i, n in enumerate([DEPOT_NODE] + sorted(r.id for r in instance.requests))}
    return sorted(arcs, key=lambda arc: (order[arc[0]], order[arc[1]]))


def tiny(tau_p=480.0, tau_d=500.0, d_pd=5.0, rho_p=1.0, rho_d=0.0):
    inst = make_instance(
        [pickup("p1", "a", rho_p, tau_p), delivery("d1", "b", rho_d, tau_d)]
    )
    matrix = make_matrix(["depot", "a", "b"], {("a", "b"): d_pd, ("b", "a"): d_pd}, default=2.0)
    return inst, matrix


class TestEvArcExistence:
    # 5 km at 25 km/h is 12 min, plus 1 + 1 handling: threshold 494

    def test_exists_with_slack(self):
        inst, matrix = tiny(tau_d=500.0)
        graph = build_graph(inst, matrix)
        arc = graph.arc("p1", "d1")
        assert arc is not None and arc.kind is ArcKind.EV
        assert arc.op_time_min == pytest.approx(14.0)

    def test_exists_exactly_at_threshold(self):
        inst, matrix = tiny(tau_d=494.0)
        graph = build_graph(inst, matrix)
        assert graph.arc("p1", "d1") is not None

    def test_absent_below_threshold(self):
        inst, matrix = tiny(tau_d=493.999)
        graph = build_graph(inst, matrix)
        assert graph.arc("p1", "d1") is None

    def test_absent_beyond_range(self):
        inst, matrix = tiny(tau_d=5000.0, d_pd=160.0)
        graph = build_graph(inst, matrix)
        assert graph.arc("p1", "d1") is None

    def test_range_boundary(self):
        inst, matrix = tiny(tau_d=5000.0, d_pd=150.0)
        assert build_graph(inst, matrix).arc("p1", "d1") is not None
        inst, matrix = tiny(tau_d=5000.0, d_pd=150.001)
        assert build_graph(inst, matrix).arc("p1", "d1") is None


class TestBikeArcExistence:
    def test_condition_includes_exit_handling(self):
        # ride 5 km at 15 km/h = 20 min, + 1 min loading: pickup time must
        # be at least tau_d + 21
        inst, matrix = tiny(tau_p=521.0, tau_d=500.0)
        graph = build_graph(inst, matrix)
        assert graph.arc("d1", "p1") is not None
        inst, matrix = tiny(tau_p=520.9, tau_d=500.0)
        graph = build_graph(inst, matrix)
        assert graph.arc("d1", "p1") is None

    def test_cost_excludes_handling(self):
        inst, matrix = tiny(tau_p=600.0, tau_d=500.0)
        graph = build_graph(inst, matrix)
        arc = graph.arc("d1", "p1")
        assert arc.op_time_min == pytest.approx(20.0)  # pure riding time


class TestDepotArcs:
    def test_always_present_when_finite(self):
        inst, matrix = tiny()
        graph = build_graph(inst, matrix)
        assert graph.arc("0", "p1") is not None
        assert graph.arc("d1", "0") is not None
        assert graph.arc("0", "p1").op_time_min == pytest.approx(8.0)

    def test_infinite_distance_omits_arc(self):
        inst, _ = tiny()
        matrix = make_matrix(
            ["depot", "a", "b"],
            {("depot", "a"): math.inf, ("a", "b"): 5.0},
            default=2.0,
        )
        graph = build_graph(inst, matrix)
        assert graph.arc("0", "p1") is None
        assert graph.arc("d1", "0") is not None

    def test_missing_matrix_entry_is_error(self):
        inst, _ = tiny()
        matrix = make_matrix(["depot", "a"], {}, default=2.0)  # no "b"
        with pytest.raises(ValueError, match="does not cover") as error:
            build_graph(inst, matrix)
        assert "'b'" in str(error.value) and "'d1'" in str(error.value)


class TestGraphShape:
    def test_counts_on_three_node_graph(self):
        # the EV and bike time conditions are mutually exclusive on a single
        # pair, so only three of the four candidate arcs exist
        inst, matrix = tiny()
        graph = build_graph(inst, matrix)
        assert graph.node_count == 3
        assert len(graph.arcs) == 3  # EV, depot out, depot return
        assert len(graph.arcs) < graph.node_count**2

    def test_node_arrays_replace_the_instance(self):
        inst, matrix = oracle_case("generated", 12, 2)
        graph = build_graph(inst, matrix)
        assert "instance" not in vars(graph)
        requests = [inst.request(n) for n in graph.nodes[1:]]
        assert graph.tau.tolist() == [0.0] + [r.time_min for r in requests]
        assert graph.charge.tolist() == [0.0] + [r.charge for r in requests]
        kinds = [r.kind is RequestKind.PICKUP for r in requests]
        assert graph.is_pickup.tolist() == [False] + kinds

    def test_empty_request_set(self):
        inst = make_instance([])
        matrix = make_matrix(["depot"], {})
        graph = build_graph(inst, matrix)
        assert len(graph.arcs) == 0
        assert len(graph.arcs) < graph.node_count**2

    def test_no_same_kind_arcs(self):
        inst = make_instance(
            [
                pickup("p1", "a", 1.0, 480.0),
                pickup("p2", "a", 1.0, 490.0),
                delivery("d1", "b", 0.0, 700.0),
                delivery("d2", "b", 0.0, 800.0),
            ]
        )
        matrix = make_matrix(["depot", "a", "b"], {}, default=3.0)
        graph = build_graph(inst, matrix)
        kinds = {r.id: r.kind for r in inst.requests}
        for arc in graph.arcs:
            from_kind = kinds.get(arc.from_node)
            to_kind = kinds.get(arc.to_node)
            assert from_kind != to_kind or (from_kind is None and to_kind is None)

    def test_ev_arc_respects_time_separation(self):
        inst, matrix = tiny(tau_p=480.0, tau_d=700.0)
        graph = build_graph(inst, matrix)
        ev = graph.is_ev
        assert ev.any()
        for i, j, cost in zip(graph.src[ev], graph.dst[ev], graph.op_time_min[ev]):
            p = inst.request(graph.nodes[i])
            d = inst.request(graph.nodes[j])
            assert d.time_min - p.time_min >= cost - 1e-9

    def test_same_location_requests_are_distinct_nodes(self):
        inst = make_instance(
            [
                pickup("p1", "a", 1.0, 480.0),
                delivery("d1", "a", 0.0, 700.0),
            ]
        )
        matrix = make_matrix(["depot", "a"], {}, default=2.0)
        graph = build_graph(inst, matrix)
        arc = graph.arc("p1", "d1")
        assert arc is not None
        assert arc.distance_km == 0.0
        assert arc.op_time_min == pytest.approx(2.0)  # handling only

    def test_removing_request_only_drops_incident_arcs(self):
        inst = make_instance(
            [
                pickup("p1", "a", 1.0, 480.0),
                pickup("p2", "b", 0.9, 500.0),
                delivery("d1", "a", 0.1, 700.0),
                delivery("d2", "b", 0.2, 800.0),
            ]
        )
        matrix = make_matrix(["depot", "a", "b"], {}, default=3.0)
        full = build_graph(inst, matrix)
        smaller = make_instance([r for r in inst.requests if r.id != "p2"])
        partial = build_graph(smaller, matrix)
        full_minus = {
            (a.from_node, a.to_node) for a in full.arcs if "p2" not in (a.from_node, a.to_node)
        }
        assert {(a.from_node, a.to_node) for a in partial.arcs} == full_minus


@pytest.mark.parametrize("kind, size, seed", ORACLE_CASES)
def test_arcs_equal_pair_by_pair_oracle(kind, size, seed):
    inst, matrix = oracle_case(kind, size, seed)
    graph = build_graph(inst, matrix)
    arcs = [(a.from_node, a.to_node, a.kind, a.distance_km, a.op_time_min) for a in graph.arcs]
    assert arcs == oracle_arcs(inst, matrix)
    assert graph.nodes == (DEPOT_NODE,) + tuple(sorted(r.id for r in inst.requests))
    assert all(graph.arc(a.from_node, a.to_node) is a for a in graph.arcs)


class TestDot:
    def test_dot_dump_mentions_nodes_and_arcs(self):
        inst, matrix = tiny()
        text = to_dot(build_graph(inst, matrix))
        assert "digraph" in text
        assert '"p1"' in text and '"d1"' in text
        assert "ev" in text and "bike" in text
