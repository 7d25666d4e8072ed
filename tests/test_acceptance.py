"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import dataclasses
import time
from collections import Counter

import numpy as np
import pytest

from evrelocate import (
    GeneratorConfig,
    ModelOptions,
    SolveOptions,
    brute_force,
    build_graph,
    build_milp,
    check_solution,
    compute_upper_bound,
    emit_report,
    export_lp,
    generate_instance,
    heuristic_sequential,
    matrix_for_instance,
    minutes_of,
    models_equivalent,
    parse_lp,
    run_experiment,
    schedule_route,
    solve_branch_and_bound,
)
from conftest import delivery, make_instance, make_matrix, pickup, result_to_solution
from test_scheduling import build_route_instance, grid_feasible_route, sample_route


def _verdict(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def oracle_set():
    """100 seeded instances with at most 8 requests, each solved exactly."""
    cases = []
    sizes = [4, 6, 8]
    for i in range(100):
        size = sizes[i % len(sizes)]
        inst = generate_instance(GeneratorConfig(request_total=size, seed=1000 + i))
        matrix = matrix_for_instance(inst)
        graph = build_graph(inst, matrix)
        cases.append((inst, graph))
    return cases


def with_workers(inst, k):
    return dataclasses.replace(
        inst, parameters=dataclasses.replace(inst.parameters, workers=k)
    )


@pytest.fixture(scope="module")
def oracle_results(oracle_set):
    """(instance_k, graph, exact objective) for every (instance, K) cell."""
    start = time.perf_counter()
    rows = []
    for inst, graph in oracle_set:
        for k in (1, 2):
            inst_k = with_workers(inst, k)
            bb = solve_branch_and_bound(inst_k, graph)
            oracle = brute_force(inst_k, graph)
            rows.append((inst_k, graph, bb, oracle))
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_1_oracle_equivalence(oracle_results):
    rows, elapsed = oracle_results
    mismatches = [
        (inst.parameters.workers, bb.solution.served_count, oracle.served_count)
        for inst, _, bb, oracle in rows
        if not bb.optimal or bb.solution.served_count != oracle.served_count
    ]
    _verdict(
        1,
        not mismatches and elapsed < 60.0,
        f"branch-and-bound equals brute force on {len(rows)} cells "
        f"(100 instances, K in {{1,2}}) in {elapsed:.1f}s "
        f"({len(mismatches)} mismatches)",
    )


def test_criterion_2_bound_sandwich(oracle_results):
    rows, _ = oracle_results
    violations = 0
    for inst, graph, bb, oracle in rows:
        heur = heuristic_sequential(inst, graph).served_count
        bound = compute_upper_bound(inst, graph)
        if not (heur <= oracle.served_count <= bound):
            violations += 1
    _verdict(
        2,
        violations == 0,
        f"heuristic <= exact <= upper bound on {len(rows)} cells "
        f"({violations} violations)",
    )


def test_criterion_3_strengthening_neutrality(oracle_results):
    rows, _ = oracle_results
    paper = SolveOptions(break_worker_symmetry=True, use_upper_bound=True, use_warm_start=True)
    changed = 0
    for inst, graph, bb, oracle in rows:
        result = solve_branch_and_bound(inst, graph, paper)
        if not result.optimal or result.solution.served_count != oracle.served_count:
            changed += 1
    _verdict(
        3,
        changed == 0,
        f"the paper configuration (the packing of the route pool) left the optimum "
        f"unchanged on {len(rows)} cells ({changed} deviations)",
    )


def test_criterion_4_scheduler_grid_oracle():
    rng = np.random.default_rng(4242)
    checked = 0
    feasible = 0
    mismatches = 0
    checker_failures = 0
    while checked < 500:
        taus, rhos, dists, t_limit = sample_route(rng)
        inst, graph, pairs, params = build_route_instance(taus, rhos, dists, t_limit)
        try:
            result = schedule_route(inst, graph, pairs)
        except ValueError:
            continue
        oracle = grid_feasible_route(params, taus, rhos, dists, t_limit)
        if result.feasible != oracle:
            mismatches += 1
        if result.feasible:
            feasible += 1
            report = check_solution(inst, graph, result_to_solution(pairs, result))
            if not report.passed:
                checker_failures += 1
        checked += 1
    _verdict(
        4,
        mismatches == 0 and checker_failures == 0,
        f"greedy verdicts match the 1-minute grid oracle on {checked} routes "
        f"({feasible} feasible; {mismatches} mismatches, "
        f"{checker_failures} checker failures)",
    )


def test_criterion_5_charge_laws():
    # a half-charged 150 km EV covers exactly 75 km
    def leg_feasible(d_km):
        c_ev = minutes_of(25.0, d_km) + 2.0
        inst = make_instance(
            [pickup("p1", "a", 0.5, 480.0), delivery("d1", "b", 0.0, 480.0 + c_ev)]
        )
        matrix = make_matrix(
            ["depot", "a", "b"], {("a", "b"): d_km, ("b", "a"): d_km}, default=2.5
        )
        graph = build_graph(inst, matrix)
        try:
            return schedule_route(inst, graph, [("p1", "d1")]).feasible
        except ValueError:
            return False

    eps = 1e-3
    range_ok = leg_feasible(75.0 - eps) and leg_feasible(75.0) and not leg_feasible(75.0 + eps)

    # parked 60 minutes at Gamma = 240 gains exactly 0.25 charge
    inst = make_instance(
        [pickup("p1", "a", 0.25, 480.0), delivery("d1", "b", 0.0, 800.0)]
    )
    matrix = make_matrix(
        ["depot", "a", "b"], {("a", "b"): 75.0, ("b", "a"): 75.0}, default=2.5
    )
    graph = build_graph(inst, matrix)
    result = schedule_route(inst, graph, [("p1", "d1")])
    recharge_ok = (
        result.feasible
        and result.visit_times["p1"] == pytest.approx(540.0, abs=1e-9)
        and result.charge_trace[0][0] == pytest.approx(0.5, abs=1e-9)
    )
    _verdict(
        5,
        range_ok and recharge_ok,
        "75 km leg accepted at 75-eps / rejected at 75+eps with half charge; "
        "60 parked minutes gain exactly 0.25 charge",
    )


def test_criterion_6_graph_flip():
    def ev_arc_exists(tau_d, d_km=5.0):
        inst = make_instance(
            [pickup("p1", "a", 1.0, 480.0), delivery("d1", "b", 0.0, tau_d)]
        )
        matrix = make_matrix(
            ["depot", "a", "b"], {("a", "b"): d_km, ("b", "a"): d_km}, default=2.5
        )
        return build_graph(inst, matrix).arc("p1", "d1") is not None

    # 5 km at 25 km/h + 2 min handling: flip exactly at 494
    flip_ok = (
        not ev_arc_exists(493.999)
        and ev_arc_exists(494.0)
        and ev_arc_exists(494.001)
    )
    range_ok = ev_arc_exists(5000.0, d_km=150.0) and not ev_arc_exists(5000.0, d_km=150.001)
    _verdict(
        6,
        flip_ok and range_ok,
        "EV arc existence flips exactly at the reachability threshold and "
        "no arc exceeds the 150 km range",
    )


def test_criterion_7_model_fidelity():
    stable = True
    counted = True
    for seed in range(20):
        k = 2
        inst = with_workers(generate_instance(GeneratorConfig(request_total=8, seed=seed)), k)
        matrix = matrix_for_instance(inst)
        graph = build_graph(inst, matrix)
        model = build_milp(inst, graph, ModelOptions(symmetry_breaking=True, upper_bound_cut=6))
        n_req = len(inst.requests)
        n_arcs = len(graph.arcs)
        n_in0 = np.count_nonzero(graph.dst == 0)
        n_ev = np.count_nonzero(graph.is_ev)
        expected = {
            2: k,
            3: n_req,
            4: k * (n_req + 1),
            5: k * (n_arcs - n_in0),
            6: k * n_in0,
            7: k * len(inst.pickups),
            8: k * len(inst.deliveries),
            9: k * n_ev,
            10: k * n_ev,
            11: k * n_ev,
            14: k * (k - 1) // 2,
            15: 1,
        }
        actual = dict(Counter(model.families.tolist()))
        if actual != expected:
            counted = False
        text = export_lp(model)
        again = build_milp(inst, graph, ModelOptions(symmetry_breaking=True, upper_bound_cut=6))
        if export_lp(again) != text or not models_equivalent(model, parse_lp(text)):
            stable = False
    _verdict(
        7,
        counted and stable,
        "constraint-family row counts match closed forms on 20 instances; "
        "LP export is byte-stable and round-trips through the reader",
    )


def test_criterion_8_pipeline_scale():
    start = time.perf_counter()
    named = []
    for size in (10, 20):
        for seed in (1, 2, 3, 4, 5):
            config = GeneratorConfig(request_total=size, seed=seed)
            named.append((f"ev{size}_{seed}", generate_instance(config)))
    records = run_experiment(named, [1, 2, 3], time_limit_s=6.0)
    elapsed = time.perf_counter() - start

    report = emit_report(records, "text")
    monotone = True
    by_name = {}
    for rec in records:
        by_name.setdefault(rec.instance_name, {})[rec.workers] = rec
    for cells in by_name.values():
        served = [cells[k].served_pct for k in sorted(cells)]
        if any(b < a - 1e-9 for a, b in zip(served, served[1:])):
            monotone = False
    _verdict(
        8,
        elapsed < 600.0 and "CPU" in report and monotone and len(records) == 30,
        f"bench over sizes {{10,20}} x 5 seeds x K in {{1,2,3}} finished in "
        f"{elapsed:.0f}s with CPU column and served% weakly increasing in K",
    )
