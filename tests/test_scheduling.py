"""Scheduler behavior, anchored by an exhaustive 1-minute-grid oracle.

The oracle knows nothing about the scheduler's interval algebra: it scans
every integer combination of pickup service times over a generous window
and evaluates the timing/battery conditions directly from the instance
data.  Test routes are sampled with distances on a 2.5 km lattice, charges
on a 0.05 lattice and integer request times, which makes every feasibility
boundary integral, so grid search and exact scheduling must agree.
"""

import math

import numpy as np
import pytest

from evrelocate import Parameters, build_graph, check_solution, schedule_route
from conftest import delivery, make_instance, make_matrix, pickup, result_to_solution


def grid_feasible_route(params, taus, rhos, dists, t_limit=None):
    """Exhaustive oracle for 1- or 2-leg routes.

    ``taus``/``rhos``: per request in route order p1, d1[, p2, d2];
    ``dists``: (d0_p1, d_p1_d1[, d_d1_p2, d_p2_d2], d_last_0).
    """
    t_limit = params.shift_limit_min if t_limit is None else t_limit
    gamma = params.recharge_time_min
    cap = params.max_range_km
    handling = params.park_and_unload_min + params.load_and_exit_min

    def ev_min(km):
        return km / params.ev_speed_kmh * 60.0

    def bike_min(km):
        return km / params.bike_speed_kmh * 60.0

    legs = (len(taus)) // 2
    if legs == 1:
        d0p, dpd, dd0 = dists
        tau_p, tau_d = taus
        rho_p, rho_d = rhos
        c_ev = ev_min(dpd) + handling
        lo = int(math.floor(max(tau_p, bike_min(d0p))))
        hi = int(math.ceil(tau_d))
        if hi < lo:
            return False
        t1 = np.arange(lo, hi + 1, dtype=float)
        charge = np.minimum(1.0, rho_p + (t1 - tau_p) / gamma)
        td = t1 + c_ev
        ok = (
            (t1 >= tau_p - 1e-9)
            & (t1 - bike_min(d0p) >= -1e-9)
            & (cap * charge >= dpd - 1e-9)
            & (td <= tau_d + 1e-9)
            & (charge - dpd / cap + (tau_d - td) / gamma >= rho_d - 1e-9)
            & ((td + bike_min(dd0)) - (t1 - bike_min(d0p)) <= t_limit + 1e-9)
        )
        return bool(ok.any())

    d0p1, d11, d12, d22, dd20 = dists
    tau_p1, tau_d1, tau_p2, tau_d2 = taus
    rho_p1, rho_d1, rho_p2, rho_d2 = rhos
    c1 = ev_min(d11) + handling
    c2 = ev_min(d22) + handling
    ride = bike_min(d12)

    lo1 = int(math.floor(max(tau_p1, bike_min(d0p1))))
    hi1 = int(math.ceil(tau_d1))
    lo2 = int(math.floor(tau_p2))
    hi2 = int(math.ceil(tau_d2))
    if hi1 < lo1 or hi2 < lo2:
        return False
    t1 = np.arange(lo1, hi1 + 1, dtype=float)[:, None]
    t2 = np.arange(lo2, hi2 + 1, dtype=float)[None, :]

    charge1 = np.minimum(1.0, rho_p1 + (t1 - tau_p1) / gamma)
    td1 = t1 + c1
    charge2 = np.minimum(1.0, rho_p2 + (t2 - tau_p2) / gamma)
    td2 = t2 + c2
    ok = (
        (t1 >= tau_p1 - 1e-9)
        & (t1 - bike_min(d0p1) >= -1e-9)
        & (cap * charge1 >= d11 - 1e-9)
        & (td1 <= tau_d1 + 1e-9)
        & (charge1 - d11 / cap + (tau_d1 - td1) / gamma >= rho_d1 - 1e-9)
        & (t2 >= td1 + ride - 1e-9)
        & (t2 >= tau_p2 - 1e-9)
        & (cap * charge2 >= d22 - 1e-9)
        & (td2 <= tau_d2 + 1e-9)
        & (charge2 - d22 / cap + (tau_d2 - td2) / gamma >= rho_d2 - 1e-9)
        & ((td2 + bike_min(dd20)) - (t1 - bike_min(d0p1)) <= t_limit + 1e-9)
    )
    return bool(ok.any())


def build_route_instance(taus, rhos, dists, t_limit=300.0):
    """Instance + graph for a 1- or 2-leg route with explicit distances."""
    params = Parameters(
        max_range_km=150.0,
        recharge_time_min=240.0,
        shift_limit_min=t_limit,
        workers=1,
        ev_speed_kmh=25.0,
        bike_speed_kmh=15.0,
        park_and_unload_min=1.0,
        load_and_exit_min=1.0,
    )
    legs = len(taus) // 2
    if legs == 1:
        requests = [
            pickup("p1", "A", rhos[0], taus[0]),
            delivery("d1", "B", rhos[1], taus[1]),
        ]
        ids = ["depot", "A", "B"]
        entries = {
            ("depot", "A"): dists[0],
            ("A", "B"): dists[1],
            ("B", "depot"): dists[2],
        }
        pairs = [("p1", "d1")]
    else:
        requests = [
            pickup("p1", "A", rhos[0], taus[0]),
            delivery("d1", "B", rhos[1], taus[1]),
            pickup("p2", "C", rhos[2], taus[2]),
            delivery("d2", "D", rhos[3], taus[3]),
        ]
        ids = ["depot", "A", "B", "C", "D"]
        entries = {
            ("depot", "A"): dists[0],
            ("A", "B"): dists[1],
            ("B", "C"): dists[2],
            ("C", "D"): dists[3],
            ("D", "depot"): dists[4],
        }
        pairs = [("p1", "d1"), ("p2", "d2")]
    inst = make_instance(requests, params=params)
    matrix = make_matrix(ids, entries, default=2.5)
    graph = build_graph(inst, matrix)
    params_obj = params
    return inst, graph, pairs, params_obj


class TestScheduleBasics:
    def test_full_charge_serves_at_release(self):
        inst, graph, pairs, _ = build_route_instance(
            taus=(480.0, 600.0), rhos=(1.0, 0.0), dists=(2.5, 10.0, 2.5)
        )
        result = schedule_route(inst, graph, pairs)
        assert result.feasible
        assert result.visit_times["p1"] == pytest.approx(480.0)
        assert result.visit_times["d1"] == pytest.approx(480.0 + 24.0 + 2.0)
        assert result.depot_departure_min == pytest.approx(480.0 - 10.0)

    def test_charge_wait_formula(self):
        # rho 0.2, drive 60 km of 150 km range: need 0.4, wait 48 minutes
        inst, graph, pairs, _ = build_route_instance(
            taus=(480.0, 700.0), rhos=(0.2, 0.0), dists=(2.5, 60.0, 2.5)
        )
        result = schedule_route(inst, graph, pairs)
        assert result.feasible
        assert result.visit_times["p1"] == pytest.approx(528.0)
        assert result.charge_trace[0][0] == pytest.approx(0.4)

    def test_delayed_start_rescues_duration(self):
        # earliest times idle until p2's release at 700; starting later
        # shrinks the span to exactly the 150-minute shift limit
        inst, graph, pairs, _ = build_route_instance(
            taus=(480.0, 620.0, 700.0, 760.0),
            rhos=(1.0, 0.0, 1.0, 0.0),
            dists=(2.5, 5.0, 5.0, 5.0, 2.5),
            t_limit=150.0,
        )
        result = schedule_route(inst, graph, pairs)
        assert result.feasible
        assert result.depot_return_min - result.depot_departure_min == pytest.approx(150.0)
        assert result.visit_times["p1"] == pytest.approx(584.0)  # delayed start

    def test_malformed_sequences_raise(self):
        inst, graph, pairs, _ = build_route_instance(
            taus=(480.0, 600.0), rhos=(1.0, 0.0), dists=(2.5, 10.0, 2.5)
        )
        with pytest.raises(ValueError):
            schedule_route(inst, graph, [])
        with pytest.raises(ValueError, match="alternate"):
            schedule_route(inst, graph, [("d1", "p1")])
        with pytest.raises(ValueError, match="repeated"):
            schedule_route(inst, graph, [("p1", "d1"), ("p1", "d1")])

    def test_unknown_id_raises_key_error(self):
        inst, graph, _, _ = build_route_instance(
            taus=(480.0, 600.0), rhos=(1.0, 0.0), dists=(2.5, 10.0, 2.5)
        )
        with pytest.raises(KeyError, match="unknown request id 'px'"):
            schedule_route(inst, graph, [("px", "d1")])
        with pytest.raises(KeyError, match="unknown request id '0'"):  # the depot is no request
            schedule_route(inst, graph, [("p1", "0")])

    def test_missing_return_arc_leaves_route_extendable(self):
        inst, graph, pairs, _ = build_route_instance(
            taus=(480.0, 600.0), rhos=(1.0, 0.0), dists=(2.5, 10.0, math.inf)
        )  # no road from d1 back to the depot
        result = schedule_route(inst, graph, pairs)
        assert not result.feasible
        assert result.extendable
        assert "back to the depot" in result.reason

    def test_missing_arc_raises(self):
        inst, graph, pairs, _ = build_route_instance(
            taus=(480.0, 481.0), rhos=(1.0, 0.0), dists=(2.5, 10.0, 2.5)
        )  # deadline too tight: EV arc absent
        with pytest.raises(ValueError, match="no EV arc"):
            schedule_route(inst, graph, [("p1", "d1")])


def sample_route(rng):
    """Integer-friendly random 1- or 2-leg route; returns args + pairs."""
    legs = 1 if rng.random() < 0.5 else 2
    lattice = lambda lo, hi: float(rng.integers(lo, hi + 1)) * 2.5
    charge = lambda: float(rng.integers(0, 21)) * 0.05

    tau_p1 = float(rng.integers(480, 541))
    tau_d1 = tau_p1 + float(rng.integers(0, 181))
    t_limit = float(rng.choice([90.0, 150.0, 300.0]))
    if legs == 1:
        taus = (tau_p1, tau_d1)
        rhos = (charge(), min(charge(), 0.95))
        dists = (lattice(1, 4), lattice(1, 30), lattice(1, 4))
    else:
        tau_p2 = tau_d1 + float(rng.integers(0, 181))
        tau_d2 = tau_p2 + float(rng.integers(0, 181))
        taus = (tau_p1, tau_d1, tau_p2, tau_d2)
        rhos = (charge(), min(charge(), 0.95), charge(), min(charge(), 0.95))
        dists = (lattice(1, 4), lattice(1, 30), lattice(1, 10), lattice(1, 30), lattice(1, 4))
    return taus, rhos, dists, t_limit


def run_grid_comparison(count, seed):
    rng = np.random.default_rng(seed)
    checked = 0
    feasible_seen = 0
    while checked < count:
        taus, rhos, dists, t_limit = sample_route(rng)
        inst, graph, pairs, params = build_route_instance(taus, rhos, dists, t_limit)
        try:
            result = schedule_route(inst, graph, pairs)
        except ValueError:
            continue  # an arc is missing: not a schedulable route
        oracle = grid_feasible_route(params, taus, rhos, dists, t_limit)
        assert result.feasible == oracle, (taus, rhos, dists, t_limit)
        if result.feasible:
            feasible_seen += 1
            solution = result_to_solution(pairs, result)
            report = check_solution(inst, graph, solution)
            assert report.passed, report.failures()
        checked += 1
    return checked, feasible_seen


class TestGridOracle:
    def test_verdicts_match_grid_search(self):
        checked, feasible = run_grid_comparison(count=220, seed=123)
        assert checked == 220
        assert feasible > 20  # the sampler produces real positives too

    def test_open_route_verdicts_match_grid_search(self):
        # the open route ends at its last delivery: the oracle with a
        # zero-length ride back to the depot
        rng = np.random.default_rng(321)
        checked = extendable_only = 0
        while checked < 220:
            taus, rhos, dists, t_limit = sample_route(rng)
            inst, graph, pairs, params = build_route_instance(taus, rhos, dists, t_limit)
            try:
                result = schedule_route(inst, graph, pairs)
            except ValueError:
                continue  # an arc is missing: not a schedulable route
            oracle = grid_feasible_route(params, taus, rhos, dists[:-1] + (0.0,), t_limit)
            assert result.extendable == oracle, (taus, rhos, dists, t_limit)
            assert result.extendable or not result.feasible
            extendable_only += result.extendable and not result.feasible
            checked += 1
        assert extendable_only > 0  # the return leg alone decides some routes
