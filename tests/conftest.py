"""Shared builders for hand-crafted test instances."""

import numpy as np
import pytest

from evrelocate import (
    DistanceMatrix,
    GeneratorConfig,
    Instance,
    Location,
    Parameters,
    Request,
    RequestKind,
    Route,
    ScheduleResult,
    Solution,
    generate_instance,
    matrix_for_instance,
)
from evrelocate.domain import TIME_TOL

BASE_PARAMS = Parameters(
    max_range_km=150.0,
    recharge_time_min=240.0,
    shift_limit_min=300.0,
    workers=1,
    ev_speed_kmh=25.0,
    bike_speed_kmh=15.0,
    park_and_unload_min=1.0,
    load_and_exit_min=1.0,
)


def make_instance(requests, params=BASE_PARAMS, depot_id="depot"):
    return Instance(
        parameters=params,
        depot=Location(depot_id),
        requests=tuple(requests),
        distance_source={"type": "inline-test"},
    )


def make_matrix(ids, entries, default=0.0):
    """Matrix from a sparse {(a, b): km} mapping; unspecified pairs default."""
    n = len(ids)
    pos = {x: i for i, x in enumerate(ids)}
    values = np.full((n, n), float(default))
    np.fill_diagonal(values, 0.0)
    for (a, b), km in entries.items():
        values[pos[a], pos[b]] = km
    return DistanceMatrix(ids=tuple(ids), values=values)


def pickup(rid, loc, charge, time_min):
    return Request(rid, RequestKind.PICKUP, Location(loc), charge, time_min)


def delivery(rid, loc, charge, time_min):
    return Request(rid, RequestKind.DELIVERY, Location(loc), charge, time_min)


def result_to_solution(pairs, sched: ScheduleResult, worker_index=0) -> Solution:
    visits = []
    for p, d in pairs:
        visits.append((p, sched.visit_times[p]))
        visits.append((d, sched.visit_times[d]))
    route = Route(
        worker_index=worker_index,
        visits=tuple(visits),
        depot_departure_min=sched.depot_departure_min,
        depot_return_min=sched.depot_return_min,
    )
    return Solution.from_routes([route])


@pytest.fixture
def one_pair():
    """One loose pickup/delivery pair, everything reachable."""
    requests = [
        pickup("p1", "a", 1.0, 480.0),
        delivery("d1", "b", 0.0, 600.0),
    ]
    inst = make_instance(requests)
    ids = ["depot", "a", "b"]
    matrix = make_matrix(ids, {}, default=5.0)
    return inst, matrix


#: Instances on which the array builds are checked against their loop oracles.
ORACLE_CASES = (
    [("generated", size, seed) for size in (24, 60, 200) for seed in (1, 2, 3)]
    + [("non-metric", 80, seed) for seed in (1, 2, 3)]
    + [("empty", 0, 0)]
)


def oracle_case(kind, size, seed):
    """(instance, matrix) of one of ``ORACLE_CASES``.

    ``non-metric``: a random asymmetric matrix over six stations and the
    depot, with no triangle inequality, a fifth of the pairs unreachable and
    a tenth at the 150 km range, give or take 1e-9.  Deliveries are timed on
    the EV-arc threshold of a random earlier pickup and later pickups on the
    bike-arc threshold of a random delivery, each minus 0, 1 or 2
    ``TIME_TOL``, so that arc existence turns on the rounding of the
    threshold expressions.  Request ids are shuffled, so instance order is
    not id order.
    """
    if kind == "generated":
        inst = generate_instance(GeneratorConfig(request_total=size, seed=seed))
        return inst, matrix_for_instance(inst)
    if kind == "empty":
        return make_instance([]), make_matrix(["depot"], {})
    rng = np.random.default_rng(seed)
    ids = ["depot"] + [f"s{i}" for i in range(6)]
    values = rng.uniform(0.0, 200.0, size=(len(ids), len(ids)))
    draw = rng.random(values.shape)
    values[draw < 0.1] = 150.0 + rng.choice([-1e-9, 0.0, 1e-9, 2e-9], size=(draw < 0.1).sum())
    values[draw > 0.8] = np.inf
    np.fill_diagonal(values, 0.0)
    matrix = DistanceMatrix(ids=tuple(ids), values=values)
    names = iter(f"r{number}" for number in rng.permutation(size))
    q = BASE_PARAMS

    def ev_threshold(tau_p, km):
        return tau_p + (km / q.ev_speed_kmh * 60.0 + q.handling_min)

    def bike_threshold(tau_d, km):
        return tau_d + km / q.bike_speed_kmh * 60.0 + q.load_and_exit_min

    def request(make, earlier=(), threshold=None):
        station = ids[1 + int(rng.integers(6))]
        charge = round(float(rng.uniform()), 2)
        time_min = float(rng.uniform(480.0, 900.0))
        if earlier:
            before = earlier[int(rng.integers(len(earlier)))]
            km = matrix.distance(before.location.id, station)
            if not np.isinf(km):
                time_min = threshold(before.time_min, km) - int(rng.integers(3)) * TIME_TOL
        return make(next(names), station, charge, time_min)

    first = [request(pickup) for _ in range(size // 4)]
    drops = [request(delivery, first, ev_threshold) for _ in range(size // 2)]
    rest = size - len(first) - len(drops)
    later = [request(pickup, drops, bike_threshold) for _ in range(rest)]
    return make_instance(first + drops + later), matrix
