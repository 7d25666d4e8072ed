"""Random instance generation, experiment orchestration and reporting.

Instances place pickup and delivery requests on a fixed set of parking
stations (nine synthetic stations by default, Euclidean distances with a
detour factor) with random charge levels and random time bounds between
8:00 and 15:00.  Experiments solve each instance once for several worker
counts: K=1 by one walk for the longest single-worker route, K>=2 by the
best packing of the route pool (at 20 requests either takes milliseconds),
then report per-instance rows and per-size averages of the served
percentage, the proven upper bound on it (``best_bound``) and the CPU
time.  Each K is solved on a copy of the instance that carries it, under
one per-solve ``time_limit_s``.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .actiongraph import build_graph
from .distances import matrix_for_instance
from .domain import Instance, Location, Parameters, Request, RequestKind, Solution
from .search import SolveOptions, solve_branch_and_bound

#: Operating constants used throughout the experiments.
DEFAULT_PARAMETERS = Parameters(
    max_range_km=150.0,
    recharge_time_min=240.0,
    shift_limit_min=300.0,
    workers=2,
    ev_speed_kmh=25.0,
    bike_speed_kmh=15.0,
    park_and_unload_min=1.0,
    load_and_exit_min=1.0,
)

#: Nine synthetic stations on a ~10 km urban footprint (planar km).
DEFAULT_STATIONS = (
    Location("s1", coordinates=(2.0, 8.5)),
    Location("s2", coordinates=(1.5, 4.0)),
    Location("s3", coordinates=(3.5, 1.0)),
    Location("s4", coordinates=(5.0, 6.5)),
    Location("s5", coordinates=(5.5, 3.5)),
    Location("s6", coordinates=(7.5, 8.0)),
    Location("s7", coordinates=(8.0, 5.0)),
    Location("s8", coordinates=(9.0, 2.0)),
    Location("s9", coordinates=(6.0, 0.5)),
)

DEFAULT_DEPOT = Location("depot", coordinates=(5.0, 4.8))

#: Request times, pickup charges and delivery charges are drawn uniformly from these ranges.
REQUEST_WINDOW_MIN = (480.0, 900.0)
PICKUP_CHARGE = (0.1, 1.0)
DELIVERY_CHARGE = (0.2, 0.9)

#: Euclidean distances between stations are scaled by this factor.
DETOUR_FACTOR = 1.3


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the random instance generator."""

    request_total: int = 10
    seed: int = 0
    stations: tuple[Location, ...] = DEFAULT_STATIONS
    depot: Location = DEFAULT_DEPOT
    parameters: Parameters = DEFAULT_PARAMETERS

    def __post_init__(self) -> None:
        if self.request_total % 2 != 0 or self.request_total < 0:
            raise ValueError("request_total must be even and nonnegative")
        if not self.stations:
            raise ValueError("need at least one station")


def generate_instance(config: GeneratorConfig) -> Instance:
    """Deterministically sample an instance; |pickups| equals |deliveries|.

    Stations are sampled with replacement per request; pickup charges,
    delivery required charges and request times are uniform within the
    module's ranges.
    """
    rng = np.random.default_rng(config.seed)
    half = config.request_total // 2
    lo, hi = REQUEST_WINDOW_MIN

    def sample(kind: RequestKind, index: int) -> Request:
        station = config.stations[int(rng.integers(len(config.stations)))]
        bounds = PICKUP_CHARGE if kind is RequestKind.PICKUP else DELIVERY_CHARGE
        charge = round(float(rng.uniform(*bounds)), 4)
        time_min = round(float(rng.uniform(lo, hi)), 1)
        prefix = "p" if kind is RequestKind.PICKUP else "d"
        return Request(
            id=f"{prefix}{index}", kind=kind, location=station, charge=charge, time_min=time_min
        )

    requests = [sample(RequestKind.PICKUP, i + 1) for i in range(half)]
    requests += [sample(RequestKind.DELIVERY, i + 1) for i in range(half)]
    return Instance(
        parameters=config.parameters,
        depot=config.depot,
        requests=tuple(requests),
        distance_source={"type": "euclidean", "detour_factor": DETOUR_FACTOR},
    )


@dataclass(frozen=True)
class ExperimentRecord:
    """One (instance, worker count) cell of an experiment."""

    instance_name: str
    request_count: int
    workers: int
    served_pct: float
    objective: int
    best_bound: int
    cpu_s: float
    optimal: bool


def run_experiment(
    named_instances: list[tuple[str, Instance]],
    k_values: list[int],
    time_limit_s: float | None = 8.0,
) -> list[ExperimentRecord]:
    """Solve every (instance, K) cell once.

    A (K-1)-worker answer is a K-worker answer, so where the answer for K
    serves fewer than the previous K's, the previous one is kept: the
    reported served percentage is non-decreasing in K even when a time
    limit stops a solve early.
    """
    options = SolveOptions(time_limit_s=time_limit_s)
    records: list[ExperimentRecord] = []
    for name, instance in named_instances:
        matrix = matrix_for_instance(instance)
        graph = build_graph(instance, matrix)
        total = len(instance.requests)
        previous: Solution | None = None
        for k in sorted(k_values):
            instance_k = replace(instance, parameters=replace(instance.parameters, workers=k))
            begin = time.perf_counter()
            result = solve_branch_and_bound(instance_k, graph, options)
            cpu = time.perf_counter() - begin
            if previous is None or result.solution.served_count >= previous.served_count:
                previous = result.solution
            objective = previous.served_count
            records.append(
                ExperimentRecord(
                    instance_name=name,
                    request_count=total,
                    workers=k,
                    served_pct=100.0 * objective / total if total else 0.0,
                    objective=objective,
                    best_bound=result.best_bound,
                    cpu_s=cpu,
                    optimal=result.optimal,
                )
            )
    return records


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

#: Reads a CSV cell back by its field's annotation in :class:`ExperimentRecord`.
_FROM_CSV = {"str": str, "int": int, "float": float, "bool": lambda text: text == "True"}


def emit_report(records: list[ExperimentRecord], fmt: str = "text") -> str:
    """Render records as an aligned text table, CSV, or JSON."""
    if not records:
        raise ValueError("no records to report")
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=[f.name for f in fields(ExperimentRecord)])
        writer.writeheader()
        for rec in records:
            row = asdict(rec)
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
        return out.getvalue()
    if fmt == "json":
        return json.dumps([asdict(rec) for rec in records], indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")

    k_values = sorted({rec.workers for rec in records})
    by_instance: dict[str, dict[int, ExperimentRecord]] = {}
    for rec in records:
        by_instance.setdefault(rec.instance_name, {})[rec.workers] = rec

    header = ["Instance", "Req"]
    for k in k_values:
        header += [f"K={k} Served", "Bound", "CPU"]
    lines = ["\t".join(header)]
    for name in sorted(by_instance):
        cells = [name, str(next(iter(by_instance[name].values())).request_count)]
        for k in k_values:
            rec = by_instance[name].get(k)
            if rec is None:
                cells += ["-", "-", "-"]
            else:
                flag = "" if rec.optimal else "*"
                bound = _share(rec.best_bound, rec)
                cells += [f"{rec.served_pct:.0f}%{flag}", f"{bound:.0f}%", f"{rec.cpu_s:.2f}"]
        lines.append("\t".join(cells))

    lines.append("")
    header2 = ["Requests"]
    for k in k_values:
        header2 += [f"K={k} Served", "Bound", "CPU"]
    lines.append("\t".join(header2))
    sizes = sorted({rec.request_count for rec in records})
    for size in sizes:
        cells = [str(size)]
        for k in k_values:
            group = [r for r in records if r.request_count == size and r.workers == k]
            if not group:
                cells += ["-", "-", "-"]
                continue
            cells += [
                f"{np.mean([r.served_pct for r in group]):.0f}%",
                f"{np.mean([_share(r.best_bound, r) for r in group]):.0f}%",
                f"{np.mean([r.cpu_s for r in group]):.2f}",
            ]
        lines.append("\t".join(cells))
    lines.append("")
    lines.append("* not proven optimal within limits; Bound: the proven upper bound on the served share")
    return "\n".join(lines) + "\n"


def _share(count: int, rec: ExperimentRecord) -> float:
    """``count`` requests as a percentage of the record's requests."""
    return 100.0 * count / rec.request_count if rec.request_count else 0.0


def parse_report_csv(text: str) -> list[ExperimentRecord]:
    """Inverse of ``emit_report(..., fmt='csv')``."""
    readers = {f.name: _FROM_CSV[f.type] for f in fields(ExperimentRecord)}
    return [
        ExperimentRecord(**{name: read(row[name]) for name, read in readers.items()})
        for row in csv.DictReader(io.StringIO(text))
    ]
