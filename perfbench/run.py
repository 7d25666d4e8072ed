"""Benchmark of the evrelocate pipeline: exact answers, anytime answers, LP export.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload exact-paper --seed 1 --seconds 30 --trace 0

The runner is one single-threaded process.  It imports ``evrelocate`` from
``src/`` of the checkout it sits in, makes the workload's instances from
``--seed`` with the package's generator, and hands the package only those
instances (as instance JSON).  It repeats operations until ``--seconds``
have passed, always finishing the operation it is on.  Every output is
checked.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` they are the
per-layer ones, measured by wrapping the package's public functions (see
``tracing.py``) and running each operation once untraced and once traced.
The lines before it are a readable report: environment facts and every
metric with its unit.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported: the runner is single-threaded.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_FRAMEWORKS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import itertools
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from importlib import metadata
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Iterator

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
# setup_s is the median of set-ups taken before the run and then about once
# per SETUP_EVERY_S of it, so that it samples the host's speed over the
# whole run rather than over one short window.
SETUP_REPEATS = 5
SETUP_EVERY_S = 1.0

now = time.perf_counter


@dataclass(frozen=True)
class Workload:
    """One shape of input: every instance has ``size`` requests."""

    name: str
    size: int
    workers: tuple[int, ...]
    export: bool = False  # LP export instead of solving
    time_limit_s: float | None = None  # per solve
    node_limit: int | None = None  # per default-configuration solve
    # Time the paper's speedup configuration; the default one still runs
    # first, untimed, as the reference of the cross-configuration check.
    paper: bool = False


# Why each workload exists, and what each layer should move on it, is in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-paper", size=24, workers=(1, 2, 3), time_limit_s=6.0, node_limit=20_000,
            paper=True,
        ),
        Workload("anytime-200", size=200, workers=(1,), time_limit_s=1.0),
        Workload("export-400", size=400, workers=(3,), export=True),
    )
}

# Import sites wrapped by the traced run: (module, attribute).
TRACE_TARGETS = [
    ("evrelocate.search", "schedule_route"),
    ("evrelocate.search", "solve_branch_and_bound"),
    ("evrelocate.search", "compute_upper_bound"),
    ("evrelocate.search", "heuristic_sequential"),
    ("evrelocate.search", "build_graph"),
    ("evrelocate.domain", "Instance.request"),
    ("evrelocate.actiongraph", "build_graph"),
    ("evrelocate.distances", "matrix_for_instance"),
    ("evrelocate.validate", "check_solution"),
    ("evrelocate.milp", "build_milp"),
    ("evrelocate.milp", "export_lp"),
]


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


# ---------------------------------------------------------------------------
# Package loading and environment
# ---------------------------------------------------------------------------


def load_package() -> SimpleNamespace:
    """Import ``evrelocate`` afresh from this checkout's ``src/``."""
    if not (SRC / "evrelocate" / "__init__.py").is_file():
        raise SetupError(f"no evrelocate sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "evrelocate" or m.startswith("evrelocate.")]:
        del sys.modules[name]
    pkg = importlib.import_module("evrelocate")
    if Path(pkg.__file__).resolve().parent != SRC / "evrelocate":
        raise SetupError(f"evrelocate imported from {pkg.__file__}, not from {SRC}")
    names = ("actiongraph", "bench", "distances", "domain", "milp", "search", "validate")
    return SimpleNamespace(**{n: importlib.import_module(f"evrelocate.{n}") for n in names})


def _commit() -> str:
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict[str, Any]:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "threads_pinned": os.environ["OMP_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass
class Solve:
    """One configuration of one cell, run as ``evrelocate solve`` runs it."""

    wall_s: float
    search_s: float
    served: int
    total: int
    best_bound: int
    optimal: bool
    nodes: int
    problems: list[str]


@dataclass
class Op:
    """One (instance, K) cell, or one LP export.

    ``wall_s`` is the timed solve (the paper configuration's on a workload
    that runs it) or the export, from instance JSON to checked output.
    """

    instance: int
    workers: int
    wall_s: float = 0.0
    default: Solve | None = None
    paper: Solve | None = None
    lp_bytes: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)  # traced run only
    trace: dict[str, Any] = field(default_factory=dict)  # traced run only


def _with_workers(mods: SimpleNamespace, text: str, k: int):
    instance = mods.domain.instance_from_json(text)
    return replace(instance, parameters=replace(instance.parameters, workers=k))


def solve_once(mods: SimpleNamespace, text: str, k: int, options) -> Solve:
    """Instance JSON -> matrix -> graph -> branch and bound -> checked answer."""
    begin = now()
    instance = _with_workers(mods, text, k)
    matrix = mods.distances.matrix_for_instance(instance)
    graph = mods.actiongraph.build_graph(instance, matrix)
    search_begin = now()
    result = mods.search.solve_branch_and_bound(instance, graph, options)
    search_s = now() - search_begin
    report = mods.validate.check_solution(instance, graph, result.solution)
    wall = now() - begin

    solution = result.solution
    problems = []
    if not report.passed:
        failed = sorted({row.family for row in report.failures()})
        problems.append(f"check_solution fails families {failed}")
    visited = mods.domain.served_count(solution)
    if solution.served_count != visited:
        problems.append(f"claims {solution.served_count} served but visits {visited}")
    if solution.served_count > result.best_bound:
        problems.append(f"served {solution.served_count} > best_bound {result.best_bound}")
    return Solve(
        wall_s=wall,
        search_s=search_s,
        served=solution.served_count,
        total=len(instance.requests),
        best_bound=int(result.best_bound),
        optimal=bool(result.optimal),
        nodes=int(result.nodes_explored),
        problems=problems,
    )


def default_options(mods: SimpleNamespace, wl: Workload):
    return mods.search.SolveOptions(time_limit_s=wl.time_limit_s, node_limit=wl.node_limit)


def solve_cells(
    mods: SimpleNamespace, wl: Workload, index: int, text: str, tracer: tracing.Tracer | None
) -> Iterator[Op]:
    """Every K of one instance, each under the default (and paper) configuration.

    Cross-cell checks: a proved count is at least every count found for the
    same or fewer workers, by either configuration.
    """
    default = default_options(mods, wl)
    paper = mods.search.SolveOptions(
        time_limit_s=wl.time_limit_s,
        use_upper_bound=True,
        use_warm_start=True,
        break_worker_symmetry=True,
    )
    found: list[tuple[int, int]] = []  # (K, served) of every solve so far
    for k in sorted(wl.workers):
        op = Op(index, k)
        if tracer is not None:
            tracer.reset()
        try:
            op.default = solve_once(mods, text, k, default)
            op.problems += op.default.problems
            if wl.paper:
                op.paper = solve_once(mods, text, k, paper)
                op.problems += [f"paper: {p}" for p in op.paper.problems]
            op.wall_s = (op.paper or op.default).wall_s
        except Exception:  # an operation that raises is a failed operation
            op.problems.append("raised:\n" + traceback.format_exc())
        if tracer is not None:
            op.layers, op.trace = layer_numbers(tracer), tracer.to_json()
        solves = [s for s in (op.default, op.paper) if s is not None]
        found += [(k, s.served) for s in solves]
        for s in solves:
            if not s.optimal:
                continue
            beaten = [served for kk, served in found if kk <= k and served > s.served]
            if beaten:
                op.problems.append(
                    f"proved {s.served} served with K={k}, but {max(beaten)} found with K<={k}"
                )
        yield op


def export_once(mods: SimpleNamespace, text: str, k: int) -> tuple[float, Any, str]:
    """Instance JSON -> matrix -> graph -> model -> LP text."""
    begin = now()
    instance = _with_workers(mods, text, k)
    matrix = mods.distances.matrix_for_instance(instance)
    graph = mods.actiongraph.build_graph(instance, matrix)
    model = mods.milp.build_milp(instance, graph)
    lp = mods.milp.export_lp(model)
    return now() - begin, model, lp


def check_export(mods: SimpleNamespace, model, lp: str) -> list[str]:
    """The LP text parses back to a model equivalent to the exported one."""
    try:
        if not mods.milp.models_equivalent(model, mods.milp.parse_lp(lp)):
            return ["parse_lp of the export differs from the model"]
    except ValueError as exc:
        return [f"parse_lp rejects the export: {exc}"]
    return []


def export_reference(mods: SimpleNamespace, text: str, k: int) -> tuple[str, list[str]]:
    """The run's first export of a cell, untimed, checked by the ``parse_lp`` round trip.

    It is also the warm-up: the process's first export pays for growing the
    heap, about a third of its time.
    """
    try:
        _, model, lp = export_once(mods, text, k)
        return lp, check_export(mods, model, lp)
    except Exception:
        return "", ["reference export raised:\n" + traceback.format_exc()]


def export_cells(
    mods: SimpleNamespace,
    wl: Workload,
    text: str,
    references: dict[int, tuple[str, list[str]]],
    tracer: tracing.Tracer | None,
) -> Iterator[Op]:
    """Export the run's instance over and over, each time from the instance JSON.

    Each export must be byte-identical to the reference export of its K
    (see ``export_reference``), so every operation is checked while the
    round trip, about twice an export's cost, stays out of the timed loop.
    """
    for k in itertools.cycle(wl.workers):
        reference, problems = references[k]
        op = Op(0, k, problems=list(problems))
        if tracer is not None:
            tracer.reset()
        try:
            op.wall_s, model, lp = export_once(mods, text, k)
            op.lp_bytes = len(lp)
            if tracer is not None:
                op.layers, op.trace = layer_numbers(tracer), tracer.to_json()
            if lp != reference:
                op.problems.append("export is not byte-identical to the checked reference export")
            del model, lp
        except Exception:
            op.problems.append("raised:\n" + traceback.format_exc())
        yield op


# ---------------------------------------------------------------------------
# Traced execution and per-layer numbers
# ---------------------------------------------------------------------------

SEARCH_SPANS = ("solve_branch_and_bound", "compute_upper_bound", "heuristic_sequential")


def _span_info(name: str):
    if name == "solve_branch_and_bound":
        return lambda r, instance, *a, **kw: {
            "nodes": r.nodes_explored,
            "limit": getattr(a[1] if len(a) > 1 else kw.get("options"), "time_limit_s", None),
        }
    if name == "compute_upper_bound":
        return lambda r, instance, *a, **kw: {"bound": r, "requests": len(instance.requests)}
    if name == "build_graph":
        return lambda r, *a, **kw: {"arcs": len(r.arcs)}
    if name == "check_solution":
        return lambda r, *a, **kw: {"rows": len(r.rows)}
    if name == "export_lp":
        return lambda r, *a, **kw: {"bytes": len(r)}
    return None


def make_wrapper(tracer: tracing.Tracer):
    def make(name: str, original):
        if name == "schedule_route":
            return tracer.leaf(name, original, ok=lambda r: r.feasible)
        if name == "request":
            return tracer.leaf("Instance.request", original)
        return tracer.span(name, original, _span_info(name))

    return make


def layer_numbers(tracer: tracing.Tracer) -> dict[str, float]:
    """Sums over one traced operation (ratios are formed over the whole run)."""
    spans = tracer.spans
    out: dict[str, float] = {}

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    def infos(name: str, key: str, roots_only: bool = False) -> list[Any]:
        """``info[key]`` of the named spans that returned (a raising call has none)."""
        return [
            s.info[key]
            for s in spans
            if s.name == name and key in s.info and (not roots_only or s.parent == tracing.ROOT)
        ]

    sched = tracer.leaf_total("schedule_route")
    out["scheduling.calls"] = sched.calls
    out["scheduling.busy_s"] = sched.busy_s
    out["scheduling.feasible"] = sched.ok
    out["domain.request_lookups"] = tracer.leaf_total("Instance.request").calls
    roots = [s for s in spans if s.name == "solve_branch_and_bound" and s.parent == tracing.ROOT]
    out["search.root_s"] = sum(s.duration for s in roots)
    out["search.nodes"] = sum(infos("solve_branch_and_bound", "nodes"))
    out["search.self_s"] = sum(tracer.self_time(i) for i, s in enumerate(spans) if s.name in SEARCH_SPANS)
    out["search.bound_s"] = total("compute_upper_bound")
    bounds = infos("compute_upper_bound", "bound")
    requests = infos("compute_upper_bound", "requests")
    out["search.bounds"] = len(bounds)
    out["search.bounds_trivial"] = sum(b >= n for b, n in zip(bounds, requests))
    out["search.warm_start_s"] = total("heuristic_sequential")
    out["search.overrun_s"] = sum(
        max(0.0, s.duration - s.info["limit"]) for s in roots if s.info.get("limit")
    )
    out["actiongraph.build_s"] = total("build_graph")
    graphs = infos("build_graph", "arcs", roots_only=True)
    out["actiongraph.graphs"] = len(graphs)
    out["actiongraph.arcs_sum"] = sum(graphs)
    out["milp.build_s"] = total("build_milp")
    out["milp.export_s"] = total("export_lp")
    exports = infos("export_lp", "bytes")
    out["milp.lp_bytes_sum"] = sum(exports)
    out["milp.exports"] = len(exports)
    out["distances.matrix_s"] = total("matrix_for_instance")
    out["validate.check_s"] = total("check_solution")
    checks = infos("check_solution", "rows")
    out["validate.checks"] = len(checks)
    out["validate.rows_sum"] = sum(checks)
    return out


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


@dataclass
class Run:
    workload: Workload
    seed: int
    first_setup_s: float  # includes importing numpy; reported, not gated
    setups: list[float]
    generate_s: list[float]
    ops: list[Op]
    untraced_twin_s: float = 0.0
    traced_s: float = 0.0


def instance_seed(seed: int, index: int) -> int:
    return seed * 100_000 + index


def generate(mods: SimpleNamespace, wl: Workload, seed: int, index: int) -> str:
    config = mods.bench.GeneratorConfig(request_total=wl.size, seed=instance_seed(seed, index))
    return mods.domain.instance_to_json(mods.bench.generate_instance(config))


def set_up(wl: Workload, seed: int) -> tuple[SimpleNamespace, str, float]:
    """Import the package afresh and generate the run's first instance."""
    mods = load_package()
    begin = now()
    text = generate(mods, wl, seed, 0)
    return mods, text, now() - begin


def _package_modules() -> dict[str, Any]:
    return {n: m for n, m in sys.modules.items() if n == "evrelocate" or n.startswith("evrelocate.")}


def time_set_up(wl: Workload, seed: int) -> float:
    """Time one set-up, then give ``sys.modules`` back the modules the run uses."""
    saved = _package_modules()
    gc.collect()
    begin = now()
    set_up(wl, seed)
    elapsed = now() - begin
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(saved)
    return elapsed


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> Run:
    begin = now()
    mods, text, generate_s = set_up(wl, seed)
    run = Run(wl, seed, now() - begin, [], [generate_s], [])
    run.setups += [time_set_up(wl, seed) for _ in range(SETUP_REPEATS)]

    if wl.export:
        # An export run repeats one instance, so a single round trip checks it.
        references = {k: export_reference(mods, text, k) for k in wl.workers}

        def cells(mods, wl, index, text, tracer):
            return export_cells(mods, wl, text, references, tracer)
    else:
        cells = solve_cells
        # Warm-up, discarded: not an operation.
        solve_once(mods, text, wl.workers[0], default_options(mods, wl))
    tracer = tracing.Tracer()

    def traced_next(ops: Iterator[Op]) -> Op | None:
        restore = tracing.install(TRACE_TARGETS, make_wrapper(tracer))
        try:
            return next(ops, None)
        finally:
            restore()

    start = now()
    index = 0
    while True:
        if index > 0:
            begin = now()
            text = generate(mods, wl, seed, index)
            run.generate_s.append(now() - begin)
        untraced = cells(mods, wl, index, text, None)
        traced = cells(mods, wl, index, text, tracer) if trace else None
        while True:
            gc.collect()  # start each operation without the previous one's garbage
            if traced is None:
                op = next(untraced, None)
                if op is None:
                    break
            else:
                # The untraced twin gives the overhead base; its outputs are
                # checked too.  Alternating which goes first spreads the cost
                # of a cold start.
                if len(run.ops) % 2 == 0:
                    twin, op = next(untraced, None), traced_next(traced)
                else:
                    op, twin = traced_next(traced), next(untraced, None)
                if op is None:
                    break
                op.problems += [f"untraced twin: {p}" for p in twin.problems]
                run.untraced_twin_s += twin.wall_s
                run.traced_s += op.wall_s
            run.ops.append(op)
            if now() - start >= seconds:
                return run
            due = int((now() - start) / SETUP_EVERY_S) - (len(run.setups) - SETUP_REPEATS)
            run.setups += [time_set_up(wl, seed) for _ in range(due)]
        index += 1


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def pct(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """The gated metrics (``BENCHMARK.json``), then the workload's own ones."""
    ops = run.ops
    out: dict[str, tuple[float, str]] = {
        "setup_s": (statistics.median(run.setups), "s"),
        "op_s.p50": (statistics.median(op.wall_s for op in ops), "s"),
        "first_setup_s": (run.first_setup_s, "s"),
        "op_s.p90": (pct([op.wall_s for op in ops], 90), "s"),
        "failed_frac": (sum(bool(op.problems) for op in ops) / len(ops), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for label, attr in (("solve_s", "default"), ("paper_solve_s", "paper")):
        solves = [getattr(op, attr) for op in ops if getattr(op, attr) is not None]
        if not solves:
            continue
        walls = [s.wall_s for s in solves]
        out[f"{label}.p50"] = (statistics.median(walls), "s")
        out[f"{label}.p90"] = (pct(walls, 90), "s")
        prefix = "" if attr == "default" else "paper_"
        out[f"{prefix}proven_frac"] = (sum(s.optimal for s in solves) / len(solves), "ratio")
        out[f"{prefix}served_pct"] = (
            100 * statistics.fmean(s.served / s.total for s in solves), "%"
        )
        out[f"{prefix}gap_pct"] = (
            100 * statistics.fmean(
                (s.best_bound - s.served) / s.best_bound if s.best_bound else 0.0 for s in solves
            ),
            "%",
        )
        if run.workload.time_limit_s:
            overrun = [s.search_s / run.workload.time_limit_s for s in solves]
            out[f"{prefix}budget_overrun.p50"] = (statistics.median(overrun), "x")
            out[f"{prefix}budget_overrun.max"] = (max(overrun), "x")
    exports = [op.wall_s for op in ops if op.lp_bytes]
    if exports:
        out["export_s.p50"] = (statistics.median(exports), "s")
    return out


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    ops = run.ops
    n = len(ops)

    def summed(key: str) -> float:
        return sum(op.layers.get(key, 0.0) for op in ops)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    calls = summed("scheduling.calls")
    busy = summed("scheduling.busy_s")
    out = {
        "scheduling.calls": (calls / n, "count/op"),
        "scheduling.busy_s": (busy / n, "s/op"),
        "scheduling.us_per_call": (1e6 * ratio(busy, calls), "us"),
        "scheduling.feasible_ratio": (ratio(summed("scheduling.feasible"), calls), "ratio"),
        "domain.request_lookups": (summed("domain.request_lookups") / n, "count/op"),
        "search.nodes": (summed("search.nodes") / n, "count/op"),
        "search.nodes_per_s": (ratio(summed("search.nodes"), summed("search.root_s")), "1/s"),
        "search.self_s": (summed("search.self_s") / n, "s/op"),
        "search.bound_s": (summed("search.bound_s") / n, "s/op"),
        "search.bound_trivial_frac": (
            ratio(summed("search.bounds_trivial"), summed("search.bounds")), "ratio"
        ),
        "search.warm_start_s": (summed("search.warm_start_s") / n, "s/op"),
        "search.overrun_s": (summed("search.overrun_s") / n, "s/op"),
        "actiongraph.build_s": (summed("actiongraph.build_s") / n, "s/op"),
        "actiongraph.arcs": (
            ratio(summed("actiongraph.arcs_sum"), summed("actiongraph.graphs")), "count"
        ),
        "milp.build_s": (summed("milp.build_s") / n, "s/op"),
        "milp.export_s": (summed("milp.export_s") / n, "s/op"),
        "milp.lp_bytes": (ratio(summed("milp.lp_bytes_sum"), summed("milp.exports")), "bytes"),
        "distances.matrix_s": (summed("distances.matrix_s") / n, "s/op"),
        "bench.generate_s": (statistics.median(run.generate_s), "s"),
        "validate.check_s": (summed("validate.check_s") / n, "s/op"),
        "validate.rows": (ratio(summed("validate.rows_sum"), summed("validate.checks")), "count"),
        "trace.overhead_pct": (100 * (ratio(run.traced_s, run.untraced_twin_s) - 1), "%"),
    }
    return out


def gated_names(kind: str) -> list[str]:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def report(run: Run, env: dict[str, Any], metrics: dict[str, tuple[float, str]], trace: bool) -> None:
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"ops {len(run.ops)} over {len({op.instance for op in run.ops})} instances, "
          f"{len(run.setups)} set-ups")
    for op in run.ops:
        parts = [f"instance {op.instance} K={op.workers} op {op.wall_s:.4f}s"]
        for label, s in (("default", op.default), ("paper", op.paper)):
            if s is not None:
                parts.append(
                    f"{label} {s.wall_s:.4f}s served {s.served}/{s.total} "
                    f"bound {s.best_bound} {'proved' if s.optimal else 'open'} nodes {s.nodes}"
                )
        if op.lp_bytes:
            parts.append(f"LP {op.lp_bytes} bytes")
        print("  " + " | ".join(parts))
        for problem in op.problems:
            print(f"  FAILED: {problem}", file=sys.stderr)
    kind = "per_layer" if trace else "end_to_end"
    for name, (value, unit) in metrics.items():
        print(f"{kind} {name} {value:.6g} {unit}")
    if trace:
        solve_s = sum(op.layers.get("search.root_s", 0.0) for op in run.ops)
        if solve_s:
            accounted = sum(
                op.layers.get("search.self_s", 0.0) + op.layers.get("scheduling.busy_s", 0.0)
                for op in run.ops
            )
            print(f"note search.self_s + scheduling.busy_s = {100 * accounted / solve_s:.2f}% "
                  f"of traced search time {solve_s:.4f}s")


def write_trace(run: Run, env: dict[str, Any]) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{run.workload.name}-seed{run.seed}.json"
    path.write_text(json.dumps({"env": env, "ops": [
        {"instance": op.instance, "workers": op.workers, **op.trace} for op in run.ops
    ]}) + "\n")
    return path


def main(argv: list[str] | None = None, workloads: dict[str, Workload] = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        run = run_workload(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
        names = gated_names("per_layer" if args.trace else "end_to_end")
    except (SetupError, tracing.TraceTargetMissing, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed)
    if args.trace:
        metrics = per_layer(run)
        print(f"trace written to {write_trace(run, env)}")
    else:
        metrics = end_to_end(run)
    report(run, env, metrics, bool(args.trace))
    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"error: metrics {missing} of BENCHMARK.json were not measured", file=sys.stderr)
        return 2
    failed = sum(bool(op.problems) for op in run.ops)
    result = {
        "correct": failed == 0,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
