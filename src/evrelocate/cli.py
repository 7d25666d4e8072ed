"""Command-line interface: generate, solve, export-lp, check, bench.

Exit status 0 on success, 2 on parse errors or failed feasibility checks.
``--workers`` on ``solve`` and ``export-lp`` sets K on the loaded instance,
and files an instance names (road-network CSVs) resolve against the
instance file's directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import bench as bench_mod
from .actiongraph import ActionGraph, build_graph
from .distances import load_nodes, matrix_for_instance
from .domain import (
    Instance,
    Location,
    instance_from_json,
    instance_to_json,
    solution_from_json,
    solution_to_json,
)
from .milp import ModelOptions, build_milp, export_lp
from .search import SolveOptions, heuristic_sequential, solve_branch_and_bound
from .validate import check_solution


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _load(args: argparse.Namespace) -> tuple[Instance, ActionGraph]:
    """The ``--instance`` file, with ``--workers`` as its K where given, and its graph."""
    with open(args.instance) as handle:
        instance = instance_from_json(handle.read())
    workers = getattr(args, "workers", None)  # check has no --workers
    if workers is not None:
        instance = replace(instance, parameters=replace(instance.parameters, workers=workers))
    matrix = matrix_for_instance(instance, base_dir=os.path.dirname(args.instance))
    return instance, build_graph(instance, matrix)


def _load_stations(path: str) -> tuple[tuple[Location, ...], Location | None]:
    with open(path, newline="") as handle:
        locations = [Location(i, coordinates=xy) for i, xy in load_nodes(handle).items()]
    depot = next((loc for loc in locations if loc.id == "depot"), None)
    return tuple(loc for loc in locations if loc.id != "depot"), depot


def _cmd_generate(args: argparse.Namespace) -> int:
    kwargs = {"request_total": args.size, "seed": args.seed}
    if args.stations_file:
        stations, depot = _load_stations(args.stations_file)
        kwargs["stations"] = stations
        if depot is not None:
            kwargs["depot"] = depot
    config = bench_mod.GeneratorConfig(**kwargs)
    if args.workers is not None:
        config = replace(
            config, parameters=replace(config.parameters, workers=args.workers)
        )
    instance = bench_mod.generate_instance(config)
    _write(args.out, instance_to_json(instance))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    instance, graph = _load(args)
    if args.heuristic:
        solution = heuristic_sequential(
            instance, graph, time_limit_s=args.time_limit, node_limit=args.node_limit
        )
        note = "heuristic"
    else:
        options = SolveOptions(node_limit=args.node_limit, time_limit_s=args.time_limit)
        result = solve_branch_and_bound(instance, graph, options)
        solution = result.solution
        note = f"optimal={result.optimal} bound={result.best_bound} nodes={result.nodes_explored}"

    total = len(instance.requests)
    pct = 100.0 * solution.served_count / total if total else 0.0
    print(
        f"served {solution.served_count}/{total} requests ({pct:.0f}%), "
        f"{len(solution.routes)} routes [{note}]"
    )
    _write(args.out, solution_to_json(solution))
    report = check_solution(instance, graph, solution)
    if not report.passed:
        print("internal error: produced solution fails validation", file=sys.stderr)
        return 2
    return 0


def _cmd_export_lp(args: argparse.Namespace) -> int:
    instance, graph = _load(args)
    options = ModelOptions(
        symmetry_breaking=args.symmetry_breaking, upper_bound_cut=args.upper_bound
    )
    model = build_milp(instance, graph, options)
    _write(args.out, export_lp(model))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    instance, graph = _load(args)
    with open(args.solution) as handle:
        solution = solution_from_json(handle.read())
    report = check_solution(instance, graph, solution)
    failures = report.failures()
    print(f"{len(report.rows)} constraint rows checked, {len(failures)} violated")
    for row in failures:
        print(f"  family {row.family}: {row.row} (slack {row.slack:.6g})")
    if args.report:
        _write(args.report, report.to_json())
    return 0 if report.passed else 2


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    k_values = [int(s) for s in args.workers.split(",")]
    named = []
    for size in sizes:
        for seed in seeds:
            config = bench_mod.GeneratorConfig(request_total=size, seed=seed)
            named.append((f"ev{size}_{seed}", bench_mod.generate_instance(config)))
    records = bench_mod.run_experiment(named, k_values, time_limit_s=args.time_limit)
    _write(args.out, bench_mod.emit_report(records, args.report_format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evrelocate",
        description="Relocate shared electric vehicles: generate, solve, export, check, bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random instance JSON")
    p.add_argument("--size", type=int, default=10, help="total number of requests (even)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.add_argument("--stations-file", help="CSV id,x,y; row with id 'depot' sets the depot")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="solve an instance: the best packing of single-worker routes")
    p.add_argument("--instance", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--heuristic", action="store_true", help="sequential heuristic, not exact")
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument(
        "--node-limit", type=int, default=None,
        help="prefixes the single-worker searches may enter past the route cap",
    )
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("export-lp", help="write the model in LP format")
    p.add_argument("--instance", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--symmetry-breaking", action="store_true")
    p.add_argument("--upper-bound", type=int, default=None, help="add a served-count cap row")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_export_lp)

    p = sub.add_parser("check", help="validate a solution file against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--report", default=None, help="optional JSON report path")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bench", help="run the benchmark pipeline")
    p.add_argument("--sizes", default="10,20", help="comma-separated request totals")
    p.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seeds")
    p.add_argument("--workers", default="1,2,3", help="comma-separated K values")
    p.add_argument("--report-format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--time-limit", type=float, default=8.0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
