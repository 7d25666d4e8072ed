"""Solver toolkit for relocating shared electric vehicles.

Workers on folding bicycles move low-charge EVs from pickup stations to
delivery stations; the package builds the action graph of feasible worker
moves, schedules and validates routes against time and battery-charge
constraints, solves the served-requests maximization exactly, and exports
the underlying mixed-integer model in LP format.
"""

from .actiongraph import ActionGraph, Arc, ArcKind, arc_count_bound_check, build_graph, to_dot
from .bench import (
    DEFAULT_PARAMETERS,
    DEFAULT_STATIONS,
    ExperimentRecord,
    GeneratorConfig,
    emit_report,
    generate_instance,
    parse_report_csv,
    run_experiment,
)
from .distances import (
    DistanceMatrix,
    RoadNetwork,
    euclidean_matrix,
    load_road_network,
    matrix_for_instance,
    matrix_from_json,
    matrix_to_json,
    shortest_path_matrix,
)
from .domain import (
    DEPOT_NODE,
    Instance,
    Location,
    Parameters,
    Request,
    RequestKind,
    Route,
    Solution,
    instance_from_json,
    instance_to_json,
    minutes_of,
    served_count,
    solution_from_json,
    solution_to_json,
)
from .milp import (
    LinearRow,
    MatrixForm,
    MilpModel,
    ModelOptions,
    assignment_to_solution,
    assignment_to_values,
    build_milp,
    evaluate_assignment,
    export_lp,
    matrix_form,
    models_equivalent,
    parse_lp,
    read_solution_values,
    route_operational_cost,
    solution_to_assignment,
    time_windows,
    values_to_assignment,
)
from .scheduling import ScheduleResult, schedule_route
from .search import (
    SolveOptions,
    SolveResult,
    brute_force,
    compute_upper_bound,
    heuristic_sequential,
    solve_branch_and_bound,
)
from .validate import FAMILY_LABELS, RowResult, ValidationReport, check_solution

__version__ = "0.1.0"
