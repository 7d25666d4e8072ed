"""Mixed-integer model of the relocation problem, with LP-format export.

The model uses binary routing variables ``x_<i>_<j>_<k>`` (worker k travels
arc i->j) and continuous visit times ``t_<i>_<k>``, maximizing the number
of served requests (arcs leaving a request node).  Constraint rows are
tagged by family id:

* 2   at most one depot departure per worker
* 3   each request served at most once
* 4   flow conservation per node and worker
* 5   time propagation along arcs not entering the depot, per-arc big-M
* 6   route duration within the shift limit, per-delivery big-M
* 7   pickup earliest times
* 8   delivery deadlines
* 9   drive distance within linearly charged range
* 10  handover charge recharges to the requirement by the deadline
* 11  the same bound from a full battery (big-M = required charge + 1)
* 14  optional symmetry breaking: workers ordered by route cost
* 15  optional global cap on served requests

The big-M values of families 5 and 6 come from per-node time windows
[e_i, l_i] (see :func:`time_windows`) that contain every visit time any
schedulable route can give node i, with T the shift limit and c_ij the
operational time of arc i->j:

* family 5 on arc (i, j): ``t_i - t_j + (c_ij + M_ij) x_ijk <= M_ij`` with
  ``M_ij = max(0, l_i + c_ij - e_j)``;
* family 6 on arc (d, 0): ``t_d - t_0 + (c_d0 + M_d) x_d0k <= T + M_d`` with
  ``M_d = max(0, tau_d - T)``.

With x = 1 these are the plain timing rows; with x = 0 they hold for any
times inside the windows.  So every route set that the scheduler accepts
satisfies every row once the nodes a worker does not visit take their
earliest time e_i and an idle worker's depot time is 0
(:func:`solution_to_assignment`): the model is a relaxation of the
problem, and its LP relaxation bounds the served count from above.

Binary domains and nonnegativity are the variable sections of the export.
Variable and row ordering is fixed (family id, node id order, worker), so
re-exporting the same model is byte-identical, and the bundled reader
parses the emitted format back for round-trip checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .actiongraph import ActionGraph, Arc, ArcKind
from .domain import DEPOT_NODE, Instance, RequestKind, Route, Solution

_TOL_BY_FAMILY = {
    2: 1e-9,
    3: 1e-9,
    4: 1e-9,
    5: 1e-6,
    6: 1e-6,
    7: 1e-6,
    8: 1e-6,
    9: 1e-6,
    10: 1e-9,
    11: 1e-9,
    14: 1e-6,
    15: 1e-9,
}


@dataclass(frozen=True)
class ModelOptions:
    """Optional strengthening rows."""

    symmetry_breaking: bool = False
    upper_bound_cut: int | None = None

    def __post_init__(self) -> None:
        if self.upper_bound_cut is not None and self.upper_bound_cut < 0:
            raise ValueError("upper_bound_cut must be nonnegative")


@dataclass(frozen=True)
class LinearRow:
    name: str
    family: int
    coeffs: dict[str, float]
    sense: str  # "<=", ">=" or "="
    rhs: float


@dataclass(frozen=True)
class MilpModel:
    """Abstract model: maximize ``objective`` subject to ``rows``."""

    objective: dict[str, float]
    rows: tuple[LinearRow, ...]
    binaries: tuple[str, ...]
    continuous: tuple[str, ...]
    x_names: dict[tuple[str, str, int], str]
    t_names: dict[tuple[str, int], str]
    workers: int

    def family_rows(self, family: int) -> tuple[LinearRow, ...]:
        return tuple(r for r in self.rows if r.family == family)

    def variable_count(self) -> int:
        return len(self.binaries) + len(self.continuous)


@dataclass(frozen=True)
class MatrixForm:
    """A model as arrays; columns are ``binaries + continuous`` in model order.

    Maximize ``objective @ v`` subject to ``a_ub @ v <= b_ub``,
    ``a_eq @ v == b_eq`` and ``0 <= v <= upper`` (1 for binaries, ``inf``
    for visit times); ``>=`` rows are negated into ``a_ub``.
    """

    objective: np.ndarray
    a_ub: csr_matrix
    b_ub: np.ndarray
    a_eq: csr_matrix
    b_eq: np.ndarray
    upper: np.ndarray


def matrix_form(model: MilpModel) -> MatrixForm:
    """Sparse-matrix form of ``model`` for array-based solvers."""
    variables = model.binaries + model.continuous
    column = {name: i for i, name in enumerate(variables)}
    objective = np.zeros(len(variables))
    for name, coef in model.objective.items():
        objective[column[name]] = coef
    # (data, row index, column index, rhs) of the inequality and equality blocks
    blocks = {"ub": ([], [], [], []), "eq": ([], [], [], [])}
    for row in model.rows:
        data, rows, cols, rhs = blocks["eq" if row.sense == "=" else "ub"]
        sign = -1.0 if row.sense == ">=" else 1.0
        for name, coef in row.coeffs.items():
            data.append(sign * coef)
            rows.append(len(rhs))
            cols.append(column[name])
        rhs.append(sign * row.rhs)

    def stack(data: list, rows: list, cols: list, rhs: list) -> tuple[csr_matrix, np.ndarray]:
        matrix = csr_matrix((data, (rows, cols)), shape=(len(rhs), len(variables)))
        return matrix, np.array(rhs, dtype=float)

    a_ub, b_ub = stack(*blocks["ub"])
    a_eq, b_eq = stack(*blocks["eq"])
    upper = np.array([1.0] * len(model.binaries) + [np.inf] * len(model.continuous))
    return MatrixForm(objective, a_ub, b_ub, a_eq, b_eq, upper)


def time_windows(instance: Instance, graph: ActionGraph) -> dict[str, tuple[float, float]]:
    """Earliest and latest visit time ``(e_i, l_i)`` of every graph node.

    A pickup is served no earlier than tau_p and, being followed by an EV
    arc (p, d), no later than tau_d - c_pd; a delivery no later than tau_d
    and no earlier than tau_p + c_pd.  The depot time is a departure, at or
    after 0 and no later than l_p - c_0p for the first pickup.
    """
    windows = {r.id: (r.time_min, r.time_min) for r in instance.requests}
    for arc in graph.arcs:
        if arc.kind is ArcKind.EV:
            p, d, c = arc.from_node, arc.to_node, arc.op_time_min
            tau_p, tau_d = instance.request(p).time_min, instance.request(d).time_min
            windows[p] = (windows[p][0], max(windows[p][1], tau_d - c))
            windows[d] = (min(windows[d][0], tau_p + c), windows[d][1])
    latest_departure = max(
        [0.0] + [windows[a.to_node][1] - a.op_time_min for a in graph.out_arcs[DEPOT_NODE]]
    )
    windows[DEPOT_NODE] = (0.0, latest_departure)
    return windows


def _safe_names(ids: list[str]) -> dict[str, str]:
    """Deterministic LP-safe renaming, unique per input order."""
    out: dict[str, str] = {}
    taken: set[str] = set()
    for raw in ids:
        base = re.sub(r"[^A-Za-z0-9]", "_", raw) or "n"
        name = base
        suffix = 2
        while name in taken:
            name = f"{base}_{suffix}"
            suffix += 1
        taken.add(name)
        out[raw] = name
    return out


def build_milp(
    instance: Instance,
    graph: ActionGraph,
    options: ModelOptions | None = None,
) -> MilpModel:
    """Instantiate every constraint family for the instance's K workers."""
    options = options or ModelOptions()
    params = instance.parameters
    k_total = params.workers

    horizon = params.shift_limit_min
    gamma = params.recharge_time_min
    cap_km = params.max_range_km

    node_order = [DEPOT_NODE] + sorted(r.id for r in instance.requests)
    node_pos = {n: i for i, n in enumerate(node_order)}
    names = _safe_names(node_order)
    arcs = sorted(graph.arcs, key=lambda a: (node_pos[a.from_node], node_pos[a.to_node]))

    x_names: dict[tuple[str, str, int], str] = {}
    t_names: dict[tuple[str, int], str] = {}
    binaries: list[str] = []
    continuous: list[str] = []
    for arc in arcs:
        for k in range(1, k_total + 1):
            name = f"x_{names[arc.from_node]}_{names[arc.to_node]}_{k}"
            x_names[(arc.from_node, arc.to_node, k)] = name
            binaries.append(name)
    for node in node_order:
        for k in range(1, k_total + 1):
            name = f"t_{names[node]}_{k}"
            t_names[(node, k)] = name
            continuous.append(name)

    objective = {
        x_names[(a.from_node, a.to_node, k)]: 1.0
        for a in arcs
        if a.from_node != DEPOT_NODE
        for k in range(1, k_total + 1)
    }

    out_arcs: dict[str, list[Arc]] = {n: [] for n in node_order}
    in_arcs: dict[str, list[Arc]] = {n: [] for n in node_order}
    for arc in arcs:
        out_arcs[arc.from_node].append(arc)
        in_arcs[arc.to_node].append(arc)

    rows: list[LinearRow] = []

    for k in range(1, k_total + 1):
        coeffs = {x_names[(a.from_node, a.to_node, k)]: 1.0 for a in out_arcs[DEPOT_NODE]}
        rows.append(LinearRow(f"f2_k{k}", 2, coeffs, "<=", 1.0))

    for node in node_order[1:]:
        coeffs = {
            x_names[(a.from_node, a.to_node, k)]: 1.0
            for k in range(1, k_total + 1)
            for a in out_arcs[node]
        }
        rows.append(LinearRow(f"f3_{names[node]}", 3, coeffs, "<=", 1.0))

    for node in node_order:
        for k in range(1, k_total + 1):
            coeffs: dict[str, float] = {}
            for a in out_arcs[node]:
                coeffs[x_names[(a.from_node, a.to_node, k)]] = 1.0
            for a in in_arcs[node]:
                coeffs[x_names[(a.from_node, a.to_node, k)]] = (
                    coeffs.get(x_names[(a.from_node, a.to_node, k)], 0.0) - 1.0
                )
            rows.append(LinearRow(f"f4_{names[node]}_k{k}", 4, coeffs, "=", 0.0))

    windows = time_windows(instance, graph)
    for arc in arcs:
        if arc.to_node == DEPOT_NODE:
            continue
        big_m = max(0.0, windows[arc.from_node][1] + arc.op_time_min - windows[arc.to_node][0])
        for k in range(1, k_total + 1):
            coeffs = {
                t_names[(arc.from_node, k)]: 1.0,
                t_names[(arc.to_node, k)]: -1.0,
                x_names[(arc.from_node, arc.to_node, k)]: arc.op_time_min + big_m,
            }
            rows.append(
                LinearRow(
                    f"f5_{names[arc.from_node]}_{names[arc.to_node]}_k{k}",
                    5,
                    coeffs,
                    "<=",
                    big_m,
                )
            )

    for arc in in_arcs[DEPOT_NODE]:
        big_m = max(0.0, instance.request(arc.from_node).time_min - horizon)
        for k in range(1, k_total + 1):
            coeffs = {
                t_names[(arc.from_node, k)]: 1.0,
                x_names[(arc.from_node, DEPOT_NODE, k)]: arc.op_time_min + big_m,
                t_names[(DEPOT_NODE, k)]: -1.0,
            }
            rows.append(
                LinearRow(f"f6_{names[arc.from_node]}_k{k}", 6, coeffs, "<=", horizon + big_m)
            )

    requests = [instance.request(node) for node in node_order[1:]]
    for req in requests:
        if req.kind is not RequestKind.PICKUP:
            continue
        for k in range(1, k_total + 1):
            rows.append(
                LinearRow(
                    f"f7_{names[req.id]}_k{k}", 7, {t_names[(req.id, k)]: 1.0}, ">=", req.time_min
                )
            )
    for req in requests:
        if req.kind is not RequestKind.DELIVERY:
            continue
        for k in range(1, k_total + 1):
            rows.append(
                LinearRow(
                    f"f8_{names[req.id]}_k{k}", 8, {t_names[(req.id, k)]: 1.0}, "<=", req.time_min
                )
            )

    ev_arcs = [a for a in arcs if a.kind is ArcKind.EV]
    for arc in ev_arcs:
        p = instance.request(arc.from_node)
        d = instance.request(arc.to_node)
        tag = f"{names[arc.from_node]}_{names[arc.to_node]}"
        for k in range(1, k_total + 1):
            x_var = x_names[(arc.from_node, arc.to_node, k)]
            # (9): d*x <= L*rho_p + (L/Gamma)*(t_p - tau_p)
            rows.append(
                LinearRow(
                    f"f9_{tag}_k{k}",
                    9,
                    {x_var: arc.distance_km, t_names[(p.id, k)]: -cap_km / gamma},
                    "<=",
                    cap_km * p.charge - cap_km * p.time_min / gamma,
                )
            )
            # (10): charge at pickup minus consumption covers the delivery
            # requirement backdated from its deadline, big-M (rho_d + 1)
            rows.append(
                LinearRow(
                    f"f10_{tag}_k{k}",
                    10,
                    {
                        t_names[(p.id, k)]: 1.0 / gamma,
                        t_names[(d.id, k)]: -1.0 / gamma,
                        x_var: -(arc.distance_km / cap_km + d.charge + 1.0),
                    },
                    ">=",
                    p.time_min / gamma - d.time_min / gamma - p.charge - 1.0,
                )
            )
            # (11): the same with a full battery at the pickup
            rows.append(
                LinearRow(
                    f"f11_{tag}_k{k}",
                    11,
                    {
                        t_names[(d.id, k)]: -1.0 / gamma,
                        x_var: -(arc.distance_km / cap_km + d.charge + 1.0),
                    },
                    ">=",
                    -2.0 - d.time_min / gamma,
                )
            )

    if options.symmetry_breaking:
        for k1 in range(1, k_total + 1):
            for k2 in range(k1 + 1, k_total + 1):
                coeffs = {}
                for a in arcs:
                    if a.from_node == DEPOT_NODE:
                        continue
                    coeffs[x_names[(a.from_node, a.to_node, k1)]] = a.op_time_min
                    coeffs[x_names[(a.from_node, a.to_node, k2)]] = -a.op_time_min
                rows.append(LinearRow(f"f14_k{k1}_k{k2}", 14, coeffs, ">=", 0.0))

    if options.upper_bound_cut is not None:
        coeffs = {
            x_names[(a.from_node, a.to_node, k)]: 1.0
            for a in arcs
            if a.from_node != DEPOT_NODE
            for k in range(1, k_total + 1)
        }
        rows.append(LinearRow("f15", 15, coeffs, "<=", float(options.upper_bound_cut)))

    return MilpModel(
        objective=objective,
        rows=tuple(rows),
        binaries=tuple(binaries),
        continuous=tuple(continuous),
        x_names=x_names,
        t_names=t_names,
        workers=k_total,
    )


# ---------------------------------------------------------------------------
# LP-format text export and reader
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    # repr is the shortest exact decimal form: byte-stable and lossless
    return repr(float(value))


def _expr(coeffs: dict[str, float], order: dict[str, int]) -> str:
    parts = []
    for var in sorted(coeffs, key=order.__getitem__):
        coef = coeffs[var]
        if coef == 0.0:
            continue
        sign = "+" if coef >= 0 else "-"
        parts.append(f"{sign}{_fmt(abs(coef))} {var}")
    return " ".join(parts) if parts else "+0 " + next(iter(order))


def export_lp(model: MilpModel) -> str:
    """Serialize to LP text; identical models export byte-identically."""
    order = {name: i for i, name in enumerate(list(model.binaries) + list(model.continuous))}
    lines = ["\\ relocation model export", "Maximize"]
    lines.append(f" obj: {_expr(model.objective, order)}")
    lines.append("Subject To")
    for row in model.rows:
        lines.append(f" {row.name}: {_expr(row.coeffs, order)} {row.sense} {_fmt(row.rhs)}")
    lines.append("Bounds")
    for var in model.continuous:
        lines.append(f" {var} >= 0")
    lines.append("Binaries")
    for var in model.binaries:
        lines.append(f" {var}")
    lines.append("End")
    return "\n".join(lines) + "\n"


_TERM_RE = re.compile(r"([+-])\s*(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s+([A-Za-z0-9_]+)")
_ROW_RE = re.compile(r"^\s*([A-Za-z0-9_]+):\s*(.*?)\s*(<=|>=|=)\s*([+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*$")


def parse_lp(text: str) -> MilpModel:
    """Parse text in the exported LP dialect back into a model.

    Family ids are recovered from the ``f<N>_`` row-name prefix.
    """
    section = None
    objective: dict[str, float] = {}
    rows: list[LinearRow] = []
    continuous: list[str] = []
    binaries: list[str] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("\\"):
            continue
        lowered = line.lower()
        if lowered in ("maximize", "subject to", "bounds", "binaries", "end"):
            section = lowered
            continue
        if section == "maximize":
            body = line.split(":", 1)[1] if ":" in line else line
            for sign, coef, var in _TERM_RE.findall(" " + body):
                objective[var] = objective.get(var, 0.0) + float(sign + coef)
        elif section == "subject to":
            match = _ROW_RE.match(line)
            if not match:
                raise ValueError(f"unparseable constraint line: {line!r}")
            name, body, sense, rhs = match.groups()
            coeffs: dict[str, float] = {}
            for sign, coef, var in _TERM_RE.findall(" " + body):
                coeffs[var] = coeffs.get(var, 0.0) + float(sign + coef)
            family_match = re.match(r"f(\d+)", name)
            family = int(family_match.group(1)) if family_match else 0
            rows.append(LinearRow(name, family, coeffs, sense, float(rhs)))
        elif section == "bounds":
            var = line.split(">=")[0].strip()
            continuous.append(var)
        elif section == "binaries":
            binaries.extend(line.split())
    return MilpModel(
        objective=objective,
        rows=tuple(rows),
        binaries=tuple(binaries),
        continuous=tuple(continuous),
        x_names={},
        t_names={},
        workers=0,
    )


def models_equivalent(a: MilpModel, b: MilpModel) -> bool:
    """Same objective, rows (by name) and variable sections, up to float repr."""

    def canon(coeffs: dict[str, float]) -> tuple:
        return tuple(sorted((k, round(v, 9)) for k, v in coeffs.items() if v != 0.0))

    if canon(a.objective) != canon(b.objective):
        return False
    rows_a = {r.name: r for r in a.rows}
    rows_b = {r.name: r for r in b.rows}
    if set(rows_a) != set(rows_b):
        return False
    for name, row in rows_a.items():
        other = rows_b[name]
        if row.sense != other.sense or round(row.rhs - other.rhs, 9) != 0.0:
            return False
        if canon(row.coeffs) != canon(other.coeffs):
            return False
    return set(a.binaries) == set(b.binaries) and set(a.continuous) == set(b.continuous)


# ---------------------------------------------------------------------------
# Assignments: solver values <-> Solution objects
# ---------------------------------------------------------------------------


def read_solution_values(text: str) -> dict[str, float]:
    """Parse ``name value`` lines (one variable per line, # comments)."""
    values: dict[str, float] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'name value', got {line!r}")
        values[parts[0]] = float(parts[1])
    return values


def values_to_assignment(
    model: MilpModel, values: dict[str, float]
) -> tuple[dict[tuple[str, str, int], float], dict[tuple[str, int], float]]:
    """Map name-keyed values back to (i, j, k) / (i, k) keyed dictionaries."""
    x_vals = {key: values.get(name, 0.0) for key, name in model.x_names.items()}
    t_vals = {key: values.get(name, 0.0) for key, name in model.t_names.items()}
    return x_vals, t_vals


def assignment_to_solution(
    instance: Instance,
    graph: ActionGraph,
    x_values: dict[tuple[str, str, int], float],
    t_values: dict[tuple[str, int], float],
) -> Solution:
    """Trace per-worker depot cycles out of a binary arc assignment.

    Raises ``ValueError`` for non-binary values, broken flow, cycles that
    do not pass through the depot, or a used arc of a worker outside the
    instance's 1..K.
    """
    k_total = instance.parameters.workers
    tol = 1e-6  # distance of a binary value from 0 or 1
    outside = sorted(
        key for key, value in x_values.items() if value >= tol and not 1 <= key[2] <= k_total
    )
    if outside:
        raise ValueError(f"arcs {outside} belong to workers outside 1..{k_total}")
    routes: list[Route] = []
    for k in range(1, k_total + 1):
        succ: dict[str, str] = {}
        for (i, j, kk), value in x_values.items():
            if kk != k:
                continue
            if value < tol:
                continue
            if abs(value - 1.0) > tol:
                raise ValueError(f"x[{i},{j},{k}] = {value} is not binary within tolerance")
            if i in succ:
                raise ValueError(f"node {i!r} has two outgoing arcs for worker {k}")
            succ[i] = j
        if not succ:
            continue
        if DEPOT_NODE not in succ:
            raise ValueError(
                f"worker {k} uses arcs {sorted(succ.items())} forming a cycle "
                "that does not pass through the depot"
            )
        visits: list[tuple[str, float]] = []
        node = succ.pop(DEPOT_NODE)
        while node != DEPOT_NODE:
            if (node, k) not in t_values:
                raise ValueError(f"missing visit time t[{node},{k}]")
            visits.append((node, t_values[(node, k)]))
            if node not in succ:
                raise ValueError(f"flow conservation violated at {node!r} for worker {k}")
            node = succ.pop(node)
        if succ:
            raise ValueError(
                f"worker {k} has isolated cycle through {sorted(succ)} "
                "not connected to the depot"
            )
        last = visits[-1][0]
        return_arc = graph.arc(last, DEPOT_NODE)
        if return_arc is None:
            raise ValueError(f"no return arc {last!r} -> depot in graph")
        routes.append(
            Route(
                worker_index=k - 1,
                visits=tuple(visits),
                depot_departure_min=t_values.get((DEPOT_NODE, k), 0.0),
                depot_return_min=visits[-1][1] + return_arc.op_time_min,
            )
        )
    return Solution.from_routes(routes)


def solution_to_assignment(
    instance: Instance,
    graph: ActionGraph,
    solution: Solution,
) -> tuple[dict[tuple[str, str, int], float], dict[tuple[str, int], float]]:
    """Expand a Solution into model variable values ``(x, t)``.

    A node a worker does not visit takes the earliest time of its window,
    so an idle worker's depot time is 0.  For routes the scheduler accepts
    this satisfies every row of :func:`build_milp` (see the module notes).
    """
    k_total = instance.parameters.workers
    windows = time_windows(instance, graph)
    x_vals: dict[tuple[str, str, int], float] = {}
    t_vals = {
        (node, k): early for k in range(1, k_total + 1) for node, (early, _) in windows.items()
    }
    for route in solution.routes:
        k = route.worker_index + 1
        seq = [DEPOT_NODE] + [rid for rid, _ in route.visits] + [DEPOT_NODE]
        for a, b in zip(seq, seq[1:]):
            x_vals[(a, b, k)] = 1.0
        t_vals[(DEPOT_NODE, k)] = route.depot_departure_min
        t_vals.update(((rid, k), t) for rid, t in route.visits)
    return x_vals, t_vals


def assignment_to_values(
    model: MilpModel,
    x_values: dict[tuple[str, str, int], float],
    t_values: dict[tuple[str, int], float],
) -> dict[str, float]:
    """Name-keyed variable values for row evaluation (absent x means 0)."""
    values = {name: 0.0 for name in model.binaries}
    for key, value in x_values.items():
        if key in model.x_names:
            values[model.x_names[key]] = value
        elif value >= 0.5:
            raise ValueError(f"assignment uses arc {key} absent from the model")
    for key, value in t_values.items():
        values[model.t_names[key]] = value
    return values


def evaluate_assignment(
    model: MilpModel, values: dict[str, float]
) -> list[tuple[LinearRow, bool, float]]:
    """Evaluate each row; slack is the satisfied margin (negative = violated)."""
    results = []
    for row in model.rows:
        lhs = sum(coef * values.get(var, 0.0) for var, coef in row.coeffs.items())
        tol = _TOL_BY_FAMILY.get(row.family, 1e-9)
        if row.sense == "<=":
            slack = row.rhs - lhs
            ok = slack >= -tol
        elif row.sense == ">=":
            slack = lhs - row.rhs
            ok = slack >= -tol
        else:
            slack = -abs(lhs - row.rhs)
            ok = slack >= -tol
        results.append((row, ok, slack))
    return results


def route_operational_cost(graph: ActionGraph, route: Route) -> float:
    """Total arc cost of a route, excluding the depot-outgoing arc."""
    seq = [DEPOT_NODE] + [rid for rid, _ in route.visits] + [DEPOT_NODE]
    total = 0.0
    for a, b in zip(seq, seq[1:]):
        if a == DEPOT_NODE:
            continue
        arc = graph.arc(a, b)
        if arc is None:
            raise ValueError(f"route uses arc {a!r}->{b!r} absent from the graph")
        total += arc.op_time_min
    return total
