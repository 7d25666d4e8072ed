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
[e_i, l_i] (see :func:`_window_arrays`) that contain every visit time any
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
(:func:`solution_to_values`): the model is a relaxation of the
problem, and its LP relaxation bounds the served count from above.

Layout.  A :class:`MilpModel` is arrays: one sparse row-by-column matrix,
the objective vector, and per row its name, family, sense and right-hand
side.  Nodes and arcs take the action graph's canonical order
(:mod:`evrelocate.actiongraph`): the depot first, then by request id, and
arcs by (from node, to node) in that order, so the model reads the graph's
arrays as they are, node times, charges and kinds included, and keeps no
copy of them.  With A arcs and K workers, the column of ``x`` on arc a
for worker k is ``a*K + k - 1`` (all binaries come first) and the column
of ``t`` at node n is ``(A + n)*K + k - 1``.  Rows come family by family
in the order above: family 2 per worker, 3 per request, 4 per (node,
worker), 5 per (arc not entering the depot, worker), 6 per (arc entering
the depot, worker), 7 per (pickup, worker), 8 per (delivery, worker),
then 9, 10 and 11 interleaved per (EV arc, worker); when enabled, 14 per
worker pair and 15 once.  A node's LP name is its id
reduced to letters and digits, with a numeric suffix where two ids reduce
alike, so ``_`` separates the parts of every variable and row name
unambiguously.

Assignments.  A model assignment is one value per column, in the layout
above: the binaries row by row as an (A, K) array, then the visit times as
an (N, K) array, N the node count.  Absent columns are 0.
:func:`read_solution_values` parses a solver's ``name value`` lines into
it, :func:`values_to_solution` traces the routes out of it,
:func:`solution_to_values` writes routes into it, and
:func:`evaluate_assignment` checks it row by row.  The route decoders take
the graph, and K as the visit-time column count over its node count, so a
model read back by :func:`parse_lp` decodes as the built one does.

Export.  Binary domains and nonnegativity are the variable sections of the
LP text.  Each row's nonzero terms are written in column order, each
coefficient as the shortest decimal that reads back exactly (``repr``), so
re-exporting the same model is byte-identical, and the bundled reader
parses the emitted format back into the same arrays for round-trip checks.
The whole text is one array of tokens, header, objective row, constraint
rows and variable sections, written by a single ``str.join``.  Every token
comes from a small table, so nothing is formatted per row: a row is its
name, then per term a coefficient token and the bare column name, then its
tail.  Each distinct coefficient is formatted once into two tables,
``": +c "`` for a row's first term (it carries the colon after the name)
and ``" +c "`` for the others.  Each distinct (sense, rhs) pair is
formatted once into a tail `` <= b`` plus the newline and the next line's
one-space indent.  A row without terms reads ``+0 <first column>``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .actiongraph import ActionGraph
from .domain import DEPOT_NODE, Instance, Route, Solution

# rows on times and distances are checked to 1e-6, the counting rows to 1e-9
_LOOSE_FAMILIES = (5, 6, 7, 8, 9, 14)
_SENSES = ("<=", ">=", "=")


@dataclass(frozen=True)
class ModelOptions:
    """Optional strengthening rows."""

    symmetry_breaking: bool = False
    upper_bound_cut: int | None = None

    def __post_init__(self) -> None:
        if self.upper_bound_cut is not None and self.upper_bound_cut < 0:
            raise ValueError("upper_bound_cut must be nonnegative")


@dataclass(frozen=True, eq=False)
class MilpModel:
    """Maximize ``objective @ v`` subject to ``matrix @ v <sense> rhs`` per row.

    ``v`` runs over ``columns``: binaries first (``0 <= v <= 1``), then the
    visit times (``v >= 0``), in the layout of the module notes.  The nodes
    and arcs behind the columns are the graph's, and K is the ratio of
    visit-time columns to nodes, so a built model and a parsed one are the
    same kind of object.
    """

    matrix: csr_matrix  # sorted column indices per row, no stored zeros
    objective: np.ndarray
    row_names: tuple[str, ...]
    families: np.ndarray
    senses: np.ndarray  # "<=", ">=" or "=" per row
    rhs: np.ndarray
    columns: tuple[str, ...]
    binary_count: int

    @property
    def binaries(self) -> tuple[str, ...]:
        return self.columns[: self.binary_count]

    @property
    def continuous(self) -> tuple[str, ...]:
        return self.columns[self.binary_count :]

    @property
    def upper(self) -> np.ndarray:
        """Column upper bounds: 1 for binaries, ``inf`` for visit times."""
        return np.r_[np.ones(self.binary_count), np.full(len(self.continuous), np.inf)]


def _x_column(arc, k, workers: int):
    return arc * workers + k - 1


def _t_column(node, k, arc_count: int, workers: int):
    return (arc_count + node) * workers + k - 1


def _sparse(rows, cols, values, shape: tuple[int, int]) -> csr_matrix:
    """CSR with duplicates summed, column indices sorted and no stored zeros."""
    matrix = csr_matrix((values, (rows, cols)), shape=shape)
    matrix.sum_duplicates()
    matrix.eliminate_zeros()
    return matrix


def _window_arrays(graph: ActionGraph) -> tuple[np.ndarray, np.ndarray]:
    """Earliest and latest visit times ``(e_i, l_i)`` in node order, from the request times.

    A pickup is served no earlier than tau_p and, being followed by an EV
    arc (p, d), no later than tau_d - c_pd; a delivery no later than tau_d
    and no earlier than tau_p + c_pd.  The depot time (``tau[0]`` is 0) is
    a departure, at or after 0 and no later than l_p - c_0p for the first pickup.
    """
    tau = graph.tau
    early, late = tau.copy(), tau.copy()
    ev = graph.is_ev
    p, d, cost = graph.src[ev], graph.dst[ev], graph.op_time_min[ev]
    np.maximum.at(late, p, tau[d] - cost)
    np.minimum.at(early, d, tau[p] + cost)
    leave = graph.src == 0
    late[0] = np.max(late[graph.dst[leave]] - graph.op_time_min[leave], initial=0.0)
    return early, late


def _safe_names(ids: list[str]) -> dict[str, str]:
    """Letters-and-digits renaming, unique per input order: ``a_b``, ``ab`` -> ``ab``, ``ab2``."""
    out: dict[str, str] = {}
    taken: set[str] = set()
    for raw in ids:
        base = re.sub(r"[^A-Za-z0-9]", "", raw) or "n"
        name = base
        suffix = 2
        while name in taken:
            name = f"{base}{suffix}"
            suffix += 1
        taken.add(name)
        out[raw] = name
    return out


class _Rows:
    """Row blocks in model order: per-row data plus (row, column, value) triplets."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.families: list[np.ndarray] = []
        self.senses: list[np.ndarray] = []
        self.rhs: list[np.ndarray] = []
        self.triplets: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def add(self, names: list[str], family, sense, rhs, *terms) -> None:
        """Append rows; each term is (row within this block, column, value), broadcast."""
        first, count = len(self.names), len(names)
        self.names += names
        self.families.append(np.broadcast_to(family, count))
        self.senses.append(np.broadcast_to(np.asarray(sense), count))
        self.rhs.append(np.broadcast_to(np.asarray(rhs, dtype=float), count))
        for rows, cols, values in terms:
            rows, cols, values = np.broadcast_arrays(first + np.asarray(rows), cols, values)
            self.triplets.append((rows.ravel(), cols.ravel(), values.ravel().astype(float)))


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

    nodes = graph.nodes
    safe = _safe_names(list(nodes))
    lp_name = [safe[n] for n in nodes]
    tau, charge = graph.tau, graph.charge
    pickups = np.flatnonzero(graph.is_pickup)
    deliveries = 1 + np.flatnonzero(~graph.is_pickup[1:])
    early, late = _window_arrays(graph)

    src, dst = graph.src, graph.dst
    cost, dist = graph.op_time_min, graph.distance_km
    n_arcs = len(src)

    workers = np.arange(1, k_total + 1)

    def per_worker(items: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, item, k) of the rows ``item x worker``, item-major."""
        rows = np.arange(len(items) * k_total)
        return rows, np.repeat(items, k_total), np.tile(workers, len(items))

    def x(arc, k):
        return _x_column(arc, k, k_total)

    def t(node, k):
        return _t_column(node, k, n_arcs, k_total)

    row_suffix = [f"_k{k}" for k in range(1, k_total + 1)]
    column_suffix = [f"_{k}" for k in range(1, k_total + 1)]

    def named(prefix: str, tags: list[str]) -> list[str]:
        return [f"{prefix}_{tag}{suffix}" for tag in tags for suffix in row_suffix]

    def arc_tags(arc_ids: np.ndarray) -> list[str]:
        ends = zip(src[arc_ids].tolist(), dst[arc_ids].tolist())
        return [f"{lp_name[i]}_{lp_name[j]}" for i, j in ends]

    def node_tags(node_ids: np.ndarray) -> list[str]:
        return [lp_name[i] for i in node_ids.tolist()]

    rows = _Rows()
    from_depot = np.flatnonzero(src == 0)
    from_request = np.flatnonzero(src != 0)

    _, a, k = per_worker(from_depot)
    rows.add([f"f2{suffix}" for suffix in row_suffix], 2, "<=", 1.0, (k - 1, x(a, k), 1.0))

    _, a, k = per_worker(from_request)
    rows.add([f"f3_{name}" for name in lp_name[1:]], 3, "<=", 1.0, (src[a] - 1, x(a, k), 1.0))

    _, a, k = per_worker(np.arange(n_arcs))
    rows.add(
        named("f4", lp_name),
        4,
        "=",
        0.0,
        (src[a] * k_total + k - 1, x(a, k), 1.0),
        (dst[a] * k_total + k - 1, x(a, k), -1.0),
    )

    timed = np.flatnonzero(dst != 0)
    big_m = np.maximum(0.0, late[src[timed]] + cost[timed] - early[dst[timed]])
    r, a, k = per_worker(timed)
    m = np.repeat(big_m, k_total)
    rows.add(
        named("f5", arc_tags(timed)),
        5,
        "<=",
        m,
        (r, t(src[a], k), 1.0),
        (r, t(dst[a], k), -1.0),
        (r, x(a, k), cost[a] + m),
    )

    returns = np.flatnonzero(dst == 0)
    big_m = np.maximum(0.0, tau[src[returns]] - horizon)
    r, a, k = per_worker(returns)
    m = np.repeat(big_m, k_total)
    rows.add(
        named("f6", node_tags(src[returns])),
        6,
        "<=",
        horizon + m,
        (r, t(src[a], k), 1.0),
        (r, x(a, k), cost[a] + m),
        (r, t(0, k), -1.0),
    )

    r, n, k = per_worker(pickups)
    rows.add(named("f7", node_tags(pickups)), 7, ">=", tau[n], (r, t(n, k), 1.0))
    r, n, k = per_worker(deliveries)
    rows.add(named("f8", node_tags(deliveries)), 8, "<=", tau[n], (r, t(n, k), 1.0))

    # families 9, 10 and 11 interleaved: rows 3r, 3r + 1, 3r + 2 of EV arc x worker r
    ev = np.flatnonzero(graph.is_ev)
    r, a, k = per_worker(ev)
    p, d = src[a], dst[a]
    tags = arc_tags(ev)
    handover = -(dist[a] / cap_km + charge[d] + 1.0)
    rows.add(
        [name for row in zip(*(named(f"f{f}", tags) for f in (9, 10, 11))) for name in row],
        np.tile([9, 10, 11], len(r)),
        np.tile(["<=", ">=", ">="], len(r)),
        np.column_stack(
            [
                # (9): d*x <= L*rho_p + (L/Gamma)*(t_p - tau_p)
                cap_km * charge[p] - cap_km * tau[p] / gamma,
                # (10): charge at pickup minus consumption covers the delivery
                # requirement backdated from its deadline, big-M (rho_d + 1)
                tau[p] / gamma - tau[d] / gamma - charge[p] - 1.0,
                # (11): the same with a full battery at the pickup
                -2.0 - tau[d] / gamma,
            ]
        ).ravel(),
        (3 * r, x(a, k), dist[a]),
        (3 * r, t(p, k), -cap_km / gamma),
        (3 * r + 1, t(p, k), 1.0 / gamma),
        (3 * r + 1, t(d, k), -1.0 / gamma),
        (3 * r + 1, x(a, k), handover),
        (3 * r + 2, t(d, k), -1.0 / gamma),
        (3 * r + 2, x(a, k), handover),
    )

    if options.symmetry_breaking:
        pairs = [(k1, k2) for k1 in range(1, k_total + 1) for k2 in range(k1 + 1, k_total + 1)]
        terms = []
        for row, (k1, k2) in enumerate(pairs):
            terms.append((row, x(from_request, k1), cost[from_request]))
            terms.append((row, x(from_request, k2), -cost[from_request]))
        rows.add([f"f14_k{k1}_k{k2}" for k1, k2 in pairs], 14, ">=", 0.0, *terms)

    _, a, k = per_worker(from_request)
    served = x(a, k)
    if options.upper_bound_cut is not None:
        rows.add(["f15"], 15, "<=", float(options.upper_bound_cut), (0, served, 1.0))

    columns = [
        f"x_{lp_name[i]}_{lp_name[j]}{suffix}"
        for i, j in zip(src.tolist(), dst.tolist())
        for suffix in column_suffix
    ]
    columns += [f"t_{name}{suffix}" for name in lp_name for suffix in column_suffix]
    objective = np.zeros(len(columns))
    objective[served] = 1.0
    row_idx, col_idx, values = (np.concatenate(part) for part in zip(*rows.triplets))
    return MilpModel(
        matrix=_sparse(row_idx, col_idx, values, (len(rows.names), len(columns))),
        objective=objective,
        row_names=tuple(rows.names),
        families=np.concatenate(rows.families).astype(np.int64),
        senses=np.concatenate(rows.senses).astype("<U2"),
        rhs=np.concatenate(rows.rhs).astype(float),
        columns=tuple(columns),
        binary_count=n_arcs * k_total,
    )


# ---------------------------------------------------------------------------
# LP-format text export and reader
# ---------------------------------------------------------------------------


def _section(title: str, names: tuple[str, ...], suffix: str) -> list[str]:
    """Tokens of ``title`` and then one line `` <name><suffix>`` per name."""
    if not names:
        return [title]
    return [title, "\n ", (suffix + "\n ").join(names), suffix]


def _tails(senses: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """`` <sense> <rhs>\\n `` per row, each distinct (sense, rhs) pair formatted once."""
    sense = (senses == ">=") + 2 * (senses == "=")  # index into _SENSES
    values = np.unique(rhs)
    n = len(values)
    key = sense * n + np.searchsorted(values, rhs)
    present = np.flatnonzero(np.bincount(key, minlength=len(_SENSES) * n))
    values = values.tolist()
    texts = np.empty(len(_SENSES) * n, dtype=object)
    texts[present] = [f" {_SENSES[p // n]} {values[p % n]!r}\n " for p in present.tolist()]
    return texts[key]


def export_lp(model: MilpModel) -> str:
    """Serialize to LP text; identical models export byte-identically."""
    # the objective is text row 0, "obj", ahead of the constraint rows
    matrix = model.matrix
    objective = np.flatnonzero(model.objective)
    indptr = np.r_[0, len(objective) + matrix.indptr]
    data = np.r_[model.objective[objective], matrix.data]
    counts = np.diff(indptr)
    empty = counts == 0
    # row r is tokens name, coefficient, column, ..., tail from start[r] on;
    # a row without terms holds the one term "+0 <first column>"
    slots = np.maximum(counts, 1)
    start = 1 + 2 * np.arange(len(counts)) + 2 * np.r_[0, np.cumsum(slots[:-1])]
    tail_at = start + 2 * slots + 1
    footer = (
        _section("Bounds", model.continuous, " >= 0")
        + _section("\nBinaries", model.binaries, "")
        + ["\nEnd\n"]
    )

    values = np.unique(data)
    code = np.searchsorted(values, data)
    signed = [f"+{v!r}" if v >= 0 else f"-{-v!r}" for v in values.tolist()]
    first = np.array([f": {s} " for s in signed], dtype=object)
    later = np.array([f" {s} " for s in signed], dtype=object)

    tokens = np.empty(tail_at[-1] + 1 + len(footer), dtype=object)
    tokens[0] = "\\ relocation model export\nMaximize\n "
    tokens[start[0]] = "obj"
    tokens[start[1:]] = model.row_names
    coef_at = 2 * np.arange(len(data)) + np.repeat(start + 1 - 2 * indptr[:-1], counts)
    tokens[coef_at] = later[code]
    tokens[coef_at + 1] = np.array(model.columns, dtype=object)[np.r_[objective, matrix.indices]]
    tokens[start[~empty] + 1] = first[code[indptr[:-1][~empty]]]
    tokens[start[empty] + 1] = ": +0 "
    tokens[start[empty] + 2] = model.columns[0]
    tokens[tail_at[0]] = "\nSubject To\n "
    tokens[tail_at[1:]] = _tails(model.senses, model.rhs)
    tokens[tail_at[-1]] = tokens[tail_at[-1]][:-1]  # the last row is followed by "Bounds"
    tokens[tail_at[-1] + 1 :] = footer
    return "".join(tokens.tolist())


_FAMILY_RE = re.compile(r"f(\d+)")


def _terms(tokens: list[str], column: dict[str, int], where: str) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and column indices of ``+c name`` token pairs."""
    count = len(tokens) // 2
    try:
        cols = np.fromiter(map(column.__getitem__, tokens[1::2]), dtype=np.int64, count=count)
    except KeyError as exc:
        raise ValueError(f"{where}: {exc.args[0]!r} is in neither Bounds nor Binaries") from None
    return np.fromiter(map(float, tokens[0::2]), dtype=float, count=count), cols


def parse_lp(text: str) -> MilpModel:
    """Parse text in the exported LP dialect back into a model.

    Family ids are recovered from the ``f<N>`` row-name prefix (0 without one).
    """
    sections: dict[str, list[str]] = {
        "maximize": [], "subject to": [], "bounds": [], "binaries": []
    }
    current: list[str] | None = None
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("\\"):
            continue
        lowered = line.lower()
        if lowered in sections or lowered == "end":
            current = sections.get(lowered)
        elif current is not None:
            current.append(line)

    binaries = [var for line in sections["binaries"] for var in line.split()]
    continuous = [line.split(">=")[0].strip() for line in sections["bounds"]]
    columns = binaries + continuous
    column = {name: i for i, name in enumerate(columns)}

    objective_tokens = [
        token for line in sections["maximize"] for token in line.rpartition(":")[2].split()
    ]
    if len(objective_tokens) % 2:
        raise ValueError(f"unparseable objective: {' '.join(objective_tokens)!r}")
    coefs, cols = _terms(objective_tokens, column, "objective")
    objective = np.bincount(cols, weights=coefs, minlength=len(columns))

    names: list[str] = []
    senses: list[str] = []
    rhs: list[str] = []
    counts: list[int] = []
    term_tokens: list[str] = []
    for line in sections["subject to"]:
        name, colon, body = line.partition(":")
        tokens = body.split()
        if not colon or len(tokens) < 2 or len(tokens) % 2 or tokens[-2] not in _SENSES:
            raise ValueError(f"unparseable constraint line: {line!r}")
        names.append(name.strip())
        senses.append(tokens[-2])
        rhs.append(tokens[-1])
        counts.append(len(tokens) // 2 - 1)
        term_tokens += tokens[:-2]
    coefs, cols = _terms(term_tokens, column, "constraints")
    row_idx = np.repeat(np.arange(len(names)), counts)
    families = [int(m.group(1)) if (m := _FAMILY_RE.match(name)) else 0 for name in names]
    return MilpModel(
        matrix=_sparse(row_idx, cols, coefs, (len(names), len(columns))),
        objective=objective,
        row_names=tuple(names),
        families=np.array(families, dtype=np.int64),
        senses=np.array(senses, dtype="<U2"),
        rhs=np.fromiter(map(float, rhs), dtype=float, count=len(rhs)),
        columns=tuple(columns),
        binary_count=len(binaries),
    )


def models_equivalent(a: MilpModel, b: MilpModel) -> bool:
    """Same objective, rows and variable sections, matched by name, up to float repr."""
    if set(a.binaries) != set(b.binaries) or set(a.continuous) != set(b.continuous):
        return False
    if len(a.row_names) != len(b.row_names) or set(a.row_names) != set(b.row_names):
        return False
    b_column = {name: i for i, name in enumerate(b.columns)}
    cols = np.array([b_column[name] for name in a.columns], dtype=np.int64)
    b_row = {name: i for i, name in enumerate(b.row_names)}
    rows = np.array([b_row[name] for name in a.row_names], dtype=np.int64)

    def same(x: np.ndarray, y: np.ndarray) -> bool:
        return bool(np.array_equal(np.round(x, 9), np.round(y, 9)))

    b_objective = b.objective[cols]
    if not np.array_equal(a.objective != 0, b_objective != 0) or not same(a.objective, b_objective):
        return False
    if not np.array_equal(a.senses, b.senses[rows]) or np.round(a.rhs - b.rhs[rows], 9).any():
        return False
    aligned = b.matrix[rows][:, cols].sorted_indices()
    return (
        np.array_equal(a.matrix.indptr, aligned.indptr)
        and np.array_equal(a.matrix.indices, aligned.indices)
        and same(a.matrix.data, aligned.data)
    )


# ---------------------------------------------------------------------------
# Assignments: one value per column <-> Solution objects
# ---------------------------------------------------------------------------


def read_solution_values(model: MilpModel, text: str) -> np.ndarray:
    """One value per column of ``model`` from ``name value`` lines (# comments).

    Absent columns are 0.  Raises ``ValueError`` naming the line for a
    malformed line, a non-finite value, a name that is not a column of the
    model, or a name given twice.
    """
    column = {name: c for c, name in enumerate(model.columns)}
    values = np.zeros(len(model.columns))
    first_line: dict[int, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            name, text_value = line.split()
            value = float(text_value)
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'name value', got {line!r}") from None
        c = column.get(name)
        if c is None:
            raise ValueError(f"line {lineno}: {name!r} is not a column of the model")
        if c in first_line:
            raise ValueError(f"line {lineno}: {name!r} given again (first on line {first_line[c]})")
        if not np.isfinite(value):
            raise ValueError(f"line {lineno}: {name} = {value} is not finite")
        first_line[c] = lineno
        values[c] = value
    return values


def _worker_count(model: MilpModel, graph: ActionGraph) -> int:
    """K of a model whose columns are laid out on ``graph``; ``ValueError`` if they are not."""
    n_nodes, n_arcs, n_times = len(graph.nodes), len(graph.src), len(model.continuous)
    k_total = n_times // n_nodes
    if not k_total or n_times != k_total * n_nodes or model.binary_count != k_total * n_arcs:
        raise ValueError(
            f"model has {model.binary_count} arc and {n_times} time columns, "
            f"not K times the graph's {n_arcs} arcs and {n_nodes} nodes"
        )
    return k_total


def values_to_solution(model: MilpModel, graph: ActionGraph, values: np.ndarray) -> Solution:
    """Trace per-worker depot cycles out of one value per column of ``model``.

    ``graph`` is the graph the model was built from, or the one a parsed
    model was exported on: it gives the nodes and arcs of the columns and
    the return leg's time.  Raises ``ValueError`` for a model whose column
    counts do not match the graph, non-binary values, two outgoing arcs at
    a node, used arcs that miss the depot (an open path), broken flow, or
    used arcs that a worker's route does not reach.
    """
    k_total, nodes, src, dst = _worker_count(model, graph), graph.nodes, graph.src, graph.dst
    x = values[: model.binary_count].reshape(len(src), k_total)
    t = values[model.binary_count :].reshape(len(nodes), k_total)
    tol = 1e-6  # distance of a binary value from 0 or 1
    used = np.abs(x - 1.0) <= tol
    fractional = np.argwhere(~(used | (np.abs(x) <= tol)))  # NaN included
    if len(fractional):
        a, k = fractional[0].tolist()
        i, j = nodes[src[a]], nodes[dst[a]]
        raise ValueError(f"x[{i},{j},{k + 1}] = {x[a, k]} is not binary within tolerance")
    routes: list[Route] = []
    for k in range(k_total):
        arcs = np.flatnonzero(used[:, k])
        if not len(arcs):
            continue
        succ = dict(zip(src[arcs].tolist(), arcs.tolist()))  # node -> used arc
        if len(succ) < len(arcs):
            ends, counts = np.unique(src[arcs], return_counts=True)
            node = nodes[ends[counts > 1][0]]
            raise ValueError(f"node {node!r} has two outgoing arcs for worker {k + 1}")
        if 0 not in succ:
            pairs = sorted((nodes[src[a]], nodes[dst[a]]) for a in arcs)
            raise ValueError(
                f"worker {k + 1} uses arcs {pairs} forming an open path "
                "that does not pass through the depot"
            )
        visits: list[tuple[str, float]] = []
        arc = succ.pop(0)
        node = int(dst[arc])
        while node != 0:
            visits.append((nodes[node], float(t[node, k])))
            if node not in succ:
                raise ValueError(
                    f"flow conservation violated at {nodes[node]!r} for worker {k + 1}"
                )
            arc = succ.pop(node)
            node = int(dst[arc])
        if succ:
            raise ValueError(
                f"worker {k + 1} has an open path through {sorted(nodes[i] for i in succ)} "
                "not connected to the depot"
            )
        routes.append(
            Route(
                worker_index=k,
                visits=tuple(visits),
                depot_departure_min=float(t[0, k]),
                depot_return_min=visits[-1][1] + float(graph.op_time_min[arc]),
            )
        )
    return Solution.from_routes(routes)


def solution_to_values(model: MilpModel, graph: ActionGraph, solution: Solution) -> np.ndarray:
    """One value per column of ``model`` (laid out on ``graph``) for a Solution's routes.

    A node a worker does not visit takes the earliest time of its window,
    so an idle worker's depot time is 0.  For routes the scheduler accepts
    this satisfies every row of :func:`build_milp` (see the module notes).
    Raises ``ValueError`` for a model whose column counts do not match the
    graph, and for a route on a worker or an arc the model lacks.
    """
    k_total = _worker_count(model, graph)
    t = np.tile(_window_arrays(graph)[0][:, np.newaxis], k_total)
    x = np.zeros((len(graph.src), k_total))
    for route in solution.routes:  # the model's nodes and arcs are the graph's
        k, seq = route.worker_index, (DEPOT_NODE,) + route.request_ids + (DEPOT_NODE,)
        arcs = [graph.arc_position(i, j) for i, j in zip(seq, seq[1:])]
        if not 0 <= k < k_total or -1 in arcs:
            raise ValueError(f"route {route.request_ids} of worker {k + 1} is not in the model")
        x[arcs, k] = 1.0
        t[graph.src[arcs], k] = [route.depot_departure_min] + [time for _, time in route.visits]
    return np.r_[x.ravel(), t.ravel()]


def evaluate_assignment(model: MilpModel, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, whether it holds and its slack (the satisfied margin, negative = violated).

    ``values`` has one entry per column (see the module notes).
    """
    lhs = model.matrix @ values
    slack = np.where(
        model.senses == "<=",
        model.rhs - lhs,
        np.where(model.senses == ">=", lhs - model.rhs, -np.abs(lhs - model.rhs)),
    )
    tol = np.where(np.isin(model.families, _LOOSE_FAMILIES), 1e-6, 1e-9)
    return slack >= -tol, slack
