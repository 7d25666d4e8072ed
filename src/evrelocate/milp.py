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

Layout.  A :class:`MilpModel` is arrays: one sparse row-by-column matrix,
the objective vector, and per row its name, family, sense and right-hand
side.  Nodes and arcs take the action graph's canonical order
(:mod:`evrelocate.actiongraph`): the depot first, then by request id, and
arcs by (from node, to node) in that order, so the model reads the graph's
arrays as they are.  With A arcs and K workers, the column of
``x`` on arc a for worker k is ``a*K + k - 1`` (all binaries come first)
and the column of ``t`` at node n is ``(A + n)*K + k - 1``.  Rows come
family by family in the order above: family 2 per worker, 3 per request,
4 per (node, worker), 5 per (arc not entering the depot, worker), 6 per
(arc entering the depot, worker), 7 per (pickup, worker), 8 per
(delivery, worker), then 9, 10 and 11 interleaved per (EV arc, worker);
when enabled, 14 per worker pair and 15 once.  A node's LP name is its id
reduced to letters and digits, with a numeric suffix where two ids reduce
alike, so ``_`` separates the parts of every variable and row name
unambiguously.

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
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .actiongraph import ActionGraph
from .domain import DEPOT_NODE, Instance, RequestKind, Route, Solution

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
    visit times (``v >= 0``).  A built model also keeps its node order, K,
    and its arcs in column order as the graph's node-index arrays:
    ``arc_src[a]`` and ``arc_dst[a]`` index ``nodes`` (see the module notes
    for the layout).  A parsed model has none of these.
    """

    matrix: csr_matrix  # sorted column indices per row, no stored zeros
    objective: np.ndarray
    row_names: tuple[str, ...]
    families: np.ndarray
    senses: np.ndarray  # "<=", ">=" or "=" per row
    rhs: np.ndarray
    columns: tuple[str, ...]
    binary_count: int
    nodes: tuple[str, ...] = ()
    arc_src: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    arc_dst: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    workers: int = 0

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

    def variable_count(self) -> int:
        return len(self.columns)


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


def time_windows(instance: Instance, graph: ActionGraph) -> dict[str, tuple[float, float]]:
    """Earliest and latest visit time ``(e_i, l_i)`` of every graph node.

    A pickup is served no earlier than tau_p and, being followed by an EV
    arc (p, d), no later than tau_d - c_pd; a delivery no later than tau_d
    and no earlier than tau_p + c_pd.  The depot time is a departure, at or
    after 0 and no later than l_p - c_0p for the first pickup.
    """
    tau = np.array([0.0] + [instance.request(n).time_min for n in graph.nodes[1:]])
    early, late = _window_arrays(graph, tau)
    return dict(zip(graph.nodes, zip(early.tolist(), late.tolist())))


def _window_arrays(graph: ActionGraph, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`time_windows` as ``(early, late)`` in node order; ``tau[0]`` is the depot's 0."""
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
    requests = [instance.request(n) for n in nodes[1:]]
    tau = np.array([0.0] + [r.time_min for r in requests])
    charge = np.array([0.0] + [r.charge for r in requests])
    pickups = 1 + np.flatnonzero([r.kind is RequestKind.PICKUP for r in requests])
    deliveries = 1 + np.flatnonzero([r.kind is RequestKind.DELIVERY for r in requests])
    early, late = _window_arrays(graph, tau)

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
        nodes=nodes,
        arc_src=src,
        arc_dst=dst,
        workers=k_total,
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


def _arc_keys(model: MilpModel) -> list[tuple[str, str]]:
    """``(from, to)`` node ids of the model's arcs, in column order."""
    nodes = model.nodes
    return [(nodes[i], nodes[j]) for i, j in zip(model.arc_src.tolist(), model.arc_dst.tolist())]


def values_to_assignment(
    model: MilpModel, values: dict[str, float]
) -> tuple[dict[tuple[str, str, int], float], dict[tuple[str, int], float]]:
    """Map name-keyed values back to (i, j, k) / (i, k) keyed dictionaries."""
    k_total, n_arcs = model.workers, len(model.arc_src)
    x_vals = {
        (i, j, k): values.get(model.columns[_x_column(a, k, k_total)], 0.0)
        for a, (i, j) in enumerate(_arc_keys(model))
        for k in range(1, k_total + 1)
    }
    t_vals = {
        (node, k): values.get(model.columns[_t_column(n, k, n_arcs, k_total)], 0.0)
        for n, node in enumerate(model.nodes)
        for k in range(1, k_total + 1)
    }
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
) -> np.ndarray:
    """One value per column of ``model`` for row evaluation (absent x means 0)."""
    k_total, n_arcs = model.workers, len(model.arc_src)
    arc_pos = {key: a for a, key in enumerate(_arc_keys(model))}
    node_pos = {node: n for n, node in enumerate(model.nodes)}
    values = np.zeros(len(model.columns))
    for (i, j, k), value in x_values.items():
        if (i, j) in arc_pos and 1 <= k <= k_total:
            values[_x_column(arc_pos[(i, j)], k, k_total)] = value
        elif value >= 0.5:
            raise ValueError(f"assignment uses arc {(i, j, k)} absent from the model")
    for (node, k), value in t_values.items():
        if node not in node_pos or not 1 <= k <= k_total:
            raise ValueError(f"assignment sets t[{node},{k}], absent from the model")
        values[_t_column(node_pos[node], k, n_arcs, k_total)] = value
    return values


def evaluate_assignment(model: MilpModel, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, whether it holds and its slack (the satisfied margin, negative = violated).

    ``values`` has one entry per column (:func:`assignment_to_values`).
    """
    lhs = model.matrix @ values
    slack = np.where(
        model.senses == "<=",
        model.rhs - lhs,
        np.where(model.senses == ">=", lhs - model.rhs, -np.abs(lhs - model.rhs)),
    )
    tol = np.where(np.isin(model.families, _LOOSE_FAMILIES), 1e-6, 1e-9)
    return slack >= -tol, slack


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
