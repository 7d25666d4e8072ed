import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from evrelocate import (
    DEPOT_NODE,
    ArcKind,
    GeneratorConfig,
    ModelOptions,
    Solution,
    SolveOptions,
    brute_force,
    build_graph,
    build_milp,
    compute_upper_bound,
    evaluate_assignment,
    export_lp,
    generate_instance,
    matrix_for_instance,
    models_equivalent,
    parse_lp,
    read_solution_values,
    solve_branch_and_bound,
    solution_to_values,
    values_to_solution,
)
from evrelocate.milp import _safe_names, _window_arrays
from conftest import (
    BASE_PARAMS,
    ORACLE_CASES,
    delivery,
    make_instance,
    make_matrix,
    oracle_case,
    pickup,
)


def with_workers(inst, k):
    return dataclasses.replace(inst, parameters=dataclasses.replace(inst.parameters, workers=k))


def three_node_model(workers=1, options=None):
    inst = make_instance(
        [pickup("p1", "a", 0.5, 480.0), delivery("d1", "b", 0.4, 700.0)],
        params=dataclasses.replace(BASE_PARAMS, workers=workers),
    )
    matrix = make_matrix(["depot", "a", "b"], {}, default=5.0)
    graph = build_graph(inst, matrix)
    model = build_milp(inst, graph, options)
    return inst, graph, model


def time_windows(graph):
    """The model's time windows as {node: (early, late)}."""
    early, late = _window_arrays(graph)
    return dict(zip(graph.nodes, zip(early.tolist(), late.tolist())))


def route_operational_cost(graph, route):
    """Total arc cost of a route, excluding the depot-outgoing arc (family 14's cost)."""
    seq = route.request_ids + (DEPOT_NODE,)
    return sum(graph.arc(a, b).op_time_min for a, b in zip(seq, seq[1:]))


def oracle_windows(instance, graph):
    """Time windows by the per-arc loop that the array version replaced, kept as its reference."""
    windows = {r.id: (r.time_min, r.time_min) for r in instance.requests}
    for arc in graph.arcs:
        if arc.kind is ArcKind.EV:
            p, d, c = arc.from_node, arc.to_node, arc.op_time_min
            tau_p, tau_d = instance.request(p).time_min, instance.request(d).time_min
            windows[p] = (windows[p][0], max(windows[p][1], tau_d - c))
            windows[d] = (min(windows[d][0], tau_p + c), windows[d][1])
    leave = [a for a in graph.arcs if a.from_node == DEPOT_NODE]
    latest_departure = max([0.0] + [windows[a.to_node][1] - a.op_time_min for a in leave])
    windows[DEPOT_NODE] = (0.0, latest_departure)
    return windows


def _oracle_lines(heads, matrix, columns, tails=None):
    """One line `` <head>: <terms> <tail>`` per row, as the per-row-head export wrote them."""
    n_rows, nnz = matrix.shape[0], matrix.nnz
    counts = np.diff(matrix.indptr)
    per_row = 1 if tails is None else 2  # the head, and the tail if any
    values, inverse = np.unique(matrix.data, return_inverse=True)
    signed = [f" +{v!r}" if v >= 0 else f" -{-v!r}" for v in values.tolist()]
    heads = np.array([f"\n {head}:" for head in heads], dtype=object)
    heads[counts == 0] += " +0" + columns[0]

    tokens = np.empty(2 * nnz + per_row * n_rows, dtype=object)
    row_start = 2 * matrix.indptr[:-1] + per_row * np.arange(n_rows)
    coef_at = 2 * np.arange(nnz) + np.repeat(row_start - 2 * matrix.indptr[:-1], counts) + 1
    tokens[row_start] = heads
    tokens[coef_at] = np.array(signed, dtype=object)[inverse]
    tokens[coef_at + 1] = columns[matrix.indices]
    if tails is not None:
        tokens[row_start + 2 * counts + 1] = tails
    return "".join(tokens.tolist())[1:]


def oracle_export_lp(model):
    """The LP export that the single-token-array writer replaced, kept as its reference."""
    columns = np.array([" " + name for name in model.columns], dtype=object)
    objective = csr_matrix(model.objective[np.newaxis, :])
    senses, sense_of = np.unique(model.senses, return_inverse=True)
    values, value_of = np.unique(model.rhs, return_inverse=True)
    pairs, tail_of = np.unique(sense_of * len(values) + value_of, return_inverse=True)
    senses, values = senses.tolist(), values.tolist()
    texts = [f" {senses[p // len(values)]} {values[p % len(values)]!r}" for p in pairs.tolist()]
    tails = np.array(texts, dtype=object)[tail_of]
    lines = ["\\ relocation model export", "Maximize", _oracle_lines(["obj"], objective, columns)]
    lines.append("Subject To")
    if len(model.row_names):
        lines.append(_oracle_lines(list(model.row_names), model.matrix, columns, tails))
    lines.append("Bounds")
    lines += [f" {var} >= 0" for var in model.continuous]
    lines.append("Binaries")
    lines += [f" {var}" for var in model.binaries]
    lines.append("End")
    return "\n".join(lines) + "\n"


def family_counts(model):
    return Counter(model.families.tolist())


def row(model, name):
    """(coefficient by column name, sense, rhs) of the named row."""
    i = model.row_names.index(name)
    span = slice(model.matrix.indptr[i], model.matrix.indptr[i + 1])
    coeffs = dict(zip((model.columns[c] for c in model.matrix.indices[span]), model.matrix.data[span]))
    return coeffs, model.senses[i], model.rhs[i]


def violations(model, values):
    """(row name, slack) of every row the assignment (one value per column) violates."""
    ok, slack = evaluate_assignment(model, values)
    return [(model.row_names[i], slack[i]) for i in np.flatnonzero(~ok)]


class TestModelShape:
    def test_three_node_counts(self):
        _, graph, model = three_node_model()
        assert len(graph.arcs) == 3  # no bike arc d1 -> p1: p1 is released first
        assert len(model.binaries) == 3
        assert len(model.continuous) == 3
        counts = family_counts(model)
        assert counts[2] == 1
        assert counts[3] == 2
        assert counts[4] == 3
        assert counts[5] == 2  # arcs not entering the depot
        assert counts[6] == 1
        assert counts[7] == 1
        assert counts[8] == 1
        assert counts[9] == counts[10] == counts[11] == 1

    def test_symmetry_rows_pair_count(self):
        _, _, model = three_node_model(workers=2, options=ModelOptions(symmetry_breaking=True))
        assert family_counts(model)[14] == 1
        _, _, model3 = three_node_model(workers=3, options=ModelOptions(symmetry_breaking=True))
        assert family_counts(model3)[14] == 3

    def test_upper_bound_row(self):
        _, _, model = three_node_model(options=ModelOptions(upper_bound_cut=5))
        assert family_counts(model)[15] == 1
        _, sense, rhs = row(model, "f15")
        assert rhs == 5.0
        assert sense == "<="

    def test_big_m_from_time_windows(self):
        # c(0,p1) = 20 and c(p1,d1) = 14 minutes; windows: p1 [480, 686],
        # d1 [494, 700], depot [0, 666]
        _, _, model = three_node_model()
        coeffs, _, rhs = row(model, "f5_0_p1_k1")
        assert rhs == pytest.approx(666.0 + 20.0 - 480.0)
        assert coeffs["x_0_p1_1"] == pytest.approx(20.0 + 206.0)
        assert row(model, "f5_p1_d1_k1")[2] == pytest.approx(686.0 + 14.0 - 494.0)
        assert family_counts(model)[6] == 1
        coeffs, _, rhs = row(model, "f6_d1_k1")
        assert rhs == pytest.approx(300.0 + 400.0)  # M_d = tau_d - T
        assert coeffs["x_d1_0_1"] == pytest.approx(20.0 + 400.0)

    @pytest.mark.parametrize("kind, size, seed", ORACLE_CASES)
    def test_time_windows_equal_per_arc_oracle(self, kind, size, seed):
        inst, matrix = oracle_case(kind, size, seed)
        graph = build_graph(inst, matrix)
        assert time_windows(graph) == oracle_windows(inst, graph)

    def test_worker_count_validation(self):
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            three_node_model(workers=0)

    def test_closed_form_counts_on_random_instances(self):
        for seed in range(20):
            k = 2
            inst = with_workers(generate_instance(GeneratorConfig(request_total=8, seed=seed)), k)
            matrix = matrix_for_instance(inst)
            graph = build_graph(inst, matrix)
            model = build_milp(inst, graph, ModelOptions(symmetry_breaking=True, upper_bound_cut=4))
            n_requests = len(inst.requests)
            n_pick = len(inst.pickups)
            n_arcs = len(graph.arcs)
            n_into_depot = np.count_nonzero(graph.dst == 0)
            n_ev = np.count_nonzero(graph.is_ev)
            counts = family_counts(model)
            assert len(model.binaries) == k * n_arcs
            assert len(model.continuous) == k * (n_requests + 1)
            assert counts[2] == k
            assert counts[3] == n_requests
            assert counts[4] == k * (n_requests + 1)
            assert counts[5] == k * (n_arcs - n_into_depot)
            assert counts[6] == k * n_into_depot
            assert counts[7] == k * n_pick
            assert counts[8] == k * (n_requests - n_pick)
            assert counts[9] == counts[10] == counts[11] == k * n_ev
            assert counts[14] == k * (k - 1) // 2
            assert counts[15] == 1


class TestLpExport:
    def test_header_and_sections(self):
        _, _, model = three_node_model()
        text = export_lp(model)
        assert text.startswith("\\")
        for section in ("Maximize", "Subject To", "Bounds", "Binaries", "End"):
            assert section in text

    def test_objective_counts_non_depot_arcs(self):
        _, graph, model = three_node_model(workers=2)
        non_depot = [a for a in graph.arcs if a.from_node != DEPOT_NODE]
        assert np.count_nonzero(model.objective) == 2 * len(non_depot)
        assert all(c == 1.0 for c in model.objective[model.objective != 0])

    def test_byte_stable_across_builds(self):
        _, _, model_a = three_node_model(workers=2)
        _, _, model_b = three_node_model(workers=2)
        assert export_lp(model_a) == export_lp(model_b)

    def test_round_trip_through_reader(self):
        for options in (
            None,
            ModelOptions(symmetry_breaking=True, upper_bound_cut=3),
        ):
            _, _, model = three_node_model(workers=2, options=options)
            parsed = parse_lp(export_lp(model))
            assert models_equivalent(model, parsed)

    def test_round_trip_on_generated_instance(self):
        inst = with_workers(generate_instance(GeneratorConfig(request_total=10, seed=4)), 2)
        matrix = matrix_for_instance(inst)
        graph = build_graph(inst, matrix)
        model = build_milp(inst, graph)
        text = export_lp(model)
        assert export_lp(build_milp(inst, graph)) == text
        assert models_equivalent(model, parse_lp(text))
        assert export_lp(parse_lp(text)) == text

    @pytest.mark.parametrize(
        "edits",
        [
            [("f2_k1: +1.0 x_0_p1_1 <= 1.0", "f2_k1: +1.0 x_0_p1_1 <= 2.0")],
            [("+226.0 x_0_p1_1", "+225.0 x_0_p1_1")],
            [("f7_p1_k1: +1.0 t_p1_1 >=", "f7_p1_k1: +1.0 t_p1_1 <=")],
            [(" -0.625 t_p1_1 <= -225.0", " <= -225.0")],
            [("obj: +1.0 x_d1_0_1 +1.0 x_d1_0_2", "obj: +1.0 x_d1_0_1")],
            [(" f15: +1.0 x_d1_0_1 +1.0 x_d1_0_2 +1.0 x_p1_d1_1 +1.0 x_p1_d1_2 <= 3.0\n", "")],
            [("f3_d1:", "f3_dx:")],
            [("Bounds\n", "Bounds\n x_0_p1_2 >= 0\n"), ("\n x_0_p1_2\n", "\n")],
        ],
    )
    def test_comparison_sees_every_change(self, edits):
        options = ModelOptions(symmetry_breaking=True, upper_bound_cut=3)
        _, _, model = three_node_model(workers=2, options=options)
        text = export_lp(model)
        for old, new in edits:
            assert old in text
            text = text.replace(old, new, 1)
        assert not models_equivalent(model, parse_lp(text))

    def test_reader_rejects_malformed_text(self):
        text = export_lp(three_node_model()[2])
        with pytest.raises(ValueError, match="unparseable constraint line"):
            parse_lp(text.replace("<= 1.0", "<=", 1))
        with pytest.raises(ValueError, match="neither Bounds nor Binaries"):
            parse_lp(text.replace(" t_p1_1 >= 0\n", ""))

    @pytest.mark.parametrize(
        "size, seed, k, cut, digest, length",
        [
            # demos/03_export_model.py
            (6, 3, 2, 6, "b7f530b7aefa699c1512c8657ad96c8553f68d8b68bb6fc54cf632deadcaa485", 7556),
            (60, 7, 3, 40, "00f7da237d3e91b849e4817cc62e6fa694111d30fe8ccfe2017ce6e8e36e3426", 1001570),
        ],
    )
    def test_export_bytes_pinned(self, size, seed, k, cut, digest, length):
        # sha256 of the export of the row-by-row builder this one replaced
        inst = with_workers(generate_instance(GeneratorConfig(request_total=size, seed=seed)), k)
        graph = build_graph(inst, matrix_for_instance(inst))
        model = build_milp(inst, graph, ModelOptions(symmetry_breaking=True, upper_bound_cut=cut))
        data = export_lp(model).encode()
        assert len(data) == length
        assert hashlib.sha256(data).hexdigest() == digest

    def test_export_makes_no_arc_objects(self):
        inst, matrix = oracle_case("generated", 24, 1)
        graph = build_graph(inst, matrix)
        export_lp(build_milp(inst, graph))
        assert not {"arcs", "arc_index"} & set(vars(graph))

    def test_export_400_bytes_pinned(self):
        # the benchmark's export-400 instance: its first run's (seed 1) first instance
        inst = with_workers(generate_instance(GeneratorConfig(request_total=400, seed=100000)), 3)
        data = export_lp(build_milp(inst, build_graph(inst, matrix_for_instance(inst)))).encode()
        assert len(data) == 33_571_358
        digest = "23f8bb73cb6f2fae1b0a360f0233d99058265cbb7225602d9ddb0b1476326312"
        assert hashlib.sha256(data).hexdigest() == digest

    def test_zero_coefficient_left_out(self):
        # d1 and p2 share a station, so the bike arc d1 -> p2 has c = 0, and
        # M = max(0, l_d1 - e_p2) = 0: its family-5 row has x coefficient 0
        inst = make_instance(
            [
                pickup("p1", "a", 1.0, 480.0),
                delivery("d1", "b", 0.0, 500.0),
                pickup("p2", "b", 1.0, 520.0),
                delivery("d2", "a", 0.0, 560.0),
            ]
        )
        graph = build_graph(inst, make_matrix(["depot", "a", "b"], {}, default=2.0))
        assert graph.arc("d1", "p2").op_time_min == 0.0
        model = build_milp(inst, graph)
        coeffs, sense, rhs = row(model, "f5_d1_p2_k1")
        assert coeffs == {"t_d1_1": 1.0, "t_p2_1": -1.0}
        text = export_lp(model)
        assert " f5_d1_p2_k1: +1.0 t_d1_1 -1.0 t_p2_1 <= 0.0\n" in text
        parsed = parse_lp(text)
        assert models_equivalent(model, parsed)
        assert row(parsed, "f5_d1_p2_k1") == (coeffs, sense, rhs)
        late = read_solution_values(model, "x_d1_p2_1 1\nt_d1_1 510\nt_p2_1 500\n")
        assert ("f5_d1_p2_k1", -10.0) in violations(model, late)
        on_time = read_solution_values(model, "x_d1_p2_1 1\nt_d1_1 500\nt_p2_1 520\n")
        assert "f5_d1_p2_k1" not in dict(violations(model, on_time))


def assert_same_text(got, want):
    """``got == want``, reporting the first difference (pytest's diff of megabyte texts is slow)."""
    if got != want:
        pairs = enumerate(zip(got, want))
        at = next((i for i, (a, b) in pairs if a != b), min(len(got), len(want)))
        around = slice(max(at - 60, 0), at + 60)
        pytest.fail(f"texts differ at {at}: {got[around]!r} != {want[around]!r}")


HAND_WRITTEN = (
    "\\ hand\nMaximize\n obj: {obj}\nSubject To\n{rows}Bounds\n{bounds}Binaries\n{binaries}End\n"
)


class TestExportOracle:
    @pytest.mark.parametrize("strengthened", [False, True])
    @pytest.mark.parametrize("kind, size, seed", ORACLE_CASES)
    def test_export_equals_oracle(self, kind, size, seed, strengthened):
        inst, matrix = oracle_case(kind, size, seed)
        inst = with_workers(inst, 2)
        options = ModelOptions(symmetry_breaking=True, upper_bound_cut=size // 3)
        model = build_milp(inst, build_graph(inst, matrix), options if strengthened else None)
        text = export_lp(model)
        assert_same_text(text, oracle_export_lp(model))
        parsed = parse_lp(text)
        assert_same_text(export_lp(parsed), oracle_export_lp(parsed))
        assert_same_text(export_lp(parsed), text)

    @pytest.mark.parametrize(
        "obj, rows, bounds, binaries",
        [
            # no constraint rows
            ("+1.0 x1 +2.5 x2", "", " t1 >= 0\n", " x1\n x2\n"),
            # all-zero objective
            ("+0 x1", " c1: +1.0 x1 -3.0 t1 <= 1.0\n", " t1 >= 0\n", " x1\n"),
            # rhs -0.0 and 0.0 in one model, under every sense
            (
                "+1.0 x1",
                " c1: +1.0 x1 <= -0.0\n c2: +1.0 t1 <= 0.0\n c3: -1.0 x1 >= 0.0\n"
                " c4: +2.0 t1 = -0.0\n c5: +1.0 t1 >= -0.0\n c6: +1.0 x1 = 0.0\n",
                " t1 >= 0\n",
                " x1\n",
            ),
            # extreme coefficients
            (
                "+1e-300 x1",
                " c1: +1e-300 x1 -1e+300 t1 <= 1e+300\n c2: -1e-300 t1 >= -1e-300\n",
                " t1 >= 0\n",
                " x1\n",
            ),
            # a row without terms, and empty variable sections
            ("+1.0 x1", " c1: +0 x1 <= 1.0\n", "", " x1\n"),
            ("+1.0 t1", " c1: +1.0 t1 <= 1.0\n", " t1 >= 0\n", ""),
        ],
    )
    def test_hand_written_equals_oracle(self, obj, rows, bounds, binaries):
        text = HAND_WRITTEN.format(obj=obj, rows=rows, bounds=bounds, binaries=binaries)
        model = parse_lp(text)
        assert_same_text(export_lp(model), oracle_export_lp(model))


class TestNameCollisions:
    @staticmethod
    def colliding_case():
        """Ids whose old LP names collided: arcs a -> b_c and a_b -> c were both x_a_b_c_k."""
        inst = make_instance(
            [
                pickup("a", "s1", 1.0, 480.0),
                pickup("a_b", "s2", 1.0, 480.0),
                delivery("b_c", "s3", 0.0, 500.0),
                delivery("c", "s4", 0.0, 500.0),
            ],
            params=dataclasses.replace(BASE_PARAMS, workers=2),
        )
        entries = {("s1", "s3"): 1.0, ("s2", "s4"): 1.0, ("s1", "s4"): 50.0, ("s2", "s3"): 50.0}
        matrix = make_matrix(["depot", "s1", "s2", "s3", "s4"], entries, default=1.0)
        return inst, build_graph(inst, matrix)

    def test_exact_answer_and_bound(self):
        inst, graph = self.colliding_case()
        assert brute_force(inst, graph).served_count == 4
        assert compute_upper_bound(inst, graph) >= 4
        result = solve_branch_and_bound(inst, graph, SolveOptions(use_upper_bound=True))
        assert result.optimal
        assert result.solution.served_count == 4

    def test_binaries_distinct_and_round_trip(self):
        inst, graph = self.colliding_case()
        model = build_milp(inst, graph)
        text = export_lp(model)
        binaries = text.split("Binaries\n")[1].split()[:-1]  # up to "End"
        assert len(set(binaries)) == len(binaries) == 2 * len(graph.arcs) == 12
        assert {"x_a_bc_1", "x_ab_c_1"} <= set(binaries)
        assert models_equivalent(model, parse_lp(text))

    def test_safe_names_unique_alphanumeric(self):
        names = _safe_names(["0", "a_b", "ab", "ab2", "a-b", "__"])
        assert names == {"0": "0", "a_b": "ab", "ab": "ab2", "ab2": "ab22", "a-b": "ab3", "__": "n"}


def decode(inst, graph, text):
    """The routes of a ``name value`` text, through the model of ``inst`` on ``graph``."""
    model = build_milp(inst, graph)
    return values_to_solution(model, graph, read_solution_values(model, text))


def two_pairs(workers=1):
    """p1, p2 at a and d1, d2 at b: four EV arcs, no bike arc."""
    inst = make_instance(
        [
            pickup("p1", "a", 1.0, 480.0),
            delivery("d1", "b", 0.0, 700.0),
            pickup("p2", "a", 1.0, 480.0),
            delivery("d2", "b", 0.0, 700.0),
        ],
        params=dataclasses.replace(BASE_PARAMS, workers=workers),
    )
    return inst, build_graph(inst, make_matrix(["depot", "a", "b"], {}, default=5.0))


ONE_CYCLE = "x_0_p1_1 1\nx_p1_d1_1 1\nx_d1_0_1 1\nt_0_1 460\nt_p1_1 480\nt_d1_1 494\n"


class TestAssignments:
    def test_single_cycle_decodes(self, one_pair):
        inst, matrix = one_pair
        graph = build_graph(inst, matrix)
        solution = decode(inst, graph, ONE_CYCLE)
        assert solution.served_count == 2
        assert solution.routes[0].request_ids == ("p1", "d1")
        assert solution.routes[0].visits == (("p1", 480.0), ("d1", 494.0))
        assert solution.routes[0].depot_departure_min == 460.0
        assert solution.routes[0].depot_return_min == 494.0 + graph.arc("d1", "0").op_time_min

    def test_all_zero_is_empty(self, one_pair):
        inst, matrix = one_pair
        graph = build_graph(inst, matrix)
        assert decode(inst, graph, "") == Solution.empty()

    def test_two_disjoint_cycles(self):
        inst, graph = two_pairs(workers=2)
        text = ONE_CYCLE + "x_0_p2_2 1\nx_p2_d2_2 1\nx_d2_0_2 1\n"
        text += "t_0_2 465\nt_p2_2 485\nt_d2_2 499\n"
        solution = decode(inst, graph, text)
        assert solution.served_count == 4
        assert [r.request_ids for r in solution.routes] == [("p1", "d1"), ("p2", "d2")]
        assert [r.worker_index for r in solution.routes] == [0, 1]

    def test_worker_outside_instance_rejected(self, one_pair):
        inst, matrix = one_pair  # K = 1
        graph = build_graph(inst, matrix)
        text = ONE_CYCLE.replace("_1 ", "_2 ")
        with pytest.raises(ValueError, match="line 1: 'x_0_p1_2' is not a column of the model"):
            decode(inst, graph, text)
        assert decode(with_workers(inst, 2), graph, text).served_count == 2

    def test_repeated_name_rejected(self, one_pair):
        # the last value would leave d1 without a way back: "broken flow", not the cause
        inst, matrix = one_pair
        graph = build_graph(inst, matrix)
        message = r"line 7: 'x_d1_0_1' given again \(first on line 3\)"
        with pytest.raises(ValueError, match=message):
            decode(inst, graph, ONE_CYCLE + "x_d1_0_1 0\n")

    @pytest.mark.parametrize(
        "text",
        ["x_0_p1_1 1 1\n", "x_0_p1_1\n", "x_0_p1_1 one\n", "x_0_p1_1 nan\n", "t_p1_1 inf\n"],
    )
    def test_malformed_line_rejected(self, one_pair, text):
        inst, matrix = one_pair
        graph = build_graph(inst, matrix)
        with pytest.raises(ValueError, match="line 2: "):
            decode(inst, graph, "# solver output\n" + text)

    def test_isolated_cycle_rejected(self):
        inst, graph = two_pairs()
        with pytest.raises(ValueError, match="open path that does not pass through the depot"):
            decode(inst, graph, "x_p1_d1_1 1\n")
        with pytest.raises(ValueError, match=r"open path through \['p2'\] not connected"):
            decode(inst, graph, ONE_CYCLE + "x_p2_d2_1 1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x_0_p1_1 1\nx_0_p2_1 1\n", "node '0' has two outgoing arcs for worker 1"),
            ("x_0_p1_1 1\nx_p1_d1_1 1\n", "flow conservation violated at 'd1' for worker 1"),
        ],
    )
    def test_broken_flow_rejected(self, text, message):
        inst, graph = two_pairs()
        with pytest.raises(ValueError, match=message):
            decode(inst, graph, text)

    def test_fractional_value_rejected(self, one_pair):
        inst, matrix = one_pair
        graph = build_graph(inst, matrix)
        with pytest.raises(ValueError, match=r"x\[0,p1,1\] = 0.5 is not binary"):
            decode(inst, graph, ONE_CYCLE.replace("x_0_p1_1 1", "x_0_p1_1 0.5"))

    def test_solution_file_round_trip(self, one_pair):
        inst, matrix = one_pair
        graph = build_graph(inst, matrix)
        model = build_milp(inst, graph)
        solution = decode(inst, graph, "# solver output\n" + ONE_CYCLE)
        assert solution.served_count == 2
        values = solution_to_values(model, graph, solution)
        text = "".join(f"{name} {v!r}\n" for name, v in zip(model.columns, values.tolist()))
        assert np.array_equal(read_solution_values(model, text), values)
        assert decode(inst, graph, text) == solution

    def test_route_outside_model_rejected(self, one_pair):
        inst, matrix = one_pair
        graph = build_graph(inst, matrix)
        model = build_milp(inst, graph)
        route = decode(inst, graph, ONE_CYCLE).routes[0]
        for bad in (
            dataclasses.replace(route, worker_index=1),
            dataclasses.replace(route, worker_index=-1),
            dataclasses.replace(route, visits=(("p1", 480.0), ("dx", 494.0))),
            dataclasses.replace(route, visits=(("d1", 480.0), ("p1", 494.0))),
        ):
            with pytest.raises(ValueError, match="is not in the model"):
                solution_to_values(model, graph, Solution.from_routes([bad]))

    def test_parsed_model_decodes_as_built(self):
        # the LP text carries no graph: both decoders take it from the caller
        inst = with_workers(generate_instance(GeneratorConfig(request_total=8, seed=3)), 2)
        graph = build_graph(inst, matrix_for_instance(inst))
        solution = solve_branch_and_bound(inst, graph).solution
        built = build_milp(inst, graph)
        parsed = parse_lp(export_lp(built))
        values = solution_to_values(built, graph, solution)
        assert np.array_equal(solution_to_values(parsed, graph, solution), values)
        assert values_to_solution(built, graph, values) == solution
        assert values_to_solution(parsed, graph, values) == solution

    def test_model_of_another_graph_rejected(self, one_pair):
        inst, matrix = one_pair
        graph = build_graph(inst, matrix)
        model = build_milp(*two_pairs())
        with pytest.raises(ValueError, match="not K times the graph's 3 arcs and 3 nodes"):
            values_to_solution(model, graph, np.zeros(len(model.columns)))
        with pytest.raises(ValueError, match="not K times the graph's"):
            solution_to_values(model, graph, Solution.empty())


class TestCrossValidation:
    def test_solver_solutions_satisfy_all_rows(self):
        for seed in range(12):
            inst = generate_instance(GeneratorConfig(request_total=8, seed=seed))
            inst = dataclasses.replace(
                inst, parameters=dataclasses.replace(inst.parameters, workers=2)
            )
            matrix = matrix_for_instance(inst)
            graph = build_graph(inst, matrix)
            solution = solve_branch_and_bound(inst, graph).solution
            model = build_milp(inst, graph)
            bad = violations(model, solution_to_values(model, graph, solution))
            assert not bad, (seed, bad[:5])

    def test_strengthened_model_admits_reordered_optimum(self):
        # certificate that adding the symmetry and cap rows keeps the
        # optimum: reorder optimal routes by non-increasing cost and check
        # every row of the strengthened model
        for seed in range(8):
            inst = generate_instance(GeneratorConfig(request_total=8, seed=seed))
            inst = dataclasses.replace(
                inst, parameters=dataclasses.replace(inst.parameters, workers=2)
            )
            matrix = matrix_for_instance(inst)
            graph = build_graph(inst, matrix)
            result = solve_branch_and_bound(inst, graph)
            assert result.optimal
            bound = compute_upper_bound(inst, graph)
            routes = sorted(
                result.solution.routes,
                key=lambda r: -route_operational_cost(graph, r),
            )
            reordered = Solution.from_routes(
                [dataclasses.replace(r, worker_index=i) for i, r in enumerate(routes)]
            )
            model = build_milp(
                inst,
                graph,
                ModelOptions(symmetry_breaking=True, upper_bound_cut=bound),
            )
            bad = violations(model, solution_to_values(model, graph, reordered))
            assert not bad, (seed, bad[:5])
