import dataclasses
import json
import math

import pytest

from evrelocate import (
    DEFAULT_PARAMETERS,
    Instance,
    Location,
    Request,
    RequestKind,
    instance_from_json,
    instance_to_json,
    solution_from_json,
)
import evrelocate.search
from evrelocate.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_writes_instance_json(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code, _, _ = run(capsys, "generate", "--size", "6", "--seed", "3", "--out", str(out))
        assert code == 0
        inst = instance_from_json(out.read_text())
        assert len(inst.requests) == 6

    def test_stations_file(self, tmp_path, capsys):
        stations = tmp_path / "stations.csv"
        stations.write_text("id,x,y\ndepot,0,0\nsA,1,0\nsB,0,1\n")
        out = tmp_path / "inst.json"
        code, _, _ = run(
            capsys,
            "generate", "--size", "4", "--seed", "1",
            "--stations-file", str(stations), "--out", str(out),
        )
        assert code == 0
        inst = instance_from_json(out.read_text())
        assert {r.location.id for r in inst.requests} <= {"sA", "sB"}
        assert inst.depot.id == "depot"

    def test_malformed_stations_file_exits_2(self, tmp_path, capsys):
        stations = tmp_path / "stations.csv"
        stations.write_text("id,x,y\ndepot,0,0\nsA,1\n")
        code, _, err = run(
            capsys, "generate", "--stations-file", str(stations), "--out", str(tmp_path / "x.json")
        )
        assert code == 2
        assert "expected id,x,y" in err

    def test_odd_size_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "generate", "--size", "7", "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "error" in err


class TestSolveAndCheck:
    @pytest.fixture
    def instance_file(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        run(capsys, "generate", "--size", "8", "--seed", "7", "--out", str(out))
        return out

    def test_solve_exact_writes_valid_solution(self, tmp_path, capsys, instance_file):
        sol_path = tmp_path / "sol.json"
        code, out, _ = run(
            capsys,
            "solve", "--instance", str(instance_file), "--workers", "2",
            "--out", str(sol_path),
        )
        assert code == 0
        assert "served" in out
        solution = solution_from_json(sol_path.read_text())
        assert solution.served_count >= 0

    @pytest.mark.parametrize(
        "mode, note",
        [
            ([], "optimal=True bound=4 nodes=1]"),
            (["--node-limit", "1"], "optimal=False bound=6 nodes=2]"),
        ],
        ids=["baseline", "stopped"],
    )
    def test_solve_prints_the_bound(self, tmp_path, capsys, monkeypatch, instance_file, mode, note):
        if mode:  # the node limit stops the single-worker searches past the route cap
            monkeypatch.setattr(evrelocate.search, "ROUTE_CAP", 0)
        code, out, _ = run(
            capsys, "solve", "--instance", str(instance_file), "--workers", "2", *mode,
            "--out", str(tmp_path / "sol.json"),
        )
        assert code == 0
        assert note in out

    def test_heuristic_mode(self, tmp_path, capsys, instance_file):
        sol_path = tmp_path / "heur.json"
        code, out, _ = run(
            capsys,
            "solve", "--instance", str(instance_file), "--heuristic", "--out", str(sol_path),
        )
        assert code == 0
        assert "heuristic" in out

    @pytest.mark.parametrize("mode", [[], ["--heuristic"]], ids=["exact", "heuristic"])
    def test_nan_time_limit_exits_2(self, capsys, instance_file, mode):
        code, out, err = run(
            capsys, "solve", "--instance", str(instance_file), *mode, "--time-limit", "nan"
        )
        assert code == 2
        assert err.startswith("error: time_limit_s must be positive and finite"), err
        assert out == ""

    def test_check_accepts_solver_output(self, tmp_path, capsys, instance_file):
        sol_path = tmp_path / "sol.json"
        run(capsys, "solve", "--instance", str(instance_file), "--out", str(sol_path))
        code, out, _ = run(
            capsys, "check", "--instance", str(instance_file), "--solution", str(sol_path)
        )
        assert code == 0
        assert "0 violated" in out

    def test_check_rejects_corrupted_solution(self, tmp_path, capsys, instance_file):
        sol_path = tmp_path / "sol.json"
        run(capsys, "solve", "--instance", str(instance_file), "--out", str(sol_path))
        doc = json.loads(sol_path.read_text())
        if not doc["routes"]:
            pytest.skip("seed produced an empty optimum")
        doc["routes"][0]["visits"][0]["time_min"] = 0.0  # break the release time
        sol_path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "check", "--instance", str(instance_file), "--solution", str(sol_path)
        )
        assert code == 2
        assert "family" in out

    def test_malformed_solution_exits_2(self, tmp_path, capsys, instance_file):
        sol_path = tmp_path / "sol.json"
        run(capsys, "solve", "--instance", str(instance_file), "--out", str(sol_path))
        good = json.loads(sol_path.read_text())
        assert good["routes"]
        text_time = json.loads(json.dumps(good))
        text_time["routes"][0]["visits"][0]["time_min"] = "480"
        overclaimed = json.loads(json.dumps(good))
        overclaimed["served_count"] = 40
        int_route = dict(good, routes=[5])
        int_visit = json.loads(json.dumps(good))
        int_visit["routes"][0]["visits"][1] = 7
        cases = (
            ([good], "must be an object"),
            (int_route, "routes[0] must be an object, got 5"),
            (int_visit, "routes[0].visits[1] must be an object, got 7"),
            (dict(good, routes=5), "routes must be a list, got 5"),
            (text_time, "routes[0].visits[0].time_min must be a number"),
            (overclaimed, f"served_count is 40, but the routes visit {good['served_count']}"),
        )
        for doc, message in cases:
            sol_path.write_text(json.dumps(doc))
            code, out, err = run(
                capsys, "check", "--instance", str(instance_file), "--solution", str(sol_path)
            )
            assert code == 2
            assert err.startswith("error: ") and message in err, err
            assert "Traceback" not in err
            assert out == ""

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "solve", "--instance", str(bad))
        assert code == 2
        assert "error" in err

    def test_malformed_instance_exits_2(self, tmp_path, capsys, instance_file):
        good = json.loads(instance_file.read_text())
        unknown = json.loads(json.dumps(good))
        unknown["parameters"]["max_speed"] = 3.0
        text_time = json.loads(json.dumps(good))
        text_time["requests"][0]["time_min"] = "480"
        for doc, field in ((unknown, "max_speed"), (text_time, "time_min")):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            code, _, err = run(capsys, "solve", "--instance", str(bad))
            assert code == 2
            assert field in err

    def test_wrong_type_instance_entry_exits_2(self, tmp_path, capsys, instance_file):
        good = json.loads(instance_file.read_text())
        int_request = json.loads(json.dumps(good))
        int_request["requests"][1] = 5
        int_location = json.loads(json.dumps(good))
        int_location["requests"][0]["location"] = 3
        cases = (
            (int_request, "requests[1] must be an object, got 5"),
            (int_location, "requests[0].location must be an object, got 3"),
            (dict(good, depot="depot"), "depot must be an object, got 'depot'"),
            (dict(good, parameters=[]), "parameters must be an object, got []"),
        )
        sol_path = tmp_path / "sol.json"
        run(capsys, "solve", "--instance", str(instance_file), "--out", str(sol_path))
        for doc, message in cases:
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            code, out, err = run(capsys, "check", "--instance", str(bad), "--solution", str(sol_path))
            assert code == 2
            assert err.startswith("error: ") and message in err, err
            assert "Traceback" not in err
            assert out == ""

    @pytest.mark.parametrize("name", ["max_range_km", "shift_limit_min"])
    def test_infinite_parameter_exits_2(self, tmp_path, capsys, instance_file, name):
        doc = json.loads(instance_file.read_text())
        doc["parameters"][name] = math.inf
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "export-lp", "--instance", str(bad), "--out", "-")
        assert code == 2
        assert f"{name} must be finite" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("requests", 0, "id"), 5, "requests[0].id must be a string, got 5"),
            (("depot", "coordinates"), 5, "depot.coordinates must be a list, got 5"),
            (("requests", 1, "location", "id"), ["s1"], "requests[1].location.id must be a string"),
        ],
        ids=["request-id", "coordinates", "location-id"],
    )
    def test_wrong_type_id_or_coordinates_exits_2(
        self, tmp_path, capsys, instance_file, path, value, message
    ):
        doc = json.loads(instance_file.read_text())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", "--instance", str(bad))
        assert code == 2
        assert err.startswith("error: ") and message in err, err
        assert "Traceback" not in err
        assert out == ""


def two_station_instance(distance_source, network_nodes=False):
    """p1@a -> d1@b, then p2@b -> d2@a: one worker serves all four requests."""
    def loc(name):
        return Location(name, network_node=name if network_nodes else None)

    a, b = loc("a"), loc("b")
    requests = (
        Request("p1", RequestKind.PICKUP, a, 1.0, 480.0),
        Request("d1", RequestKind.DELIVERY, b, 0.0, 600.0),
        Request("p2", RequestKind.PICKUP, b, 1.0, 610.0),
        Request("d2", RequestKind.DELIVERY, a, 0.0, 720.0),
    )
    params = dataclasses.replace(DEFAULT_PARAMETERS, workers=1)
    return Instance(params, loc("depot"), requests, distance_source)


class TestInstanceFiles:
    def test_one_way_station_solves(self, tmp_path, capsys):
        # no road from b back to the depot: a route may pass through b but
        # not end there
        source = {
            "type": "matrix",
            "ids": ["depot", "a", "b"],
            "rows": [[0.0, 5.0, 5.0], [5.0, 0.0, 5.0], [None, 5.0, 0.0]],
        }
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(instance_to_json(two_station_instance(source)))
        for mode in ((), ("--heuristic",)):
            sol_path = tmp_path / "sol.json"
            code, out, err = run(
                capsys, "solve", "--instance", str(inst_path), *mode, "--out", str(sol_path)
            )
            assert code == 0, err
            assert solution_from_json(sol_path.read_text()).served_count == 4, out

    def test_road_network_files_resolve_next_to_instance(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "nodes.csv").write_text("id,x,y\ndepot,0,0\na,3,0\nb,0,4\n")
        (tmp_path / "links.csv").write_text(
            "from,to,length_km\ndepot,a,5\na,depot,5\ndepot,b,5\nb,depot,5\na,b,5\nb,a,5\n"
        )
        source = {"type": "road_network", "nodes_csv": "nodes.csv", "links_csv": "links.csv"}
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(instance_to_json(two_station_instance(source, network_nodes=True)))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        sol_path = tmp_path / "sol.json"
        code, _, err = run(capsys, "solve", "--instance", str(inst_path), "--out", str(sol_path))
        assert code == 0, err
        assert solution_from_json(sol_path.read_text()).served_count == 4
        code, out, err = run(
            capsys, "check", "--instance", str(inst_path), "--solution", str(sol_path)
        )
        assert code == 0, err
        assert "0 violated" in out
        code, _, err = run(capsys, "export-lp", "--instance", str(inst_path), "--out", "model.lp")
        assert code == 0, err
        assert "Maximize" in (elsewhere / "model.lp").read_text()


MATRIX_SOURCE = {
    "type": "matrix",
    "ids": ["depot", "a", "b"],
    "rows": [[0.0, 5.0, 5.0], [5.0, 0.0, 5.0], [5.0, 5.0, 0.0]],
}


@pytest.mark.parametrize(
    "source, message",
    [
        (["matrix"], "distance_source must be an object, got ['matrix']"),
        ("euclidean", "distance_source must be an object, got 'euclidean'"),
        (
            {"type": "euclidean", "detour_factor": {"x": 1}},
            "distance_source.detour_factor must be a number, got {'x': 1}",
        ),
        (dict(MATRIX_SOURCE, rows=3), "distance_source.rows must be a list, got 3"),
        (dict(MATRIX_SOURCE, ids=3), "distance_source.ids must be a list, got 3"),
        (
            dict(MATRIX_SOURCE, rows=[[0.0, 5.0, 5.0], [5.0, {}, 5.0], [5.0, 5.0, 0.0]]),
            "distance_source.rows[1][1] must be a number, got {}",
        ),
        (
            {"type": "road_network", "nodes_csv": 5, "links_csv": "links.csv"},
            "distance_source.nodes_csv must be a path, got 5",
        ),
    ],
    ids=["list", "string", "detour-object", "rows-int", "ids-int", "cell-object", "path-int"],
)
def test_malformed_distance_source_exits_2(tmp_path, capsys, source, message):
    doc = json.loads(instance_to_json(two_station_instance(MATRIX_SOURCE)))
    doc["distance_source"] = source
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", "--instance", str(bad))
    assert code == 2
    assert err.startswith("error: ") and message in err, err
    assert "Traceback" not in err
    assert out == ""


class TestExportLp:
    def test_export_and_reparse(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        run(capsys, "generate", "--size", "6", "--seed", "2", "--out", str(inst_path))
        lp_path = tmp_path / "model.lp"
        code, _, _ = run(
            capsys,
            "export-lp", "--instance", str(inst_path), "--workers", "2",
            "--symmetry-breaking", "--upper-bound", "4", "--out", str(lp_path),
        )
        assert code == 0
        text = lp_path.read_text()
        assert "Maximize" in text
        assert "f14_k1_k2" in text
        assert "f15" in text


class TestBench:
    def test_nan_time_limit_exits_2(self, capsys):
        code, out, err = run(
            capsys, "bench", "--sizes", "4", "--seeds", "1", "--workers", "1", "--time-limit", "nan"
        )
        assert code == 2
        assert err.startswith("error: time_limit_s must be positive and finite"), err
        assert out == ""

    def test_small_pipeline(self, tmp_path, capsys):
        report_path = tmp_path / "report.csv"
        code, _, _ = run(
            capsys,
            "bench", "--sizes", "6", "--seeds", "1,2", "--workers", "1,2",
            "--report-format", "csv", "--time-limit", "10",
            "--out", str(report_path),
        )
        assert code == 0
        from evrelocate import parse_report_csv

        records = parse_report_csv(report_path.read_text())
        assert len(records) == 4
