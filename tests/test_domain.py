import dataclasses
import json
import math

import pytest

from evrelocate import (
    Parameters,
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
from conftest import BASE_PARAMS, delivery, make_instance, pickup


def route(worker, visits):
    times = [t for _, t in visits]
    return Route(worker, tuple(visits), min(times) - 5, max(times) + 5)


class TestServedCount:
    def test_empty_solution(self):
        assert served_count(Solution.empty()) == 0

    def test_single_route(self):
        sol = Solution.from_routes([route(0, [("p1", 480.0), ("d1", 500.0)])])
        assert served_count(sol) == 2

    def test_two_routes_disjoint(self):
        sol = Solution.from_routes(
            [
                route(0, [("p1", 480.0), ("d1", 500.0)]),
                route(1, [("p2", 490.0), ("d2", 520.0)]),
            ]
        )
        assert served_count(sol) == 4

    def test_duplicate_across_routes_rejected(self):
        sol = Solution(
            routes=(
                route(0, [("p1", 480.0), ("d1", 500.0)]),
                route(1, [("p1", 490.0), ("d2", 520.0)]),
            ),
            served_count=4,
        )
        with pytest.raises(ValueError, match="more than once"):
            served_count(sol)


class TestMinutesOf:
    def test_ev_speed(self):
        assert minutes_of(25.0, 10.0) == pytest.approx(24.0)

    def test_bike_speed(self):
        assert minutes_of(15.0, 3.0) == pytest.approx(12.0)

    def test_zero_distance(self):
        assert minutes_of(40.0, 0.0) == 0.0

    def test_nonpositive_speed(self):
        with pytest.raises(ValueError):
            minutes_of(0.0, 1.0)
        with pytest.raises(ValueError):
            minutes_of(-3.0, 1.0)


class TestValidation:
    def test_parameters_must_be_positive(self):
        with pytest.raises(ValueError):
            Parameters(0.0, 240, 300, 1, 25, 15, 1, 1)
        with pytest.raises(ValueError):
            Parameters(150, 240, 300, 0, 25, 15, 1, 1)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(Parameters) if f.name != "workers"]
    )
    def test_parameters_must_be_finite(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            dataclasses.replace(BASE_PARAMS, **{name: bad})

    def test_charge_bounds(self):
        with pytest.raises(ValueError):
            pickup("p1", "a", 1.5, 480.0)
        with pytest.raises(ValueError):
            pickup("p1", "a", -0.1, 480.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            delivery("d1", "a", 0.5, -1.0)

    def test_non_finite_time_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                pickup("p1", "a", 0.5, bad)
            with pytest.raises(ValueError, match="finite"):
                delivery("d1", "a", 0.5, bad)

    def test_depot_sentinel_id_rejected(self):
        with pytest.raises(ValueError):
            pickup("0", "a", 0.5, 480.0)

    def test_duplicate_request_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_instance([pickup("p1", "a", 0.5, 480.0), pickup("p1", "b", 0.6, 490.0)])


class TestJsonRoundTrip:
    def test_instance_round_trip(self):
        inst = make_instance(
            [pickup("p1", "a", 0.25, 480.0), delivery("d1", "b", 0.5, 700.0)]
        )
        text = instance_to_json(inst)
        again = instance_from_json(text)
        assert again == inst
        assert instance_to_json(again) == text

    def test_instance_format_version_checked(self):
        with pytest.raises(ValueError, match="format_version"):
            instance_from_json('{"format_version": 99}')

    def test_malformed_fields_named(self):
        inst = make_instance([pickup("p1", "a", 0.25, 480.0)])
        good = json.loads(instance_to_json(inst))
        cases = [
            (("parameters", "max_speed"), 3.0, r"unknown keys \['max_speed'\]"),
            (("requests", 0, "time_min"), "480", r"requests\[0\]\.time_min"),
            (("requests", 0, "charge"), None, r"requests\[0\]\.charge"),
            (("parameters", "workers"), "2", "parameters.workers"),
        ]
        for path, value, message in cases:
            doc = json.loads(json.dumps(good))
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            with pytest.raises(ValueError, match=message):
                instance_from_json(json.dumps(doc))
        doc = json.loads(json.dumps(good))
        del doc["parameters"]["workers"]
        with pytest.raises(ValueError, match=r"missing keys \['workers'\]"):
            instance_from_json(json.dumps(doc))
        with pytest.raises(ValueError, match="object"):
            instance_from_json("[]")

    def test_wrong_type_ids_and_coordinates_named(self):
        inst = make_instance([pickup("p1", "a", 0.25, 480.0)])
        good = json.loads(instance_to_json(inst))
        good["depot"]["coordinates"] = [0.0, 0.0]
        cases = [
            (("requests", 0, "id"), 7, r"requests\[0\]\.id must be a string, got 7"),
            (
                ("requests", 0, "location", "id"),
                ["a"],
                r"requests\[0\]\.location\.id must be a string",
            ),
            (("depot", "id"), None, r"depot\.id must be a string"),
            (("depot", "network_node"), 3, r"depot\.network_node must be a string"),
            (("depot", "coordinates"), 5, r"depot\.coordinates must be a list, got 5"),
            (("depot", "coordinates"), ["0", 0.0], r"depot\.coordinates must be a number, got '0'"),
        ]
        for path, value, message in cases:
            doc = json.loads(json.dumps(good))
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            with pytest.raises(ValueError, match=message):
                instance_from_json(json.dumps(doc))
        assert instance_from_json(json.dumps(good)).depot.coordinates == (0.0, 0.0)

    def test_nan_time_in_json_rejected(self):
        text = instance_to_json(make_instance([pickup("p1", "a", 0.25, 480.0)]))
        with pytest.raises(ValueError, match="finite"):
            instance_from_json(text.replace("480.0", "NaN"))

    def test_infinite_parameter_in_json_rejected(self):
        doc = json.loads(instance_to_json(make_instance([pickup("p1", "a", 0.25, 480.0)])))
        doc["parameters"]["max_range_km"] = math.inf
        text = json.dumps(doc)
        assert '"max_range_km": Infinity' in text
        with pytest.raises(ValueError, match="max_range_km must be finite"):
            instance_from_json(text)

    def test_solution_round_trip(self):
        sol = Solution.from_routes([route(0, [("p1", 480.0), ("d1", 520.5)])])
        text = solution_to_json(sol)
        assert solution_from_json(text) == sol

    def test_malformed_solution_named(self):
        good = json.loads(
            solution_to_json(Solution.from_routes([route(0, [("p1", 480.0), ("d1", 520.5)])]))
        )
        cases = [
            (("routes", 0, "visits", 0, "time_min"), "480", r"routes\[0\]\.visits\[0\]\.time_min"),
            (("routes", 0, "depot_return_min"), None, r"routes\[0\]\.depot_return_min"),
            (("routes", 0, "worker_index"), 0.5, r"routes\[0\]\.worker_index must be an integer"),
            (("served_count",), 40, "served_count is 40, but the routes visit 2 distinct"),
            (("served_count",), True, "served_count must be a number"),
        ]
        for path, value, message in cases:
            doc = json.loads(json.dumps(good))
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            with pytest.raises(ValueError, match=message):
                solution_from_json(json.dumps(doc))
        with pytest.raises(ValueError, match="object"):
            solution_from_json("[]")
        doc = json.loads(json.dumps(good))
        doc["routes"][0]["visits"].append({"request_id": "p1", "time_min": 530.0})
        doc["served_count"] = 3
        with pytest.raises(ValueError, match="'p1' served more than once"):
            solution_from_json(json.dumps(doc))

    def test_kind_strings_are_canonical(self):
        inst = make_instance([pickup("p1", "a", 0.25, 480.0)])
        assert '"kind": "pickup"' in instance_to_json(inst)
        assert RequestKind("delivery") is RequestKind.DELIVERY
