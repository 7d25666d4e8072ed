from dataclasses import replace

import numpy as np
import pytest

from evrelocate import (
    GeneratorConfig,
    RequestKind,
    brute_force,
    build_graph,
    emit_report,
    generate_instance,
    instance_to_json,
    matrix_for_instance,
    parse_report_csv,
    run_experiment,
)
from evrelocate.bench import ExperimentRecord


class TestGenerator:
    def test_balanced_kinds_and_window(self):
        inst = generate_instance(GeneratorConfig(request_total=10, seed=1))
        assert len(inst.pickups) == 5
        assert len(inst.deliveries) == 5
        for req in inst.requests:
            assert 480.0 <= req.time_min <= 900.0
            assert 0.0 <= req.charge <= 1.0

    def test_default_parameters(self):
        inst = generate_instance(GeneratorConfig(request_total=10, seed=1))
        p = inst.parameters
        assert p.shift_limit_min == 300.0
        assert p.ev_speed_kmh == 25.0
        assert p.bike_speed_kmh == 15.0
        assert p.park_and_unload_min == 1.0
        assert p.load_and_exit_min == 1.0
        assert p.max_range_km == 150.0
        assert p.recharge_time_min == 240.0

    def test_seed_determinism_bytewise(self):
        a = generate_instance(GeneratorConfig(request_total=20, seed=99))
        b = generate_instance(GeneratorConfig(request_total=20, seed=99))
        assert instance_to_json(a) == instance_to_json(b)

    def test_different_seeds_differ(self):
        a = generate_instance(GeneratorConfig(request_total=10, seed=1))
        b = generate_instance(GeneratorConfig(request_total=10, seed=2))
        assert instance_to_json(a) != instance_to_json(b)

    def test_empty_instance(self):
        inst = generate_instance(GeneratorConfig(request_total=0, seed=0))
        assert inst.requests == ()

    def test_odd_total_rejected(self):
        with pytest.raises(ValueError, match="even"):
            GeneratorConfig(request_total=9)

    def test_charge_bounds_respected(self):
        inst = generate_instance(GeneratorConfig(request_total=40, seed=3))
        for req in inst.requests:
            if req.kind is RequestKind.PICKUP:
                assert 0.1 <= req.charge <= 1.0
            else:
                assert 0.2 <= req.charge <= 0.9

    def test_stations_sampled_with_replacement(self):
        inst = generate_instance(GeneratorConfig(request_total=40, seed=5))
        used = {r.location.id for r in inst.requests}
        assert used <= {f"s{i}" for i in range(1, 10)}
        assert len(used) > 1


def small_instances():
    return [
        (f"t6_{seed}", generate_instance(GeneratorConfig(request_total=6, seed=seed)))
        for seed in (1, 2)
    ]


def small_records():
    return run_experiment(small_instances(), [1, 2], time_limit_s=10.0)


class TestExperiment:
    def test_record_cardinality(self):
        records = small_records()
        assert len(records) == 4  # 2 instances x 2 worker counts

    def test_served_monotone_in_workers(self):
        records = small_records()
        by_name = {}
        for rec in records:
            by_name.setdefault(rec.instance_name, {})[rec.workers] = rec
        for cells in by_name.values():
            assert cells[2].served_pct >= cells[1].served_pct

    def test_configurations_agree_when_optimal(self):
        # a proved cell serves what the brute-force oracle serves
        instances = dict(small_instances())
        for rec in small_records():
            if rec.optimal:
                inst = instances[rec.instance_name]
                inst = replace(inst, parameters=replace(inst.parameters, workers=rec.workers))
                graph = build_graph(inst, matrix_for_instance(inst))
                assert rec.objective == brute_force(inst, graph).served_count


class TestReports:
    def test_served_and_cpu_columns(self):
        rec = ExperimentRecord(
            instance_name="x", request_count=10, workers=2, served_pct=80.0, objective=8,
            cpu_s=0.014, optimal=False,
        )
        text = emit_report([rec], "text")
        assert text.splitlines()[0].split("\t") == ["Instance", "Req", "K=2 Served", "CPU"]
        assert "x\t10\t80%*\t0.01" in text

    def test_single_record_report_has_data_and_average_rows(self):
        records = small_records()[:1]
        text = emit_report(records, "text")
        lines = [l for l in text.splitlines() if l.strip()]
        assert any(l.startswith("t6_1") for l in lines)
        assert any(l.startswith("6") for l in lines)  # per-size average row

    def test_csv_round_trip(self):
        records = small_records()
        text = emit_report(records, "csv")
        assert parse_report_csv(text) == records

    def test_json_report(self):
        import json

        records = small_records()
        doc = json.loads(emit_report(records, "json"))
        assert len(doc) == len(records)
        assert doc[0]["instance_name"] == records[0].instance_name

    def test_averages_match_hand_mean(self):
        records = small_records()
        text = emit_report(records, "text")
        k1 = [r for r in records if r.workers == 1]
        expected = float(np.mean([r.served_pct for r in k1]))
        average_line = [l for l in text.splitlines() if l.startswith("6\t")][0]
        shown = float(average_line.split("\t")[1].rstrip("%"))
        assert abs(shown - round(expected)) <= 0.5  # printed at 0 decimals

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            emit_report([], "text")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            emit_report(small_records()[:1], "xml")
