"""Tests of the benchmark runner itself, on instances small enough to take seconds.

Run from the checkout root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())

TINY = {
    "exact-paper": replace(run.WORKLOADS["exact-paper"], size=8),
    "anytime-200": replace(run.WORKLOADS["anytime-200"], size=20, time_limit_s=0.2),
    "export-400": replace(run.WORKLOADS["export-400"], size=12),
}


def result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_tiny_workloads_are_the_declared_ones():
    assert set(TINY) == set(run.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_completes_with_declared_metrics(name, trace, capsys):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, workloads=TINY) == 0
    result = result_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_instances():
    mods = run.load_package()
    wl = TINY["anytime-200"]
    assert run.generate(mods, wl, 5, 0) == run.generate(mods, wl, 5, 0)
    assert run.generate(mods, wl, 5, 0) != run.generate(mods, wl, 6, 0)


def test_set_up_during_a_run_keeps_the_modules_in_use():
    mods = run.load_package()
    assert run.time_set_up(TINY["exact-paper"], 1) > 0
    assert sys.modules["evrelocate.search"] is mods.search
    assert sys.modules["evrelocate"].domain is mods.domain


def _shift_delivery(mods, solve):
    """Wrap a solver so that one delivery is claimed five minutes early."""

    def shifted(*args, **kwargs):
        result = solve(*args, **kwargs)
        route = result.solution.routes[0]
        visits = list(route.visits)
        rid, t = visits[1]
        visits[1] = (rid, t - 5.0)
        tampered = replace(route, visits=tuple(visits))
        solution = mods.domain.Solution.from_routes((tampered,) + result.solution.routes[1:])
        return replace(result, solution=solution)

    return shifted


def test_shifted_visit_time_is_a_failed_operation(monkeypatch):
    mods = run.load_package()
    wl = replace(TINY["exact-paper"], paper=False, workers=(1,))
    text = run.generate(mods, wl, 1, 0)
    (clean,) = list(run.solve_cells(mods, wl, 0, text, None))
    assert clean.problems == [] and clean.default.served > 0
    monkeypatch.setattr(
        mods.search, "solve_branch_and_bound", _shift_delivery(mods, mods.search.solve_branch_and_bound)
    )
    (op,) = list(run.solve_cells(mods, wl, 0, text, None))
    assert any("check_solution fails" in p for p in op.problems)


def _exports(mods, wl, text, count):
    references = {k: run.export_reference(mods, text, k) for k in wl.workers}
    return list(islice(run.export_cells(mods, wl, text, references, None), count))


def test_truncated_lp_is_a_failed_operation(monkeypatch):
    mods = run.load_package()
    wl = TINY["export-400"]
    text = run.generate(mods, wl, 1, 0)
    export = mods.milp.export_lp
    monkeypatch.setattr(mods.milp, "export_lp", lambda model: export(model)[: -200])
    ops = _exports(mods, wl, text, 2)
    assert all(any("parse_lp" in p for p in op.problems) for op in ops)


def test_export_that_differs_from_the_reference_is_a_failed_operation(monkeypatch):
    mods = run.load_package()
    wl = TINY["export-400"]
    text = run.generate(mods, wl, 1, 0)
    export = mods.milp.export_lp
    calls = []

    def drifting(model):
        calls.append(1)
        return export(model) + ("\\ extra\n" if len(calls) == 2 else "")

    monkeypatch.setattr(mods.milp, "export_lp", drifting)
    ops = _exports(mods, wl, text, 2)
    assert [bool(op.problems) for op in ops] == [True, False]


def test_exception_is_a_failed_operation(monkeypatch):
    mods = run.load_package()
    wl = TINY["anytime-200"]
    text = run.generate(mods, wl, 1, 0)

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(mods.actiongraph, "build_graph", broken)
    ops = list(run.solve_cells(mods, wl, 0, text, None))
    assert len(ops) == len(wl.workers)
    assert all("boom" in op.problems[0] for op in ops)


def test_missing_trace_target_fails_loudly(monkeypatch, capsys):
    monkeypatch.setattr(run, "TRACE_TARGETS", run.TRACE_TARGETS + [("evrelocate.search", "gone")])
    argv = ["--workload", "export-400", "--seed", "1", "--seconds", "0", "--trace", "1"]
    assert run.main(argv, workloads=TINY) != 0
    captured = capsys.readouterr()
    assert "evrelocate.search.gone" in captured.err
    assert '"correct"' not in captured.out


def test_without_the_package_sources_it_exits_nonzero(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(run.CHECKOUT / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "export-400", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=tmp_path, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
