"""Tests of the benchmark itself, at 2^10 lines.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import compare
import layers
import run
import workloads
from tracer import ROOT, Tracer
from workloads import TINY, WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.fixture(scope="module")
def units():
    """One clean unit of every workload."""
    return {name: workloads.run_unit(w, 3, TINY)
            for name, w in WORKLOADS.items()}


def _corrupt(record, **changes):
    return dataclasses.replace(record, problems=[], **changes)


def _problems(record):
    workload = WORKLOADS[record.workload]
    return workloads.common_problems(record) + workload.check(record, TINY)


# ---------------------------------------------------------------- checks


def test_clean_units_pass_every_check(units):
    for record in units.values():
        assert record.problems == [], record


def test_wear_conservation_check_fires(units):
    for record in units.values():
        bad = _corrupt(record, sum_wear=record.sum_wear + 1)
        assert any("sum(wear)" in p for p in _problems(bad))


@pytest.mark.parametrize("changes, needle", [
    ({"failed": False}, "without a line failure"),
    ({"max_wear": 1999}, "max wear"),
    ({"total_writes": 1_000_000, "sum_wear": 1_000_000}, "wear ratio"),
])
def test_lifetime_checks_fire(units, changes, needle):
    bad = _corrupt(units["ff-lifetime"], **changes)
    assert any(needle in p for p in _problems(bad))


@pytest.mark.parametrize("changes, needle", [
    ({"failed": True}, "device failed"),
    ({"user_writes": TINY.replay_writes - 1}, "replayed"),
])
def test_replay_checks_fire(units, changes, needle):
    bad = _corrupt(units["tenant-replay"], **changes)
    assert any(needle in p for p in _problems(bad))


def test_replay_prefix_matches_scalar_and_check_fires():
    assert workloads.replay_prefix_problems(3, TINY) == []
    replay = workloads.TenantReplay()
    built = replay.build(3, TINY)
    result = workloads.engine.run_trace_fast(
        built.controller, built.source.chunks(500))
    wear = built.controller.array.wear
    assert workloads.compare_replays(result, wear, result, wear.copy()) == []
    worn = wear.copy()
    worn[0] += 1
    assert workloads.compare_replays(result, wear, result, worn)
    other = dataclasses.replace(result, total_writes=result.total_writes + 1)
    assert workloads.compare_replays(result, wear, other, wear)


@pytest.mark.parametrize("changes, needle", [
    ({"failed": False}, "without a device failure"),
    ({"detection_writes": 0}, "detection writes"),
    ({"detection_writes": 10**9}, "detection writes"),
])
def test_attack_checks_fire(units, changes, needle):
    bad = _corrupt(units["rta-rbsg"], **changes)
    assert any(needle in p for p in _problems(bad))


def test_unit_that_raises_is_a_recorded_failure(monkeypatch):
    workload = WORKLOADS["rta-rbsg"]

    def boom(built, sizes, tracer):
        raise RuntimeError("boom")

    monkeypatch.setattr(workload, "run", boom)
    record = workloads.run_unit(workload, 1, TINY)
    assert len(record.problems) == 1 and "boom" in record.problems[0]


# ---------------------------------------------------------------- tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(seconds):
        clock.now += seconds

    def middle():
        clock.now += 1.0
        tracer.call("leaf", leaf, (2.0,), {})
        tracer.call("leaf", leaf, (3.0,), {})
        clock.now += 0.5

    def outer():
        tracer.call("middle", middle, (), {})
        clock.now += 4.0

    tracer.call("outer", outer, (), {})
    tracer.call("leaf", leaf, (7.0,), {})
    assert tracer.total_s("outer") == 10.5
    assert tracer.self_s("outer") == 4.0
    assert tracer.self_s("middle") == 1.5
    assert tracer.total_s("leaf", "middle") == 5.0
    assert tracer.calls("leaf", "middle") == 2
    assert tracer.calls("leaf", ROOT) == 1
    assert tracer.self_s("leaf") == 12.0
    # Self times partition the top-level spans.
    total_self = sum(row["self_s"] for row in tracer.table())
    assert total_self == sum(tracer.top_level().values()) == 17.5
    assert tracer.top_level() == {"outer": 10.5, "leaf": 7.0}


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.call("boom", boom, (), {})
    assert tracer.calls("boom") == 1 and tracer.self_s("boom") == 1.0
    assert tracer._stack == []


def test_wrap_and_unwrap_instance_and_module():
    class Thing:
        def double(self, x):
            return 2 * x

    thing = Thing()
    original = workloads.derive
    tracer = Tracer()
    tracer.wrap(thing, "double", "thing.double")
    tracer.wrap(workloads, "derive", "derive")
    assert thing.double(4) == 8
    assert workloads.derive is not original
    assert workloads.derive(1, "a") == original(1, "a")
    assert tracer.calls("thing.double") == 1 and tracer.calls("derive") == 1
    tracer.unwrap()
    assert "double" not in vars(thing)
    assert workloads.derive is original


# ---------------------------------------------------- determinism, layers


def _traced(name, seed=5):
    return run.traced(WORKLOADS[name], seed, 1.0, TINY)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(name):
    first, second = _traced(name), _traced(name)
    for result in (first, second):
        assert all(r.problems == [] for r in result["records"])
    counts = [n for n, unit in layers.METRICS if unit in layers.COUNT_UNITS]
    for metric in counts:
        assert (first["metrics"][metric]["value"]
                == second["metrics"][metric]["value"]), metric
    assert [r.simulated() for r in first["records"]] == [
        r.simulated() for r in second["records"]]


@pytest.mark.parametrize("name, exercised", [
    ("ff-lifetime", ["ff.rounds", "scheme.round_wear_profile_calls",
                     "array.apply_wear_bulk_calls", "ff.tail_writes",
                     "dfn.translate_many_addrs"]),
    ("tenant-replay", ["scheme.consume_chunk_calls", "engine.chunks",
                       "array.write_many_lines", "trace.writes",
                       "dfn.translate_many_addrs"]),
    ("rta-rbsg", ["memory_system.write_calls", "scheme.record_write_calls",
                  "array.copy_calls", "attack.detection_writes"]),
])
def test_each_workload_exercises_its_layers(name, exercised):
    result = _traced(name)
    metrics = result["metrics"]
    for metric in exercised:
        assert metrics[metric]["value"] > 0, metric
    assert metrics["bench.span_coverage"]["value"] > 0.95
    if name == "ff-lifetime":
        user = metrics["bench.user_writes"]["value"]
        assert (metrics["ff.analytic_writes"]["value"]
                + metrics["ff.tail_writes"]["value"]) == user
    if name == "rta-rbsg":
        assert metrics["engine.chunks"]["value"] == 0
        assert metrics["dfn.translate_many_addrs"]["value"] == 0


def _document(result, trace):
    return {
        "workload": result["records"][0].workload,
        "trace": trace,
        "unit_seeds": [r.seed for r in result["records"]],
        "records": [r.to_dict() for r in result["records"]],
        "metrics": result["metrics"],
    }


def test_compare_lists_differences_only():
    a = _document(_traced("rta-rbsg"), 1)
    b = _document(_traced("rta-rbsg"), 1)
    assert compare.differences(a, b) == []
    c = copy.deepcopy(b)
    c["records"][0]["elapsed_ns"] += 1.0
    c["metrics"]["array.copy_calls"]["value"] += 1
    c["metrics"]["array.copy_s"]["value"] *= 2
    lines = compare.differences(a, c)
    assert len(lines) == 2
    assert any("elapsed_ns" in line for line in lines)
    assert any("array.copy_calls" in line for line in lines)


def test_benchmark_json_names_every_per_layer_metric():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit in layers.METRICS]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_untraced_run_reports_every_end_to_end_metric():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    result = run.untraced(WORKLOADS["rta-rbsg"], 5, 0.1, TINY)
    assert all(r.problems == [] for r in result["records"])
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_inputs_depend_only_on_the_seed():
    for workload in WORKLOADS.values():
        assert (workloads.fixed_units(workload, 9, TINY, 2)
                == workloads.fixed_units(workload, 9, TINY, 2))
        assert workload.held_out(9, TINY) not in workloads.fixed_units(
            workload, 9, TINY, 3)
    a = WORKLOADS["tenant-replay"].build(4, TINY).source
    b = WORKLOADS["tenant-replay"].build(4, TINY).source
    for (la, da), (lb, db) in zip(a.chunks(3000), b.chunks(3000)):
        assert np.array_equal(la, lb) and np.array_equal(da, db)
