"""Workload coverage, determinism of counts, and seeded inputs, at small sizes."""

import json
from pathlib import Path

import numpy as np
import pytest

import inputs
import layers
import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
SMALL = {
    "shift_bench": {"samples_per_condition": 8},
    "diagnose": {"samples_per_condition": 2, "hidden": 16},
}


def _traced(name, seed, tmp_path):
    workload = workloads.WORKLOADS[name](seed, tmp_path, SMALL[name])
    _, tracer, _ = layers.traced_cycle(workload)
    return layers.layer_metrics(tracer), tracer.layer_totals()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_expected_layer_has_a_span(name, tmp_path):
    _, totals = _traced(name, 3, tmp_path)
    missing = sorted(layer for layer in workloads.EXPECTED_LAYERS[name] if layer not in totals)
    assert not missing


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    first, _ = _traced(name, 4, tmp_path / "a")
    second, _ = _traced(name, 4, tmp_path / "b")
    counts = [m for m in first if not m.endswith("_s")]
    assert counts and {m: first[m] for m in counts} == {m: second[m] for m in counts}


def test_inputs_are_a_pure_function_of_the_seed(tmp_path):
    assert np.array_equal(inputs.condition_series(5, 3), inputs.condition_series(5, 3))
    assert not np.array_equal(inputs.condition_series(5, 3), inputs.condition_series(6, 3))
    for name in sorted(workloads.WORKLOADS):
        a = workloads.WORKLOADS[name](7, tmp_path / f"{name}a", SMALL[name])
        b = workloads.WORKLOADS[name](7, tmp_path / f"{name}b", SMALL[name])
        c = workloads.WORKLOADS[name](8, tmp_path / f"{name}c", SMALL[name])
        assert np.array_equal(a.series, b.series) and not np.array_equal(a.series, c.series)
    first = (tmp_path / "diagnosea" / "diagnose.csv").read_bytes()
    assert first == (tmp_path / "diagnoseb" / "diagnose.csv").read_bytes()


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in layers.metric_catalogue()]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_a_raising_train_is_a_failed_operation(tmp_path, monkeypatch):
    from specshift import training
    from specshift.errors import NumericError

    real_train = training.train

    def diverging(pipe, *args, **kwargs):
        if pipe.method == "tifo":
            raise NumericError("non-finite training loss")
        return real_train(pipe, *args, **kwargs)

    monkeypatch.setattr(training, "train", diverging)
    workload = workloads.WORKLOADS["shift_bench"](3, tmp_path, SMALL["shift_bench"])
    cyc = workload.cycle()
    assert cyc.failed >= 1 and [e["op"] for e in cyc.errors] == ["train tifo"]
    outcome = {c["name"]: c["ok"] for c in workload.cycle_checks(cyc)}
    assert not outcome["losses finite"] and not outcome["every operation returned"]
    assert not outcome["tifo forecasts match the oracle"]


def test_a_crashing_workload_still_prints_a_failed_result(tmp_path, monkeypatch, capsys):
    class Crashing(workloads.ShiftBench):
        def cycle(self):
            raise RuntimeError("boom")

    monkeypatch.setitem(workloads.WORKLOADS, "shift_bench", Crashing)
    code = run.main(["--workload", "shift_bench", "--seed", "1", "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False and result["failed"] >= 1 <= result["attempted"]
    assert set(result["metrics"]) == {name for name, _ in run.E2E}
