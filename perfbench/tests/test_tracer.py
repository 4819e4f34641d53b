"""Span bookkeeping and patching of the tracer."""

import numpy as np
import pytest

import specshift
from specshift import baselines, spectral, stationarity, tifo, training
from specshift.cli import main as climain
from tracer import Span, Tracer


def _toy(spans):
    tracer = Tracer("toy")
    tracer.spans = [Span(name, start, end, parent, "toy") for name, start, end, parent in spans]
    return tracer


def test_self_time_subtracts_child_intervals():
    # root [0, 10] with children [1, 3] and [4, 8]; the second has a child [5, 6]
    tracer = _toy([("root", 0.0, 10.0, None), ("a", 1.0, 3.0, 0), ("b", 4.0, 8.0, 0), ("c", 5.0, 6.0, 2)])
    assert tracer.self_times() == pytest.approx([4.0, 2.0, 3.0, 1.0])
    totals = tracer.layer_totals()
    assert totals["root"] == {"calls": 1, "self_s": pytest.approx(4.0), "total_s": pytest.approx(10.0)}


def test_self_time_counts_overlapping_children_once():
    tracer = _toy([("root", 0.0, 10.0, None), ("a", 2.0, 6.0, 0), ("b", 4.0, 7.0, 0), ("c", 3.0, 5.0, 0)])
    assert tracer.self_times()[0] == pytest.approx(5.0)


def test_repeated_names_aggregate_and_tags_split():
    tracer = _toy([("f", 0.0, 1.0, None), ("f", 2.0, 4.0, None)])
    tracer.spans[1].tag = "x"
    totals = tracer.layer_totals()
    assert totals["f"]["calls"] == 2 and totals["f"]["self_s"] == pytest.approx(3.0)
    assert totals["f.x"] == {"calls": 1, "self_s": pytest.approx(2.0), "total_s": pytest.approx(2.0)}


def test_install_reaches_rebound_imports_and_uninstall_restores():
    original = spectral.dft_forward
    original_scores = stationarity.scores
    tracer = Tracer("toy")
    hits = tracer.install_function("spectral.dft_forward", original)
    tracer.install_function("stationarity.scores", original_scores)
    try:
        assert hits >= 6  # spectral, tifo, stationarity, baselines, training, package root
        for module in (spectral, tifo, stationarity, baselines, training, specshift):
            assert module.dft_forward is not original
        assert training.stability_scores is not original_scores
    finally:
        tracer.uninstall()
    for module in (spectral, tifo, stationarity, baselines, training, specshift):
        assert module.dft_forward is original
    assert training.stability_scores is original_scores


def test_install_patches_module_dict_values():
    original = climain.cmd_eval
    tracer = Tracer("toy")
    tracer.install_function("cli.main.cmd_eval", original)
    try:
        assert climain.COMMANDS["eval"] is climain.cmd_eval is not original
    finally:
        tracer.uninstall()
    assert climain.COMMANDS["eval"] is original


def test_spans_nest_and_counters_accumulate():
    tracer = Tracer("toy")
    tracer.install_function("spectral.dft_forward", spectral.dft_forward,
                            counters={"series": lambda a, r: np.asarray(a["x"]).size // np.asarray(a["x"]).shape[a["axis"]]})
    tracer.install_function("tifo.transform", tifo.transform)
    try:
        x = np.ones((3, 8, 2))
        lam = np.ones((5, 2))
        tifo.transform(x, lam, lam)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names == ["tifo.transform", "spectral.dft_forward"]
    assert tracer.spans[1].parent == 0 and tracer.spans[1].workload == "toy"
    assert tracer.counts["spectral.dft_forward.series"] == 6
