"""The whole-split passes run chunk by chunk of windows through
``shiftmetrics.chunked``: each is bit-equal to its whole-array form
(``oracles``) wherever the chunks split, gives zero-row outputs for zero
windows, and stays within its memory bound."""

import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specshift import shiftmetrics
from specshift.baselines import FanConfig, SanConfig
from specshift.data import fit_scaler, make_windows
from specshift.models import BackboneConfig
from specshift.shiftmetrics import chunks
from specshift.spectral import WINDOWS, n_bins
from specshift.stationarity import METRICS, amplitude_panel
from specshift.tifo import TifoConfig
from specshift.training import COMPOSITION, Pipeline, PipelineConfig, TifoLayer, fit_score_table

from oracles import (amplitude_panel_whole, fan_targets_whole, fit_scaler_whole, panels_whole, san_split_stats_whole,
                     score_table_whole, transformed_input_whole)


@pytest.mark.parametrize("n, width, budget, sizes", [
    (0, 5, 10, []),
    (1, 5, 10, [1]),
    (4, 5, 10, [2, 2]),
    (5, 5, 10, [2, 2, 1]),
    (3, 11, 10, [1, 1, 1]),  # an item above the budget is a chunk of its own
])
def test_chunks_cover_the_items_in_order_within_the_budget(n, width, budget, sizes):
    with mock.patch.object(shiftmetrics, "CHUNK_SAMPLES", budget):
        parts = chunks(n, width)
    assert [len(range(n)[part]) for part in parts] == sizes
    assert [i for part in parts for i in range(n)[part]] == list(range(n))


@settings(max_examples=80)
@given(data=st.data())
def test_chunked_passes_are_bit_equal_to_their_whole_array_forms(data):
    """N = 1, a multiple of the chunk, one more than that, and L*C above the
    budget (one window per chunk), for every method, C in {1, 3, 7}, both
    analysis windows and every score metric; with FAN's targets and SAN's
    stage-one statistics of both splits."""
    draw = data.draw
    channels, lookback, horizon = draw(st.sampled_from([1, 3, 7])), draw(st.sampled_from([8, 12])), 4
    case = draw(st.sampled_from(["one", "multiple", "one more", "wide"]))
    step = 1 if case == "wide" else draw(st.integers(1, 4))
    budget = lookback * channels - 1 if case == "wide" else step * lookback * channels
    n = {"one": 1, "multiple": step * draw(st.integers(1, 3)), "one more": step * draw(st.integers(1, 3)) + 1,
         "wide": draw(st.integers(1, 5))}[case]
    method, window = draw(st.sampled_from(sorted(COMPOSITION))), draw(st.sampled_from(WINDOWS))
    metric = draw(st.sampled_from(METRICS if n >= 2 else ("entropy",)))
    keep = draw(st.sampled_from([None, 1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    series = rng.normal(size=(n + lookback + horizon - 1, channels)) * rng.uniform(0.1, 10.0, channels)
    x, y = make_windows(series, lookback, horizon)
    pipe = Pipeline(PipelineConfig(
        method=method, backbone=BackboneConfig(kind="linear", lookback=lookback, horizon=horizon, channels=channels),
        tifo=TifoConfig(hidden=6, keep=keep, score_metric=metric, window=window),
        san=SanConfig(patch=4, hidden=8, epochs=1), fan=FanConfig(topk=2, hidden1=8, hidden2=8)),
        np.random.default_rng(1))
    if pipe.tifo is not None:
        pipe.tifo.scores[...] = rng.uniform(0.0, 3.0, pipe.tifo.scores.shape)
        for name in ("tifo.r.w2", "tifo.i.w2"):
            pipe.params[name][...] = rng.normal(scale=0.5, size=pipe.params[name].shape)
    with mock.patch.object(shiftmetrics, "CHUNK_SAMPLES", budget):
        assert len(chunks(n, lookback * channels)) == -(-n // step)
        scaler = fit_scaler(x)
        got = [amplitude_panel(x, window), pipe.transformed_input(x), *pipe.panels(x, window), scaler.mu, scaler.sigma]
        if pipe.tifo is not None:
            got.append(fit_score_table(pipe, x, y))
        if pipe.norm.name == "fan":
            got.append(pipe.norm.targets(y))
        if pipe.norm.name == "san":
            got += [*pipe.norm.split_stats(x), *pipe.norm.split_stats(y)]
    want = [amplitude_panel_whole(x, window), transformed_input_whole(pipe, x), *panels_whole(pipe, x, window),
            *fit_scaler_whole(x)]
    if pipe.tifo is not None:
        want.append(score_table_whole(pipe, x, y))
    if pipe.norm.name == "fan":
        want.append(fan_targets_whole(pipe, y))
    if pipe.norm.name == "san":
        want += [*san_split_stats_whole(pipe, x), *san_split_stats_whole(pipe, y)]
    owned = x.copy()  # a contiguous (N, L, C) array reshapes to a view; fit_scaler must not write into it
    assert np.array_equal(fit_scaler(owned).sigma, fit_scaler_whole(x)[1]) and np.array_equal(owned, x)
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert (a is None and b is None) or np.array_equal(a, b), (i, case, method, window)


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("method", sorted(COMPOSITION))
def test_zero_windows_give_zero_row_outputs(method, window):
    """Each pass runs its function on one empty chunk, so zero windows give
    zero-row outputs shaped as its whole-array form's; the score fit's panel
    stands in for its table, which needs windows."""
    x, y = np.zeros((0, 8, 3)), np.zeros((0, 4, 3))
    pipe = Pipeline(PipelineConfig(
        method=method, backbone=BackboneConfig(kind="linear", lookback=8, horizon=4, channels=3),
        tifo=TifoConfig(window=window), san=SanConfig(patch=4), fan=FanConfig(topk=2)), np.random.default_rng(1))
    got = [amplitude_panel(x, window), pipe.transformed_input(x), *pipe.panels(x, window)]
    want = [amplitude_panel_whole(x, window), transformed_input_whole(pipe, x), *panels_whole(pipe, x, window)]
    if pipe.tifo is not None:
        with mock.patch.object(TifoLayer, "fit_scores", lambda self, panel, y: panel):
            got.append(fit_score_table(pipe, x, y))
        want.append(amplitude_panel_whole(pipe.norm.enter(x)[0], window))
    if pipe.norm.name == "fan":
        got.append(pipe.norm.targets(y))
        want.append(fan_targets_whole(pipe, y))
    if pipe.norm.name == "san":
        got += [*pipe.norm.split_stats(x), *pipe.norm.split_stats(y)]
        want += [*san_split_stats_whole(pipe, x), *san_split_stats_whole(pipe, y)]
    for i, (a, b) in enumerate(zip(got, want, strict=True)):
        assert (a is None and b is None) or (a.shape == b.shape and a.shape[0] == 0), (i, method, window)


def _peak_memory():
    spec = importlib.util.spec_from_file_location("peak_memory", Path(__file__).parents[1] / "tools" / "peak_memory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# bytes per unit: per training (window, bin, channel) for amplitude_panel,
# the score fit and the panels, per training (window, step, channel) for the
# rest; each pass holds its outputs, 8 B per unit each (FAN's targets two,
# SAN's statistics 2 / patch), and one chunk's temporaries
BOUNDS = {"build_dataset": 9, "amplitude_panel": 9, "transformed_input tifo": 9, "transformed_input tifo+san": 9,
          "score fit tifo": 17, "score fit tifo+san": 17, "panels tifo": 17, "panels tifo+san": 17,
          "panels tifo hann": 17, "panels tifo+san hann": 17, "fan targets": 17, "san stage one": 2}


def test_whole_split_passes_stay_within_their_peak_bounds():
    # the ETTh1 shape, (17420, 7) at L = H = 96, where one chunk's
    # temporaries are a small share of a split
    rates = _peak_memory().rates()
    assert rates.keys() == BOUNDS.keys()
    assert all(rates[name] <= bound for name, bound in BOUNDS.items()), rates


def test_the_window_passes_take_their_chunks_from_the_one_budget(monkeypatch):
    """Every pass over a split's windows enters and transforms one chunk at a
    time: with the budget at one window, no call sees two."""
    seen = []
    real_enter = COMPOSITION["tifo+san"][0].enter

    def enter(self, x):
        seen.append(x.shape[0])
        return real_enter(self, x)

    x, y = make_windows(np.random.default_rng(0).normal(size=(40, 2)), 8, 4)
    pipe = Pipeline(PipelineConfig(method="tifo+san", backbone=BackboneConfig(
        kind="linear", lookback=8, horizon=4, channels=2), san=SanConfig(patch=4)), np.random.default_rng(1))
    monkeypatch.setattr(COMPOSITION["tifo+san"][0], "enter", enter)
    monkeypatch.setattr(shiftmetrics, "CHUNK_SAMPLES", 16)
    fit_score_table(pipe, x, y)
    pipe.transformed_input(x)
    pipe.panels(x, "rectangular")
    pipe.panels(x, "hann")
    assert seen == [1] * (4 * x.shape[0])
    assert amplitude_panel(x).shape == (x.shape[0], n_bins(8), 2)
