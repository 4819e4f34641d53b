import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specshift.stationarity import (
    amplitude_panel,
    correlation_scores,
    ema_refresh,
    entropy_scores,
    mu_sigma_scores,
    scores,
)


def panel_from_column(values):
    return np.asarray(values, dtype=float).reshape(-1, 1, 1)


def test_mu_sigma_zero_dispersion():
    table = mu_sigma_scores(panel_from_column([2.0, 2.0, 2.0]))
    assert table.shape == (1, 1)
    np.testing.assert_allclose(table[0, 0], 200000.0)


def test_mu_sigma_hand_value():
    table = mu_sigma_scores(panel_from_column([1.0, 2.0, 3.0]))
    assert abs(table[0, 0] - 2.44946) < 1e-4


def test_mu_sigma_all_zero_amplitudes():
    table = mu_sigma_scores(panel_from_column([0.0, 0.0]))
    assert table[0, 0] == 0.0


def test_mu_sigma_loop_oracle():
    rng = np.random.default_rng(42)
    panel = rng.uniform(0.0, 5.0, size=(20, 9, 3))
    table = mu_sigma_scores(panel, eps=1e-5)
    for k in range(9):
        for c in range(3):
            col = panel[:, k, c]
            mu = sum(col) / len(col)
            var = sum((v - mu) ** 2 for v in col) / len(col)
            expected = mu / (math.sqrt(var) + 1e-5)
            assert abs(table[k, c] - expected) < 1e-12


def test_mu_sigma_scale_invariant_without_eps():
    rng = np.random.default_rng(1)
    panel = rng.uniform(0.5, 2.0, size=(8, 4, 2))
    base = mu_sigma_scores(panel, eps=0.0)
    scaled = mu_sigma_scores(7.5 * panel, eps=0.0)
    np.testing.assert_allclose(base, scaled, rtol=1e-12)


def test_mu_sigma_monotone_in_dispersion():
    tight = mu_sigma_scores(panel_from_column([1.9, 2.0, 2.1]))
    wide = mu_sigma_scores(panel_from_column([1.0, 2.0, 3.0]))
    assert tight[0, 0] > wide[0, 0]


def test_mu_sigma_requires_two_samples():
    with pytest.raises(ValueError):
        mu_sigma_scores(np.ones((1, 4, 1)))


def test_entropy_point_mass_is_maximal():
    panel = np.zeros((5, 3, 1))
    panel[:, 1, 0] = 4.0
    table = entropy_scores(panel)
    assert table[1, 0] == pytest.approx(3.0)  # (1 - 0) * 1.0 * K
    assert table[0, 0] == 0.0
    assert table[2, 0] == 0.0


def test_entropy_flat_spectrum_scores_zero():
    table = entropy_scores(np.ones((6, 4, 2)))
    np.testing.assert_allclose(table, 0.0, atol=1e-12)


def test_entropy_two_bin_hand_value():
    panel = np.zeros((7, 2, 1))
    panel[:, 0, 0] = 0.75
    panel[:, 1, 0] = 0.25
    h = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert abs(h - 0.8113) < 1e-4
    table = entropy_scores(panel)
    assert table[0, 0] == pytest.approx((1.0 - h) * 0.75 * 2.0)
    assert table[1, 0] == pytest.approx((1.0 - h) * 0.25 * 2.0)


def test_entropy_zero_sample_uniform_fallback():
    panel = np.zeros((3, 4, 1))
    table = entropy_scores(panel)
    np.testing.assert_allclose(table, 0.0, atol=1e-12)


def test_correlation_proportional_targets():
    panel = panel_from_column([1.0, 2.0, 3.0, 4.0])
    targets = np.asarray([2.0, 4.0, 6.0, 8.0]).reshape(4, 1, 1)
    table = correlation_scores(panel, targets)
    assert table[0, 0] == pytest.approx(1.0)


def test_correlation_anticorrelated_triple():
    panel = panel_from_column([1.0, 2.0, 3.0])
    targets = np.asarray([3.0, 2.0, 1.0]).reshape(3, 1, 1)
    assert correlation_scores(panel, targets)[0, 0] == pytest.approx(1.0)


def test_correlation_constant_amplitude_is_zero():
    panel = panel_from_column([2.0, 2.0, 2.0])
    targets = np.asarray([1.0, 2.0, 3.0]).reshape(3, 1, 1)
    assert correlation_scores(panel, targets)[0, 0] == 0.0


def test_correlation_rejects_mismatched_counts():
    panel = np.ones((4, 2, 1))
    targets = np.ones((3, 5, 1))
    with pytest.raises(ValueError):
        correlation_scores(panel, targets)


def test_scores_dispatch():
    rng = np.random.default_rng(0)
    panel = rng.uniform(0.1, 1.0, size=(10, 5, 2))
    targets = rng.standard_normal((10, 4, 2))
    np.testing.assert_array_equal(scores(panel, "mu_sigma"), mu_sigma_scores(panel))
    np.testing.assert_array_equal(scores(panel, "entropy"), entropy_scores(panel))
    np.testing.assert_array_equal(
        scores(panel, "correlation", targets=targets), correlation_scores(panel, targets)
    )
    with pytest.raises(ValueError):
        scores(panel, "correlation")
    with pytest.raises(ValueError):
        scores(panel, "nope")


def test_ema_refresh_hand_value():
    out = ema_refresh(np.array([[2.0]]), np.array([[4.0]]), 0.9)
    np.testing.assert_allclose(out, [[2.2]])


def test_ema_refresh_fixed_point():
    table = np.full((3, 2), 1.5)
    np.testing.assert_allclose(ema_refresh(table, table, 0.5), table)


def test_ema_refresh_two_step_composition():
    rng = np.random.default_rng(9)
    current = rng.uniform(0, 3, size=(6, 2))
    batch = rng.uniform(0, 3, size=(6, 2))
    d = 0.8
    twice = ema_refresh(ema_refresh(current, batch, d), batch, d)
    once = d**2 * current + (1 - d**2) * batch
    np.testing.assert_allclose(twice, once, atol=1e-12)


def test_amplitude_panel_shape_and_values():
    rng = np.random.default_rng(2)
    windows = rng.standard_normal((7, 12, 3))
    panel = amplitude_panel(windows)
    assert panel.shape == (7, 7, 3)
    assert np.all(panel >= 0.0)
    from specshift.spectral import amplitude, dft_forward

    real, imag = dft_forward(windows[4, :, 1])
    np.testing.assert_allclose(panel[4, :, 1], amplitude(real, imag), atol=1e-12)


def test_amplitude_panel_windowed():
    # the Hann panel is the rectangular panel of the tapered windows, bit for bit
    from specshift.spectral import window_taps

    rng = np.random.default_rng(3)
    for length in (1, 2, 7, 8, 48, 96):
        windows = rng.standard_normal((4, length, 2))
        taps = window_taps("hann", length)
        panel = amplitude_panel(windows, "hann")
        manual = amplitude_panel(windows * taps[None, :, None])
        assert panel.tobytes() == manual.tobytes(), length


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**31))
def test_mu_sigma_nonnegative_property(n, seed):
    panel = np.random.default_rng(seed).uniform(0, 10, size=(n, 3, 2))
    table = mu_sigma_scores(panel)
    assert np.all(table >= 0.0)
    assert np.all(np.isfinite(table))
