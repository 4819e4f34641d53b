import numpy as np
import pytest

from specshift.baselines import (
    FanConfig,
    SanConfig,
    fan_freq_forward,
    fan_init,
    main_frequency_split,
    san_init,
    san_patch_stats,
    san_predict,
    san_predict_vjp,
    softplus,
)
from specshift.models import BackboneConfig
from specshift.training import FanNorm, PipelineConfig, RevinNorm, SanNorm


def as_window(values):
    return np.asarray(values, dtype=float).reshape(1, -1, 1)


def block(cls, lookback, horizon, channels, **configs):
    """A normalization block of the pipeline built for this window shape."""
    cfg = PipelineConfig(method=cls.name, backbone=BackboneConfig(
        kind="linear", lookback=lookback, horizon=horizon, channels=channels), **configs)
    return cls(cfg, np.random.default_rng(0))


def test_revin_normalize_hand_value():
    out, _ = block(RevinNorm, 3, 1, 1).enter(as_window([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(out[0, :, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)


def test_revin_constant_channel_guarded():
    out, (_, sigma) = block(RevinNorm, 3, 1, 1).enter(as_window([5.0, 5.0, 5.0]))
    np.testing.assert_allclose(out, 0.0, atol=1e-6)
    assert np.all(sigma > 0)


def test_revin_denormalize_hand_value():
    revin = block(RevinNorm, 3, 1, 1)
    revin.params["gamma"][...] = 2.0
    revin.params["beta"][...] = 1.0
    out = revin.leave(np.array([[[1.0]]]), (np.array([[[2.0]]]), np.array([[[3.0]]])))
    np.testing.assert_allclose(out, 11.0)


def test_revin_round_trip():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 24, 3)) * 4.0 + 2.0
    revin = block(RevinNorm, 24, 24, 3)
    back = revin.leave(*revin.enter(x))
    np.testing.assert_allclose(back, x, atol=1e-6)


def test_san_patch_stats_hand_value():
    x = as_window([1.0, 3.0])
    mu, var = san_patch_stats(x, 2)
    assert mu[0, 0, 0] == pytest.approx(2.0)
    assert var[0, 0, 0] == pytest.approx(1.0)  # population variance
    normalized, _ = block(SanNorm, 2, 2, 1, san=SanConfig(patch=2, hidden=4)).enter(x)
    np.testing.assert_allclose(normalized[0, :, 0], [-1.0, 1.0], atol=1e-5)


def test_san_patch_stats_requires_divisibility():
    with pytest.raises(ValueError):
        san_patch_stats(np.ones((2, 10, 1)), 3)


def test_san_normalize_denormalize_inverse():
    # de-normalizing with the per-step form of the input's own patch
    # statistics, which enter hands back, undoes entering
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 12, 2)) * 3.0 + 1.0
    san = block(SanNorm, 12, 12, 2, san=SanConfig(patch=4, hidden=4))
    x_n, ctx = san.enter(x)
    for got, want in zip(ctx, san_patch_stats(x, 4)):
        np.testing.assert_array_equal(got, want)
    shift, scale = san.steps(*ctx)
    np.testing.assert_allclose(x_n * scale + shift, x, atol=1e-5)


def test_san_predict_variance_is_positive():
    rng = np.random.default_rng(2)
    params = san_init(lookback=12, horizon=8, patch=4, hidden=6, rng=rng)
    mu_x = rng.standard_normal((7, 3, 2))
    var_x = rng.uniform(0, 2, size=(7, 3, 2))
    mu_y, var_y, _ = san_predict(params, mu_x, var_x)
    assert mu_y.shape == (7, 2, 2)
    assert var_y.shape == (7, 2, 2)
    assert np.all(var_y > 0)


@pytest.mark.parametrize("channels", [1, 2])
def test_san_predict_vjp_matches_finite_differences(channels):
    # the stage-one loss of the patch-statistic predictor, as its training step uses it
    rng = np.random.default_rng(7)
    params = san_init(lookback=12, horizon=8, patch=4, hidden=6, rng=rng)
    for name in params:
        if name.endswith("b1") or name.endswith("b2"):
            params[name] = rng.normal(scale=0.3, size=params[name].shape)
    mu_x = rng.standard_normal((5, 3, channels))
    var_x = rng.uniform(0, 2, size=(5, 3, channels))
    mu_y = rng.standard_normal((5, 2, channels))
    var_y = rng.uniform(0, 2, size=(5, 2, channels))

    def loss():
        mu_hat, var_hat, _ = san_predict(params, mu_x, var_x)
        return float(np.mean((mu_hat - mu_y) ** 2) + np.mean((var_hat - var_y) ** 2))

    mu_hat, var_hat, cache = san_predict(params, mu_x, var_x)
    g_mu = (2.0 / mu_hat.size) * (mu_hat - mu_y)
    g_var = (2.0 / var_hat.size) * (var_hat - var_y)
    grads = san_predict_vjp(params, cache, g_mu, g_var)
    assert sorted(grads) == sorted(params)
    eps = 1e-5
    worst = 0.0
    for name, arr in params.items():
        flat, g = arr.reshape(-1), grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss()
            flat[i] = orig - eps
            down = loss()
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            worst = max(worst, abs(numeric - g[i]) / max(abs(numeric), abs(g[i]), 1e-3))
    assert worst < 1e-5


def test_softplus_stable_and_positive():
    x = np.array([-800.0, -10.0, 0.0, 10.0, 800.0])
    out = softplus(x)
    assert np.all(np.isfinite(out))
    assert np.all(out >= 0)
    np.testing.assert_allclose(out[3], 10.0000454, atol=1e-6)
    np.testing.assert_allclose(out[4], 800.0, atol=1e-9)


def test_fan_split_hand_value():
    x = as_window([1.0, 2.0, 3.0, 4.0])
    main, residual = main_frequency_split(x, 1)
    np.testing.assert_allclose(main[0, :, 0], [2.5, 2.5, 2.5, 2.5], atol=1e-10)
    np.testing.assert_allclose(residual[0, :, 0], [-1.5, -0.5, 0.5, 1.5], atol=1e-10)


def test_fan_split_single_sinusoid():
    n = np.arange(16)
    x = np.sin(2 * np.pi * 3 * n / 16).reshape(1, 16, 1)
    main, residual = main_frequency_split(x, 1)
    assert np.max(np.abs(residual)) <= 1e-8
    np.testing.assert_allclose(main, x, atol=1e-8)


def test_fan_split_full_k_keeps_everything():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 8, 2))
    main, residual = main_frequency_split(x, 5)
    np.testing.assert_allclose(main, x, atol=1e-10)
    np.testing.assert_allclose(residual, 0.0, atol=1e-10)


def test_fan_split_exactness_random():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 20, 3))
    for k in (1, 2, 5, 11):
        main, residual = main_frequency_split(x, k)
        np.testing.assert_allclose(main + residual, x, atol=1e-10)


def test_fan_split_ties_prefer_lower_index():
    # two bins with exactly equal amplitude; the lower index must win
    n = np.arange(8)
    x = (np.cos(2 * np.pi * n / 8) + np.cos(2 * np.pi * 3 * n / 8)).reshape(1, 8, 1)
    main, _ = main_frequency_split(x, 1)
    expected = np.cos(2 * np.pi * n / 8).reshape(1, 8, 1)
    np.testing.assert_allclose(main, expected, atol=1e-10)


def test_fan_split_validates_k():
    x = np.ones((1, 8, 1))
    for bad in (0, 6):
        with pytest.raises(ValueError):
            main_frequency_split(x, bad)


def test_fan_freq_zero_input_finite():
    rng = np.random.default_rng(5)
    params = fan_init(lookback=8, horizon=4, cfg=FanConfig(topk=2), rng=rng)
    x = np.zeros((3, 8, 2))
    out, _ = fan_freq_forward(params, x, x)
    assert out.shape == (3, 4, 2)
    assert np.all(np.isfinite(out))


def test_fan_combine_initial_weights_sum_paths():
    rng = np.random.default_rng(6)
    fan = block(FanNorm, 8, 4, 2, fan=FanConfig(topk=2))
    _, ctx = fan.enter(rng.standard_normal((3, 8, 2)))
    y_res = rng.standard_normal((3, 4, 2))
    y_main, _ = fan_freq_forward(fan.params, *ctx)
    np.testing.assert_allclose(fan.leave(y_res, ctx), y_res + y_main, atol=1e-12)
