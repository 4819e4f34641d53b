"""Statistics and learned parts of the normalization baselines: instance
z-scoring (RevIN), patch-statistic prediction (SAN) and top-k frequency
decomposition (FAN).

The blocks ``training.RevinNorm``, ``SanNorm`` and ``FanNorm`` own each
method's normalize, denormalize and combine arithmetic and its VJP; this
module holds what they call: RevIN's window statistics, SAN's patch
statistics and its predictor nets, FAN's top-k split and frequency MLP.  None
of them owns a training loop (the two-stage schedule for the patch predictor
lives in the training module).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .models import dense, dense_vjp, mlp_forward, mlp_vjp, xavier_uniform
from .spectral import amplitude, dft_forward, dft_inverse

REVIN_EPS = 1e-5
PATCH_EPS = 1e-5


# ---------------------------------------------------------------------------
# instance z-score (RevIN)
# ---------------------------------------------------------------------------


def revin_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-window, per-channel mean and sqrt(population variance + REVIN_EPS)."""
    x = np.asarray(x, dtype=float)
    mu = x.mean(axis=-2, keepdims=True)
    sigma = np.sqrt(x.var(axis=-2, keepdims=True) + REVIN_EPS)
    return mu, sigma


# ---------------------------------------------------------------------------
# patch-statistic normalization (SAN)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SanConfig:
    """SAN's keys; stage one takes its batch and learning rate from the main
    loop's ``TrainConfig``, and ``PipelineConfig`` checks that ``patch``
    divides the lookback and horizon."""

    patch: int = 12
    hidden: int = 64
    epochs: int = 5

    def __post_init__(self):
        for key, value in (("san_patch", self.patch), ("san_hidden", self.hidden), ("san_epochs", self.epochs)):
            if value < 1:
                raise ConfigError(f"{key} must be at least 1, got {value}")


def san_patch_stats(x: np.ndarray, patch: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-patch mean and population variance; the patch divides the time axis
    (``PipelineConfig`` checks it)."""
    n, t, c = x.shape
    blocks = x.reshape(n, t // patch, patch, c)
    return blocks.mean(axis=2), blocks.var(axis=2)


def san_init(lookback: int, horizon: int, patch: int, hidden: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Two predictor nets (mean and variance), shared across channels; patch
    divides lookback and horizon."""
    d_in = 2 * (lookback // patch)
    d_out = horizon // patch
    params: dict[str, np.ndarray] = {}
    for stat in ("mu", "var"):
        params[f"{stat}.w1"] = xavier_uniform(rng, (hidden, d_in))
        params[f"{stat}.b1"] = np.zeros(hidden)
        params[f"{stat}.w2"] = xavier_uniform(rng, (d_out, hidden))
        params[f"{stat}.b2"] = np.zeros(d_out)
    return params


def softplus(x: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def san_predict(params: dict[str, np.ndarray], mu_x: np.ndarray, var_x: np.ndarray):
    """Predict output-patch statistics from input-patch statistics.

    Returns (mu_y, var_y, cache); the variance passes through softplus so it
    stays positive.
    """
    feats = np.concatenate([mu_x, var_x], axis=1)  # (N, 2*Lp, C)
    mu_out, mu_cache = mlp_forward(params, "mu", feats)
    var_raw, var_cache = mlp_forward(params, "var", feats)
    return mu_out, softplus(var_raw), (mu_cache, var_cache, var_raw)


def san_predict_vjp(params, cache, g_mu, g_var) -> dict[str, np.ndarray]:
    """Backprop stage-one cotangents to predictor parameter gradients."""
    mu_cache, var_cache, var_raw = cache
    with np.errstate(over="ignore"):  # exp overflows to inf below var_raw ~ -709; the sigmoid is then 0
        g_var_raw = g_var / (1.0 + np.exp(-var_raw))  # d softplus = sigmoid
    grads = mlp_vjp(params, "mu", mu_cache, g_mu)
    grads.update(mlp_vjp(params, "var", var_cache, g_var_raw))
    return grads


# ---------------------------------------------------------------------------
# top-k frequency decomposition (FAN)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FanConfig:
    """FAN's keys; ``PipelineConfig`` checks ``topk`` against the lookback
    and horizon."""

    topk: int = 4
    hidden1: int = 64
    hidden2: int = 128

    def __post_init__(self):
        if self.topk < 1:
            raise ConfigError(f"fan_topk must be at least 1, got {self.topk}")


def main_frequency_split(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Split (..., L, C) into (main, residual) by per-window top-k amplitude bins,
    for k in [1, K] (``PipelineConfig`` checks it against L).

    Ties resolve to the lower bin index; main + residual == x exactly.
    """
    length = x.shape[-2]
    real, imag = dft_forward(x, axis=-2)
    amp = amplitude(real, imag)
    order = np.argsort(-amp, axis=-2, kind="stable")
    mask = np.zeros_like(amp)
    np.put_along_axis(mask, order[..., :k, :], 1.0, axis=-2)
    main = dft_inverse(real * mask, imag * mask, length, axis=-2)
    return main, x - main


def fan_init(lookback: int, horizon: int, cfg: FanConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Frequency-branch MLP, shared across channels."""
    h1, h2 = cfg.hidden1, cfg.hidden2
    sizes = [(h1, lookback), (h2, h1 + lookback), (horizon, h2)]
    params: dict[str, np.ndarray] = {}
    for idx, shape in enumerate(sizes, start=1):
        params[f"w{idx}"] = xavier_uniform(rng, shape)
        params[f"b{idx}"] = np.zeros(shape[0])
    return params


def fan_freq_forward(params: dict[str, np.ndarray], x_main: np.ndarray, x_raw: np.ndarray):
    """Forecast the main-frequency part from (filtered series, raw window)."""
    pre1 = dense(params["w1"], params["b1"], x_main)
    cat = np.concatenate([np.maximum(pre1, 0.0), x_raw], axis=1)
    pre2 = dense(params["w2"], params["b2"], cat)
    hid2 = np.maximum(pre2, 0.0)
    out = dense(params["w3"], params["b3"], hid2)
    return out, (x_main, pre1, cat, pre2, hid2)


def fan_freq_vjp(params, cache, upstream) -> dict[str, np.ndarray]:
    """Parameter gradients of ``fan_freq_forward`` for the output cotangent."""
    x_main, pre1, cat, pre2, hid2 = cache
    grads: dict[str, np.ndarray] = {}
    grads["w3"], grads["b3"], g_hid2 = dense_vjp(params["w3"], hid2, upstream)
    grads["w2"], grads["b2"], g_cat = dense_vjp(params["w2"], cat, g_hid2 * (pre2 > 0.0))
    g_pre1 = g_cat[:, : pre1.shape[1], :] * (pre1 > 0.0)
    grads["w1"], grads["b1"], _ = dense_vjp(params["w1"], x_main, g_pre1, input_grad=False)
    return grads
