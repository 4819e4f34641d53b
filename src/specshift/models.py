"""Forecasting backbones with explicit forward and VJP passes, and the dense
layer and two-layer MLP they share with the re-weighting and baseline nets.

Both backbones are affine maps from a lookback window (L, C) to a forecast
(H, C).  The decomposition backbone first splits the input into a trend part
(centered moving average with edge replication) and a seasonal remainder,
then applies one affine head to each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_DECOMP: dict[tuple[int, int], np.ndarray] = {}


@dataclass(frozen=True)
class BackboneConfig:
    kind: str  # "linear" or "dlinear"
    lookback: int
    horizon: int
    channels: int
    shared: bool = False  # linear only: one weight matrix for every channel
    kernel: int = 25  # dlinear only: moving-average width, odd (checked for either kind)

    def __post_init__(self):
        if self.kind not in ("linear", "dlinear"):
            raise ConfigError(f"backbone must be 'linear' or 'dlinear', got {self.kind!r}")
        if min(self.lookback, self.horizon, self.channels) < 1:
            raise ConfigError(f"lookback {self.lookback}, horizon {self.horizon} and channels {self.channels} "
                              "must be positive")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError(f"dlinear_kernel must be a positive odd integer, got {self.kernel}")


def decompose_matrix(length: int, kernel: int) -> np.ndarray:
    """(L, L) matrix M with (M x)[n] the edge-replicated moving average of x.

    The matrix is cached per (L, kernel) and shared by every caller, so it is
    read-only.
    """
    key = (length, kernel)
    m = _DECOMP.get(key)
    if m is None:
        half = kernel // 2
        m = np.zeros((length, length))
        for n in range(length):
            for j in range(n - half, n + half + 1):
                m[n, min(max(j, 0), length - 1)] += 1.0 / kernel
        m.flags.writeable = False
        _DECOMP[key] = m
    return m


def moving_average_decompose(x: np.ndarray, kernel: int) -> tuple[np.ndarray, np.ndarray]:
    """Split (..., L, C) into (trend, seasonal) with trend + seasonal == x exactly."""
    x = np.asarray(x, dtype=float)
    trend = decompose_matrix(x.shape[-2], kernel) @ x
    return trend, x - trend


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Xavier-uniform draw for a (..., fan_out, fan_in) weight."""
    fan_out, fan_in = shape[-2:]
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def dense(weight: np.ndarray, bias: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Affine map along axis 1: (N, I, C) -> (N, O, C).

    weight is (O, I) with bias (O,), shared by every channel, or (C, O, I)
    with bias (C, O), one map per channel.  Either way it is one BLAS matmul
    per channel over the (I, N) slice.
    """
    out = weight @ x.T
    out += bias[..., None]
    return out.T


def dense_vjp(weight: np.ndarray, x: np.ndarray, upstream: np.ndarray, input_grad: bool = True):
    """(g_weight, g_bias, g_x) of ``dense`` at x for the (N, O, C) cotangent;
    g_x is None when input_grad is False."""
    g_w = upstream.T @ x.transpose(2, 0, 1)
    g_b = upstream.sum(axis=0).T
    if weight.ndim == 2:  # shared weight: sum the per-channel gradients
        g_w = g_w.sum(axis=0)
        g_b = g_b.sum(axis=0)
    g_x = (np.swapaxes(weight, -1, -2) @ upstream.T).T if input_grad else None
    return g_w, g_b, g_x


def mlp_forward(params: dict[str, np.ndarray], prefix: str, x: np.ndarray):
    """Two-layer ReLU MLP ``w2 relu(w1 x + b1) + b2`` along axis 1 of (N, I, C).

    Its tensors are ``<prefix>.w1`` etc. in params.  Returns (out, cache).
    """
    pre = dense(params[f"{prefix}.w1"], params[f"{prefix}.b1"], x)
    hid = np.maximum(pre, 0.0)
    return dense(params[f"{prefix}.w2"], params[f"{prefix}.b2"], hid), (x, pre, hid)


def mlp_vjp(params: dict[str, np.ndarray], prefix: str, cache,
            upstream: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients of ``mlp_forward``, under the same names."""
    x, pre, hid = cache
    g_w2, g_b2, g_hid = dense_vjp(params[f"{prefix}.w2"], hid, upstream)
    g_w1, g_b1, _ = dense_vjp(params[f"{prefix}.w1"], x, g_hid * (pre > 0.0), input_grad=False)
    return {f"{prefix}.w1": g_w1, f"{prefix}.b1": g_b1, f"{prefix}.w2": g_w2, f"{prefix}.b2": g_b2}


def _affine_init(cfg: BackboneConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    shape = (cfg.horizon, cfg.lookback) if cfg.shared else (cfg.channels, cfg.horizon, cfg.lookback)
    return xavier_uniform(rng, shape), np.zeros(shape[:-1])


class Backbone:
    """Parameter container plus explicit forward/VJP for one backbone kind."""

    def __init__(self, cfg: BackboneConfig, rng: np.random.Generator):
        self.cfg = cfg
        if cfg.kind == "linear":
            w, b = _affine_init(cfg, rng)
            self.params = {"weight": w, "bias": b}
        else:
            wt, bt = _affine_init(cfg, rng)
            ws, bs = _affine_init(cfg, rng)
            self.params = {
                "trend.weight": wt,
                "trend.bias": bt,
                "seasonal.weight": ws,
                "seasonal.bias": bs,
            }

    def forward(self, x: np.ndarray):
        """(N, L, C) -> ((N, H, C) forecast, cache for ``vjp``): dlinear's
        (trend, seasonal) parts of x, None for linear."""
        p = self.params
        if self.cfg.kind == "linear":
            return dense(p["weight"], p["bias"], x), None
        trend, seasonal = moving_average_decompose(x, self.cfg.kernel)
        out = dense(p["trend.weight"], p["trend.bias"], trend)
        out += dense(p["seasonal.weight"], p["seasonal.bias"], seasonal)
        return out, (trend, seasonal)

    def vjp(self, x: np.ndarray, cache, upstream: np.ndarray, input_grad: bool = True):
        """Returns (param_grads, grad_x) for the forward pass at x that
        returned cache; grad_x is None when input_grad is False."""
        cfg = self.cfg
        p = self.params
        if cfg.kind == "linear":
            g_w, g_b, g_x = dense_vjp(p["weight"], x, upstream, input_grad)
            return {"weight": g_w, "bias": g_b}, g_x
        trend, seasonal = cache
        g_wt, g_bt, g_trend = dense_vjp(p["trend.weight"], trend, upstream, input_grad)
        g_ws, g_bs, g_seasonal = dense_vjp(p["seasonal.weight"], seasonal, upstream, input_grad)
        grads = {
            "trend.weight": g_wt,
            "trend.bias": g_bt,
            "seasonal.weight": g_ws,
            "seasonal.bias": g_bs,
        }
        if not input_grad:
            return grads, None
        m = decompose_matrix(cfg.lookback, cfg.kernel)
        # x feeds trend through M and seasonal through (I - M)
        return grads, m.T @ (g_trend - g_seasonal) + g_seasonal
