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

from .data import check_window_sizes
from .errors import ConfigError

@dataclass(frozen=True)
class BackboneConfig:
    kind: str  # "linear" or "dlinear"
    lookback: int
    horizon: int
    channels: int  # 0: from the data; a pipeline is built with at least 1
    shared: bool = False  # either kind: each head has one weight matrix for every channel
    kernel: int = 25  # dlinear only: moving-average width, odd (checked for either kind)

    def __post_init__(self):
        if self.kind not in ("linear", "dlinear"):
            raise ConfigError(f"backbone must be 'linear' or 'dlinear', got {self.kind!r}")
        check_window_sizes(self.lookback, self.horizon)
        if self.channels < 0:
            raise ConfigError(f"channels must be non-negative, got {self.channels}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError(f"dlinear_kernel must be a positive odd integer, got {self.kernel}")


def decompose_matrix(length: int, kernel: int) -> np.ndarray:
    """(L, L) matrix M with (M x)[n] the edge-replicated moving average of x:
    row n adds 1 / kernel at each of the columns n - kernel // 2 .. n +
    kernel // 2, clipped to [0, L - 1], in that order."""
    rows = np.arange(length)[:, None]
    cols = np.clip(rows + np.arange(-(kernel // 2), kernel // 2 + 1), 0, length - 1)
    m = np.zeros((length, length))
    np.add.at(m, (rows, cols), 1.0 / kernel)
    return m


def moving_average_decompose(x: np.ndarray, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split (..., L, C) into (trend, seasonal) with trend + seasonal == x
    exactly, the trend being ``matrix @ x`` for a ``decompose_matrix``."""
    trend = matrix @ x
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


class Backbone:
    """Parameter container plus explicit forward/VJP: a sum of affine heads,
    each on one part of the input.  It keeps the block contract of
    ``training.Pipeline``: a ``name``, trainable ``params`` and ``frozen``
    (empty) dicts.

    ``heads`` are the parameter-name prefixes: ``("",)`` for linear, whose
    one part is x, and ``("trend.", "seasonal.")`` for dlinear, whose parts
    are ``moving_average_decompose(x, decomp)``; ``decomp`` is the
    backbone's own moving-average matrix, None for linear.
    """

    name = "backbone"

    def __init__(self, cfg: BackboneConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.frozen: dict[str, np.ndarray] = {}
        self.heads = ("",) if cfg.kind == "linear" else ("trend.", "seasonal.")
        self.decomp = None if cfg.kind == "linear" else decompose_matrix(cfg.lookback, cfg.kernel)
        shape = (cfg.horizon, cfg.lookback) if cfg.shared else (cfg.channels, cfg.horizon, cfg.lookback)
        self.params = {}
        for h in self.heads:
            self.params[f"{h}weight"] = xavier_uniform(rng, shape)
            self.params[f"{h}bias"] = np.zeros(shape[:-1])

    def parts(self, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """The input of each head, in ``heads`` order."""
        return (x,) if self.decomp is None else moving_average_decompose(x, self.decomp)

    def forward(self, x: np.ndarray):
        """(N, L, C) -> ((N, H, C) forecast, cache for ``vjp``): the parts of x.
        A window view is copied first, so its heads' matmuls run the BLAS
        kernel of owned windows and give their bits."""
        parts = self.parts(np.ascontiguousarray(x))
        out, *rest = [dense(self.params[f"{h}weight"], self.params[f"{h}bias"], part)
                      for h, part in zip(self.heads, parts)]
        for more in rest:
            out += more
        return out, parts

    def fold(self, basis: np.ndarray):
        """``(matrix, bias)`` of the forecast of ``basis @ z``: the heads
        composed with the (L, M) linear map basis in front of them, so that
        ``forward(basis @ z)`` equals ``dense(matrix, bias, z)`` for (N, M, C)
        z, up to rounding.  matrix is ``sum_h W_h P_h basis``, P_h the linear
        map forming part h, with each head's weight layout: (H, M) shared or
        (C, H, M) per channel."""
        parts = self.parts(basis)
        matrix = sum(self.params[f"{h}weight"] @ part for h, part in zip(self.heads, parts))
        return matrix, sum(self.params[f"{h}bias"] for h in self.heads)

    def vjp(self, x: np.ndarray, cache, upstream: np.ndarray, input_grad: bool = True):
        """Returns (param_grads, grad_x) for the forward pass at x that
        returned cache; grad_x is None when input_grad is False."""
        grads, g_parts = {}, []
        for h, part in zip(self.heads, cache):
            w = self.params[f"{h}weight"]
            grads[f"{h}weight"], grads[f"{h}bias"], g_part = dense_vjp(w, part, upstream, input_grad)
            g_parts.append(g_part)
        if not input_grad or self.decomp is None:
            return grads, g_parts[0]  # None without input_grad
        g_trend, g_seasonal = g_parts
        # x feeds trend through M and seasonal through (I - M)
        return grads, self.decomp.T @ (g_trend - g_seasonal) + g_seasonal
