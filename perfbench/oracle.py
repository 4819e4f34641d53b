"""Independent recomputation of a re-weighting model's forecasts.

Uses the O(L^2) ``dft_direct`` for the forward transform, an explicit
cosine/sine sum for the inverse, the weighting MLPs written out in plain
numpy, and a per-channel matmul backbone.  For "tifo+san" the patch
normalization around them and its statistics predictor are written out too.
It shares no code with the package's fast path beyond ``dft_direct``, which
the package keeps as its own oracle, and the patch variance floor constant.
"""

from __future__ import annotations

import numpy as np

from specshift.baselines import PATCH_EPS
from specshift.spectral import dft_direct


def _weights(params: dict, scores: np.ndarray, part: str, alpha: float) -> np.ndarray:
    hidden = np.maximum(params[f"tifo.{part}.w1"] @ scores + params[f"tifo.{part}.b1"][:, None], 0.0)
    lam = params[f"tifo.{part}.w2"] @ hidden + params[f"tifo.{part}.b2"][:, None]
    return 1.0 + alpha * (lam - 1.0)


def _inverse(real: np.ndarray, imag: np.ndarray, length: int) -> np.ndarray:
    """(N, K, C) half spectrum -> (N, L, C) series by a direct Hermitian sum."""
    k = np.arange(real.shape[1])
    mult = np.where((k == 0) | ((length % 2 == 0) & (k == length // 2)), 1.0, 2.0)
    angle = 2.0 * np.pi * np.outer(np.arange(length), k) / length  # (L, K)
    cos = np.cos(angle) * mult / length
    sin = np.sin(angle) * mult / length
    return np.einsum("lk,nkc->nlc", cos, real) - np.einsum("lk,nkc->nlc", sin, imag)


def _moving_average(x: np.ndarray, kernel: int) -> np.ndarray:
    """Centered mean over ``kernel`` steps with edge replication, along axis 1."""
    half = kernel // 2
    padded = np.concatenate([np.repeat(x[:, :1], half, axis=1), x, np.repeat(x[:, -1:], half, axis=1)], axis=1)
    length = x.shape[1]
    return sum(padded[:, j : j + length] for j in range(kernel)) / kernel


def _affine(weight: np.ndarray, bias: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.empty((x.shape[0], weight.shape[-2], x.shape[2]))
    for c in range(x.shape[2]):
        w = weight if weight.ndim == 2 else weight[c]
        b = bias if bias.ndim == 1 else bias[c]
        out[:, :, c] = x[:, :, c] @ w.T + b
    return out


def _san(params: dict, x: np.ndarray, patch: int):
    """Patch-normalized x and the predicted output-patch mean and scale, per window and channel."""
    n, length, c = x.shape
    mu_x = np.empty((n, length // patch, c))
    var_x = np.empty_like(mu_x)
    for j in range(length // patch):
        block = x[:, j * patch : (j + 1) * patch]
        mu_x[:, j] = block.mean(axis=1)
        var_x[:, j] = ((block - mu_x[:, j][:, None]) ** 2).mean(axis=1)
    feats = np.concatenate([mu_x, var_x], axis=1)  # (N, 2 * L / patch, C)

    def net(stat):
        out = []
        for ch in range(c):
            hidden = np.maximum(feats[:, :, ch] @ params[f"san.{stat}.w1"].T + params[f"san.{stat}.b1"], 0.0)
            out.append(hidden @ params[f"san.{stat}.w2"].T + params[f"san.{stat}.b2"])
        return np.stack(out, axis=-1)  # (N, H / patch, C)

    mu_y = net("mu")
    var_y = np.logaddexp(0.0, net("var"))  # softplus
    x_norm = (x - np.repeat(mu_x, patch, axis=1)) / np.repeat(np.sqrt(var_x + PATCH_EPS), patch, axis=1)
    return x_norm, np.repeat(mu_y, patch, axis=1), np.repeat(np.sqrt(var_y + PATCH_EPS), patch, axis=1)


def tifo_forecast(params: dict, scores: np.ndarray, x: np.ndarray, *, kind: str, keep: int | None,
                  kernel: int = 25, alpha: float = 1.0, san_patch: int | None = None) -> np.ndarray:
    """Forecasts (N, H, C) of a "tifo" pipeline for windows x (N, L, C); with
    ``san_patch``, of a "tifo+san" pipeline."""
    if san_patch is not None:
        x_norm, shift, scale = _san(params, x, san_patch)
        y_norm = tifo_forecast(params, scores, x_norm, kind=kind, keep=keep, kernel=kernel, alpha=alpha)
        return y_norm * scale + shift
    length = x.shape[1]
    real, imag = dft_direct(x, axis=1)
    w_real = real * _weights(params, scores, "r", alpha)
    w_imag = imag * _weights(params, scores, "i", alpha)
    if keep is not None:
        w_real[:, keep:] = 0.0
        w_imag[:, keep:] = 0.0
    x_t = _inverse(w_real, w_imag, length)
    if kind == "linear":
        return _affine(params["backbone.weight"], params["backbone.bias"], x_t)
    trend = _moving_average(x_t, kernel)
    return (_affine(params["backbone.trend.weight"], params["backbone.trend.bias"], trend)
            + _affine(params["backbone.seasonal.weight"], params["backbone.seasonal.bias"], x_t - trend))


def check_tifo(pipeline, x: np.ndarray, y: np.ndarray, evaluate, tol: float = 1e-9) -> tuple[bool, str]:
    """Oracle forecasts must match ``pipeline.predict`` and ``evaluate``'s MSE to ``tol`` relative."""
    cfg = pipeline.cfg
    tensors = pipeline.tensors()
    pred = tifo_forecast(tensors, tensors["tifo.scores"], x, kind=cfg.backbone.kind, keep=cfg.tifo.keep,
                         kernel=cfg.backbone.kernel, alpha=cfg.tifo.alpha,
                         san_patch=cfg.san.patch if cfg.method == "tifo+san" else None)
    fast = pipeline.predict(x)
    scale = max(float(np.abs(pred).max()), 1e-300)
    pred_err = float(np.abs(fast - pred).max()) / scale
    oracle_mse = float(np.mean((pred - y) ** 2))
    eval_mse = evaluate(pipeline, x, y)["mse"]
    mse_err = abs(eval_mse - oracle_mse) / max(abs(oracle_mse), 1e-300)
    ok = pred_err <= tol and mse_err <= tol
    return ok, f"{x.shape[0]} windows: forecast rel err {pred_err:.2e}, mse rel err {mse_err:.2e}"
