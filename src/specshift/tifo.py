"""Learnable spectral re-weighting driven by per-frequency stability scores.

Two independent two-layer MLPs map a fixed (K, C) score table to per-bin
weights, one set for the real coefficients and one for the imaginary ones.
A window is re-weighted by transforming it to the frequency domain, scaling
coefficient (k, c) by the corresponding weight, and inverting back.  The
score table is a constant of the layer: gradients flow to the MLP parameters
and to the input series, never into the scores.  The functions here take
the weights as given; ``training.TifoLayer.weights`` forms the one (K, C)
table every caller uses (alpha scaling and the ``keep`` truncation, a 0/1
factor on the weights).  The training pipeline calls ``transform`` with that
table, and ``TifoLayer.vjp`` reads the spectrum it returns.

For a fixed table the layer is linear and diagonal on the spectrum, so a
backbone's forecast of its output is one linear map of the weighted
spectrum ``[lambda_r * Re X; lambda_i * Im X]``: the backbone composed with
the real inverse DFT (``training.TifoLayer.basis``, numpy's ``irfft`` of
unit spectra).  Forecasts without
gradients (``training.Pipeline.head``) are read off the spectrum that way;
training and ``transform`` keep the FFT path, which stays its oracle.

Scaling the real and imaginary parts apart is not a complex scale: the
transform commutes with circular shifts of the window (is shift-invariant,
a diagonal operator in the DFT basis) only where lambda_r = lambda_i.  With
lambda_r != lambda_i at a bin k, a shift by s whose 2ks is not a multiple of
L moves the output by a gap proportional to |lambda_r - lambda_i|.

Initialization makes the layer an exact identity: hidden weights are
Xavier-uniform, output weights start at zero, and the output bias starts at
one, so every weight is exactly 1.0 before the first update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .models import mlp_forward, mlp_vjp, xavier_uniform
from .spectral import (
    WINDOWS,
    dft_forward,
    dft_forward_adjoint,
    dft_inverse,
    hermitian_multiplicity,
)
from .stationarity import METRICS


@dataclass(frozen=True)
class TifoConfig:
    """The re-weighting layer's keys and their rules; ``PipelineConfig``
    checks ``keep`` against the lookback."""

    hidden: int = 128
    alpha: float = 1.0
    keep: int | None = None  # retain the lowest `keep` bins; None keeps all
    score_metric: str = "mu_sigma"
    score_eps: float = 1e-5
    window: str = "rectangular"

    def __post_init__(self):
        if self.hidden < 1:
            raise ConfigError(f"hidden must be at least 1, got {self.hidden}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.keep is not None and self.keep < 1:
            raise ConfigError(f"keep must be at least 1, or unset to keep every bin, got {self.keep}")
        if self.score_metric not in METRICS:
            raise ConfigError(f"score_metric must be one of {METRICS}, got {self.score_metric!r}")
        if not 0.0 < self.score_eps < float("inf"):
            raise ConfigError(f"score_eps must be finite and positive, got {self.score_eps}")
        if self.window not in WINDOWS:
            raise ConfigError(f"window must be one of {WINDOWS}, got {self.window!r}")


def init_params(bins: int, hidden: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Parameters for the two weighting MLPs; the real net is drawn first."""
    params: dict[str, np.ndarray] = {}
    for part in ("r", "i"):
        params[f"{part}.w1"] = xavier_uniform(rng, (hidden, bins))
        params[f"{part}.b1"] = np.zeros(hidden)
        params[f"{part}.w2"] = np.zeros((bins, hidden))
        params[f"{part}.b2"] = np.ones(bins)
    return params


def weights_forward(params: dict[str, np.ndarray], score_table: np.ndarray):
    """Map a (K, C) score table to (lambda_r, lambda_i, cache)."""
    score_table = np.asarray(score_table, dtype=float)
    if score_table.ndim != 2:
        raise ValueError("expected a (K, C) score table")
    # channels as the batch axis: each layer is one (hidden, K) @ (K, C) matmul
    feats = score_table.T[:, :, None]
    lam_r, cache_r = mlp_forward(params, "r", feats)
    lam_i, cache_i = mlp_forward(params, "i", feats)
    return lam_r[:, :, 0].T, lam_i[:, :, 0].T, (cache_r, cache_i)


def weights_vjp(
    params: dict[str, np.ndarray],
    cache,
    g_lambda_r: np.ndarray,
    g_lambda_i: np.ndarray,
) -> dict[str, np.ndarray]:
    """Backprop (K, C) weight cotangents to MLP parameter gradients."""
    cache_r, cache_i = cache
    grads = mlp_vjp(params, "r", cache_r, g_lambda_r.T[:, :, None])
    grads.update(mlp_vjp(params, "i", cache_i, g_lambda_i.T[:, :, None]))
    return grads


def alpha_scale(lam: np.ndarray, alpha: float) -> np.ndarray:
    """Interpolate weights toward the identity: 1 + alpha * (lam - 1).

    alpha = 1 keeps the learned weights, alpha = 0 removes the layer.
    """
    return 1.0 + alpha * (np.asarray(lam, dtype=float) - 1.0)


def transform(x: np.ndarray, lam_r: np.ndarray, lam_i: np.ndarray):
    """Re-weight a window (or stack of windows) in the frequency domain.

    x : (..., L, C); weights are (K, C).  Returns (re-weighted x, cache), the
    cache being x's spectrum (real, imag), which ``transform_vjp`` reads.
    """
    x = np.asarray(x, dtype=float)
    real, imag = dft_forward(x, axis=-2)
    return weighted_inverse(real, imag, lam_r, lam_i, x.shape[-2]), (real, imag)


def weighted_inverse(
    real: np.ndarray,
    imag: np.ndarray,
    lam_r: np.ndarray,
    lam_i: np.ndarray,
    length: int,
) -> np.ndarray:
    """Inverse transform of a spectrum scaled per (bin, channel)."""
    return dft_inverse(real * lam_r, imag * lam_i, length, axis=-2)


def transform_vjp(
    upstream: np.ndarray,
    real: np.ndarray,
    imag: np.ndarray,
    lam_r: np.ndarray,
    lam_i: np.ndarray,
    length: int,
):
    """VJP of ``transform`` w.r.t. the input series and the weights; real
    and imag are the cache it returned.

    Because the DFT and its inverse are linear, the cotangent of the weighted
    spectrum is just the forward DFT of the upstream gradient scaled by the
    Hermitian multiplicities over L.

    Returns (grad_x, g_lambda_r, g_lambda_i); weight gradients are summed
    over leading (batch) axes to shape (K, C).
    """
    upstream = np.asarray(upstream, dtype=float)
    gu_real, gu_imag = dft_forward(upstream, axis=-2)
    scale = hermitian_multiplicity(length) / length
    g_wreal = gu_real * scale[:, None]
    g_wimag = gu_imag * scale[:, None]
    g_lambda_r = g_wreal * real
    g_lambda_i = g_wimag * imag
    while g_lambda_r.ndim > 2:
        g_lambda_r = g_lambda_r.sum(axis=0)
        g_lambda_i = g_lambda_i.sum(axis=0)
    grad_x = dft_forward_adjoint(g_wreal * lam_r, g_wimag * lam_i, length, axis=-2)
    return grad_x, g_lambda_r, g_lambda_i
