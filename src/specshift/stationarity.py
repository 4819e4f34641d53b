"""Per-frequency stability statistics over collections of windows.

A panel is an (N, K, C) array of spectral amplitudes: N windows, K retained
bins, C channels.  A score table condenses a panel to (K, C); larger means
the bin behaves more consistently across the collection.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .shiftmetrics import chunked
from .spectral import amplitude, dft_forward, window_taps

METRICS = ("mu_sigma", "entropy", "correlation")


def amplitude_panel(windows: np.ndarray, window: str = "rectangular") -> np.ndarray:
    """Spectral amplitudes of a window collection, one pass of
    ``shiftmetrics.chunked`` (each window's transform is its own).

    Parameters
    ----------
    windows : (N, L, C) array.
    window : analysis window applied along L before the DFT, by name
        ("rectangular" leaves the windows as they are, "hann").

    Returns
    -------
    (N, K, C) amplitude panel.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 3:
        raise ValueError("expected a (N, L, C) window stack")
    taps = None if window == "rectangular" else window_taps(window, windows.shape[1])[:, None]
    return chunked(lambda part: amplitude(*dft_forward(part if taps is None else part * taps, axis=1)), windows)


def mu_sigma_scores(panel: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Mean over population standard deviation, per (bin, channel).

    The eps term guards bins whose amplitude never varies; a panel that is
    constant at value v therefore scores v / eps.
    """
    panel = np.asarray(panel, dtype=float)
    if panel.shape[0] < 2:
        raise ValueError("need at least two windows to estimate dispersion")
    return panel.mean(axis=0) / (panel.std(axis=0) + eps)


def check_score_bins(metric: str, bins: int) -> None:
    """The rule a score metric puts on the bin count, ``n_bins(lookback)``:
    entropy scores need at least two bins."""
    if metric == "entropy" and bins < 2:
        raise ConfigError("entropy scores need at least two bins (lookback >= 2)")


def entropy_scores(panel: np.ndarray) -> np.ndarray:
    """Spectral-concentration score from per-window amplitude distributions.

    Each window's amplitudes are normalized to a distribution over bins
    (an all-zero window falls back to uniform).  With H the mean base-2
    entropy and H_max = log2(K):

        score(k, c) = (1 - H / H_max) * mean_prob(k, c) * K

    A flat spectrum scores 0 everywhere; all mass in one bin scores K there
    and 0 elsewhere.
    """
    panel = np.asarray(panel, dtype=float)
    n, k, c = panel.shape
    check_score_bins("entropy", k)
    total = panel.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        prob = np.where(total > 0.0, panel / total, 1.0 / k)
    plogp = np.where(prob > 0.0, prob * np.log2(np.where(prob > 0.0, prob, 1.0)), 0.0)
    entropy = -plogp.sum(axis=1)  # (N, C)
    ratio = 1.0 - entropy.mean(axis=0) / np.log2(k)  # (C,)
    return ratio[None, :] * prob.mean(axis=0) * k


def correlation_scores(panel: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Absolute Pearson correlation between bin amplitude and mean future target.

    targets : (N, H, C) future windows aligned with the panel rows.  Either
    side having zero variance yields a 0 score for that (bin, channel).
    """
    panel = np.asarray(panel, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if targets.shape[0] != panel.shape[0]:
        raise ValueError("panel and targets must cover the same windows")
    if panel.shape[0] < 2:
        raise ValueError("correlation needs at least two windows")
    future_mean = targets.mean(axis=1)  # (N, C)
    a = panel - panel.mean(axis=0)
    b = future_mean - future_mean.mean(axis=0)
    cov = (a * b[:, None, :]).mean(axis=0)
    denom = panel.std(axis=0) * future_mean.std(axis=0)[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(denom > 0.0, cov / denom, 0.0)
    return np.abs(r)


def scores(
    panel: np.ndarray,
    metric: str,
    targets: np.ndarray | None = None,
    eps: float = 1e-5,
) -> np.ndarray:
    """Dispatch to one of the stability metrics in ``METRICS``; ``eps`` is
    the positive ``score_eps`` guard of "mu_sigma"."""
    if metric == "mu_sigma":
        return mu_sigma_scores(panel, eps=eps)
    if metric == "entropy":
        return entropy_scores(panel)
    if metric == "correlation":
        if targets is None:
            raise ValueError("metric 'correlation' needs target windows")
        return correlation_scores(panel, targets)
    raise ConfigError(f"score_metric must be one of {METRICS}, got {metric!r}")


def ema_refresh(current: np.ndarray, batch_scores: np.ndarray, decay: float) -> np.ndarray:
    """Exponential moving average update: decay * current + (1 - decay) * batch,
    for a decay strictly inside (0, 1)."""
    return decay * current + (1.0 - decay) * batch_scores
