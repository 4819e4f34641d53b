"""Distribution-shift diagnostics between two amplitude panels.

For every (bin, channel) pair the two panels provide two scalar samples (one
value per window).  Those are compared with a base-2 Jensen-Shannon
divergence over paired equal-width histograms and with the two-sample
Kolmogorov-Smirnov statistic.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

HIST_BINS = 50


def paired_histograms(a: np.ndarray, b: np.ndarray, bins: int = HIST_BINS) -> tuple[np.ndarray, np.ndarray]:
    """Normalized histograms of two samples over their shared value range.

    The range is [min(a u b), max(a u b)] split into `bins` equal-width bins.
    A degenerate range, one too narrow for ``np.linspace(lo, hi, bins + 1)``
    to give strictly increasing edges (hi == lo, or a few ulps apart), puts
    all mass of both samples in bin 0.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    if bins < 1:
        raise ConfigError(f"hist_bins must be positive, got {bins}")
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    edges = np.linspace(lo, hi, bins + 1)
    if (edges[:-1] >= edges[1:]).any():
        p = np.zeros(bins)
        q = np.zeros(bins)
        p[0] = 1.0
        q[0] = 1.0
        return p, q
    p, _ = np.histogram(a, bins=bins, range=(lo, hi))
    q, _ = np.histogram(b, bins=bins, range=(lo, hi))
    return p / a.size, q / b.size


def jsd2(p: np.ndarray, q: np.ndarray) -> float:
    """Squared Jensen-Shannon distance (base-2 JS divergence) of two PMFs.

    Inputs must be non-negative and sum to 1 within 1e-9; 0 * log 0 counts
    as 0.  The value lies in [0, 1], hitting 1 for disjoint supports.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("PMFs must share a shape")
    if (p < 0).any() or (q < 0).any():
        raise ValueError("PMFs must be non-negative")
    if abs(p.sum() - 1.0) > 1e-9 or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("PMFs must sum to 1 within 1e-9")
    m = 0.5 * (p + q)

    def _kl(u, v):
        mask = u > 0.0
        return float((u[mask] * np.log2(u[mask] / v[mask])).sum())

    return 0.5 * _kl(p, m) + 0.5 * _kl(q, m)


def ks(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |ECDF_a - ECDF_b|."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def shift_report(panel_a: np.ndarray, panel_b: np.ndarray, bins: int = HIST_BINS) -> dict:
    """Per-(bin, channel) jsd2/ks between two (N, K, C) panels, plus aggregates.

    Returns a dict with "jsd2" and "ks" (K, C) arrays and an "aggregate"
    mapping with mean, median and 60th percentile of each metric.
    """
    panel_a = np.asarray(panel_a, dtype=float)
    panel_b = np.asarray(panel_b, dtype=float)
    if panel_a.ndim != 3 or panel_b.ndim != 3:
        raise ValueError("panels must be (N, K, C)")
    if panel_a.shape[1:] != panel_b.shape[1:]:
        raise ValueError("panels must agree on (K, C)")
    k, c = panel_a.shape[1:]
    jsd_table = np.zeros((k, c))
    ks_table = np.zeros((k, c))
    for ci in range(c):
        for ki in range(k):
            sample_a = panel_a[:, ki, ci]
            sample_b = panel_b[:, ki, ci]
            p, q = paired_histograms(sample_a, sample_b, bins=bins)
            jsd_table[ki, ci] = jsd2(p, q)
            ks_table[ki, ci] = ks(sample_a, sample_b)
    aggregate = {}
    for name, table in (("jsd2", jsd_table), ("ks", ks_table)):
        aggregate[f"{name}_mean"] = float(table.mean())
        aggregate[f"{name}_median"] = float(np.median(table))
        aggregate[f"{name}_p60"] = float(np.percentile(table, 60.0))
    return {"jsd2": jsd_table, "ks": ks_table, "aggregate": aggregate}
