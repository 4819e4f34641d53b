"""Test-side oracles: the plain MSE/MAE losses, a central-difference
check of a pipeline's analytic gradients, the inverse-type transforms on a
spectrum summed as ``real + 1j * imag``, and the one-cell shift metrics."""

import numpy as np

from specshift.spectral import hermitian_multiplicity
from specshift.training import Pipeline


def _paired(pred, target) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return pred, target


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    pred, target = _paired(pred, target)
    return float(np.mean((pred - target) ** 2))


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    pred, target = _paired(pred, target)
    return float(np.mean(np.abs(pred - target)))


def finite_diff_check(pipeline: Pipeline, x: np.ndarray, y: np.ndarray, eps: float = 1e-5) -> float:
    """Worst relative disagreement between analytic and central-difference grads.

    The denominator is floored at 1e-3 so exactly-zero analytic gradients are
    compared absolutely at that scale rather than against roundoff noise.
    """
    targets = pipeline.norm.targets(y)
    _, grads = pipeline.loss_grads(x, targets)
    worst = 0.0
    for name in sorted(pipeline.params):
        arr = pipeline.params[name]
        g = np.asarray(grads[name], dtype=float).ravel()
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = pipeline.loss_grads(x, targets)[0]
            flat[i] = orig - eps
            down = pipeline.loss_grads(x, targets)[0]
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(numeric), abs(g[i]), 1e-3)
            worst = max(worst, abs(numeric - g[i]) / denom)
    return worst


# ---------------------------------------------------------------------------
# inverse-type transforms on the summed complex spectrum
# ---------------------------------------------------------------------------


def dft_inverse_summed(real, imag, length, axis=0):
    """``spectral.dft_inverse`` with the spectrum formed as ``real + 1j * imag``."""
    return np.fft.irfft(real + 1j * imag, n=length, axis=axis)


def dft_forward_adjoint_summed(g_real, g_imag, length, axis=0):
    """``spectral.dft_forward_adjoint`` with the spectrum formed as ``g_real + 1j * g_imag``."""
    shape = [1] * np.ndim(g_real)
    shape[axis] = -1
    z = (g_real + 1j * g_imag) / hermitian_multiplicity(length).reshape(shape)
    return length * np.fft.irfft(z, n=length, axis=axis)


# ---------------------------------------------------------------------------
# shift metrics, one (bin, channel) cell at a time
# ---------------------------------------------------------------------------


def paired_histograms_1d(a, b, bins):
    """Two samples' normalized histograms over their shared range by
    ``np.histogram``; a range too narrow for ``np.linspace`` to give strictly
    increasing edges puts all mass in bin 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    edges = np.linspace(lo, hi, bins + 1)
    if (edges[:-1] >= edges[1:]).any():
        p = np.zeros(bins)
        p[0] = 1.0
        return p, p.copy()
    p, _ = np.histogram(a, bins=bins, range=(lo, hi))
    q, _ = np.histogram(b, bins=bins, range=(lo, hi))
    return p / a.size, q / b.size


def jsd2_1d(p, q):
    """Base-2 JS divergence of two PMFs: each KL term summed over the
    entries where its first argument is nonzero."""
    m = 0.5 * (p + q)

    def kl(u, v):
        mask = u > 0.0
        return float((u[mask] * np.log2(u[mask] / v[mask])).sum())

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def ks_1d(a, b):
    """sup |ECDF_a - ECDF_b| over the pooled values, by searchsorted."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def shift_tables(panel_a, panel_b, bins):
    """(jsd2, ks) (K, C) tables of two (N, K, C) panels, one cell at a time."""
    k, c = panel_a.shape[1:]
    jsd = np.zeros((k, c))
    ks = np.zeros((k, c))
    for ki in range(k):
        for ci in range(c):
            a, b = panel_a[:, ki, ci], panel_b[:, ki, ci]
            jsd[ki, ci] = jsd2_1d(*paired_histograms_1d(a, b, bins))
            ks[ki, ci] = ks_1d(a, b)
    return jsd, ks
