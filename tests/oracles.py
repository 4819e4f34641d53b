"""Test-side oracles: the plain MSE/MAE losses, a central-difference
check of a pipeline's analytic gradients, the inverse-type transforms on a
spectrum summed as ``real + 1j * imag``, the one-cell shift metrics, the
synthetic generator's per-sample, per-component, per-channel loop, and the
whole-split passes on the whole array at once."""

import numpy as np

from specshift import baselines, tifo
from specshift.data import ZSCORE_EPS
from specshift.spectral import amplitude, dft_forward, hermitian_multiplicity, window_taps
from specshift.stationarity import scores
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


# ---------------------------------------------------------------------------
# synthetic generator, one sine per (sample, component, channel)
# ---------------------------------------------------------------------------


def generate_synthetic_loop(spec):
    """``data.generate_synthetic``'s blocks, each sample's waves formed afresh
    channel by channel; no finiteness check."""
    rng = np.random.default_rng(spec.seed)
    length = spec.sample_length
    n = np.arange(length)
    blocks = []
    for cond in spec.conditions:
        sigma = spec.noise if cond.noise is None else cond.noise
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(len(cond.components), spec.channels))
        block = np.zeros((spec.samples_per_condition, length, spec.channels))
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(spec.samples_per_condition):
                for j, (freq, amp) in enumerate(cond.components):
                    if spec.amp_jitter:
                        amp = amp * (1.0 + spec.amp_jitter * rng.uniform(-1.0, 1.0))
                    # per-channel phase offsets on the same component
                    for c in range(spec.channels):
                        block[s, :, c] += amp * np.sin((2.0 * np.pi * freq / length) * n + phases[j, c])
                block[s] += sigma * rng.standard_normal((length, spec.channels))
        blocks.append(block.reshape(-1, spec.channels))
    return blocks


# ---------------------------------------------------------------------------
# whole-split passes, every window at once
# ---------------------------------------------------------------------------


def fit_scaler_whole(train_inputs):
    """(mu, sigma) of ``data.fit_scaler`` by ``np.mean`` and ``np.std`` of the reshaped windows."""
    flat = np.asarray(train_inputs, dtype=float).reshape(-1, np.shape(train_inputs)[-1])
    return flat.mean(axis=0), flat.std(axis=0) + ZSCORE_EPS


def amplitude_panel_whole(windows, window="rectangular"):
    """``stationarity.amplitude_panel`` as one transform of every window."""
    windows = np.asarray(windows, dtype=float)
    if window != "rectangular":
        windows = windows * window_taps(window, windows.shape[1])[:, None]
    return amplitude(*dft_forward(windows, axis=1))


def transformed_input_whole(pipe, x):
    """``Pipeline.transformed_input``: the whole split entered, then re-weighted."""
    x_n = pipe.norm.enter(x)[0]
    return x_n if pipe.tifo is None else tifo.transform(x_n, *pipe.tifo.weights()[:2])[0]


def score_table_whole(pipe, x, y):
    """``training.fit_score_table`` from the panel of the whole entered split."""
    cfg = pipe.tifo.cfg
    panel = amplitude_panel_whole(pipe.norm.enter(x)[0], cfg.window)
    return scores(panel, cfg.score_metric, targets=y, eps=cfg.score_eps)


def panels_whole(pipe, x, window):
    """``Pipeline.panels`` on the whole split: the re-weighting layer's
    rectangular After panel off the weighted spectrum, every other panel by
    ``amplitude_panel_whole``."""
    if not pipe.transforms_input:
        return amplitude_panel_whole(x, window), None
    if pipe.tifo is None or window != "rectangular":
        return amplitude_panel_whole(x, window), amplitude_panel_whole(transformed_input_whole(pipe, x), window)
    x_n = pipe.norm.enter(x)[0]
    spectrum = dft_forward(x_n, axis=1)
    before = amplitude(*spectrum) if x_n is x else amplitude_panel_whole(x, window)
    weighted, k = pipe.tifo.weighted_spectrum(spectrum, pipe.tifo.weights()), pipe.tifo.keep
    after = np.zeros(before.shape)
    after[:, :k] = amplitude(weighted[:, :k], weighted[:, k:])
    return before, after


def fan_targets_whole(pipe, y):
    """``FanNorm.targets``: the top-k split of every forecast window at once."""
    return np.stack(baselines.main_frequency_split(y, pipe.norm.topk), axis=1)


def san_split_stats_whole(pipe, x):
    """``SanNorm.split_stats``: the patch statistics of every window at once."""
    return baselines.san_patch_stats(x, pipe.norm.patch)
