"""Test-side oracles: the plain MSE/MAE losses and a central-difference
check of a pipeline's analytic gradients."""

import numpy as np

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
