"""Print each whole-split pass's ``tracemalloc`` peak, in bytes per unit.

    python tools/peak_memory.py [--rows 17420] [--channels 7] [--lookback 96] [--horizon 96]

Builds a seeded (rows, channels) series (the default is the ETTh1 shape),
splits it as ``build_dataset`` does and, for each pass over the training
split, reports the peak of the memory ``tracemalloc`` sees during one call,
after a warm-up call, divided by the pass's unit count:

- ``build_dataset``: per training (window, step, channel);
- ``amplitude_panel``: per training (window, bin, channel);
- ``transformed_input``: per training (window, step, channel);
- ``score fit`` (``fit_score_table``): per training (window, bin, channel);
- ``panels`` (``Pipeline.panels``, rectangular window) and ``panels ...
  hann`` (the Hann window, ``shift window=hann``'s route): per training
  (window, bin, channel);

each of the last three for ``tifo`` and ``tifo+san``;

- ``fan targets`` (``FanNorm.targets``): per training (window, step,
  channel) of the forecast windows;
- ``san stage one`` (``SanNorm.split_stats`` of the input windows, at the
  default patch): per training (window, step, channel).

A pass's outputs count toward its peak; its inputs, made before the call,
do not.  Uses the ``specshift`` package of the checkout this file sits in,
and gates nothing.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from specshift.data import build_dataset  # noqa: E402
from specshift.models import BackboneConfig  # noqa: E402
from specshift.spectral import n_bins  # noqa: E402
from specshift.stationarity import amplitude_panel  # noqa: E402
from specshift.training import Pipeline, PipelineConfig, fit_score_table  # noqa: E402


def series(rows: int, channels: int, seed: int = 0) -> np.ndarray:
    """Daily and weekly tones on a random walk, one phase per channel."""
    rng = np.random.default_rng(seed)
    t = np.arange(rows)[:, None]
    tones = np.sin(2 * np.pi * t / 24 + rng.uniform(0, 6, channels)) + 0.5 * np.sin(2 * np.pi * t / 168)
    return 10.0 + tones + np.cumsum(rng.normal(scale=0.1, size=(rows, channels)), axis=0)


def peak_bytes(call) -> int:
    """Peak traced bytes above the start of one call of ``call()``, after a
    warm-up call; the result is held until the peak is read."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return peak - base


def rates(rows: int = 17420, channels: int = 7, lookback: int = 96, horizon: int = 96) -> dict[str, float]:
    """{pass name: peak bytes per unit} at this shape, in the module docstring's order."""
    raw = series(rows, channels)
    ds = build_dataset(raw, lookback, horizon)
    x, y = ds.x_train, ds.y_train
    steps = x.shape[0] * lookback * channels
    bins = x.shape[0] * n_bins(lookback) * channels

    def pipeline(method):
        return Pipeline(PipelineConfig(method=method, backbone=BackboneConfig(
            kind="linear", lookback=lookback, horizon=horizon, channels=channels)), np.random.default_rng(0))

    out = {"build_dataset": peak_bytes(lambda: build_dataset(raw, lookback, horizon)) / steps,
           "amplitude_panel": peak_bytes(lambda: amplitude_panel(x)) / bins}
    for method in ("tifo", "tifo+san"):
        pipe = pipeline(method)
        pipe.tifo.scores[...] = fit_score_table(pipe, x, y)
        out[f"transformed_input {method}"] = peak_bytes(lambda: pipe.transformed_input(x)) / steps
        out[f"score fit {method}"] = peak_bytes(lambda: fit_score_table(pipe, x, y)) / bins
        out[f"panels {method}"] = peak_bytes(lambda: pipe.panels(x, "rectangular")) / bins
        out[f"panels {method} hann"] = peak_bytes(lambda: pipe.panels(x, "hann")) / bins
    fan, san = pipeline("fan").norm, pipeline("san").norm
    out["fan targets"] = peak_bytes(lambda: fan.targets(y)) / (y.shape[0] * horizon * channels)
    out["san stage one"] = peak_bytes(lambda: san.split_stats(x)) / steps
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=17420)
    parser.add_argument("--channels", type=int, default=7)
    parser.add_argument("--lookback", type=int, default=96)
    parser.add_argument("--horizon", type=int, default=96)
    args = parser.parse_args()
    print(f"series ({args.rows}, {args.channels}), lookback {args.lookback}, horizon {args.horizon}")
    for name, rate in rates(args.rows, args.channels, args.lookback, args.horizon).items():
        print(f"{name:28s} {rate:6.1f} B per unit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
