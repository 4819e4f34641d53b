"""Dataset plumbing: CSV loading, windowing, chronological splits, z-scoring,
and a condition-based synthetic generator.

A raw series is a (T, C) float array, rows in time order.  Windowing is
stride-1: window i covers rows [i, i+L) with target rows [i+L, i+L+H).
Windows are read-only views into the series they are cut from, so a dataset
holds one z-scored copy of its series and no per-window copies.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

ZSCORE_EPS = 1e-8


def load_csv(path: str) -> np.ndarray:
    """Load a (T, C) series from a headered CSV.

    The first column is dropped (dates) when none of its cells is a number.
    Any other non-numeric entry raises DataError naming the row and the
    column, so a first column that mixes numbers and text does too; so do a
    ragged row, an empty table and a file with no numeric column.  The first
    failing row wins, and within a row a ragged row beats a bad first cell,
    which beats a bad later cell.

    Rows are parsed as they are read, into packed float64 buffers: no row's
    strings outlive it, and parsing stops (reading does not) at the first
    bad row.
    """
    first = array("d")  # every row's first cell, NaN where it is not a number
    rest = array("d")  # the other cells, row after row, up to the first bad row
    numeric_first = False
    text = None  # (row, cell) of the first row whose first cell is not a number
    bad = None  # (row, rank, message) of the first ragged row or bad later cell
    try:
        with open(path, newline="") as fh:
            rows = (row for row in csv.reader(fh) if row)
            header = next(rows, [])
            width = len(header)
            for idx, row in enumerate(rows, start=1):
                try:
                    first.append(float(row[0]))
                    numeric_first = True
                except ValueError:
                    first.append(np.nan)
                    text = text or (idx, row[0])
                if bad is not None:
                    continue
                if len(row) != width:
                    bad = (idx, 0, f"row {idx} has {len(row)} fields, expected {width}")
                    continue
                try:
                    rest.extend(map(float, row[1:]))
                except ValueError:
                    col = next(col for col in range(1, width) if not _is_number(row[col]))
                    bad = (idx, 2, f"row {idx}, column {header[col]!r}: not a number: {row[col]!r}")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if not first:
        raise DataError(f"{path}: need a header row and at least one data row")
    skip_first = not numeric_first
    if width <= skip_first:
        raise DataError(f"{path}: no numeric column")
    if not skip_first and text is not None:
        cell = (text[0], 1, f"row {text[0]}, column {header[0]!r}: not a number: {text[1]!r}")
        bad = min(bad or cell, cell)
    if bad is not None:
        raise DataError(f"{path}: {bad[2]}")
    out = np.frombuffer(rest).reshape(len(first), width - 1)
    out = out.copy() if skip_first else np.concatenate([np.frombuffer(first)[:, None], out], axis=1)
    if not np.isfinite(out).all():
        bad_row = int(np.argwhere(~np.isfinite(out))[0][0])
        raise DataError(f"{path}: non-finite value in row {bad_row + 1}")
    return out


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def check_window_sizes(lookback: int, horizon: int) -> None:
    """``make_windows``' rule on its sizes, which needs no series."""
    if lookback < 1 or horizon < 1:
        raise ConfigError(f"lookback and horizon must be positive, got {lookback} and {horizon}")


def make_windows(series: np.ndarray, lookback: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Stride-1 windowing into inputs (N, L, C) and targets (N, H, C).

    Both are read-only views into ``series`` (as float); no window is copied.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 2:
        raise DataError("series must be (T, C)")
    check_window_sizes(lookback, horizon)
    t = series.shape[0]
    n = t - lookback - horizon + 1
    if n < 1:
        raise DataError(f"series length {t} too short for lookback {lookback} + horizon {horizon}")
    # (N, C, L + H) view of every stride-1 span, returned as (N, L|H, C)
    spans = np.lib.stride_tricks.sliding_window_view(series, lookback + horizon, axis=0)
    return spans[:, :, :lookback].transpose(0, 2, 1), spans[:, :, lookback:].transpose(0, 2, 1)


def chronological_split(n: int) -> tuple[slice, slice, slice]:
    """70/20/10 window split by position; needs at least 10 windows."""
    if n < 10:
        raise DataError(f"need at least 10 windows to split, got {n}")
    t = int(np.floor(0.7 * n))
    v = int(np.floor(0.9 * n))
    return slice(0, t), slice(t, v), slice(v, n)


@dataclass
class Scaler:
    mu: np.ndarray  # (C,)
    sigma: np.ndarray  # (C,)

    def apply(self, arr: np.ndarray) -> np.ndarray:
        return (arr - self.mu) / self.sigma


def fit_scaler(train_inputs: np.ndarray) -> Scaler:
    """Per-channel z-score statistics over the training windows' values; the
    scale is the population standard deviation plus ``ZSCORE_EPS``.

    The windows are copied once, as (values, C) rows, and the deviations are
    formed and squared in that copy: ``np.std``'s own operations in its
    order, so the bits are its bits, at one copy's memory (8 B per window
    value) where ``std`` holds a second one.  The caller's array is never
    written.
    """
    flat = np.array(train_inputs, dtype=float)
    flat = flat.reshape(-1, flat.shape[-1])
    mu = flat.mean(axis=0)
    flat -= mu
    flat *= flat
    return Scaler(mu=mu, sigma=np.sqrt(flat.sum(axis=0) / flat.shape[0]) + ZSCORE_EPS)


@dataclass
class Dataset:
    """Windowed, split, z-scored forecasting dataset.

    The six window fields are read-only views of one z-scored series.
    """

    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    scaler: Scaler

    @property
    def channels(self) -> int:
        return self.x_train.shape[-1]


def build_dataset(series: np.ndarray, lookback: int, horizon: int, scaler: Scaler | None = None) -> Dataset:
    """Window, split chronologically, and z-score with train-split statistics.

    The scaler is fit on the raw training windows; the series is then
    z-scored once and every field is a window view of that one array.
    A pre-fit scaler (e.g. from a checkpoint) can be supplied to reproduce
    the exact training-time normalization.  A series that is not finite once
    z-scored (non-finite values, or values so large the statistics overflow)
    raises DataError.

    Its peak is ``fit_scaler``'s one copy of the training windows, 8 B per
    (window, step, channel); the rest is series-sized.  It takes no window
    chunks (``shiftmetrics.CHUNK_SAMPLES``), unlike the panels: numpy sums a
    single channel's contiguous values pairwise, so sums over chunks of rows
    would change ``np.std``'s bits at C = 1.
    """
    series = np.asarray(series, dtype=float)
    x, _ = make_windows(series, lookback, horizon)
    tr, va, te = chronological_split(x.shape[0])
    if scaler is None:
        scaler = fit_scaler(x[tr])
    z = scaler.apply(series)
    if not np.isfinite(z).all():
        raise DataError("series is not finite once z-scored (non-finite or overflowing values)")
    x, y = make_windows(z, lookback, horizon)
    return Dataset(x[tr], y[tr], x[va], y[va], x[te], y[te], scaler)


# ---------------------------------------------------------------------------
# synthetic conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Condition:
    """One temporal regime: a frequency mixture plus optional noise override.

    components: (bin index, amplitude) pairs; bin indices are relative to the
    sample length (index f completes f cycles per sample).
    """

    components: tuple[tuple[int, float], ...]
    noise: float | None = None


@dataclass(frozen=True)
class SyntheticSpec:
    """A synthetic series' recipe; each rule's message names the field's
    ``synth_*`` config key."""

    conditions: tuple[Condition, ...]
    samples_per_condition: int = 50
    sample_length: int = 96
    channels: int = 1
    noise: float = 0.1
    amp_jitter: float = 0.0  # per-sample relative amplitude jitter, 0 disables
    seed: int = 0

    def __post_init__(self):
        for key, name in (("synth_samples", "samples_per_condition"), ("synth_len", "sample_length"),
                          ("synth_channels", "channels")):
            if getattr(self, name) < 1:
                raise ConfigError(f"{key} ({name}) must be at least 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for key, value in (("synth_noise", self.noise), ("synth_jitter", self.amp_jitter)):
            if not np.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if not self.conditions:
            raise ConfigError("synth_mix needs at least one condition")
        k = self.sample_length // 2 + 1
        for idx, cond in enumerate(self.conditions):
            if cond.noise is not None and not np.isfinite(cond.noise):
                raise ConfigError(f"synth_noise_by_condition: condition {idx}'s noise must be finite, "
                                  f"got {cond.noise}")
            for freq, amp in cond.components:
                if not 0 <= freq < k:
                    raise ConfigError(f"synth_mix component frequency {freq} is out of range for "
                                      f"synth_len {self.sample_length}")
                if not np.isfinite(amp):
                    raise ConfigError(f"synth_mix component amplitude must be finite, got {amp}")


def generate_synthetic(spec: SyntheticSpec) -> list[np.ndarray]:
    """One (samples * sample_length, C) block per condition, deterministic in seed.

    Sample s of a condition is sum_j a_j * sin(2 pi f_j n / L + phi_j) plus
    Gaussian noise; the phase phi_j is drawn once per (condition, component,
    channel) so a condition's spectrum is stable across its samples.  Each
    component's (L, C) wave is therefore formed once per condition; a sample
    adds them in component order, each at its own (jittered) amplitude, then
    its noise.  A block that overflows to a non-finite value raises ConfigError.
    """
    rng = np.random.default_rng(spec.seed)
    length = spec.sample_length
    n = np.arange(length)[:, None]
    blocks = []
    for cond in spec.conditions:
        sigma = spec.noise if cond.noise is None else cond.noise
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(len(cond.components), spec.channels))
        # per-channel phase offsets on the same component
        waves = [np.sin((2.0 * np.pi * freq / length) * n + phase) for (freq, _), phase in zip(cond.components, phases)]
        block = np.zeros((spec.samples_per_condition, length, spec.channels))
        with np.errstate(over="ignore", invalid="ignore"):
            for sample in block:
                for (_, amp), wave in zip(cond.components, waves):
                    if spec.amp_jitter:
                        amp = amp * (1.0 + spec.amp_jitter * rng.uniform(-1.0, 1.0))
                    sample += amp * wave  # one add per component: np.sum over 8+ may pair them up
                sample += sigma * rng.standard_normal((length, spec.channels))
        if not np.isfinite(block).all():
            raise ConfigError(f"synthetic condition {len(blocks)} is not finite: lower its synth_mix "
                              "amplitudes, synth_noise or synth_jitter")
        blocks.append(block.reshape(-1, spec.channels))
    return blocks


def synthetic_series(spec: SyntheticSpec) -> np.ndarray:
    """Concatenate the condition blocks chronologically into one raw series."""
    return np.concatenate(generate_synthetic(spec), axis=0)


def condition_ranges(spec: SyntheticSpec) -> list[tuple[int, int]]:
    """Row ranges [start, stop) of each condition in the concatenated series."""
    block = spec.samples_per_condition * spec.sample_length
    return [(i * block, (i + 1) * block) for i in range(len(spec.conditions))]


def shift_benchmark(seed: int = 0) -> SyntheticSpec:
    """Preset used by the end-to-end acceptance experiment.

    Three training-region conditions dominated by stable low-frequency tones,
    then a final condition whose energy moves into a high-frequency band the
    training region only ever saw at noise level.
    """
    low = ((3, 1.0), (5, 0.6))
    high_bins = (17, 19, 21)
    conditions = tuple(Condition(components=low) for _ in range(3)) + (
        Condition(components=low + tuple((b, 2.0) for b in high_bins)),
    )
    return SyntheticSpec(
        conditions=conditions,
        samples_per_condition=50,
        sample_length=48,
        channels=1,
        noise=0.1,
        amp_jitter=0.25,
        seed=seed,
    )
