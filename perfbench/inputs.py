"""Seeded input generators.

Inputs are a pure function of the seed and the sizes.  They are written here
in plain numpy rather than with the package's own generator, so that a change
to ``specshift.data`` cannot change what the benchmark feeds it.  The one
exception is ``shift_bench``, which is defined as the package's
``shift_benchmark(seed)`` preset (acceptance criterion 3).
"""

from __future__ import annotations

import numpy as np

# Low tones present in every condition, and the high band that appears only
# in the last one (bin indices relative to a 96-step sample).
DIAGNOSE_LOW = ((2, 0.8), (4, 1.0), (7, 0.6))
DIAGNOSE_HIGH = ((30, 2.0), (34, 2.0), (38, 2.0))


def condition_series(seed: int, samples_per_condition: int, sample_length: int = 96,
                     channels: int = 7, noise: float = 0.1) -> np.ndarray:
    """Four conditions of ``samples_per_condition`` samples each; the last adds a high band.

    Phases are drawn once per (condition, component, channel), so each
    condition's spectrum is the same in every one of its samples up to noise.
    """
    rng = np.random.default_rng(seed)
    n = np.arange(sample_length, dtype=float)
    conditions = [DIAGNOSE_LOW] * 3 + [DIAGNOSE_LOW + DIAGNOSE_HIGH]
    blocks = []
    for comps in conditions:
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(len(comps), channels))
        sample = sum(amp * np.sin((2.0 * np.pi * freq / sample_length) * n[:, None] + phases[j])
                     for j, (freq, amp) in enumerate(comps))  # (L, C)
        block = sample + noise * rng.standard_normal((samples_per_condition, sample_length, channels))
        blocks.append(block.reshape(-1, channels))
    return np.concatenate(blocks, axis=0)


def write_csv(path, series: np.ndarray) -> None:
    """Headered CSV with round-trip float text, one row per time step."""
    header = ",".join(f"c{i}" for i in range(series.shape[1]))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in series:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
