"""Distribution-shift diagnostics between two amplitude panels.

For every (bin, channel) cell the two panels provide two scalar samples (one
value per window).  Those are compared with a base-2 Jensen-Shannon
divergence over paired equal-width histograms and with the two-sample
Kolmogorov-Smirnov statistic.

``paired_histograms``, ``jsd2`` and ``ks`` take many cells at once: axis 0
holds each cell's samples (for ``jsd2``, its histogram bins) and the trailing
axes index the cells.  One-dimensional input is one cell and gives a
``(bins,)`` histogram or a float.  Every cell's value is, bit for bit, the
one-cell computation's: ``np.histogram`` over ``np.linspace`` edges, the
``.sum()`` of the cell's nonzero JSD terms, and ECDFs read with
``np.searchsorted``.  ``shift_report`` calls each once per chunk of cells
holding at most ``CHUNK_SAMPLES`` samples, which bounds its working memory.

``chunks`` is the one chunk rule of the package: ``shift_report`` takes its
chunks of cells from it.  ``chunked`` is the one pass mechanism over a whole
split of windows: every such pass (the amplitude panels, the score fit, the
transformed input, ``shift``'s panels, FAN's targets, SAN's stage-one
statistics) runs its per-window function through it, so each pass's working
memory beyond its outputs is bounded by ``CHUNK_SAMPLES`` float64 values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError

HIST_BINS = 50
CHUNK_SAMPLES = 32_768  # float64 values per chunk: both panels' samples of its cells, or its windows' values


def chunks(n: int, width: int) -> list[slice]:
    """Consecutive slices covering range(n), each over at most
    ``CHUNK_SAMPLES // width`` items of ``width`` values, and over one item
    when a single item holds more; an item of no values counts as one."""
    step = max(1, CHUNK_SAMPLES // max(width, 1))
    return [slice(start, start + step) for start in range(0, n, step)]


def chunked(fn, x: np.ndarray):
    """``fn`` over consecutive ``chunks`` of x's rows, always at least one, so
    zero rows give zero-row outputs.  ``fn`` takes rows of x to as many rows
    of an array or a tuple of arrays, each row its input row's alone; each
    output is allocated once, shaped from the first chunk's, and the bits do
    not depend on where the chunks split."""
    slices = chunks(x.shape[0], math.prod(x.shape[1:])) or [slice(0, 0)]
    outs = ()
    for rows in slices:
        got = fn(x[rows])
        parts = (got,) if isinstance(got, np.ndarray) else got
        outs = outs or tuple(np.empty((x.shape[0], *part.shape[1:])) for part in parts)
        for out, part in zip(outs, parts):
            out[rows] = part
    return outs[0] if isinstance(got, np.ndarray) else outs


def _cell_rows(a, b) -> tuple[np.ndarray, np.ndarray, tuple]:
    """a and b as contiguous (cells, samples) float arrays, one row per cell,
    and the shape of their cell axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 0 or b.ndim == 0 or a.shape[1:] != b.shape[1:]:
        raise ValueError(f"samples must share their cell axes, got shapes {a.shape} and {b.shape}")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("both samples must be non-empty")
    cells = a.shape[1:]
    rows = [np.ascontiguousarray(x.reshape(x.shape[0], math.prod(cells)).T) for x in (a, b)]
    return rows[0], rows[1], cells


def _per_cell(values: np.ndarray, cells: tuple):
    """One value per cell in the cells' shape; a float for a one-dimensional input."""
    return float(values[0]) if cells == () else values.reshape(cells)


def _bin_counts(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, bins: int) -> np.ndarray:
    """(cells, bins) counts of the rows of x by ``np.histogram``'s rule for
    equal-width bins over [lo, hi] (columns): the scaled index, then its +-1
    corrections against the edges.  Edge j < bins is ``j * step + lo``, as
    ``np.linspace`` forms it; the last edge, ``hi``, is never compared."""
    step = (hi - lo) / bins
    idx = (((x - lo) / (hi - lo)) * bins).astype(np.intp)
    np.minimum(idx, bins - 1, out=idx)
    idx -= x < idx * step + lo
    idx += (x >= (idx + 1) * step + lo) & (idx != bins - 1)
    idx += bins * np.arange(x.shape[0])[:, None]
    return np.bincount(idx.ravel(), minlength=bins * x.shape[0]).reshape(x.shape[0], bins)


def paired_histograms(a: np.ndarray, b: np.ndarray, bins: int = HIST_BINS) -> tuple[np.ndarray, np.ndarray]:
    """Normalized histograms of two samples over their shared value range, per cell.

    A cell's range is [min(a u b), max(a u b)] split into `bins` equal-width
    bins.  A degenerate range, one too narrow for ``np.linspace(lo, hi, bins +
    1)`` to give strictly increasing edges (hi == lo, or a few ulps apart),
    puts all mass of both samples in bin 0.  Returns two (bins, *cells) arrays.
    """
    a, b, cells = _cell_rows(a, b)
    if bins < 1:
        raise ConfigError(f"hist_bins must be positive, got {bins}")
    lo = np.minimum(a.min(axis=1), b.min(axis=1))[:, None]
    hi = np.maximum(a.max(axis=1), b.max(axis=1))[:, None]
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise NumericError("histogram samples must be finite")
    # np.linspace's edges wherever its step is nonzero; where the step
    # underflows to 0, linspace's own formula and this one are both degenerate
    edges = np.arange(bins + 1.0) * ((hi - lo) / bins) + lo
    edges[:, -1:] = hi
    ok = (edges[:, :-1] < edges[:, 1:]).all(axis=1)
    p = np.zeros((lo.size, bins))
    q = np.zeros((lo.size, bins))
    p[~ok, 0] = 1.0
    q[~ok, 0] = 1.0
    if not ok.all():
        a, b, lo, hi = a[ok], b[ok], lo[ok], hi[ok]
    p[ok] = _bin_counts(a, lo, hi, bins) / a.shape[1]
    q[ok] = _bin_counts(b, lo, hi, bins) / b.shape[1]
    return p.T.reshape(bins, *cells), q.T.reshape(bins, *cells)


def _kl_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per row r of two (cells, support) arrays, the sum of u * log2(u / v)
    over the entries where u > 0, as ``.sum()`` of those entries alone gives it.

    numpy's pairwise summation depends on the count of terms, so each row's
    terms are packed to its front and the rows of each count summed together.
    """
    keep = u > 0.0
    terms = u[keep] * np.log2(u[keep] / v[keep])
    counts = keep.sum(axis=1)
    packed = np.zeros(u.shape)
    packed[np.arange(u.shape[1]) < counts[:, None]] = terms
    out = np.empty(u.shape[0])
    for n in np.flatnonzero(np.bincount(counts)):
        rows = np.flatnonzero(counts == n)
        out[rows] = packed[rows, :n].sum(axis=1)
    return out


def jsd2(p: np.ndarray, q: np.ndarray):
    """Squared Jensen-Shannon distance (base-2 JS divergence) of two PMFs, per cell.

    Axis 0 runs over the support.  Each cell's PMFs must be non-negative and
    sum to 1 within 1e-9; 0 * log 0 counts as 0.  The value lies in [0, 1],
    hitting 1 for disjoint supports.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("PMFs must share a shape")
    if p.ndim == 0:
        raise ValueError("PMFs need a support axis")
    if (p < 0).any() or (q < 0).any():
        raise ValueError("PMFs must be non-negative")
    if (np.abs(p.sum(axis=0) - 1.0) > 1e-9).any() or (np.abs(q.sum(axis=0) - 1.0) > 1e-9).any():
        raise ValueError("PMFs must sum to 1 within 1e-9")
    cells = p.shape[1:]
    p = p.reshape(p.shape[0], -1).T
    q = q.reshape(q.shape[0], -1).T
    m = 0.5 * (p + q)
    return _per_cell(0.5 * _kl_rows(p, m) + 0.5 * _kl_rows(q, m), cells)


def ks(a: np.ndarray, b: np.ndarray):
    """Two-sample Kolmogorov-Smirnov statistic sup |ECDF_a - ECDF_b|, per cell.

    The samples must not be NaN.
    """
    a, b, cells = _cell_rows(a, b)
    rows, n_a, n = a.shape[0], a.shape[1], a.shape[1] + b.shape[1]
    # each cell's row holds its sorted a, then its sorted b; a stable sort
    # merges the two runs
    both = np.concatenate([a, b], axis=1)
    del a, b  # each array goes once used, which bounds shift_report's peak
    both[:, :n_a].sort(axis=1)
    both[:, n_a:].sort(axis=1)
    order = np.argsort(both, axis=1, kind="stable")
    merged = both.ravel()[order + n * np.arange(rows)[:, None]]
    del both
    if np.isnan(merged[:, -1]).any():
        raise NumericError("KS samples must not be NaN")
    # the ECDFs at each value, read at the last of its equal values as
    # searchsorted(..., side="right") reads them
    last = np.ones(merged.shape, dtype=bool)
    np.not_equal(merged[:, :-1], merged[:, 1:], out=last[:, :-1])
    del merged
    # every row holds n_a of a's values
    count_a = np.cumsum(order < n_a).reshape(rows, n) - n_a * np.arange(rows)[:, None]
    del order
    gap = np.abs(count_a / n_a - (np.arange(1, n + 1) - count_a) / (n - n_a))
    gap[~last] = 0.0
    return _per_cell(gap.max(axis=1), cells)


def shift_report(
    panel_a: np.ndarray,
    panel_b: np.ndarray,
    bins: int = HIST_BINS,
    names: tuple[str, str] = ("panel_a", "panel_b"),
) -> dict:
    """Per-(bin, channel) jsd2/ks between two (N, K, C) panels, plus aggregates.

    Returns a dict with "jsd2" and "ks" (K, C) arrays and an "aggregate"
    mapping with mean, median and 60th percentile of each metric.  A panel
    with a non-finite value raises ``NumericError`` naming it by its entry in
    ``names`` and giving its first such (bin, channel).
    """
    panel_a = np.asarray(panel_a, dtype=float)
    panel_b = np.asarray(panel_b, dtype=float)
    if panel_a.ndim != 3 or panel_b.ndim != 3:
        raise ValueError("panels must be (N, K, C)")
    if panel_a.shape[1:] != panel_b.shape[1:]:
        raise ValueError("panels must agree on (K, C)")
    if panel_a.shape[0] == 0 or panel_b.shape[0] == 0:
        raise ValueError("both panels must hold at least one window")
    for name, panel in zip(names, (panel_a, panel_b)):
        bad = np.argwhere(~np.isfinite(panel).all(axis=0))
        if bad.size:
            raise NumericError(f"{name} is not finite at bin {bad[0, 0]}, channel {bad[0, 1]}")
    k, c = panel_a.shape[1:]
    a = panel_a.reshape(panel_a.shape[0], k * c)
    b = panel_b.reshape(panel_b.shape[0], k * c)
    jsd_table = np.empty(k * c)
    ks_table = np.empty(k * c)
    for cols in chunks(k * c, a.shape[0] + b.shape[0]):
        p, q = paired_histograms(a[:, cols], b[:, cols], bins=bins)
        jsd_table[cols] = jsd2(p, q)
        ks_table[cols] = ks(a[:, cols], b[:, cols])
    jsd_table = jsd_table.reshape(k, c)
    ks_table = ks_table.reshape(k, c)
    aggregate = {}
    for name, table in (("jsd2", jsd_table), ("ks", ks_table)):
        aggregate[f"{name}_mean"] = float(table.mean())
        aggregate[f"{name}_median"] = float(np.median(table))
        aggregate[f"{name}_p60"] = float(np.percentile(table, 60.0))
    return {"jsd2": jsd_table, "ks": ks_table, "aggregate": aggregate}
