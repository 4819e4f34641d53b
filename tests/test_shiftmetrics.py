import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from specshift import shiftmetrics
from specshift.errors import ConfigError, NumericError
from specshift.shiftmetrics import jsd2, ks, paired_histograms, shift_report


def test_paired_histograms_equal_inputs():
    a = np.array([0.0, 1.0, 2.0, 3.0])
    p, q = paired_histograms(a, a.copy(), bins=4)
    np.testing.assert_allclose(p, q)
    assert p.sum() == pytest.approx(1.0)


def test_paired_histograms_bin_assignment():
    p, q = paired_histograms(np.array([0.0, 0.0]), np.array([1.0, 1.0]), bins=2)
    np.testing.assert_allclose(p, [1.0, 0.0])
    np.testing.assert_allclose(q, [0.0, 1.0])


def test_paired_histograms_degenerate_range():
    p, q = paired_histograms(np.array([2.0, 2.0]), np.array([2.0, 2.0]), bins=5)
    np.testing.assert_allclose(p, [1.0, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(q, p)


def test_paired_histograms_range_a_few_ulps_wide():
    # 50 equal-width bins cannot split [1, 1 + 2**-52]: it counts as degenerate
    p, q = paired_histograms(np.array([1.0]), np.array([1.0 + 2**-52]), bins=50)
    assert p[0] == q[0] == 1.0 and p.sum() == q.sum() == 1.0


def test_paired_histograms_rejects_empty():
    with pytest.raises(ValueError):
        paired_histograms(np.array([]), np.array([1.0]), bins=4)


def test_jsd2_identical_distributions():
    p = np.array([0.25, 0.25, 0.5])
    assert jsd2(p, p.copy()) == pytest.approx(0.0, abs=1e-12)


def test_jsd2_disjoint_supports():
    assert jsd2(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_jsd2_hand_value():
    value = jsd2(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert abs(value - 0.31128) < 1e-4


def test_jsd2_symmetry_and_bounds():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        v = jsd2(p, q)
        assert v == pytest.approx(jsd2(q, p), abs=1e-12)
        assert 0.0 <= v <= 1.0 + 1e-12


def test_jsd2_rejects_unnormalized():
    with pytest.raises(ValueError):
        jsd2(np.array([0.5, 0.6]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        jsd2(np.array([0.5, 0.5]), np.array([0.2, 0.2]))


def test_jsd2_rejects_mismatched_shapes_and_negative_mass():
    with pytest.raises(ValueError, match="^PMFs must share a shape$"):
        jsd2(np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5]))
    with pytest.raises(ValueError, match="^PMFs must be non-negative$"):
        jsd2(np.array([1.5, -0.5]), np.array([0.5, 0.5]))


def test_jsd2_permutation_invariance():
    rng = np.random.default_rng(1)
    p = rng.dirichlet(np.ones(8))
    q = rng.dirichlet(np.ones(8))
    perm = rng.permutation(8)
    assert jsd2(p[perm], q[perm]) == pytest.approx(jsd2(p, q), abs=1e-12)


def test_ks_identical_samples():
    a = np.array([1.0, 5.0, 2.0])
    assert ks(a, a.copy()) == 0.0


def test_ks_fully_separated():
    assert ks(np.zeros(3), np.ones(3)) == pytest.approx(1.0)


def test_ks_hand_value():
    assert ks(np.array([1.0, 2.0, 3.0, 4.0]), np.array([3.0, 4.0, 5.0, 6.0])) == pytest.approx(0.5)


def test_ks_symmetry_and_bounds():
    rng = np.random.default_rng(2)
    for _ in range(30):
        a = rng.standard_normal(17)
        b = rng.standard_normal(9) + rng.uniform(-1, 1)
        v = ks(a, b)
        assert v == pytest.approx(ks(b, a), abs=1e-12)
        assert 0.0 <= v <= 1.0
    for name, (a, b) in PANEL_CASES.items():
        assert np.array_equal(ks(a, b), ks(b, a)), name


def test_ks_monotone_transform_invariance():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.1, 4.0, size=20)
    b = rng.uniform(0.1, 4.0, size=15)
    base = ks(a, b)
    assert ks(np.log(a), np.log(b)) == pytest.approx(base, abs=1e-12)
    assert ks(3.0 * a + 2.0, 3.0 * b + 2.0) == pytest.approx(base, abs=1e-12)


def test_shift_report_zero_for_identical_panels():
    rng = np.random.default_rng(4)
    panel = rng.uniform(0, 5, size=(10, 6, 2))
    report = shift_report(panel, panel.copy())
    np.testing.assert_allclose(report["jsd2"], 0.0, atol=1e-12)
    np.testing.assert_allclose(report["ks"], 0.0, atol=1e-12)


def test_shift_report_offset_panels_saturate_ks():
    rng = np.random.default_rng(5)
    panel = rng.uniform(0, 1, size=(12, 4, 1))
    report = shift_report(panel, panel + 100.0)
    np.testing.assert_allclose(report["ks"], 1.0)


def _panel_cases():
    """name -> (panel_a, panel_b): the cases where a many-cell computation
    could part from the one-cell one."""
    rng = np.random.default_rng(6)
    constant = (rng.standard_normal((8, 3, 2)), rng.standard_normal((5, 3, 2)))
    for panel in constant:
        panel[:, 1] = 2.5  # both samples of bin 1 are one value: a range of 0
    ulp_wide = (np.ones((4, 2, 2)), np.full((3, 2, 2), np.nextafter(1.0, 2.0)))
    ulp_wide[0][:, 1, 1] = rng.standard_normal(4)  # one ordinary cell beside them
    # every cell's 7-bin edges in a, their neighbours 1 ulp either side in b:
    # np.histogram's scaled index misses some of these by one and corrects it
    lo, hi = np.sort(rng.uniform(-10, 10, size=(2, 5, 6)), axis=0)
    edges = np.arange(8.0)[:, None, None] * ((hi - lo) / 7) + lo
    edges[-1] = hi
    inner = edges[1:-1]
    on_edges = (edges, np.concatenate([np.nextafter(inner, -np.inf), np.nextafter(inner, np.inf)]))
    return {
        "random": (rng.uniform(0, 3, size=(9, 3, 2)), rng.uniform(0, 3, size=(7, 3, 2))),
        "ties": (rng.integers(0, 3, size=(11, 4, 2)).astype(float), rng.integers(0, 3, size=(6, 4, 2)).astype(float)),
        "constant cells": constant,
        "cells 1 ulp wide": ulp_wide,
        "values on bin edges": on_edges,
        "one-sample panels": (rng.standard_normal((1, 3, 2)), rng.standard_normal((1, 3, 2))),
        "subnormal ranges": (rng.integers(0, 4, size=(6, 2, 2)) * 5e-324, rng.integers(0, 4, size=(5, 2, 2)) * 5e-324),
        "wide magnitudes": (rng.standard_normal((12, 3, 1)) * 1e300, rng.standard_normal((10, 3, 1)) * 1e-300),
        **_uneven_cases(rng),
    }


def _uneven_cases(rng):
    """Panels of very unequal sizes, either way round, whose two samples share
    values, and one chunk that mixes a cell of one value, a cell 1 ulp wide
    and ordinary cells."""
    many = rng.integers(0, 5, size=(40, 3, 2)).astype(float)
    few = rng.integers(0, 5, size=(3, 3, 2)).astype(float)
    mixed = (rng.standard_normal((9, 4, 1)), rng.standard_normal((4, 4, 1)))
    for panel in mixed:
        panel[:, 0] = -1.5  # one value
    mixed[0][:, 1] = 1.0
    mixed[1][:, 1] = np.nextafter(1.0, 2.0)  # a range 1 ulp wide
    return {"40 against 3": (many, few), "3 against 40": (few, many), "mixed cells": mixed}


PANEL_CASES = _panel_cases()


def _assert_matches_oracle(a, b, bins, label=""):
    report = shift_report(a, b, bins=bins)
    jsd_table, ks_table = oracles.shift_tables(a, b, bins)
    assert np.array_equal(report["jsd2"], jsd_table), label
    assert np.array_equal(report["ks"], ks_table), label
    return report


def test_shift_report_matches_brute_force():
    """Every cell's values equal the one-cell oracle's bit for bit."""
    for name, (a, b) in PANEL_CASES.items():
        for bins in (1, 2, 7, 50):
            report = _assert_matches_oracle(a, b, bins, f"{name}, bins={bins}")
            aggregate = report["aggregate"]
            assert aggregate["jsd2_mean"] == float(report["jsd2"].mean())
            assert aggregate["ks_mean"] == float(report["ks"].mean())
            assert aggregate["ks_p60"] == float(np.percentile(report["ks"], 60))


# values with ties, 1-ulp steps and subnormals, and arbitrary finite ones
cell_values = st.sampled_from([0.0, -0.0, 5e-324, 1.0, np.nextafter(1.0, 2.0), 3.0]) | st.floats(
    -1e6, 1e6, allow_nan=False, allow_infinity=False
)


@settings(max_examples=60)
@given(st.data())
def test_shift_report_matches_oracle_property(data):
    k, c = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    a = data.draw(arrays(np.float64, (data.draw(st.integers(1, 40)), k, c), elements=cell_values))
    b = data.draw(arrays(np.float64, (data.draw(st.integers(1, 40)), k, c), elements=cell_values))
    _assert_matches_oracle(a, b, data.draw(st.sampled_from([1, 2, 7, 50])))


@pytest.mark.parametrize("chunk", [1, 40, 10_000])
def test_shift_report_calls_each_metric_once_per_chunk(monkeypatch, chunk):
    """A chunk holds at most CHUNK_SAMPLES samples (one cell at the least);
    the values do not depend on where the chunks split."""
    a, b = PANEL_CASES["ties"]  # 8 cells of 11 + 6 samples
    calls = {}
    for name in ("paired_histograms", "jsd2", "ks"):
        def counted(*args, _f=getattr(shiftmetrics, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(shiftmetrics, name, counted)
    monkeypatch.setattr(shiftmetrics, "CHUNK_SAMPLES", chunk)
    _assert_matches_oracle(a, b, 7)
    chunks = {1: 8, 40: 4, 10_000: 1}[chunk]
    assert calls == {"paired_histograms": chunks, "jsd2": chunks, "ks": chunks}


def test_metrics_take_many_cells_at_once():
    """Trailing axes index cells; each cell equals its one-dimensional call."""
    rng = np.random.default_rng(8)
    a = rng.integers(0, 5, size=(9, 2, 3)).astype(float)
    b = rng.integers(0, 5, size=(4, 2, 3)).astype(float)
    p, q = paired_histograms(a, b, bins=6)
    pmfs = jsd2(p, q)
    stats = ks(a, b)
    assert p.shape == q.shape == (6, 2, 3) and pmfs.shape == stats.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            p1, q1 = paired_histograms(a[:, i, j], b[:, i, j], bins=6)
            assert np.array_equal(p[:, i, j], p1) and np.array_equal(q[:, i, j], q1)
            assert pmfs[i, j] == jsd2(p1, q1)
            assert stats[i, j] == ks(a[:, i, j], b[:, i, j])
    assert isinstance(jsd2(p1, q1), float) and isinstance(ks(a[:, 0, 0], b[:, 0, 0]), float)


def test_metrics_leave_their_inputs_alone():
    a = np.array([3.0, 1.0, 2.0])
    b = np.array([2.5, 0.5])
    ks(a, b)
    paired_histograms(a, b, bins=3)
    shift_report(a.reshape(3, 1, 1), b.reshape(2, 1, 1))
    assert a.tolist() == [3.0, 1.0, 2.0] and b.tolist() == [2.5, 0.5]


def test_metrics_reject_mismatched_cells():
    with pytest.raises(ValueError, match="cell axes"):
        paired_histograms(np.ones((3, 2)), np.ones((3, 4)))
    with pytest.raises(ValueError, match="cell axes"):
        ks(np.ones((3, 2)), np.ones(3))
    with pytest.raises(ValueError, match="support axis"):
        jsd2(np.array(1.0), np.array(1.0))


def test_paired_histograms_rejects_fewer_than_one_bin():
    # its own check, for library callers: the shift command checks hist_bins before it reads data
    with pytest.raises(ConfigError, match="^hist_bins must be positive, got 0$"):
        paired_histograms(np.ones(3), np.ones(2), bins=0)


def test_shift_report_rejects_a_wrong_rank_and_an_empty_panel():
    with pytest.raises(ValueError, match=r"^panels must be \(N, K, C\)$"):
        shift_report(np.ones((5, 4)), np.ones((5, 4)))
    with pytest.raises(ValueError, match="^both panels must hold at least one window$"):
        shift_report(np.ones((5, 4, 3)), np.ones((0, 4, 3)))


def test_shift_report_working_memory_is_bounded():
    """Chunking bounds the report's allocations at a diagnose-sized panel pair."""
    rng = np.random.default_rng(7)
    a = rng.gamma(2.0, size=(437, 49, 7))
    b = rng.gamma(2.0, size=(63, 49, 7))
    shift_report(a[:5], b[:5])  # first calls' one-off allocations stay out of the count
    tracemalloc.start()
    try:
        shift_report(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000, peak


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_shift_report_names_the_first_non_finite_cell(bad):
    a = np.ones((5, 4, 3))
    b = np.ones((4, 4, 3))
    b[2, 3, 0] = bad
    b[0, 1, 2] = bad
    with pytest.raises(NumericError, match="panel_b is not finite at bin 1, channel 2"):
        shift_report(a, b)
    with pytest.raises(NumericError, match="panel_a is not finite at bin 1, channel 2"):
        shift_report(b, b)
    with pytest.raises(NumericError, match="^test panel is not finite at bin 1, channel 2$"):
        shift_report(a, b, names=("train panel", "test panel"))


def test_non_finite_samples_raise_numeric_error():
    with pytest.raises(NumericError):
        paired_histograms(np.array([0.0, np.inf]), np.array([1.0]))
    with pytest.raises(NumericError):
        paired_histograms(np.array([0.0, 1.0]), np.array([np.nan]))
    with pytest.raises(NumericError):
        ks(np.array([0.0, np.nan]), np.array([1.0]))
    a, b = np.array([-np.inf, 0.0, np.inf]), np.array([np.inf, 1.0])
    assert ks(a, b) == oracles.ks_1d(a, b)


def test_shift_report_rejects_mismatched_panels():
    with pytest.raises(ValueError):
        shift_report(np.ones((5, 4, 2)), np.ones((5, 3, 2)))


@settings(max_examples=50)
@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30),
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30),
)
def test_ks_bounds_property(a, b):
    v = ks(np.asarray(a), np.asarray(b))
    assert 0.0 <= v <= 1.0


@settings(max_examples=50)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=25),
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=25),
    st.integers(min_value=2, max_value=20),
)
@example([0.0], [5e-324], 2)  # a range too narrow for two distinct bins
def test_jsd2_of_histograms_bounded_property(a, b, bins):
    p, q = paired_histograms(np.asarray(a), np.asarray(b), bins=bins)
    v = jsd2(p, q)
    assert 0.0 <= v <= 1.0 + 1e-12
