import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specshift.data import (
    Condition,
    SyntheticSpec,
    build_dataset,
    chronological_split,
    condition_ranges,
    fit_scaler,
    generate_synthetic,
    load_csv,
    make_windows,
    shift_benchmark,
    synthetic_series,
)
from specshift.errors import ConfigError, DataError

from oracles import generate_synthetic_loop


def write_csv(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_csv_basic(tmp_path):
    path = write_csv(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
    series = load_csv(path)
    assert series.shape == (3, 2)
    np.testing.assert_allclose(series[1], [3.0, 4.0])


def test_load_csv_skips_leading_date_column(tmp_path):
    path = write_csv(tmp_path, "date,a,b\n2016-07-01,1,2\n2016-07-02,3,4\n")
    series = load_csv(path)
    assert series.shape == (2, 2)
    np.testing.assert_allclose(series[0], [1.0, 2.0])


def test_load_csv_rejects_nan_with_row_index(tmp_path):
    path = write_csv(tmp_path, "a,b\n1,2\nNaN,4\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(path)


def test_load_csv_rejects_non_numeric(tmp_path):
    path = write_csv(tmp_path, "a,b\n1,2\n3,oops\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(path)


def test_load_csv_rejects_ragged_rows(tmp_path):
    path = write_csv(tmp_path, "a,b\n1,2\n3\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(path)


def test_load_csv_rejects_headerless_empty(tmp_path):
    path = write_csv(tmp_path, "a,b\n")
    with pytest.raises(DataError):
        load_csv(path)


def test_load_csv_rejects_a_mixed_first_column(tmp_path):
    # the first cell alone does not make column a a date column: it is mixed
    path = write_csv(tmp_path, "a,b\nx,1\n2,3\n4,5\n")
    with pytest.raises(DataError, match="row 1, column 'a'"):
        load_csv(path)


def test_load_csv_names_a_bad_cell_that_comes_before_a_mixed_first_column(tmp_path):
    # row 1's bad cell comes before row 2's date, which only a read of the
    # whole first column shows to be a bad cell too: the first failing row wins
    path = write_csv(tmp_path, "a,b,c\n1,2,oops\n2016-07-02,3,4\n")
    with pytest.raises(DataError, match=r"row 1, column 'c': not a number: 'oops'$"):
        load_csv(path)
    # and the other way round: row 3's number makes row 1's date a bad cell
    path = write_csv(tmp_path, "a,b,c\n2016-07-01,1,2\nx,3,oops\n5,6,7\n")
    with pytest.raises(DataError, match=r"row 1, column 'a': not a number: '2016-07-01'$"):
        load_csv(path)
    # within one row a ragged row beats a bad first cell, which beats a bad later cell
    path = write_csv(tmp_path, "a,b,c\n1,2,3\nx,oops\n")
    with pytest.raises(DataError, match=r"row 2 has 2 fields, expected 3$"):
        load_csv(path)
    path = write_csv(tmp_path, "a,b,c\n1,2,3\nx,oops,4\n")
    with pytest.raises(DataError, match=r"row 2, column 'a': not a number: 'x'$"):
        load_csv(path)


def test_load_csv_peak_memory_is_bounded_at_the_etth1_shape(tmp_path):
    # 17,420 rows of a date and 7 values: parsed row by row, the peak stays
    # near the array and the buffer it is copied from, not the file's strings
    rng = np.random.default_rng(0)
    values = rng.normal(scale=30.0, size=(17420, 7))
    path = tmp_path / "etth1.csv"
    with open(path, "w") as fh:
        fh.write("date," + ",".join(f"c{i}" for i in range(7)) + "\n")
        for i, row in enumerate(values):
            fh.write(f"2016-07-{1 + i // 24 % 28:02d} {i % 24:02d}:00:00," + ",".join(map(repr, row.tolist())) + "\n")
    assert path.stat().st_size > 2_500_000
    load_csv(str(path))
    tracemalloc.start()
    try:
        series = load_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(series, values)
    assert peak <= 3 * series.nbytes + 1_000_000, peak


def test_load_csv_rejects_date_column_only(tmp_path):
    path = write_csv(tmp_path, "date\n2016-07-01\n2016-07-02\n")
    with pytest.raises(DataError, match="no numeric column"):
        load_csv(path)


def test_make_windows_counts():
    series = np.arange(5.0).reshape(5, 1)
    x, y = make_windows(series, 3, 1)
    assert x.shape == (2, 3, 1)
    assert y.shape == (2, 1, 1)
    # stride-1: consecutive windows share lookback-1 rows
    np.testing.assert_array_equal(x[0, 1:, 0], x[1, :-1, 0])
    # target starts exactly where the input window ends
    assert y[0, 0, 0] == series[3, 0]
    assert y[1, 0, 0] == series[4, 0]


def test_make_windows_matches_explicit_slices():
    series = np.random.default_rng(4).standard_normal((20, 3))
    x, y = make_windows(series, 6, 4)
    assert x.shape == (11, 6, 3) and y.shape == (11, 4, 3)
    for i in range(11):
        np.testing.assert_array_equal(x[i], series[i : i + 6])
        np.testing.assert_array_equal(y[i], series[i + 6 : i + 10])
    # read-only views into the series, not copies
    for arr in (x, y):
        assert arr.dtype == np.float64
        assert not arr.flags.writeable
        assert np.shares_memory(arr, series)


def test_make_windows_single_window():
    series = np.arange(4.0).reshape(4, 1)
    x, y = make_windows(series, 3, 1)
    assert x.shape[0] == 1


def test_make_windows_rejects_short_series():
    with pytest.raises(DataError):
        make_windows(np.ones((3, 1)), 3, 1)


def test_build_dataset_rejects_a_1d_series():
    with pytest.raises(DataError, match=r"^series must be \(T, C\)$"):
        build_dataset(np.sin(np.arange(40.0)), 8, 2)


def test_chronological_split_sizes():
    train, val, test = chronological_split(10)
    assert (train.stop, val.stop, test.stop) == (7, 9, 10)
    train, val, test = chronological_split(100)
    assert (train.stop - train.start, val.stop - val.start, test.stop - test.start) == (70, 20, 10)


def test_chronological_split_ordering():
    train, val, test = chronological_split(37)
    assert train.start == 0
    assert train.stop == val.start
    assert val.stop == test.start
    assert test.stop == 37


def test_chronological_split_rejects_tiny():
    with pytest.raises(DataError):
        chronological_split(9)


def test_scaler_hand_value():
    train_inputs = np.array([1.0, 2.0, 3.0] * 4).reshape(4, 3, 1)
    scaler = fit_scaler(train_inputs)
    out = scaler.apply(train_inputs)
    np.testing.assert_allclose(out[0, :, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)


def test_scaler_constant_channel():
    scaler = fit_scaler(np.full((3, 4, 1), 7.0))
    out = scaler.apply(np.full((2, 4, 1), 7.0))
    np.testing.assert_allclose(out, 0.0, atol=1e-6)


def test_build_dataset_no_leakage():
    rng = np.random.default_rng(0)
    series = rng.standard_normal((220, 2))
    ds = build_dataset(series, 16, 8)
    # perturbing the future (val/test region) must not change the scaler
    perturbed = series.copy()
    perturbed[180:] += 100.0
    ds2 = build_dataset(perturbed, 16, 8)
    np.testing.assert_allclose(ds.scaler.mu, ds2.scaler.mu, atol=1e-12)
    np.testing.assert_allclose(ds.scaler.sigma, ds2.scaler.sigma, atol=1e-12)


def test_build_dataset_split_shapes():
    series = np.random.default_rng(1).standard_normal((150, 3))
    ds = build_dataset(series, 12, 6)
    n = 150 - 12 - 6 + 1
    assert ds.x_train.shape[0] == int(0.7 * n)
    assert ds.x_train.shape[1:] == (12, 3)
    assert ds.y_test.shape[1:] == (6, 3)
    total = ds.x_train.shape[0] + ds.x_val.shape[0] + ds.x_test.shape[0]
    assert total == n


def test_build_dataset_fields_are_views_of_one_buffer():
    series = np.random.default_rng(5).normal(3.0, 2.0, size=(120, 3))
    lookback, horizon = 12, 6
    ds = build_dataset(series, lookback, horizon)
    fields = [ds.x_train, ds.y_train, ds.x_val, ds.y_val, ds.x_test, ds.y_test]
    # train and test windows cover disjoint rows, so the check is one common
    # base buffer, a (T, C) array apart from the raw series, under every field
    buffer = _base_buffer(ds.x_train)
    assert buffer.shape == series.shape and not np.shares_memory(buffer, series)
    for arr in fields:
        assert not arr.flags.writeable
        assert _base_buffer(arr) is buffer and np.shares_memory(arr, buffer)
    # each field is the scaler applied to the matching explicit raw slice, bit for bit
    n = len(series) - lookback - horizon + 1
    starts = [np.arange(n)[part] for part in chronological_split(n)]
    for (x, y), idx in zip(zip(fields[::2], fields[1::2]), starts):
        raw_x = np.stack([series[i : i + lookback] for i in idx])
        raw_y = np.stack([series[i + lookback : i + lookback + horizon] for i in idx])
        assert np.array_equal(x, ds.scaler.apply(raw_x))
        assert np.array_equal(y, ds.scaler.apply(raw_y))


def _base_buffer(arr):
    while getattr(arr, "base", None) is not None:
        arr = arr.base
    return arr


def test_build_dataset_holds_one_scaled_series():
    series = np.random.default_rng(6).standard_normal((4000, 7))
    tracemalloc.start()
    try:
        ds = build_dataset(series, 96, 96)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.x_train.shape == (2666, 96, 7)
    assert held <= 2 * series.nbytes, f"build_dataset holds {held} bytes for a {series.nbytes}-byte series"


def test_build_dataset_targets_share_scaler():
    series = np.random.default_rng(2).standard_normal((200, 1)) * 5 + 3
    ds = build_dataset(series, 10, 5)
    raw_x, raw_y = make_windows(series, 10, 5)
    train, _, _ = chronological_split(raw_x.shape[0])
    np.testing.assert_allclose(ds.y_train, ds.scaler.apply(raw_y[train]), atol=1e-12)


def test_generate_synthetic_deterministic():
    spec = SyntheticSpec(
        conditions=(Condition(components=((3, 1.0),)),),
        samples_per_condition=4,
        sample_length=32,
        channels=2,
        noise=0.1,
        seed=5,
    )
    a = synthetic_series(spec)
    b = synthetic_series(spec)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (4 * 32, 2)


def test_generate_synthetic_pure_tone_spectrum():
    spec = SyntheticSpec(
        conditions=(Condition(components=((3, 1.0),)),),
        samples_per_condition=3,
        sample_length=32,
        channels=1,
        noise=0.0,
        seed=1,
    )
    blocks = generate_synthetic(spec)
    from specshift.spectral import amplitude, dft_forward

    sample = blocks[0][:32, 0]
    real, imag = dft_forward(sample)
    amps = amplitude(real, imag)
    peak = amps[3]
    others = np.delete(amps, 3)
    assert np.all(others <= 1e-8 * peak)


@st.composite
def synthetic_specs(draw):
    length = draw(st.integers(1, 129))
    component = st.tuples(st.integers(0, length // 2), st.floats(-3.0, 3.0))
    condition = st.builds(Condition, st.lists(component, min_size=1, max_size=40).map(tuple),
                          st.none() | st.floats(0.0, 2.0))
    return SyntheticSpec(conditions=tuple(draw(st.lists(condition, min_size=1, max_size=3))),
                         samples_per_condition=draw(st.integers(1, 4)), sample_length=length,
                         channels=draw(st.integers(1, 8)), noise=draw(st.sampled_from([0.0, 0.1, 0.7])),
                         amp_jitter=draw(st.sampled_from([0.0, 0.25, 1.3])), seed=draw(st.integers(0, 2**32)))


def _one_point_spec(components, jitter):
    """L = C = 1: every wave is one value, where a summed stack of 9 or more
    would be added pairwise rather than in component order."""
    return SyntheticSpec(conditions=(Condition(components=tuple((0, 0.3 + 0.7 * j) for j in range(components))),),
                         samples_per_condition=5, sample_length=1, amp_jitter=jitter, seed=components)


@settings(max_examples=120)
@given(spec=synthetic_specs())
@example(spec=_one_point_spec(9, 0.0))
@example(spec=_one_point_spec(40, 0.25))
@example(spec=dataclasses.replace(shift_benchmark(3), channels=3))
def test_generate_synthetic_matches_the_per_sine_loop_bit_for_bit(spec):
    blocks = generate_synthetic(spec)
    expected = generate_synthetic_loop(spec)
    assert len(blocks) == len(expected)
    for got, want in zip(blocks, expected):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_generate_synthetic_rejects_bad_bin():
    with pytest.raises(ValueError):
        SyntheticSpec(
            conditions=(Condition(components=((20, 1.0),)),),
            samples_per_condition=2,
            sample_length=32,
            channels=1,
            noise=0.0,
            seed=0,
        )


def test_generate_synthetic_needs_a_condition():
    with pytest.raises(ConfigError, match="^synth_mix needs at least one condition$"):
        generate_synthetic(SyntheticSpec(conditions=()))


@pytest.mark.parametrize("field, value", [("samples_per_condition", 0), ("sample_length", 0),
                                          ("channels", 0), ("seed", -1)])
def test_synthetic_spec_rejects_bad_sizes_and_seed(field, value):
    with pytest.raises(ConfigError, match=field):
        SyntheticSpec(conditions=(Condition(components=((1, 1.0),)),), **{field: value})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("changes", [
    {"noise": 1e308},
    {"amp_jitter": 1e308},
    {"conditions": (Condition(components=((1, 1.0),)), Condition(components=((3, 1.0),), noise=1e308))},
], ids=["noise", "jitter", "second condition's noise"])
def test_generate_synthetic_rejects_an_overflowing_condition_without_warnings(changes):
    # finite keys whose series overflows: the block is formed quietly, then refused by name
    spec = SyntheticSpec(**{"conditions": (Condition(components=((1, 1e300),)),), "samples_per_condition": 2,
                            "sample_length": 16, **changes})
    index = len(spec.conditions) - 1
    with pytest.raises(ConfigError, match=f"synthetic condition {index} is not finite.*synth_jitter"):
        generate_synthetic(spec)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, np.nan, 1e308])
def test_build_dataset_rejects_series_not_finite_once_scaled(value):
    series = np.sin(np.arange(40.0))[:, None]
    series[::3] = value  # 1e308 is finite, but the z-score statistics overflow
    with pytest.raises(DataError, match="not finite"):
        build_dataset(series, 8, 2)


def test_disjoint_mixtures_separate_spectrally():
    spec = SyntheticSpec(
        conditions=(
            Condition(components=((2, 1.0),)),
            Condition(components=((9, 1.0),)),
        ),
        samples_per_condition=30,
        sample_length=24,
        channels=1,
        noise=0.05,
        seed=3,
    )
    blocks = generate_synthetic(spec)
    from specshift.shiftmetrics import shift_report
    from specshift.stationarity import amplitude_panel

    panels = [amplitude_panel(b.reshape(30, 24, 1)) for b in blocks]
    report = shift_report(panels[0], panels[1])
    assert report["ks"][2, 0] >= 0.5
    assert report["ks"][9, 0] >= 0.5


def test_condition_ranges_cover_series():
    spec = shift_benchmark(0)
    ranges = condition_ranges(spec)
    assert len(ranges) == 4
    assert ranges[0][0] == 0
    assert ranges[-1][1] == synthetic_series(spec).shape[0]
    for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
        assert a1 == b0


def test_shift_benchmark_band_only_in_last_condition():
    spec = shift_benchmark(0)
    high = {17, 19, 21}
    for cond in spec.conditions[:3]:
        assert not high & {f for f, _ in cond.components}
    assert high <= {f for f, _ in spec.conditions[3].components}
