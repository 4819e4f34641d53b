import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def test_shift_report_matches_brute_force():
    rng = np.random.default_rng(6)
    a = rng.uniform(0, 3, size=(9, 3, 2))
    b = rng.uniform(0, 3, size=(7, 3, 2))
    report = shift_report(a, b, bins=10)
    for k in range(3):
        for c in range(2):
            p, q = paired_histograms(a[:, k, c], b[:, k, c], bins=10)
            assert report["jsd2"][k, c] == pytest.approx(jsd2(p, q), abs=1e-12)
            assert report["ks"][k, c] == pytest.approx(ks(a[:, k, c], b[:, k, c]), abs=1e-12)
    assert report["aggregate"]["jsd2_mean"] == pytest.approx(report["jsd2"].mean(), abs=1e-12)
    assert report["aggregate"]["ks_mean"] == pytest.approx(report["ks"].mean(), abs=1e-12)
    assert report["aggregate"]["ks_p60"] == pytest.approx(
        float(np.percentile(report["ks"], 60)), abs=1e-12
    )


def test_shift_report_rejects_mismatched_panels():
    with pytest.raises(ValueError):
        shift_report(np.ones((5, 4, 2)), np.ones((5, 3, 2)))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30),
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30),
)
def test_ks_bounds_property(a, b):
    v = ks(np.asarray(a), np.asarray(b))
    assert 0.0 <= v <= 1.0


@settings(max_examples=50, deadline=None)
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
