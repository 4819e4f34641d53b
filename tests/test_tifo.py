import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specshift import tifo
from specshift.models import BackboneConfig
from specshift.spectral import dft_forward, n_bins
from specshift.training import PipelineConfig, TifoLayer


def make_params(bins=5, hidden=3, seed=0):
    return tifo.init_params(bins, hidden, np.random.default_rng(seed))


def test_init_deterministic():
    a = make_params(seed=7)
    b = make_params(seed=7)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])


def test_init_seeds_differ():
    a = make_params(seed=0)
    b = make_params(seed=1)
    assert any(not np.array_equal(a[n], b[n]) for n in a)


def test_init_starts_at_identity_weights():
    # output layer starts at zero with bias one, so lambda == 1 regardless of scores
    params = make_params()
    scores = np.random.default_rng(3).uniform(0, 50, size=(5, 4))
    lam_r, lam_i, _ = tifo.weights_forward(params, scores)
    np.testing.assert_array_equal(lam_r, np.ones((5, 4)))
    np.testing.assert_array_equal(lam_i, np.ones((5, 4)))


def test_weights_all_ones_when_nonbias_zeroed():
    params = make_params()
    for name in params:
        if name.endswith("w1") or name.endswith("w2"):
            params[name] = np.zeros_like(params[name])
    lam_r, lam_i, _ = tifo.weights_forward(params, np.full((5, 2), 9.0))
    np.testing.assert_array_equal(lam_r, np.ones((5, 2)))
    np.testing.assert_array_equal(lam_i, np.ones((5, 2)))


def test_weights_hand_forward_single_hidden_unit():
    params = {
        "r.w1": np.array([[0.5, -0.25]]),
        "r.b1": np.array([0.1]),
        "r.w2": np.array([[2.0], [-1.0]]),
        "r.b2": np.array([0.3, 0.7]),
    }
    params.update({k.replace("r.", "i."): v.copy() for k, v in params.items()})
    lam_r, lam_i, _ = tifo.weights_forward(params, np.array([[1.0], [2.0]]))
    # pre = 0.5*1 - 0.25*2 + 0.1 = 0.1, relu keeps it, out = w2*0.1 + b2
    np.testing.assert_allclose(lam_r[:, 0], [0.5, 0.6], atol=1e-12)
    np.testing.assert_allclose(lam_i[:, 0], [0.5, 0.6], atol=1e-12)


def test_weights_share_parameters_across_channels():
    params = make_params(seed=2)
    rng = np.random.default_rng(4)
    scores = rng.uniform(0, 3, size=(5, 3))
    scores[:, 2] = scores[:, 0]
    lam_r, lam_i, _ = tifo.weights_forward(params, scores)
    np.testing.assert_array_equal(lam_r[:, 2], lam_r[:, 0])
    np.testing.assert_array_equal(lam_i[:, 2], lam_i[:, 0])


def test_weights_channel_permutation_equivariance():
    params = make_params(seed=5)
    scores = np.random.default_rng(6).uniform(0, 3, size=(5, 4))
    perm = [2, 0, 3, 1]
    lam_r, _, _ = tifo.weights_forward(params, scores)
    lam_r_perm, _, _ = tifo.weights_forward(params, scores[:, perm])
    np.testing.assert_allclose(lam_r_perm, lam_r[:, perm], atol=1e-12)


def test_transform_identity_weights():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 12, 2))
    ones = np.ones((n_bins(12), 2))
    out, _ = tifo.transform(x, ones, ones)
    np.testing.assert_allclose(out, x, atol=1e-10)


def test_transform_zero_weights():
    x = np.random.default_rng(1).standard_normal((3, 8, 1))
    zeros = np.zeros((n_bins(8), 1))
    np.testing.assert_allclose(tifo.transform(x, zeros, zeros)[0], 0.0, atol=1e-12)


def test_transform_dc_only_matches_mean():
    x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1)
    lam = np.zeros((3, 1))
    lam[0] = 1.0
    out, _ = tifo.transform(x, lam, lam)
    np.testing.assert_allclose(out[0, :, 0], [2.5, 2.5, 2.5, 2.5], atol=1e-12)


def test_transform_linear_in_x():
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal((2, 4, 10, 3))
    lam_r = rng.uniform(0.5, 1.5, size=(n_bins(10), 3))
    lam_i = rng.uniform(0.5, 1.5, size=(n_bins(10), 3))
    combo, _ = tifo.transform(2.0 * x - 3.0 * y, lam_r, lam_i)
    parts = 2.0 * tifo.transform(x, lam_r, lam_i)[0] - 3.0 * tifo.transform(y, lam_r, lam_i)[0]
    np.testing.assert_allclose(combo, parts, atol=1e-10)


def test_alpha_scale():
    lam = np.array([[3.0]])
    np.testing.assert_array_equal(tifo.alpha_scale(lam, 1.0), lam)
    np.testing.assert_array_equal(tifo.alpha_scale(lam, 0.0), [[1.0]])
    np.testing.assert_array_equal(tifo.alpha_scale(lam, 0.5), [[2.0]])


def test_alpha_zero_transform_is_identity():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 16, 2))
    lam = rng.uniform(-2, 2, size=(n_bins(16), 2))
    neutral = tifo.alpha_scale(lam, 0.0)
    np.testing.assert_allclose(tifo.transform(x, neutral, neutral)[0], x, atol=1e-10)


@settings(max_examples=60)
@given(length=st.integers(2, 64), channels=st.integers(1, 3), shift=st.integers(-64, 64),
       seed=st.integers(0, 2**32 - 1))
def test_tied_weights_commute_with_circular_shifts(length, channels, shift, seed):
    # lambda_r == lambda_i scales each complex coefficient by a real number,
    # a diagonal operator in the DFT basis, so it commutes with every shift
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, length, channels))
    lam = rng.uniform(-2, 2, size=(n_bins(length), channels))
    shifted = tifo.transform(np.roll(x, shift, axis=-2), lam, lam)[0]
    np.testing.assert_allclose(shifted, np.roll(tifo.transform(x, lam, lam)[0], shift, axis=-2), rtol=0, atol=1e-12)


@settings(max_examples=60)
@given(length=st.integers(3, 64), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_untied_weights_break_shift_commutation(length, data, seed):
    # with lambda_r = m + d and lambda_i = m - d at bin k, a shift by s moves
    # the gap's bin-k coefficient to 2 |d| |X_k| |sin(2 pi k s / L)|, so the
    # gap's norm is at least sqrt(2 / L) |lambda_r - lambda_i| |X_k| |sin|,
    # which is not zero unless 2ks is a multiple of L
    k = data.draw(st.integers(1, (length - 1) // 2), label="bin")
    shift = data.draw(st.integers(1, length - 1).filter(lambda s: 2 * k * s % length), label="shift")
    rng = np.random.default_rng(seed)
    t = np.arange(length)[:, None]
    x = np.cos(2 * np.pi * k * t / length + rng.uniform(0, 2 * np.pi, 2)) + 0.1 * rng.standard_normal((length, 2))
    lam_r = rng.uniform(-2, 2, size=(n_bins(length), 2))
    lam_i = lam_r.copy()
    lam_i[k] += rng.choice([-1.0, 1.0], 2) * rng.uniform(0.5, 2.0, 2)
    gap = tifo.transform(np.roll(x, shift, axis=-2), lam_r, lam_i)[0] - np.roll(
        tifo.transform(x, lam_r, lam_i)[0], shift, axis=-2)
    real, imag = dft_forward(x, axis=-2)
    bound = (np.sqrt(2 / length) * np.abs(lam_r[k] - lam_i[k]) * np.hypot(real[k], imag[k])
             * abs(np.sin(2 * np.pi * k * shift / length)))
    assert (bound > 0.05).all()
    assert (np.linalg.norm(gap, axis=0) >= bound * (1 - 1e-9)).all()


def test_half_period_shift_commutes_with_untied_weights():
    # 2ks is a multiple of L at s = L / 2 for every k: the shift flips the
    # sign of each odd bin and keeps each even one, a real factor
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 48, 2))
    lam_r, lam_i = rng.uniform(-2, 2, size=(2, n_bins(48), 2))
    shifted = tifo.transform(np.roll(x, 24, axis=-2), lam_r, lam_i)[0]
    np.testing.assert_allclose(shifted, np.roll(tifo.transform(x, lam_r, lam_i)[0], 24, axis=-2), rtol=0, atol=1e-12)


def test_transform_vjp_zero_upstream():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 8, 1))
    real, imag = dft_forward(x, axis=1)
    lam = rng.uniform(0.5, 1.5, size=(5, 1))
    gx, gr, gi = tifo.transform_vjp(np.zeros_like(x), real, imag, lam, lam, 8)
    np.testing.assert_array_equal(gx, 0.0)
    np.testing.assert_array_equal(gr, 0.0)
    np.testing.assert_array_equal(gi, 0.0)


def test_transform_vjp_identity_passes_upstream_through():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 8, 2))
    upstream = rng.standard_normal((4, 8, 2))
    real, imag = dft_forward(x, axis=1)
    ones = np.ones((5, 2))
    gx, _, _ = tifo.transform_vjp(upstream, real, imag, ones, ones, 8)
    np.testing.assert_allclose(gx, upstream, atol=1e-10)


@pytest.mark.parametrize("keep", [None, 3])
def test_transform_vjp_matches_finite_differences(keep):
    # with keep, the weights are zero at bins >= keep, as a pipeline's
    # re-weighting layer hands them over; x's gradient must then skip those bins
    rng = np.random.default_rng(6)
    length = 8
    x = rng.standard_normal((3, length, 2))
    lam_r = rng.uniform(0.2, 1.8, size=(n_bins(length), 2))
    lam_i = rng.uniform(0.2, 1.8, size=(n_bins(length), 2))
    if keep is not None:
        lam_r[keep:] = 0.0
        lam_i[keep:] = 0.0
    target = rng.standard_normal(x.shape)

    def loss(x_, lr_, li_):
        out, _ = tifo.transform(x_, lr_, li_)
        return float(np.mean((out - target) ** 2))

    base, _ = tifo.transform(x, lam_r, lam_i)
    upstream = 2.0 * (base - target) / base.size
    real, imag = dft_forward(x, axis=1)
    gx, gr, gi = tifo.transform_vjp(upstream, real, imag, lam_r, lam_i, length)

    eps = 1e-6
    for arr, grad in ((x, gx), (lam_r, gr), (lam_i, gi)):
        flat = arr.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for idx in range(0, flat.size, max(1, flat.size // 17)):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss(x, lam_r, lam_i)
            flat[idx] = orig - eps
            down = loss(x, lam_r, lam_i)
            flat[idx] = orig
            numeric = (up - down) / (2 * eps)
            assert abs(numeric - gflat[idx]) < 1e-6 * max(1.0, abs(numeric))


def test_expected_bins_spans_full_spectrum():
    # keep truncates through a mask; the weights always span all K = L // 2 + 1 bins
    def layer(keep):
        cfg = PipelineConfig(
            method="tifo",
            backbone=BackboneConfig(kind="linear", lookback=48, horizon=4, channels=2),
            tifo=tifo.TifoConfig(hidden=3, keep=keep),
        )
        return TifoLayer(cfg, np.random.default_rng(0))

    for keep in (None, 10):
        lam_r, lam_i, _ = layer(keep).weights()
        assert lam_r.shape == lam_i.shape == (25, 2)
    with pytest.raises(ValueError):
        layer(26)
