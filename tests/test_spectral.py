import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specshift.models import BackboneConfig
from specshift.spectral import (
    amplitude,
    dft_direct,
    dft_forward,
    dft_forward_adjoint,
    dft_inverse,
    hermitian_multiplicity,
    n_bins,
    window_taps,
)
from specshift.tifo import TifoConfig
from specshift.training import PipelineConfig, TifoLayer

from oracles import dft_forward_adjoint_summed, dft_inverse_summed


def test_forward_known_values():
    real, imag = dft_forward(np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_allclose(real, [10.0, -2.0, -2.0], atol=1e-12)
    np.testing.assert_allclose(imag, [0.0, 2.0, 0.0], atol=1e-12)


def test_amplitude_known_values():
    real, imag = dft_forward(np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_allclose(
        amplitude(real, imag), [10.0, 2.8284271247461903, 2.0], atol=1e-12
    )


# finite parts from 0 through the subnormals up to 1e308, either sign
_parts = st.one_of(
    st.floats(min_value=-1e308, max_value=1e308, allow_nan=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
)


@settings(max_examples=200)
@given(st.lists(st.tuples(_parts, _parts), min_size=1, max_size=40))
def test_amplitude_is_within_2_ulp_of_hypot(pairs):
    real, imag = np.array(pairs).T
    got, want = amplitude(real, imag), np.hypot(real, imag)
    assert np.all(np.abs(got - want) <= 2 * np.spacing(want))


@pytest.mark.parametrize("a", [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, 5e-324])
@pytest.mark.parametrize("b", [0.0, -0.0, np.inf, -np.inf, np.nan])
def test_amplitude_is_hypot_at_zero_inf_and_nan(a, b):
    real, imag = np.array([a, b]), np.array([b, a])
    np.testing.assert_array_equal(amplitude(real, imag), np.hypot(real, imag))


@settings(max_examples=60)
@given(st.integers(1, 40), st.integers(1, 9), st.integers(0, 7), st.integers(0, 2**31))
def test_amplitude_bits_do_not_depend_on_layout(rows, cols, offset, seed):
    rng = np.random.default_rng(seed)
    real, imag = rng.standard_normal((2, rows, cols)) * 10.0 ** rng.integers(-300, 300, (2, rows, cols))
    bits = amplitude(real, imag).view(np.uint64)
    spec = real + 1j * imag  # the strided (real, imag) views dft_forward returns
    padded = np.zeros((2, 2 * rows, cols))
    padded[:, ::2] = real, imag
    for got in (amplitude(spec.real, spec.imag), amplitude(*padded[:, ::2]), amplitude(real.T, imag.T).T,
                amplitude(np.asfortranarray(real), np.asfortranarray(imag))):
        assert np.array_equal(got.view(np.uint64), bits)
    # a pass that starts at any element gives that element's bits of the whole pass
    start = offset % real.size
    tail = amplitude(real.ravel()[start:], imag.ravel()[start:])
    assert np.array_equal(tail.view(np.uint64), bits.ravel()[start:])


def test_round_trip_known_case():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    real, imag = dft_forward(x)
    np.testing.assert_allclose(dft_inverse(real, imag, 4), x, atol=1e-12)


def test_n_bins():
    assert n_bins(4) == 3
    assert n_bins(5) == 3
    assert n_bins(96) == 49
    assert n_bins(1) == 1


def test_dft_inverse_rejects_mismatched_shapes_and_length_0():
    with pytest.raises(ValueError, match=r"^expected 5 bins for length 8 on axis 0, got shapes \(5,\) and \(4,\)$"):
        dft_inverse(np.ones(5), np.ones(4), 8)
    with pytest.raises(ValueError, match="^length must be positive$"):
        dft_inverse(np.ones(1), np.ones(1), 0)


def test_hermitian_multiplicity():
    np.testing.assert_array_equal(hermitian_multiplicity(4), [1, 2, 1])
    np.testing.assert_array_equal(hermitian_multiplicity(5), [1, 2, 2])
    np.testing.assert_array_equal(hermitian_multiplicity(1), [1])


def test_self_conjugate_bins_have_zero_imag():
    rng = np.random.default_rng(0)
    for n in (2, 4, 8, 48):
        _, imag = dft_forward(rng.standard_normal(n))
        assert imag[0] == 0.0
        assert imag[-1] == 0.0


@pytest.mark.parametrize("length", list(range(2, 65)))
def test_fast_path_matches_direct_oracle(length):
    # covers powers of two, primes and composites; the FFT path must match the O(L^2) oracle
    rng = np.random.default_rng(length)
    x = rng.standard_normal((length, 3))
    r_fast, i_fast = dft_forward(x)
    r_direct, i_direct = dft_direct(x)
    np.testing.assert_allclose(r_fast, r_direct, atol=1e-9)
    np.testing.assert_allclose(i_fast, i_direct, atol=1e-9)


@pytest.mark.parametrize("length", [2, 3, 7, 8, 13, 31, 48, 96, 97, 128])
def test_round_trip(length):
    rng = np.random.default_rng(length + 1000)
    x = rng.standard_normal((length, 2))
    real, imag = dft_forward(x)
    np.testing.assert_allclose(dft_inverse(real, imag, length), x, atol=1e-10)
    # imaginary parts at the self-conjugate bins (0, and K-1 for even L) are ignored
    perturbed = imag.copy()
    perturbed[0] = [3.0, -7.5]
    if length % 2 == 0:
        perturbed[-1] = [-2.0, 4.25]
    np.testing.assert_array_equal(dft_inverse(real, perturbed, length), dft_inverse(real, imag, length))


@pytest.mark.parametrize("length", [4, 5, 48, 96, 97])
def test_parseval(length):
    rng = np.random.default_rng(length)
    x = rng.standard_normal(length)
    real, imag = dft_forward(x)
    m = hermitian_multiplicity(length)
    spectral = np.sum(m * (real**2 + imag**2)) / length
    time_energy = np.sum(x**2)
    assert abs(spectral - time_energy) / time_energy < 1e-8


def test_linearity():
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((2, 12))
    ra, ia = dft_forward(2.0 * x + 0.5 * y)
    rx, ix = dft_forward(x)
    ry, iy = dft_forward(y)
    np.testing.assert_allclose(ra, 2.0 * rx + 0.5 * ry, atol=1e-10)
    np.testing.assert_allclose(ia, 2.0 * ix + 0.5 * iy, atol=1e-10)


def test_window_taps_hann():
    np.testing.assert_allclose(window_taps("hann", 4), [0.0, 0.75, 0.75, 0.0], atol=1e-12)
    np.testing.assert_allclose(window_taps("rectangular", 3), [1.0, 1.0, 1.0])
    assert window_taps("hann", 1).tolist() == [1.0]


def test_window_taps_rejects_unknown():
    with pytest.raises(ValueError):
        window_taps("blackman", 8)


def test_truncate_validates_keep():
    # truncation is a 0/1 mask on the re-weighting layer; keep must lie in [1, K]
    def layer(keep):
        cfg = PipelineConfig(
            method="tifo",
            backbone=BackboneConfig(kind="linear", lookback=8, horizon=4, channels=1),
            tifo=TifoConfig(hidden=3, keep=keep),
        )
        return TifoLayer(cfg, np.random.default_rng(0))

    assert n_bins(8) == 5
    with pytest.raises(ValueError):
        layer(0)
    with pytest.raises(ValueError):
        layer(6)
    np.testing.assert_array_equal(layer(1).mask[:, 0], [1, 0, 0, 0, 0])
    np.testing.assert_array_equal(layer(5).mask[:, 0], np.ones(5))


def test_forward_adjoint_consistency():
    # <dft_forward(x), g> = <x, adjoint(g)> with plain sums over the K bins
    rng = np.random.default_rng(11)
    # 48 and 96 are the criterion-3 and ETTh1 lookbacks; 1, 2, 47, 97 add the edges and odd neighbours
    for length in (5, 8, 12, 1, 2, 47, 48, 96, 97):
        x = rng.standard_normal(length)
        k = n_bins(length)
        g_real = rng.standard_normal(k)
        g_imag = rng.standard_normal(k)
        real, imag = dft_forward(x)
        lhs = np.sum(real * g_real + imag * g_imag)
        rhs = np.sum(x * dft_forward_adjoint(g_real, g_imag, length))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_batched_axis_layout():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 16, 3))
    real, imag = dft_forward(x, axis=1)
    assert real.shape == (5, 9, 3)
    single_r, single_i = dft_forward(x[2, :, 1])
    np.testing.assert_allclose(real[2, :, 1], single_r, atol=1e-12)
    np.testing.assert_allclose(imag[2, :, 1], single_i, atol=1e-12)


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**31),
)
def test_round_trip_property(length, seed):
    x = np.random.default_rng(seed).uniform(-10, 10, size=length)
    real, imag = dft_forward(x)
    np.testing.assert_allclose(dft_inverse(real, imag, length), x, atol=1e-10)


@settings(max_examples=40)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=2**31))
def test_constant_signal_is_pure_dc(length, seed):
    c = np.random.default_rng(seed).uniform(-5, 5)
    real, imag = dft_forward(np.full(length, c))
    np.testing.assert_allclose(real[0], c * length, atol=1e-9)
    np.testing.assert_allclose(real[1:], 0.0, atol=1e-9)
    np.testing.assert_allclose(imag, 0.0, atol=1e-9)


@pytest.mark.parametrize("length", [1, 2, 3, 5, 8, 12, 47, 48, 96, 97])
def test_spectrum_in_one_buffer_gives_the_summed_spectrum_bits(length):
    # the complex spectrum is built in one buffer, not as real + 1j * imag:
    # both inverse-type transforms keep the bytes of the summed form on
    # random finite spectra whose high bins are zeroed, as a keep mask
    # leaves them (zeroing negative values gives -0.0)
    k = n_bins(length)
    rng = np.random.default_rng(length)
    for keep in sorted({1, (k + 1) // 2, k}):
        real = rng.normal(size=(6, k, 3)) * 10.0 ** rng.integers(-3, 4, size=(6, 1, 3))
        imag = rng.normal(size=(6, k, 3))
        real[:, keep:] *= 0.0
        imag[:, keep:] *= 0.0
        for axis, r, i in ((1, real, imag), (0, real[0], imag[0])):
            got = dft_inverse(r, i, length, axis=axis)
            assert got.tobytes() == dft_inverse_summed(r, i, length, axis=axis).tobytes()
            got = dft_forward_adjoint(r, i, length, axis=axis)
            assert got.tobytes() == dft_forward_adjoint_summed(r, i, length, axis=axis).tobytes()


@pytest.mark.parametrize("length", list(range(1, 65)))
def test_inverse_dft_matrix_is_the_inverse_transform(length):
    # the inverse DFT matrix is TifoLayer.basis: its product with
    # [lambda_r * real; lambda_i * imag] over the kept bins is dft_inverse
    # of the weighted spectrum with the dropped bins zeroed, and basis is the one
    # that dft_direct's forward transform of the identity gives: cosines from its
    # real part, minus sines (its imaginary part) at the self-conjugate bins
    # zeroed, each bin scaled by its Hermitian multiplicity over L
    k = n_bins(length)
    fr, fi = dft_direct(np.eye(length), axis=0)  # (K, L): row k holds bin k of each unit impulse
    direct = np.concatenate([fr.T, fi.T], axis=1) * np.tile(hermitian_multiplicity(length) / length, 2)
    rng = np.random.default_rng(length)
    real, imag, lam_r, lam_i = rng.normal(size=(4, k, 5))
    for keep in (None, 1, (k + 1) // 2):
        cfg = PipelineConfig(method="tifo", backbone=BackboneConfig(kind="linear", lookback=length, horizon=4,
                                                                    channels=5), tifo=TifoConfig(hidden=3, keep=keep))
        layer = TifoLayer(cfg, np.random.default_rng(0))
        kept = k if keep is None else keep
        assert layer.basis.shape == (length, 2 * kept)
        got = layer.basis @ layer.weighted_spectrum((real[None], imag[None]), (lam_r, lam_i, None))[0]
        expected = dft_inverse(real * lam_r * layer.mask, imag * lam_i * layer.mask, length)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        columns = np.concatenate([np.arange(kept), k + np.arange(kept)])
        np.testing.assert_allclose(layer.basis, direct[:, columns], rtol=0, atol=1e-12)
