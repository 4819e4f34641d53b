"""Real-input DFT with an O(L log L) production path and an O(L^2) oracle.

Conventions, fixed across the package:

* forward:   X[k] = sum_n x[n] * exp(-2j*pi*k*n/L) for k = 0 .. floor(L/2)
* inverse:   x[n] = (1/L) * sum_k Xext[k] * exp(+2j*pi*k*n/L), where Xext is
  the Hermitian extension of the retained bins back to length L
* amplitude: hypot(Re, Im)

Only the K = floor(L/2) + 1 non-redundant bins are kept for real input; the
self-conjugate bins (0, and K-1 for even L) carry an exactly zero imaginary
part: ``rfft`` writes it as +0.0 and ``irfft`` ignores it, so only the oracle
has to zero it.  The transforms run on numpy's real FFT
(``np.fft.rfft``/``irfft``) along the given axis, vectorised over the others,
and must agree with the O(L^2) oracle ``dft_direct`` to 1e-9 (enforced in
tests).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

WINDOWS = ("rectangular", "hann")


def n_bins(length: int) -> int:
    """Number of retained spectrum bins for a real signal of this length."""
    if length < 1:
        raise ValueError("length must be positive")
    return length // 2 + 1


def hermitian_multiplicity(length: int) -> np.ndarray:
    """Per-bin multiplicity in the Hermitian extension (1 for self-conjugate bins, else 2)."""
    m = np.full(n_bins(length), 2.0)
    m[0] = 1.0
    if length % 2 == 0:
        m[-1] = 1.0
    return m


def _zero_self_conjugate_imag(spec: np.ndarray, length: int) -> None:
    spec[..., 0] = spec[..., 0].real
    if length % 2 == 0:
        spec[..., -1] = spec[..., -1].real


def dft_forward(x: np.ndarray, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Forward transform of a real series; returns (real, imag) over K bins.

    Parameters
    ----------
    x : real array; the transform runs along `axis`.
    axis : time axis (default 0, so (L,) and (L, C) work unchanged).

    Returns
    -------
    (real, imag) arrays with K = floor(L/2) + 1 bins along `axis`: views of
    one complex ``rfft`` buffer, not copies.
    """
    spec = np.fft.rfft(np.asarray(x, dtype=float), axis=axis)
    return spec.real, spec.imag


def dft_inverse(real: np.ndarray, imag: np.ndarray, length: int, axis: int = 0) -> np.ndarray:
    """Inverse transform from K retained bins back to a real series of `length`.

    The spectrum is Hermitian-extended before inversion; imaginary parts of
    the self-conjugate bins are ignored.
    """
    return np.fft.irfft(_spectrum(real, imag, length, axis), n=length, axis=axis)


def dft_forward_adjoint(g_real: np.ndarray, g_imag: np.ndarray, length: int, axis: int = 0) -> np.ndarray:
    """Adjoint of ``dft_forward`` as a linear map R^L -> R^(2K).

    Needed for gradient propagation through the forward transform:
    out[n] = sum_k (g_real[k] * cos(2 pi k n / L) - g_imag[k] * sin(2 pi k n / L)).
    Imaginary-part cotangents at the self-conjugate bins are ignored (``irfft``
    drops them), matching their zero imaginary part in the forward pass.
    """
    z = _spectrum(g_real, g_imag, length, axis)
    # irfft counts each non-self-conjugate bin twice (Hermitian extension);
    # dividing by that multiplicity leaves one real-part contribution per bin
    shape = [1] * z.ndim
    shape[axis] = -1
    return length * np.fft.irfft(z / hermitian_multiplicity(length).reshape(shape), n=length, axis=axis)


def _spectrum(real, imag, length: int, axis: int) -> np.ndarray:
    """The complex spectrum real + 1j * imag, built in one buffer and checked
    to hold the K bins of `length` along `axis`."""
    real = np.asarray(real, dtype=float)
    imag = np.asarray(imag, dtype=float)
    k = n_bins(length)
    if real.shape != imag.shape or real.shape[axis] != k:
        raise ValueError(
            f"expected {k} bins for length {length} on axis {axis}, got shapes {real.shape} and {imag.shape}"
        )
    z = np.empty(real.shape, dtype=complex)
    z.real = real
    z.imag = imag
    return z


def dft_direct(x: np.ndarray, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Direct O(L^2) forward transform; the verification oracle for the fast path."""
    x = np.asarray(x, dtype=float)
    length = x.shape[axis]
    n = np.arange(length)
    k = np.arange(n_bins(length))
    basis = np.exp((-2j * np.pi / length) * np.outer(k, n))
    moved = np.moveaxis(x, axis, -1)
    spec = moved @ basis.T
    _zero_self_conjugate_imag(spec, length)
    real = np.ascontiguousarray(np.moveaxis(spec.real, -1, axis))
    imag = np.ascontiguousarray(np.moveaxis(spec.imag, -1, axis))
    return real, imag


def amplitude(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    return np.hypot(real, imag)


def window_taps(kind: str, length: int) -> np.ndarray:
    """Taps for a named analysis window (one of ``WINDOWS``; "hann" is symmetric)."""
    if length < 1:
        raise ValueError("length must be positive")
    if kind == "rectangular":
        return np.ones(length)
    if kind == "hann":
        if length == 1:
            return np.ones(1)
        n = np.arange(length)
        return 0.5 * (1.0 - np.cos(2.0 * np.pi * n / (length - 1)))
    raise ConfigError(f"window must be one of {WINDOWS}, got {kind!r}")
