"""Bandlimited discrete-time foundations.

A uniform grid with bandwidth B and spacing 1/B carries every sequence in the
toolkit.  All sequences are treated as periodic on the grid (circular
convolution semantics), which makes stationarity exact and lets the Wiener
algebra diagonalise in the DFT basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _tracker


def check_positive(name: str, value: float) -> float:
    """value if it is finite and > 0, else ValueError: the one rule for the
    grid bandwidth B, the modulation index beta, the loop SNR Lambda, the
    photon number N and the sensor's wavelength, bandwidth and rms motion."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """value if it is finite and >= 0, else ValueError: the one rule for the
    squeeze parameter r, the sensor's cavity length and beta^2 Lambda."""
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return value


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: M_f points spaced 1/B starting at t = 0."""

    bandwidth: float
    n_samples: int = 4096

    def __post_init__(self) -> None:
        check_positive("bandwidth", self.bandwidth)
        if not _is_power_of_two(self.n_samples):
            raise ValueError("n_samples must be a power of two")

    @property
    def dt(self) -> float:
        return 1.0 / self.bandwidth

    @property
    def df(self) -> float:
        return self.bandwidth / self.n_samples

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.dt

    @property
    def freqs(self) -> np.ndarray:
        """Bin frequencies in Hz, numpy fft ordering (DC first)."""
        return np.fft.fftfreq(self.n_samples, self.dt)


@dataclass(frozen=True)
class SpectralDensity:
    """Nonnegative power density over the DFT bins of a grid.

    Normalisation: the per-sample variance of the process equals the mean of
    `values` over all bins, i.e. (1/B) * sum(values) * df.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_samples,):
            raise ValueError("values length must equal grid.n_samples")
        if np.any(v < 0):
            raise ValueError("spectral density must be nonnegative")
        object.__setattr__(self, "values", v)
        m = self.grid.n_samples
        idx = np.arange(m)
        if not np.allclose(v, v[(-idx) % m], rtol=0, atol=1e-12 * max(1.0, v.max())):
            raise ValueError("density of a real process must be even in f")

    @property
    def variance(self) -> float:
        return float(np.mean(self.values))


@dataclass(frozen=True)
class FilterKernel:
    """Frequency response on the grid bins of a filter with real taps, so
    Hermitian: apply, by real FFTs, is the package's one filter of real data."""

    grid: TimeGrid
    response: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.response, dtype=complex)
        if r.shape != (self.grid.n_samples,):
            raise ValueError("response length must equal grid.n_samples")
        object.__setattr__(self, "response", r)

    @cached_property
    def _planes(self) -> np.ndarray:
        """The (2, bins) real and imaginary planes of the response on the
        real FFT's bins, formed on the first apply."""
        half = self.response[: self.grid.n_samples // 2 + 1]
        return np.stack([half.real, half.imag])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The filtered real sequences, along the last axis.

        The spectrum is multiplied by the response in place, each product's
        real products rounded on their own (the compiled library's
        spectrum_product, or _spectrum_product without it), so the bits do
        not depend on the CPU's fused multiply-adds."""
        m = self.grid.n_samples
        spectrum = np.fft.rfft(x, axis=-1)
        kernel = _tracker.load()
        if kernel is None:
            _spectrum_product(spectrum, self._planes)
        else:
            kernel.spectrum_product(spectrum, self._planes)
        return np.fft.irfft(spectrum, n=m, axis=-1)

    def causal_taps(self) -> np.ndarray:
        """Real taps restricted to lags [0, M/2)."""
        return np.fft.ifft(self.response)[: self.grid.n_samples // 2].real.copy()


def _spectrum_product(spectrum: np.ndarray, h: np.ndarray) -> None:
    """spectrum *= the response whose (2, bins) planes are h, in place along
    the last axis, as (sr hr - si hi, sr hi + si hr) with each real product
    rounded on its own: the numpy form of the library's spectrum_product."""
    hr, hi = h
    sr, si = spectrum.real, spectrum.imag
    cross = sr * hi
    sr *= hr
    sr -= si * hi
    si *= hr
    si += cross


def differentiator_kernel(n):
    """Ideal discrete differentiator taps: (-1)^n / n, and 0 at n = 0."""
    n = np.asarray(n)
    scalar = n.ndim == 0
    nv = np.atleast_1d(n)
    out = np.zeros(nv.shape, dtype=float)
    nz = nv != 0
    out[nz] = np.where(nv[nz] % 2 == 0, 1.0, -1.0) / nv[nz]
    return float(out[0]) if scalar else out.reshape(n.shape)


def differentiate(grid: TimeGrid, x: np.ndarray) -> np.ndarray:
    """Exact band-limited time derivative of a grid sequence (per second).

    Multiplies each DFT bin by i 2 pi f; the Nyquist bin, whose sign is
    undefined, is multiplied by 0.
    """
    w = 2j * np.pi * grid.freqs
    w[grid.n_samples // 2] = 0.0
    return np.fft.ifft(np.fft.fft(x) * w).real


def color_noise(white: np.ndarray, density: SpectralDensity) -> np.ndarray:
    """Stationary real Gaussian sequences with the given PSD (circulant
    exact), coloured from white ones along the last axis by the filter
    sqrt(S) through FilterKernel.apply.

    Each row is transformed on its own, so a row of a batch comes out bit
    for bit as it does alone.
    """
    return FilterKernel(density.grid, np.sqrt(density.values)).apply(white)


def estimate_psd(x, grid: TimeGrid, segments: int = 1) -> SpectralDensity:
    """Averaged-periodogram PSD estimate of a sequence x on grid.

    Each segment is demeaned, so the bin-mean of the estimate equals the
    per-segment sample variance exactly (Parseval).
    """
    data = np.asarray(x)
    m = grid.n_samples
    if data.shape[-1] != m:
        raise ValueError("sequence length must equal grid.n_samples")
    if segments < 1 or m % segments != 0:
        raise ValueError("segments must be >= 1 and divide the grid length")
    seg_len = m // segments
    if seg_len < 8:
        raise ValueError("segment length below 8; use fewer segments")
    segs = data.reshape(segments, seg_len)
    segs = segs - segs.mean(axis=1, keepdims=True)
    p = np.abs(np.fft.fft(segs, axis=1)) ** 2 / seg_len
    values = p.mean(axis=0)
    seg_grid = TimeGrid(grid.bandwidth, seg_len)
    return SpectralDensity(seg_grid, values)
