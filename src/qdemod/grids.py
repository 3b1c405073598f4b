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
    photon number N, the Lorentzian message's lorentz_ratio B/b and the
    sensor's wavelength, bandwidth and rms motion."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """value if it is finite and >= 0, else ValueError: the one rule for the
    squeeze parameter r, the sensor's cavity length and maps, and beta^2 Lambda."""
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return value


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


_MAX_SAMPLES = 1 << 20  # the largest grid: a (32, m) row group's array is then 256 MiB


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: M_f points spaced 1/B starting at t = 0."""

    bandwidth: float
    n_samples: int = 4096

    def __post_init__(self) -> None:
        check_positive("bandwidth", self.bandwidth)
        if not _is_power_of_two(self.n_samples):
            raise ValueError("n_samples must be a power of two")
        if self.n_samples > _MAX_SAMPLES:
            raise ValueError(f"n_samples must be at most 2**20 = {_MAX_SAMPLES}, "
                             f"got {self.n_samples}")

    @property
    def dt(self) -> float:
        return 1.0 / self.bandwidth

    @property
    def df(self) -> float:
        return self.bandwidth / self.n_samples

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

    @cached_property
    def _colouring(self) -> "FilterKernel":
        """color_noise's filter sqrt(S), made on its first use."""
        return FilterKernel(self.grid, np.sqrt(self.values))


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
        real products rounded on their own (the kernel's spectrum_product),
        so the bits do not depend on the CPU's fused multiply-adds."""
        spectrum = np.fft.rfft(x, axis=-1)
        _tracker.load().spectrum_product(spectrum, self._planes)
        return np.fft.irfft(spectrum, n=self.grid.n_samples, axis=-1)

    def causal_taps(self) -> np.ndarray:
        """Real taps restricted to lags [0, M/2)."""
        return np.fft.ifft(self.response)[: self.grid.n_samples // 2].real.copy()


def differentiator_kernel(n):
    """Ideal discrete differentiator taps: (-1)^n / n, and 0 at n = 0."""
    n = np.asarray(n)
    scalar = n.ndim == 0
    nv = np.atleast_1d(n)
    out = np.zeros(nv.shape, dtype=float)
    nz = nv != 0
    out[nz] = np.where(nv[nz] % 2 == 0, 1.0, -1.0) / nv[nz]
    return float(out[0]) if scalar else out.reshape(n.shape)


def color_noise(white: np.ndarray, density: SpectralDensity) -> np.ndarray:
    """Stationary real Gaussian sequences with the given PSD (circulant
    exact), coloured from white ones along the last axis by the filter
    sqrt(S) through FilterKernel.apply; the filter and its planes are made
    once per density.

    Each row is transformed on its own, so a row of a batch comes out bit
    for bit as it does alone.
    """
    return density._colouring.apply(white)
