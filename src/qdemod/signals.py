"""Stationary Gaussian messages and the PM/FM phase maps.

Message processes are generated by circulant frequency-domain coloring, so
their covariance is exactly circulant and matches the Wiener solver's algebra.

Flat-band messages require an odd number of in-band bins.  With the band
placed strictly inside |f| < b/2 and edges falling between bins, the density
is exactly B/b on every in-band bin, exactly zero outside, exactly symmetric,
and integrates to unit variance with no edge-bin fudging; the closed-form PM
error 1/(beta^2 Lambda + 1) then holds exactly on the grid.

For FM the grid surrogate of the running phase integral is periodic, so the
message's DC component is unobservable; FM messages drop the DC bin and the
remaining level is renormalised to keep unit variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import SpectralDensity, TimeGrid, color_noise
from .rng import stream

FLAT = "flat"
LORENTZIAN = "lorentzian"
PM = "pm"
FM = "fm"


@dataclass(frozen=True)
class MessageSpec:
    """Unit-variance stationary Gaussian message on a grid."""

    grid: TimeGrid
    kind: str
    bandwidth: float  # b, Hz

    def __post_init__(self) -> None:
        if self.kind not in (FLAT, LORENTZIAN):
            raise ValueError(f"unknown message kind {self.kind!r}")
        if not 0 < self.bandwidth <= self.grid.bandwidth:
            raise ValueError("message bandwidth must satisfy 0 < b <= B")
        if self.kind == FLAT:
            nb = self.bandwidth / self.grid.df
            if abs(nb - round(nb)) > 1e-9:
                raise ValueError("flat-band bandwidth must span an integer number of bins")
            # b = B (all bins, white) is the only admissible even count
            if round(nb) % 2 == 0 and round(nb) != self.grid.n_samples:
                raise ValueError(
                    "flat-band bandwidth must span an odd integer number of "
                    "bins (b = (2n+1) df) so the brick wall is exact"
                )

    @property
    def n_band_bins(self) -> int:
        return int(round(self.bandwidth / self.grid.df))

    @classmethod
    def flat(cls, grid: TimeGrid, band_bins: int) -> "MessageSpec":
        """Flat message spanning an odd number of DFT bins."""
        return cls(grid, FLAT, band_bins * grid.df)


@dataclass(frozen=True)
class ModulationScheme:
    """Linear phase map: PM index beta, or FM deviation F = beta*b/2."""

    kind: str
    beta: float
    bandwidth: float  # message bandwidth b the index refers to, Hz

    def __post_init__(self) -> None:
        if self.kind not in (PM, FM):
            raise ValueError(f"unknown modulation kind {self.kind!r}")
        if self.beta <= 0:
            raise ValueError("modulation index must be positive")

    @property
    def deviation(self) -> float:
        """FM frequency deviation F (Hz); beta = 2F/b by construction."""
        return self.beta * self.bandwidth / 2.0

    @classmethod
    def pm(cls, beta: float, bandwidth: float) -> "ModulationScheme":
        return cls(PM, beta, bandwidth)

    @classmethod
    def fm(cls, beta: float, bandwidth: float) -> "ModulationScheme":
        return cls(FM, beta, bandwidth)


def in_band_mask(grid: TimeGrid, bandwidth: float) -> np.ndarray:
    return np.abs(grid.freqs) < bandwidth / 2.0


def message_psd(spec: MessageSpec, drop_dc: bool = False) -> SpectralDensity:
    """Message PSD on the grid, normalised to exactly unit variance.

    drop_dc zeros the DC bin and renormalises; used for FM where the periodic
    integral cannot carry a mean.
    """
    g = spec.grid
    m = g.n_samples
    if spec.kind == FLAT:
        if spec.n_band_bins == m:  # b = B: white
            mask = np.ones(m, dtype=bool)
        else:
            mask = in_band_mask(g, spec.bandwidth)
        values = np.where(mask, g.bandwidth / spec.bandwidth, 0.0)
    else:
        b = spec.bandwidth
        f = g.freqs
        values = (g.bandwidth / (2.0 * np.pi)) * b / (f**2 + (b / 2.0) ** 2)
    if drop_dc:
        values = values.copy()
        values[0] = 0.0
    values = values * (m / values.sum())
    return SpectralDensity(g, values)


def sample_message(spec: MessageSpec, seed: int, trial: int = 0,
                   drop_dc: bool = False) -> np.ndarray:
    """Zero-mean unit-variance Gaussian sequence with the spec's PSD."""
    white = stream(seed, trial, 0).standard_normal(spec.grid.n_samples)
    return color_noise(white, message_psd(spec, drop_dc=drop_dc))


def phase_response(mod: ModulationScheme, grid: TimeGrid) -> np.ndarray:
    """Frequency response H(f) of the phase map on the grid's bins.

    PM: constant beta.  FM: the periodic running integral -2*pi*F * integral,
    i.e. -F/(i f) per bin for tones exp(+i 2 pi f t); the DC response is set
    to zero and is never used alone downstream (every formula it enters has a
    finite f -> 0 limit).
    """
    if mod.kind == PM:
        return np.full(grid.n_samples, mod.beta, dtype=complex)
    f = grid.freqs
    h = np.zeros(grid.n_samples, dtype=complex)
    nz = f != 0
    h[nz] = -mod.deviation / (1j * f[nz])
    return h


def modulate(mod: ModulationScheme, grid: TimeGrid, message: np.ndarray) -> np.ndarray:
    """Mean phase phibar = H . m along the last axis (PM: beta m; FM: via the FFT)."""
    message = np.asarray(message, dtype=float)
    if mod.kind == PM:
        return mod.beta * message
    h = phase_response(mod, grid)[: grid.n_samples // 2 + 1]  # Hermitian: real FFTs
    return np.fft.irfft(np.fft.rfft(message) * h, n=grid.n_samples)


def fm_phase_ramp(mod: ModulationScheme, grid: TimeGrid, message: np.ndarray) -> np.ndarray:
    """Non-circular running-integral phase -2*pi*F * cumsum(m) dt.

    Diagnostic counterpart of the circulant FM map; it keeps the mean (a
    constant message gives a linear ramp of slope -2*pi*F*m per second).
    """
    if mod.kind != FM:
        raise ValueError("phase ramp is defined for FM only")
    message = np.asarray(message, dtype=float)
    return -2.0 * np.pi * mod.deviation * np.cumsum(message) * grid.dt


def carson_bandwidth(mod, bandwidth: float | None = None,
                     squeeze_bandwidth: float | None = None) -> float:
    """Occupied optical bandwidth (beta + 1) b, plus B_s when squeezed.

    Accepts a ModulationScheme, or a bare index beta (>= 0, so the
    unmodulated limit is representable) together with the bandwidth.
    """
    if isinstance(mod, ModulationScheme):
        beta, b = mod.beta, mod.bandwidth
    else:
        beta = float(mod)
        if bandwidth is None:
            raise ValueError("bandwidth required when passing a bare index")
        b = float(bandwidth)
    if beta < 0:
        raise ValueError("modulation index must be nonnegative")
    base = (beta + 1.0) * b
    if squeeze_bandwidth is None:
        return base
    return squeeze_bandwidth + base
