"""Gaussian quadrature-noise models: coherent vacuum and broadband squeezed vacuum.

Units: the vacuum Wigner distribution has unit variance per sample per
quadrature (W0 ~ exp(-x^2/2 - y^2/2)), so every SNR formula holds with the
squeezed-quadrature density S2 = 1 for coherent states.  Squeezed vacuum with
parameter r and squeeze bandwidth B_s has quadrature densities
S1 = exp(+2r) and S2 = exp(-2r) inside |f| < B_s/2 and 1 outside,
equivalently covariances K1 = I - (1 - e^{2r}) Gamma and
K2 = I - (1 - e^{-2r}) Gamma with Gamma the brick-wall low-pass.  The
covariances are realised as circulant filters (squeezed_covariance_psds),
never as dense matrices; pll.sample_quadratures, the one sampler of a trial's
quadrature stream, colours white draws with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import SpectralDensity, TimeGrid, check_nonnegative, check_positive
from .signals import LORENTZIAN, MessageSpec, in_band_mask, message_psd

COHERENT = "coherent"
SQUEEZED_Z = "squeezed_z"
PHASE_SQUEEZED = "phase_squeezed"


PLANCK = 6.62607015e-34      # h, J s
CARRIER_FREQUENCY = 1.935e14  # f0, Hz (1550 nm)


@dataclass(frozen=True)
class NoiseModel:
    """Coherent or squeezed Gaussian quadrature statistics.

    alpha_mag is the per-mode mean amplitude |alpha|; r the squeeze
    parameter; squeeze_bandwidth B_s <= B (ignored for coherent).
    """

    kind: str
    alpha_mag: float
    r: float = 0.0
    squeeze_bandwidth: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in (COHERENT, SQUEEZED_Z, PHASE_SQUEEZED):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.alpha_mag < 0:
            raise ValueError("|alpha| must be nonnegative")
        if self.kind == COHERENT:
            if self.r != 0.0:
                raise ValueError("coherent model must have r = 0")
        else:
            check_nonnegative("squeeze parameter r", self.r)
            if self.squeeze_bandwidth is None or self.squeeze_bandwidth <= 0:
                raise ValueError("squeezed model needs a positive squeeze bandwidth")


def squeezed_covariance_psds(model: NoiseModel, grid: TimeGrid):
    """(S1, S2): antisqueezed / squeezed quadrature densities on the grid."""
    if model.kind == COHERENT:
        ones = np.ones(grid.n_samples)
        return (SpectralDensity(grid, ones), SpectralDensity(grid, ones.copy()))
    if model.squeeze_bandwidth > grid.bandwidth:
        raise ValueError("squeeze bandwidth exceeds the grid bandwidth")
    gamma = in_band_mask(grid, model.squeeze_bandwidth)
    s1 = np.where(gamma, np.exp(2.0 * model.r), 1.0)
    s2 = np.where(gamma, np.exp(-2.0 * model.r), 1.0)
    return (SpectralDensity(grid, s1), SpectralDensity(grid, s2))


def photon_budget(alpha_mag: float, r: float, bandwidth: float,
                  squeeze_bandwidth: float, message_bandwidth: float):
    """(average power P, photons N per message correlation time 1/b).

    P = h f0 B |alpha|^2 + h f0 B_s sinh^2 r; N = P / (h f0 b).
    """
    hf0 = PLANCK * CARRIER_FREQUENCY
    power = hf0 * bandwidth * alpha_mag**2 + hf0 * squeeze_bandwidth * np.sinh(r) ** 2
    n_photon = power / (hf0 * message_bandwidth)
    return power, n_photon


def _alpha_photons(r: float, n_photon: float) -> float:
    """N - sinh^2 r, the photons of a budget N per 1/b left for |alpha| once
    squeezing over B_s = b has taken its share: the one budget rule."""
    check_positive("n_photon", n_photon)
    sh2 = float(np.sinh(r) ** 2)
    if sh2 >= n_photon:
        raise ValueError("photon budget too small for the requested squeezing")
    return n_photon - sh2


def resolve_lambda(r: float = 0.0, lam: float | None = None,
                   n_photon: float | None = None) -> float:
    """Lambda as given, else the flat-message budget 4 (N - sinh^2 r) exp(2r).

    The budgeted form inverts photon_budget for a flat message with the
    squeeze bandwidth equal to the message bandwidth (B_s = b).  r must be
    finite and nonnegative (check_nonnegative); the given Lambda, or else N,
    finite and positive (check_positive).
    """
    check_nonnegative("r", r)
    if lam is not None:
        return check_positive("lambda", lam)
    if n_photon is None:
        raise ValueError("need lambda or n_photon")
    return 4.0 * _alpha_photons(r, n_photon) * float(np.exp(2.0 * r))


def operating_point(message: MessageSpec, r: float = 0.0, lam: float | None = None,
                    n_photon: float | None = None):
    """(|alpha|, Lambda) with Lambda = 4 |alpha|^2 S_m(0) / S2(0), S2(0) = exp(-2r).

    Given Lambda, or a photon budget N per 1/b: a flat message maps N through
    resolve_lambda; a Lorentzian message takes |alpha|^2 = (N - sinh^2 r) b / B
    directly.
    """
    check_nonnegative("r", r)
    s_m_at_0 = float(message_psd(message).values[0])
    s2_at_0 = float(np.exp(-2.0 * r))
    if lam is None and n_photon is not None and message.kind == LORENTZIAN:
        alpha = float(np.sqrt(_alpha_photons(r, n_photon) * message.bandwidth
                              / message.grid.bandwidth))
        return alpha, 4.0 * alpha**2 * s_m_at_0 / s2_at_0
    lam = resolve_lambda(r, lam, n_photon)
    return float(np.sqrt(lam * s2_at_0 / (4.0 * s_m_at_0))), lam
