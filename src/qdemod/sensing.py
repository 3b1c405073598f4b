"""Position and velocity sensing maps onto normalized PM/FM parameters.

Multipass geometry: the beam reflects off the target M times at incidence
angle theta, so target motion x(t) modulates the output phase by
2 M cos(theta) * 2 pi x / lambda0.  The Fabry-Perot arrangement realises an
effective M = (1 + sqrt(R)) / (1 - sqrt(R)) at resonance, valid only for
narrowband modulation.  Inequality constraints from the paper-level "<<"
statements are operationalised with factor-10 margins and both sides are
reported so callers can re-judge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import check_nonnegative, check_positive

MULTIPASS = "multipass"
FABRY_PEROT = "fabry_perot"

SPEED_OF_LIGHT = 299792458.0  # c, m/s
NARROWBAND_BETA = 0.1          # Fabry-Perot validity flag
INTERROGATION_MARGIN = 0.1     # lhs <= margin / b passes


@dataclass(frozen=True)
class SensorConfig:
    """Geometry plus target statistics for one sensing arrangement."""

    kind: str = MULTIPASS
    passes: float = 1.0                 # M (>= 1); derived for Fabry-Perot
    reflectivity: float | None = None   # R in [0, 1), Fabry-Perot only
    incidence: float = 0.0              # theta, rad; 0 for Fabry-Perot
    wavelength: float = 1.55e-6         # lambda0, m
    rms_position: float | None = None   # sqrt(<x^2>), m
    rms_velocity: float | None = None   # sqrt(<v^2>), m/s
    message_bandwidth: float = 1.0e3    # b, Hz
    cavity_length: float = 0.0          # L_cav, m

    def __post_init__(self) -> None:
        if self.kind not in (MULTIPASS, FABRY_PEROT):
            raise ValueError(f"unknown sensor kind {self.kind!r}")
        if self.kind == MULTIPASS and not (np.isfinite(self.passes) and self.passes >= 1):
            raise ValueError(f"multipass sensor needs a finite M >= 1, got {self.passes}")
        if self.kind == MULTIPASS and self.reflectivity is not None:
            raise ValueError("reflectivity is a Fabry-Perot key; a multipass sensor has none")
        if self.kind == FABRY_PEROT:
            if self.reflectivity is None or not 0.0 <= self.reflectivity < 1.0:
                raise ValueError("Fabry-Perot needs reflectivity in [0, 1)")
            if self.incidence != 0.0:
                raise ValueError("Fabry-Perot operates at normal incidence")
            if self.passes != 1.0:
                raise ValueError(f"Fabry-Perot takes no passes (R sets M), got {self.passes}")
        if not abs(self.incidence) < np.pi / 2:  # false for NaN too
            raise ValueError(f"incidence must be finite with |theta| < pi/2, "
                             f"got {self.incidence}")
        for name in ("wavelength", "message_bandwidth", "rms_position", "rms_velocity"):
            if getattr(self, name) is not None:
                check_positive(name, getattr(self, name))
        check_nonnegative("cavity_length", self.cavity_length)

    @property
    def effective_passes(self) -> float:
        if self.kind == FABRY_PEROT:
            return fabry_perot_m(self.reflectivity)
        return self.passes

    @property
    def geometry_factor(self) -> float:
        """2 M cos(theta): phase per unit 2 pi x / lambda0."""
        return 2.0 * self.effective_passes * np.cos(self.incidence)


def fabry_perot_m(reflectivity: float) -> float:
    """Effective pass count at resonance: (1 + sqrt(R)) / (1 - sqrt(R))."""
    if not 0.0 <= reflectivity < 1.0:
        raise ValueError("reflectivity must lie in [0, 1)")
    root = np.sqrt(reflectivity)
    return float((1.0 + root) / (1.0 - root))


@dataclass(frozen=True)
class PositionParams:
    beta: float
    narrowband_ok: bool         # beta < 0.1, required for Fabry-Perot use


def position_pm_params(cfg: SensorConfig) -> PositionParams:
    """PM index beta = 2 M cos(theta) * 2 pi sqrt(<x^2>) / lambda0; m = x/rms."""
    if cfg.rms_position is None:
        raise ValueError("rms_position required for position sensing")
    beta = cfg.geometry_factor * 2.0 * np.pi * cfg.rms_position / cfg.wavelength
    return PositionParams(float(beta), bool(beta < NARROWBAND_BETA))


@dataclass(frozen=True)
class VelocityParams:
    deviation: float            # F, Hz
    beta: float                 # 2 F / b
    narrowband_ok: bool


def velocity_fm_params(cfg: SensorConfig) -> VelocityParams:
    """FM parameters: F = 2 M cos(theta) sqrt(<v^2>) / lambda0, beta = 2F/b.

    F is the carrier's Doppler shift 2 M cos(theta) f0 v / c, and f0 / c =
    1 / lambda0.  The unit message is m(t) = -v(t)/rms: a positive velocity
    lowers the instantaneous frequency.
    """
    if cfg.rms_velocity is None:
        raise ValueError("rms_velocity required for velocity sensing")
    dev = cfg.geometry_factor * cfg.rms_velocity / cfg.wavelength
    beta = 2.0 * dev / cfg.message_bandwidth
    return VelocityParams(float(dev), float(beta), bool(beta < NARROWBAND_BETA))


def interrogation_constraint(cfg: SensorConfig):
    """(lhs seconds, pass): total interrogation time vs the message time scale.

    lhs = 2 (M - 1) L_cav / (c cos(theta)); passes when lhs <= 0.1 / b.
    """
    m_eff = cfg.effective_passes
    lhs = 2.0 * (m_eff - 1.0) * cfg.cavity_length / (
        SPEED_OF_LIGHT * np.cos(cfg.incidence))
    budget = INTERROGATION_MARGIN / cfg.message_bandwidth
    return float(lhs), bool(lhs <= budget)
