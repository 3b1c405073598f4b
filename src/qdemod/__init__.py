"""qdemod: quantum-limited temporal-phase and instantaneous-frequency estimation.

Desk-scale reproduction of quantum-limited angle demodulation: Wiener-Hopf
loop synthesis, homodyne phase-locked-loop Monte Carlo with coherent and
squeezed light, closed-form SNR/threshold limits, sensing parameter maps,
and exact small-Fock-space oracles for canonical phase.
"""

__version__ = "0.1.0"

from .grids import SpectralDensity, TimeGrid, differentiator_kernel
from .signals import MessageSpec, ModulationScheme, message_psd, modulate, phase_response
from .qnoise import NoiseModel, operating_point, squeezed_covariance_psds
from .wiener import (FilterKernel, LoopDesign, closed_loop_filter, design_loop,
                     loop_and_postloop, optimum_filter)
from .pll import (CellResult, PllConfig, cycle_slip_count, run_cell, sample_message,
                  sample_quadratures)
from . import limits
from . import fock
from . import sensing
from .cli import cli_main

__all__ = [
    "TimeGrid", "SpectralDensity", "differentiator_kernel",
    "MessageSpec", "ModulationScheme", "message_psd",
    "phase_response", "modulate",
    "NoiseModel", "squeezed_covariance_psds", "operating_point",
    "FilterKernel", "LoopDesign", "optimum_filter",
    "closed_loop_filter", "loop_and_postloop", "design_loop",
    "PllConfig", "CellResult", "run_cell",
    "cycle_slip_count", "sample_message", "sample_quadratures",
    "limits", "fock", "sensing", "cli_main",
]
