"""Moment-kernel evolution of optical states through atmospheric
turbulence, cross-validated against a split-step Monte-Carlo propagator."""

from .grid import FrequencyGrid, Spectrum, contract, to_frequency, to_position
from .moments import (MomentKernel, biphoton_rhs, evolve_h10, evolve_h11,
                      evolve_kernel, h11_rhs, hierarchy_rhs, kernel_trace)
from .phase_screen import ScreenRealization, draw_screen, screen_statistics
from .spectrum import (DivergentLambdaError, SpectrumKind, TurbulenceModel,
                       lambda_grid, lambda_total, lambda_total_1d,
                       psd_transverse)
from .splitstep import PropagationPlan, ensemble_moments, propagate
from .states import (FockSpec, GaussianState, LinearProcess,
                     characteristic_of_gaussian, fock_generating, fock_wigner,
                     free_space_gaussian, gaussian_drift, shift_decay,
                     wigner_linear_process)
from .validation import run_validate

__version__ = "0.1.0"

__all__ = [
    "DivergentLambdaError",
    "FockSpec",
    "FrequencyGrid",
    "GaussianState",
    "LinearProcess",
    "MomentKernel",
    "PropagationPlan",
    "ScreenRealization",
    "Spectrum",
    "SpectrumKind",
    "TurbulenceModel",
    "biphoton_rhs",
    "characteristic_of_gaussian",
    "contract",
    "draw_screen",
    "ensemble_moments",
    "evolve_h10",
    "evolve_h11",
    "evolve_kernel",
    "fock_generating",
    "fock_wigner",
    "free_space_gaussian",
    "gaussian_drift",
    "h11_rhs",
    "hierarchy_rhs",
    "kernel_trace",
    "lambda_grid",
    "lambda_total",
    "lambda_total_1d",
    "propagate",
    "psd_transverse",
    "run_validate",
    "screen_statistics",
    "shift_decay",
    "to_frequency",
    "to_position",
    "wigner_linear_process",
]
