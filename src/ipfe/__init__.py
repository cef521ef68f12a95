"""Moment-kernel evolution of optical states through atmospheric
turbulence, cross-validated against a split-step Monte-Carlo propagator.

``ipfe.states`` and ``ipfe.validation`` are in ``sys.modules`` from the
package import on, as every other module (so code that walks the loaded
ipfe modules, such as a tracer wrapping their functions, finds them), but
their code runs on first attribute access (``importlib.util.LazyLoader``),
and the package's states names and ``run_validate`` resolve on first use
(module ``__getattr__``).  So importing the package, or a command that
uses neither layer, does not run them or load numpy.polynomial.
"""

import importlib.util
import sys

from .grid import FrequencyGrid, Spectrum, contract, to_frequency, to_position
from .moments import (MomentKernel, biphoton_rhs, evolve_h10, evolve_h11,
                      evolve_kernel, h11_rhs, hierarchy_rhs, kernel_trace)
from .phase_screen import ScreenRealization, draw_screen, screen_statistics
from .spectrum import (DivergentLambdaError, SpectrumKind, TurbulenceModel,
                       lambda_grid, lambda_total, lambda_total_1d,
                       psd_transverse)
from .splitstep import PropagationPlan, ensemble_moments, propagate

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


def _deferred(name):
    """The submodule ipfe.<name>, registered in sys.modules and bound here
    without running its code, which runs on its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


states = _deferred("states")
validation = _deferred("validation")

# Exported name -> the deferred submodule that defines it.
_LAZY = {
    **dict.fromkeys(["FockSpec", "GaussianState", "LinearProcess",
                     "characteristic_of_gaussian", "fock_generating",
                     "fock_wigner", "free_space_gaussian", "gaussian_drift",
                     "shift_decay", "wigner_linear_process"], "states"),
    "run_validate": "validation",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_LAZY[name]], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
