"""Turbulence power spectra and the integrated transverse strength.

Conventions
-----------
Transverse spatial frequencies ``a`` are in cycles/m; the PSD argument is
the angular wave vector ``k = 2*pi*a`` in rad/m.  The Kolmogorov PSD is

    Phi_n(k) = 0.033 * (2*pi)**3 * Cn2 * |k|**(-11/3)

and the von Karman regularization replaces ``|k|**2 -> |k|**2 + kappa0**2``
with ``kappa0 = 2*pi/L0``.  An optional Gaussian inner-scale rolloff
``exp(-|k|**2 * l0**2 / 35.0)`` can be enabled via ``inner_scale``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Inner-scale rolloff constant (Tatarskii-style Gaussian cutoff). Exposed so
# a different cutoff convention can be swapped in without touching call sites.
INNER_SCALE_CONSTANT = 35.0

# 0.033 * (2*pi)**3; the (2*pi)**3 accounts for the cycles/m transform pair.
KOLMOGOROV_PREFACTOR = 0.033 * (2.0 * np.pi) ** 3


class SpectrumKind(Enum):
    KOLMOGOROV = "kolmogorov"
    VON_KARMAN = "von_karman"


class DivergentLambdaError(ValueError):
    """Raised when an operation needs a finite integrated PSD."""


@dataclass(frozen=True)
class TurbulenceModel:
    """Refractive-index turbulence spectrum family.

    Parameters
    ----------
    kind : SpectrumKind
        Kolmogorov (unregularized) or von Karman (finite outer scale).
    cn2 : float
        Structure constant C_n^2 in m^(-2/3).
    outer_scale : float or None
        L0 in meters; required (> 0) for von Karman.
    inner_scale : float
        l0 in meters; 0 disables the inner-scale rolloff.
    """

    kind: SpectrumKind
    cn2: float
    outer_scale: float | None = None
    inner_scale: float = 0.0

    def __post_init__(self) -> None:
        if self.cn2 < 0.0:
            raise ValueError("cn2 must be >= 0")
        if self.inner_scale < 0.0:
            raise ValueError("inner_scale must be >= 0")
        if self.kind is SpectrumKind.VON_KARMAN:
            if self.outer_scale is None or self.outer_scale <= 0.0:
                raise ValueError("von Karman model needs outer_scale > 0")

    @property
    def kappa0(self) -> float:
        """Outer-scale angular frequency 2*pi/L0 (rad/m)."""
        if self.kind is not SpectrumKind.VON_KARMAN:
            raise DivergentLambdaError(
                "kappa0 undefined for pure Kolmogorov (no outer scale)")
        return 2.0 * np.pi / self.outer_scale

    def psd_magnitude(self, k_mag):
        """PSD as a function of |k| in rad/m.  Vectorized over k_mag."""
        k_mag = np.asarray(k_mag, dtype=float)
        if self.cn2 == 0.0:
            return np.zeros_like(k_mag)[()]
        if self.kind is SpectrumKind.KOLMOGOROV:
            if np.any(k_mag == 0.0):
                raise ValueError("PSD singular at zero frequency")
            value = KOLMOGOROV_PREFACTOR * self.cn2 * k_mag ** (-11.0 / 3.0)
        else:
            value = (KOLMOGOROV_PREFACTOR * self.cn2
                     * (k_mag ** 2 + self.kappa0 ** 2) ** (-11.0 / 6.0))
        if self.inner_scale > 0.0:
            value = value * np.exp(
                -k_mag ** 2 * self.inner_scale ** 2 / INNER_SCALE_CONSTANT)
        return value[()]


def psd_3d(model: TurbulenceModel, k) -> float:
    """PSD Phi_n(k) for a 3-vector k of angular frequency (rad/m)."""
    k = np.asarray(k, dtype=float)
    return model.psd_magnitude(np.sqrt(np.sum(k * k, axis=-1)))


def psd_transverse(model: TurbulenceModel, a) -> float:
    """Markov transverse slice Phi_n(a, 0) with a in cycles/m (scalar |a|,
    a D-vector, or an array of D-vectors along the last axis)."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        a_mag = np.abs(a)
    else:
        a_mag = np.sqrt(np.sum(a * a, axis=-1))
    return model.psd_magnitude(2.0 * np.pi * a_mag)


def _require_finite_lambda(model: TurbulenceModel) -> None:
    if model.cn2 == 0.0:
        return
    if model.kind is SpectrumKind.KOLMOGOROV:
        raise DivergentLambdaError("Lambda divergent for pure Kolmogorov")


def _radial_quadrature(model: TurbulenceModel, weight) -> float:
    """Integral of weight(a)*Phi_n(2*pi*a) over a in [0, inf) by a fixed
    exp-sinh (double-exponential) rule, Takahasi & Mori (1974).

    The substitution a = a_knee*exp(pi/2*sinh t) maps the half line onto t
    in R with doubly exponential decay at both ends, and the trapezoid rule
    with step 1/32 on |t| <= 150/32 (301 nodes) integrates it to rounding.
    Centring on the outer-scale knee a_knee = kappa0/(2*pi) puts t = 0 where
    the spectrum turns from flat to the a^(-11/3) tail, so both regimes are
    resolved with the same node density.
    """
    a_knee = model.kappa0 / (2.0 * np.pi)
    t = np.arange(-150, 151) / 32.0
    a = a_knee * np.exp(0.5 * np.pi * np.sinh(t))
    da = a * (0.5 * np.pi) * np.cosh(t) / 32.0
    return float(np.sum(weight(a) * model.psd_magnitude(2.0 * np.pi * a) * da))


def lambda_total(model: TurbulenceModel) -> float:
    """Integrated transverse PSD over the 2-D frequency plane (meters).

    For l0 = 0 this matches the closed form
    0.033*(2*pi)**2*(3/5)*cn2*kappa0**(-5/3).
    """
    _require_finite_lambda(model)
    if model.cn2 == 0.0:
        return 0.0
    return _radial_quadrature(model, lambda a: 2.0 * np.pi * a)


def lambda_total_1d(model: TurbulenceModel) -> float:
    """Integrated transverse PSD over a 1-D frequency line (for D = 1 runs)."""
    _require_finite_lambda(model)
    if model.cn2 == 0.0:
        return 0.0
    return _radial_quadrature(model, lambda a: 2.0)


def _sampled_psd(model: TurbulenceModel, grid) -> np.ndarray:
    _require_finite_lambda(model)
    axis = grid.axis_frequencies()
    if grid.dim == 1:
        a_mag = np.abs(axis)
    else:
        mesh = np.meshgrid(*([axis] * grid.dim), indexing="ij")
        a_mag = np.sqrt(sum(m * m for m in mesh))
    return model.psd_magnitude(2.0 * np.pi * a_mag)


def psd_lattice(model: TurbulenceModel, grid) -> np.ndarray:
    """Phi_n(a, 0) sampled on the grid's frequency lattice (shape (n,)*D),
    with a warning if the lattice cannot resolve a von Karman outer scale
    (L0 > 1/delta_a).  The warning is raised here alone, so Python's
    default filter shows it once per process."""
    if (model.kind is SpectrumKind.VON_KARMAN
            and model.outer_scale > 1.0 / grid.delta_a):
        warnings.warn("outer scale exceeds grid support (L0 > 1/delta_a); "
                      "the lattice misses the largest eddies")
    return _sampled_psd(model, grid)


def lambda_grid(model: TurbulenceModel, grid) -> float:
    """Lattice-sum realization of the integrated PSD on a specific grid.

    This is the value that makes the discrete kernel equations and the
    DFT-periodic split-step oracle share one decay constant exactly; it
    converges to lambda_total(_1d) as the grid resolves the spectrum.  It
    does not warn about the outer scale: the step guards read it for every
    plan, including those of commands that never sample the lattice.
    """
    return float(np.sum(_sampled_psd(model, grid))) * grid.cell
