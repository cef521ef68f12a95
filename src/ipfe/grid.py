"""Discrete transverse frequency/position lattices and the contraction.

The frequency lattice is DC-centered: a_j = (j - n/2) * delta_a for
j = 0..n-1 per axis, with the asymmetric Nyquist site at the negative end.
The conjugate position lattice is x_j = (j - n/2) * delta_x with
delta_x = 1/(n * delta_a), so the two form an exact discrete-Fourier pair
under the convention g(x) = sum_a G(a) exp(-i 2 pi a.x) delta_a^D.

A continuum Dirac delta discretizes to the weight 1/delta_a^D at a single
site; this is the unique choice for which contract(delta_a0, f) = f(a0).

The free-space factor exp(+i pi lambda z |a|^2) of a distance z (the phase
advances with z) has one owner, FrequencyGrid.free_space_phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class FrequencyGrid:
    dim: int
    n: int
    delta_a: float
    wavelength: float

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ValueError("n must be a power of 2")
        if self.delta_a <= 0.0 or self.wavelength <= 0.0:
            raise ValueError("delta_a and wavelength must be positive")

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength

    @property
    def delta_x(self) -> float:
        return 1.0 / (self.n * self.delta_a)

    @property
    def cell(self) -> float:
        """Frequency-cell volume delta_a^D (the contraction weight)."""
        return self.delta_a ** self.dim

    @property
    def delta_weight(self) -> float:
        """Discrete Dirac-delta site value 1/delta_a^D."""
        return 1.0 / self.cell

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    def axis_frequencies(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.delta_a

    def axis_positions(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.delta_x

    def freq_sq(self) -> np.ndarray:
        """|a|^2 on the lattice, shape (n,)*D."""
        axis = self.axis_frequencies()
        if self.dim == 1:
            return axis ** 2
        mesh = np.meshgrid(*([axis] * self.dim), indexing="ij")
        return sum(m * m for m in mesh)

    def free_space_phase(self, z: float) -> np.ndarray:
        """exp(i pi lambda z |a|^2) on the lattice: free space over z."""
        return np.exp(1j * np.pi * self.wavelength * z * self.freq_sq())


@dataclass
class Spectrum:
    """One transverse angular-spectrum realization G(a) on a grid."""

    grid: FrequencyGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"shape {self.grid.shape}")

    @classmethod
    def gaussian(cls, grid: FrequencyGrid, sigma_a: float,
                 amplitude: float = 1.0) -> "Spectrum":
        """amplitude * exp(-|a|^2 / (2 sigma_a^2)), centred on a = 0, for
        a finite sigma_a > 0 whose 2 sigma_a^2 does not underflow (a zero
        denominator gives NaN at a = 0, and a negative width would be read
        as its magnitude)."""
        width = 2.0 * sigma_a ** 2
        if not (sigma_a > 0.0 and 0.0 < width < np.inf):
            raise ValueError(f"sigma_a must be finite and > 0 (2 sigma_a^2 "
                             f"too), got {sigma_a!r}")
        return cls(grid, amplitude * np.exp(-grid.freq_sq() / width))

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.cell)

    def copy(self) -> "Spectrum":
        return Spectrum(self.grid, self.values.copy())


def _values_of(obj) -> np.ndarray:
    return obj.values if isinstance(obj, Spectrum) else np.asarray(obj)


def contract(f, g) -> complex:
    """Discrete contraction sum(f * g) * delta_a^D (bilinear, no conjugate)."""
    fg = _values_of(f)
    gg = _values_of(g)
    if fg.shape != gg.shape:
        raise ValueError(f"grid mismatch: {fg.shape} vs {gg.shape}")
    grid = f.grid if isinstance(f, Spectrum) else g.grid
    return complex(np.sum(fg * gg) * grid.cell)


def to_position(s: Spectrum) -> np.ndarray:
    """Position-domain field g(x) = sum_a G(a) exp(-i 2 pi a.x) delta_a^D."""
    shifted = np.fft.ifftshift(s.values)
    g = np.fft.fftn(shifted)
    return np.fft.fftshift(g) * s.grid.cell


def to_frequency(grid: FrequencyGrid, g) -> Spectrum:
    """Inverse of to_position: G(a) = sum_x g(x) exp(i 2 pi a.x) delta_x^D."""
    g = np.asarray(g, dtype=np.complex128)
    if g.shape != grid.shape:
        raise ValueError(
            f"field shape {g.shape} does not match grid shape {grid.shape}")
    shifted = np.fft.ifftshift(g)
    values = np.fft.ifftn(shifted)
    return Spectrum(grid, np.fft.fftshift(values) * grid.delta_weight)
