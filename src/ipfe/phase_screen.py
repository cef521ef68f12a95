"""Slab-integrated refractive-index screens with Markov-slab statistics.

A screen is the real slab-integrated index fluctuation n~_slab(x) on the
grid's position lattice, synthesized by the FFT phase-screen method (Lane,
Glindemann & Dainty, Waves in Random Media 2, 209, 1992) from Fourier
coefficients N~(a) with

    E[N~(a)] = 0
    E[|N~(a)|^2] = Phi_n(a, 0) * dz / delta_a^D
    N~(-a) = N~(a)*

Only the Hermitian half-lattice is drawn; ``irfftn`` supplies the other
half, so every screen is real by construction.  ``ScreenLattice`` computes
the variances and the half-lattice amplitude of a (model, grid, dz) once
and draws any number of screens from them.

Stream contract: a screen's address is (seed, stream, r), three integers
in [0, 2^64).

- The screen at (seed, stream, r) is row r % BLOCK (BLOCK = 64) of one
  ``standard_normal((BLOCK, 2) + half_shape)`` call, on the Philox4x64
  generator keyed (seed, stream) at counter (0, r // BLOCK, 0, 0) with an
  empty buffer.  ``half_shape`` is the ``rfftn`` layout in DFT order,
  ``grid.shape[:-1] + (n//2 + 1,)``.
- Its coefficients are ``amp * (z0 + i z1)`` from the row's two normal
  arrays, with ``amp = sqrt(variance / 2)`` on the half-lattice; on the
  last axis's 0 and n/2 planes ``amp`` is multiplied by sqrt(2), because
  ``irfftn`` keeps only the Hermitian part there.
- The screen is ``irfftn(coeff, s=grid.shape) * (n^D * cell)``, in DFT
  order (x = 0 first along each axis):
  n~_slab(x) = cell * sum_a N~(a) exp(2 pi i a.x).

Drawing a block advances only the counter's first word, so two blocks of
one key never share Philox output (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11): a screen depends only on its
address, not on the range it is drawn in.  The split-step engine draws realization r in slab s
at (master_seed, s, r), one block per BLOCK realizations, as does
``PropagationPlan.slab_screen(r, s)``; ``draw_screen(seed)`` is the screen
at (seed, 0, 0), and ``screen_statistics(seed)`` draws screen i at
(seed, 0, i) and its site pairs from the generator of key (seed, 1).
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import FrequencyGrid
from .spectrum import SpectrumKind, TurbulenceModel, psd_lattice

# Screens per Philox block of the stream contract.
BLOCK = 64


def as_u64(value, name: str) -> int:
    """value as a Python int, refused outside [0, 2^64), the range of a
    Philox key word (numpy would wrap a negative one silently)."""
    value = operator.index(value)
    if not 0 <= value < 2 ** 64:
        raise ValueError(f"{name} must be an integer in [0, 2^64), "
                         f"got {value}")
    return value


@dataclass
class ScreenRealization:
    """One real screen n~_slab(x), DC-centred like grid.axis_positions."""

    grid: FrequencyGrid
    n_slab: np.ndarray = field(repr=False)
    dz: float
    seed: int

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.n_slab):
            raise TypeError("a screen is a real field; got complex values")
        self.n_slab = np.asarray(self.n_slab, dtype=np.float64)
        if self.n_slab.shape != self.grid.shape:
            raise ValueError("screen shape does not match grid")


class ScreenLattice:
    """Screen variances and half-lattice amplitude for one (model, grid,
    dz), computed once and shared by every draw."""

    def __init__(self, model: TurbulenceModel, grid: FrequencyGrid,
                 dz: float) -> None:
        if dz <= 0.0:
            raise ValueError("dz must be positive")
        if model.kind is SpectrumKind.KOLMOGOROV and model.cn2 != 0.0:
            raise ValueError(
                "Kolmogorov model rejected: divergent DC screen variance")
        if (model.kind is SpectrumKind.VON_KARMAN
                and model.outer_scale > 1.0 / grid.delta_a):
            warnings.warn(
                "outer scale exceeds grid support (L0 > 1/delta_a); screen "
                "statistics will miss the largest eddies", stacklevel=2)
        self.grid = grid
        # Per-site E|N~(a)|^2, DC-centred.
        self.variance = psd_lattice(model, grid) * dz * grid.delta_weight
        half = np.fft.ifftshift(self.variance)[..., :grid.n // 2 + 1]
        self.amplitude = np.sqrt(half / 2.0)
        self.amplitude[..., [0, grid.n // 2]] *= np.sqrt(2.0)

    def fields(self, normals: np.ndarray) -> np.ndarray:
        """Screens, shape (B,) + grid shape in DFT order, from a
        (B, 2) + half_shape block of normals (the module docstring)."""
        grid = self.grid
        coeff = self.amplitude * (normals[:, 0] + 1j * normals[:, 1])
        return np.fft.irfftn(coeff, s=grid.shape,
                             axes=tuple(range(1, grid.dim + 1))) \
            * (grid.n ** grid.dim * grid.cell)

    def draw(self, seed: int, stream: int, start: int,
             stop: int) -> np.ndarray:
        """The screens at indices start..stop-1 of Philox key
        (seed, stream), shape (stop - start,) + grid shape in DFT order."""
        key = np.array([as_u64(seed, "seed"), as_u64(stream, "stream")],
                       dtype=np.uint64)
        start = as_u64(start, "screen index")
        stop = operator.index(stop)
        if not start <= stop <= 2 ** 64:
            raise ValueError(f"screen index stop must be in [start, 2^64], "
                             f"got {stop}")
        normals = np.empty((stop - start, 2) + self.amplitude.shape)
        for first in range(start - start % BLOCK, stop, BLOCK):
            counter = np.array([0, first // BLOCK, 0, 0], dtype=np.uint64)
            block = np.random.Generator(np.random.Philox(
                key=key, counter=counter)).standard_normal(
                    (BLOCK, 2) + self.amplitude.shape)
            lo, hi = max(start, first), min(stop, first + BLOCK)
            normals[lo - start:hi - start] = block[lo - first:hi - first]
        return self.fields(normals)


def draw_screens(model: TurbulenceModel, grid: FrequencyGrid, dz: float,
                 seeds) -> np.ndarray:
    """draw_screen's n_slab for each seed, stacked on axis 0."""
    lattice = ScreenLattice(model, grid, dz)
    return np.array([np.fft.fftshift(lattice.draw(seed, 0, 0, 1)[0])
                     for seed in seeds]).reshape((-1,) + grid.shape)


def draw_screen(model: TurbulenceModel, grid: FrequencyGrid, dz: float,
                seed: int) -> ScreenRealization:
    """Draw the Gaussian slab screen at address (seed, 0, 0)."""
    return ScreenRealization(grid, draw_screens(model, grid, dz, [seed])[0],
                             dz, seed)


def phase_screen_position(screen: ScreenRealization, k: float) -> np.ndarray:
    """Position-domain phase phi(x) = k * n~_slab(x) in radians."""
    return k * screen.n_slab


# Screens drawn and reduced at a time by screen_statistics, which bounds its
# memory whatever n_samples is; whole Philox blocks, so no block is drawn
# twice.
_STATISTICS_CHUNK = 16 * BLOCK

# Random site pairs whose cross-covariance screen_statistics reports.
_CROSS_PAIRS = 64


@dataclass
class ScreenStatistics:
    """Empirical screen statistics from n_samples independent draws."""

    n_samples: int
    target_variance: np.ndarray
    sample_variance: np.ndarray
    variance_se: np.ndarray
    max_rel_deviation: float
    cross_pairs: list  # (site_a, site_b, |cov|, se)
    max_cross_sigma: float


def screen_statistics(model: TurbulenceModel, grid: FrequencyGrid, dz: float,
                      n_samples: int, seed: int) -> ScreenStatistics:
    """Per-mode sample variance against target, plus cross-mode covariances
    for a random sample of non-mirror site pairs."""
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    lattice = ScreenLattice(model, grid, dz)
    target = lattice.variance
    axes = tuple(range(1, grid.dim + 1))

    sum_sq = np.zeros(grid.shape)
    sum_quad = np.zeros(grid.shape)

    rng = np.random.Generator(np.random.Philox(
        key=np.array([as_u64(seed, "seed"), 1], dtype=np.uint64)))
    flat_size = grid.n ** grid.dim
    sites = np.indices(grid.shape).reshape(grid.dim, -1)
    mirror_flat = np.ravel_multi_index((grid.n - sites) % grid.n, grid.shape)
    sites_a, sites_b = [], []
    while len(sites_a) < _CROSS_PAIRS:
        i, j = rng.integers(0, flat_size, size=2)
        if i != j and mirror_flat[i] != j:
            sites_a.append(int(i))
            sites_b.append(int(j))
    cross_sum = np.zeros(_CROSS_PAIRS, dtype=np.complex128)
    cross_sq = np.zeros(_CROSS_PAIRS)

    for start in range(0, n_samples, _STATISTICS_CHUNK):
        fields = lattice.draw(seed, 0, start,
                              min(start + _STATISTICS_CHUNK, n_samples))
        # The grid's inverse transform (grid.to_frequency) of each screen,
        # which is already in DFT order.
        coeff = np.fft.fftshift(np.fft.ifftn(fields, axes=axes),
                                axes=axes) * grid.delta_weight
        p = np.abs(coeff) ** 2
        sum_sq += np.sum(p, axis=0)
        sum_quad += np.sum(p ** 2, axis=0)
        flat = coeff.reshape(len(coeff), flat_size)
        prods = flat[:, sites_a] * np.conj(flat[:, sites_b])
        cross_sum += np.sum(prods, axis=0)
        cross_sq += np.sum(np.abs(prods) ** 2, axis=0)

    var = sum_sq / n_samples
    var_of_p = np.maximum(sum_quad / n_samples - var ** 2, 0.0)
    var_se = np.sqrt(var_of_p / n_samples)
    if np.all(target == 0.0):
        max_rel = float(np.max(np.abs(var)))
    else:
        max_rel = float(np.max(np.abs(var / target - 1.0)))

    cross_mag = np.abs(cross_sum / n_samples)
    cross_var = np.maximum(cross_sq / n_samples - cross_mag ** 2, 0.0)
    cross_se = np.sqrt(cross_var / n_samples)
    sigmas = np.divide(cross_mag, cross_se, out=np.zeros_like(cross_se),
                       where=cross_se > 0)
    return ScreenStatistics(
        n_samples=n_samples,
        target_variance=target,
        sample_variance=var,
        variance_se=var_se,
        max_rel_deviation=max_rel,
        cross_pairs=list(zip(sites_a, sites_b, cross_mag, cross_se)),
        max_cross_sigma=float(np.max(sigmas)),
    )
