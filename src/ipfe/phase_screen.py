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
address, not on the range it is drawn in.  Each thread builds one
generator per ``ScreenLattice``, with a fixed seed so that no OS entropy
is read, and moves it to every key and block by assigning its state (key,
counter, empty buffer), which gives the same bits as a fresh generator
per block.  The split-step engine draws realization r in slab s at
(master_seed, s, r), one block per BLOCK realizations, as does
``PropagationPlan.slab_screen(r, s)``;
``draw_screen(seed)`` is the screen at (seed, 0, 0), and
``screen_statistics(seed)`` draws no screen, only its site pairs from the
generator of key (seed, 1).  ``keyed_generator`` builds
a generator at a key the same way, for keyed data that are not screens
(the checks' own test data, ``gaussian_drift``'s probes).

Buffers.  ``draw`` fills the normals and coefficient buffers of
``ScreenLattice.work``, drawing every Philox block whole, and writes the
screens into ``out``, which may be a strided view (the split-step engine
passes the real part of its screen factor).  A caller that draws range
after range (the engine, per chunk) allocates these buffers once.
``draw``, ``slab_screen``, ``draw_screen`` and the engine share this code,
and ``irfftn`` written to a strided ``out`` keeps its bits.  ``fields``
calls ``irfftn``'s own transforms, axis by axis in its order, and
``screen_statistics`` pushes unit normals through it for the exact
statistics of what ``draw`` returns.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, field

import numpy as np

from .grid import FrequencyGrid
from .spectrum import TurbulenceModel, psd_lattice

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
        self.grid = grid
        # Per-site E|N~(a)|^2, DC-centred; psd_lattice refuses a divergent
        # (Kolmogorov) spectrum and warns about an unresolved outer scale.
        self.variance = psd_lattice(model, grid) * dz * grid.delta_weight
        half = np.fft.ifftshift(self.variance)[..., :grid.n // 2 + 1]
        self.amplitude = np.sqrt(half / 2.0)
        self.amplitude[..., [0, grid.n // 2]] *= np.sqrt(2.0)
        # Each thread's generator and its state dict: the ensemble's worker
        # threads share the lattice, and building a Philox costs several
        # times as much as assigning its state.
        self._local = threading.local()

    def generator(self, seed: int, stream: int,
                  block: int = 0) -> np.random.Generator:
        """This thread's generator at Philox key (seed, stream), counter
        (0, block, 0, 0) and an empty buffer: a fresh generator of that key
        moved to the block.  A thread builds it once, with a fixed seed so
        that no OS entropy is read."""
        try:
            rng, state = self._local.philox
        except AttributeError:
            rng = np.random.Generator(np.random.Philox(0))
            state = rng.bit_generator.state
            self._local.philox = rng, state
        state["state"]["key"][:] = seed, stream
        state["state"]["counter"][1] = block
        rng.bit_generator.state = state
        return rng

    def work(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Buffers for draw(..., start, stop, work=...), which serve any
        later range of no more screens in no more Philox blocks: the
        normals of the whole blocks that hold the screens, shape
        (blocks * BLOCK, 2) + half_shape, and the screens' coefficients,
        shape (stop - start,) + half_shape, complex."""
        blocks = -(-(stop - start + start % BLOCK) // BLOCK)
        return (np.empty((blocks * BLOCK, 2) + self.amplitude.shape),
                np.empty((stop - start,) + self.amplitude.shape,
                         dtype=np.complex128))

    def fields(self, normals: np.ndarray, coeff: np.ndarray | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
        """Screens, shape (B,) + grid shape in DFT order, from a
        (B, 2) + half_shape block of normals (the module docstring).  The
        coefficients go to coeff, which the transform overwrites, and the
        screens to out (a real array, a strided view allowed), each a new
        array if None; returns out."""
        grid = self.grid
        if coeff is None:
            coeff = np.empty((len(normals),) + self.amplitude.shape,
                             dtype=np.complex128)
        if out is None:
            out = np.empty((len(normals),) + grid.shape)
        np.multiply(self.amplitude, normals[:, 0], out=coeff.real)
        np.multiply(self.amplitude, normals[:, 1], out=coeff.imag)
        # np.fft.irfftn(coeff, s=grid.shape, axes=(1, ..., D), out=out),
        # transform by transform in its order (the engine's axes comment
        # in ipfe.splitstep says why), the leading ones in place in coeff.
        for axis in range(1, grid.dim):
            np.fft.ifft(coeff, axis=axis, out=coeff)
        np.fft.irfft(coeff, grid.n, axis=grid.dim, out=out)
        out *= grid.n ** grid.dim * grid.cell
        return out

    def draw(self, seed: int, stream: int, start: int, stop: int,
             out: np.ndarray | None = None,
             work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
        """The screens at indices start..stop-1 of Philox key
        (seed, stream), shape (stop - start,) + grid shape in DFT order,
        written into out as ``fields`` does.  work is the buffers of
        ``self.work`` for this range or a larger one, so that a caller
        drawing range after range allocates them once (new ones if None).
        Every Philox block is drawn whole into work's normals, the way the
        stream contract defines it, and the range's rows are read there."""
        seed, stream = as_u64(seed, "seed"), as_u64(stream, "stream")
        start = as_u64(start, "screen index")
        stop = operator.index(stop)
        if not start <= stop <= 2 ** 64:
            raise ValueError(f"screen index stop must be in [start, 2^64], "
                             f"got {stop}")
        normals, coeff = self.work(start, stop) if work is None else work
        first = start - start % BLOCK
        if (len(normals) < -(-(stop - first) // BLOCK) * BLOCK
                or len(coeff) < stop - start):
            raise ValueError("work buffers are smaller than the range")
        for lo in range(first, stop, BLOCK):
            rng = self.generator(seed, stream, lo // BLOCK)
            rng.standard_normal(out=normals[lo - first:lo - first + BLOCK])
        return self.fields(normals[start - first:stop - first],
                           coeff[:stop - start], out)


def keyed_generator(seed: int, stream: int) -> np.random.Generator:
    """A fresh generator at Philox key (seed, stream), counter 0: the bits
    of ``Philox(key=...)``, built with a fixed seed and then keyed, so that
    no OS entropy is read."""
    rng = np.random.Generator(np.random.Philox(0))
    state = rng.bit_generator.state
    state["state"]["key"][:] = seed, stream
    rng.bit_generator.state = state
    return rng


def draw_screen(model: TurbulenceModel, grid: FrequencyGrid, dz: float,
                seed: int) -> ScreenRealization:
    """Draw the Gaussian slab screen at address (seed, 0, 0)."""
    field_x = ScreenLattice(model, grid, dz).draw(seed, 0, 0, 1)[0]
    return ScreenRealization(grid, np.fft.fftshift(field_x), dz, seed)


def phase_screen_position(screen: ScreenRealization, k: float) -> np.ndarray:
    """Position-domain phase phi(x) = k * n~_slab(x) in radians."""
    return k * screen.n_slab


# Unit normals screen_statistics pushes through the screen transform at a
# time, which bounds its memory by a fixed multiple of the lattice size.
_STATISTICS_ROWS = BLOCK

# Random site pairs whose covariance screen_statistics reports.
_CROSS_PAIRS = 64


@dataclass
class ScreenStatistics:
    """Exact second-order statistics of the screens ``ScreenLattice.draw``
    returns, on the DC-centred lattice, with both errors relative to the
    largest target variance."""

    target_variance: np.ndarray
    variance: np.ndarray
    cross_pairs: list  # (site_a, site_b, complex covariance)
    max_variance_error: float  # max_a |variance(a) - target(a)| / max target
    max_cross_covariance: float  # max |covariance| / max target


def screen_statistics(model: TurbulenceModel, grid: FrequencyGrid, dz: float,
                      seed: int) -> ScreenStatistics:
    """The exact per-mode variance of the drawn screens, and their exact
    covariance at 64 random non-mirror site pairs drawn from Philox key
    (seed, 1).  A screen is linear in its unit normals, so each normal,
    pushed through ``ScreenLattice.fields`` and taken to modes as
    ``grid.to_frequency`` does, gives its response N_r(a), and the screens'
    statistics are var(a) = sum_r |N_r(a)|^2 and
    cov(a, b) = sum_r N_r(a) N_r(b)*.  The normals go through in chunks of
    ``_STATISTICS_ROWS`` and the sums add one normal's response at a time,
    so the memory is linear in the sites and the bits do not depend on the
    chunk."""
    lattice = ScreenLattice(model, grid, dz)
    target = lattice.variance

    rng = lattice.generator(as_u64(seed, "seed"), 1)
    flat_size = grid.n ** grid.dim
    sites = np.indices(grid.shape).reshape(grid.dim, -1)
    mirror_flat = np.ravel_multi_index((grid.n - sites) % grid.n, grid.shape)
    # Candidate pairs (i, j) in stream order, dropping i = j and mirror
    # pairs; one integers call per batch of pairs draws the same values as
    # one call per pair.
    pairs = np.empty((0, 2), dtype=np.int64)
    while len(pairs) < _CROSS_PAIRS:
        draw = rng.integers(0, flat_size, size=(_CROSS_PAIRS, 2))
        keep = ((draw[:, 0] != draw[:, 1])
                & (mirror_flat[draw[:, 0]] != draw[:, 1]))
        pairs = np.concatenate([pairs, draw[keep]])
    sites_a, sites_b = pairs[:_CROSS_PAIRS].T

    variance = np.zeros(flat_size)
    cross = np.zeros(_CROSS_PAIRS, dtype=np.complex128)
    count = 2 * lattice.amplitude.size
    axes = tuple(range(1, grid.dim + 1))
    for start in range(0, count, _STATISTICS_ROWS):
        rows = min(_STATISTICS_ROWS, count - start)
        normals = np.eye(rows, count, start).reshape(
            (rows, 2) + lattice.amplitude.shape)
        # grid.to_frequency of each screen, which is already in DFT order.
        modes = np.fft.fftshift(np.fft.ifftn(lattice.fields(normals),
                                             axes=axes), axes=axes)
        modes = modes.reshape(rows, flat_size) * grid.delta_weight
        for power in modes.real ** 2 + modes.imag ** 2:
            variance += power
        for product in np.multiply(modes[:, sites_a],
                                   np.conj(modes[:, sites_b])):
            cross += product

    variance = variance.reshape(grid.shape)
    # A zero target (cn2 = 0) draws zero screens: the errors are then the
    # raw values, exactly 0.
    scale = float(np.max(target)) or 1.0
    return ScreenStatistics(
        target_variance=target,
        variance=variance,
        cross_pairs=list(zip(sites_a.tolist(), sites_b.tolist(),
                             cross.tolist())),
        max_variance_error=float(np.max(np.abs(variance - target))) / scale,
        max_cross_covariance=float(np.max(np.abs(cross))) / scale,
    )
