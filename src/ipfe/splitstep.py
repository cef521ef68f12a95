"""Split-step Monte-Carlo oracle for classical angular spectra.

Each slab applies the symmetric (Strang) composition

    free_space(dz/2) . phase_screen . free_space(dz/2)

where the free-space half step multiplies the spectrum by
exp(i pi lambda dz |a|^2 / ...) and the screen is a position-domain
multiplication by exp(-i k n~_slab(x)).  Both factors are unitary on the
discrete norm.  Ensemble moments over independent screen sequences are the
empirical counterparts of the first- and second-order moment kernels.

One block engine propagates every realization: a ``(B, n^D)`` block of
spectra is carried through all slabs in DFT order (zero frequency first, as
numpy's FFT stores it), so a slab is two half-step multiplies, one screen
multiply and a batched FFT pair over the grid axes, with no shifts.  The
half-step phase and the screen lattice (variances and half-lattice
amplitude) are computed, and the plan's guards checked, once per engine.
``propagate`` is the same engine run on a block of one realization.

The screen of realization r in slab s is the real field at address
(master_seed, s, r) of the stream contract in ``ipfe.phase_screen``, so it
is bit-identical to ``plan.slab_screen(r, s)`` whatever block it is drawn
in.  ``BLOCK`` is that contract's block, so each engine block of a slab is
exactly one Philox block.

``ensemble_moments`` propagates chunks of whole blocks on worker threads,
one per CPU the process may use (numpy's FFTs, Philox draws and complex
``exp`` release the GIL).  A chunk holds at most 2^14 field elements (or
one block, if that is larger), and at most one chunk per worker is in
flight, so memory stays bounded whatever the number of realizations.  The
calling thread reduces each ``BLOCK``-row slice of a chunk with matrix
products and adds the block partials in index order, so the moments are
bit-reproducible, independent of the worker count, and differ from a
one-realization-at-a-time sum only by the rounding of the reduction.  It
refuses, before allocating, a grid whose (n^D)^2 moments it estimates
above ``MAX_ENSEMBLE_BYTES``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .grid import FrequencyGrid, Spectrum, to_frequency, to_position
from .phase_screen import (BLOCK, ScreenLattice, ScreenRealization, as_u64,
                           phase_screen_position)
from .moments import (_CHUNK_ELEMENTS, _cpu_count, step_guard,
                      step_guard_values)
from .spectrum import TurbulenceModel

# Largest working set ensemble_moments may estimate for itself (bytes).  Per
# element of an (n^D)^2 moment it holds 56 B of accumulators (three complex,
# one real) and about ten complex temporaries while finishing the moments:
# 216 B, the peak tracemalloc reports at 2-D n=32 (216 MiB).  The limit
# admits 2-D n=32 and refuses 2-D n=64 (3.4 GiB).
MAX_ENSEMBLE_BYTES = 2 ** 30
_ENSEMBLE_BYTES_PER_ELEMENT = 56 + 10 * 16


@dataclass(frozen=True)
class PropagationPlan:
    grid: FrequencyGrid
    model: TurbulenceModel
    z_total: float
    n_slabs: int
    n_realizations: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.n_slabs < 1:
            raise ValueError("n_slabs must be >= 1")
        if self.z_total < 0.0:
            raise ValueError("z_total must be >= 0")
        as_u64(self.master_seed, "master_seed")

    @property
    def dz(self) -> float:
        return self.z_total / self.n_slabs

    def guard_values(self) -> dict:
        """Per-slab sampling phase pi*lambda*dz*a_max^2 (bound pi/4) and
        weak-scattering number k^2*Lambda*dz (bound 0.1)."""
        return step_guard_values(self.grid, self.model, self.dz)

    def check_guards(self) -> None:
        """Per-slab sampling and weak-scattering guards (moments.step_guard,
        the bounds every kernel step meets too)."""
        if self.z_total > 0.0:
            step_guard(self.grid, self.model, self.dz)

    @cached_property
    def screen_lattice(self) -> ScreenLattice:
        """The slab screens' lattice, built once per plan (z_total > 0)."""
        return ScreenLattice(self.model, self.grid, self.dz)

    def slab_screen(self, realization_index: int,
                    slab_index: int) -> ScreenRealization:
        """One realization's screen in one slab, as the engine draws it."""
        field_x = self.screen_lattice.draw(
            self.master_seed, slab_index, realization_index,
            realization_index + 1)[0]
        return ScreenRealization(self.grid, np.fft.fftshift(field_x),
                                 self.dz, self.master_seed)


def free_space_step(s: Spectrum, dz: float) -> Spectrum:
    """Multiply by the pure-phase free-space factor exp(i pi lambda dz |a|^2)."""
    phase = np.exp(1j * np.pi * s.grid.wavelength * dz * s.grid.freq_sq())
    return Spectrum(s.grid, s.values * phase)


def apply_screen(s: Spectrum, screen: ScreenRealization) -> Spectrum:
    """One-slab phase modulation exp(-i phi(x)) in the position domain."""
    if screen.grid != s.grid:
        raise ValueError("grid mismatch between spectrum and screen")
    phi = phase_screen_position(screen, s.grid.wavenumber)
    g = to_position(s) * np.exp(-1j * phi)
    return to_frequency(s.grid, g)


class _BlockEngine:
    """Per-plan constants of the split-step propagation, in DFT order."""

    def __init__(self, plan: PropagationPlan) -> None:
        plan.check_guards()
        grid = plan.grid
        self.plan = plan
        self.axes = tuple(range(1, grid.dim + 1))
        half = plan.dz / 2.0
        self.half_step = np.fft.ifftshift(np.exp(
            1j * np.pi * grid.wavelength * half * grid.freq_sq()))
        self.screens = plan.screen_lattice if plan.z_total > 0.0 else None

    def run(self, s0: Spectrum, realizations: range) -> np.ndarray:
        """Output spectra of the given realizations, one flattened
        DC-centred row each."""
        plan, grid, axes = self.plan, self.plan.grid, self.axes
        fields = np.repeat(np.fft.ifftshift(s0.values)[None],
                           len(realizations), axis=0)
        if self.screens is not None:
            for slab in range(plan.n_slabs):
                phi = grid.wavenumber * self.screens.draw(
                    plan.master_seed, slab, realizations.start,
                    realizations.stop)
                fields *= self.half_step
                g = np.fft.fftn(fields, axes=axes) * grid.cell
                g *= np.exp(-1j * phi)
                fields = np.fft.ifftn(g, axes=axes) * grid.delta_weight
                fields *= self.half_step
        return np.fft.fftshift(fields, axes=axes).reshape(
            len(realizations), -1)


def propagate(s0: Spectrum, plan: PropagationPlan,
              realization_index: int) -> Spectrum:
    """One realization: Strang composition over all slabs."""
    row = _BlockEngine(plan).run(
        s0, range(realization_index, realization_index + 1))
    return Spectrum(plan.grid, row.reshape(plan.grid.shape))


@dataclass
class EnsembleStats:
    """Monte-Carlo moments with per-element standard errors.

    second_moment[i, j] estimates <G(a_i) G*(a_j)> over flattened lattice
    sites; it is bitwise Hermitian with a real diagonal.  anomalous[i, j]
    estimates <G(a_i) G(a_j)>.
    """

    n_samples: int
    grid: FrequencyGrid
    mean_field: np.ndarray = field(repr=False)
    mean_field_se: np.ndarray = field(repr=False)
    second_moment: np.ndarray = field(repr=False)
    second_moment_se: np.ndarray = field(repr=False)
    anomalous: np.ndarray = field(repr=False)
    anomalous_se: np.ndarray = field(repr=False)
    # Worker threads that propagated the realizations.
    workers: int


def ensemble_moments(s0: Spectrum, plan: PropagationPlan) -> EnsembleStats:
    """Accumulate first/second moments over plan.n_realizations runs.

    Sums are taken about a fixed shift h, the first realization's field:
    with D = F - h for a block F of BLOCK realizations (one flattened field
    per row) and Q = |D|^2, each block is reduced with D^T D*, D^T D,
    Q^T Q and Q^T D, and the block partials are added in index order, so
    the result is bit-reproducible.  The shift keeps the variances behind
    the standard errors free of cancellation: an ensemble of identical
    realizations has standard errors of exactly zero.  The second and
    anomalous moments share every accumulator; their fourth-order terms
    agree because |d_i d_j|^2 = |d_i d_j*|^2.

    Realizations are propagated in chunks of whole blocks on one worker
    thread per CPU (never more than there are chunks), with at most one
    chunk per worker in flight; the moments do not depend on the worker
    count.
    """
    if plan.n_realizations < 2:
        raise ValueError("n_realizations must be >= 2")
    size = plan.grid.n ** plan.grid.dim
    estimate = _ENSEMBLE_BYTES_PER_ELEMENT * size ** 2
    if estimate > MAX_ENSEMBLE_BYTES:
        raise ValueError(
            f"ensemble moments on {size} sites need about "
            f"{estimate / 2 ** 30:.1f} GiB, above the "
            f"{MAX_ENSEMBLE_BYTES / 2 ** 30:.0f} GiB limit")
    # Imported here, not at module level: concurrent.futures loads logging,
    # about 1 MB of resident memory that commands without an ensemble
    # need not pay.
    from concurrent.futures import ThreadPoolExecutor

    engine = _BlockEngine(plan)
    n = plan.n_realizations
    n_blocks = -(-n // BLOCK)
    workers = min(_cpu_count(), n_blocks)
    chunk = BLOCK * max(1, min(-(-n_blocks // workers),
                               _CHUNK_ELEMENTS // (BLOCK * size)))
    starts = range(0, n, chunk)
    workers = min(workers, len(starts))

    sum_g = np.zeros(size, dtype=np.complex128)
    sum_d = np.zeros(size, dtype=np.complex128)
    sum_q = np.zeros(size)
    sum_dd_c = np.zeros((size, size), dtype=np.complex128)
    sum_dd = np.zeros((size, size), dtype=np.complex128)
    sum_qd = np.zeros((size, size), dtype=np.complex128)
    sum_qq = np.zeros((size, size))
    h = None
    with ThreadPoolExecutor(workers) as pool:
        def submit(start):
            return pool.submit(engine.run, s0,
                               range(start, min(start + chunk, n)))

        todo = iter(starts)
        pending = deque(map(submit, islice(todo, workers)))
        while pending:
            rows = pending.popleft().result()
            pending.extend(map(submit, islice(todo, 1)))
            if h is None:
                h = rows[0].copy()
            for lo in range(0, len(rows), BLOCK):
                fields = rows[lo:lo + BLOCK]
                d = fields - h
                q = np.abs(d) ** 2
                sum_g += np.sum(fields, axis=0)
                sum_d += np.sum(d, axis=0)
                sum_q += np.sum(q, axis=0)
                sum_dd_c += d.T @ np.conj(d)
                sum_dd += d.T @ d
                sum_qd += q.T @ d
                sum_qq += q.T @ q

    mean_d = sum_d / n
    mean_q = sum_q / n
    dd_c = sum_dd_c / n
    dd = sum_dd / n
    # Moments of y = g_i g_j* - h_i h_j* = h_i d_j* + d_i h_j* + d_i d_j*
    # and y' = g_i g_j - h_i h_j = h_i d_j + d_i h_j + d_i d_j.  E|y|^2 and
    # E|y'|^2 share |h_i|^2 E q_j + |h_j|^2 E q_i + E q_i q_j and the cross
    # terms 2 Re(h_j* E[q_i d_j]) + (i <-> j); they differ only in the
    # cross term of their two first-order parts.
    y_c = np.outer(h, np.conj(mean_d)) + np.outer(mean_d, np.conj(h)) + dd_c
    y_a = np.outer(h, mean_d) + np.outer(mean_d, h) + dd
    h_sq = np.abs(h) ** 2
    cross = np.real(np.conj(h)[None, :] * sum_qd / n)
    y2_shared = (np.outer(h_sq, mean_q) + np.outer(mean_q, h_sq)
                 + sum_qq / n + 2.0 * (cross + cross.T))
    y2_c = y2_shared + 2.0 * np.real(np.outer(h, h) * np.conj(dd))
    y2_a = y2_shared + 2.0 * np.real(np.outer(h, np.conj(h)) * dd_c.T)

    moment_c = np.outer(h, np.conj(h)) + y_c
    # Averaging with the conjugate transpose is exact in IEEE arithmetic:
    # the result is bitwise Hermitian with a real diagonal.
    moment_c = 0.5 * (moment_c + moment_c.conj().T)
    moment = np.outer(h, h) + y_a

    se_g = np.sqrt(np.maximum(mean_q - np.abs(mean_d) ** 2, 0.0) / n)
    se_c = np.sqrt(np.maximum(y2_c - np.abs(y_c) ** 2, 0.0) / n)
    se_a = np.sqrt(np.maximum(y2_a - np.abs(y_a) ** 2, 0.0) / n)

    return EnsembleStats(
        n_samples=n,
        grid=plan.grid,
        mean_field=(sum_g / n).reshape(plan.grid.shape),
        mean_field_se=se_g.reshape(plan.grid.shape),
        second_moment=moment_c,
        second_moment_se=se_c,
        anomalous=moment,
        anomalous_se=se_a,
        workers=workers,
    )
