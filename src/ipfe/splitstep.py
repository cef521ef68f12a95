"""Split-step Monte-Carlo oracle for classical angular spectra.

Each slab applies the symmetric (Strang) composition

    free_space(dz/2) . phase_screen . free_space(dz/2)

where the free-space half step multiplies the spectrum by
exp(i pi lambda (dz/2) |a|^2) and the screen is a position-domain
multiplication by exp(-i k n~_slab(x)).  Both factors are unitary on the
discrete norm.  Ensemble moments over independent screen sequences are the
empirical counterparts of the first- and second-order moment kernels.

One block engine propagates every realization: a ``(B, n^D)`` block of
spectra is carried through all slabs in DFT order (zero frequency first, as
numpy's FFT stores it), so a slab is two half-step multiplies, one screen
multiply and a batched FFT pair over the grid axes, with no shifts.  The
half-step phase and the screen lattice (variances and half-lattice
amplitude) are computed once per engine; the plan checked its guards when
it was built.
``propagate`` is the same engine run on a block of one realization.

The screen of realization r in slab s is the real field at address
(master_seed, s, r) of the stream contract in ``ipfe.phase_screen``, so it
is bit-identical to ``plan.slab_screen(r, s)`` whatever block it is drawn
in.  ``BLOCK`` is that contract's block, so each engine block of a slab is
exactly one Philox block.

``ensemble_moments`` propagates chunks of whole blocks, at most 2^14
field elements each (or one block, if that is larger), under the worker
contract of ``_run_chunks``: the calling thread propagates its share of
the chunks and a pool of one thread fewer than the workers the rest.  It
is the only code in ipfe that starts threads.  The numpy calls of a slab
release the GIL and run in parallel: with numpy 2.4.6 and CPython 3.11
on two cores, two threads made twice the calls in 1.0-1.3 times the
one-thread wall time for a chunk's Philox draws, ``sin`` and complex
multiplies, and 1.1-1.5 times for its FFT pairs, against 2.2 times for
pure Python.  The Python between the calls (the slab loop and the screen
draw's bookkeeping) runs one thread at a time.  Each thread draws its
screens from a Philox generator of its own (``ScreenLattice.generator``).

A chunk is propagated in buffers allocated once per chunk, not per slab:
the field block, which the FFTs write back into, the screen factor's
block, and the normals and coefficients of ``ScreenLattice.work``.  Each
slab draws its screens into the factor's real part, scales them to the
phase -phi, writes sin(-phi) to the imaginary part and then cos(-phi) in
place: exp(-i phi) with the complex ``exp``'s bits (checked with numpy
2.4 on glibc over every screen of the reference plan) in less time.  The
FFTs are ``fftn``'s and ``ifftn``'s own transforms, axis by axis in
their order.  At the end the factor's block takes the DC-centred output
rows, corner by corner, in place of ``fftshift``'s copy.

The calling thread also reduces each ``BLOCK``-row slice of a chunk with
``block_products`` and adds the block partials in index order, so the
moments are bit-reproducible, independent of the worker count, and differ
from a one-realization-at-a-time sum only by the rounding of the
reduction.  ``block_products`` forms the complex products D^T D*, D^T D
and Q^T D from real matrix products of the real and imaginary parts of
D, six real products in all with Q^T Q, and adds each to its sum's
``.real`` or ``.imag`` in place.  A
complex product of a block's size hands work to OpenBLAS's thread pool,
whose threads then spin for about 0.12 s of CPU after every call, on the
cores the workers need; the real products of a 64-site block (the 1-D
reference lattice) run on the calling thread and leave the pool idle,
and with OpenBLAS they round bit for bit as the complex ones do.  On
larger lattices (2-D n=16 has 256 sites) the real products are large
enough for BLAS to split them between its threads.  The moments are
finished in the sums' own buffers and one real (n^D)^2 array.
``ensemble_moments`` refuses, before allocating, a grid
whose (n^D)^2 moments it estimates above ``MAX_ENSEMBLE_BYTES``.

Bits.  Each buffer replaces an expression by the same operations in the
same order, so every output keeps the bits of the allocating code.  With
numpy 2.4.6 on glibc (x86-64 with AVX-512), these held:

- ``irfft``/``irfftn`` with ``out=`` a strided view, FFTs written back
  in place, and ``sin`` followed by an in-place ``cos`` on strided views
  give the bits of the allocating calls.
- Complex addition is componentwise, so adding the real and imaginary
  parts of a product to a sum's ``.real`` and ``.imag`` gives the bits of
  adding the complex product.
- numpy's complex multiply does not round a*b as b*a.  Where an
  expression's right operand is a temporary of at least 256 KiB and its
  left is not, numpy computes it in that temporary, so
  ``x * np.conj(y)`` is rounded as conj(y)*x there and as x*conj(y)
  below that size.  ``ensemble_moments`` finishes every product in its
  expression's operand order, none of which the elision reverses.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import FrequencyGrid, Spectrum, to_frequency, to_position
from .phase_screen import (BLOCK, ScreenLattice, ScreenRealization, as_u64,
                           phase_screen_position)
from .moments import _CHUNK_ELEMENTS, step_guard, step_guard_values
from .spectrum import TurbulenceModel

# Largest working set ensemble_moments may estimate for itself (bytes).  Per
# element of an (n^D)^2 moment it holds 56 B of accumulators (three complex,
# one real), three real products of a block while reducing it, and one
# real array while finishing the moments in the accumulators' buffers: the
# peak tracemalloc reports at 2-D n=32 is 84.5-85.7 B (about 85 MiB) under
# 1, 2 and 3 workers, which 120 B, four complex temporaries above the
# accumulators, bounds with 40% to spare.  The limit admits 2-D n=32 and
# refuses 2-D n=64 (1.9 GiB).
MAX_ENSEMBLE_BYTES = 2 ** 30
_ENSEMBLE_BYTES_PER_ELEMENT = 56 + 4 * 16


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
        if self.n_realizations < 2:
            raise ValueError("n_realizations must be >= 2")
        if self.z_total < 0.0:
            raise ValueError("z_total must be >= 0")
        as_u64(self.master_seed, "master_seed")
        self.check_guards()

    @property
    def dz(self) -> float:
        return self.z_total / self.n_slabs

    def guard_values(self) -> dict:
        """Per-slab sampling phase pi*lambda*dz*a_max^2 (bound pi/4) and
        weak-scattering number k^2*Lambda*dz (bound 0.1)."""
        return step_guard_values(self.grid, self.model, self.dz)

    def check_guards(self) -> None:
        """Per-slab sampling and weak-scattering guards (moments.step_guard,
        the bounds every kernel step meets too), checked when the plan is
        built, so every plan meets them."""
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
    return Spectrum(s.grid, s.values * s.grid.free_space_phase(dz))


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
        grid = plan.grid
        self.plan = plan
        # The grid axes in the order np.fft.fftn and ifftn transform them.
        # The engine calls those 1-D transforms itself: the n-D wrappers
        # leave a few small objects in numpy's and CPython's caches per
        # call, which tracemalloc counts, so the ensemble's peak would grow
        # with its chunk count.
        self.axes = tuple(range(grid.dim, 0, -1))
        self.half_step = np.fft.ifftshift(
            grid.free_space_phase(plan.dz / 2.0))
        self.screens = plan.screen_lattice if plan.z_total > 0.0 else None
        # The 2^D corners of the lattice as (DC-centred, DFT-order) index
        # pairs over a block: np.fft.fftshift moves each corner from its
        # DFT-order place to its centred one, and ifftshift back.
        halves = [((slice(n // 2), slice(n - n // 2, None)),
                   (slice(n // 2, None), slice(n - n // 2)))
                  for n in grid.shape]
        self.corners = [tuple((slice(None),) + part for part in zip(*corner))
                        for corner in itertools.product(*halves)]

    def run(self, s0: Spectrum, realizations: range) -> np.ndarray:
        """Output spectra of the given realizations, one flattened
        DC-centred row each."""
        plan, grid = self.plan, self.plan.grid
        fields = np.empty((len(realizations),) + grid.shape,
                          dtype=np.complex128)
        for centred, dft in self.corners:
            fields[dft] = s0.values[centred[1:]]
        # The screen factor's buffer, which takes the output rows at the end.
        screen = np.empty_like(fields)
        if self.screens is not None:
            start, stop = realizations.start, realizations.stop
            work = self.screens.work(start, stop)
            phi = screen.real
            for slab in range(plan.n_slabs):
                self.screens.draw(plan.master_seed, slab, start, stop, phi,
                                  work)
                phi *= -grid.wavenumber
                np.sin(phi, out=screen.imag)
                np.cos(phi, out=phi)
                fields *= self.half_step
                for axis in self.axes:
                    np.fft.fft(fields, axis=axis, out=fields)
                fields *= grid.cell
                fields *= screen
                for axis in self.axes:
                    np.fft.ifft(fields, axis=axis, out=fields)
                fields *= grid.delta_weight
                fields *= self.half_step
        for centred, dft in self.corners:
            screen[centred] = fields[dft]
        return screen.reshape(len(realizations), -1)


def propagate(s0: Spectrum, plan: PropagationPlan,
              realization_index: int) -> Spectrum:
    """One realization: Strang composition over all slabs."""
    row = _BlockEngine(plan).run(
        s0, range(realization_index, realization_index + 1))
    return Spectrum(plan.grid, row.reshape(plan.grid.shape))


def block_products(d: np.ndarray, q: np.ndarray,
                   sums: tuple[np.ndarray, ...]) -> None:
    """Add D^T D*, D^T D, Q^T D and Q^T Q of a complex block D and a real
    block Q, rows the samples, to the four arrays of sums in place, from
    real matrix products only.

    With R = Re D, I = Im D, RR = R^T R, II = I^T I and RI = R^T I:
    D^T D* = (RR + II) + i (RI^T - RI), D^T D = (RR - II) + i (RI + RI^T)
    and Q^T D = Q^T R + i Q^T I.  Each real part goes into its sum's
    ``.real`` or ``.imag``: complex addition is componentwise, so the sums
    have the bits of adding the complex products.  Three (n^D)^2 real
    arrays hold the products in turn.
    """
    dd_c, dd, qd, qq = sums
    dr = np.ascontiguousarray(d.real)
    di = np.ascontiguousarray(d.imag)
    rr = dr.T @ dr
    ii = di.T @ di
    part = rr + ii
    dd_c.real += part
    dd.real += np.subtract(rr, ii, out=rr)
    ri = np.matmul(dr.T, di, out=ii)
    dd_c.imag += np.subtract(ri.T, ri, out=part)
    dd.imag += np.add(ri, ri.T, out=rr)
    qd.real += np.matmul(q.T, dr, out=rr)
    qd.imag += np.matmul(q.T, di, out=rr)
    qq += np.matmul(q.T, q, out=rr)


@dataclass
class EnsembleStats:
    """Monte-Carlo moments with per-element standard errors.

    second_moment[i, j] estimates <G(a_i) G*(a_j)> over flattened lattice
    sites; it is bitwise Hermitian with a real diagonal.
    """

    n_samples: int
    grid: FrequencyGrid
    mean_field: np.ndarray = field(repr=False)
    mean_field_se: np.ndarray = field(repr=False)
    second_moment: np.ndarray = field(repr=False)
    second_moment_se: np.ndarray = field(repr=False)
    # Threads that propagated chunks of realizations, the calling thread
    # included (1: the calling thread alone).
    workers: int


def _cpu_count() -> int:
    """CPUs this process may run on: the worker threads of
    ensemble_moments."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_chunks(work, chunks, workers: int):
    """Yield work(chunk) for every chunk of the sequence chunks, in chunk
    order, on the calling thread: the worker contract of
    ensemble_moments, the only caller that starts threads.

    - Chunks hold whole units fixed by size, never by the thread count
      (64-row blocks, each reduced on its own), and a chunk is computed by
      the same operations whichever thread runs it, so results are
      bit-identical for any worker count.
    - One worker (always so for one chunk) runs the chunks inline and
      starts no thread.
    - Otherwise ``workers`` threads run them: the calling thread runs every
      ``workers``-th chunk from the first, in place of waiting, and a pool
      of ``workers - 1`` threads runs the others.  One chunk per pool
      thread is submitted before the calling thread starts its own, and at
      most one chunk per worker, the caller's included, is in flight (run
      or submitted and not yet taken), so memory stays bounded whatever
      the number of chunks.
    - A chunk's exception, on either side, is re-raised here once the
      pool's threads have ended; a consumer that stops early closes the
      generator, which ends them too.
    """
    if workers == 1:
        yield from map(work, chunks)
        return
    # Imported per call, not at module level: concurrent.futures loads
    # logging, 0.2 MB of resident memory that commands which never thread
    # need not pay.
    import concurrent.futures

    with concurrent.futures.ThreadPoolExecutor(workers - 1) as pool:
        # None marks a chunk of the calling thread's, run when it is due.
        def start(i):
            return None if i % workers == 0 else pool.submit(work, chunks[i])

        ahead = deque(map(start, range(min(workers, len(chunks)))))
        for i, chunk in enumerate(chunks):
            future = ahead.popleft()
            result = work(chunk) if future is None else future.result()
            if i + workers < len(chunks):
                ahead.append(start(i + workers))
            yield result


def ensemble_moments(s0: Spectrum, plan: PropagationPlan) -> EnsembleStats:
    """Accumulate first/second moments over plan.n_realizations runs.

    Sums are taken about a fixed shift h, the first realization's field:
    with D = F - h for a block F of BLOCK realizations (one flattened field
    per row) and Q = |D|^2, each block is reduced with D^T D*, D^T D,
    Q^T D and Q^T Q, and the block partials are added in index order, so
    the result is bit-reproducible.  The products come from
    ``block_products``, from real products only (the module docstring
    says why).  The shift keeps the variances behind
    the standard errors free of cancellation: an ensemble of identical
    realizations has standard errors of exactly zero.  D^T D enters only
    the second moment's standard error, through E|y|^2 below.

    Realizations are propagated in chunks of whole blocks
    (``_run_chunks`` states the worker contract).
    """
    size = plan.grid.n ** plan.grid.dim
    estimate = _ENSEMBLE_BYTES_PER_ELEMENT * size ** 2
    if estimate > MAX_ENSEMBLE_BYTES:
        raise ValueError(
            f"ensemble moments on {size} sites need about "
            f"{estimate / 2 ** 30:.1f} GiB, above the "
            f"{MAX_ENSEMBLE_BYTES / 2 ** 30:.0f} GiB limit")
    engine = _BlockEngine(plan)
    n = plan.n_realizations
    n_blocks = -(-n // BLOCK)
    workers = min(_cpu_count(), n_blocks)
    chunk = BLOCK * max(1, min(-(-n_blocks // workers),
                               _CHUNK_ELEMENTS // (BLOCK * size)))
    # The chunks by their first realization: a range, which holds no
    # per-chunk object whatever the realization count.
    starts = range(0, n, chunk)
    workers = min(workers, len(starts))

    def run(lo):
        return engine.run(s0, range(lo, min(lo + chunk, n)))

    sum_g = np.zeros(size, dtype=np.complex128)
    sum_d = np.zeros(size, dtype=np.complex128)
    sum_q = np.zeros(size)
    sums = (np.zeros((size, size), dtype=np.complex128),
            np.zeros((size, size), dtype=np.complex128),
            np.zeros((size, size), dtype=np.complex128),
            np.zeros((size, size)))
    h = None
    with closing(_run_chunks(run, starts, workers)) as results:
        for rows in results:
            if h is None:
                h = rows[0].copy()
            for lo in range(0, len(rows), BLOCK):
                fields = rows[lo:lo + BLOCK]
                d = fields - h
                q = np.abs(d) ** 2
                sum_g += np.sum(fields, axis=0)
                sum_d += np.sum(d, axis=0)
                sum_q += np.sum(q, axis=0)
                block_products(d, q, sums)
    # The last chunk's rows and block are not needed to finish.
    del rows, fields, d, q

    # The moments are finished in the buffers of sums and one real
    # (n^D)^2 array.  Each step keeps the bits of the expression in its
    # comment: every complex product in that expression's operand order,
    # every sum in its association.
    sum_dd_c, sum_dd, sum_qd, sum_qq = sums
    work = np.empty((size, size))
    mean_d = sum_d / n
    mean_q = sum_q / n
    h_sq = np.abs(h) ** 2
    # Moments of y = g_i g_j* - h_i h_j* = h_i d_j* + d_i h_j* + d_i d_j*:
    # E|y|^2 = |h_i|^2 E q_j + |h_j|^2 E q_i + E q_i q_j, the cross terms
    # 2 Re(h_j* E[q_i d_j]) + (i <-> j), and the cross term
    # 2 Re(h_i h_j E[d_i* d_j*]) of its two first-order parts:
    # y2_c = (np.outer(h_sq, mean_q) + np.outer(mean_q, h_sq) + sum_qq / n
    #         + 2.0 * (cross + cross.T)
    #         + 2.0 * np.real(np.outer(h, h) * np.conj(sum_dd / n)))
    # with cross = np.real(np.conj(h)[None, :] * sum_qd / n).
    cross = np.multiply(np.conj(h)[None, :], sum_qd, out=sum_qd)
    cross /= n
    cross = np.add(cross.real, cross.real.T, out=work)
    cross *= 2.0
    y2_c = sum_qq
    y2_c /= n
    np.add(np.add(np.outer(h_sq, mean_q, out=sum_qd.real),
                  np.outer(mean_q, h_sq, out=sum_qd.imag), out=sum_qd.real),
           y2_c, out=y2_c)
    y2_c += cross
    dd = sum_dd
    dd /= n
    np.multiply(np.outer(h, h, out=sum_qd), np.conjugate(dd, out=dd),
                out=dd)
    y2_c += np.multiply(dd.real, 2.0, out=work)
    # y_c = (np.outer(h, np.conj(mean_d)) + np.outer(mean_d, np.conj(h))
    #        + sum_dd_c / n)
    y_c = sum_dd_c
    y_c /= n
    np.add(np.add(np.outer(h, np.conj(mean_d), out=sum_qd),
                  np.outer(mean_d, np.conj(h), out=sum_dd), out=sum_qd),
           y_c, out=y_c)
    # se_c = np.sqrt(np.maximum(y2_c - np.abs(y_c) ** 2, 0.0) / n)
    se_c = y2_c
    se_c -= np.square(np.abs(y_c, out=work), out=work)
    np.maximum(se_c, 0.0, out=se_c)
    se_c /= n
    np.sqrt(se_c, out=se_c)
    # moment_c = np.outer(h, np.conj(h)) + y_c, then averaged with its
    # conjugate transpose, which is exact in IEEE arithmetic: the result
    # is bitwise Hermitian with a real diagonal.
    moment_c = y_c
    np.add(np.outer(h, np.conj(h), out=sum_dd), moment_c, out=moment_c)
    moment_c += np.conjugate(moment_c.T, out=sum_dd)
    moment_c *= 0.5

    se_g = np.sqrt(np.maximum(mean_q - np.abs(mean_d) ** 2, 0.0) / n)

    return EnsembleStats(
        n_samples=n,
        grid=plan.grid,
        mean_field=(sum_g / n).reshape(plan.grid.shape),
        mean_field_se=se_g.reshape(plan.grid.shape),
        second_moment=moment_c,
        second_moment_se=se_c,
        workers=workers,
    )
