"""Order-by-order moment-kernel equations and their exponential integrator.

The kernel H_{m,n} carries m bra indices (contracted with alpha*) followed
by n ket indices (contracted with alpha).  Its evolution is

    dH/dz = i pi lambda (sum_bra |a|^2 - sum_ket |a'|^2) H
            - (1/2) k^2 Lambda (m+n) H
            - (1/2) k^2 int [ m(m-1) H(a1+a0, a2-a0, ...)
                            + n(n-1) H(..., a1'+a0, a2'-a0, ...)
                            - 2 m n  H(a1+a0, ..., a1'+a0, ...) ]
                     Phi_n(a0, 0) d a0

with the drift applied per index (the kernels are symmetric within each
index group).  Discretely, the a0 integral is a circular shifted sum over
the grid's own frequency lattice and Lambda is the matching lattice sum,
so the delta-diagonal stationary point, trace conservation, and the
DFT-periodic split-step oracle all share one discrete realization exactly.
A boundary-mass monitor warns when the kernel carries weight at the lattice
edge, where the periodic wrap stops being a faithful stand-in for the
continuum integral.

Every pair term commutes with a joint lattice shift of +t on every bra
index and -t on every ket index, and the drift and Lambda terms are
site-local, so the total frequency K = sum_bra a - sum_ket a (mod n, per
grid axis, in lattice-index units) is conserved and H_{m,n} splits into n^D
independent sectors.  The sector layout drops the last index (the last ket
index, or the last bra index when n = 0), which K fixes: the kernel is held
as S[K, i_1 ... i_{m+n-1}], gathered once from the full tensor by one flat
index and scattered back once.  Within a sector every pair term is diagonal
in the DFT basis of the D(m+n-1) stored axes, with one multiplier shared by
every K (the full-tensor multiplier at the dropped index's DFT position 0),
so the whole right-hand side of any order and dimension is one operator,
KernelGenerator: a site-local factor times S plus that multiplier applied
between a forward and an inverse FFT over the stored axes.  h11_rhs,
hierarchy_rhs and biphoton_rhs are single evaluations of it; the roll-loop
pair sum in _accel is the oracle the tests hold it to.

evolve_kernel takes the split-step engine's Strang slab on the same two
parts, exp(dz/2 diag) . exp(dz mult) . exp(dz/2 diag).  Screens are
Gaussian and independent per slab, so exp(dz mult), with the Lambda decay,
is exactly one slab's expected screen factor: the kernel is the split-step
ensemble's expectation on the lattice, and differs from the z-ODE above
only by the O(dz^2) Strang error the ensemble shares.

Sectors never interact, so evolve_kernel runs chunks of whole sectors (at
most _CHUNK_ELEMENTS elements each, or one sector if that is larger)
through all steps under the worker contract of _run_chunks, the calling
thread evolving its share of them, with no synchronisation between
steps.  A kernel operation refuses, before allocating, a tensor whose
working set it estimates above MAX_KERNEL_BYTES.

The (n, n) kernels come from a real Wigner functional and are Hermitian,
and the equation commutes with the conjugate transpose (bra <-> ket),
which maps sector K to -K.  So under turbulence, evolve_kernel evolves an
(n, n) kernel whose sectors K != -K are bit for bit the conjugate
transposes of their partners (a bitwise Hermitian kernel, or an output of
this path) on the half K <= -K only, self-conjugate K included, and fills
the other sectors by conjugate transpose: 9 of 16 sectors for (2, 2) at
n = 16.  Its held sectors are the all-sector path's bits; the filled ones
agree with it to rounding.  Hermiticity then holds exactly outside the
self-conjugate sectors, so the residual evolve_kernel stores with its
output is computed over those alone.  Every other kernel (m != n, cn2 = 0,
or a kernel Hermitian only to rounding, as a complex source's
outer(s, conj(s)) read from a file) evolves every sector.

sector_order puts the half first, so the half is a prefix of the one
generator's sectors: evolve_kernel passes a sector count, and gathers,
exponentiates, evolves and scatters that prefix.  The output carries the
generator, so a chain of evolve_kernel calls on the same orders, grid and
model, as evolve-kernel runs its z-list span by span, builds it once.
Index pairs built once with it make the test for the half a comparison
of the unheld elements with their partners (about 0.25 ms per (2, 2)
n = 16 span, whether or not the kernel qualifies) and the fill a gather
of the partners.
"""

from __future__ import annotations

import os
import warnings
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from ._accel import pair_multiplier, shift_coefficients
from .grid import FrequencyGrid, Spectrum
from .spectrum import TurbulenceModel, lambda_grid, psd_lattice

BOUNDARY_MASS_TOLERANCE = 1e-6

# Elements (256 KiB complex) one worker thread holds at a time: a chunk of
# realization rows in splitstep.ensemble_moments, a chunk of whole sectors
# in evolve_kernel.  Chunks of 2^15 were as fast on the reference ensemble
# but left about 2 MB more resident after repeated runs, in the worker
# threads' malloc arenas.
_CHUNK_ELEMENTS = 2 ** 14

# Largest working set a kernel operation may estimate for itself (bytes).
# Per element of the full n^(D(m+n)) tensor, input included, tracemalloc
# reports a peak of 100-103 B for evolve_kernel on every sector (input,
# the generator's index, diag and index pairs, sector data, exp(dz/2
# diag), output and the output's diagnostics), 77-98 B on the Hermitian
# half, and 120 B for a right-hand-side evaluation, at (2, 2) n=16 and 32
# and at 2-D (1, 1) n=16 and 32.  The limit admits the (2, 2) kernel at
# n = 32 (128 MiB) and refuses it at n = 64 (2 GiB).
MAX_KERNEL_BYTES = 2 ** 30
_KERNEL_BYTES_PER_ELEMENT = 128


def _cpu_count() -> int:
    """CPUs this process may run on: the worker threads of the split-step
    ensemble and of evolve_kernel."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@dataclass
class MomentKernel:
    """Discretized H_{m,n}: a complex tensor with D*(m+n) lattice axes."""

    orders: tuple[int, int]
    grid: FrequencyGrid
    values: np.ndarray = field(repr=False)
    z: float = 0.0
    # Threads that ran chunks in the evolve_kernel call that produced the
    # values, the calling thread included (1: the calling thread alone); 0
    # for values no evolve_kernel produced.
    workers: int = 0
    # Sectors that evolve_kernel call evolved, and sectors it filled by
    # conjugate transpose (the Hermitian half); 0 for values no
    # evolve_kernel produced.
    sectors_evolved: int = 0
    sectors_filled: int = 0
    # Set by the evolve_kernel call that produced the values, and None on
    # every kernel constructed otherwise, copies included: the
    # KernelGenerator it used, which a later evolve_kernel of these values
    # under the same model reuses, and the values'
    # boundary_mass_fraction and, for m == n, hermiticity_residual.  They
    # describe the values as returned; changing those in place leaves
    # them stale.
    generator: KernelGenerator | None = field(init=False, default=None,
                                              repr=False, compare=False)
    boundary_mass: float | None = field(init=False, default=None,
                                        repr=False, compare=False)
    hermiticity: float | None = field(init=False, default=None, repr=False,
                                      compare=False)

    def __post_init__(self) -> None:
        m, n = self.orders
        if m < 0 or n < 0:
            raise ValueError("orders must be non-negative")
        self.values = np.asarray(self.values, dtype=np.complex128)
        expected = (self.grid.n,) * (self.grid.dim * (m + n))
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape}, expected {expected} "
                f"for orders {self.orders} on a {self.grid.dim}-D grid")

    @property
    def rank(self) -> int:
        return sum(self.orders)

    def conjugate_transpose(self) -> "MomentKernel":
        """H_{n,m} derived from H_{m,n} by conjugation and bra/ket swap."""
        m, n = self.orders
        return MomentKernel((n, m), self.grid,
                            _bra_ket_dual(self.values, m * self.grid.dim),
                            self.z)


def _bra_ket_dual(values: np.ndarray, bra_axes: int) -> np.ndarray:
    """The conjugate of values with its first bra_axes axes (the bra
    indices) moved behind the others (the ket indices): the bra <-> ket
    image of a full-layout tensor."""
    perm = list(range(bra_axes, values.ndim)) + list(range(bra_axes))
    return np.conjugate(np.transpose(values, perm))


def kernel_trace(kernel: MomentKernel) -> complex:
    """Full diagonal contraction of an (n, n) kernel with delta_a^(D*n);
    real to rounding for Hermitian input."""
    m, n = kernel.orders
    if m != n:
        raise ValueError("trace requires m == n")
    if m == 0:
        raise ValueError("trace undefined for the (0, 0) kernel")
    d = kernel.grid.dim
    # einsum subscript: each ket axis reuses its paired bra letter.
    letters = "abcdefghijkl"[: m * d]
    subscript = letters + letters + "->"
    value = np.einsum(subscript, kernel.values)
    return complex(value * kernel.grid.cell ** m)


def monitored_boundary_mass(kernel: MomentKernel,
                            model: TurbulenceModel) -> float:
    """The boundary-mass fraction evolve_kernel warns on: the one an
    output of evolve_kernel stores, or else boundary_mass_fraction.
    Without scattering the equation is site-local, so the periodic wrap is
    exact and the fraction is 0 whatever the edge weight."""
    if model.cn2 == 0.0:
        return 0.0
    if kernel.boundary_mass is None:
        return boundary_mass_fraction(kernel)
    return kernel.boundary_mass


def boundary_mass_fraction(kernel: MomentKernel) -> float:
    """|values| mass on the outermost lattice ring relative to the total."""
    total = float(np.sum(np.abs(kernel.values)))
    if total == 0.0:
        return 0.0
    n = kernel.grid.n
    interior = kernel.values
    sl = tuple(slice(1, n - 1) for _ in range(kernel.values.ndim))
    inner = float(np.sum(np.abs(interior[sl])))
    return (total - inner) / total


def _check_kernel_bytes(kernel: MomentKernel) -> None:
    """Refuse, before allocating, a kernel whose working set is estimated
    above MAX_KERNEL_BYTES."""
    estimate = _KERNEL_BYTES_PER_ELEMENT * kernel.values.size
    if estimate > MAX_KERNEL_BYTES:
        raise ValueError(
            f"order-{kernel.orders} kernel of {kernel.values.size} elements "
            f"needs about {estimate / 2 ** 30:.1f} GiB, above the "
            f"{MAX_KERNEL_BYTES / 2 ** 30:.0f} GiB limit")


def _sector_layout(kernel: MomentKernel,
                   ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat full-tensor position and drift factor sum_bra |a|^2 -
    sum_ket |a'|^2 of every sector-layout element S[k, i_1 ... i_{r-1}],
    r = m + n, where sector k has the total frequency K = ks[:, k] (D
    lattice-index components).  The stored indices are the element's own
    axes; the dropped last index is i_r = s_r (K - sum_{j<r} s_j i_j) mod n
    per grid axis, with s = +1 on bra and -1 on ket indices.  Both arrays
    have shape (S,) + (n,) * D(r-1); the (0, 0) kernel is one sector of one
    element."""
    m, n_ket = kernel.orders
    r = m + n_ket
    if r == 0:
        return np.zeros(1, dtype=np.intp), np.zeros(1)
    n, d = kernel.grid.n, kernel.grid.dim
    signs = [1] * m + [-1] * n_ket
    ndim = 1 + d * (r - 1)

    def along(axis):
        shape = [1] * ndim
        shape[axis] = n
        return np.arange(n, dtype=np.intp).reshape(shape)

    sites = [[along(1 + i * d + j) for j in range(d)] for i in range(r - 1)]
    k = ks.reshape((d, -1) + (1,) * (ndim - 1))
    sites.append([signs[-1] * (k[j] - sum(
        s * site[j] for s, site in zip(signs, sites))) % n for j in range(d)])
    flat = np.zeros((1,) * ndim, dtype=np.intp)
    for site in sites:
        for axis in site:
            flat = flat * n + axis
    # Summed in index order from 0, as over the full tensor: the same bits
    # at every element.
    asq = kernel.grid.freq_sq()
    drift = 0.0
    for s, site in zip(signs, sites):
        drift = drift + s * asq[tuple(site)]
    return flat, drift


def sector_order(grid: FrequencyGrid) -> tuple[np.ndarray, int, int]:
    """Every total frequency K of grid, as (D, n^D) lattice-index
    components in the sector order of KernelGenerator, and two counts.
    The self-conjugate K = -K (components 0 or n/2) come first, then
    K < -K, then K > -K, each group in flat order; the first count is the
    self-conjugate sectors, the second the Hermitian half K <= -K that
    they open (one of each conjugate pair K, -K and every self-conjugate
    K)."""
    n, d = grid.n, grid.dim
    ks = np.indices((n,) * d, dtype=np.intp).reshape(d, -1)
    flat = np.arange(n ** d)
    dual = np.zeros(1, dtype=np.intp)
    for k in -ks % n:
        dual = dual * n + k
    groups = (flat == dual, flat < dual, flat > dual)
    order = np.concatenate([np.flatnonzero(g) for g in groups])
    own = int(np.count_nonzero(groups[0]))
    return ks[:, order], own, own + int(np.count_nonzero(groups[1]))


@dataclass(frozen=True)
class KernelGenerator:
    """The order-(m, n) right-hand side on one grid and model, built once,
    acting on the kernel in sector layout (to_sectors):

        dS/dz = diag * S + ifftn(mult * fftn(S))

    with both FFTs over the D(m+n-1) stored index axes of S[K, ...].  diag
    is the site-local factor i pi lambda (sum_bra |a|^2 - sum_ket |a'|^2) -
    (1/2) k^2 Lambda (m+n), gathered into sector layout.  mult is the
    Fourier multiplier of all pair sums, k^2 delta_a^D sum_pairs (+/-)
    c[(p_i +/- p_j) mod n] with the dropped index at p = 0: same-group
    pairs shift oppositely and enter with -, bra-ket pairs co-move and
    enter with +.  It has n^(D(m+n-1)) entries and serves every sector.
    mult is None when nothing scatters (cn2 = 0, or fewer than two
    indices).

    The sectors are in sector_order: the first own are self-conjugate,
    and the first held are the Hermitian half of an (n, n) kernel (9 of
    16 for (2, 2) at n = 16, 34 of 64 for 2-D (1, 1) at n = 8).
    to_sectors gathers a prefix of them; from_sectors, given the half,
    fills every other sector K by the conjugate transpose (bra <-> ket)
    of its partner -K, which the evolution of a Hermitian kernel commutes
    with.

    A generator keeps what depends only on its orders, grid and model,
    computed on the calling thread when first needed: the index pairs of
    the half, and exp(dz/2 diag) and exp(dz mult) for the last dz and
    sector count evolved.
    """

    index: np.ndarray = field(repr=False)
    diag: np.ndarray = field(repr=False)
    mult: np.ndarray | None = field(repr=False)
    orders: tuple[int, int]
    grid: FrequencyGrid
    model: TurbulenceModel
    own: int
    held: int
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @classmethod
    def build(cls, kernel: MomentKernel,
              model: TurbulenceModel) -> "KernelGenerator":
        m, n = kernel.orders
        if m + n > 4:
            raise ValueError(
                "kernel order m+n > 4 exceeds the desk-scale bound")
        if m + n >= 3 and kernel.grid.dim != 1:
            raise ValueError(
                "rank >= 3 kernels are supported on 1-D grids only")
        _check_kernel_bytes(kernel)
        grid = kernel.grid
        k = grid.wavenumber
        ks, own, held = sector_order(grid)
        index, drift = _sector_layout(kernel, ks)
        diag = (1j * np.pi * grid.wavelength * drift
                - 0.5 * k ** 2 * lambda_grid(model, grid) * (m + n))
        phi = psd_lattice(model, grid)
        pairs = list(combinations(range(m + n), 2))
        if not pairs or not np.any(phi):
            return cls(index, diag, None, kernel.orders, grid, model, own,
                       held)
        # Pair sums run over every distinct index pair: the pairings are
        # distinct tensors even for symmetric kernels, so no multiplicity
        # shortcut applies.  Index i < m+n-1 sits on stored axes
        # [i*D, (i+1)*D); the dropped last index has no axis.
        d = grid.dim
        axes = [list(range(i * d, (i + 1) * d)) for i in range(m + n - 1)]
        axes.append(None)
        c = shift_coefficients(phi)
        mult = np.zeros(index.shape[1:], dtype=np.complex128)
        for i, j in pairs:
            sign = -1 if (i < m) == (j < m) else 1
            mult += sign * pair_multiplier(c, mult.ndim, axes[i], axes[j],
                                           sign)
        mult *= k ** 2 * grid.cell
        return cls(index, diag, mult, kernel.orders, grid, model, own, held)

    def built_for(self, kernel: MomentKernel,
                  model: TurbulenceModel) -> bool:
        """Whether this generator serves kernel under model: the same
        orders, grid and model it was built for."""
        return ((self.orders, self.grid, self.model)
                == (kernel.orders, kernel.grid, model))

    def index_pairs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The flat full-layout index pairs of an (n, n) kernel, built on
        first use and kept: every element of a sector outside the half
        with its bra <-> ket partner, which is held, and every element of
        a self-conjugate sector with its partner."""
        pairs = self._cache.get("pairs")
        if pairs is None:
            # A flat position is bra * block + ket, and its bra <-> ket
            # image ket * block + bra.
            block = self.grid.n ** (self.grid.dim * self.orders[0])

            def partners(flat):
                return flat, flat % block * block + flat // block

            pairs = self._cache["pairs"] = (
                partners(self.index[self.held:].reshape(-1)),
                partners(self.index[:self.own].reshape(-1)))
        return pairs

    def holds_half(self, values: np.ndarray) -> bool:
        """Whether the half of the (n, n) kernel values, with the fill of
        from_sectors, reproduces values bit for bit: every unheld element
        equal (==) to the conjugate of its bra <-> ket partner, and no NaN
        in a self-conjugate sector (which is evolved, never filled).  That
        is the comparison of the whole kernel with its fill: a held element
        of a sector K != -K compares with its unheld partner as that
        partner compares with it.  It holds for every bitwise Hermitian
        kernel, and for every output of the half, whose self-conjugate
        sectors are Hermitian only to rounding."""
        (unheld, partner), (own, _) = self.index_pairs()
        flat = values.reshape(-1)
        return bool(np.all(flat[unheld] == np.conjugate(flat[partner]))
                    and not np.any(np.isnan(flat[own])))

    @property
    def shape(self) -> tuple[int, ...]:
        """The full-layout shape of the kernel."""
        grid = self.grid
        return (grid.n,) * (grid.dim * sum(self.orders))

    @property
    def axes(self) -> tuple[int, ...]:
        """The stored index axes of a sector-layout array."""
        return tuple(range(1, self.index.ndim))

    def to_sectors(self, values: np.ndarray,
                   count: int | None = None) -> np.ndarray:
        """A full-layout tensor gathered into sector layout: its first
        count sectors (held for the half), or every sector."""
        return values.reshape(-1)[self.index[:count]]

    def from_sectors(self, sectors: np.ndarray) -> np.ndarray:
        """A sector-layout array of every sector, or of the half of an
        (n, n) kernel, scattered back into the full tensor, the sectors
        outside the half filled by conjugate transpose."""
        out = np.empty(self.shape, dtype=np.complex128)
        flat = out.reshape(-1)
        flat[self.index[:len(sectors)]] = sectors
        if len(sectors) < len(self.index):
            # Every unheld element is the conjugate of its held partner,
            # gathered _CHUNK_ELEMENTS at a time: the only temporary.
            unheld, partner = self.index_pairs()[0]
            for lo in range(0, len(unheld), _CHUNK_ELEMENTS):
                part = slice(lo, lo + _CHUNK_ELEMENTS)
                filled = flat[partner[part]]
                flat[unheld[part]] = np.conjugate(filled, out=filled)
        return out

    def hermiticity_residual(self, values: np.ndarray) -> float | None:
        """hermiticity_residual of values that from_sectors filled from the
        half, from the self-conjugate sectors alone: the fill makes every
        other element's difference exactly 0.  None if the values are not
        all finite (inf - inf is NaN in a filled pair)."""
        scale = float(np.max(np.abs(values)))
        if not np.isfinite(scale):
            return None
        if scale == 0.0:
            return 0.0
        own, partner = self.index_pairs()[1]
        flat = values.reshape(-1)
        return float(np.max(np.abs(flat[own] - np.conjugate(flat[partner])))
                     / scale)

    def __call__(self, sectors: np.ndarray) -> np.ndarray:
        out = self.diag * sectors
        if self.mult is not None:
            out += np.fft.ifftn(
                self.mult * np.fft.fftn(sectors, axes=self.axes),
                axes=self.axes)
        return out

    def _exponentials(self, dz: float,
                      count: int) -> tuple[np.ndarray, np.ndarray]:
        """exp(dz/2 diag) of the first count sectors and exp(dz mult),
        kept for the last dz and count; dz is matched by its bits: 0.0 ==
        -0.0, but the exponentials of the two differ in the signs of
        zeros."""
        key = (float(dz).hex(), count)
        cached = self._cache.get("exp")
        if cached is None or cached[0] != key:
            cached = self._cache["exp"] = (
                key, np.exp(0.5 * dz * self.diag[:count]),
                np.exp(dz * self.mult))
        return cached[1], cached[2]

    def evolve(self, sectors: np.ndarray, dz: float, n_steps: int) -> int:
        """n_steps Strang slabs S <- half * ifftn(exp(dz mult) * fftn(half
        * S)), half = exp(dz/2 diag), applied in place to sectors, the
        first len(sectors) of this generator, chunk by chunk of whole
        sectors (_run_chunks).  Returns the number of
        threads that ran chunks, the calling thread included: 1 for the
        calling thread alone."""
        half, step = self._exponentials(dz, len(sectors))
        # fftn and ifftn are these 1-D transforms, last axis first; called
        # directly, they skip fftn's argument handling on every step.
        axes = self.axes[::-1]
        per = max(1, _CHUNK_ELEMENTS // step.size)
        chunks = [slice(lo, lo + per) for lo in range(0, len(sectors), per)]
        workers = min(_cpu_count(), len(chunks))

        # Runs on worker threads: numpy only, in place on the caller's
        # arrays.
        def run(chunk):
            v, h = sectors[chunk], half[chunk]
            for _ in range(n_steps):
                v *= h
                for axis in axes:
                    np.fft.fft(v, axis=axis, out=v)
                v *= step
                for axis in axes:
                    np.fft.ifft(v, axis=axis, out=v)
                v *= h

        for _ in _run_chunks(run, chunks, workers):
            pass
        return workers


def _run_chunks(work, chunks, workers: int):
    """Yield work(chunk) for every chunk of the sequence chunks, in chunk
    order, on the calling thread: the worker contract of the split-step
    ensemble and evolve_kernel.

    - Chunks hold whole units fixed by size, never by the thread count
      (64-row blocks, each reduced on its own; sectors), and a chunk is
      computed by the same operations whichever thread runs it, so results
      are bit-identical for any worker count.
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


def hierarchy_rhs(kernel: MomentKernel, model: TurbulenceModel) -> MomentKernel:
    """Right-hand side of the order-(m, n) equation, any m + n <= 4."""
    gen = KernelGenerator.build(kernel, model)
    values = gen.from_sectors(gen(gen.to_sectors(kernel.values)))
    return MomentKernel(kernel.orders, kernel.grid, values, kernel.z)


def h11_rhs(kernel: MomentKernel, model: TurbulenceModel) -> MomentKernel:
    """Right-hand side of the single-photon (mutual-coherence) equation."""
    if kernel.orders != (1, 1):
        raise ValueError(f"h11_rhs needs orders (1, 1), got {kernel.orders}")
    return hierarchy_rhs(kernel, model)


def _check_biphoton(kernel: MomentKernel) -> None:
    """Bounds of the (2, 2) kernel: a 1-D grid, the kernel byte bound, and
    exchange symmetry within the bra pair and within the ket pair."""
    if kernel.grid.dim != 1:
        raise ValueError("bi-photon kernel is supported on 1-D grids only")
    _check_kernel_bytes(kernel)
    v = kernel.values
    scale = np.max(np.abs(v))
    if scale > 0:
        asym = max(np.max(np.abs(v - v.transpose(1, 0, 2, 3))),
                   np.max(np.abs(v - v.transpose(0, 1, 3, 2))))
        if asym > 1e-8 * scale:
            raise ValueError("bi-photon kernel lacks exchange symmetry")


def biphoton_rhs(kernel: MomentKernel, model: TurbulenceModel) -> MomentKernel:
    """Bi-photon equation (2, 2), bra axes (0, 1) and ket axes (2, 3)."""
    if kernel.orders != (2, 2):
        raise ValueError("biphoton_rhs needs orders (2, 2)")
    _check_biphoton(kernel)
    return hierarchy_rhs(kernel, model)


def evolve_h10(b10: Spectrum, model: TurbulenceModel, z: float) -> Spectrum:
    """Closed-form first-moment kernel H_{1,0}(a, z).

    Uses the lattice-sum Lambda of the grid, so the decay rate is the one
    the discrete (1, 0) equation and the split-step ensemble mean realize
    exactly; it converges to the continuum Lambda with grid refinement.
    """
    grid = b10.grid
    lam = lambda_grid(model, grid)
    phase = np.exp(1j * np.pi * grid.wavelength * z * grid.freq_sq())
    decay = np.exp(-0.5 * grid.wavenumber ** 2 * lam * z)
    return Spectrum(grid, b10.values * phase * decay)


def step_guard_values(grid: FrequencyGrid, model: TurbulenceModel,
                      dz: float) -> dict:
    """Per-step sampling phase pi*lambda*dz*a_max^2 and weak-scattering
    number k^2*Lambda*dz of a step dz on grid.  step_guard holds them to
    one bound set, for a split-step slab and a kernel step alike."""
    a_max_sq = float(np.max(grid.freq_sq()))
    return {
        "sampling": np.pi * grid.wavelength * dz * a_max_sq,
        "weak_scattering": (grid.wavenumber ** 2 * lambda_grid(model, grid)
                            * dz),
    }


def step_guard(grid: FrequencyGrid, model: TurbulenceModel, dz: float) -> None:
    """Refuse a step whose sampling phase reaches pi/4 or whose
    weak-scattering number reaches 0.1."""
    guards = step_guard_values(grid, model, dz)
    if guards["sampling"] >= np.pi / 4.0:
        raise ValueError(
            f"sampling guard violated: pi*lambda*dz*a_max^2 = "
            f"{guards['sampling']:.3e} >= pi/4")
    if guards["weak_scattering"] >= 0.1:
        raise ValueError(
            f"weak-scattering guard violated: k^2*Lambda*dz = "
            f"{guards['weak_scattering']:.3e} >= 0.1")


def evolve_kernel(kernel: MomentKernel, model: TurbulenceModel,
                  z_total: float, n_steps: int) -> MomentKernel:
    """n_steps Strang slabs of the kernel's generator, sector by sector
    (KernelGenerator.evolve): the expectation of the split-step ensemble
    over the same slabs (a single multiply by exp(z diag) when nothing
    scatters).  A (2, 2) kernel must meet the bounds biphoton_rhs
    enforces.

    The generator is the one kernel carries (an output of this function)
    if it was built for the same orders, grid and model, and is built
    otherwise; the output carries it, so a chain of spans builds it once.
    An (n, n) kernel under turbulence that its own conjugate-transpose
    fill reproduces bit for bit (holds_half) evolves only the Hermitian
    half of its sectors, the generator's first held (module docstring);
    any other kernel evolves every sector.  The output records both
    counts, its boundary-mass fraction and, for m == n, its Hermiticity
    residual."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if kernel.orders == (2, 2):
        _check_biphoton(kernel)
    dz = z_total / n_steps
    if z_total > 0.0:
        step_guard(kernel.grid, model, dz)
    m, n = kernel.orders
    gen = kernel.generator
    if gen is None or not gen.built_for(kernel, model):
        gen = KernelGenerator.build(kernel, model)
    count = len(gen.index)
    if m == n and gen.mult is not None and gen.holds_half(kernel.values):
        count = gen.held
    sectors = gen.to_sectors(kernel.values, count)
    if gen.mult is None:
        # exp(z diag) stays the left operand: numpy's complex multiply
        # need not round a * b as b * a.
        sectors = np.exp(z_total * gen.diag) * sectors
        workers = 1
    else:
        workers = gen.evolve(sectors, dz, n_steps)
    values = gen.from_sectors(sectors)
    # Freed before the diagnostics, which hold temporaries of their own.
    del sectors
    out = MomentKernel(kernel.orders, kernel.grid, values, kernel.z + z_total,
                       workers, count, len(gen.index) - count)
    out.generator = gen
    out.boundary_mass = boundary_mass_fraction(out)
    if m == n:
        if out.sectors_filled:
            out.hermiticity = gen.hermiticity_residual(out.values)
        if out.hermiticity is None:
            out.hermiticity = hermiticity_residual(out)
    frac = monitored_boundary_mass(out, model)
    if frac > BOUNDARY_MASS_TOLERANCE:
        warnings.warn(
            f"kernel boundary mass fraction {frac:.2e} exceeds "
            f"{BOUNDARY_MASS_TOLERANCE:.0e}; the periodic lattice no longer "
            "approximates the open-domain integral well", stacklevel=2)
    return out


def evolve_h11(h0: MomentKernel, model: TurbulenceModel, z_total: float,
               n_steps: int) -> MomentKernel:
    if h0.orders != (1, 1):
        raise ValueError("evolve_h11 needs orders (1, 1)")
    return evolve_kernel(h0, model, z_total, n_steps)


def hermiticity_residual(kernel: MomentKernel) -> float:
    """max |H - conj-transpose(H)| relative to max |H| (m == n only)."""
    if kernel.orders[0] != kernel.orders[1]:
        raise ValueError("Hermiticity defined for m == n kernels")
    values = kernel.values
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return 0.0
    # H - conj-transpose(H), written over the conjugate transpose.
    dual = _bra_ket_dual(values, values.ndim // 2)
    return float(np.max(np.abs(np.subtract(values, dual, out=dual)))
                 / scale)
