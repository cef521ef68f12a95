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
through all steps, one chunk after another, so each stays in cache.  It
starts no thread (only the split-step ensemble, in ipfe.splitstep, does):
at the sizes the commands and checks run, up to (2, 2) at n = 16, worker
threads gave the sweep no time and held resident memory.  Larger kernels
pay for it, since numpy's FFTs release the GIL: two threads evolved the
(2, 2) n = 32 half 1.47 times and the 2-D (1, 1) n = 32 half 1.79 times
as fast (BENCH_kernel_serial.json).  A kernel operation refuses, before
allocating, a tensor whose working set it estimates above
MAX_KERNEL_BYTES.

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
The test for the half compares the unheld elements with their bra <->
ket partners, and the fill gathers the partners; both derive the
partners from the generator's index _CHUNK_ELEMENTS at a time, so no
index array beyond the index itself is kept or built whole.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from ._accel import pair_multiplier, shift_coefficients
from .grid import FrequencyGrid, Spectrum
from .spectrum import TurbulenceModel, lambda_grid, psd_lattice

BOUNDARY_MASS_TOLERANCE = 1e-6

# Elements (256 KiB complex) of one chunk: of realization rows, which a
# worker thread of splitstep.ensemble_moments (the only code that starts
# threads) propagates at a time; of whole sectors, which evolve_kernel
# carries through all its steps on the calling thread while it stays in
# cache; and of the index slices the half's test, fill and residual read.
# Chunks of 2^15 were as fast on the reference ensemble but left about
# 2 MB more resident after repeated runs, in the worker threads' malloc
# arenas.
_CHUNK_ELEMENTS = 2 ** 14

# Largest working set a kernel operation may estimate for itself (bytes).
# Per element of the full n^(D(m+n)) tensor, input included, tracemalloc
# reports a peak of 80-83 B for evolve_kernel on every sector (input, the
# generator's index, sector data, exp(dz/2 diag), output and the output's
# diagnostics), 57-69 B on the Hermitian half, and 104-106 B for a
# right-hand-side evaluation (hierarchy_rhs, with diag built whole), at
# (2, 2) n=16 and 32 and at 2-D (1, 1) n=16 and 32.  The limit admits the
# (2, 2) kernel at n = 32 (128 MiB) and refuses it at n = 64 (2 GiB).
MAX_KERNEL_BYTES = 2 ** 30
_KERNEL_BYTES_PER_ELEMENT = 128


@dataclass
class MomentKernel:
    """Discretized H_{m,n}: a complex tensor with D*(m+n) lattice axes."""

    orders: tuple[int, int]
    grid: FrequencyGrid
    values: np.ndarray = field(repr=False)
    z: float = 0.0
    # The run record: set by evolve_kernel alone, on the kernel it returns,
    # and the defaults on every other kernel (no constructor takes it, and
    # dataclasses.replace resets it).  The sectors evolved and those filled
    # by conjugate transpose; the KernelGenerator, which a later evolve_kernel
    # of these values under the same model reuses; the values'
    # boundary_mass_fraction and, for m == n, hermiticity_residual, read by
    # kernel_diagnostics.  Changing the values in place leaves it stale, and
    # evolve_kernel does not check the exchange symmetry of a kernel that
    # carries a generator: a (2, 2) output edited in place out of it is
    # not refused.
    sectors_evolved: int = field(init=False, default=0)
    sectors_filled: int = field(init=False, default=0)
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


def _bra_ket_dual(values: np.ndarray, bra_axes: int) -> np.ndarray:
    """The conjugate of values with its first bra_axes axes (the bra
    indices) moved behind the others (the ket indices): the bra <-> ket
    image of a full-layout tensor, an array also for the 0-d (0, 0)
    kernel (where the ufunc returns a scalar)."""
    perm = list(range(bra_axes, values.ndim)) + list(range(bra_axes))
    return np.asarray(np.conjugate(np.transpose(values, perm)))


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


def kernel_diagnostics(kernel: MomentKernel) -> tuple[float | None, float]:
    """The Hermiticity residual (None unless m == n) and boundary-mass
    fraction of kernel: its run record's, or else computed."""
    if kernel.boundary_mass is not None:
        return kernel.hermiticity, kernel.boundary_mass
    m, n = kernel.orders
    return (hermiticity_residual(kernel) if m == n else None,
            boundary_mass_fraction(kernel))


def monitored_boundary_mass(kernel: MomentKernel,
                            model: TurbulenceModel) -> float:
    """The boundary-mass fraction evolve_kernel warns on, kernel_diagnostics'
    or, without scattering, 0: the equation is then site-local, so the
    periodic wrap is exact whatever the edge weight."""
    if model.cn2 == 0.0:
        return 0.0
    return kernel_diagnostics(kernel)[1]


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


class KernelInputError(ValueError):
    """A kernel refused by the input guards of the kernel operations: the
    order, dimension and byte bounds and, for (2, 2), exchange symmetry."""


def _check_bounds(kernel: MomentKernel) -> None:
    """The order and dimension bounds of any kernel operation, and the
    refusal, before allocating, of a kernel whose working set is estimated
    above MAX_KERNEL_BYTES."""
    m, n = kernel.orders
    if m + n > 4:
        raise KernelInputError(
            "kernel order m+n > 4 exceeds the desk-scale bound")
    if m + n >= 3 and kernel.grid.dim != 1:
        raise KernelInputError(
            "rank >= 3 kernels are supported on 1-D grids only")
    estimate = _KERNEL_BYTES_PER_ELEMENT * kernel.values.size
    if estimate > MAX_KERNEL_BYTES:
        raise KernelInputError(
            f"order-{kernel.orders} kernel of {kernel.values.size} elements "
            f"needs about {estimate / 2 ** 30:.1f} GiB, above the "
            f"{MAX_KERNEL_BYTES / 2 ** 30:.0f} GiB limit")


def _sector_sites(orders: tuple[int, int], grid: FrequencyGrid,
                  ks: np.ndarray) -> list[list[np.ndarray]]:
    """The lattice site of every index of every sector-layout element S[k,
    i_1 ... i_{r-1}], r = m + n, where sector k has the total frequency K =
    ks[:, k] (D lattice-index components): per index, in index order, one
    array per grid axis, each broadcastable to the layout's shape (S,) +
    (n,) * D(r-1).  The stored indices are the element's own axes; the
    dropped last index is i_r = s_r (K - sum_{j<r} s_j i_j) mod n per grid
    axis, with s = +1 on bra and -1 on ket indices.  The (0, 0) kernel has
    no index."""
    m, n_ket = orders
    r = m + n_ket
    if r == 0:
        return []
    n, d = grid.n, grid.dim
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
    return sites


def _sector_index(kernel: MomentKernel, ks: np.ndarray) -> np.ndarray:
    """Flat full-tensor position of every sector-layout element of kernel,
    sector k with the total frequency ks[:, k]: its _sector_sites in
    row-major order.  The shape is (S,) + (n,) * D(r-1); the (0, 0) kernel
    is one sector of one element."""
    n = kernel.grid.n
    flat = np.zeros(1, dtype=np.intp)
    for site in _sector_sites(kernel.orders, kernel.grid, ks):
        for axis in site:
            flat = flat * n + axis
    return flat


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
    (1/2) k^2 Lambda (m+n) of each element.  mult is the Fourier
    multiplier of all pair sums, k^2 delta_a^D sum_pairs (+/-) c[(p_i +/-
    p_j) mod n] with the dropped index at p = 0: same-group pairs shift
    oppositely and enter with -, bra-ket pairs co-move and enter with +.
    It has n^(D(m+n-1)) entries and serves every sector.  mult is None
    when nothing scatters (cn2 = 0, or fewer than two indices).

    The sectors are in sector_order: the first own are self-conjugate,
    and the first held are the Hermitian half of an (n, n) kernel (9 of
    16 for (2, 2) at n = 16, 34 of 64 for 2-D (1, 1) at n = 8).
    to_sectors gathers a prefix of them; from_sectors, given the half,
    fills every other sector K by the conjugate transpose (bra <-> ket)
    of its partner -K, which the evolution of a Hermitian kernel commutes
    with.

    A generator keeps only what the sweep reads: the index, mult, the
    scalar decay (minus the real part of diag) and, built when first
    needed, exp(dz/2 diag) and exp(dz mult) for the last dz and sector
    count evolved.  diag recomputes the site-local factor when needed from
    the lattice sites the index is folded from (_sector_sites), a chunk of
    whole sectors at a time, and partners the bra <-> ket partners from
    the index, a _CHUNK_ELEMENTS slice at a time, so neither is kept.
    """

    index: np.ndarray = field(repr=False)
    mult: np.ndarray | None = field(repr=False)
    orders: tuple[int, int]
    grid: FrequencyGrid
    model: TurbulenceModel
    own: int
    held: int
    # (1/2) k^2 Lambda (m+n), minus the real part of diag.
    decay: float
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @classmethod
    def build(cls, kernel: MomentKernel,
              model: TurbulenceModel) -> "KernelGenerator":
        m, n = kernel.orders
        _check_bounds(kernel)
        grid = kernel.grid
        k = grid.wavenumber
        ks, own, held = sector_order(grid)
        index = _sector_index(kernel, ks)
        decay = 0.5 * k ** 2 * lambda_grid(model, grid) * (m + n)
        phi = psd_lattice(model, grid)
        pairs = list(combinations(range(m + n), 2))
        if not pairs or not np.any(phi):
            return cls(index, None, kernel.orders, grid, model, own, held,
                       decay)
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
        return cls(index, mult, kernel.orders, grid, model, own, held, decay)

    def built_for(self, kernel: MomentKernel,
                  model: TurbulenceModel) -> bool:
        """Whether this generator serves kernel under model: the same
        orders, grid and model it was built for."""
        return ((self.orders, self.grid, self.model)
                == (kernel.orders, kernel.grid, model))

    def partners(self, flat: np.ndarray) -> np.ndarray:
        """The bra <-> ket images of the flat full-layout positions flat of
        an (n, n) kernel: the partner of an element outside the half is
        held, and a self-conjugate sector's elements pair among
        themselves."""
        # A flat position is bra * block + ket, and its image ket * block
        # + bra.
        block = self.grid.n ** (self.grid.dim * self.orders[0])
        return flat % block * block + flat // block

    def _positions(self, sectors: slice):
        """The flat full-layout positions of the given sectors, as views of
        _CHUNK_ELEMENTS at a time: what the half's test, fill and residual
        derive partners from."""
        flat = self.index[sectors].reshape(-1)
        for lo in range(0, len(flat), _CHUNK_ELEMENTS):
            yield flat[lo:lo + _CHUNK_ELEMENTS]

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
        flat = values.reshape(-1)
        for unheld in self._positions(slice(self.held, None)):
            partner = self.partners(unheld)
            if not np.all(flat[unheld] == np.conjugate(flat[partner])):
                return False
        return not any(np.any(np.isnan(flat[own]))
                       for own in self._positions(slice(self.own)))

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
        # Every unheld element is the conjugate of its held partner.
        for unheld in self._positions(slice(len(sectors), None)):
            filled = flat[self.partners(unheld)]
            flat[unheld] = np.conjugate(filled, out=filled)
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
        flat = values.reshape(-1)
        return float(max(
            np.max(np.abs(flat[own] - np.conjugate(flat[self.partners(own)])))
            for own in self._positions(slice(self.own))) / scale)

    def diag(self, count: int | None = None) -> np.ndarray:
        """The site-local factor i pi lambda (sum_bra |a|^2 - sum_ket
        |a'|^2) - (1/2) k^2 Lambda (m+n) of the first count sectors (every
        sector by default), in sector layout: computed from the lattice
        sites the index is folded from (_sector_sites), a chunk of whole
        sectors at a time: at most _CHUNK_ELEMENTS elements, or one
        sector if that is larger."""
        grid = self.grid
        m, n_ket = self.orders
        asq = grid.freq_sq()
        out = np.empty(self.index[:count].shape, dtype=np.complex128)
        ks = sector_order(grid)[0][:, :len(out)]
        per = max(1, _CHUNK_ELEMENTS // self.index[0].size)
        for lo in range(0, len(out), per):
            chunk = out[lo:lo + per]
            sites = _sector_sites(self.orders, grid, ks[:, lo:lo + per])
            # Summed in index order from 0: the same bits at every element.
            drift = np.zeros(chunk.shape)
            for s, site in zip([1] * m + [-1] * n_ket, sites):
                drift += s * asq[tuple(site)]
            np.multiply(1j * np.pi * grid.wavelength, drift, out=chunk)
            chunk -= self.decay
        return out

    def __call__(self, sectors: np.ndarray) -> np.ndarray:
        out = self.diag(len(sectors)) * sectors
        if self.mult is not None:
            out += np.fft.ifftn(
                self.mult * np.fft.fftn(sectors, axes=self.axes),
                axes=self.axes)
        return out

    def _exp_diag(self, z: float, count: int | None = None) -> np.ndarray:
        """exp(z diag) of the first count sectors (every sector by
        default), computed in place in diag's array."""
        factor = self.diag(count)
        np.multiply(z, factor, out=factor)
        return np.exp(factor, out=factor)

    def _exponentials(self, dz: float,
                      count: int) -> tuple[np.ndarray, np.ndarray]:
        """exp(dz/2 diag) of the first count sectors and exp(dz mult),
        kept for the last dz and count; dz is matched by its bits: 0.0 ==
        -0.0, but the exponentials of the two differ in the signs of
        zeros."""
        key = (float(dz).hex(), count)
        cached = self._cache.get("exp")
        if cached is None or cached[0] != key:
            cached = self._cache["exp"] = (key,
                                           self._exp_diag(0.5 * dz, count),
                                           np.exp(dz * self.mult))
        return cached[1], cached[2]

    def evolve(self, sectors: np.ndarray, dz: float, n_steps: int) -> None:
        """n_steps Strang slabs S <- half * ifftn(exp(dz mult) * fftn(half
        * S)), half = exp(dz/2 diag), applied in place to sectors, the
        first len(sectors) of this generator, on the calling thread: chunk
        by chunk of whole sectors, at most _CHUNK_ELEMENTS elements each
        (or one sector if that is larger), each through all its steps."""
        half, step = self._exponentials(dz, len(sectors))
        # fftn and ifftn are these 1-D transforms, last axis first; called
        # directly, they skip fftn's argument handling on every step.
        axes = self.axes[::-1]
        per = max(1, _CHUNK_ELEMENTS // step.size)
        for lo in range(0, len(sectors), per):
            v, h = sectors[lo:lo + per], half[lo:lo + per]
            for _ in range(n_steps):
                v *= h
                for axis in axes:
                    np.fft.fft(v, axis=axis, out=v)
                v *= step
                for axis in axes:
                    np.fft.ifft(v, axis=axis, out=v)
                v *= h


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
    """Bounds of the (2, 2) kernel: those of every kernel, and exchange
    symmetry within the bra pair and within the ket pair."""
    _check_bounds(kernel)
    v = kernel.values
    scale = np.max(np.abs(v))
    if scale > 0:
        asym = max(np.max(np.abs(v - v.transpose(1, 0, 2, 3))),
                   np.max(np.abs(v - v.transpose(0, 1, 3, 2))))
        if asym > 1e-8 * scale:
            raise KernelInputError(
                "bi-photon kernel lacks exchange symmetry")


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
    decay = np.exp(-0.5 * grid.wavenumber ** 2 * lam * z)
    return Spectrum(grid, b10.values * grid.free_space_phase(z) * decay)


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
    scatters).  A (2, 2) kernel that carries no generator (not an output
    of this function) must meet the bounds biphoton_rhs enforces,
    exchange symmetry included, which the evolution keeps to rounding, so
    a chain of spans computes that residual once.

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
    if kernel.orders == (2, 2) and kernel.generator is None:
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
        sectors = gen._exp_diag(z_total) * sectors
    else:
        gen.evolve(sectors, dz, n_steps)
    values = gen.from_sectors(sectors)
    # Freed before the diagnostics, which hold temporaries of their own.
    del sectors
    out = MomentKernel(kernel.orders, kernel.grid, values, kernel.z + z_total)
    out.generator = gen
    out.sectors_evolved, out.sectors_filled = count, len(gen.index) - count
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
