"""Slab-integrated refractive-index screens with Markov-slab statistics.

Each screen holds Fourier coefficients N~(a) of the slab-integrated index
fluctuation.  Targets:

    E[N~(a)] = 0
    E[|N~(a)|^2] = Phi_n(a, 0) * dz / delta_a^D
    N~(-a) = N~(a)*          (real position-domain fluctuation)

Coefficients are drawn independently on a Hermitian half-lattice and
mirrored; a screen's address (below) reproduces it bit for bit.
``ScreenLattice`` computes the variances, masks and mirror indices of a
(model, grid, dz) once and draws any number of screens from them.

Stream contract: a screen's address is (seed, stream, index), three
integers in [0, 2^64).  Its coefficients come from one ``standard_normal``
call of shape (2,) + grid shape (real parts, then imaginary parts) on the
Philox4x64 generator keyed (seed, stream) at counter (0, index, 0, 0) with
an empty buffer.  A draw advances only the counter's first word, so the
screens of one key never share a Philox block (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11): a screen depends only on its
address, not on the order or block it is drawn in.  The split-step engine
draws realization r in slab s at (master_seed, s, r), as does
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
    grid: FrequencyGrid
    n_tilde_hat: np.ndarray = field(repr=False)
    dz: float
    seed: int

    def __post_init__(self) -> None:
        self.n_tilde_hat = np.asarray(self.n_tilde_hat, dtype=np.complex128)
        if self.n_tilde_hat.shape != self.grid.shape:
            raise ValueError("screen shape does not match grid")


def _mirror_indices(n: int, dim: int):
    """Index arrays mapping each lattice site to its -a partner.

    With DC-centered indexing the mirror of index j is (n - j) % n; the DC
    site (j = n/2) and the Nyquist site (j = 0) are self-conjugate.
    """
    axis = np.arange(n)
    mirror_axis = (n - axis) % n
    if dim == 1:
        return (mirror_axis,)
    grids = np.meshgrid(*([mirror_axis] * dim), indexing="ij")
    return tuple(grids)


def _half_lattice_mask(n: int, dim: int):
    """Boolean masks (canonical_half, self_conjugate) over the lattice."""
    idx = np.indices((n,) * dim)
    flat = idx[0]
    mflat = (n - idx[0]) % n
    for d in range(1, dim):
        flat = flat * n + idx[d]
        mflat = mflat * n + (n - idx[d]) % n
    self_conj = flat == mflat
    canonical = flat < mflat
    return canonical, self_conj


class ScreenLattice:
    """Screen amplitudes, half-lattice masks and mirror indices for one
    (model, grid, dz), computed once and shared by every draw."""

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
        variance = psd_lattice(model, grid) * dz * grid.delta_weight
        canonical, self_conj = _half_lattice_mask(grid.n, grid.dim)
        self.grid = grid
        self.variance = variance
        self._amplitude = np.sqrt(variance / 2.0)
        self._self_conj = self_conj
        self._self_amplitude = np.sqrt(variance[self_conj])
        self._keep = canonical | self_conj
        self._mirror = (slice(None),) + _mirror_indices(grid.n, grid.dim)
        # One generator for every draw, reset to each screen's address from
        # its initial state (counter 0, empty buffer, no spare uint32).
        self._bitgen = np.random.Philox(key=0)
        self._rng = np.random.Generator(self._bitgen)
        self._fresh = self._bitgen.state

    def draw(self, seed: int, stream: int, indices) -> np.ndarray:
        """Coefficients of the screens at the given indices of Philox key
        (seed, stream), shape (len(indices),) + grid shape (see the module
        docstring)."""
        normals = np.empty((len(indices), 2) + self.grid.shape)
        fresh = self._fresh
        fresh["state"]["key"][:] = (as_u64(seed, "seed"),
                                    as_u64(stream, "stream"))
        counter = fresh["state"]["counter"]
        for out, i in zip(normals, indices):
            counter[1] = as_u64(i, "screen index")
            self._bitgen.state = fresh
            # Fixed draw order: the real parts of all sites, then the
            # imaginary parts; the mirror half is overwritten below.
            self._rng.standard_normal(out=out)
        re, im = normals[:, 0], normals[:, 1]
        coeff = self._amplitude * (re + 1j * im)
        coeff[:, self._self_conj] = (self._self_amplitude
                                     * re[:, self._self_conj])
        return np.where(self._keep, coeff, np.conj(coeff[self._mirror]))


def draw_screens(model: TurbulenceModel, grid: FrequencyGrid, dz: float,
                 seeds) -> np.ndarray:
    """draw_screen's coefficients for each seed, stacked on axis 0."""
    lattice = ScreenLattice(model, grid, dz)
    return np.array([lattice.draw(seed, 0, [0])[0] for seed in seeds],
                    dtype=np.complex128).reshape((-1,) + grid.shape)


def draw_screen(model: TurbulenceModel, grid: FrequencyGrid, dz: float,
                seed: int) -> ScreenRealization:
    """Draw the Gaussian slab screen at address (seed, 0, 0)."""
    coeff = draw_screens(model, grid, dz, [seed])[0]
    return ScreenRealization(grid, coeff, dz, seed)


def screen_phases(coeffs: np.ndarray, grid: FrequencyGrid,
                  k: float) -> np.ndarray:
    """Position-domain phases k * n~_slab(x) of a block of screens.

    ``coeffs`` stacks screen coefficients (DC-centred) along a leading
    axis; the phases come back in DFT order (x = 0 first along each grid
    axis).  Raises if any screen's position field has an imaginary residue
    above 1e-12 of its RMS, i.e. if its coefficients are not Hermitian.
    """
    axes = tuple(range(1, grid.dim + 1))
    field_x = np.fft.fftn(np.fft.ifftshift(coeffs, axes=axes),
                          axes=axes) * grid.cell
    rms = np.sqrt(np.mean(np.abs(field_x) ** 2, axis=axes))
    imag_residue = np.max(np.abs(field_x.imag), axis=axes)
    bad = (rms > 0) & (imag_residue > 1e-12 * rms)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"Hermitian-symmetry violation: imaginary residue "
            f"{imag_residue[i]:.3e} exceeds 1e-12 of RMS {rms[i]:.3e}")
    return k * field_x.real


def phase_screen_position(screen: ScreenRealization, k: float) -> np.ndarray:
    """Position-domain phase phi(x) = k * n~_slab(x) in radians."""
    phi = screen_phases(screen.n_tilde_hat[None], screen.grid, k)[0]
    return np.fft.fftshift(phi)


# Screens drawn and reduced at a time by screen_statistics, which bounds its
# memory whatever n_samples is.
_STATISTICS_CHUNK = 1000

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

    sum_sq = np.zeros(grid.shape)
    sum_quad = np.zeros(grid.shape)

    rng = np.random.Generator(np.random.Philox(
        key=np.array([as_u64(seed, "seed"), 1], dtype=np.uint64)))
    flat_size = grid.n ** grid.dim
    mirror = _mirror_indices(grid.n, grid.dim)
    mirror_flat = np.ravel_multi_index(
        tuple(np.asarray(m) for m in mirror), grid.shape).ravel()
    sites_a, sites_b = [], []
    while len(sites_a) < _CROSS_PAIRS:
        i, j = rng.integers(0, flat_size, size=2)
        if i != j and mirror_flat[i] != j:
            sites_a.append(int(i))
            sites_b.append(int(j))
    cross_sum = np.zeros(_CROSS_PAIRS, dtype=np.complex128)
    cross_sq = np.zeros(_CROSS_PAIRS)

    for start in range(0, n_samples, _STATISTICS_CHUNK):
        coeff = lattice.draw(
            seed, 0, range(start, min(start + _STATISTICS_CHUNK, n_samples)))
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
