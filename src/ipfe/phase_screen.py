"""Slab-integrated refractive-index screens with Markov-slab statistics.

Each screen holds Fourier coefficients N~(a) of the slab-integrated index
fluctuation.  Targets:

    E[N~(a)] = 0
    E[|N~(a)|^2] = Phi_n(a, 0) * dz / delta_a^D
    N~(-a) = N~(a)*          (real position-domain fluctuation)

Coefficients are drawn independently on a Hermitian half-lattice and
mirrored; a fixed seed reproduces a screen bit for bit.  ``ScreenLattice``
computes the variances, masks and mirror indices of a (model, grid, dz)
once and draws any number of screens from them; a screen depends only on
its seed, not on the block it is drawn in.  Seeding uses the
counter-based Philox generator keyed through numpy SeedSequence, so screens
for different (realization, slab) pairs can be generated in parallel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import FrequencyGrid
from .spectrum import SpectrumKind, TurbulenceModel, psd_lattice


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

    def draw(self, seeds) -> np.ndarray:
        """Coefficients of one screen per seed, shape (len(seeds),) + grid
        shape; screen i is bit-identical to draw_screen(..., seeds[i])."""
        normals = np.empty((len(seeds), 2) + self.grid.shape)
        for out, seed in zip(normals, seeds):
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(seed)))
            # Fixed draw order: the real parts of all sites, then the
            # imaginary parts; the mirror half is overwritten below.
            rng.standard_normal(out=out)
        re, im = normals[:, 0], normals[:, 1]
        coeff = self._amplitude * (re + 1j * im)
        coeff[:, self._self_conj] = (self._self_amplitude
                                     * re[:, self._self_conj])
        return np.where(self._keep, coeff, np.conj(coeff[self._mirror]))


def draw_screens(model: TurbulenceModel, grid: FrequencyGrid, dz: float,
                 seeds) -> np.ndarray:
    """Screen coefficients for each seed, stacked along a leading axis."""
    return ScreenLattice(model, grid, dz).draw(seeds)


def draw_screen(model: TurbulenceModel, grid: FrequencyGrid, dz: float,
                seed: int) -> ScreenRealization:
    """Draw one Gaussian slab screen; deterministic in (seed, grid, model, dz)."""
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
                      n_samples: int, seed: int,
                      n_cross_pairs: int = 64) -> ScreenStatistics:
    """Per-mode sample variance against target, plus cross-mode covariances
    for a random sample of non-mirror site pairs."""
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    lattice = ScreenLattice(model, grid, dz)
    target = lattice.variance

    sum_sq = np.zeros(grid.shape)
    sum_quad = np.zeros(grid.shape)

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    flat_size = grid.n ** grid.dim
    pairs_idx = []
    mirror = _mirror_indices(grid.n, grid.dim)
    mirror_flat = np.ravel_multi_index(
        tuple(np.asarray(m) for m in mirror), grid.shape).ravel()
    while len(pairs_idx) < n_cross_pairs:
        i, j = rng.integers(0, flat_size, size=2)
        if i == j or mirror_flat[i] == j:
            continue
        pairs_idx.append((int(i), int(j)))
    cross_sum = np.zeros(len(pairs_idx), dtype=np.complex128)
    cross_sq = np.zeros(len(pairs_idx))

    sites_a = [a for a, _ in pairs_idx]
    sites_b = [b for _, b in pairs_idx]
    child_seeds = [int(child.generate_state(1, np.uint64)[0])
                   for child in np.random.SeedSequence(seed).spawn(n_samples)]
    for start in range(0, n_samples, _STATISTICS_CHUNK):
        coeff = lattice.draw(child_seeds[start:start + _STATISTICS_CHUNK])
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

    cross_mean = cross_sum / n_samples
    cross_var = np.maximum(cross_sq / n_samples - np.abs(cross_mean) ** 2, 0.0)
    cross_se = np.sqrt(cross_var / n_samples)
    records = []
    sigmas = []
    for idx, (a, b) in enumerate(pairs_idx):
        se = cross_se[idx]
        mag = abs(cross_mean[idx])
        records.append((a, b, mag, se))
        sigmas.append(mag / se if se > 0 else 0.0)
    return ScreenStatistics(
        n_samples=n_samples,
        target_variance=target,
        sample_variance=var,
        variance_se=var_se,
        max_rel_deviation=max_rel,
        cross_pairs=records,
        max_cross_sigma=float(max(sigmas) if sigmas else 0.0),
    )
