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
its seed, not on the block it is drawn in.

Stream contract: the screen of a 64-bit seed is drawn from the Philox
generator ``np.random.Philox(np.random.SeedSequence(seed))``, so screens
for different seeds can be generated in any order or in parallel.  numpy
documents the SeedSequence hash as stable, so ``_generate_state`` computes
it in uint32 arithmetic for whole arrays of keys at once: ``philox_keys``
maps seeds to their Philox keys and ``spawn_seeds`` derives the seeds of
spawned children.  ``ScreenLattice.draw`` resets one Philox generator to
each key at counter 0, the state a new generator starts from, instead of
building a generator per screen.  The tests compare every derived value
with numpy's own SeedSequence bit for bit.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import FrequencyGrid
from .spectrum import SpectrumKind, TurbulenceModel, psd_lattice

# Constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _int_words(value: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int, as SeedSequence
    splits its entropy (0 is one word)."""
    if value < 0:
        raise ValueError("seed entropy must be a non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _generate_state(entropy, spawn_key=(), n_words: int = 1) -> np.ndarray:
    """``SeedSequence(entropy, spawn_key=k).generate_state(n_words,
    np.uint64)`` for every key k at once.

    ``entropy`` is a Python int shared by every key, or an array of uint64
    values, one per key.  ``spawn_key`` is a tuple of integer arrays (or
    ints) that broadcast together; each element must lie in [0, 2^32),
    where SeedSequence turns it into one uint32 word.  Returns uint64 of
    shape broadcast + (n_words,).  Every operand is a uint32 array of at
    least one dimension and every constant a Python int below 2^32, so
    products wrap modulo 2^32 as numpy's C code does, without overflow
    warnings.
    """
    if isinstance(entropy, np.ndarray):
        # SeedSequence splits a 64-bit value into one word when it is below
        # 2^32; a zero high word hashes the same as the pool's zero filling.
        words = [(entropy & _MASK32).astype(np.uint32),
                 (entropy >> 32).astype(np.uint32)]
    else:
        words = [np.array([w], dtype=np.uint32) for w in _int_words(entropy)]
    if spawn_key:
        # SeedSequence pads the run entropy to the pool size only when a
        # spawn key follows it.
        words += [np.zeros(1, dtype=np.uint32)] * (_POOL_SIZE - len(words))
        for index in np.broadcast_arrays(*map(np.atleast_1d, spawn_key)):
            if (index.dtype.kind not in "iu" or np.any(index < 0)
                    or np.any(index > _MASK32)):
                raise ValueError("spawn key entries must be integers in "
                                 "[0, 2^32)")
            words.append(index.astype(np.uint32))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    # SeedSequence.mix_entropy: hash the first pool-size words into the
    # pool, mix every pool word into every other, then mix each remaining
    # entropy word into every pool word.
    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # SeedSequence.generate_state: cycle the pool through a second hash;
    # word pairs form uint64 values, low word first.  Mixing has given
    # every pool word the same shape.
    hash_const = _INIT_B
    state = []
    for i in range(2 * n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([lo | (hi << 32)
                     for lo, hi in zip(state[0::2], state[1::2])], axis=-1)


def spawn_seeds(entropy: int, *spawn_key) -> np.ndarray:
    """64-bit seeds ``SeedSequence(entropy, spawn_key=k).generate_state(1,
    np.uint64)[0]`` for every key k of the broadcast index arrays."""
    return _generate_state(entropy, spawn_key)[..., 0]


def philox_keys(seeds) -> np.ndarray:
    """Philox keys of 64-bit seeds, shape seeds.shape + (2,): the key of
    ``np.random.Philox(np.random.SeedSequence(seed))``."""
    if not isinstance(seeds, np.ndarray):
        # Python ints convert to uint64 exactly or raise; floats would not.
        seeds = np.array([operator.index(s) for s in seeds], dtype=np.uint64)
    if seeds.dtype.kind not in "iu" or np.any(seeds < 0):
        raise ValueError("seeds must be integers in [0, 2^64)")
    return _generate_state(seeds.astype(np.uint64), n_words=2)


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

    def draw(self, keys) -> np.ndarray:
        """Coefficients of one screen per Philox key (``philox_keys`` of
        the seeds), shape (len(keys),) + grid shape; screen i is
        bit-identical to draw_screen(..., seed) for the seed of keys[i]."""
        normals = np.empty((len(keys), 2) + self.grid.shape)
        bitgen = np.random.Philox(key=0)
        rng = np.random.Generator(bitgen)
        fresh = bitgen.state  # counter 0, empty buffer, no spare uint32
        for out, key in zip(normals, np.asarray(keys).tolist()):
            fresh["state"]["key"] = key
            bitgen.state = fresh
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
    return ScreenLattice(model, grid, dz).draw(philox_keys(seeds))


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

    rng = np.random.Generator(
        np.random.Philox(key=_generate_state(seed, n_words=2)[0]))
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
    # The seeds of SeedSequence(seed).spawn(n_samples), child i keyed (i,).
    keys = philox_keys(spawn_seeds(seed, np.arange(n_samples)))
    for start in range(0, n_samples, _STATISTICS_CHUNK):
        coeff = lattice.draw(keys[start:start + _STATISTICS_CHUNK])
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
