"""Phase-screen generation and statistics tests."""

import concurrent.futures
import tracemalloc

import numpy as np
import pytest

from ipfe.grid import FrequencyGrid, to_frequency
from ipfe import phase_screen
from ipfe.phase_screen import (_CROSS_PAIRS, BLOCK, ScreenLattice,
                               ScreenRealization, draw_screen,
                               keyed_generator, phase_screen_position,
                               screen_statistics)
from ipfe.spectrum import (DivergentLambdaError, SpectrumKind,
                           TurbulenceModel, psd_lattice)
from ipfe.splitstep import PropagationPlan
from ipfe.states import GaussianState, gaussian_drift
from ipfe.validation import check_free_space

GRID = FrequencyGrid(1, 32, 0.25, 1.55e-6)
MODEL = TurbulenceModel(SpectrumKind.VON_KARMAN, 9.2e-15, 1.0)
DZ = 31.25


def test_zero_cn2_screen_is_zero():
    model = TurbulenceModel(SpectrumKind.VON_KARMAN, 0.0, 1.0)
    screen = draw_screen(model, GRID, DZ, 1)
    assert np.all(screen.n_slab == 0.0)
    assert np.all(phase_screen_position(screen, GRID.wavenumber) == 0.0)


def test_determinism():
    a = draw_screen(MODEL, GRID, DZ, 42)
    b = draw_screen(MODEL, GRID, DZ, 42)
    assert np.array_equal(a.n_slab, b.n_slab)
    c = draw_screen(MODEL, GRID, DZ, 43)
    assert not np.array_equal(a.n_slab, c.n_slab)


def test_kolmogorov_rejected():
    # psd_lattice refuses the divergent spectrum before any screen work.
    with pytest.raises(DivergentLambdaError, match="divergent"):
        draw_screen(TurbulenceModel(SpectrumKind.KOLMOGOROV, 1e-14),
                    GRID, DZ, 0)


def test_dz_must_be_positive():
    with pytest.raises(ValueError, match="dz"):
        draw_screen(MODEL, GRID, 0.0, 0)


def test_outer_scale_warning():
    big_l0 = TurbulenceModel(SpectrumKind.VON_KARMAN, 9.2e-15, 100.0)
    with pytest.warns(UserWarning, match="outer scale"):
        draw_screen(big_l0, GRID, DZ, 0)


def test_hermitian_symmetry_exact():
    # Hermitian symmetry is a property of the type: draw returns real
    # fields, and a screen refuses complex values.
    for dim, n in ((1, 32), (2, 16)):
        grid = FrequencyGrid(dim, n, 0.25, 1.55e-6)
        block = ScreenLattice(MODEL, grid, DZ).draw(11, 0, 0, 3)
        assert block.dtype == np.float64
        assert block.shape == (3,) + grid.shape
        screen = draw_screen(MODEL, grid, DZ, 11)
        assert screen.n_slab.dtype == np.float64
        phi = phase_screen_position(screen, grid.wavenumber)
        assert phi.dtype == np.float64
        with pytest.raises(TypeError, match="real field"):
            ScreenRealization(grid, screen.n_slab + 0j, DZ, 11)


def test_per_mode_variance_monte_carlo():
    target = psd_lattice(MODEL, GRID) * DZ * GRID.delta_weight
    site = 20  # a generic non-self-conjugate mode
    n = 2000
    samples = np.array([
        np.abs(to_frequency(GRID, draw_screen(MODEL, GRID, DZ, 1000 + s)
                            .n_slab).values[site]) ** 2
        for s in range(n)])
    mean = samples.mean()
    se = samples.std(ddof=1) / np.sqrt(n)
    assert abs(mean - target[site]) < 4.0 * se


def test_single_pair_cosine_oracle():
    # The normals of one half-lattice site make a cosine screen: the
    # coefficient c = amp (z0 + i z1) at a0 = 4 delta_a and its mirror
    # conj(c) give n~_slab(x) = 2 |c| cell cos(2 pi a0 x + arg c).
    lattice = ScreenLattice(MODEL, GRID, DZ)
    site = 4
    normals = np.zeros((1, 2) + lattice.amplitude.shape)
    normals[0, :, site] = (0.8, -0.6)
    c = lattice.amplitude[site] * (0.8 - 0.6j)
    field_x = np.fft.fftshift(lattice.fields(normals)[0])
    screen = ScreenRealization(GRID, field_x, DZ, 0)
    k = GRID.wavenumber
    phi = phase_screen_position(screen, k)
    a0 = site * GRID.delta_a
    x = GRID.axis_positions()
    oracle = 2.0 * k * abs(c) * GRID.cell * np.cos(2.0 * np.pi * a0 * x
                                                   + np.angle(c))
    assert np.allclose(phi, oracle, atol=1e-12 * np.max(np.abs(oracle)))


def test_rms_scales_with_sqrt_cn2():
    double = TurbulenceModel(SpectrumKind.VON_KARMAN, 2 * MODEL.cn2, 1.0)
    n = 1000
    rms1 = np.empty(n)
    rms2 = np.empty(n)
    for s in range(n):
        p1 = phase_screen_position(draw_screen(MODEL, GRID, DZ, 5000 + s),
                                   GRID.wavenumber)
        p2 = phase_screen_position(draw_screen(double, GRID, DZ, 5000 + s),
                                   GRID.wavenumber)
        rms1[s] = np.sqrt(np.mean(p1 ** 2))
        rms2[s] = np.sqrt(np.mean(p2 ** 2))
    ratio = rms2.mean() / rms1.mean()
    se = ratio * np.sqrt((rms2.std(ddof=1) / rms2.mean()) ** 2
                         + (rms1.std(ddof=1) / rms1.mean()) ** 2) / np.sqrt(n)
    assert abs(ratio - np.sqrt(2.0)) < 3.0 * se


def test_screen_statistics_contract():
    stats = screen_statistics(MODEL, GRID, DZ, 123)
    assert np.array_equal(stats.target_variance,
                          ScreenLattice(MODEL, GRID, DZ).variance)
    assert stats.variance.shape == GRID.shape
    assert stats.max_variance_error < 1e-15
    assert stats.max_cross_covariance < 1e-15
    assert len(stats.cross_pairs) == _CROSS_PAIRS
    zero = TurbulenceModel(SpectrumKind.VON_KARMAN, 0.0, 1.0)
    stats0 = screen_statistics(zero, GRID, DZ, 123)
    assert np.all(stats0.variance == 0.0)
    assert stats0.max_variance_error == stats0.max_cross_covariance == 0.0


def test_draw_screen_pinned_values():
    # The screen at address (42, 0, 0): pins the stream contract.
    n_slab = draw_screen(MODEL, GRID, DZ, 42).n_slab
    assert n_slab[16] == -5.4648807585869724e-08  # x = 0
    assert n_slab[0] == 8.632637502044924e-08  # x = -n/2 delta_x
    assert n_slab[5] == 3.376398499067567e-08
    assert n_slab[20] == -5.851538557399925e-08


def one_pair_per_call(grid, seed):
    """The first _CROSS_PAIRS site pairs (i, j), DC-centred flat sites,
    drawn one pair per call from the generator of key (seed, 1), with
    i = j and mirror pairs skipped."""
    rng = keyed_generator(seed, 1)
    size = grid.n ** grid.dim
    sites = np.indices(grid.shape).reshape(grid.dim, -1)
    mirror = np.ravel_multi_index((grid.n - sites) % grid.n, grid.shape)
    pairs = []
    while len(pairs) < _CROSS_PAIRS:
        i, j = rng.integers(0, size, size=2)
        if i != j and mirror[i] != j:
            pairs.append((int(i), int(j)))
    return pairs


def test_screen_statistics_pinned_values():
    # The site pairs come from the stream of key (seed, 1), batch by batch,
    # as one pair per call would draw them.
    for grid, seed, head in (
            (GRID, 123, [(15, 27), (19, 3), (31, 14)]),
            (FrequencyGrid(2, 8, 0.25, 1.55e-6), 7,
             [(47, 56), (25, 23), (27, 33)])):
        pairs = [p[:2] for p in screen_statistics(MODEL, grid, DZ,
                                                  seed).cross_pairs]
        assert pairs[:3] == head
        assert pairs == one_pair_per_call(grid, seed)
        assert all(type(site) is int for p in pairs for site in p)


def mode_responses(lattice, normals):
    """The modes, DC-centred and flattened, of the screens fields makes
    from normals, taken to frequency as grid.to_frequency does."""
    grid = lattice.grid
    screens = lattice.fields(normals)
    return np.array([to_frequency(grid, np.fft.fftshift(x)).values.ravel()
                     for x in screens])


def unit_normals(lattice):
    """Every unit normal of one screen: the identity over (2,) + half."""
    count = 2 * lattice.amplitude.size
    return np.eye(count).reshape((count, 2) + lattice.amplitude.shape)


@pytest.mark.parametrize("dim, n", [(1, 32), (2, 8)])
def test_screen_statistics_equal_the_full_covariance(dim, n):
    # The full covariance of the drawn screens' modes, from the responses of
    # test_drawn_screen_covariance_is_exact taken to frequency, at the
    # diagonal and at the sampled site pairs.
    grid = FrequencyGrid(dim, n, 0.25, 1.55e-6)
    lattice = ScreenLattice(MODEL, grid, DZ)
    modes = mode_responses(lattice, unit_normals(lattice))
    cov = modes.T @ modes.conj()
    stats = screen_statistics(MODEL, grid, DZ, 11)
    scale = np.max(lattice.variance)
    assert np.max(np.abs(stats.variance.ravel() - np.diagonal(cov).real)) \
        <= 1e-15 * scale
    for a, b, got in stats.cross_pairs:
        assert abs(got - cov[a, b]) <= 1e-16 * scale
    assert np.max(np.abs(cov - np.diag(lattice.variance.ravel()))) \
        <= 1e-15 * scale


@pytest.mark.parametrize("dim, n", [(1, 32), (2, 8)])
def test_screen_statistics_do_not_depend_on_the_chunk(dim, n, monkeypatch):
    # The sums add one normal's response at a time, so the bits do not
    # depend on how many normals go through the transform at once.
    grid = FrequencyGrid(dim, n, 0.25, 1.55e-6)
    want = screen_statistics(MODEL, grid, DZ, 11)
    count = 2 * ScreenLattice(MODEL, grid, DZ).amplitude.size
    for rows in (1, 7, count - 1, count):
        monkeypatch.setattr(phase_screen, "_STATISTICS_ROWS", rows)
        got = screen_statistics(MODEL, grid, DZ, 11)
        assert np.array_equal(got.variance.view(np.uint64),
                              want.variance.view(np.uint64))
        assert got.cross_pairs == want.cross_pairs
        assert got.max_variance_error == want.max_variance_error
        assert got.max_cross_covariance == want.max_cross_covariance


def shifted_chunk_statistics(model, grid, dz, n_samples, seed, chunk=256):
    """n_samples screens drawn at (seed, 0, i), taken to modes chunk by
    chunk with every chunk shifted to the DC-centred layout before it is
    summed; returns the pairs of one_pair_per_call, the sampled variance
    and its standard error per mode, and the sampled covariance and its
    standard error at the pairs."""
    lattice = ScreenLattice(model, grid, dz)
    pairs = one_pair_per_call(grid, seed)
    sites_a, sites_b = np.array(pairs).T
    axes = tuple(range(1, grid.dim + 1))
    sum_sq = np.zeros(grid.n ** grid.dim)
    sum_quad = np.zeros(grid.n ** grid.dim)
    cross_sum = np.zeros(len(pairs), dtype=np.complex128)
    cross_sq = np.zeros(len(pairs))
    for start in range(0, n_samples, chunk):
        fields = lattice.draw(seed, 0, start, min(start + chunk, n_samples))
        coeff = np.fft.fftshift(np.fft.ifftn(fields, axes=axes),
                                axes=axes) * grid.delta_weight
        flat = coeff.reshape(len(coeff), -1)
        p = np.abs(flat) ** 2
        sum_sq += np.sum(p, axis=0)
        sum_quad += np.sum(p ** 2, axis=0)
        prods = flat[:, sites_a] * np.conj(flat[:, sites_b])
        cross_sum += np.sum(prods, axis=0)
        cross_sq += np.sum(np.abs(prods) ** 2, axis=0)
    var = sum_sq / n_samples
    var_se = np.sqrt(np.maximum(sum_quad / n_samples - var ** 2, 0.0)
                     / n_samples)
    cross = cross_sum / n_samples
    cross_se = np.sqrt(np.maximum(cross_sq / n_samples - np.abs(cross) ** 2,
                                  0.0) / n_samples)
    return (pairs, var.reshape(grid.shape), var_se.reshape(grid.shape),
            cross, cross_se)


@pytest.mark.parametrize("dim, n", [(1, 32), (2, 8)])
@pytest.mark.parametrize("n_samples", [1000, 512])
def test_screen_statistics_matches_shifted_chunk_sums(dim, n, n_samples):
    # The exact statistics are those of the screens draw returns: the sums
    # of n_samples drawn screens, shifted chunk by chunk, agree with them
    # within five standard errors at every mode and at every site pair,
    # and the pairs are the ones one pair per call draws.
    grid = FrequencyGrid(dim, n, 0.25, 1.55e-6)
    stats = screen_statistics(MODEL, grid, DZ, 11)
    pairs, var, var_se, cross, cross_se = \
        shifted_chunk_statistics(MODEL, grid, DZ, n_samples, 11)
    assert [p[:2] for p in stats.cross_pairs] == pairs
    assert all(type(site) is int for p in stats.cross_pairs for site in p[:2])
    assert stats.variance.shape == var.shape == grid.shape
    assert np.all(np.abs(var - stats.variance) <= 5.0 * var_se)
    exact = np.array([p[2] for p in stats.cross_pairs])
    assert np.all(np.abs(cross - exact) <= 5.0 * cross_se)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 8)])
def test_screen_statistics_memory_does_not_grow_with_samples(dim, n,
                                                             monkeypatch):
    # The unit normals are the samples of the screens' linear map, and
    # their responses are summed a chunk at a time: with one normal per
    # chunk, the peak above the lattice's own arrays stays below half of
    # what keeping all 2 |half-lattice| responses would take (68 KiB and
    # 80 KiB here; the peak reads about 19 KiB above the lattice).
    grid = FrequencyGrid(dim, n, 0.25, 1.55e-6)
    count = 2 * ScreenLattice(MODEL, grid, DZ).amplitude.size
    monkeypatch.setattr(phase_screen, "_STATISTICS_ROWS", 1)
    peaks = []
    for run in (lambda: ScreenLattice(MODEL, grid, DZ).variance,
                lambda: screen_statistics(MODEL, grid, DZ, 5)):
        run()
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < count * n ** dim * 16 // 2


def test_screen_statistics_memory_is_linear_in_the_sites():
    # The normals go through in chunks of a fixed number, so the peak grows
    # with the sites (4x from 2-D n=16 to n=32), not with their square
    # (16x), which a full (n^D)^2 covariance would need.
    peaks = []
    for n in (16, 32):
        grid = FrequencyGrid(2, n, 0.25, 1.55e-6)
        screen_statistics(MODEL, grid, DZ, 5)
        tracemalloc.start()
        try:
            screen_statistics(MODEL, grid, DZ, 5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 5 * peaks[0]


def test_draw_reuses_work_buffers():
    # Buffers of one range serve any range of no more screens in no more
    # Philox blocks, with the bits of a fresh draw; smaller ones are
    # refused rather than leaving rows undrawn.
    lattice = ScreenLattice(MODEL, GRID, DZ)
    work = lattice.work(BLOCK - 3, 2 * BLOCK + 5)
    out = np.empty((BLOCK + 8,) + GRID.shape)
    for start, stop in ((BLOCK - 3, 2 * BLOCK + 5), (BLOCK, 2 * BLOCK + 8),
                        (7, 9)):
        got = lattice.draw(4, 2, start, stop, out[:stop - start], work)
        assert got.base is out
        assert np.array_equal(got, lattice.draw(4, 2, start, stop))
    with pytest.raises(ValueError, match="work buffers"):
        lattice.draw(4, 2, BLOCK - 3, 2 * BLOCK + 6, None, work)


def fresh_philox_screen(grid, seed, stream, index):
    """The screen at (seed, stream, index), in DFT order, assembled from
    row index % 64 of one block of a new Philox generator at counter
    (0, index // 64, 0, 0), on the rfftn half-lattice."""
    bitgen = np.random.Philox(
        key=np.array([seed, stream], dtype=np.uint64),
        counter=np.array([0, index // 64, 0, 0], dtype=np.uint64))
    n = grid.n
    half = grid.shape[:-1] + (n // 2 + 1,)
    z0, z1 = np.random.Generator(bitgen).standard_normal(
        (64, 2) + half)[index % 64]
    var = np.fft.ifftshift(psd_lattice(MODEL, grid) * DZ
                           * grid.delta_weight)[..., :n // 2 + 1]
    amp = np.sqrt(var / 2.0)
    amp[..., [0, n // 2]] *= np.sqrt(2.0)  # irfftn halves these planes
    return np.fft.irfftn(amp * (z0 + 1j * z1), s=grid.shape,
                         axes=range(grid.dim)) * (n ** grid.dim * grid.cell)


def test_screen_address_is_philox_state():
    # Each screen is a row of the block drawn by a fresh Philox keyed
    # (seed, stream) at counter (0, index // 64, 0, 0), for indices at the
    # edges of a block and of the index range.
    indices = [0, 63, 64, 2**40, 2**64 - 1]
    for dim, n in ((1, 32), (2, 8)):
        grid = FrequencyGrid(dim, n, 0.25, 1.55e-6)
        lattice = ScreenLattice(MODEL, grid, DZ)
        for seed, stream in ((0, 0), (20240117, 7), (2**63 + 5, 1),
                             (2**64 - 1, 2**64 - 1)):
            for index in indices:
                got = lattice.draw(seed, stream, index, index + 1)
                assert got.shape == (1,) + grid.shape
                assert np.array_equal(
                    got[0], fresh_philox_screen(grid, seed, stream, index))


def test_ranges_across_blocks_equal_single_draws():
    # A range drawn at once, across block boundaries, equals its screens
    # drawn one at a time and the rows of fresh Philox blocks.  The first
    # range has a partial head, two whole aligned blocks (drawn straight
    # into the output) and a partial tail; the last ends with the whole
    # block at the top of the index range.
    for dim, n in ((1, 32), (2, 8)):
        grid = FrequencyGrid(dim, n, 0.25, 1.55e-6)
        lattice = ScreenLattice(MODEL, grid, DZ)
        for start, stop in ((BLOCK - 3, 3 * BLOCK + 2), (0, BLOCK + 1),
                            (2**64 - BLOCK - 2, 2**64)):
            block = lattice.draw(5, 3, start, stop)
            assert block.shape == (stop - start,) + grid.shape
            for r, row in zip(range(start, stop), block):
                assert np.array_equal(row, lattice.draw(5, 3, r, r + 1)[0])
                assert np.array_equal(row, fresh_philox_screen(grid, 5, 3, r))


def test_keyed_generator_is_the_keyed_philox():
    for key in ((0, 0), (2024, 0), (20240118, 0), (2**64 - 1, 7)):
        want = np.random.Generator(np.random.Philox(
            key=np.array(key, dtype=np.uint64)))
        got = keyed_generator(*key)
        assert np.array_equal(got.standard_normal(301),
                              want.standard_normal(301))
        assert np.array_equal(got.integers(0, 2**63, 5),
                              want.integers(0, 2**63, 5))


def test_keyed_data_read_no_os_entropy(monkeypatch):
    # Every keyed generator outside the screens is keyed_generator's: no
    # construction reads the OS entropy that its key would override.
    def refuse(*args):
        raise AssertionError("OS entropy read")

    monkeypatch.setattr(np.random.bit_generator, "randbits", refuse)
    _, residual = gaussian_drift(GaussianState.vacuum(GRID), MODEL)
    assert residual < 1e-12
    assert all(c.passed for c in check_free_space())


def test_draw_builds_one_generator(monkeypatch):
    # Each thread builds one Philox generator per lattice and moves it from
    # block to block, and from draw to draw, by assigning its state, instead
    # of building a generator per block or per draw.
    # test_screen_address_is_philox_state and
    # test_ranges_across_blocks_equal_single_draws pin the bits this gives.
    built = []

    class CountingPhilox(np.random.Philox):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", CountingPhilox)
    lattice = ScreenLattice(MODEL, GRID, DZ)

    def draws():
        for start, stop in ((BLOCK - 3, 6 * BLOCK + 2), (0, 5 * BLOCK),
                            (2**64 - 5 * BLOCK - 2, 2**64)):
            block = lattice.draw(5, 3, start, stop)
            assert block.shape == (stop - start,) + GRID.shape

    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        pool.submit(draws).result()
    assert len(built) == 1
    draws()
    draws()
    assert len(built) == 2


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 8)])
def test_drawn_screen_covariance_is_exact(dim, n):
    # The screen is linear in its unit normals, so pushing each one through
    # the lattice's amplitude and irfftn gives the exact covariance of the
    # fields draw returns: cell^2 sum_a var(a) exp(-2 pi i a.(x - y) / n).
    grid = FrequencyGrid(dim, n, 0.25, 1.55e-6)
    lattice = ScreenLattice(MODEL, grid, DZ)
    response = lattice.fields(unit_normals(lattice))
    response = response.reshape(len(response), -1)
    cov = response.T @ response
    a = np.indices(grid.shape).reshape(dim, -1) - n // 2  # DC-centred
    x = np.indices(grid.shape).reshape(dim, -1)  # DFT order
    wave = np.exp(-2j * np.pi * (x.T @ a) / n)
    want = grid.cell ** 2 * (wave * lattice.variance.ravel()) @ wave.conj().T
    assert np.max(np.abs(cov - want)) <= 1e-14 * np.max(np.abs(want))


def test_draw_matches_one_fresh_generator_per_seed():
    # draw_screen(seed) is the screen at (seed, 0, 0): row 0 of the Philox
    # block of key (seed, 0) at counter 0, which is also realization 0 in
    # slab 0 of a plan with that master seed.
    for seed in (0, 1, 42, 2**32, 2**63 + 5, 2**64 - 1):
        got = draw_screen(MODEL, GRID, DZ, seed).n_slab
        want = np.fft.fftshift(fresh_philox_screen(GRID, seed, 0, 0))
        assert np.array_equal(got, want)
        plan = PropagationPlan(GRID, MODEL, 32 * DZ, 32, 2, seed)
        assert np.array_equal(got, plan.slab_screen(0, 0).n_slab)


def test_seed_derivation_refuses_out_of_range_input():
    # A negative or 65-bit seed would wrap silently in a Philox key.
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must be an integer in "
                                             r"\[0, 2\^64\)"):
            draw_screen(MODEL, GRID, DZ, seed)
        with pytest.raises(ValueError, match="seed"):
            screen_statistics(MODEL, GRID, DZ, seed)
        with pytest.raises(ValueError, match="master_seed"):
            PropagationPlan(GRID, MODEL, 1000.0, 32, 2, seed)
    lattice = ScreenLattice(MODEL, GRID, DZ)
    with pytest.raises(ValueError, match="stream"):
        lattice.draw(0, -1, 0, 1)
    with pytest.raises(ValueError, match="stream"):
        lattice.draw(0, 2**64, 0, 1)
    for start, stop in ((-1, 1), (0, 2**64 + 1), (5, 4)):
        with pytest.raises(ValueError, match="screen index"):
            lattice.draw(0, 0, start, stop)
    with pytest.raises(TypeError):
        lattice.draw(0, 0, 1.5, 2)
    with pytest.raises(TypeError):
        lattice.draw(0, 0, 0, 2.5)
    with pytest.raises(TypeError):
        draw_screen(MODEL, GRID, DZ, 1.5)
    assert lattice.draw(0, 0, 0, 0).shape == (0,) + GRID.shape


def test_screen_statistics_needs_no_seed_sequence(monkeypatch):
    grid2 = FrequencyGrid(2, 8, 0.25, 1.55e-6)
    want = screen_statistics(MODEL, grid2, DZ, 7)

    def refuse(*args, **kwargs):
        raise AssertionError("SeedSequence built on the screen path")

    def no_entropy(*args, **kwargs):
        raise AssertionError("OS entropy read on the screen path")

    # A Philox built without a seed reads its entropy through randbits, not
    # through np.random.SeedSequence.
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(np.random.bit_generator, "randbits", no_entropy)
    got = screen_statistics(MODEL, grid2, DZ, 7)
    assert np.array_equal(got.variance, want.variance)
    assert got.cross_pairs == want.cross_pairs
