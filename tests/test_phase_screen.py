"""Phase-screen generation and statistics tests."""

import numpy as np
import pytest

from ipfe.grid import FrequencyGrid, to_frequency
from ipfe.phase_screen import (BLOCK, ScreenLattice, ScreenRealization,
                               draw_screen, draw_screens,
                               phase_screen_position, screen_statistics)
from ipfe.spectrum import SpectrumKind, TurbulenceModel, psd_lattice
from ipfe.splitstep import PropagationPlan

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
    with pytest.raises(ValueError, match="divergent"):
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
    with pytest.raises(ValueError, match="n_samples"):
        screen_statistics(MODEL, GRID, DZ, 50, 0)
    stats = screen_statistics(MODEL, GRID, DZ, 400, 123)
    assert stats.n_samples == 400
    assert stats.max_rel_deviation < 0.5  # loose bound at 400 samples
    assert len(stats.cross_pairs) == 64
    zero = TurbulenceModel(SpectrumKind.VON_KARMAN, 0.0, 1.0)
    stats0 = screen_statistics(zero, GRID, DZ, 400, 123)
    assert np.all(stats0.sample_variance == 0.0)


def test_draw_screens_bit_identical_to_draw_screen():
    seeds = [3, 2**63 + 5, 0, 77]
    for dim, n in ((1, 32), (2, 8)):
        grid = FrequencyGrid(dim, n, 0.25, 1.55e-6)
        block = draw_screens(MODEL, grid, DZ, seeds)
        assert block.shape == (len(seeds),) + grid.shape
        for i, seed in enumerate(seeds):
            assert np.array_equal(
                block[i], draw_screen(MODEL, grid, DZ, seed).n_slab)
        assert draw_screens(MODEL, grid, DZ, []).shape == (0,) + grid.shape


def test_draw_screen_pinned_values():
    # The screen at address (42, 0, 0): pins the stream contract.
    n_slab = draw_screen(MODEL, GRID, DZ, 42).n_slab
    assert n_slab[16] == -5.4648807585869724e-08  # x = 0
    assert n_slab[0] == 8.632637502044924e-08  # x = -n/2 delta_x
    assert n_slab[5] == 3.376398499067567e-08
    assert n_slab[20] == -5.851538557399925e-08


def test_screen_statistics_pinned_values():
    # Screens at (123, 0, i) and site pairs from the stream of key
    # (123, 1); the chunked block reduction may change only rounding.
    stats = screen_statistics(MODEL, GRID, DZ, 400, 123)
    assert stats.max_rel_deviation == pytest.approx(0.09847718210541179,
                                                    rel=1e-12)
    assert stats.max_cross_sigma == pytest.approx(2.291641570808644,
                                                  rel=1e-12)
    assert stats.sample_variance[20] == pytest.approx(3.2159578225511398e-15,
                                                      rel=1e-12)
    assert stats.variance_se[20] == pytest.approx(1.6280094789965967e-16,
                                                  rel=1e-12)
    a, b, mag, se = stats.cross_pairs[0]
    assert (a, b) == (15, 27)
    assert mag == pytest.approx(1.0085029082705576e-16, rel=1e-12)
    assert se == pytest.approx(7.111587117905265e-17, rel=1e-12)
    grid2 = FrequencyGrid(2, 8, 0.25, 1.55e-6)
    stats2 = screen_statistics(MODEL, grid2, DZ, 1500, 7)  # two chunks
    assert stats2.max_rel_deviation == pytest.approx(0.061374409676733466,
                                                     rel=1e-12)
    assert stats2.max_cross_sigma == pytest.approx(2.099297357737349,
                                                   rel=1e-12)


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
    # drawn one at a time.
    for dim, n in ((1, 32), (2, 8)):
        grid = FrequencyGrid(dim, n, 0.25, 1.55e-6)
        lattice = ScreenLattice(MODEL, grid, DZ)
        for start, stop in ((BLOCK - 3, 2 * BLOCK + 2), (0, BLOCK + 1),
                            (2**64 - BLOCK - 2, 2**64)):
            block = lattice.draw(5, 3, start, stop)
            assert block.shape == (stop - start,) + grid.shape
            for r, row in zip(range(start, stop), block):
                assert np.array_equal(row, lattice.draw(5, 3, r, r + 1)[0])


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 8)])
def test_drawn_screen_covariance_is_exact(dim, n):
    # The screen is linear in its unit normals, so pushing each one through
    # the lattice's amplitude and irfftn gives the exact covariance of the
    # fields draw returns: cell^2 sum_a var(a) exp(-2 pi i a.(x - y) / n).
    grid = FrequencyGrid(dim, n, 0.25, 1.55e-6)
    lattice = ScreenLattice(MODEL, grid, DZ)
    half = lattice.amplitude.shape
    count = 2 * lattice.amplitude.size
    response = lattice.fields(np.eye(count).reshape((count, 2) + half))
    response = response.reshape(count, -1)
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
    seeds = [0, 1, 42, 2**32, 2**63 + 5, 2**64 - 1]
    block = draw_screens(MODEL, GRID, DZ, seeds)
    for seed, got in zip(seeds, block):
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
            screen_statistics(MODEL, GRID, DZ, 100, seed)
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
    want = screen_statistics(MODEL, grid2, DZ, 1500, 7)

    def refuse(*args, **kwargs):
        raise AssertionError("SeedSequence built on the screen path")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    got = screen_statistics(MODEL, grid2, DZ, 1500, 7)
    assert np.array_equal(got.sample_variance, want.sample_variance)
    assert np.array_equal(got.variance_se, want.variance_se)
    assert got.cross_pairs == want.cross_pairs
    assert got.max_rel_deviation == want.max_rel_deviation
    assert got.max_cross_sigma == want.max_cross_sigma
