"""Phase-screen generation and statistics tests."""

import warnings

import numpy as np
import pytest

from ipfe.grid import FrequencyGrid
from ipfe.phase_screen import (ScreenRealization, _generate_state, draw_screen,
                               draw_screens, philox_keys,
                               phase_screen_position, screen_phases,
                               screen_statistics, spawn_seeds)
from ipfe.spectrum import SpectrumKind, TurbulenceModel, psd_lattice

GRID = FrequencyGrid(1, 32, 0.25, 1.55e-6)
MODEL = TurbulenceModel(SpectrumKind.VON_KARMAN, 9.2e-15, 1.0)
DZ = 31.25


def test_zero_cn2_screen_is_zero():
    model = TurbulenceModel(SpectrumKind.VON_KARMAN, 0.0, 1.0)
    screen = draw_screen(model, GRID, DZ, 1)
    assert np.all(screen.n_tilde_hat == 0.0)
    assert np.all(phase_screen_position(screen, GRID.wavenumber) == 0.0)


def test_determinism():
    a = draw_screen(MODEL, GRID, DZ, 42)
    b = draw_screen(MODEL, GRID, DZ, 42)
    assert np.array_equal(a.n_tilde_hat, b.n_tilde_hat)
    c = draw_screen(MODEL, GRID, DZ, 43)
    assert not np.array_equal(a.n_tilde_hat, c.n_tilde_hat)


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
    for dim, n in ((1, 32), (2, 16)):
        grid = FrequencyGrid(dim, n, 0.25, 1.55e-6)
        screen = draw_screen(MODEL, grid, DZ, 11)
        coeff = screen.n_tilde_hat
        idx = np.indices(grid.shape)
        mirror = tuple((n - i) % n for i in idx)
        assert np.array_equal(coeff, np.conj(coeff[mirror]))
        phi = phase_screen_position(screen, grid.wavenumber)
        assert np.isrealobj(phi)


def test_per_mode_variance_monte_carlo():
    target = psd_lattice(MODEL, GRID) * DZ * GRID.delta_weight
    site = 20  # a generic non-self-conjugate mode
    n = 2000
    samples = np.array([
        np.abs(draw_screen(MODEL, GRID, DZ, 1000 + s).n_tilde_hat[site]) ** 2
        for s in range(n)])
    mean = samples.mean()
    se = samples.std(ddof=1) / np.sqrt(n)
    assert abs(mean - target[site]) < 4.0 * se


def test_single_pair_cosine_oracle():
    site = 20
    n = GRID.n
    mirror = (n - site) % n
    c = 0.3e-9 * np.exp(0.4j)
    coeff = np.zeros(n, dtype=complex)
    coeff[site] = c
    coeff[mirror] = np.conj(c)
    screen = ScreenRealization(GRID, coeff, DZ, 0)
    k = GRID.wavenumber
    phi = phase_screen_position(screen, k)
    a0 = GRID.axis_frequencies()[site]
    x = GRID.axis_positions()
    oracle = 2.0 * k * abs(c) * GRID.cell * np.cos(2.0 * np.pi * a0 * x
                                                   - np.angle(c))
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


def test_hermitian_violation_detected():
    coeff = np.zeros(GRID.n, dtype=complex)
    coeff[20] = 1e-9  # no mirror partner
    screen = ScreenRealization(GRID, coeff, DZ, 0)
    with pytest.raises(ValueError, match="Hermitian-symmetry violation"):
        phase_screen_position(screen, GRID.wavenumber)


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
                block[i], draw_screen(MODEL, grid, DZ, seed).n_tilde_hat)


def test_draw_screen_pinned_values():
    # Coefficients drawn by the one-screen-at-a-time implementation this
    # package started from, for the same seed: the stream is unchanged.
    coeff = draw_screen(MODEL, GRID, DZ, 42).n_tilde_hat
    assert coeff[20] == 3.139629221405833e-08 - 1.267448406352527e-08j
    assert coeff[12] == 3.139629221405833e-08 + 1.267448406352527e-08j
    assert coeff[16] == -1.3456157488064378e-08  # DC, self-conjugate
    assert coeff[0] == -8.68481622674965e-09  # Nyquist, self-conjugate


def test_screen_phases_block_matches_single_screens():
    seeds = [11, 12, 13]
    block = draw_screens(MODEL, GRID, DZ, seeds)
    phases = screen_phases(block, GRID, GRID.wavenumber)
    for i, seed in enumerate(seeds):
        single = phase_screen_position(draw_screen(MODEL, GRID, DZ, seed),
                                       GRID.wavenumber)
        assert np.array_equal(np.fft.fftshift(phases[i]), single)
    block[1, 20] += 1e-9  # breaks the Hermitian pairing of one screen
    with pytest.raises(ValueError, match="Hermitian-symmetry violation"):
        screen_phases(block, GRID, GRID.wavenumber)


def test_screen_statistics_pinned_values():
    # Values of the one-screen-at-a-time implementation this package
    # started from; chunked block reduction changes only rounding.
    stats = screen_statistics(MODEL, GRID, DZ, 400, 123)
    assert stats.max_rel_deviation == pytest.approx(0.13065153558892817,
                                                    rel=1e-12)
    assert stats.max_cross_sigma == pytest.approx(2.3746005133383994,
                                                  rel=1e-12)
    assert stats.sample_variance[20] == pytest.approx(3.193712644410494e-15,
                                                      rel=1e-12)
    assert stats.variance_se[20] == pytest.approx(1.5051367722316113e-16,
                                                  rel=1e-12)
    a, b, mag, se = stats.cross_pairs[0]
    assert (a, b) == (8, 28)
    assert mag == pytest.approx(2.3105328445738313e-17, rel=1e-12)
    assert se == pytest.approx(1.532411476572852e-17, rel=1e-12)
    grid2 = FrequencyGrid(2, 8, 0.25, 1.55e-6)
    stats2 = screen_statistics(MODEL, grid2, DZ, 1500, 7)  # two chunks
    assert stats2.max_rel_deviation == pytest.approx(0.05876248783796756,
                                                     rel=1e-12)
    assert stats2.max_cross_sigma == pytest.approx(2.1059120744776574,
                                                   rel=1e-12)


# Entropy of every length SeedSequence distinguishes: one word (0, 1,
# 2^32 - 1), two words (2^32, 2^64 - 1) and five words (above 2^128),
# longer than the pool, which numpy does not pad.
MASTER_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**130 + 12345]
SPAWN_KEYS = [(0, 0), (999, 31), (2**32 - 1, 0)]


def test_seed_hash_matches_numpy_seed_sequence():
    r = np.array([k[0] for k in SPAWN_KEYS])
    s = np.array([k[1] for k in SPAWN_KEYS])
    with warnings.catch_warnings():
        # uint32 wraparound must not warn
        warnings.simplefilter("error")
        for master in MASTER_SEEDS:
            got = spawn_seeds(master, r, s)
            state = _generate_state(master, (r, s), n_words=3)
            unspawned = _generate_state(master, n_words=2)
            for i, key in enumerate(SPAWN_KEYS):
                seq = np.random.SeedSequence(master, spawn_key=key)
                assert got[i] == seq.generate_state(1, np.uint64)[0]
                assert np.array_equal(state[i],
                                      seq.generate_state(3, np.uint64))
            assert np.array_equal(
                unspawned[0],
                np.random.SeedSequence(master).generate_state(2, np.uint64))
            assert np.array_equal(
                _generate_state(master, (np.arange(5),))[:, 0],
                [child.generate_state(1, np.uint64)[0] for child in
                 np.random.SeedSequence(master).spawn(5)])


def test_philox_keys_match_numpy_philox():
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1]
    seeds += [int(x) for x in spawn_seeds(20240117, np.arange(3), 7)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        keys = philox_keys(seeds)
    assert keys.shape == (len(seeds), 2) and keys.dtype == np.uint64
    for seed, key in zip(seeds, keys):
        bitgen = np.random.Philox(np.random.SeedSequence(seed))
        assert np.array_equal(key, bitgen.state["state"]["key"])


def test_seed_derivation_refuses_out_of_range_input():
    with pytest.raises(ValueError, match="spawn key"):
        spawn_seeds(0, 2**32, 0)
    with pytest.raises(ValueError, match="spawn key"):
        spawn_seeds(0, np.array([0, -1]), 0)
    with pytest.raises(ValueError, match="non-negative"):
        spawn_seeds(-1, 0, 0)
    with pytest.raises(ValueError, match="seeds"):
        philox_keys(np.array([3, -1]))
    with pytest.raises(ValueError, match="seeds"):
        philox_keys(np.array([1.5]))
    with pytest.raises(OverflowError):
        philox_keys([2**64])


def test_draw_matches_one_fresh_generator_per_seed():
    # The screen of each seed, assembled from the normals of its own new
    # Philox(SeedSequence(seed)) generator: real parts, then imaginary.
    seeds = [0, 1, 42, 2**32, 2**63 + 5, 2**64 - 1]
    n = GRID.n
    site = np.arange(n)
    mirror = (n - site) % n
    canonical, self_conj = site < mirror, site == mirror
    var = psd_lattice(MODEL, GRID) * DZ * GRID.delta_weight
    block = draw_screens(MODEL, GRID, DZ, seeds)
    for seed, got in zip(seeds, block):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed)))
        re, im = rng.standard_normal((2, n))
        want = np.sqrt(var / 2.0) * (re + 1j * im)
        want[self_conj] = np.sqrt(var[self_conj]) * re[self_conj]
        want = np.where(canonical | self_conj, want, np.conj(want[mirror]))
        assert np.array_equal(got, want)


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
