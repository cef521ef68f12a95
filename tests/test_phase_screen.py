"""Phase-screen generation and statistics tests."""

import numpy as np
import pytest

from ipfe.grid import FrequencyGrid
from ipfe.phase_screen import (ScreenLattice, ScreenRealization, draw_screen,
                               draw_screens, phase_screen_position,
                               screen_phases, screen_statistics)
from ipfe.spectrum import SpectrumKind, TurbulenceModel, psd_lattice
from ipfe.splitstep import PropagationPlan

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
        assert draw_screens(MODEL, grid, DZ, []).shape == (0,) + grid.shape


def test_draw_screen_pinned_values():
    # The screen at address (42, 0, 0): pins the stream contract.
    coeff = draw_screen(MODEL, GRID, DZ, 42).n_tilde_hat
    assert coeff[20] == 1.695769815971823e-08 - 1.7997572836634836e-08j
    assert coeff[12] == 1.695769815971823e-08 + 1.7997572836634836e-08j
    assert coeff[16] == -6.328512393784377e-08  # DC, self-conjugate
    assert coeff[0] == 2.654606342351652e-09  # Nyquist, self-conjugate


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
    # Screens at (123, 0, i) and site pairs from the stream of key
    # (123, 1); the chunked block reduction may change only rounding.
    stats = screen_statistics(MODEL, GRID, DZ, 400, 123)
    assert stats.max_rel_deviation == pytest.approx(0.1330616207785711,
                                                    rel=1e-12)
    assert stats.max_cross_sigma == pytest.approx(2.2964174299135967,
                                                  rel=1e-12)
    assert stats.sample_variance[20] == pytest.approx(3.543701006412003e-15,
                                                      rel=1e-12)
    assert stats.variance_se[20] == pytest.approx(1.8220698130042742e-16,
                                                  rel=1e-12)
    a, b, mag, se = stats.cross_pairs[0]
    assert (a, b) == (15, 27)
    assert mag == pytest.approx(6.074936389596941e-17, rel=1e-12)
    assert se == pytest.approx(7.414182872091408e-17, rel=1e-12)
    grid2 = FrequencyGrid(2, 8, 0.25, 1.55e-6)
    stats2 = screen_statistics(MODEL, grid2, DZ, 1500, 7)  # two chunks
    assert stats2.max_rel_deviation == pytest.approx(0.11016872371222286,
                                                     rel=1e-12)
    assert stats2.max_cross_sigma == pytest.approx(2.4269248748367542,
                                                   rel=1e-12)


def fresh_philox_screen(grid, seed, stream, index):
    """The screen at (seed, stream, index), assembled from the normals of
    its own new Philox generator: real parts, then imaginary."""
    bitgen = np.random.Philox(
        key=np.array([seed, stream], dtype=np.uint64),
        counter=np.array([0, index, 0, 0], dtype=np.uint64))
    re, im = np.random.Generator(bitgen).standard_normal((2,) + grid.shape)
    n = grid.n
    idx = np.indices(grid.shape)
    flat = np.ravel_multi_index(tuple(idx), grid.shape)
    mirror = tuple((n - i) % n for i in idx)
    mflat = np.ravel_multi_index(mirror, grid.shape)
    canonical, self_conj = flat < mflat, flat == mflat
    var = psd_lattice(MODEL, grid) * DZ * grid.delta_weight
    want = np.sqrt(var / 2.0) * (re + 1j * im)
    want[self_conj] = np.sqrt(var[self_conj]) * re[self_conj]
    return np.where(canonical | self_conj, want, np.conj(want[mirror]))


def test_screen_address_is_philox_state():
    # Each screen equals standard_normal from a fresh Philox keyed
    # (seed, stream) at counter (0, index, 0, 0), for every word at the
    # edges of its range.
    indices = [0, 1, 63, 2**40, 2**64 - 1]
    for dim, n in ((1, 32), (2, 8)):
        grid = FrequencyGrid(dim, n, 0.25, 1.55e-6)
        lattice = ScreenLattice(MODEL, grid, DZ)
        for seed, stream in ((0, 0), (20240117, 7), (2**63 + 5, 1),
                             (2**64 - 1, 2**64 - 1)):
            block = lattice.draw(seed, stream, indices)
            assert block.shape == (len(indices),) + grid.shape
            for got, index in zip(block, indices):
                assert np.array_equal(
                    got, fresh_philox_screen(grid, seed, stream, index))


def test_draw_matches_one_fresh_generator_per_seed():
    # draw_screen(seed) is the screen at (seed, 0, 0): the Philox of key
    # (seed, 0) at counter 0, which is also realization 0 in slab 0 of a
    # plan with that master seed.
    seeds = [0, 1, 42, 2**32, 2**63 + 5, 2**64 - 1]
    block = draw_screens(MODEL, GRID, DZ, seeds)
    for seed, got in zip(seeds, block):
        assert np.array_equal(got, fresh_philox_screen(GRID, seed, 0, 0))
        plan = PropagationPlan(GRID, MODEL, 32 * DZ, 32, 2, seed)
        assert np.array_equal(got, plan.slab_screen(0, 0).n_tilde_hat)


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
        lattice.draw(0, -1, [0])
    with pytest.raises(ValueError, match="stream"):
        lattice.draw(0, 2**64, [0])
    for indices in ([0, -1], [2**64]):
        with pytest.raises(ValueError, match="screen index"):
            lattice.draw(0, 0, indices)
    with pytest.raises(TypeError):
        lattice.draw(0, 0, [1.5])
    with pytest.raises(TypeError):
        draw_screen(MODEL, GRID, DZ, 1.5)
    assert lattice.draw(0, 0, range(0)).shape == (0,) + GRID.shape


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
