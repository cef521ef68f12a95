"""Lattice, contraction, and transform-pair tests."""

import numpy as np
import pytest

from ipfe.grid import (FrequencyGrid, Spectrum, contract, to_frequency,
                       to_position)

GRID = FrequencyGrid(1, 8, 0.5, 1.55e-6)
GRID2 = FrequencyGrid(2, 8, 0.5, 1.55e-6)


def test_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(3, 8, 0.5, 1.55e-6)
    with pytest.raises(ValueError):
        FrequencyGrid(1, 12, 0.5, 1.55e-6)  # not a power of 2
    with pytest.raises(ValueError):
        FrequencyGrid(1, 8, -0.5, 1.55e-6)


def test_wavenumber_and_spacings():
    assert GRID.wavenumber == pytest.approx(2.0 * np.pi / 1.55e-6, rel=1e-15)
    assert GRID.delta_x == pytest.approx(1.0 / (8 * 0.5), rel=1e-15)
    assert GRID2.cell == 0.25
    assert GRID2.delta_weight == 4.0
    freqs = GRID.axis_frequencies()
    assert freqs[0] == -2.0 and freqs[4] == 0.0  # DC-centered, even n


def test_free_space_phase_is_unit_modulus_and_advances_with_z():
    # exp(+i pi lambda z |a|^2): 1 at z = 0 and at DC, |phase| = 1, and
    # the angle grows with z at every other site (small enough z that it
    # stays below pi).
    z = 1000.0
    assert np.array_equal(GRID.free_space_phase(0.0), np.ones(8))
    for grid in (GRID, GRID2):
        phase = grid.free_space_phase(z)
        assert phase.shape == grid.shape
        assert np.allclose(np.abs(phase), 1.0, rtol=0.0, atol=1e-15)
        assert np.allclose(np.angle(phase),
                           np.pi * grid.wavelength * z * grid.freq_sq(),
                           rtol=1e-12, atol=0.0)
    assert GRID.free_space_phase(z)[4] == 1.0


def test_contract_delta_pair():
    delta = np.zeros(8)
    delta[3] = GRID.delta_weight
    f = Spectrum(GRID, delta)
    assert contract(f, f) == pytest.approx(GRID.delta_weight, rel=1e-15)


def test_contract_zero_and_oracle():
    rng = np.random.default_rng(3)
    f = Spectrum(GRID, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    g = Spectrum(GRID, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    assert contract(Spectrum(GRID, np.zeros(8)), g) == 0.0
    oracle = sum(f.values[i] * g.values[i] for i in range(8)) * 0.5
    assert contract(f, g) == pytest.approx(oracle, rel=1e-14)


def test_contract_conjugate_positive():
    rng = np.random.default_rng(4)
    f = Spectrum(GRID, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    value = contract(np.conj(f.values), f)
    assert value.imag == pytest.approx(0.0, abs=1e-14)
    assert value.real > 0.0


def test_contract_grid_mismatch():
    other = FrequencyGrid(1, 16, 0.5, 1.55e-6)
    with pytest.raises(ValueError, match="mismatch"):
        contract(Spectrum(GRID, np.ones(8)), Spectrum(other, np.ones(16)))


def test_delta_weight_reproduces_point_values():
    """1/delta_a^D is the unique weight with contract(delta_a0, f) = f(a0)."""
    rng = np.random.default_rng(5)
    f = Spectrum(GRID, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    for site in range(8):
        delta = np.zeros(8)
        delta[site] = GRID.delta_weight
        assert contract(delta, f) == pytest.approx(f.values[site], rel=1e-14)


def test_single_site_transform_oracle():
    site = 6
    values = np.zeros(8, dtype=complex)
    values[site] = 1.0
    g = to_position(Spectrum(GRID, values))
    a0 = GRID.axis_frequencies()[site]
    x = GRID.axis_positions()
    oracle = np.exp(-2j * np.pi * a0 * x) * GRID.cell
    assert np.allclose(g, oracle, atol=1e-14)


def test_uniform_spectrum_is_position_delta():
    g = to_position(Spectrum(GRID, np.ones(8)))
    # all mass at x = 0 (index n/2)
    assert abs(g[4]) == pytest.approx(8 * GRID.cell, rel=1e-12)
    off = np.delete(np.abs(g), 4)
    assert np.max(off) < 1e-12


def test_roundtrip_and_parseval():
    rng = np.random.default_rng(6)
    for _ in range(100):
        s = Spectrum(GRID2, rng.standard_normal((8, 8))
                     + 1j * rng.standard_normal((8, 8)))
        g = to_position(s)
        back = to_frequency(GRID2, g)
        assert np.allclose(back.values, s.values, rtol=1e-12, atol=1e-12)
        norm_x = np.sum(np.abs(g) ** 2) * GRID2.delta_x ** 2
        assert norm_x == pytest.approx(s.norm_sq, rel=1e-12)


def test_spectrum_shape_check():
    with pytest.raises(ValueError, match="shape"):
        Spectrum(GRID, np.ones((8, 8)))
    with pytest.raises(ValueError, match="shape"):
        to_frequency(GRID, np.ones(16))
