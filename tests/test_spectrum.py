"""Spectrum-model tests against independent high-precision oracles."""

import mpmath
import numpy as np
import pytest

from ipfe.grid import FrequencyGrid
from ipfe.spectrum import (DivergentLambdaError, SpectrumKind,
                           TurbulenceModel, lambda_grid, lambda_total,
                           lambda_total_1d, psd_3d, psd_lattice,
                           psd_transverse)

KOL = TurbulenceModel(SpectrumKind.KOLMOGOROV, 1e-14)
VK = TurbulenceModel(SpectrumKind.VON_KARMAN, 1e-14, 10.0)


def test_kolmogorov_power_law_ratio():
    ratio = (psd_3d(KOL, [0.0, 0.0, 2.0]) / psd_3d(KOL, [0.0, 0.0, 1.0]))
    assert ratio == pytest.approx(2.0 ** (-11.0 / 3.0), rel=1e-12)


def test_zero_cn2_is_zero_everywhere():
    model = TurbulenceModel(SpectrumKind.KOLMOGOROV, 0.0)
    assert psd_3d(model, [0.3, -1.2, 0.7]) == 0.0
    assert psd_transverse(model, 0.0) == 0.0
    vk0 = TurbulenceModel(SpectrumKind.VON_KARMAN, 0.0, 10.0)
    assert lambda_total(vk0) == 0.0
    assert lambda_total_1d(vk0) == 0.0


def test_von_karman_value_mpmath_oracle():
    # independent arbitrary-precision evaluation at |k| = 1 rad/m
    mpmath.mp.dps = 40
    cn2 = mpmath.mpf("1e-14")
    kappa0 = 2 * mpmath.pi / 10
    expected = (mpmath.mpf("0.033") * (2 * mpmath.pi) ** 3 * cn2
                * (1 + kappa0 ** 2) ** (mpmath.mpf(-11) / 6))
    got = psd_3d(VK, [1.0, 0.0, 0.0])
    assert got == pytest.approx(float(expected), rel=1e-13)


def test_transverse_is_3d_slice():
    for a in (0.1, 0.8, 3.0):
        assert psd_transverse(KOL, a) == pytest.approx(
            psd_3d(KOL, [2.0 * np.pi * a, 0.0, 0.0]), rel=1e-14)


def test_von_karman_finite_at_dc():
    expected = (0.033 * (2.0 * np.pi) ** 3 * VK.cn2
                * (2.0 * np.pi / 10.0) ** (-11.0 / 3.0))
    assert psd_transverse(VK, 0.0) == pytest.approx(expected, rel=1e-13)


def test_kolmogorov_singular_at_origin():
    with pytest.raises(ValueError, match="singular at zero frequency"):
        psd_3d(KOL, [0.0, 0.0, 0.0])


def test_lambda_divergent_for_kolmogorov():
    with pytest.raises(DivergentLambdaError, match="divergent"):
        lambda_total(KOL)
    with pytest.raises(DivergentLambdaError):
        lambda_total_1d(KOL)


def test_lambda_total_closed_form():
    kappa0 = 2.0 * np.pi / 10.0
    closed = (0.033 * (2.0 * np.pi) ** 2 * (3.0 / 5.0) * VK.cn2
              * kappa0 ** (-5.0 / 3.0))
    assert lambda_total(VK) == pytest.approx(closed, rel=1e-8)


# Inner scales of the quadrature sweep, as functions of the outer scale.
INNER_SCALES = {"0": lambda L0: 0.0, "1mm": lambda L0: 1e-3,
                "0.01L0": lambda L0: 0.01 * L0, "0.1L0": lambda L0: 0.1 * L0,
                "L0": lambda L0: L0}


@pytest.mark.parametrize("l0_name", list(INNER_SCALES))
@pytest.mark.parametrize("outer_scale", [0.1, 1.0, 10.0, 100.0, 1000.0],
                         ids=lambda L0: f"L0={L0:g}")
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_lambda_total_1d_mpmath_oracle(dim, outer_scale, l0_name):
    inner_scale = INNER_SCALES[l0_name](outer_scale)
    model = TurbulenceModel(SpectrumKind.VON_KARMAN, 1e-14, outer_scale,
                            inner_scale)
    mpmath.mp.dps = 30
    cn2 = mpmath.mpf(model.cn2)
    kappa0 = 2 * mpmath.pi / mpmath.mpf(outer_scale)
    l0 = mpmath.mpf(inner_scale)

    def integrand(a):
        k_sq = (2 * mpmath.pi * a) ** 2
        weight = 2 if dim == 1 else 2 * mpmath.pi * a
        return (weight * mpmath.mpf("0.033") * (2 * mpmath.pi) ** 3 * cn2
                * (k_sq + kappa0 ** 2) ** (mpmath.mpf(-11) / 6)
                * mpmath.exp(-k_sq * l0 ** 2 / 35))

    # Split at the outer-scale knee and at the inner-scale cutoff.
    breaks = [kappa0 / (2 * mpmath.pi)]
    if inner_scale > 0.0:
        breaks.append(mpmath.sqrt(35) / (2 * mpmath.pi * l0))
    oracle = mpmath.quad(integrand, [0] + sorted(breaks) + [mpmath.inf])
    got = lambda_total_1d(model) if dim == 1 else lambda_total(model)
    assert got == pytest.approx(float(oracle), rel=1e-12)


def test_isotropy_random_rotations():
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = rng.standard_normal(3)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert psd_3d(VK, k) == pytest.approx(psd_3d(VK, q @ k), rel=1e-12)


def test_von_karman_monotonic_in_k():
    k = np.linspace(0.0, 50.0, 400)
    values = VK.psd_magnitude(k)
    assert np.all(np.diff(values) < 0.0)


def test_cn2_scaling_and_linearity():
    double = TurbulenceModel(SpectrumKind.VON_KARMAN, 2e-14, 10.0)
    k = np.array([0.3, 1.0, 12.0])
    assert np.allclose(double.psd_magnitude(k), 2.0 * VK.psd_magnitude(k),
                       rtol=1e-15)
    assert lambda_total(double) == pytest.approx(2.0 * lambda_total(VK),
                                                 rel=1e-12)


def test_inner_scale_rolloff():
    with_l0 = TurbulenceModel(SpectrumKind.VON_KARMAN, 1e-14, 10.0,
                              inner_scale=0.01)
    k = 30.0
    expected = VK.psd_magnitude(k) * np.exp(-k ** 2 * 0.01 ** 2 / 35.0)
    assert with_l0.psd_magnitude(k) == pytest.approx(expected, rel=1e-14)


def test_model_validation():
    with pytest.raises(ValueError):
        TurbulenceModel(SpectrumKind.VON_KARMAN, 1e-14)  # missing L0
    with pytest.raises(ValueError):
        TurbulenceModel(SpectrumKind.KOLMOGOROV, -1.0)
    with pytest.raises(ValueError):
        TurbulenceModel(SpectrumKind.VON_KARMAN, 1e-14, 10.0,
                        inner_scale=-1.0)


def test_lattice_sum_converges_to_continuum():
    coarse = FrequencyGrid(1, 64, 0.25, 1.55e-6)
    fine = FrequencyGrid(1, 512, 0.0625, 1.55e-6)
    target = lambda_total_1d(VK)
    err_coarse = abs(lambda_grid(VK, coarse) / target - 1.0)
    err_fine = abs(lambda_grid(VK, fine) / target - 1.0)
    assert err_fine < err_coarse
    assert err_fine < 1e-3


def test_psd_lattice_matches_pointwise():
    grid = FrequencyGrid(1, 8, 0.5, 1.55e-6)
    values = psd_lattice(VK, grid)
    for j, a in enumerate(grid.axis_frequencies()):
        assert values[j] == pytest.approx(psd_transverse(VK, a), rel=1e-14)
