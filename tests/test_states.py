"""Gaussian-state, linear-process, and Fock-state formula tests."""

import mpmath
import numpy as np
import pytest

from ipfe.grid import FrequencyGrid, Spectrum
from ipfe.moments import MomentKernel, hierarchy_rhs
from ipfe.spectrum import (DivergentLambdaError, SpectrumKind,
                           TurbulenceModel, lambda_grid, psd_lattice)
from ipfe.states import (_DRIFT_PROBE_SEED, _DRIFT_PROBES, DEFAULT_N0,
                         FockSpec, GaussianState, LinearProcess,
                         characteristic_of_gaussian,
                         evaluate_linear_process, fock_generating,
                         fock_wigner, free_space_gaussian, gaussian_drift,
                         shift_decay, wigner_linear_process)

GRID = FrequencyGrid(1, 8, 0.25, 1.55e-6)
MODEL = TurbulenceModel(SpectrumKind.VON_KARMAN, 9.2e-15, 1.0)


def random_state(seed, scale=0.3):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a = 2.0 * GRID.delta_weight * np.eye(8) + scale * 0.5 * (m + m.conj().T)
    zeros = np.zeros((8, 8), dtype=complex)
    return GaussianState(GRID, a, zeros.copy(), zeros.copy(),
                         np.zeros(8), np.zeros(8))


def test_free_space_identity_and_diagonal_invariance():
    vac = GaussianState.vacuum(GRID)
    same = free_space_gaussian(vac, 0.0)
    assert np.array_equal(same.a_kernel, vac.a_kernel)
    moved = free_space_gaussian(vac, 500.0)
    assert np.allclose(moved.a_kernel, vac.a_kernel, rtol=1e-14)


def test_free_space_b_kernel_phase():
    state = GaussianState.vacuum(GRID)
    state.b_kernel[2, 5] = 1.0
    z = 300.0
    out = free_space_gaussian(state, z)
    asq = GRID.freq_sq()
    expected = np.exp(-1j * np.pi * GRID.wavelength * z
                      * (asq[2] + asq[5]))
    assert out.b_kernel[2, 5] == pytest.approx(expected, rel=1e-14)


def test_free_space_norms_and_additivity():
    state = random_state(1)
    state.beta = np.linspace(0, 1, 8).astype(complex)
    state.eta = np.linspace(1, 0, 8).astype(complex)
    out = free_space_gaussian(state, 700.0)
    assert np.allclose(np.abs(out.a_kernel), np.abs(state.a_kernel),
                       rtol=1e-14)
    two_step = free_space_gaussian(free_space_gaussian(state, 300.0), 400.0)
    assert np.allclose(two_step.a_kernel, out.a_kernel, rtol=1e-14,
                       atol=1e-14)
    assert np.allclose(two_step.beta, out.beta, rtol=1e-14)


def test_gaussian_drift_stationary_on_diagonal():
    for width in (2.0, 0.7, 5.0):
        state = GaussianState.thermal(GRID, width)
        rhs, fourth = gaussian_drift(state, MODEL)
        scale = (GRID.wavenumber ** 2 * lambda_grid(MODEL, GRID)
                 * np.max(np.abs(state.a_kernel)))
        assert np.max(np.abs(rhs)) < 1e-12 * scale
        assert fourth < 1e-12


def test_gaussian_drift_loop_oracle():
    """Second-order right-hand side vs explicit modular-index loops."""
    state = random_state(2)
    rhs, _ = gaussian_drift(state, MODEL)
    n = GRID.n
    asq = GRID.freq_sq()
    phi = psd_lattice(MODEL, GRID)
    lam = lambda_grid(MODEL, GRID)
    k = GRID.wavenumber
    oracle = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            acc = 0.0j
            for t in range(n):
                s = t - n // 2
                acc += phi[t] * state.a_kernel[(i + s) % n, (j + s) % n]
            oracle[i, j] = (1j * np.pi * GRID.wavelength
                            * (asq[i] - asq[j]) * state.a_kernel[i, j]
                            - k ** 2 * lam * state.a_kernel[i, j]
                            + k ** 2 * acc * GRID.cell)
    assert np.max(np.abs(rhs - oracle)) < 1e-12 * np.max(np.abs(oracle))


def drift_probe_loop(state, model):
    """gaussian_drift with its probes drawn and correlated one at a time,
    the way it was first written."""
    grid = state.grid
    size = grid.n ** grid.dim
    a_mat = state.a_kernel
    lam_d = lambda_grid(model, grid)
    phi = psd_lattice(model, grid)
    h11 = MomentKernel((1, 1), grid, a_mat.reshape(grid.shape * 2))
    rhs = hierarchy_rhs(h11, model).values.reshape(size, size)

    def correlate(x, y):
        x, y = x.reshape(grid.shape), y.reshape(grid.shape)
        return np.fft.fftshift(np.fft.ifftn(
            np.fft.fftn(x) * np.conj(np.fft.fftn(np.conj(y)))))

    rng = np.random.Generator(np.random.Philox(
        key=np.array([_DRIFT_PROBE_SEED, 0], dtype=np.uint64)))
    n = grid.n
    cell = grid.cell
    residuals = []
    for _ in range(_DRIFT_PROBES):
        av = (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        q = correlate(np.conj(av) @ a_mat, av) * cell ** 2
        r = correlate(a_mat @ av, np.conj(av)) * cell ** 2
        qn = float(np.abs(np.conj(av)) @ np.abs(a_mat) @ np.abs(av)
                   * cell ** 2)
        neg = np.ix_(*[(n - np.arange(n)) % n] * grid.dim)
        bracket = q * q[neg] + r * r[neg] - 2.0 * r * q
        raw = np.abs(np.sum(phi * bracket) * cell)
        denom = lam_d * qn ** 2
        residuals.append(raw / denom if denom > 0 else raw)
    return rhs, float(np.sqrt(np.mean(np.square(residuals))))


def drift_states(grid):
    """The vacuum, three thermal widths, the perturbed vacuum of the
    stationarity check and a random Hermitian kernel on grid."""
    cases = [GaussianState.vacuum(grid)]
    cases += [GaussianState.thermal(grid, w) for w in (1.0, 3.0, 5.0)]
    perturbed = GaussianState.thermal(grid, 2.0)
    i, j = grid.n // 2 + 1, grid.n // 2 - 2
    perturbed.a_kernel[i, j] += 1e-3 * grid.delta_weight
    perturbed.a_kernel[j, i] += 1e-3 * grid.delta_weight
    cases.append(perturbed)
    size = grid.n ** grid.dim
    rng = np.random.default_rng(2)
    m = rng.standard_normal((size, size)) + 1j * rng.standard_normal(
        (size, size))
    a = 2.0 * grid.delta_weight * np.eye(size) + 0.15 * (m + m.conj().T)
    zeros = np.zeros((size, size), dtype=complex)
    cases.append(GaussianState(grid, a, zeros.copy(), zeros.copy(),
                               np.zeros(size), np.zeros(size)))
    return cases


@pytest.mark.parametrize("grid", [GRID, FrequencyGrid(1, 32, 0.25, 1.55e-6),
                                  FrequencyGrid(2, 4, 0.25, 1.55e-6)],
                         ids=["1d-8", "1d-32", "2d-4"])
def test_gaussian_drift_matches_probe_loop(grid):
    # The batched probes keep the per-probe arithmetic, so both outputs
    # keep every bit.
    for state in drift_states(grid):
        rhs, fourth = gaussian_drift(state, MODEL)
        want_rhs, want_fourth = drift_probe_loop(state, MODEL)
        assert np.array_equal(rhs.view(np.uint64), want_rhs.view(np.uint64))
        assert fourth == want_fourth


def test_gaussian_drift_rejects_shifts_and_kolmogorov():
    state = GaussianState.vacuum(GRID)
    state.beta[0] = 1.0
    with pytest.raises(ValueError, match="beta"):
        gaussian_drift(state, MODEL)
    with pytest.raises(DivergentLambdaError, match="divergent"):
        gaussian_drift(GaussianState.vacuum(GRID),
                       TurbulenceModel(SpectrumKind.KOLMOGOROV, 1e-14))


def test_shift_decay_closed_form():
    rng = np.random.default_rng(3)
    beta0 = Spectrum(GRID, rng.standard_normal(8) + 1j)
    eta0 = Spectrum(GRID, rng.standard_normal(8) - 0.5j)
    b_same, e_same = shift_decay(beta0, eta0, MODEL, 0.0)
    assert np.array_equal(b_same.values, beta0.values)
    k2lam = GRID.wavenumber ** 2 * lambda_grid(MODEL, GRID)
    z = 1.0 / k2lam
    b, e = shift_decay(beta0, eta0, MODEL, z)
    assert np.allclose(np.abs(b.values) / np.abs(beta0.values),
                       np.exp(-1.0), rtol=1e-12)
    phase = np.exp(1j * np.pi * GRID.wavelength * z * GRID.freq_sq())
    assert np.allclose(b.values, beta0.values * phase * np.exp(-1.0),
                       rtol=1e-12)
    assert np.allclose(e.values, eta0.values * phase * np.exp(-1.0),
                       rtol=1e-12)


def test_shift_decay_kolmogorov_limit():
    beta0 = Spectrum(GRID, np.ones(8, dtype=complex))
    b, e = shift_decay(beta0, beta0,
                       TurbulenceModel(SpectrumKind.KOLMOGOROV, 1e-14), 1e-9)
    assert np.all(b.values == 0.0)
    assert np.all(e.values == 0.0)


def test_characteristic_vacuum_self_dual():
    vac = GaussianState.vacuum(GRID)
    dual, log_norm = characteristic_of_gaussian(vac)
    assert np.allclose(dual.a_kernel, vac.a_kernel, rtol=1e-12)
    assert abs(log_norm) < 1e-12


def test_characteristic_thermal_width_map_and_involution():
    thermal = GaussianState.thermal(GRID, 5.0)
    dual, _ = characteristic_of_gaussian(thermal)
    expected = (4.0 / 5.0) * GRID.delta_weight * np.eye(8)
    assert np.allclose(dual.a_kernel, expected, rtol=1e-12)
    back, _ = characteristic_of_gaussian(dual)
    assert np.allclose(back.a_kernel, thermal.a_kernel, rtol=1e-10)


def test_characteristic_rejects_bad_kernels():
    state = GaussianState.vacuum(GRID)
    state.a_kernel = -state.a_kernel
    with pytest.raises(ValueError, match="positive definite"):
        characteristic_of_gaussian(state)
    state2 = GaussianState.vacuum(GRID)
    state2.b_kernel[0, 0] = 1.0
    with pytest.raises(ValueError, match="B = C = 0"):
        characteristic_of_gaussian(state2)


def test_linear_process_zero_and_diagonal():
    zero = LinearProcess(GRID, np.zeros((8, 8)))
    log_norm, b_lin = wigner_linear_process(zero)
    assert log_norm == 0.0
    assert np.allclose(b_lin, 2.0 * GRID.delta_weight * np.eye(8),
                       rtol=1e-14)
    theta = 1.1
    diag = LinearProcess(GRID, np.exp(1j * theta) * GRID.delta_weight
                         * np.eye(8))
    _, b_diag = wigner_linear_process(diag)
    expected = -2j * np.tan(theta / 2.0) * GRID.delta_weight * np.eye(8)
    assert np.allclose(b_diag, expected, rtol=1e-12)


def test_linear_process_dense_oracle():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    # keep eigenvalues of the operator inside (-1, 1) so 1 + T is regular
    proc = LinearProcess(GRID, 0.05 * (m + m.conj().T) * GRID.delta_weight)
    top = proc.operator()
    evals, evecs = np.linalg.eigh(top)
    for _ in range(10):
        av = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        w = evaluate_linear_process(proc, Spectrum(GRID, av))
        coeff = evecs.conj().T @ av
        quad = np.sum(np.abs(coeff) ** 2 * 2.0 * (1.0 - evals)
                      / (1.0 + evals)) * GRID.cell
        oracle = np.exp(-np.sum(np.log(1.0 + evals)) - quad)
        assert w == pytest.approx(oracle, rel=1e-10)


def test_linear_process_singular():
    singular = LinearProcess(GRID, -GRID.delta_weight * np.eye(8))
    with pytest.raises(np.linalg.LinAlgError, match="condition"):
        wigner_linear_process(singular)


def fock_pair():
    prof = np.exp(-GRID.freq_sq()).astype(complex)
    return FockSpec.normalized(GRID, prof)


def test_fock_spec_validation():
    prof = np.exp(-GRID.freq_sq()).astype(complex)
    with pytest.raises(ValueError, match="not normalized"):
        FockSpec(GRID, prof, 1)
    with pytest.raises(ValueError, match=">= 0"):
        FockSpec.normalized(GRID, prof, -1)


def test_fock_generating_special_values():
    fock = fock_pair()
    alpha = Spectrum(GRID, 0.2 * fock.profile)
    assert fock_generating(0.0, fock, alpha) == pytest.approx(
        np.exp(-2.0 * alpha.norm_sq), rel=1e-14)
    zero_alpha = Spectrum(GRID, np.zeros(8))
    assert fock_generating(0.7, fock, zero_alpha) == pytest.approx(
        1.0 / 1.7, rel=1e-14)
    with pytest.raises(ZeroDivisionError):
        fock_generating(-1.0, fock, alpha)


def test_fock_wigner_values():
    fock = fock_pair()
    zero_alpha = Spectrum(GRID, np.zeros(8))
    assert fock_wigner(0, fock, zero_alpha) == 1.0
    assert fock_wigner(1, fock, zero_alpha) == -1.0
    # alpha proportional to F with |<alpha, F>|^2 = 1/4: Laguerre root
    alpha = Spectrum(GRID, 0.5 * fock.profile)
    assert fock_wigner(1, fock, alpha) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError, match=">= 0"):
        fock_wigner(-1, fock, zero_alpha)
    # Orders 0-8 against the explicit Laguerre sum in mpmath, for 4|<alpha,
    # F>|^2 from 0 to 16 (mpmath.laguerre fails to converge at roots).
    mpmath.mp.dps = 30
    for scale in np.linspace(0.0, 2.0, 20):
        alpha = Spectrum(GRID, scale * fock.profile)
        x = mpmath.mpf(4.0 * abs(np.sum(np.conj(alpha.values) * fock.profile)
                                 * GRID.cell) ** 2)
        decay = DEFAULT_N0 * mpmath.exp(-2 * mpmath.mpf(alpha.norm_sq))
        for n in range(9):
            laguerre = mpmath.fsum(mpmath.binomial(n, k) * (-x) ** k
                                   / mpmath.factorial(k)
                                   for k in range(n + 1))
            want = (-1) ** n * laguerre * decay
            err = abs(fock_wigner(n, fock, alpha) - want)
            assert err <= 1e-13 * max(1, abs(laguerre)) * decay, (scale, n)


def test_fock_finite_difference_consistency():
    fock = fock_pair()
    rng = np.random.default_rng(5)
    alpha = Spectrum(GRID, 0.3 * (rng.standard_normal(8)
                                  + 1j * rng.standard_normal(8)))
    h1, h2 = 1e-5, 1e-4
    gen = lambda e: fock_generating(e, fock, alpha)  # noqa: E731
    fd = [gen(0.0),
          (gen(h1) - gen(-h1)) / (2.0 * h1),
          (gen(h2) - 2.0 * gen(0.0) + gen(-h2)) / h2 ** 2 / 2.0]
    for order in range(3):
        direct = fock_wigner(order, fock, alpha)
        assert fd[order] == pytest.approx(direct, rel=1e-6)
