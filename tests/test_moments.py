"""Moment-kernel equation tests: loop oracles, stationary points,
conservation laws, integrator order, and the screen expectation the
integrator's slab reproduces."""

import threading
import tracemalloc
import warnings
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from ipfe import moments, splitstep
from ipfe._accel import (pair_multiplier, pair_shift_sum_fft,
                         pair_shift_sum_loop, shift_coefficients)
from ipfe.grid import FrequencyGrid, Spectrum
from ipfe.moments import (KernelGenerator, MomentKernel, biphoton_rhs,
                          boundary_mass_fraction, evolve_h10, evolve_h11,
                          evolve_kernel, h11_rhs, hermiticity_residual,
                          hierarchy_rhs, kernel_diagnostics, kernel_trace,
                          monitored_boundary_mass, step_guard)
from ipfe.phase_screen import ScreenLattice
from ipfe.spectrum import (DivergentLambdaError, SpectrumKind,
                           TurbulenceModel, lambda_grid, psd_lattice)
from ipfe.splitstep import (PropagationPlan, ensemble_moments,
                            free_space_step)
from ipfe.validation import REFERENCE, _naive_pair_rhs, _naive_rank4_rhs

GRID8 = FrequencyGrid(1, 8, 0.25, 1.55e-6)
GRID16 = FrequencyGrid(1, 16, 0.25, 1.55e-6)
MODEL = TurbulenceModel(SpectrumKind.VON_KARMAN, 9.2e-15, 1.0)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


def delta_diagonal(value, orders=(1, 1)):
    """The (1, 1) or (2, 2) kernel on GRID8 that pairs bra index i with
    ket index i by discrete deltas, value * delta_weight each: the
    maximally mixed stationary point, and its two-photon product."""
    eye = np.eye(GRID8.n) * value * GRID8.delta_weight
    if orders == (1, 1):
        return MomentKernel(orders, GRID8, eye)
    # (bra 1, ket 1, bra 2, ket 2) regrouped to (bra 1, bra 2, ket 1, ket 2)
    return MomentKernel(orders, GRID8,
                        np.multiply.outer(eye, eye).transpose(0, 2, 1, 3))


def rk4(rhs, values, dz, n_steps):
    """Classic fixed-step RK4 on dv/dz = rhs(v), the z-ODE oracle of the
    exponential step."""
    v = values
    for _ in range(n_steps):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * dz * k1)
        k3 = rhs(v + 0.5 * dz * k2)
        k4 = rhs(v + dz * k3)
        v = v + (dz / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


def loop_rhs(values, grid, model, orders):
    """Direct translation of the order-(m, n) equation with explicit
    modular index arithmetic, one shifted sum per index pair (any grid
    dimension: each kernel index is a D-tuple of lattice sites)."""
    m, n = orders
    d = grid.dim
    nn = grid.n
    asq = grid.freq_sq()
    phi = psd_lattice(model, grid)
    lam = lambda_grid(model, grid)
    k = grid.wavenumber
    offsets = [(tuple(t - nn // 2 for t in ts), phi[ts] * grid.cell)
               for ts in np.ndindex(phi.shape) if phi[ts] != 0.0]

    def moved(sites, i, j, s, sign):
        out = list(sites)
        out[i] = tuple((a + o) % nn for a, o in zip(sites[i], s))
        out[j] = tuple((a + sign * o) % nn for a, o in zip(sites[j], s))
        return sum(out, ())

    out = np.zeros_like(values)
    for idx in np.ndindex(values.shape):
        sites = [idx[p * d:(p + 1) * d] for p in range(m + n)]
        drift = (sum(asq[a] for a in sites[:m])
                 - sum(asq[a] for a in sites[m:]))
        acc = (1j * np.pi * grid.wavelength * drift
               - 0.5 * k ** 2 * lam * (m + n)) * values[idx]
        for s, w in offsets:
            for i in range(m):
                for j in range(i + 1, m):
                    acc -= k ** 2 * w * values[moved(sites, i, j, s, -1)]
            for i in range(n):
                for j in range(i + 1, n):
                    acc -= k ** 2 * w * values[
                        moved(sites, m + i, m + j, s, -1)]
            for i in range(m):
                for j in range(n):
                    acc += k ** 2 * w * values[moved(sites, i, m + j, s, +1)]
        out[idx] = acc
    return out


def test_delta_diagonal_is_stationary():
    kernel = delta_diagonal(1.3)
    rhs = h11_rhs(kernel, MODEL)
    scale = (GRID8.wavenumber ** 2 * lambda_grid(MODEL, GRID8)
             * np.max(np.abs(kernel.values)))
    assert np.max(np.abs(rhs.values)) < 1e-12 * scale
    out = evolve_h11(kernel, MODEL, 1000.0, 32)
    assert np.allclose(out.values, kernel.values, rtol=1e-10)


def test_free_space_rhs_is_pure_drift():
    zero = TurbulenceModel(SpectrumKind.VON_KARMAN, 0.0, 1.0)
    h = MomentKernel((1, 1), GRID8, random_hermitian(8, 1))
    rhs = h11_rhs(h, zero)
    asq = GRID8.freq_sq()
    drift = 1j * np.pi * GRID8.wavelength * (asq[:, None] - asq[None, :])
    assert np.array_equal(rhs.values, drift * h.values)


def test_h11_rhs_loop_oracle():
    h = MomentKernel((1, 1), GRID8, random_hermitian(8, 2))
    oracle = loop_rhs(h.values, GRID8, MODEL, (1, 1))
    rhs = h11_rhs(h, MODEL)
    assert np.max(np.abs(rhs.values - oracle)) < 1e-12


def test_h11_rhs_trace_free_and_hermiticity_closure():
    h = MomentKernel((1, 1), GRID8, random_hermitian(8, 3))
    rhs = h11_rhs(h, MODEL)
    assert abs(kernel_trace(rhs)) < 1e-8 * abs(kernel_trace(h))
    eps = 1e-3
    stepped = MomentKernel((1, 1), GRID8, h.values + eps * rhs.values)
    assert hermiticity_residual(stepped) < 1e-12


def test_hierarchy_specializations():
    h = MomentKernel((1, 1), GRID8, random_hermitian(8, 4))
    assert np.array_equal(hierarchy_rhs(h, MODEL).values,
                          h11_rhs(h, MODEL).values)
    h00 = MomentKernel((0, 0), GRID8, np.array(2.7 + 0j))
    assert np.all(hierarchy_rhs(h00, MODEL).values == 0.0)
    with pytest.raises(ValueError, match="order"):
        hierarchy_rhs(
            MomentKernel((3, 2), GRID8, np.zeros((8,) * 5)), MODEL)


ORACLE_CASES = [(1, (1, 0)), (1, (0, 1)), (1, (2, 0)), (1, (0, 2)),
                (1, (1, 1)), (1, (2, 1)), (1, (1, 2)), (1, (2, 2)),
                (2, (1, 1))]


@pytest.mark.parametrize("dim, orders", ORACLE_CASES,
                         ids=[f"{d}d-{m}-{n}" for d, (m, n) in ORACLE_CASES])
def test_rhs_matches_loop_oracle(dim, orders):
    grid = FrequencyGrid(dim, 8, 0.25, 1.55e-6)
    shape = (8,) * (dim * sum(orders))
    rng = np.random.default_rng(5)
    h = MomentKernel(orders, grid, rng.standard_normal(shape)
                     + 1j * rng.standard_normal(shape))
    rhs = hierarchy_rhs(h, MODEL)
    oracle = loop_rhs(h.values, grid, MODEL, orders)
    assert np.max(np.abs(rhs.values - oracle)) < 1e-12


def test_biphoton_loop_oracle_and_symmetry_guard():
    rng = np.random.default_rng(6)
    raw = rng.standard_normal((8,) * 4) + 1j * rng.standard_normal((8,) * 4)
    sym = raw + raw.transpose(1, 0, 2, 3)
    sym = sym + sym.transpose(0, 1, 3, 2)
    f = MomentKernel((2, 2), GRID8, sym)
    rhs = biphoton_rhs(f, MODEL)
    oracle = loop_rhs(sym, GRID8, MODEL, (2, 2))
    assert np.max(np.abs(rhs.values - oracle)) < 1e-12
    asymmetric = MomentKernel((2, 2), GRID8, raw)
    with pytest.raises(ValueError, match="exchange symmetry"):
        biphoton_rhs(asymmetric, MODEL)
    with pytest.raises(ValueError, match="exchange symmetry"):
        evolve_kernel(asymmetric, MODEL, 100.0, 4)


def test_exchange_symmetry_checked_once_per_input(monkeypatch):
    # A chain of spans computes the exchange residual for its input alone:
    # each output carries its generator, which a dataclasses.replace copy
    # does not, so the copy is checked again and refused once edited.
    residuals = []
    check = moments._check_biphoton
    monkeypatch.setattr(moments, "_check_biphoton",
                        lambda kernel: residuals.append(kernel) or
                        check(kernel))
    start = gaussian_kernel(1, 16, (2, 2))
    first = evolve_quietly(start, 250.0, 8)
    second = evolve_quietly(first, 250.0, 8)
    assert len(residuals) == 1 and residuals[0] is start
    copy = replace(second)
    evolve_quietly(copy, 250.0, 8)
    assert len(residuals) == 2 and residuals[1] is copy
    # Symmetry to rounding passes the residual's tolerance; more does not.
    edited = replace(second, values=second.values.copy())
    edited.values[1, 0, 0, 0] *= 1 + 1e-12
    evolve_quietly(edited, 250.0, 8)
    edited = replace(edited)
    edited.values[1, 0, 0, 0] += 1.0
    with pytest.raises(ValueError, match="exchange symmetry"):
        evolve_quietly(edited, 250.0, 8)


def test_input_edited_after_evolving_is_checked_again():
    # Evolving a kernel leaves its own record empty, so an in-place edit
    # of it between two calls is seen by the second.
    kernel = gaussian_kernel(1, 16, (2, 2))
    evolve_quietly(kernel, 250.0, 8)
    assert kernel.generator is None
    kernel.values[1, 0, 0, 0] += 1.0
    with pytest.raises(ValueError, match="exchange symmetry"):
        evolve_quietly(kernel, 250.0, 8)


@pytest.mark.parametrize("value", [1 + 0j, -2.5 + 0j])
def test_order_zero_kernel_evolves(value):
    # The (0, 0) kernel is a number: no index drifts or scatters, so it
    # keeps its bits, and a real one is Hermitian.
    kernel = MomentKernel((0, 0), REFERENCE.grid, np.array(value))
    out = evolve_kernel(kernel, REFERENCE.model, 250.0, 32)
    assert out.values.shape == ()
    assert out.values.tobytes() == kernel.values.tobytes()
    assert out.hermiticity == 0.0
    assert hermiticity_residual(kernel) == 0.0
    assert out.boundary_mass == 0.0


def seven_term_loop_rhs(values, grid, model):
    """The two-photon bracket of validation._naive_rank4_rhs as the
    scalar loop over every site and shift it was first written as."""
    n = grid.n
    asq = grid.freq_sq()
    phi = psd_lattice(model, grid)
    k = grid.wavenumber
    out = np.zeros_like(values)
    f = values
    for b1 in range(n):
        for b2 in range(n):
            for k1 in range(n):
                for k2 in range(n):
                    acc = 0.0j
                    for t in range(n):
                        s = t - n // 2
                        w = phi[t]
                        if w == 0.0:
                            continue
                        acc += w * (
                            2.0 * f[b1, b2, k1, k2]
                            - f[(b1 - s) % n, b2, (k1 - s) % n, k2]
                            - f[b1, (b2 - s) % n, k1, (k2 - s) % n]
                            - f[(b1 - s) % n, b2, k1, (k2 - s) % n]
                            - f[b1, (b2 - s) % n, (k1 - s) % n, k2]
                            + f[(b1 - s) % n, (b2 + s) % n, k1, k2]
                            + f[b1, b2, (k1 - s) % n, (k2 + s) % n])
                    drift = (asq[b1] + asq[b2] - asq[k1] - asq[k2])
                    out[b1, b2, k1, k2] = (
                        1j * np.pi * grid.wavelength * drift
                        * f[b1, b2, k1, k2]
                        - k ** 2 * acc * grid.cell)
    return out


def test_rank4_oracle_is_the_seven_term_loop():
    # The vectorized oracle of the rhs-oracles check keeps the loop's
    # arithmetic, term by term, so it equals it bit for bit.
    grid = FrequencyGrid(1, 4, 0.25, 1.55e-6)
    rng = np.random.default_rng(7)
    f = rng.standard_normal((4,) * 4) + 1j * rng.standard_normal((4,) * 4)
    assert np.array_equal(_naive_rank4_rhs(f, grid, MODEL),
                          seven_term_loop_rhs(f, grid, MODEL))


def h11_loop_rhs(values, grid, model):
    """The (1,1) right-hand side of validation._naive_pair_rhs (sign -1)
    as the scalar triple loop over (i, j) and the shift it was first
    written as."""
    n = grid.n
    asq = grid.freq_sq()
    phi = psd_lattice(model, grid)
    lam = lambda_grid(model, grid)
    k = grid.wavenumber
    out = np.zeros_like(values)
    for i in range(n):
        for j in range(n):
            acc = 0.0j
            for t in range(n):
                s = t - n // 2
                acc += phi[t] * values[(i + s) % n, (j + s) % n]
            out[i, j] = (1j * np.pi * grid.wavelength * (asq[i] - asq[j])
                         * values[i, j]
                         - k ** 2 * lam * values[i, j]
                         + k ** 2 * acc * grid.cell)
    return out


def h20_loop_rhs(values, grid, model):
    """The (2,0) right-hand side of validation._naive_pair_rhs (sign +1)
    as the same scalar triple loop."""
    n = grid.n
    asq = grid.freq_sq()
    phi = psd_lattice(model, grid)
    lam = lambda_grid(model, grid)
    k = grid.wavenumber
    out = np.zeros_like(values)
    for i in range(n):
        for j in range(n):
            acc = 0.0j
            for t in range(n):
                s = t - n // 2
                acc += phi[t] * values[(i + s) % n, (j - s) % n]
            out[i, j] = (1j * np.pi * grid.wavelength * (asq[i] + asq[j])
                         * values[i, j]
                         - k ** 2 * lam * values[i, j]
                         - k ** 2 * acc * grid.cell)
    return out


@pytest.mark.parametrize("n", [8, 16])
def test_pair_oracle_is_the_triple_loop(n):
    # The vectorized rank-2 oracle of the rhs-oracles check sums the
    # shifts in the loop's order, so it equals it bit for bit.
    grid = FrequencyGrid(1, n, 0.25, 1.55e-6)
    rng = np.random.default_rng(11)
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for sign, loop in ((-1, h11_loop_rhs), (1, h20_loop_rhs)):
        got = _naive_pair_rhs(f, grid, MODEL, sign)
        want = loop(f, grid, MODEL)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_biphoton_product_delta_kernel_stationary():
    # exchange-symmetrized product of pairing deltas
    product = delta_diagonal(0.9, orders=(2, 2)).values
    f = MomentKernel((2, 2), GRID8, product + product.transpose(0, 1, 3, 2))
    rhs = biphoton_rhs(f, MODEL)
    scale = (GRID8.wavenumber ** 2 * lambda_grid(MODEL, GRID8)
             * np.max(np.abs(f.values)))
    assert np.max(np.abs(rhs.values)) < 1e-12 * scale


def test_biphoton_memory_bound():
    # The byte bound admits the (2, 2) kernel at n = 32 ...
    grid32 = FrequencyGrid(1, 32, 0.25, 1.55e-6)
    out = evolve_kernel(MomentKernel((2, 2), grid32, np.zeros((32,) * 4)),
                        MODEL, 31.25, 1)
    assert out.values.shape == (32,) * 4
    # ... and refuses it at n = 64 before allocating: the tensor is a
    # read-only view of one element.
    grid64 = FrequencyGrid(1, 64, 0.25, 1.55e-6)
    view = np.broadcast_to(np.complex128(1.0), (64,) * 4)
    kernel = MomentKernel((2, 2), grid64, view)
    assert kernel.values.base is not None
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="GiB limit"):
            biphoton_rhs(kernel, MODEL)
        with pytest.raises(ValueError, match="GiB limit"):
            evolve_kernel(kernel, MODEL, 100.0, 4)
        with pytest.raises(ValueError, match="GiB limit"):
            KernelGenerator.build(kernel, MODEL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("dim, orders", [(1, (2, 2)), (2, (1, 1))],
                         ids=["1d-2-2", "2d-1-1"])
def test_kernel_working_set_within_the_byte_estimate(dim, orders):
    # The refusal rests on this per-element estimate, input included.
    kernel = gaussian_kernel(dim, 16, orders)
    limit = moments._KERNEL_BYTES_PER_ELEMENT * kernel.values.size
    for run in (lambda: evolve_kernel(kernel, MODEL, 250.0, 16),
                lambda: hierarchy_rhs(kernel, MODEL)):
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak + kernel.values.nbytes <= limit


def roll_loop_rhs(values, grid, model, orders):
    """Order-(m, n) right-hand side of a 1-D kernel assembled pair by pair
    from the roll-loop shift sum."""
    m, n = orders
    k = grid.wavenumber
    asq = grid.freq_sq()
    drift = np.zeros(values.shape)
    for p in range(m + n):
        shape = [1] * values.ndim
        shape[p] = grid.n
        drift = drift + (1.0 if p < m else -1.0) * asq.reshape(shape)
    out = (1j * np.pi * grid.wavelength * drift
           - 0.5 * k ** 2 * lambda_grid(model, grid) * (m + n)) * values
    phi = psd_lattice(model, grid)
    for i, j in combinations(range(m + n), 2):
        sign = -1 if (i < m) == (j < m) else 1
        out += sign * k ** 2 * grid.cell * pair_shift_sum_loop(
            values, [i], [j], phi, sign)
    return out


@pytest.fixture(scope="module")
def biphoton_run():
    """A product-Gaussian (2, 2) kernel and the (1, 1) kernel of the same
    source on the n = 16 bi-photon grid, evolved over z = 1000 in 32
    steps."""
    grid = FrequencyGrid(1, 16, 0.25, 1.55e-6)
    g = np.exp(-(grid.axis_frequencies() - 0.25) ** 2
               / (2.0 * 0.42 ** 2)).astype(np.complex128)
    pair = np.multiply.outer(g, g)
    f0 = MomentKernel((2, 2), grid, np.multiply.outer(pair, np.conj(pair)))
    h0 = MomentKernel((1, 1), grid, np.outer(g, np.conj(g)))
    with warnings.catch_warnings():
        # The lattice is small for this source; the boundary mass it
        # reports does not bear on the identities checked here.
        warnings.simplefilter("ignore", UserWarning)
        return (g, f0, evolve_kernel(f0, MODEL, 1000.0, 32),
                evolve_kernel(h0, MODEL, 1000.0, 32))


def test_biphoton_evolution_matches_roll_loop_rk4(biphoton_run):
    # The roll-loop right-hand side and KernelGenerator, each stepped by
    # the same RK4, agree to rounding over the first 4 of the run's 32
    # steps.  A flipped pair sign, a dropped pair or a wrong Lambda factor
    # in KernelGenerator leaves them more than 0.1 of max apart by then.
    _, f0, _, _ = biphoton_run
    dz = 1000.0 / 32
    loop = rk4(lambda v: roll_loop_rhs(v, f0.grid, MODEL, (2, 2)),
               f0.values, dz, 4)
    gen = KernelGenerator.build(f0, MODEL)
    spectral = gen.from_sectors(rk4(gen, gen.to_sectors(f0.values), dz, 4))
    assert np.max(np.abs(spectral - loop)) <= 1e-13 * np.max(np.abs(loop))


def test_biphoton_partial_trace_is_scaled_h11(biphoton_run):
    # Power is conserved in every realization, so contracting one photon
    # pair of a product source leaves the single-photon kernel scaled by
    # the other photon's power ||g||^2 delta_a.
    g, _, f1, h1 = biphoton_run
    cell = f1.grid.cell
    partial = np.einsum("ajbj->ab", f1.values) * cell
    expected = np.sum(np.abs(g) ** 2) * cell * h1.values
    assert np.max(np.abs(partial - expected)) \
        <= 1e-12 * np.max(np.abs(expected))


def test_evolve_h10_closed_form():
    g0 = Spectrum(GRID8, np.exp(-GRID8.freq_sq()).astype(complex))
    same = evolve_h10(g0, MODEL, 0.0)
    assert np.array_equal(same.values, g0.values)
    k2lam = GRID8.wavenumber ** 2 * lambda_grid(MODEL, GRID8)
    out = evolve_h10(g0, MODEL, 2.0 / k2lam)
    ratio = np.abs(out.values) / np.abs(g0.values)
    assert np.allclose(ratio, np.exp(-1.0), rtol=1e-12)
    # phase advance matches the free-space multiplier
    fs = free_space_step(g0, 2.0 / k2lam)
    assert np.allclose(np.angle(out.values), np.angle(fs.values), atol=1e-12)
    with pytest.raises(DivergentLambdaError):
        evolve_h10(g0, TurbulenceModel(SpectrumKind.KOLMOGOROV, 1e-14), 1.0)


def test_h10_integration_matches_closed_form():
    g0 = Spectrum(GRID8, np.exp(-GRID8.freq_sq()).astype(complex))
    closed = evolve_h10(g0, MODEL, 1000.0)
    h10 = MomentKernel((1, 0), GRID8, g0.values)
    out = evolve_kernel(h10, MODEL, 1000.0, 256)
    assert np.max(np.abs(out.values - closed.values)) \
        < 1e-10 * np.max(np.abs(closed.values))


def test_strang_second_order_convergence():
    # The exponential step converges to the z-ODE as O(dz^2): each halving
    # of dz quarters its distance from a fine RK4 solution, whose own error
    # is far below the coarsest Strang error measured here.
    h0 = MomentKernel((1, 1), GRID8, random_hermitian(8, 7))
    gen = KernelGenerator.build(h0, MODEL)
    ref = gen.from_sectors(rk4(gen, gen.to_sectors(h0.values), 200.0 / 1024,
                               1024))
    err = [np.max(np.abs(evolve_h11(h0, MODEL, 200.0, steps).values - ref))
           for steps in (4, 8, 16, 32)]
    ratios = [a / b for a, b in zip(err, err[1:])]
    assert all(3.5 < r < 4.5 for r in ratios), ratios  # ~2^2


def test_trace_properties():
    kernel = delta_diagonal(2.0)
    assert kernel_trace(kernel) == pytest.approx(8 * 2.0, rel=1e-14)
    a = MomentKernel((1, 1), GRID8, random_hermitian(8, 8))
    b = MomentKernel((1, 1), GRID8, random_hermitian(8, 9))
    ab = MomentKernel((1, 1), GRID8, a.values + b.values)
    assert kernel_trace(ab) == pytest.approx(
        kernel_trace(a) + kernel_trace(b), rel=1e-14)
    with pytest.raises(ValueError, match="m == n"):
        kernel_trace(MomentKernel((1, 0), GRID8, np.zeros(8)))


def test_trace_conserved_and_hermiticity_preserved():
    h0 = MomentKernel((1, 1), GRID8, random_hermitian(8, 10))
    out = evolve_h11(h0, MODEL, 1000.0, 32)
    drift = abs(kernel_trace(out) - kernel_trace(h0)) \
        / abs(kernel_trace(h0))
    assert drift < 1e-8
    assert hermiticity_residual(out) < 1e-10


def test_conjugation_duality():
    rng = np.random.default_rng(12)
    raw = rng.standard_normal((8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8))
    h = MomentKernel((2, 1), GRID8, raw + raw.transpose(1, 0, 2))
    lhs = hierarchy_rhs(h.conjugate_transpose(), MODEL).values
    rhs = hierarchy_rhs(h, MODEL).conjugate_transpose().values
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_accel_paths_agree():
    rng = np.random.default_rng(13)
    phi = np.abs(rng.standard_normal(16))
    v2 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    v4 = rng.standard_normal((16,) * 3) + 1j * rng.standard_normal((16,) * 3)
    for values, ai, aj, sign in ((v2, [0], [1], 1), (v2, [0], [1], -1),
                                 (v4, [0], [2], 1), (v4, [1], [2], -1)):
        loop = pair_shift_sum_loop(values, ai, aj, phi, sign)
        fft = pair_shift_sum_fft(values, ai, aj, phi, sign)
        assert np.max(np.abs(loop - fft)) < 1e-12 * np.max(np.abs(loop))


def test_step_guard_and_boundary_warning():
    with pytest.raises(ValueError, match="sampling guard"):
        step_guard(GRID8, MODEL, 1e9)
    edge = np.zeros((8, 8), dtype=complex)
    edge[0, 0] = 1.0
    kernel = MomentKernel((1, 1), GRID8, edge)
    with pytest.warns(UserWarning, match="boundary mass"):
        evolve_kernel(kernel, MODEL, 100.0, 4)
    assert boundary_mass_fraction(kernel) == pytest.approx(1.0)


def test_kernel_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        MomentKernel((1, 1), GRID8, np.zeros((8, 4)))
    with pytest.raises(ValueError, match="non-negative"):
        MomentKernel((-1, 1), GRID8, np.zeros(8))


def screen_covariance(plan):
    """C[x] = E[phi(x0 + x) phi(x0)] of one slab's screen phase on the
    plan's lattice, x in position-index units (DFT order), taken exactly
    from the screens the engine draws: each unit normal pushed through
    ScreenLattice.fields.  tests/test_phase_screen.py
    (test_drawn_screen_covariance_is_exact) checks that this is
    k^2 cell^2 sum_a var(a) exp(-2 pi i a x)."""
    lattice = ScreenLattice(plan.model, plan.grid, plan.dz)
    count = 2 * lattice.amplitude.size
    response = lattice.fields(
        np.eye(count).reshape((count, 2) + lattice.amplitude.shape))
    return plan.grid.wavenumber ** 2 * (response.T @ response[:, 0])


def one_slab_expectation(plan, orders):
    """E[prod_bra exp(-i phi(x)) prod_ket exp(+i phi(x'))] over one slab's
    Gaussian screen, at the DFT index (p_bra..., p_ket...) of the kernel
    tensor: bra index p sits at x = p and ket index p at x = (n - p) mod n.
    The exponent's variance is sum_ij s_i s_j C(x_i - x_j), s = +1 on bra
    and -1 on ket indices."""
    m, n = orders
    size = plan.grid.n
    c = screen_covariance(plan)
    idx = np.indices((size,) * (m + n))
    signs = [1] * m + [-1] * n
    x = [p if s > 0 else (size - p) % size for p, s in zip(idx, signs)]
    var = sum(si * sj * c[(xi - xj) % size]
              for xi, si in zip(x, signs) for xj, sj in zip(x, signs))
    return np.exp(-0.5 * var)


@pytest.mark.parametrize("orders, n", [((1, 1), 64), ((2, 2), 8)],
                         ids=["1-1-reference", "2-2-n8"])
def test_slab_multiplier_is_the_screen_expectation(orders, n):
    # The exact identity behind the exponential step: the Gaussian
    # expectation of one slab's screen factor is exp(dz mult) times the
    # Lambda decay exp(-k^2 Lambda dz (m+n)/2), so the kernel's Strang slab
    # is the split-step slab's expectation.  The sector multiplier is the
    # expectation at p_last = 0; the joint shift p_bra + t, p_ket - t
    # leaves the expectation unchanged, so that slice fixes it everywhere.
    grid = replace(REFERENCE.grid, n=n)
    plan = replace(REFERENCE, grid=grid)
    shape = (n,) * sum(orders)
    gen = KernelGenerator.build(
        MomentKernel(orders, grid, np.zeros(shape)), plan.model)
    decay = (0.5 * grid.wavenumber ** 2 * lambda_grid(plan.model, grid)
             * sum(orders))
    multiplier = np.exp(plan.dz * (gen.mult - decay))
    expectation = one_slab_expectation(plan, orders)
    assert np.max(1.0 - expectation) > 1e-2  # far from the identity
    assert np.max(np.abs(multiplier - expectation[..., 0])) <= 1e-14
    m = orders[0]
    for t in (1, 3, n // 2):
        shift = [t] * m + [-t] * (sum(orders) - m)
        assert np.array_equal(
            np.roll(expectation, shift, tuple(range(sum(orders)))),
            expectation), t


def index_axes(kernel):
    """The D full-tensor axes of each bra index, then of each ket index."""
    d = kernel.grid.dim
    return [list(range(i * d, (i + 1) * d)) for i in range(kernel.rank)]


def full_tensor_drift(kernel):
    """sum_bra |a|^2 - sum_ket |a'|^2 broadcast over the full tensor."""
    m = kernel.orders[0]
    asq = kernel.grid.freq_sq()
    total = np.zeros(kernel.values.shape)
    for i, axes in enumerate(index_axes(kernel)):
        shape = [1] * kernel.values.ndim
        for ax in axes:
            shape[ax] = kernel.grid.n
        total = total + (1 if i < m else -1) * asq.reshape(shape)
    return total


def full_tensor_generator(kernel, model):
    """The generator on the full tensor, as evolve_kernel ran before the
    sector layout: the site-local factor and the n^(D(m+n)) Fourier
    multiplier of every pair sum, both in full layout."""
    m, n = kernel.orders
    grid = kernel.grid
    k = grid.wavenumber
    axes = index_axes(kernel)
    c = shift_coefficients(psd_lattice(model, grid))
    scatter = np.zeros(kernel.values.shape, dtype=np.complex128)
    for i, j in combinations(range(m + n), 2):
        sign = -1 if (i < m) == (j < m) else 1
        scatter += sign * pair_multiplier(c, scatter.ndim, axes[i], axes[j],
                                          sign)
    scatter *= k ** 2 * grid.cell
    return full_tensor_diag(kernel, model), scatter


def full_tensor_diag(kernel, model):
    """The site-local factor of every full-tensor element."""
    grid = kernel.grid
    return (1j * np.pi * grid.wavelength * full_tensor_drift(kernel)
            - 0.5 * grid.wavenumber ** 2 * lambda_grid(model, grid)
            * sum(kernel.orders))


def full_tensor_rhs(kernel, model):
    diag, scatter = full_tensor_generator(kernel, model)
    values = kernel.values
    return diag * values + np.fft.ifftn(scatter * np.fft.fftn(values))


def full_tensor_evolve(kernel, model, z_total, n_steps):
    """The full-tensor Strang step: an FFT over every axis per step."""
    diag, scatter = full_tensor_generator(kernel, model)
    dz = z_total / n_steps
    half = np.exp(0.5 * dz * diag)
    step = np.exp(dz * scatter)
    v = kernel.values
    for _ in range(n_steps):
        v = half * np.fft.ifftn(step * np.fft.fftn(half * v))
    return v


SECTOR_CASES = [(1, 8, (2, 2)), (2, 8, (1, 1)), (1, 8, (2, 1)),
                (1, 8, (2, 0)), (1, 16, (0, 2))]


def random_kernel(dim, n, orders, seed):
    grid = FrequencyGrid(dim, n, 0.25, 1.55e-6)
    shape = (n,) * (dim * sum(orders))
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if orders == (2, 2):
        values = values + values.transpose(1, 0, 2, 3)
        values = values + values.transpose(0, 1, 3, 2)
    return MomentKernel(orders, grid, values)


@pytest.mark.parametrize("dim, n, orders", SECTOR_CASES,
                         ids=[f"{d}d-n{n}-{o[0]}-{o[1]}"
                              for d, n, o in SECTOR_CASES])
def test_sectors_match_the_full_tensor_oracle(dim, n, orders):
    # (2, 0) drops its last bra index; the others their last ket index.
    kernel = random_kernel(dim, n, orders, 21)
    want = full_tensor_rhs(kernel, MODEL)
    got = hierarchy_rhs(kernel, MODEL).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    want = full_tensor_evolve(kernel, MODEL, 1000.0, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # boundary mass
        got = evolve_kernel(kernel, MODEL, 1000.0, 64).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("dim, orders", [(1, (2, 2)), (2, (1, 1)),
                                         (1, (2, 0))],
                         ids=["1d-2-2", "2d-1-1", "1d-2-0"])
def test_full_tensor_step_keeps_one_sector(dim, orders):
    # The conservation law the sector layout rests on, checked without it:
    # the full-tensor step leaves a tensor supported on one total
    # frequency K there.
    kernel = random_kernel(dim, 8, orders, 22)
    gen = KernelGenerator.build(kernel, MODEL)
    sectors = gen.to_sectors(kernel.values)
    sectors[np.arange(len(sectors)) != 3] = 0.0
    one = MomentKernel(orders, kernel.grid, gen.from_sectors(sectors))
    out = gen.to_sectors(full_tensor_evolve(one, MODEL, 1000.0, 64))
    leak = np.max(np.abs(np.delete(out, 3, axis=0)))
    assert leak <= 1e-14 * np.max(np.abs(out[3]))


def gaussian_kernel(dim, n, orders):
    grid = FrequencyGrid(dim, n, 0.25, 1.55e-6)
    g = np.exp(-grid.freq_sq() / (2.0 * (n / 16) ** 2)).astype(complex)
    values = np.multiply.outer(g, np.conj(g))
    if orders == (2, 2):
        pair = np.multiply.outer(g, g)
        values = np.multiply.outer(pair, np.conj(pair))
    return MomentKernel(orders, grid, values)


def every_sector_evolve(kernel, z_total, n_steps):
    """The all-sector path, the oracle of the Hermitian half: every sector
    evolved directly, none filled."""
    gen = KernelGenerator.build(kernel, MODEL)
    sectors = gen.to_sectors(kernel.values)
    gen.evolve(sectors, z_total / n_steps, n_steps)
    return gen.from_sectors(sectors)


def evolve_quietly(kernel, z_total, n_steps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # boundary mass
        return evolve_kernel(kernel, MODEL, z_total, n_steps)


HALF_CASES = [(1, 64, (1, 1), 33), (2, 8, (1, 1), 34), (1, 8, (2, 2), 5),
              (1, 16, (2, 2), 9)]


@pytest.mark.parametrize("dim, n, orders, held", HALF_CASES,
                         ids=[f"{d}d-n{n}-{o[0]}-{o[1]}"
                              for d, n, o, _ in HALF_CASES])
def test_hermitian_half_matches_every_sector(dim, n, orders, held):
    # K <= -K in flat order: n/2 + 1 of n sectors in 1-D; in 2-D the four
    # self-conjugate K and one of each other pair, 4 + 60/2 of 64.
    kernel = gaussian_kernel(dim, n, orders)
    want = every_sector_evolve(kernel, 1000.0, 32)
    out = evolve_quietly(kernel, 1000.0, 32)
    assert (out.sectors_evolved, out.sectors_filled) == (held, n ** dim - held)
    assert np.max(np.abs(out.values - want)) <= 1e-14 * np.max(np.abs(want))
    # The held sectors are the all-sector path's bits; the others are
    # conjugate transposes, so Hermiticity is exact outside the
    # self-conjugate sectors.
    gen = KernelGenerator.build(kernel, MODEL)
    assert gen.holds_half(kernel.values) and gen.held == held
    assert np.array_equal(gen.to_sectors(out.values, held),
                          gen.to_sectors(want, held))
    m = orders[0]
    perm = list(range(dim * m, 2 * dim * m)) + list(range(dim * m))
    dual = np.conj(np.transpose(out.values, perm))
    sites = np.argwhere(out.values != dual).reshape(-1, 2 * m, dim)
    total = sites[:, :m].sum(axis=1) - sites[:, m:].sum(axis=1)
    assert np.all(2 * total % n == 0)


def test_hermitian_half_output_stays_on_the_half():
    # An output of the half path is its own fill bit for bit, although its
    # self-conjugate sectors are Hermitian only to rounding, so a chained
    # span (as evolve-kernel runs its z-list) takes the half path again.
    kernel = gaussian_kernel(1, 16, (2, 2))
    first = evolve_quietly(kernel, 500.0, 16)
    assert hermiticity_residual(first) > 0.0
    second = evolve_quietly(first, 500.0, 16)
    assert (second.sectors_evolved, second.sectors_filled) == (9, 7)
    want = every_sector_evolve(first, 500.0, 16)
    assert np.max(np.abs(second.values - want)) <= 1e-14 * np.max(
        np.abs(want))


def near_hermitian_kernel():
    """The (2, 2) kernel outer(s, conj(s)) of a complex s = Gaussian times
    exp(0.3i index) at n = 16: Hermitian only to rounding."""
    grid = FrequencyGrid(1, 16, 0.25, 1.55e-6)
    s = np.exp(-grid.freq_sq() / 2.0) * np.exp(0.3j * np.arange(16))
    pair = np.multiply.outer(s, s)
    return MomentKernel((2, 2), grid, np.multiply.outer(pair, np.conj(pair)))


def test_non_hermitian_input_evolves_every_sector(monkeypatch):
    # outer(s, conj(s)) of a complex s is Hermitian only to rounding, so it
    # and an m != n kernel take the all-sector path: the same bits as
    # evolving every sector, nothing filled, from the one generator built.
    near = near_hermitian_kernel()
    dual = np.conj(np.transpose(near.values, (2, 3, 0, 1)))
    assert not np.array_equal(near.values, dual)
    assert np.max(np.abs(near.values - dual)) <= 1e-15
    rng = np.random.default_rng(23)
    mixed = MomentKernel((2, 1), near.grid, rng.standard_normal((16,) * 3)
                         + 1j * rng.standard_normal((16,) * 3))
    build = KernelGenerator.build
    for kernel in (near, mixed):
        builds = []
        monkeypatch.setattr(KernelGenerator, "build",
                            lambda *args: builds.append(args) or build(*args))
        out = evolve_quietly(kernel, 500.0, 16)
        monkeypatch.undo()
        assert len(builds) == 1
        assert (out.sectors_evolved, out.sectors_filled) == (16, 0)
        want = every_sector_evolve(kernel, 500.0, 16)
        assert np.array_equal(out.values.view(np.uint64),
                              want.view(np.uint64))


def same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_carried_generator_serves_only_its_orders_grid_and_model(
        monkeypatch):
    # An output carries the all-sector generator its evolve_kernel call
    # used; the next call reuses it only for the same orders, grid and
    # model, and otherwise builds the one a kernel without it gets.
    h22 = evolve_quietly(gaussian_kernel(1, 16, (2, 2)), 250.0, 8)
    h20 = evolve_quietly(random_kernel(1, 16, (2, 0), 24), 250.0, 8)

    def carrying(kernel, **changes):
        # replace drops the generator; this kernel keeps kernel's.
        out = replace(kernel, **changes)
        out.generator = kernel.generator
        return out

    cases = [(h22, MODEL, 0), (h22, replace(MODEL, cn2=1.2 * MODEL.cn2), 1),
             (carrying(h22, grid=replace(h22.grid, delta_a=0.3)), MODEL, 1),
             (h20, MODEL, 0), (carrying(h20, orders=(1, 1)), MODEL, 1)]
    build = KernelGenerator.build
    for start, model, n_builds in cases:
        assert start.generator is not None
        builds = []
        monkeypatch.setattr(KernelGenerator, "build",
                            lambda *args: builds.append(args) or build(*args))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            got = evolve_kernel(start, model, 250.0, 8)
            monkeypatch.undo()
            fresh = MomentKernel(start.orders, start.grid, start.values)
            want = evolve_kernel(fresh, model, 250.0, 8)
        assert len(builds) == n_builds
        assert (got.generator is start.generator) == (n_builds == 0)
        assert got.generator.built_for(start, model)
        assert same_bits(got.values, want.values)
        assert (got.sectors_evolved, got.sectors_filled) == (
            want.sectors_evolved, want.sectors_filled)


def test_only_evolve_kernel_sets_the_stored_diagnostics():
    # The run record an output carries (sector counts, generator,
    # boundary mass and Hermiticity residual) is not a
    # constructor argument, and a kernel built from the output by
    # dataclasses.replace, new values or not, carries none of it.
    out = evolve_quietly(gaussian_kernel(1, 16, (2, 2)), 250.0, 8)
    record = ("sectors_evolved", "sectors_filled", "generator",
              "boundary_mass", "hermiticity")
    assert None not in [getattr(out, name) for name in record]
    assert (out.sectors_evolved, out.sectors_filled) == (9, 7)
    for kernel in (replace(out, values=2.0 * out.values), replace(out),
                   MomentKernel(out.orders, out.grid, out.values)):
        assert [getattr(kernel, name) for name in record] == [
            0, 0, None, None, None]
    for name in record:
        with pytest.raises(TypeError):
            MomentKernel(out.orders, out.grid, out.values,
                         **{name: getattr(out, name)})
    with pytest.raises(TypeError):  # beyond the four arguments
        MomentKernel(out.orders, out.grid, out.values, out.z,
                     out.sectors_evolved)


def test_monitored_boundary_mass_reads_the_stored_fraction():
    out = evolve_quietly(gaussian_kernel(1, 16, (2, 2)), 250.0, 8)
    assert monitored_boundary_mass(out, MODEL) == out.boundary_mass > 0.0
    fresh = MomentKernel(out.orders, out.grid, out.values)
    assert monitored_boundary_mass(fresh, MODEL) == out.boundary_mass
    out.boundary_mass = 0.5  # read as stored, not measured again
    assert monitored_boundary_mass(out, MODEL) == 0.5
    assert monitored_boundary_mass(out, replace(MODEL, cn2=0.0)) == 0.0


def test_kernel_diagnostics_reads_the_run_record_or_computes():
    # An output of evolve_kernel is read, not measured again; any other
    # kernel is measured, and only an (n, n) kernel has a residual.
    out = evolve_quietly(gaussian_kernel(1, 16, (2, 2)), 250.0, 8)
    fresh = MomentKernel(out.orders, out.grid, out.values)
    want = (hermiticity_residual(fresh), boundary_mass_fraction(fresh))
    assert kernel_diagnostics(out) == kernel_diagnostics(fresh) == want
    out.hermiticity, out.boundary_mass = 0.25, 0.5
    assert kernel_diagnostics(out) == (0.25, 0.5)
    h20 = MomentKernel((2, 0), GRID8, random_hermitian(8, 5))
    assert kernel_diagnostics(h20) == (None, boundary_mass_fraction(h20))
    out20 = evolve_quietly(h20, 250.0, 8)
    assert kernel_diagnostics(out20) == (None, out20.boundary_mass)


def test_filled_sectors_are_the_sectors_the_half_does_not_hold():
    # The self-conjugate K = 0 and 8 lead, then K = 1 ... 7.  The partners
    # match the elements of K = 9 ... 15 one to one with those of K = 1
    # ... 7, and the self-conjugate elements among themselves.
    kernel = gaussian_kernel(1, 16, (2, 2))
    gen = KernelGenerator.build(kernel, MODEL)
    assert (gen.own, gen.held, len(gen.index)) == (2, 9, 16)
    own = gen.index[:2].reshape(-1)
    partner = gen.partners(gen.index[9:].reshape(-1))
    own_partner = gen.partners(own)
    assert np.array_equal(np.sort(partner), np.sort(gen.index[2:9], None))
    assert np.array_equal(np.sort(own_partner), np.sort(own))
    half = gen.to_sectors(kernel.values, gen.held)
    assert np.array_equal(np.concatenate(
        [half, kernel.values.reshape(-1)[gen.index[9:]]]),
        gen.to_sectors(kernel.values))
    assert np.array_equal(gen.from_sectors(half), kernel.values)
    # The half exponentiates its own diag alone.
    step_half, step = gen._exponentials(2.0, gen.held)
    assert step_half.shape == gen.index[:9].shape and step.shape == (16,) * 3
    assert same_bits(step_half, np.exp(0.5 * 2.0 * gen.diag(9)))


def test_qualification_rejects_one_ulp_and_nan():
    # The qualification compares each unheld element with the conjugate of
    # its held partner, and refuses a NaN in a self-conjugate sector: the
    # comparison of the whole kernel with its fill.
    kernel = gaussian_kernel(1, 16, (2, 2))
    gen = KernelGenerator.build(kernel, MODEL)
    assert gen.holds_half(kernel.values)
    unheld = gen.index[gen.held:].reshape(-1)
    partner = gen.partners(unheld)
    own = gen.index[:gen.own].reshape(-1)

    def ulp(x):
        return complex(np.nextafter(x.real, np.inf), x.imag)

    def nan(x):
        return complex(np.nan, x.imag)

    for position, change in ((unheld[1234], ulp), (partner[1234], ulp),
                             (unheld[99], nan), (partner[99], nan),
                             (own[100], nan)):
        values = kernel.values.copy()
        values.reshape(-1)[position] = change(values.reshape(-1)[position])
        bad = MomentKernel((2, 2), kernel.grid, values)
        assert not gen.holds_half(bad.values)
        out = evolve_quietly(bad, 250.0, 8)
        assert (out.sectors_evolved, out.sectors_filled) == (16, 0)
        if change is ulp:
            assert same_bits(out.values, every_sector_evolve(bad, 250.0, 8))


def test_stored_diagnostics_are_the_functions_bits():
    # evolve_kernel stores the output's boundary-mass fraction and
    # Hermiticity residual, the latter from the self-conjugate sectors
    # alone on the Hermitian half: bit for bit the functions' values, on
    # a chained span too, and NaN where the values hold NaN.
    free = TurbulenceModel(SpectrumKind.VON_KARMAN, 0.0, 1.0)
    nan_pair = gaussian_kernel(1, 16, (2, 2)).values.copy()
    gen = KernelGenerator.build(MomentKernel((2, 2), GRID16, nan_pair),
                                MODEL)
    unheld = int(gen.index[gen.held:].reshape(-1)[7])
    nan_pair.reshape(-1)[[unheld, gen.partners(unheld)]] = np.inf
    cases = [(gaussian_kernel(1, 64, (1, 1)), MODEL, True),
             (gaussian_kernel(1, 16, (2, 2)), MODEL, True),
             (gaussian_kernel(2, 8, (1, 1)), MODEL, True),
             (near_hermitian_kernel(), MODEL, False),
             (gaussian_kernel(1, 64, (1, 1)), free, False),
             (random_kernel(1, 16, (2, 0), 25), MODEL, False),
             (MomentKernel((2, 2), GRID16, nan_pair), MODEL, True)]
    for kernel, model, on_half in cases:
        start = kernel
        for _ in range(2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                out = evolve_kernel(start, model, 250.0, 8)
            # A NaN in the input refuses the half on the chained span.
            assert (out.sectors_filled > 0) == (
                on_half and not np.any(np.isnan(start.values)))
            assert out.boundary_mass == boundary_mass_fraction(out) or (
                np.isnan(out.boundary_mass)
                and np.isnan(boundary_mass_fraction(out)))
            if kernel.orders[0] != kernel.orders[1]:
                assert out.hermiticity is None
            elif np.all(np.isfinite(out.values)):
                assert out.hermiticity == hermiticity_residual(out)
            else:
                assert np.isnan(out.hermiticity)
                assert np.isnan(hermiticity_residual(out))
            start = out


def test_hermitian_half_peak_memory_below_every_sector():
    kernel = gaussian_kernel(1, 16, (2, 2))
    peaks = []
    for run in (lambda: evolve_quietly(kernel, 500.0, 16),
                lambda: every_sector_evolve(kernel, 500.0, 16)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_evolve_kernel_independent_of_worker_count(monkeypatch):
    # Three chunks of whole sectors each on the Hermitian half: 9 sectors of
    # 16^3 elements (4, 4 and 1), and 130 sectors of 16^2 (64, 64 and 2).
    # Four chunks of 4 on every sector of the near-Hermitian (2, 2) kernel.
    # One, two and three CPUs, and chunks of one sector or of every sector,
    # give the same bits.
    for kernel in (gaussian_kernel(1, 16, (2, 2)),
                   gaussian_kernel(2, 16, (1, 1)),
                   near_hermitian_kernel()):
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(splitstep, "_cpu_count", lambda: workers)
            runs.append(evolve_quietly(kernel, 500.0, 32))
        sector = kernel.values.size // kernel.grid.n ** kernel.grid.dim
        for chunk in (sector, 2 ** 30):
            monkeypatch.setattr(moments, "_CHUNK_ELEMENTS", chunk)
            runs.append(evolve_quietly(kernel, 500.0, 32))
        monkeypatch.undo()
        for run in runs[1:]:
            assert run.sectors_evolved == runs[0].sectors_evolved
            assert same_bits(run.values, runs[0].values)
    assert runs[0].sectors_evolved == 16


def test_evolve_kernel_starts_no_thread(monkeypatch):
    # evolve_kernel runs every chunk on the calling thread however many
    # CPUs the process may use: three here (patched in whichever module
    # reads the count), on inputs of three and four chunks.
    def refuse(*args, **kwargs):
        raise AssertionError("evolve_kernel started a thread")

    for module in (moments, splitstep):
        monkeypatch.setattr(module, "_cpu_count", lambda: 3, raising=False)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    before = threading.active_count()
    for kernel, evolved in ((gaussian_kernel(1, 16, (2, 2)), 9),
                            (gaussian_kernel(2, 16, (1, 1)), 130),
                            (near_hermitian_kernel(), 16)):
        assert evolve_quietly(kernel, 500.0, 32).sectors_evolved == evolved
    assert threading.active_count() == before


def test_generator_keeps_no_full_size_diag_or_partners():
    # A generator's arrays are its index, mult and, once evolved, the
    # exponentials: no complex array with one entry per full-tensor
    # element, and no partner index, kept after the half's test, fill and
    # residual have run.
    kernel = gaussian_kernel(1, 16, (2, 2))
    gen = KernelGenerator.build(kernel, MODEL)
    assert gen.holds_half(kernel.values)
    filled = gen.from_sectors(gen.to_sectors(kernel.values, gen.held))
    assert np.array_equal(filled, kernel.values)
    assert gen.hermiticity_residual(filled) == 0.0

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from arrays(item)
        elif isinstance(value, dict):
            for item in value.values():
                yield from arrays(item)

    kept = list(arrays(list(vars(gen).values())))
    assert not [a for a in kept if np.iscomplexobj(a)
                and a.size == kernel.values.size]
    assert [a for a in kept if a.dtype.kind in "iu"] == [gen.index]


DIAG_CASES = [(1, 64, (0, 0)), (1, 64, (1, 0)), (1, 64, (2, 0)),
              (1, 64, (0, 2)), (1, 16, (3, 1)), (1, 64, (1, 1)),
              (2, 8, (1, 1)), (2, 16, (1, 1)), (1, 8, (2, 2)),
              (1, 16, (2, 2)), (1, 32, (2, 2))]


@pytest.mark.parametrize("count", [None, "held", "own"])
@pytest.mark.parametrize("dim, n, orders", DIAG_CASES,
                         ids=[f"{d}d-n{n}-{o[0]}-{o[1]}"
                              for d, n, o in DIAG_CASES])
def test_diag_has_the_bits_of_the_full_tensor_factor(dim, n, orders, count):
    # diag, recomputed from the index's lattice sites, is the site-local
    # factor over the full tensor gathered through the index, bit for bit:
    # of every sector, of the Hermitian half and of the self-conjugate
    # sectors.  At delta_a = 0.3 the |a|^2 are inexact, so the sums' order
    # shows in the bits.
    kernel = MomentKernel(orders, FrequencyGrid(dim, n, 0.3, 1.55e-6),
                          np.zeros((n,) * (dim * sum(orders)), complex))
    gen = KernelGenerator.build(kernel, MODEL)
    count = getattr(gen, count) if count else None
    want = full_tensor_diag(kernel, MODEL).reshape(-1)[gen.index[:count]]
    assert same_bits(gen.diag(count), want)


def test_one_chunk_kernel_starts_no_thread(monkeypatch):
    # (1, 1) at n = 64 is 64 sectors of 64 elements: one chunk.  Eight
    # realizations are one block: one chunk of the ensemble.
    def refuse(*args, **kwargs):
        raise AssertionError("thread started for one chunk of work")

    monkeypatch.setattr(splitstep, "_cpu_count", lambda: 4)
    monkeypatch.setattr(threading, "Thread", refuse)
    kernel = gaussian_kernel(1, 64, (1, 1))
    out = evolve_kernel(kernel, MODEL, 1000.0, 32)
    assert out.sectors_evolved == 33
    grid = REFERENCE.grid
    plan = PropagationPlan(grid, MODEL, 1000.0, 32, 8, 5)
    stats = ensemble_moments(Spectrum.gaussian(grid, 1.5), plan)
    assert stats.workers == 1


def test_worker_thread_error_reaches_the_caller(monkeypatch):
    run = splitstep._BlockEngine.run

    def run_fails_off_main(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("ensemble worker")
        return run(*args, **kwargs)

    monkeypatch.setattr(splitstep, "_cpu_count", lambda: 2)
    monkeypatch.setattr(splitstep._BlockEngine, "run", run_fails_off_main)
    # 333 realizations on two workers: two chunks of three blocks.
    grid = REFERENCE.grid
    plan = PropagationPlan(grid, MODEL, 125.0, 8, 333, 11)
    with pytest.raises(MemoryError, match="ensemble worker"):
        ensemble_moments(Spectrum.gaussian(grid, 1.5), plan)


def test_calling_thread_runs_every_workers_th_chunk(monkeypatch):
    # With two or more workers the calling thread runs chunks 0, w, 2w, ...
    # in place of waiting, and a pool of w - 1 threads runs the others; the
    # results come back in chunk order.
    caller = threading.get_ident()
    before = threading.active_count()
    for workers in (2, 3):
        chunks = list(range(8))
        got = list(splitstep._run_chunks(
            lambda c: (c, threading.get_ident()), chunks, workers))
        assert [c for c, _ in got] == chunks
        assert [c for c, t in got if t == caller] == chunks[::workers]
        assert len({t for _, t in got} - {caller}) <= workers - 1
        assert threading.active_count() == before
    # 333 realizations on two workers: two chunks of three blocks, the
    # first propagated by the calling thread.
    run = splitstep._BlockEngine.run
    starts = []

    def recording_run(engine, s0, rows):
        if threading.get_ident() == caller:
            starts.append(rows.start)
        return run(engine, s0, rows)

    monkeypatch.setattr(splitstep, "_cpu_count", lambda: 2)
    monkeypatch.setattr(splitstep._BlockEngine, "run", recording_run)
    grid = REFERENCE.grid
    plan = PropagationPlan(grid, MODEL, 125.0, 8, 333, 11)
    assert ensemble_moments(Spectrum.gaussian(grid, 1.5), plan).workers == 2
    assert starts == [0]


def test_calling_thread_error_reaches_the_caller(monkeypatch):
    # The calling thread's own first chunk fails while the pool's thread
    # runs the second; the error reaches the caller once that thread has
    # run its chunk and ended.
    caller = threading.get_ident()
    run = splitstep._BlockEngine.run
    off_caller = []

    def run_fails_on_caller(*args, **kwargs):
        if threading.get_ident() == caller:
            raise MemoryError("ensemble caller")
        off_caller.append("run")
        return run(*args, **kwargs)

    monkeypatch.setattr(splitstep, "_cpu_count", lambda: 2)
    monkeypatch.setattr(splitstep._BlockEngine, "run", run_fails_on_caller)
    before = threading.active_count()
    grid = REFERENCE.grid
    plan = PropagationPlan(grid, MODEL, 125.0, 8, 333, 11)
    with pytest.raises(MemoryError, match="ensemble caller"):
        ensemble_moments(Spectrum.gaussian(grid, 1.5), plan)
    assert threading.active_count() == before
    assert "run" in off_caller
