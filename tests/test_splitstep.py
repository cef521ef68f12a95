"""Split-step propagator tests: unitarity, analytic and series oracles,
splitting order, Monte-Carlo scaling, and the block engine against a
per-realization loop and across worker counts."""

import concurrent.futures
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from ipfe import splitstep
from ipfe.grid import FrequencyGrid, Spectrum, to_position
from ipfe.phase_screen import ScreenLattice, ScreenRealization
from ipfe.splitstep import (BLOCK, PropagationPlan, apply_screen,
                            block_products, ensemble_moments,
                            free_space_step, propagate)
from ipfe.spectrum import SpectrumKind, TurbulenceModel

GRID = FrequencyGrid(1, 64, 0.25, 1.55e-6)
MODEL = TurbulenceModel(SpectrumKind.VON_KARMAN, 9.2e-15, 1.0)
STATS = ("mean_field", "mean_field_se", "second_moment", "second_moment_se")


def test_free_space_multiplier_values():
    s = Spectrum(GRID, np.ones(64, dtype=complex))
    dz = 10.0
    out = free_space_step(s, dz)
    assert out.values[32] == pytest.approx(1.0, rel=1e-15)  # a = 0 site
    # site where lambda * dz * |a|^2 = 1 gives multiplier exp(i pi) = -1
    a_target = np.sqrt(1.0 / (GRID.wavelength * dz))
    special = FrequencyGrid(1, 4, a_target, GRID.wavelength)
    out2 = free_space_step(Spectrum(special, np.ones(4, dtype=complex)), dz)
    assert out2.values[3] == pytest.approx(-1.0, rel=1e-12)  # a = delta_a


def test_free_space_pure_phase_and_additivity():
    rng = np.random.default_rng(0)
    s = Spectrum(GRID, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    out = free_space_step(s, 37.0)
    assert np.allclose(np.abs(out.values), np.abs(s.values), rtol=1e-14)
    split = free_space_step(free_space_step(s, 12.0), 25.0)
    assert np.allclose(split.values, out.values, rtol=1e-14, atol=1e-14)


def test_fresnel_gaussian_oracle():
    """Position-domain field after a free-space step vs the analytic
    Fresnel integral of a Gaussian spectrum."""
    sigma = 1.0
    s = Spectrum.gaussian(GRID, sigma)
    dz = 50.0
    g = to_position(free_space_step(s, dz))
    x = GRID.axis_positions()
    c = 1.0 / (2.0 * sigma ** 2) - 1j * np.pi * GRID.wavelength * dz
    oracle = np.sqrt(np.pi / c) * np.exp(-np.pi ** 2 * x ** 2 / c)
    interior = slice(8, 56)
    assert np.allclose(g[interior], oracle[interior], atol=1e-10)


def test_jacobi_anger_sidebands():
    """Cosine screen on a single-frequency input: the output spectrum is
    the Bessel sideband series of exp(-i beta cos(...))."""
    n = GRID.n
    pair_site = 34  # frequency offset +2 sites from DC
    a0 = (pair_site - n // 2) * GRID.delta_a
    c = 1.2e-11  # amplitude of the +/- a0 pair, beta well below 1
    n_slab = 2.0 * c * GRID.cell * np.cos(2.0 * np.pi * a0
                                          * GRID.axis_positions())
    screen = ScreenRealization(GRID, n_slab, 1.0, 0)
    beta = 2.0 * GRID.wavenumber * c * GRID.cell

    in_site = 30
    values = np.zeros(n, dtype=complex)
    values[in_site] = 1.0
    out = apply_screen(Spectrum(GRID, values), screen)

    offset = pair_site - n // 2
    expected = np.zeros(n, dtype=complex)
    for m in range(-10, 11):
        target = in_site + m * offset
        if 0 <= target < n:
            expected[target] += (-1j) ** abs(m) * float(
                mpmath.besselj(abs(m), beta))
    assert np.allclose(out.values, expected, atol=1e-12)


def test_apply_screen_unitary_and_zero_screen():
    rng = np.random.default_rng(1)
    s = Spectrum(GRID, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    zero = ScreenRealization(GRID, np.zeros(64), 1.0, 0)
    assert np.allclose(apply_screen(s, zero).values, s.values, atol=1e-12)
    plan = PropagationPlan(GRID, MODEL, 1000.0, 32, 2, 7)
    out = apply_screen(s, plan.slab_screen(0, 0))
    assert out.norm_sq == pytest.approx(s.norm_sq, rel=1e-12)


def test_apply_screen_grid_mismatch():
    other = FrequencyGrid(1, 32, 0.25, 1.55e-6)
    screen = ScreenRealization(other, np.zeros(32), 1.0, 0)
    with pytest.raises(ValueError, match="mismatch"):
        apply_screen(Spectrum.gaussian(GRID, 1.5), screen)


def test_propagate_free_space_and_zero_distance():
    s = Spectrum.gaussian(GRID, 1.5)
    zero_model = TurbulenceModel(SpectrumKind.VON_KARMAN, 0.0, 1.0)
    plan = PropagationPlan(GRID, zero_model, 1000.0, 32, 2, 0)
    out = propagate(s, plan, 0)
    assert np.allclose(out.values, free_space_step(s, 1000.0).values,
                       rtol=1e-12, atol=1e-14)
    plan0 = PropagationPlan(GRID, MODEL, 0.0, 1, 2, 0)
    assert np.array_equal(propagate(s, plan0, 0).values, s.values)


def test_propagate_norm_and_determinism():
    s = Spectrum.gaussian(GRID, 1.5)
    plan = PropagationPlan(GRID, MODEL, 1000.0, 32, 2, 99)
    a = propagate(s, plan, 3)
    b = propagate(s, plan, 3)
    assert np.array_equal(a.values, b.values)
    assert a.norm_sq == pytest.approx(s.norm_sq, rel=1e-10)
    c = propagate(s, plan, 4)
    assert not np.array_equal(a.values, c.values)


def test_guards():
    # A plan is refused when it is built, so every plan meets its guards.
    with pytest.raises(ValueError, match="sampling guard"):
        PropagationPlan(GRID, MODEL, 1e9, 2, 2, 0)
    strong = TurbulenceModel(SpectrumKind.VON_KARMAN, 1e-11, 1.0)
    with pytest.raises(ValueError, match="weak-scattering guard"):
        PropagationPlan(GRID, strong, 1000.0, 32, 2, 0)
    plan = PropagationPlan(GRID, MODEL, 1000.0, 32, 2, 0)
    with pytest.raises(ValueError, match="weak-scattering guard"):
        replace(plan, model=strong)
    with pytest.raises(ValueError, match="n_slabs"):
        PropagationPlan(GRID, MODEL, 1000.0, 0, 2, 0)


def test_strang_splitting_second_order():
    """Deterministic z-independent index profile: the split-step error
    decays quadratically in the slab thickness."""
    s = Spectrum.gaussian(GRID, 1.5)
    x = GRID.axis_positions()
    profile = 2e-10 * np.cos(2.0 * np.pi * 1.5 * x)  # real, smooth
    z = 200.0

    def run(n_slabs):
        out = s
        dz = z / n_slabs
        screen = ScreenRealization(GRID, profile * dz, dz, 0)
        for _ in range(n_slabs):
            out = free_space_step(out, dz / 2.0)
            out = apply_screen(out, screen)
            out = free_space_step(out, dz / 2.0)
        return out.values

    ref = run(512)
    err8 = np.max(np.abs(run(8) - ref))
    err16 = np.max(np.abs(run(16) - ref))
    ratio = err8 / err16
    assert 3.3 < ratio < 4.7


def test_ensemble_cn2_zero_moments_exact():
    s = Spectrum.gaussian(GRID, 1.5)
    zero_model = TurbulenceModel(SpectrumKind.VON_KARMAN, 0.0, 1.0)
    plan = PropagationPlan(GRID, zero_model, 1000.0, 32, 4, 0)
    stats = ensemble_moments(s, plan)
    fs = free_space_step(s, 1000.0).values
    assert np.allclose(stats.mean_field, fs, rtol=1e-12, atol=1e-14)
    assert np.allclose(stats.second_moment,
                       np.outer(fs, np.conj(fs)), rtol=1e-12, atol=1e-14)
    assert np.max(stats.second_moment_se) < 1e-14
    # Identical realizations: every variance vanishes exactly.
    for se in (stats.mean_field_se, stats.second_moment_se):
        assert np.all(se == 0.0)


def test_ensemble_hermitian_and_se_scaling():
    small = FrequencyGrid(1, 16, 0.25, 1.55e-6)
    s = Spectrum.gaussian(small, 0.8)
    plan_a = PropagationPlan(small, MODEL, 1000.0, 32, 200, 5)
    plan_b = PropagationPlan(small, MODEL, 1000.0, 32, 800, 5)
    stats_a = ensemble_moments(s, plan_a)
    stats_b = ensemble_moments(s, plan_b)
    sm = stats_a.second_moment
    assert np.array_equal(sm, sm.conj().T)
    assert np.all(np.imag(np.diagonal(sm)) == 0.0)
    diag = np.real(np.diagonal(sm))
    assert np.all(diag >= -1e-15)
    ratio = (np.median(stats_a.second_moment_se)
             / np.median(stats_b.second_moment_se))
    assert 1.6 < ratio < 2.5  # ~sqrt(800/200) = 2


def test_ensemble_needs_two_realizations():
    with pytest.raises(ValueError, match="n_realizations"):
        ensemble_moments(Spectrum.gaussian(GRID, 1.5),
                         PropagationPlan(GRID, MODEL, 1000.0, 32, 1, 0))


def test_slab_screens_do_not_depend_on_block():
    # Rows of overlapping ranges of one slab's screens, across Philox
    # block boundaries, equal the screens slab_screen draws one at a time,
    # at (master_seed, slab, r); draw returns them in DFT order.
    plan = PropagationPlan(GRID, MODEL, 1000.0, 32, 200, 20240117)
    lattice = ScreenLattice(plan.model, plan.grid, plan.dz)
    for slab in (0, 17, plan.n_slabs - 1):
        for start, stop in ((BLOCK - 2, BLOCK + 3), (BLOCK, BLOCK + 1),
                            (0, BLOCK + 1)):
            block = lattice.draw(plan.master_seed, slab, start, stop)
            for r, row in zip(range(start, stop), block):
                if r in (0, BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 2):
                    assert np.array_equal(
                        np.fft.fftshift(row), plan.slab_screen(r, slab).n_slab)
    assert not np.array_equal(plan.slab_screen(0, 0).n_slab,
                              plan.slab_screen(0, 1).n_slab)
    assert not np.array_equal(plan.slab_screen(0, 0).n_slab,
                              plan.slab_screen(1, 0).n_slab)


def test_ensemble_needs_no_seed_sequence(monkeypatch):
    s0 = Spectrum.gaussian(GRID, 1.5)
    plan = PropagationPlan(GRID, MODEL, 250.0, 8, BLOCK + 6, 5)
    want = ensemble_moments(s0, plan)

    def refuse(*args, **kwargs):
        raise AssertionError("SeedSequence built on the screen path")

    def no_entropy(*args, **kwargs):
        raise AssertionError("OS entropy read on the screen path")

    # A Philox built without a seed reads its entropy through randbits, not
    # through np.random.SeedSequence.  Both workers draw screens.
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(np.random.bit_generator, "randbits", no_entropy)
    monkeypatch.setattr(splitstep, "_cpu_count", lambda: 2)
    got = ensemble_moments(s0, plan)
    assert got.workers == 2
    for name in STATS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class LazyCall:
    """A call LazyExecutor.submit returned: run when its result is read.
    Defined once, not per submit: a class sits in reference cycles, so one
    per call would stay allocated until the cyclic collector runs, and
    tracemalloc would count it in the ensemble's peak."""

    def __init__(self, executor, fn, args):
        self.executor, self.fn, self.args = executor, fn, args

    def result(self):
        self.executor.pending -= 1
        return self.fn(*self.args)


class LazyExecutor:
    """Stands in for ThreadPoolExecutor: runs each submitted call on the
    calling thread when its result is read, and records the most calls
    submitted but not yet read at any one time."""

    def __init__(self, workers):
        self.workers = workers
        self.pending = self.most_pending = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.pending += 1
        self.most_pending = max(self.most_pending, self.pending)
        return LazyCall(self, fn, args)


@pytest.mark.parametrize("dim,n,sigma_a", [(1, 64, 1.5), (2, 16, 0.5)])
def test_ensemble_moments_independent_of_worker_count(monkeypatch, dim, n,
                                                      sigma_a):
    # 333 realizations: five full blocks and a partial one.  The reference
    # propagates and reduces one block at a time on the calling thread.
    grid = FrequencyGrid(dim, n, 0.25, 1.55e-6)
    s0 = Spectrum.gaussian(grid, sigma_a)
    plan = PropagationPlan(grid, MODEL, 125.0, 8, 333, 11)
    with monkeypatch.context() as serial:
        serial.setattr(concurrent.futures, "ThreadPoolExecutor",
                       LazyExecutor)
        serial.setattr(splitstep, "_CHUNK_ELEMENTS", 0)
        serial.setattr(splitstep, "_cpu_count", lambda: 1)
        want = ensemble_moments(s0, plan)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # One, two and three workers over 1-D chunks of two to four blocks,
        # and 2-D chunks of one block, so one worker takes two chunks in
        # 1-D and six in 2-D.
        for workers in (1, 2, 3):
            monkeypatch.setattr(splitstep, "_cpu_count", lambda: workers)
            got = ensemble_moments(s0, plan)
            assert got.workers == workers
            for name in STATS:
                assert np.array_equal(getattr(got, name),
                                      getattr(want, name)), (workers, name)
    finally:
        sys.setswitchinterval(interval)


def test_ensemble_memory_does_not_grow_with_realizations(monkeypatch):
    # At most one chunk per worker is in flight, so the peak is set by the
    # (n^D)^2 accumulators and the chunks, not by the realization count.
    # The chunks run on the calling thread as their results are taken, so
    # which chunk buffers are alive at the peak does not depend on thread
    # timing.
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        LazyExecutor)
    monkeypatch.setattr(splitstep, "_cpu_count", lambda: 3)
    grid = FrequencyGrid(2, 16, 0.25, 1.55e-6)
    s0 = Spectrum.gaussian(grid, 0.5)
    peaks = []
    for n_real in (500, 2000):
        plan = PropagationPlan(grid, MODEL, 40.0, 2, n_real, 3)
        ensemble_moments(s0, plan)
        tracemalloc.start()
        try:
            ensemble_moments(s0, plan)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # A chunk is one block here, whose output rows take 64 x 256 x 16 B
    # (256 KiB).  2000 realizations run 24 chunks more than 500, so keeping
    # even one more chunk's rows would exceed the bound; caches in numpy
    # and CPython move the peak by a few hundred bytes either way.
    chunk_rows = BLOCK * grid.n ** grid.dim * 16
    assert peaks[1] - peaks[0] <= chunk_rows // 8
    # The 2000 realizations are 32 one-block chunks.  Three workers are the
    # calling thread and a pool of two, which has at most two of them
    # submitted and not yet taken while the caller runs its own: one chunk
    # per worker in flight.
    executors = []

    def recording(workers):
        executors.append(LazyExecutor(workers))
        return executors[-1]

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
    ensemble_moments(s0, plan)
    assert [(e.workers, e.most_pending) for e in executors] == [(2, 2)]


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
def test_engine_memory_does_not_grow_with_slabs(dim, n):
    # The engine allocates its chunk's buffers (the fields, the screen
    # factor, and the lattice's normals and coefficients) once per chunk,
    # not per slab, so 32 slabs peak where 2 do.
    grid = FrequencyGrid(dim, n, 0.25, 1.55e-6)
    s0 = Spectrum.gaussian(grid, 0.5)
    rows = range(BLOCK, 3 * BLOCK)
    peaks = []
    for slabs in (2, 32):
        engine = splitstep._BlockEngine(
            PropagationPlan(grid, MODEL, 2.0 * slabs, slabs, rows.stop, 3))
        engine.run(s0, rows)
        tracemalloc.start()
        try:
            engine.run(s0, rows)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] == peaks[0]


def test_consumer_that_stops_early_leaves_no_thread(monkeypatch):
    # The reduction fails on the calling thread at its second block, with
    # the workers' other chunks in flight: 1000 realizations are four
    # chunks of four blocks on three workers.  The pool's threads have
    # ended by the time the error reaches the caller, which may hold on to
    # it, and through its traceback to the frames the error left.
    products = splitstep.block_products
    calls = []

    def fail_second(*args):
        calls.append(1)
        if len(calls) == 2:
            raise MemoryError("reduction")
        return products(*args)

    monkeypatch.setattr(splitstep, "block_products", fail_second)
    monkeypatch.setattr(splitstep, "_cpu_count", lambda: 3)
    plan = PropagationPlan(GRID, MODEL, 125.0, 8, 1000, 11)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="reduction") as failed:
        ensemble_moments(Spectrum.gaussian(GRID, 1.5), plan)
    assert threading.active_count() == before
    assert failed.traceback


def test_ensemble_memory_guard_refuses_before_allocating():
    # 2-D n=128: (128^2)^2 moment elements at 120 B each, about 30 GiB.
    # 64 slabs meet the weak-scattering guard there (32 do not).
    grid = FrequencyGrid(2, 128, 0.25, 1.55e-6)
    s0 = Spectrum.gaussian(grid, 0.5)
    plan = PropagationPlan(grid, MODEL, 1000.0, 64, 2, 0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError,
                           match=r"about 30\.0 GiB, above the 1 GiB limit"):
            ensemble_moments(s0, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("workers", [1, 3])
def test_ensemble_memory_within_its_estimate(monkeypatch, workers):
    # The guard's estimate bounds the peak it guards.  At 2-D n=32 the
    # (n^D)^2 accumulators and a block's real products dominate (1 MiB per
    # byte of the per-element estimate), not the 1-MiB chunks: three
    # chunks of one block each, so three workers have one each.
    monkeypatch.setattr(splitstep, "_cpu_count", lambda: workers)
    grid = FrequencyGrid(2, 32, 0.25, 1.55e-6)
    plan = PropagationPlan(grid, MODEL, 20.0, 2, 3 * BLOCK, 3)
    s0 = Spectrum.gaussian(grid, 0.5)
    tracemalloc.start()
    try:
        stats = ensemble_moments(s0, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.workers == workers
    size = grid.n ** grid.dim
    assert peak <= splitstep._ENSEMBLE_BYTES_PER_ELEMENT * size ** 2


def loop_propagate(s0, plan, realization):
    """Per-realization oracle built from the single-spectrum primitives,
    with the realization's screen drawn alone in every slab."""
    s = s0
    for slab in range(plan.n_slabs):
        s = free_space_step(s, plan.dz / 2.0)
        s = apply_screen(s, plan.slab_screen(realization, slab))
        s = free_space_step(s, plan.dz / 2.0)
    return s.values.ravel()


@pytest.mark.parametrize("dim,n,sigma_a", [(1, 64, 1.5), (2, 8, 0.5)])
def test_engine_matches_per_realization_loop(dim, n, sigma_a):
    grid = FrequencyGrid(dim, n, 0.25, 1.55e-6)
    s0 = Spectrum.gaussian(grid, sigma_a)
    n_real = BLOCK + 6  # one full block and a partial one
    plan = PropagationPlan(grid, MODEL, 1000.0, 32, n_real, 17)
    fields = np.array([loop_propagate(s0, plan, r) for r in range(n_real)])

    def close(got, want):
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    for r in (0, BLOCK - 1, n_real - 1):
        close(propagate(s0, plan, r).values.ravel(), fields[r])

    stats = ensemble_moments(s0, plan)
    mean = fields.mean(axis=0)
    second = np.einsum("ri,rj->ij", fields, np.conj(fields)) / n_real
    pair_power = np.einsum("ri,rj->ij", np.abs(fields) ** 2,
                           np.abs(fields) ** 2) / n_real
    mean_se = np.sqrt((np.mean(np.abs(fields) ** 2, axis=0)
                       - np.abs(mean) ** 2) / n_real)
    close(stats.mean_field.ravel(), mean)
    close(stats.mean_field_se.ravel(), mean_se)
    close(stats.second_moment, second)
    close(stats.second_moment_se,
          np.sqrt((pair_power - np.abs(second) ** 2) / n_real))
    sm = stats.second_moment
    assert np.array_equal(sm, sm.conj().T)
    assert np.all(np.imag(np.diagonal(sm)) == 0.0)


_MOMENTS_DIGEST = """
import hashlib, sys
import numpy as np
from ipfe.grid import FrequencyGrid, Spectrum
from ipfe.spectrum import SpectrumKind, TurbulenceModel
from ipfe.splitstep import PropagationPlan, ensemble_moments
# 2-D n=16: 256-site fields, so the matrix products are large enough for
# OpenBLAS to split them between threads.
grid = FrequencyGrid(2, 16, 0.25, 1.55e-6)
model = TurbulenceModel(SpectrumKind.VON_KARMAN, 9.2e-15, 1.0)
s0 = Spectrum.gaussian(grid, 0.5)
stats = ensemble_moments(s0, PropagationPlan(grid, model, 250.0, 16, 150, 3))
digest = hashlib.sha256()
for a in (stats.mean_field, stats.mean_field_se, stats.second_moment,
          stats.second_moment_se):
    digest.update(np.ascontiguousarray(a).tobytes())
sys.stdout.write(digest.hexdigest())
"""


def test_ensemble_moments_independent_of_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _MOMENTS_DIGEST],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=300)
        digests.append(out.stdout)
    assert len(digests[0]) == 64  # a SHA-256 hex digest
    assert digests[0] == digests[1]


@pytest.mark.parametrize("rows,sites", [(BLOCK, 64), (40, 64), (BLOCK, 256)])
def test_block_products_match_complex_products(rows, sites):
    # A full block, a partial one and a 2-D n=16 block, shifted like the
    # ensemble's rows, added to zero sums.  The real-product forms round
    # like the complex products to within 1e-15 of the largest entry;
    # their bitwise agreement depends on the BLAS, so it is not asserted
    # here.
    rng = np.random.default_rng(rows * sites)
    d = (rng.standard_normal((rows, sites))
         + 1j * rng.standard_normal((rows, sites)) + (0.3 - 0.2j))
    q = np.abs(d) ** 2
    got = (np.zeros((sites, sites), dtype=np.complex128),
           np.zeros((sites, sites), dtype=np.complex128),
           np.zeros((sites, sites), dtype=np.complex128),
           np.zeros((sites, sites)))
    assert block_products(d, q, got) is None
    want = (d.T @ np.conj(d), d.T @ d, q.T @ d, q.T @ q)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (sites, sites)
        assert g.dtype == w.dtype
        assert np.max(np.abs(g - w)) <= 1e-15 * np.max(np.abs(w))


_SPIN_PROBE = """
import sys, time
from ipfe import validation
from ipfe.grid import Spectrum
from ipfe.splitstep import ensemble_moments
plan = validation.REFERENCE
ensemble_moments(Spectrum.gaussian(plan.grid, 1.5), plan)
start = time.process_time()
time.sleep(0.3)
sys.stdout.write(repr(time.process_time() - start))
"""


def _numpy_uses_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not _numpy_uses_openblas(),
                    reason="the probe measures OpenBLAS's thread pool")
def test_reference_ensemble_leaves_no_blas_thread_spinning():
    # A complex matrix product of the ensemble's block size wakes
    # OpenBLAS's pool, whose threads then spin for about 0.12 s of CPU
    # after the call returns, on the cores the ensemble's workers use.
    # The real products of block_products run on the calling thread.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _SPIN_PROBE], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    assert float(out.stdout) < 0.040
