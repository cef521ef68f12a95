"""Cross-validation suite joining the kernel integrator, the closed forms,
and the split-step Monte-Carlo propagator.

Each check returns CheckResult records with a measured value and its
tolerance; run_validate executes the full suite on one propagation plan
and source (the reference ones by default) and aggregates a
ValidationReport.  All checks are deterministic given the master seed.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import moments, splitstep, states
from ._accel import pair_shift_sum_loop
from .grid import FrequencyGrid, Spectrum
from .phase_screen import keyed_generator, screen_statistics
from .spectrum import SpectrumKind, TurbulenceModel, lambda_grid, psd_lattice
from .splitstep import PropagationPlan

# Reference run: weak von Karman turbulence on a 1-D lattice, sized so the
# per-slab guards hold with margin and the total first-moment decay
# exp(-k^2 Lambda z / 2) is of order e^-1.2.  configs/reference.json
# describes the same plan and source.
REFERENCE = PropagationPlan(
    FrequencyGrid(dim=1, n=64, delta_a=0.25, wavelength=1.55e-6),
    TurbulenceModel(SpectrumKind.VON_KARMAN, cn2=9.2e-15, outer_scale=1.0,
                    inner_scale=0.0),
    z_total=1000.0, n_slabs=32, n_realizations=1000, master_seed=20240117)
# Width of the reference Gaussian source (cycles/m).
REFERENCE_SOURCE_SIGMA_A = 1.5


@dataclass
class CheckResult:
    name: str
    description: str
    measured: float
    tolerance: float
    passed: bool
    lower_bound: float | None = None
    standard_error: float | None = None
    elapsed_s: float = 0.0
    # Boundary-mass fraction (moments.monitored_boundary_mass) of the
    # evolved kernels the measurement rests on; None if it evolves none.
    boundary_mass: float | None = None
    # False when the plan leaves nothing for the check to assert; the
    # measurement is still reported, but not counted in the verdict.
    applicable: bool = True

    def line(self) -> str:
        state = ("N/A" if not self.applicable
                 else "PASS" if self.passed else "FAIL")
        if self.lower_bound is not None:
            window = f"in ({self.lower_bound:.1e}, {self.tolerance:.1e})"
        else:
            window = f"<= {self.tolerance:.1e}"
        return (f"[{state}] {self.name}: measured {self.measured:.3e} "
                f"{window} ({self.elapsed_s:.2f} s)")


@dataclass
class ValidationReport:
    checks: list[CheckResult]
    environment: dict = field(default_factory=dict)
    # Wall time of work shared by several checks, by stage name (seconds).
    stages: dict = field(default_factory=dict)
    # The plan's per-slab guard values (PropagationPlan.guard_values).
    guards: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)

    @property
    def boundary_mass(self) -> dict:
        """Boundary-mass fraction of the evolved kernels, by check name."""
        return {c.name: c.boundary_mass for c in self.checks
                if c.boundary_mass is not None}

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "environment": self.environment,
            "stages": self.stages,
            "guards": self.guards,
            "boundary_mass": self.boundary_mass,
            "checks": [
                {
                    "name": c.name,
                    "description": c.description,
                    "measured": c.measured,
                    "tolerance": c.tolerance,
                    "lower_bound": c.lower_bound,
                    "standard_error": c.standard_error,
                    "passed": c.passed,
                    "applicable": c.applicable,
                    "elapsed_s": c.elapsed_s,
                }
                for c in self.checks
            ],
        }

    def to_text(self) -> str:
        lines = [c.line() for c in self.checks]
        lines += [f"[stage] {name}: {seconds:.2f} s"
                  for name, seconds in self.stages.items()]
        lines += [f"[boundary-mass] {name}: {fraction:.2e}"
                  for name, fraction in self.boundary_mass.items()]
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _timed(result: CheckResult, t0: float) -> CheckResult:
    result.elapsed_s = time.perf_counter() - t0
    return result


def _bound(name, description, measured, tolerance, lower_bound=None,
           standard_error=None) -> CheckResult:
    if lower_bound is None:
        passed = measured <= tolerance
    else:
        passed = lower_bound < measured < tolerance
    return CheckResult(name, description, float(measured), float(tolerance),
                       bool(passed), lower_bound, standard_error)


def _check_rng(plan: PropagationPlan, offset: int) -> np.random.Generator:
    """Philox key ((master_seed + offset) mod 2^64, 0) of a check's data."""
    return keyed_generator((plan.master_seed + offset) % 2 ** 64, 0)


def _random_hermitian(n: int, rng) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


def _rounding_floor(se: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Standard errors floored at 64 ulp of the reference quantity's scale.

    A deterministic ensemble (cn2 = 0) has standard errors of exactly 0,
    and its deviation from the kernel is then rounding, not sampling.
    """
    return np.maximum(
        se, 64 * np.finfo(np.float64).eps * np.max(np.abs(reference)))


# ---------------------------------------------------------------------------
# naive loop oracles (independent of the spectral generator)

def _naive_pair_rhs(values, grid, model, sign: int) -> np.ndarray:
    """Right-hand side of a rank-2 kernel, its shift sum the roll loop
    _accel.pair_shift_sum_loop: sign -1 is the (1,1) equation, whose second
    index moves with the first (values[i + s, j + s]), sign +1 the (2,0)
    equation, whose second index moves against it (values[i + s, j - s])."""
    asq = grid.freq_sq()
    lam = lambda_grid(model, grid)
    k = grid.wavenumber
    acc = pair_shift_sum_loop(values, [0], [1], psd_lattice(model, grid),
                              -sign)
    scatter = k ** 2 * acc * grid.cell
    return (1j * np.pi * grid.wavelength
            * (asq[:, None] + sign * asq[None, :]) * values
            - k ** 2 * lam * values
            + (scatter if sign < 0 else -scatter))


def _naive_rank4_rhs(values, grid, model) -> np.ndarray:
    """Two-photon right-hand side written directly as the seven-term
    bracket under one scattering integral (an independent formulation of
    the same equation the general-order code assembles pairwise), summed
    over the shift by cyclic shifts of the whole kernel (np.roll), for all
    sites at once."""
    n = grid.n
    asq = grid.freq_sq()
    phi = psd_lattice(model, grid)
    k = grid.wavenumber
    f = values

    def shifted(*steps):  # f at (b1 + steps[0], ..., k2 + steps[3]) mod n
        return np.roll(f, [-step for step in steps], axis=(0, 1, 2, 3))

    acc = np.zeros_like(values)
    for t in range(n):
        s = t - n // 2
        w = phi[t]
        if w == 0.0:
            continue
        acc += w * (
            2.0 * f
            - shifted(-s, 0, -s, 0)
            - shifted(0, -s, 0, -s)
            - shifted(-s, 0, 0, -s)
            - shifted(0, -s, -s, 0)
            + shifted(-s, s, 0, 0)
            + shifted(0, 0, -s, s))
    drift = (asq[:, None, None, None] + asq[None, :, None, None]
             - asq[None, None, :, None] - asq[None, None, None, :])
    return (1j * np.pi * grid.wavelength * drift * f
            - k ** 2 * acc * grid.cell)


# ---------------------------------------------------------------------------
# individual checks

def check_free_space(plan: PropagationPlan = REFERENCE) -> list[CheckResult]:
    """cn2 = 0 integration must reproduce the pure-phase closed form."""
    t0 = time.perf_counter()
    grid = FrequencyGrid(1, 32, plan.grid.delta_a, plan.grid.wavelength)
    model = replace(plan.model, cn2=0.0)
    rng = _check_rng(plan, 1)
    h0 = moments.MomentKernel((1, 1), grid, _random_hermitian(32, rng))
    z = 100.0
    out = moments.evolve_h11(h0, model, z, 16)
    asq = grid.freq_sq()
    phase = np.exp(1j * np.pi * grid.wavelength * z
                   * (asq[:, None] - asq[None, :]))
    err = float(np.max(np.abs(out.values - h0.values * phase)))
    result = _bound(
        "free-space-exactness",
        "zero-turbulence kernel integration vs closed-form phase factor",
        err, 1e-10)
    result.boundary_mass = moments.monitored_boundary_mass(out, model)
    return [_timed(result, t0)]


def check_first_moment(plan: PropagationPlan, source: Spectrum,
                       stats: splitstep.EnsembleStats) -> list[CheckResult]:
    """Closed-form first-moment decay vs direct integration and vs the
    split-step ensemble mean of source under plan."""
    t0 = time.perf_counter()
    closed = moments.evolve_h10(source, plan.model, plan.z_total)
    h10 = moments.MomentKernel((1, 0), plan.grid, source.values)
    integrated = moments.evolve_kernel(h10, plan.model, plan.z_total, 256)
    scale = float(np.max(np.abs(closed.values)))
    err_closed = float(np.max(np.abs(integrated.values - closed.values))
                       / scale)
    results = [_timed(_bound(
        "first-moment-decay/closed-form",
        "closed-form decay exp(-k^2 Lambda z / 2) vs direct integration "
        "of the (1,0) equation",
        err_closed, 1e-10), t0)]
    results[0].boundary_mass = moments.monitored_boundary_mass(integrated,
                                                               plan.model)

    t0 = time.perf_counter()
    diff = np.abs(stats.mean_field - closed.values)
    se = _rounding_floor(stats.mean_field_se, closed.values)
    max_sigma = float(np.max(diff / se))
    results.append(_timed(_bound(
        "first-moment-decay/monte-carlo",
        "ensemble mean field vs closed form, max deviation in standard "
        "errors",
        max_sigma, 3.0,
        standard_error=float(np.max(stats.mean_field_se))), t0))
    return results


# Share of the kernel's trace the mutual-coherence checks compare on.
_CORE_TRACE_FRACTION = 0.99


def _core_sites(h_diag: np.ndarray) -> np.ndarray:
    mags = np.abs(h_diag)
    order = np.argsort(mags)[::-1]
    cum = np.cumsum(mags[order])
    count = int(np.searchsorted(cum, _CORE_TRACE_FRACTION * cum[-1])) + 1
    return np.sort(order[:count])


def check_mutual_coherence(plan: PropagationPlan, source: Spectrum,
                           stats: splitstep.EnsembleStats):
    """Second-moment ensemble vs kernel integration (the core oracle).

    Returns (results, evolved_kernel, initial_kernel) so the conservation
    check can reuse the integration.
    """
    t0 = time.perf_counter()
    h0 = moments.MomentKernel(
        (1, 1), plan.grid,
        np.multiply.outer(source.values, np.conj(source.values)))
    evolved = moments.evolve_h11(h0, plan.model, plan.z_total, plan.n_slabs)

    # Compared over flattened sites, the layout of stats.second_moment.
    h = evolved.values.reshape(stats.second_moment.shape)
    sites = _core_sites(np.diagonal(h))
    sub = np.ix_(sites, sites)
    diff = np.abs(stats.second_moment[sub] - h[sub])
    se = _rounding_floor(stats.second_moment_se[sub], h[sub])
    max_sigma = float(np.max(diff / se))
    rel_rms = float(np.sqrt(np.sum(diff ** 2) / np.sum(np.abs(h[sub]) ** 2)))
    results = [
        _bound("mutual-coherence/monte-carlo",
               "ensemble <G G*> vs kernel integration, max deviation in "
               "standard errors on the 99%-trace sites",
               max_sigma, 3.0,
               standard_error=float(np.max(stats.second_moment_se[sub]))),
        _bound("mutual-coherence/relative-rms",
               "relative RMS discrepancy on the 99%-trace sites",
               rel_rms, 0.05),
    ]
    frac = moments.monitored_boundary_mass(evolved, plan.model)
    elapsed = time.perf_counter() - t0
    for r in results:
        r.elapsed_s = elapsed / len(results)
        r.boundary_mass = frac
    return results, evolved, h0


def _fill_residual(plan: PropagationPlan, evolved: moments.MomentKernel,
                   initial: moments.MomentKernel) -> float:
    """max |evolved - direct| relative to max |evolved| (0 if evolve_kernel
    filled no sector by conjugate transpose), direct being every sector
    of initial evolved under plan by the generator evolved carries: the
    premise of the fill, that the evolution commutes with the conjugate
    transpose.  The held sectors differ by exactly 0, so this measures the
    filled ones."""
    if not evolved.sectors_filled:
        return 0.0
    gen = evolved.generator
    direct = gen.to_sectors(initial.values)
    gen.evolve(direct, plan.z_total / plan.n_slabs, plan.n_slabs)
    return float(np.max(np.abs(gen.to_sectors(evolved.values) - direct))
                 / np.max(np.abs(evolved.values)))


def check_conservation(plan: PropagationPlan, evolved: moments.MomentKernel,
                       initial: moments.MomentKernel) -> list[CheckResult]:
    """Trace conservation and Hermiticity over the (1,1) integration of
    check_mutual_coherence and a (2,2) one under the same plan, with the
    Hermiticity residuals and boundary-mass fractions of
    moments.kernel_diagnostics.  The fill makes both kernels Hermitian
    outside their self-conjugate sectors by construction, so the (2,2)
    residual also
    measures the sectors that evolve_kernel filled by conjugate transpose
    against their direct evolution; the (1,1) ones are held to the
    Monte-Carlo ensemble by check_mutual_coherence."""
    t0 = time.perf_counter()
    tr0 = moments.kernel_trace(initial)
    tr1 = moments.kernel_trace(evolved)
    drift11 = abs(tr1 - tr0) / abs(tr0)

    small = FrequencyGrid(1, 8, plan.grid.delta_a, plan.grid.wavelength)
    prof = Spectrum.gaussian(small, 0.4).values
    pair = np.multiply.outer(prof, prof)
    f0 = moments.MomentKernel(
        (2, 2), small, np.multiply.outer(pair, np.conj(pair)))
    f1 = moments.evolve_kernel(f0, plan.model, plan.z_total, plan.n_slabs)
    drift22 = abs(moments.kernel_trace(f1) - moments.kernel_trace(f0)) \
        / abs(moments.kernel_trace(f0))
    herm = max(moments.kernel_diagnostics(evolved)[0],
               moments.kernel_diagnostics(f1)[0], _fill_residual(plan, f1, f0))
    frac = max(moments.monitored_boundary_mass(evolved, plan.model),
               moments.monitored_boundary_mass(f1, plan.model))

    elapsed = time.perf_counter() - t0
    results = [
        _bound("conservation/trace",
               "relative trace drift over single- and two-photon "
               "integrations",
               max(drift11, drift22), 1e-8),
        _bound("conservation/hermiticity",
               "Hermiticity residual of the integrated kernels, filled "
               "sectors against their direct evolution",
               herm, 1e-10),
    ]
    for r in results:
        r.elapsed_s = elapsed / len(results)
        r.boundary_mass = frac
    return results


def check_stationarity(plan: PropagationPlan = REFERENCE
                       ) -> list[CheckResult]:
    """Delta-diagonal Gaussian kernels are exact stationary points; a small
    off-diagonal perturbation produces a first-order residual.  Without
    scattering (Lambda = 0) there is no rate to measure that residual in,
    so the perturbed check is reported as not applicable."""
    grid = FrequencyGrid(1, 32, plan.grid.delta_a, plan.grid.wavelength)
    model = plan.model
    k = grid.wavenumber
    lam = lambda_grid(model, grid)

    def residual(state):
        # Drift in units of the scattering rate; the bare drift when
        # nothing scatters (Lambda = 0).
        rhs, fourth = states.gaussian_drift(state, model)
        scale = k ** 2 * lam * float(np.max(np.abs(state.a_kernel)))
        return max(float(np.max(np.abs(rhs))) / (scale or 1.0), fourth)

    t0 = time.perf_counter()
    worst = 0.0
    for width in (2.0, 1.0, 3.0, 5.0):
        worst = max(worst, residual(states.GaussianState.thermal(grid, width)))
    results = [_timed(_bound(
        "stationarity/diagonal",
        "normalized drift of vacuum and three thermal widths",
        worst, 1e-12), t0)]

    t0 = time.perf_counter()
    eps = 1e-3
    state = states.GaussianState.thermal(grid, 2.0)
    i, j = grid.n // 2 + 1, grid.n // 2 - 2
    state.a_kernel[i, j] += eps * grid.delta_weight
    state.a_kernel[j, i] += eps * grid.delta_weight
    perturbed = _bound(
        "stationarity/perturbed",
        "normalized drift under an off-diagonal 1e-3 perturbation",
        residual(state), 1e-2, lower_bound=1e-4)
    perturbed.applicable = bool(lam != 0.0)
    results.append(_timed(perturbed, t0))
    return results


def check_rhs_oracles(plan: PropagationPlan = REFERENCE
                      ) -> list[CheckResult]:
    """Spectral right-hand sides vs naive modular-index loops (n = 8)."""
    grid = FrequencyGrid(1, 8, plan.grid.delta_a, plan.grid.wavelength)
    model = plan.model
    rng = _check_rng(plan, 6)

    t0 = time.perf_counter()
    h11 = moments.MomentKernel((1, 1), grid, _random_hermitian(8, rng))
    oracle11 = _naive_pair_rhs(h11.values, grid, model, -1)
    err = float(np.max(np.abs(moments.h11_rhs(h11, model).values
                              - oracle11)))

    raw = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    h20 = moments.MomentKernel((2, 0), grid, raw + raw.T)
    err = max(err, float(np.max(np.abs(
        moments.hierarchy_rhs(h20, model).values
        - _naive_pair_rhs(h20.values, grid, model, 1)))))

    raw4 = (rng.standard_normal((8,) * 4) + 1j * rng.standard_normal((8,) * 4))
    sym = raw4 + raw4.transpose(1, 0, 2, 3)
    sym = sym + sym.transpose(0, 1, 3, 2)
    f22 = moments.MomentKernel((2, 2), grid, sym)
    err = max(err, float(np.max(np.abs(
        moments.biphoton_rhs(f22, model).values
        - _naive_rank4_rhs(f22.values, grid, model)))))

    return [_timed(_bound(
        "rhs-oracles",
        "single-photon, (2,0), and two-photon right-hand sides vs naive "
        "loop oracles",
        err, 1e-12), t0)]


def check_wigner_formulas(plan: PropagationPlan = REFERENCE
                          ) -> list[CheckResult]:
    """Linear-process Wigner functional and Fock-state formulas."""
    grid = FrequencyGrid(1, 8, plan.grid.delta_a, plan.grid.wavelength)
    size = 8
    results = []

    t0 = time.perf_counter()
    zero = states.LinearProcess(grid, np.zeros((size, size)))
    log_norm, b_lin = states.wigner_linear_process(zero)
    err = max(abs(log_norm),
              float(np.max(np.abs(
                  b_lin - 2.0 * grid.delta_weight * np.eye(size)))))
    theta = 0.7
    diag = states.LinearProcess(
        grid, np.exp(1j * theta) * grid.delta_weight * np.eye(size))
    log_norm, b_lin = states.wigner_linear_process(diag)
    expected = -2j * np.tan(theta / 2.0) * grid.delta_weight * np.eye(size)
    err = max(err, float(np.max(np.abs(b_lin - expected))))

    rng = _check_rng(plan, 7)
    t_mat = _random_hermitian(size, rng) * 0.2 * grid.delta_weight
    proc = states.LinearProcess(grid, t_mat)
    top = proc.operator()
    evals, evecs = np.linalg.eigh(0.5 * (top + top.conj().T))
    for _ in range(10):
        av = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        alpha = Spectrum(grid, av)
        w = states.evaluate_linear_process(proc, alpha)
        coeff = evecs.conj().T @ av
        quad = np.sum(np.abs(coeff) ** 2 * 2.0 * (1.0 - evals)
                      / (1.0 + evals)) * grid.cell
        oracle = np.exp(-np.sum(np.log(1.0 + evals)) - quad)
        err = max(err, abs(w - oracle) / abs(oracle))
    results.append(_timed(_bound(
        "wigner/linear-process",
        "linear-process Wigner functional vs closed-form and "
        "eigen-decomposition oracles",
        err, 1e-10), t0))

    t0 = time.perf_counter()
    prof = np.exp(-grid.freq_sq()).astype(np.complex128)
    fock = states.FockSpec.normalized(grid, prof)
    alpha = Spectrum(grid, 0.3 * prof + 0.1j)
    gen = lambda e: states.fock_generating(e, fock, alpha)  # noqa: E731
    h1, h2 = 1e-5, 1e-4
    fd = {
        0: gen(0.0),
        1: (gen(h1) - gen(-h1)) / (2.0 * h1),
        2: (gen(h2) - 2.0 * gen(0.0) + gen(-h2)) / h2 ** 2 / 2.0,
    }
    err = 0.0
    for order in (0, 1, 2):
        direct = states.fock_wigner(order, fock, alpha)
        err = max(err, abs(fd[order] - direct) / abs(direct))
    results.append(_timed(_bound(
        "wigner/fock-generating",
        "Fock Wigner values vs finite differences of the generating "
        "function",
        err, 1e-6), t0))

    t0 = time.perf_counter()
    central = states.fock_wigner(1, fock, Spectrum(grid, np.zeros(size)))
    results.append(_timed(_bound(
        "wigner/fock-central-negativity",
        "single-photon central value equals -N0 exactly",
        abs(central + 1.0), 0.0), t0))
    return results


def check_screens(plan: PropagationPlan = REFERENCE) -> list[CheckResult]:
    """Exact per-mode variance and cross-mode covariance of the drawn
    screens, relative to the largest target variance."""
    grid = FrequencyGrid(1, 32, plan.grid.delta_a, plan.grid.wavelength)
    t0 = time.perf_counter()
    stats = screen_statistics(plan.model, grid, plan.dz,
                              (plan.master_seed + 8) % 2 ** 64)
    elapsed = time.perf_counter() - t0
    results = [
        _bound("screens/variance",
               "exact per-mode variance of the drawn screens vs target, max "
               "deviation over the largest target",
               stats.max_variance_error, 1e-12),
        _bound("screens/cross-correlation",
               "exact cross-mode covariance of the drawn screens (max over "
               "64 random non-mirror pairs) over the largest target",
               stats.max_cross_covariance, 1e-12),
    ]
    for r in results:
        r.elapsed_s = elapsed / len(results)
    return results


def check_duality(plan: PropagationPlan = REFERENCE) -> list[CheckResult]:
    """Vacuum self-duality and thermal width mapping of the
    characteristic-functional transform."""
    grid = FrequencyGrid(1, 16, plan.grid.delta_a, plan.grid.wavelength)
    t0 = time.perf_counter()
    vac = states.GaussianState.vacuum(grid)
    dual, log_norm = states.characteristic_of_gaussian(vac)
    scale = float(np.max(np.abs(vac.a_kernel)))
    err = max(float(np.max(np.abs(dual.a_kernel - vac.a_kernel))) / scale,
              abs(log_norm))

    thermal = states.GaussianState.thermal(grid, 4.0)
    t_dual, _ = states.characteristic_of_gaussian(thermal)
    expected = grid.delta_weight * np.eye(16)  # width 4/c = 1
    err = max(err, float(np.max(np.abs(t_dual.a_kernel - expected)))
              / float(np.max(np.abs(expected))))
    off_diag = t_dual.a_kernel - np.diag(np.diagonal(t_dual.a_kernel))
    err = max(err, float(np.max(np.abs(off_diag)))
              / float(np.max(np.abs(t_dual.a_kernel))))

    back, _ = states.characteristic_of_gaussian(t_dual)
    err = max(err, float(np.max(np.abs(back.a_kernel - thermal.a_kernel)))
              / float(np.max(np.abs(thermal.a_kernel))))
    return [_timed(_bound(
        "duality",
        "vacuum self-duality, thermal width mapping, and transform "
        "involution",
        err, 1e-10), t0)]


# ---------------------------------------------------------------------------

def environment_manifest(plan: PropagationPlan,
                         stats: splitstep.EnsembleStats) -> dict:
    # Imported here: the package imports this module before it defines
    # __version__.
    from . import __version__
    return {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "platform": platform.platform(),
        "master_seed": plan.master_seed,
        "ensemble_workers": stats.workers,
    }


def run_validate(plan: PropagationPlan = REFERENCE,
                 source: Spectrum | None = None) -> ValidationReport:
    """Execute the full cross-validation suite on plan with the given
    source (default: the reference Gaussian on plan's grid) and return the
    report."""
    if source is None:
        source = Spectrum.gaussian(plan.grid, REFERENCE_SOURCE_SIGMA_A)
    checks: list[CheckResult] = []
    checks += check_free_space(plan)

    t0 = time.perf_counter()
    stats = splitstep.ensemble_moments(source, plan)
    stages = {"ensemble_s": time.perf_counter() - t0}

    checks += check_first_moment(plan, source, stats)
    mc_results, evolved, initial = check_mutual_coherence(plan, source,
                                                          stats)
    checks += mc_results
    checks += check_conservation(plan, evolved, initial)
    # No later check reads the (1,1) kernels: their values and the
    # generator evolved carries go before the remaining checks run.
    del evolved, initial
    checks += check_stationarity(plan)
    checks += check_rhs_oracles(plan)
    checks += check_wigner_formulas(plan)
    checks += check_screens(plan)
    checks += check_duality(plan)
    return ValidationReport(checks, environment_manifest(plan, stats),
                            stages, plan.guard_values())
