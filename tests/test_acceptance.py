"""End-to-end validation criteria at the reference configuration.

Each test runs one named check from the validation suite at its stated
tolerance and prints a single pass/fail line.  The Monte-Carlo ensemble is
computed once and shared by the checks that consume it.
"""

from dataclasses import replace

import numpy as np
import pytest

import ipfe
from ipfe import moments, splitstep
from ipfe.arrayio import read_array, write_array
from ipfe.grid import FrequencyGrid, Spectrum
from ipfe.phase_screen import ScreenLattice, screen_statistics
from ipfe.validation import (REFERENCE, REFERENCE_SOURCE_SIGMA_A,
                             check_conservation, check_duality,
                             check_first_moment, check_free_space,
                             check_mutual_coherence, check_rhs_oracles,
                             check_screens, check_stationarity,
                             check_wigner_formulas, environment_manifest,
                             run_validate)

# Monte-Carlo values (measured, standard error) reported at the reference
# configuration, with the screen of realization r in slab s at address
# (master_seed, s, r) of the stream contract and the kernels evolved by the
# exponential (Strang) step; with the screens and the kernel integrator
# fixed, only the reduction order of the moments may move them.
PINNED_MONTE_CARLO = {
    "first-moment-decay/monte-carlo": (0.7703472919687385,
                                       0.024071240990570092),
    "mutual-coherence/monte-carlo": (1.1049381425403824,
                                     0.008546777261115536),
    "mutual-coherence/relative-rms": (0.018027854626647567, None),
}


# The suite's checks, in report order.
CHECK_NAMES = [
    "free-space-exactness", "first-moment-decay/closed-form",
    "first-moment-decay/monte-carlo", "mutual-coherence/monte-carlo",
    "mutual-coherence/relative-rms", "conservation/trace",
    "conservation/hermiticity", "stationarity/diagonal",
    "stationarity/perturbed", "rhs-oracles", "wigner/linear-process",
    "wigner/fock-generating", "wigner/fock-central-negativity",
    "screens/variance", "screens/cross-correlation", "duality",
]

# The lattice check_screens computes the screens' statistics on.
SCREEN_GRID = FrequencyGrid(1, 32, REFERENCE.grid.delta_a,
                            REFERENCE.grid.wavelength)

# The reference source; every plan below but the 2-D one shares its grid.
SOURCE = Spectrum.gaussian(REFERENCE.grid, REFERENCE_SOURCE_SIGMA_A)

# cn2 = 0: every realization is the same field, so the standard errors are
# exactly 0 and the ensemble differs from the kernels by rounding only.
DETERMINISTIC = replace(REFERENCE, model=replace(REFERENCE.model, cn2=0.0),
                        n_realizations=8)


def ensemble(plan):
    """Split-step ensemble of the reference source under plan."""
    return splitstep.ensemble_moments(SOURCE, plan)


@pytest.fixture(scope="module")
def reference_ensemble():
    """Split-step ensemble at the reference configuration, computed once."""
    return ensemble(REFERENCE)


@pytest.fixture(scope="module")
def coherence_run(reference_ensemble):
    """Kernel integration matched against the shared ensemble."""
    return check_mutual_coherence(REFERENCE, SOURCE, reference_ensemble)


def report(results):
    for r in results:
        print(r.line())
    assert all(r.passed for r in results), \
        "\n".join(r.line() for r in results)


def test_free_space_integration_is_exact():
    report(check_free_space())


def test_first_moment_decay_matches_closed_form_and_ensemble(
        reference_ensemble):
    report(check_first_moment(REFERENCE, SOURCE, reference_ensemble))


def test_mutual_coherence_matches_ensemble(coherence_run):
    results, _, _ = coherence_run
    report(results)


def test_trace_and_hermiticity_conserved(coherence_run):
    _, evolved, initial = coherence_run
    report(check_conservation(REFERENCE, evolved, initial))


def test_hermiticity_check_measures_the_filled_sectors(coherence_run,
                                                      monkeypatch):
    # One real factor on the (2,2) sectors K = 1 and -1 keeps the kernel
    # exactly Hermitian and its trace (all in K = 0), so only the filled
    # sector -1, held to its direct evolution, shows it.
    _, evolved, initial = coherence_run
    evolve = moments.evolve_kernel

    def skewed(kernel, *args):
        out = evolve(kernel, *args)
        if out.orders == (2, 2):
            i, j, k, m = np.indices(out.values.shape)
            total = (i + j - k - m) % out.grid.n
            out.values[(total == 1) | (total == out.grid.n - 1)] *= 1 + 1e-6
        return out

    monkeypatch.setattr(moments, "evolve_kernel", skewed)
    passed = {r.name: r.passed
              for r in check_conservation(REFERENCE, evolved, initial)}
    assert passed == {"conservation/trace": True,
                      "conservation/hermiticity": False}


def test_conservation_reads_the_stored_diagnostics(coherence_run,
                                                   tmp_path, monkeypatch):
    # evolve_kernel measured both kernels once; check_conservation reads
    # what it stored: the one boundary-mass fraction is the evolve_kernel
    # call's own for the (2,2) kernel, and no Hermiticity residual runs
    # over a whole tensor.  A copy of the (1,1) kernel and the kernel read
    # back from a file store nothing, so their residual and fraction are
    # computed, to the same measured values.
    _, evolved, initial = coherence_run
    write_array(tmp_path / "h11.bin", evolved.values)
    read = moments.MomentKernel(evolved.orders, evolved.grid,
                                read_array(tmp_path / "h11.bin")[0],
                                evolved.z)
    calls = []
    for name in ("hermiticity_residual", "boundary_mass_fraction"):
        monkeypatch.setattr(moments, name,
                            lambda *args, f=getattr(moments, name), n=name:
                            calls.append(n) or f(*args))
    want = None
    for kernel in (evolved, replace(evolved), read):
        calls.clear()
        results = check_conservation(REFERENCE, kernel, initial)
        got = [(r.measured, r.boundary_mass) for r in results]
        want = want or got
        assert got == want
        if kernel is evolved:
            assert calls == ["boundary_mass_fraction"]
        else:
            assert "hermiticity_residual" in calls


def test_thermal_kernels_are_stationary_points():
    report(check_stationarity())


def test_right_hand_sides_match_loop_oracles():
    report(check_rhs_oracles())


def test_linear_process_and_fock_formulas():
    report(check_wigner_formulas())


def test_phase_screen_statistics():
    report(check_screens())


def test_screen_check_runs_at_the_largest_seed():
    # check_screens draws its site pairs at master_seed + 8 modulo 2^64, so
    # every seed a plan accepts validates; 2^64 - 1 wraps to seed 7.
    results = check_screens(replace(REFERENCE, master_seed=2 ** 64 - 1))
    report(results)
    stats = screen_statistics(REFERENCE.model, SCREEN_GRID, REFERENCE.dz, 7)
    assert [r.measured for r in results] == [stats.max_variance_error,
                                             stats.max_cross_covariance]


@pytest.mark.parametrize("inner_scale", [0.0, 1.0, 3.0, 5.0])
def test_screen_checks_pass_at_every_inner_scale(inner_scale):
    # Both errors are relative to the largest target variance, so modes
    # that the inner-scale rolloff drives to the rounding floor (a target
    # of 1.8e-87 at the 3-m edge mode) read at the rounding of the largest
    # modes, not as a failure.
    plan = replace(REFERENCE, model=replace(REFERENCE.model,
                                            inner_scale=inner_scale))
    results = check_screens(plan)
    report(results)
    assert all(r.measured <= 1e-15 for r in results)


def screen_verdicts(monkeypatch, name, replacement):
    """check_screens' verdicts, by name, with ScreenLattice.<name>
    replaced."""
    monkeypatch.setattr(ScreenLattice, name, replacement)
    return {r.name: r.passed for r in check_screens()}


@pytest.mark.parametrize("fault", ["amplitude-1.01", "no-sqrt2-planes"])
def test_screen_variance_check_sees_a_wrong_amplitude(monkeypatch, fault):
    # The amplitude 1% high, or without the sqrt(2) on the last axis's 0
    # and n/2 planes (where irfftn keeps only the Hermitian part).
    init = ScreenLattice.__init__

    def faulty(self, model, grid, dz):
        init(self, model, grid, dz)
        if fault == "amplitude-1.01":
            self.amplitude *= 1.01
        else:
            self.amplitude[..., [0, grid.n // 2]] /= np.sqrt(2.0)

    assert not screen_verdicts(monkeypatch, "__init__",
                               faulty)["screens/variance"]


def test_screen_cross_check_sees_a_leaked_coefficient(monkeypatch):
    # One half-lattice coefficient leaks, at 1e-6 of its value, into the
    # next mode up, for an adjacent pair of non-negative frequencies that
    # the check samples (DC-centred sites 22 and 23 at the reference seed).
    seed = (REFERENCE.master_seed + 8) % 2 ** 64
    stats = screen_statistics(REFERENCE.model, SCREEN_GRID, REFERENCE.dz,
                              seed)
    half = SCREEN_GRID.n // 2
    low = next(min(a, b) - half for a, b, _ in stats.cross_pairs
               if abs(a - b) == 1 and min(a, b) >= half)
    fields = ScreenLattice.fields

    def leaky(self, normals, coeff=None, out=None):
        out = fields(self, normals, coeff, out)
        leak = np.zeros((len(normals), half + 1), dtype=np.complex128)
        leak[:, low + 1] = 1e-6 * self.amplitude[low] * (
            normals[:, 0, low] + 1j * normals[:, 1, low])
        out += np.fft.irfft(leak, SCREEN_GRID.n) * (SCREEN_GRID.n
                                                   * SCREEN_GRID.cell)
        return out

    assert not screen_verdicts(monkeypatch, "fields",
                               leaky)["screens/cross-correlation"]


def test_characteristic_transform_duality():
    report(check_duality())


def test_monte_carlo_values_match_pinned_reference(reference_ensemble,
                                                   coherence_run):
    results = check_first_moment(REFERENCE, SOURCE, reference_ensemble)[1:]
    results += coherence_run[0]
    assert [r.name for r in results] == list(PINNED_MONTE_CARLO)
    for r in results:
        measured, se = PINNED_MONTE_CARLO[r.name]
        assert r.measured == pytest.approx(measured, rel=1e-9), r.name
        if se is not None:
            assert r.standard_error == pytest.approx(se, rel=1e-9), r.name


def test_run_validate_reports_ensemble_stage():
    result = run_validate()
    report = result.to_json_dict()
    assert report["passed"] is True
    assert [c["name"] for c in report["checks"]] == CHECK_NAMES
    assert set(report["stages"]) == {"ensemble_s"}
    assert not {"threads", "numba_enabled"} & set(report["environment"])
    # At most one worker per CPU.
    assert (1 <= report["environment"]["ensemble_workers"]
            <= splitstep._cpu_count())
    assert report["stages"]["ensemble_s"] > 0.0
    assert report["guards"] == REFERENCE.guard_values()
    # The values the plan computed before the guard formulas moved to
    # moments.step_guard_values.
    assert report["guards"] == {"sampling": 0.009738937226128359,
                                "weak_scattering": 0.07690749874548576}
    # Boundary mass of every evolved kernel, by the checks resting on it;
    # the cn2 = 0 integration has none to monitor.
    mass = report["boundary_mass"]
    assert list(mass) == [
        "free-space-exactness", "first-moment-decay/closed-form",
        "mutual-coherence/monte-carlo", "mutual-coherence/relative-rms",
        "conservation/trace", "conservation/hermiticity"]
    assert mass["free-space-exactness"] == 0.0
    assert all(0.0 < mass[name] < 1.0 for name in list(mass)[1:])
    assert (mass["mutual-coherence/monte-carlo"]
            <= mass["conservation/trace"])
    text = result.to_text()
    assert (f"[boundary-mass] mutual-coherence/monte-carlo: "
            f"{mass['mutual-coherence/monte-carlo']:.2e}") in text


def test_run_validate_measures_the_same_bits_on_any_worker_count(
        monkeypatch):
    # With 1, 2 or 3 workers allowed to the split-step ensemble, every
    # measured value of the report is the same float (evolve_kernel runs
    # on the calling thread alone).
    measured = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(splitstep, "_cpu_count", lambda w=workers: w)
        result = run_validate()
        assert result.environment["ensemble_workers"] == workers
        measured.append([(c.name, float.hex(c.measured))
                         for c in result.checks])
    assert [name for name, _ in measured[0]] == CHECK_NAMES
    assert measured[0] == measured[1] == measured[2]


def test_report_records_the_package_version(reference_ensemble):
    environment = environment_manifest(REFERENCE, reference_ensemble)
    assert environment["package_version"] == ipfe.__version__


def test_run_validate_on_2d_plan():
    # 64 realizations are too few for the 3-sigma Monte-Carlo bounds on
    # this grid, so only the shape of the report is asserted.
    grid = FrequencyGrid(2, 8, REFERENCE.grid.delta_a,
                         REFERENCE.grid.wavelength)
    plan = replace(REFERENCE, grid=grid, n_realizations=64)
    checks = run_validate(plan, Spectrum.gaussian(grid, 0.5)).checks
    assert [c.name for c in checks] == CHECK_NAMES
    assert all(np.isfinite(c.measured) for c in checks)


def test_deterministic_ensemble_passes_monte_carlo_checks():
    stats = ensemble(DETERMINISTIC)
    assert not np.any(stats.mean_field_se)
    assert not np.any(stats.second_moment_se)
    report(check_first_moment(DETERMINISTIC, SOURCE, stats)
           + check_mutual_coherence(DETERMINISTIC, SOURCE, stats)[0])


def test_perturbed_deterministic_ensemble_fails_monte_carlo_checks():
    # A 1e-10 relative error is far above rounding, so the standard-error
    # floor of a deterministic ensemble must not hide it.
    stats = ensemble(DETERMINISTIC)
    mean = stats.mean_field.copy()
    mean.flat[np.argmax(np.abs(mean))] *= 1.0 + 1e-10
    second = stats.second_moment.copy()
    second.flat[np.argmax(np.abs(second))] *= 1.0 + 1e-10
    first = check_first_moment(
        DETERMINISTIC, SOURCE, replace(stats, mean_field=mean))[1]
    coherence = check_mutual_coherence(
        DETERMINISTIC, SOURCE, replace(stats, second_moment=second))[0][0]
    assert first.name == "first-moment-decay/monte-carlo"
    assert coherence.name == "mutual-coherence/monte-carlo"
    assert not first.passed and not coherence.passed
