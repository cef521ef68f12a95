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
from ipfe.grid import FrequencyGrid, Spectrum
from ipfe.phase_screen import screen_statistics
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
                                                   monkeypatch):
    # evolve_kernel measured both kernels once; check_conservation reads
    # what it stored: the one boundary-mass fraction is the evolve_kernel
    # call's own for the (2,2) kernel, and no Hermiticity residual runs
    # over a whole tensor.
    _, evolved, initial = coherence_run
    calls = []
    for name in ("hermiticity_residual", "boundary_mass_fraction"):
        monkeypatch.setattr(moments, name,
                            lambda *args, f=getattr(moments, name), n=name:
                            calls.append(n) or f(*args))
    check_conservation(REFERENCE, evolved, initial)
    assert calls == ["boundary_mass_fraction"]


def test_thermal_kernels_are_stationary_points():
    report(check_stationarity())


def test_right_hand_sides_match_loop_oracles():
    report(check_rhs_oracles())


def test_linear_process_and_fock_formulas():
    report(check_wigner_formulas())


def test_phase_screen_statistics():
    report(check_screens())


def test_screen_check_runs_at_the_largest_seed():
    # check_screens draws at master_seed + 8 modulo 2^64, so every seed a
    # plan accepts validates; 2^64 - 1 wraps to seed 7.
    results = check_screens(replace(REFERENCE, master_seed=2 ** 64 - 1))
    report(results)
    grid = FrequencyGrid(1, 32, REFERENCE.grid.delta_a,
                         REFERENCE.grid.wavelength)
    stats = screen_statistics(REFERENCE.model, grid, REFERENCE.dz, 10000, 7)
    assert [r.measured for r in results] == [stats.max_rel_deviation,
                                             stats.max_cross_sigma]


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
