"""Negative tests of the output checkers in checks.py.

Each checker must accept a valid output and reject the same output with a
single perturbed element.  The traced run's coverage must count time spent
in wrapped layer functions and not time spent in ``cli.main`` itself.  The valid outputs are built here from closed
forms, except the .bin round trip, which also reads a file written by
``ipfe.arrayio.write_array`` to show the reader follows the format the
program writes.

Usage (from the root of a checkout): python3 perfbench/selfcheck.py
Exits nonzero and names the checker when any case goes the wrong way.
"""

from __future__ import annotations

import struct
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
FAILURES: list[str] = []


def expect(name: str, failures: list[str], should_pass: bool) -> None:
    if bool(failures) == should_pass:
        FAILURES.append(f"{name}: expected "
                        f"{'pass' if should_pass else 'rejection'}, got "
                        f"{failures or 'pass'}")


def bin_bytes(values: np.ndarray) -> bytes:
    header = b"IPFE" + struct.pack("<II", 1, values.ndim)
    header += struct.pack(f"<{values.ndim}I", *values.shape)
    pairs = np.stack([values.real, values.imag], axis=-1).astype("<f8")
    return header + pairs.tobytes()


def test_read_bin(tmp: Path, rng) -> None:
    values = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    path = tmp / "a.bin"
    data = bytearray(bin_bytes(values))
    path.write_bytes(data)
    expect("read_bin/valid",
           [] if np.array_equal(checks.read_bin(path), values) else ["diff"],
           True)
    # Perturb the real part of element (1, 2): 12 header + 4 * 2 axes.
    offset = 20 + 16 * (1 * 4 + 2)
    struct.pack_into("<d", data, offset, values[1, 2].real + 1e-9)
    path.write_bytes(data)
    expect("read_bin/perturbed",
           [] if np.array_equal(checks.read_bin(path), values) else ["diff"],
           False)
    for label, bad in (("magic", b"IPFF" + bytes(data[4:])),
                       ("version", bytes(data[:4]) + struct.pack("<I", 2)
                        + bytes(data[8:])),
                       ("truncated", bytes(data[:-1])),
                       ("trailing", bytes(data) + b"\0")):
        path.write_bytes(bad)
        try:
            checks.read_bin(path)
            expect(f"read_bin/{label}", [], False)
        except checks.BinFormatError:
            pass
    sys.path.insert(0, str(ROOT / "src"))
    from ipfe.arrayio import write_array
    tensor = rng.standard_normal((4, 4, 4, 4)) + 0j
    write_array(tmp / "ipfe.bin", tensor)
    expect("read_bin/ipfe-writer",
           [] if np.array_equal(checks.read_bin(tmp / "ipfe.bin"), tensor)
           else ["diff"], True)


def synthetic_ensemble(rng, n_samples=200):
    """Realizations scattered about the closed-form mean by complex Gaussian
    noise proportional to |g0| at each site, reduced as the ensemble is."""
    dim, n, delta_a = 2, 16, 0.25
    g0 = checks.gaussian_source(dim, n, delta_a, 0.5).ravel()
    expected = checks.closed_form_mean(
        g0.reshape(n, n), dim, delta_a, 1.55e-6, 9.2e-15, 1.0, 1000.0).ravel()
    noise = 0.3 * (rng.standard_normal((n_samples, n * n))
                   + 1j * rng.standard_normal((n_samples, n * n)))
    fields = expected + np.abs(g0) * noise
    mean = fields.mean(axis=0)
    second = np.einsum("ri,rj->ij", fields, np.conj(fields)) / n_samples
    se = np.sqrt(np.maximum(np.real(np.diagonal(second)) - np.abs(mean) ** 2,
                            0.0) / n_samples)
    return g0, expected, mean, se.astype(np.complex128), second, n_samples


def test_mean_decay(rng) -> None:
    g0, expected, mean, se, second, n = synthetic_ensemble(rng)
    expect("mean_decay/valid",
           checks.check_mean_decay(mean, se, second, expected, n), True)
    site = int(np.argmax(np.abs(expected)))
    bad = mean.copy()
    bad[site] += 8.0 * se[site].real
    expect("mean_decay/perturbed-mean",
           checks.check_mean_decay(bad, se, second, expected, n), False)
    bad_se = se.copy()
    bad_se[site] *= 1.01
    expect("mean_decay/perturbed-se",
           checks.check_mean_decay(mean, bad_se, second, expected, n), False)


def test_trace_and_hermitian(rng) -> None:
    g0 = checks.gaussian_source(2, 16, 0.25, 0.5).ravel()
    phases = np.exp(2j * np.pi * rng.random((50, g0.size)))
    fields = g0 * phases
    second = np.einsum("ri,rj->ij", fields, np.conj(fields)) / len(fields)
    second = 0.5 * (second + np.conj(second.T))
    cell = 0.25 ** 2
    expect("trace/valid", checks.check_second_moment_trace(second, g0, cell),
           True)
    expect("hermitian/valid", checks.check_hermitian(second), True)
    bad = second.copy()
    centre = int(np.argmax(np.abs(g0)))
    bad[centre, centre] *= 1.0 + 1e-6
    expect("trace/perturbed", checks.check_second_moment_trace(bad, g0, cell),
           False)
    bad = second.copy()
    bad[3, 7] += 1e-10 * np.max(np.abs(second))
    expect("hermitian/perturbed", checks.check_hermitian(bad), False)


def test_kernels() -> None:
    delta_a = 0.25
    g = checks.gaussian_source(1, 16, delta_a, 0.4, centre=0.25)
    h11 = np.outer(g, np.conj(g))
    pair = np.multiply.outer(g, g)
    f22 = np.multiply.outer(pair, np.conj(pair))
    norm_sq = float(np.sum(np.abs(g) ** 2)) * delta_a
    # Later snapshots: a unitary diagonal phase conserves trace and
    # Hermiticity, as free-space propagation does.
    u = np.exp(0.3j * np.arange(16) ** 2)
    h_z = u[:, None] * h11 * np.conj(u)[None, :]
    snaps11 = {0.0: h11, 500.0: h_z, 1000.0: h_z}
    snaps22 = {0.0: f22, 500.0: f22, 1000.0: f22}

    expect("kernel/valid-11",
           checks.check_kernel_snapshots(snaps11, h11, delta_a, 1), True)
    expect("kernel/valid-22",
           checks.check_kernel_snapshots(snaps22, f22, delta_a, 2), True)
    expect("exchange/valid", checks.check_exchange_symmetry(f22, 0.0), True)
    expect("partial-trace/valid",
           checks.check_partial_trace(f22, h11, norm_sq, delta_a, 0.0), True)

    scale = float(np.max(np.abs(h11)))
    bad = h_z.copy()
    bad[8, 8] += 1e-6 * scale
    expect("kernel/trace-perturbed", checks.check_kernel_snapshots(
        {0.0: h11, 500.0: bad, 1000.0: h_z}, h11, delta_a, 1), False)
    bad = h_z.copy()
    bad[8, 9] += 1e-8 * scale
    expect("kernel/hermiticity-perturbed", checks.check_kernel_snapshots(
        {0.0: h11, 500.0: h_z, 1000.0: bad}, h11, delta_a, 1), False)
    bad = h11.copy()
    bad[0, 0] += 1e-12 * scale
    expect("kernel/z0-perturbed", checks.check_kernel_snapshots(
        {0.0: bad, 500.0: h_z, 1000.0: h_z}, h11, delta_a, 1), False)

    scale22 = float(np.max(np.abs(f22)))
    bad = f22.copy()
    bad[7, 8, 8, 9] += 1e-9 * scale22
    expect("exchange/perturbed", checks.check_exchange_symmetry(bad, 0.0),
           False)
    bad = f22.copy()
    bad[8, 5, 9, 5] += 1e-9 * scale22
    expect("partial-trace/perturbed",
           checks.check_partial_trace(bad, h11, norm_sq, delta_a, 0.0), False)


def test_validate_report() -> None:
    report = {"passed": True, "checks": [
        {"name": name, "measured": 0.5, "tolerance": 1.0,
         "lower_bound": None, "standard_error": 0.1, "passed": True}
        for name in checks.EXPECTED_VALIDATE_CHECKS]}
    expect("validate/valid", checks.check_validate_report(report), True)
    bad = {"passed": True, "checks": [dict(c) for c in report["checks"]]}
    bad["checks"][3]["measured"] = 1.5
    expect("validate/measured-out-of-window",
           checks.check_validate_report(bad), False)
    bad = {"passed": True, "checks": report["checks"][:-1]}
    expect("validate/missing-check", checks.check_validate_report(bad), False)


def test_coverage() -> None:
    """Work done in a wrapped layer function counts toward the coverage;
    the same work done in cli.main itself does not."""
    def work():
        t_end = time.perf_counter() + 0.05
        while time.perf_counter() < t_end:
            pass

    def traced_op(work_in_layer: bool) -> float:
        tracer = spans.Tracer()
        layer = tracer.wrap(work, "grid.to_position")

        def main():
            (layer if work_in_layer else work)()

        t0 = time.perf_counter()
        tracer.wrap(main, "cli.main")()
        values = spans.layer_metrics(tracer, {0: time.perf_counter() - t0})
        return values["trace.self_coverage"]

    for work_in_layer, case in ((True, "layer"), (False, "cli.main")):
        coverage = traced_op(work_in_layer)
        if (abs(coverage - 1.0) <= 0.05) != work_in_layer:
            FAILURES.append(f"coverage/work-in-{case}: coverage "
                            f"{coverage:.4f}")


def main() -> int:
    rng = np.random.default_rng(20240117)
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        test_read_bin(Path(tmp), rng)
    test_mean_decay(rng)
    test_trace_and_hermitian(rng)
    test_kernels()
    test_validate_report()
    test_coverage()
    for message in FAILURES:
        print(f"FAIL {message}")
    print("selfcheck: " + ("FAIL" if FAILURES else "all checkers accept "
                           "valid outputs and reject perturbed ones"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
