"""Output checkers that do not use the code under test.

Every function here reads what an ``ipfe`` command wrote and compares it
with an independent computation (closed forms written out below from the
documented formulas) or with a property the method must have (unitarity,
Hermiticity, exchange symmetry, the partial-trace identity).  Nothing is
imported from ``ipfe``.  Each checker returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

BIN_MAGIC = b"IPFE"
BIN_VERSION = 1

# Names of the checks `ipfe validate` must report, in report order.
EXPECTED_VALIDATE_CHECKS = (
    "free-space-exactness",
    "first-moment-decay/closed-form",
    "first-moment-decay/monte-carlo",
    "mutual-coherence/monte-carlo",
    "mutual-coherence/relative-rms",
    "conservation/trace",
    "conservation/hermiticity",
    "stationarity/diagonal",
    "stationarity/perturbed",
    "rhs-oracles",
    "wigner/linear-process",
    "wigner/fock-generating",
    "wigner/fock-central-negativity",
    "screens/variance",
    "screens/cross-correlation",
    "duality",
)

# Per-site and projected bounds, in standard errors, for the ensemble mean.
# Under the central-limit approximation a complex deviation exceeds t
# standard errors with probability at most 2*Phi(-t) per real component
# direction, so 256 sites at 6 sigma give a family-wise false-alarm rate
# below 256 * 2 * Phi(-6) = 5e-7 per operation, and the single projected
# statistic at 5 sigma below 2 * Phi(-5) = 6e-7.
SITE_SIGMA_BOUND = 6.0
PROJECTED_SIGMA_BOUND = 5.0

# 64 units of double-precision rounding, relative to the largest element.
HERMITIAN_ROUNDING = 64 * 2.0 ** -52


class BinFormatError(ValueError):
    """A .bin file that does not follow the documented layout."""


def read_bin(path) -> np.ndarray:
    """Read an ipfe binary tensor from its documented layout.

    Layout: magic ``IPFE``, then little-endian u32 format version, rank,
    and ``rank`` axis lengths, then the payload as little-endian float64
    (real, imaginary) pairs in row-major order, and nothing after it.
    """
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != BIN_MAGIC:
        raise BinFormatError(f"{path}: bad magic {data[:4]!r}")
    version, rank = struct.unpack_from("<II", data, 4)
    if version != BIN_VERSION:
        raise BinFormatError(f"{path}: format version {version}")
    offset = 12 + 4 * rank
    if len(data) < offset:
        raise BinFormatError(f"{path}: truncated axis lengths")
    shape = struct.unpack_from(f"<{rank}I", data, 12)
    count = math.prod(shape)
    if len(data) != offset + 16 * count:
        raise BinFormatError(
            f"{path}: {len(data) - offset} payload bytes for shape {shape}")
    pairs = np.frombuffer(data, dtype="<f8", offset=offset)
    pairs = pairs.reshape(tuple(shape) + (2,))
    return pairs[..., 0] + 1j * pairs[..., 1]


def von_karman_psd(k_mag, cn2: float, outer_scale: float):
    """Phi_n(|k|) = 0.033 (2 pi)^3 Cn2 (|k|^2 + (2 pi / L0)^2)^(-11/6),
    with |k| in rad/m (no inner-scale rolloff)."""
    kappa0 = 2.0 * math.pi / outer_scale
    return (0.033 * (2.0 * math.pi) ** 3 * cn2
            * (np.asarray(k_mag) ** 2 + kappa0 ** 2) ** (-11.0 / 6.0))


def lattice_freq_sq(dim: int, n: int, delta_a: float) -> np.ndarray:
    """|a|^2 on the DC-centred lattice a_j = (j - n/2) delta_a."""
    axis = (np.arange(n) - n // 2) * delta_a
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return sum(m * m for m in mesh)


def lattice_lambda(dim, n, delta_a, cn2, outer_scale) -> float:
    """Lattice-sum Lambda = sum_a Phi_n(2 pi |a|) delta_a^D."""
    a_mag = np.sqrt(lattice_freq_sq(dim, n, delta_a))
    psd = von_karman_psd(2.0 * math.pi * a_mag, cn2, outer_scale)
    return float(np.sum(psd)) * delta_a ** dim


def gaussian_source(dim, n, delta_a, sigma_a, amplitude=1.0,
                    centre=0.0) -> np.ndarray:
    """amplitude * exp(-|a - centre|^2 / (2 sigma_a^2)) on the lattice."""
    axis = (np.arange(n) - n // 2) * delta_a - centre
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return (amplitude * np.exp(-sum(m * m for m in mesh)
                               / (2.0 * sigma_a ** 2))).astype(np.complex128)


def closed_form_mean(g0, dim, delta_a, wavelength, cn2, outer_scale,
                     z) -> np.ndarray:
    """E[G(a, z)] = G0(a) exp(i pi lambda z |a|^2) exp(-k^2 Lambda z / 2)."""
    n = g0.shape[0]
    k = 2.0 * math.pi / wavelength
    lam = lattice_lambda(dim, n, delta_a, cn2, outer_scale)
    phase = np.exp(1j * math.pi * wavelength * z
                   * lattice_freq_sq(dim, n, delta_a))
    return g0 * phase * math.exp(-0.5 * k * k * lam * z)


# ---------------------------------------------------------------------------
# ensemble checks

def check_second_moment_trace(second_moment, g0, cell) -> list[str]:
    """trace(<G G*>) delta_a^D equals ||g0||^2: every slab is unitary."""
    expected = float(np.sum(np.abs(g0) ** 2)) * cell
    got = float(np.real(np.trace(second_moment))) * cell
    rel = abs(got - expected) / expected
    if not rel <= 1e-12:
        return [f"second-moment trace {got!r} vs ||g0||^2 {expected!r} "
                f"(relative {rel:.3e} > 1e-12)"]
    return []


def check_hermitian(matrix) -> list[str]:
    """Every per-realization outer product G G* is Hermitian, so their sum
    is too, up to the rounding of the complex products (a vectorised
    complex multiply with fused multiply-add does not give bitwise
    conjugate pairs)."""
    worst = float(np.max(np.abs(matrix - np.conj(matrix.T))))
    scale = float(np.max(np.abs(matrix)))
    if not worst <= HERMITIAN_ROUNDING * scale:
        return [f"second moment not Hermitian: max |M - M^H| {worst:.3e} "
                f"> {HERMITIAN_ROUNDING:.0e} * max |M| ({scale:.3e})"]
    return []


def check_mean_decay(mean, mean_se, second_moment, expected,
                     n_samples) -> list[str]:
    """Ensemble mean field against the closed-form decay, site by site and
    projected onto the expected field, in standard errors computed here
    from the reported second moment."""
    failures = []
    mu = mean.ravel()
    ref = expected.ravel()
    var = np.maximum(np.real(np.diagonal(second_moment)) - np.abs(mu) ** 2,
                     0.0)
    se = np.sqrt(var / n_samples)
    se_scale = float(np.max(se))
    se_diff = float(np.max(np.abs(np.real(mean_se.ravel()) - se)))
    if not se_diff <= 1e-8 * se_scale:
        failures.append(f"reported mean-field standard error differs from "
                        f"the second moment's by {se_diff:.3e}")
    floor = 1e-12 * float(np.max(np.abs(ref)))
    sigma = np.abs(mu - ref) / np.maximum(se, floor)
    worst = float(np.max(sigma))
    if not worst <= SITE_SIGMA_BOUND:
        site = int(np.argmax(sigma))
        failures.append(f"mean field at site {site} is {worst:.2f} standard "
                        f"errors from the closed form (> "
                        f"{SITE_SIGMA_BOUND})")
    cov = second_moment - np.outer(mu, np.conj(mu))
    proj_var = float(np.real(np.conj(ref) @ cov @ ref)) / n_samples
    proj = complex(np.conj(ref) @ (mu - ref))
    proj_sigma = abs(proj) / math.sqrt(proj_var) if proj_var > 0 else math.inf
    if not proj_sigma <= PROJECTED_SIGMA_BOUND:
        failures.append(f"mean field projected on the closed form is "
                        f"{proj_sigma:.2f} standard errors off (> "
                        f"{PROJECTED_SIGMA_BOUND})")
    return failures


# ---------------------------------------------------------------------------
# kernel checks

def kernel_trace(values, cell, m) -> complex:
    """Full diagonal contraction of an (m, m) kernel times cell^m."""
    n = values.shape[0]
    mat = values.reshape(n ** m, n ** m)
    return complex(np.trace(mat)) * cell ** m


def hermiticity_residual(values, m) -> float:
    n = values.shape[0]
    mat = values.reshape(n ** m, n ** m)
    scale = float(np.max(np.abs(mat)))
    return float(np.max(np.abs(mat - np.conj(mat.T)))) / scale


def check_kernel_snapshots(snapshots, initial, cell, m) -> list[str]:
    """Trace drift <= 1e-8 and Hermiticity residual <= 1e-10 at every
    snapshot; the z = 0 snapshot equals the input bit for bit."""
    failures = []
    z_first = min(snapshots)
    if not np.array_equal(snapshots[z_first], initial):
        failures.append(f"({m},{m}) snapshot at z={z_first:g} differs from "
                        f"the input kernel")
    tr0 = kernel_trace(initial, cell, m)
    for z, values in sorted(snapshots.items()):
        drift = abs(kernel_trace(values, cell, m) - tr0) / abs(tr0)
        if not drift <= 1e-8:
            failures.append(f"({m},{m}) trace drift {drift:.3e} > 1e-8 at "
                            f"z={z:g}")
        herm = hermiticity_residual(values, m)
        if not herm <= 1e-10:
            failures.append(f"({m},{m}) Hermiticity residual {herm:.3e} > "
                            f"1e-10 at z={z:g}")
    return failures


def check_exchange_symmetry(values, z) -> list[str]:
    """(2,2) kernel symmetric under swapping the two bra or two ket indices."""
    scale = float(np.max(np.abs(values)))
    asym = max(float(np.max(np.abs(values - values.transpose(1, 0, 2, 3)))),
               float(np.max(np.abs(values - values.transpose(0, 1, 3, 2)))))
    if not asym <= 1e-12 * scale:
        return [f"(2,2) exchange asymmetry {asym / scale:.3e} > 1e-12 at "
                f"z={z:g}"]
    return []


def check_partial_trace(f22, h11, norm_sq, cell, z) -> list[str]:
    """sum_j F[b, j, k, j] delta_a = ||g0||^2 H[b, k] for a product source:
    power is conserved in each realization, so contracting one photon pair
    leaves the single-photon kernel scaled by the other photon's power."""
    partial = np.einsum("ajbj->ab", f22) * cell
    expected = norm_sq * h11
    scale = float(np.max(np.abs(expected)))
    err = float(np.max(np.abs(partial - expected))) / scale
    if not err <= 1e-12:
        return [f"(2,2) partial trace differs from ||g0||^2 H11 by "
                f"{err:.3e} relative (> 1e-12) at z={z:g}"]
    return []


# ---------------------------------------------------------------------------
# validation report check

def check_validate_report(report: dict) -> list[str]:
    """Every expected check is present once and passes; pass/fail is
    recomputed here from the measured value and its window."""
    failures = []
    checks = report.get("checks", [])
    names = [c.get("name") for c in checks]
    if tuple(names) != EXPECTED_VALIDATE_CHECKS:
        missing = sorted(set(EXPECTED_VALIDATE_CHECKS) - set(names))
        extra = sorted(set(names) - set(EXPECTED_VALIDATE_CHECKS))
        failures.append(f"report checks {names} do not match the expected "
                        f"list (missing {missing}, unexpected {extra})")
    for c in checks:
        measured, tol, lower = c["measured"], c["tolerance"], c["lower_bound"]
        if lower is None:
            ok = measured <= tol
        else:
            ok = lower < measured < tol
        if not (ok and c["passed"] is True):
            failures.append(f"check {c['name']}: measured {measured!r}, "
                            f"window ({lower!r}, {tol!r}], reported "
                            f"passed={c['passed']!r}")
        if "monte-carlo" in c["name"]:
            se = c["standard_error"]
            if se is None or not (math.isfinite(se) and se > 0.0):
                failures.append(f"check {c['name']}: standard error {se!r}")
    if report.get("passed") is not True:
        failures.append("report overall verdict is not a pass")
    return failures

