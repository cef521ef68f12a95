"""Gaussian Wigner-functional states and the fixed-spectrum Fock formulas.

A Gaussian state is parametrized by

    W[alpha] = exp(-alpha* . A . alpha - alpha . B . alpha
                   - alpha* . C . alpha* + alpha* . beta + eta* . alpha)

with kernels over the frequency lattice ("." is the discrete contraction).
The vacuum is A = 2 delta, B = C = 0, beta = eta = 0, i.e.
W = exp(-2 ||alpha||^2).

Kernels compose under the contraction as matrices scaled by the cell
volume: the operator form of a kernel K is K_mat * delta_a^D, so the
identity kernel is the discrete delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial.laguerre import lagval

from .grid import FrequencyGrid, Spectrum, contract
from .moments import MomentKernel, hierarchy_rhs
from .phase_screen import keyed_generator
from .spectrum import TurbulenceModel, lambda_grid, psd_lattice

# Wigner-functional normalization (the continuum constant is
# convention-dependent; all shipped checks use ratios or zero crossings).
DEFAULT_N0 = 1.0

# Probe fields of gaussian_drift's fourth-order residual; Philox key (seed, 0).
_DRIFT_PROBES = 16
_DRIFT_PROBE_SEED = 2024


def _site_count(grid: FrequencyGrid) -> int:
    return grid.n ** grid.dim


def _as_matrix(grid: FrequencyGrid, kernel: np.ndarray) -> np.ndarray:
    size = _site_count(grid)
    return np.asarray(kernel, dtype=np.complex128).reshape(size, size)


@dataclass
class GaussianState:
    grid: FrequencyGrid
    a_kernel: np.ndarray = field(repr=False)
    b_kernel: np.ndarray = field(repr=False)
    c_kernel: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)
    eta: np.ndarray = field(repr=False)
    z: float = 0.0

    def __post_init__(self) -> None:
        size = _site_count(self.grid)
        self.a_kernel = _as_matrix(self.grid, self.a_kernel)
        self.b_kernel = _as_matrix(self.grid, self.b_kernel)
        self.c_kernel = _as_matrix(self.grid, self.c_kernel)
        self.beta = np.asarray(self.beta, dtype=np.complex128).reshape(size)
        self.eta = np.asarray(self.eta, dtype=np.complex128).reshape(size)

    @classmethod
    def vacuum(cls, grid: FrequencyGrid) -> "GaussianState":
        return cls.thermal(grid, 2.0)

    @classmethod
    def thermal(cls, grid: FrequencyGrid, width: float) -> "GaussianState":
        """Isotropic diagonal state W = exp(-width ||alpha||^2)."""
        size = _site_count(grid)
        a = np.eye(size, dtype=np.complex128) * width * grid.delta_weight
        zeros = np.zeros((size, size), dtype=np.complex128)
        return cls(grid, a, zeros.copy(), zeros.copy(),
                   np.zeros(size), np.zeros(size))


def free_space_gaussian(state: GaussianState, z: float) -> GaussianState:
    """Exact free-space phase conjugation of all five Gaussian parameters."""
    phase = state.grid.free_space_phase(z).ravel()
    p_col = phase[:, None]
    p_row = phase[None, :]
    return replace(
        state,
        a_kernel=state.a_kernel * p_col * np.conj(p_row),
        b_kernel=state.b_kernel * np.conj(p_col) * np.conj(p_row),
        c_kernel=state.c_kernel * p_col * p_row,
        beta=state.beta * phase,
        eta=state.eta * phase,
        z=state.z + z,
    )


def gaussian_drift(state: GaussianState, model: TurbulenceModel):
    """Scintillation drift of the centered Gaussian ansatz.

    Returns (second_order_rhs, fourth_order_residual): the full dA/dz
    kernel of the second-order equation, and a normalized probe norm of
    the fourth-order closure obstruction.  Both vanish on delta-diagonal
    kernels (vacuum, thermal states).

    The _DRIFT_PROBES probe fields come from one draw and are correlated
    by FFTs batched along a leading probe axis.  Their products with A
    stay one matrix-vector product per probe: a single (probes, n) @
    (n, n) matmul rounds differently, and the residual keeps the bits it
    has with the probes taken one at a time.
    """
    grid = state.grid
    for name, arr in (("B", state.b_kernel), ("C", state.c_kernel)):
        if np.any(arr != 0):
            raise ValueError(f"gaussian_drift needs {name} = 0")
    if np.any(state.beta != 0) or np.any(state.eta != 0):
        raise ValueError("gaussian_drift needs beta = eta = 0")

    size = _site_count(grid)
    a_mat = state.a_kernel
    lam_d = lambda_grid(model, grid)
    phi = psd_lattice(model, grid)
    h11 = MomentKernel((1, 1), grid, a_mat.reshape(grid.shape * 2))
    rhs = hierarchy_rhs(h11, model).values.reshape(size, size)

    # Fourth-order obstruction, contracted against random probe fields:
    # Q(a0) = alpha* . A(., .+a0) . alpha and R(a0) = alpha* . A(.+a0, .)
    # . alpha; the bracket Q(s)Q(-s) + R(s)R(-s) - 2 R(s)Q(s) cancels
    # identically for delta-diagonal A.  Both are cyclic cross-correlations
    # over the lattice, taken by FFT and stored DC-centred like phi.
    axes = tuple(range(1, grid.dim + 1))
    shape = (_DRIFT_PROBES,) + grid.shape

    def correlate(x, y):  # sum_j x[j + s] y[j] at site s + n/2, per probe
        x, y = x.reshape(shape), y.reshape(shape)
        return np.fft.fftshift(np.fft.ifftn(
            np.fft.fftn(x, axes=axes)
            * np.conj(np.fft.fftn(np.conj(y), axes=axes)), axes=axes),
            axes=axes)

    normals = keyed_generator(_DRIFT_PROBE_SEED, 0).standard_normal(
        (_DRIFT_PROBES, 2, size))
    av = normals[:, 0] + 1j * normals[:, 1]
    cell = grid.cell
    abs_a = np.abs(a_mat)
    left = np.array([np.conj(v) @ a_mat for v in av])
    right = np.array([a_mat @ v for v in av])
    qn = np.array([float(np.abs(np.conj(v)) @ abs_a @ np.abs(v)
                         * cell ** 2) for v in av])
    q = correlate(left, av) * cell ** 2
    r = correlate(right, np.conj(av)) * cell ** 2
    n = grid.n
    # Lattice site of -a0, for every probe.
    neg = (slice(None),) + np.ix_(*[(n - np.arange(n)) % n] * grid.dim)
    bracket = q * q[neg] + r * r[neg] - 2.0 * r * q
    raw = np.abs(np.sum(phi * bracket, axis=axes) * cell)
    denom = lam_d * qn ** 2
    residuals = np.divide(raw, denom, out=raw.copy(), where=denom > 0)
    fourth = float(np.sqrt(np.mean(np.square(residuals))))
    return rhs, fourth


def shift_decay(beta0: Spectrum, eta0: Spectrum, model: TurbulenceModel,
                z: float):
    """Closed-form decay of the Gaussian shift spectra.

    beta(z) = beta0 exp(i pi lambda z |a|^2 - k^2 Lambda z); eta picks up
    the same phase p = exp(i pi lambda z |a|^2) as beta, as in
    free_space_gaussian (W's eta* . alpha term needs it when free space
    moves alpha to alpha p), and the same decay.  lambda_grid refuses a
    pure Kolmogorov spectrum, whose decay rate diverges, for z > 0.
    """
    grid = beta0.grid
    if z == 0.0:
        return beta0.copy(), eta0.copy()
    lam = lambda_grid(model, grid)
    phase = grid.free_space_phase(z)
    decay = np.exp(-grid.wavenumber ** 2 * lam * z)
    return (Spectrum(grid, beta0.values * phase * decay),
            Spectrum(grid, eta0.values * phase * decay))


def characteristic_of_gaussian(state: GaussianState):
    """Functional Fourier transform of a centered Gaussian (B = C = 0).

    Expressed in the doubled-argument convention chi~[alpha] = chi[2 alpha]
    so the vacuum is exactly self-dual: the transformed kernel is
    A~ = 4 A^(-1) (inverse under the contraction), i.e. elementwise
    4 (delta-weight)^2 / A on diagonal kernels.  Applying the transform
    twice recovers the input.  Returns (transformed_state, log_norm).
    """
    grid = state.grid
    if np.any(state.b_kernel != 0) or np.any(state.c_kernel != 0):
        raise ValueError("characteristic transform implemented for B = C = 0")
    a_op = state.a_kernel * grid.cell  # operator form
    herm = np.max(np.abs(a_op - a_op.conj().T))
    if herm > 1e-10 * max(np.max(np.abs(a_op)), 1e-300):
        raise ValueError("A kernel must be Hermitian")
    eigvals = np.linalg.eigvalsh(a_op)
    if np.min(eigvals) <= 0.0:
        raise ValueError(
            f"A kernel must be positive definite (min eigenvalue "
            f"{np.min(eigvals):.3e})")
    a_tilde = 4.0 * np.linalg.inv(a_op) / grid.cell
    # Per-mode Gaussian integral relative to the self-dual vacuum.
    log_norm = complex(-np.sum(np.log(eigvals / 2.0)))
    out = replace(state, a_kernel=a_tilde)
    return out, log_norm


@dataclass
class LinearProcess:
    """Discretized single-photon transfer kernel T of a linear process."""

    grid: FrequencyGrid
    t_kernel: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.t_kernel = _as_matrix(self.grid, self.t_kernel)

    def operator(self) -> np.ndarray:
        return self.t_kernel * self.grid.cell

    def condition_number(self) -> float:
        return float(np.linalg.cond(
            np.eye(self.t_kernel.shape[0]) + self.operator()))


def wigner_linear_process(process: LinearProcess):
    """log-normalization and the quadratic kernel of the linear-process
    Wigner functional W[alpha] = exp(log_norm - alpha* . B_lin . alpha),
    with B_lin = 2 (1 - T)(1 + T)^(-1) and log_norm = -tr log(1 + T)."""
    grid = process.grid
    top = process.operator()
    eye = np.eye(top.shape[0], dtype=np.complex128)
    one_plus = eye + top
    sign, logabs = np.linalg.slogdet(one_plus)
    if sign == 0 or not np.isfinite(logabs):
        raise np.linalg.LinAlgError(
            f"(1 + T) singular (condition estimate "
            f"{process.condition_number():.3e})")
    try:
        inv = np.linalg.inv(one_plus)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"(1 + T) singular (condition estimate "
            f"{process.condition_number():.3e})") from exc
    b_op = 2.0 * (eye - top) @ inv
    log_norm = -(logabs + 1j * np.angle(sign))
    return complex(log_norm), b_op / grid.cell


def evaluate_linear_process(process: LinearProcess,
                            alpha: Spectrum) -> complex:
    log_norm, b_lin = wigner_linear_process(process)
    av = alpha.values.ravel()
    quad = np.conj(av) @ b_lin @ av * process.grid.cell ** 2
    return complex(np.exp(log_norm - quad))


@dataclass
class FockSpec:
    """Fixed-spectrum Fock state: photons in the normalized profile F (the
    photon number is the order fock_wigner is given)."""

    grid: FrequencyGrid
    profile: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.profile = np.asarray(self.profile, dtype=np.complex128)
        if self.profile.shape != self.grid.shape:
            raise ValueError("profile shape does not match grid")
        norm = abs(contract(np.conj(self.profile),
                            Spectrum(self.grid, self.profile)))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"profile not normalized: |F|^2 = {norm!r}")

    @classmethod
    def normalized(cls, grid: FrequencyGrid, values) -> "FockSpec":
        values = np.asarray(values, dtype=np.complex128)
        norm = np.sqrt(np.sum(np.abs(values) ** 2) * grid.cell)
        return cls(grid, values / norm)


def _overlap(alpha: Spectrum, fock: FockSpec) -> complex:
    return complex(np.sum(np.conj(alpha.values) * fock.profile)
                   * alpha.grid.cell)


def fock_generating(eta_param: float, fock: FockSpec,
                    alpha: Spectrum) -> complex:
    """Generating function N0/(1+eta) exp(-2||alpha||^2
    + 4 eta/(1+eta) |<alpha, F>|^2) for the Fock Wigner values."""
    if eta_param == -1.0:
        raise ZeroDivisionError("generating function pole at eta = -1")
    overlap_sq = abs(_overlap(alpha, fock)) ** 2
    norm_sq = alpha.norm_sq
    return complex(DEFAULT_N0 / (1.0 + eta_param)
                   * np.exp(-2.0 * norm_sq
                            + 4.0 * eta_param / (1.0 + eta_param)
                            * overlap_sq))


def fock_wigner(n: int, fock: FockSpec, alpha: Spectrum) -> float:
    """Wigner value N0 (-1)^n L_n(4 |<alpha, F>|^2) exp(-2 ||alpha||^2)."""
    if n < 0:
        raise ValueError("photon number must be >= 0")
    overlap_sq = abs(_overlap(alpha, fock)) ** 2
    return float(DEFAULT_N0 * (-1.0) ** n
                 * lagval(4.0 * overlap_sq, [0] * n + [1])
                 * np.exp(-2.0 * alpha.norm_sq))
