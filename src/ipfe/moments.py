"""Order-by-order moment-kernel equations and their RK4 integrator.

The kernel H_{m,n} carries m bra indices (contracted with alpha*) followed
by n ket indices (contracted with alpha).  Its evolution is

    dH/dz = i pi lambda (sum_bra |a|^2 - sum_ket |a'|^2) H
            - (1/2) k^2 Lambda (m+n) H
            - (1/2) k^2 int [ m(m-1) H(a1+a0, a2-a0, ...)
                            + n(n-1) H(..., a1'+a0, a2'-a0, ...)
                            - 2 m n  H(a1+a0, ..., a1'+a0, ...) ]
                     Phi_n(a0, 0) d a0

with the drift applied per index (the kernels are symmetric within each
index group).  Discretely, the a0 integral is a circular shifted sum over
the grid's own frequency lattice and Lambda is the matching lattice sum,
so the delta-diagonal stationary point, trace conservation, and the
DFT-periodic split-step oracle all share one discrete realization exactly.
A boundary-mass monitor warns when the kernel carries weight at the lattice
edge, where the periodic wrap stops being a faithful stand-in for the
continuum integral.

Every pair term is diagonal in the DFT basis of the full tensor, so the
whole right-hand side of any order and dimension is one operator,
KernelGenerator: a site-local factor times H plus one Fourier multiplier
applied between a forward and an inverse FFT.  evolve_kernel builds it
once per integration and takes classic RK4 steps on it; h11_rhs,
hierarchy_rhs and biphoton_rhs are single evaluations of it.  The
roll-loop pair sum in _accel is the oracle the tests hold it to.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from ._accel import pair_multiplier, shift_coefficients
from .grid import FrequencyGrid, Spectrum
from .spectrum import (DivergentLambdaError, SpectrumKind, TurbulenceModel,
                       lambda_grid, psd_lattice)

BOUNDARY_MASS_TOLERANCE = 1e-6

# step_guard's bound on both per-step numbers of step_guard_values.
_STEP_GUARD_BOUND = 0.1


@dataclass
class MomentKernel:
    """Discretized H_{m,n}: a complex tensor with D*(m+n) lattice axes."""

    orders: tuple[int, int]
    grid: FrequencyGrid
    values: np.ndarray = field(repr=False)
    z: float = 0.0

    def __post_init__(self) -> None:
        m, n = self.orders
        if m < 0 or n < 0:
            raise ValueError("orders must be non-negative")
        self.values = np.asarray(self.values, dtype=np.complex128)
        expected = (self.grid.n,) * (self.grid.dim * (m + n))
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape}, expected {expected} "
                f"for orders {self.orders} on a {self.grid.dim}-D grid")

    @property
    def rank(self) -> int:
        return sum(self.orders)

    def bra_axes(self, index: int):
        d = self.grid.dim
        return list(range(index * d, (index + 1) * d))

    def ket_axes(self, index: int):
        d = self.grid.dim
        m = self.orders[0]
        return list(range((m + index) * d, (m + index + 1) * d))

    def conjugate_transpose(self) -> "MomentKernel":
        """H_{n,m} derived from H_{m,n} by conjugation and bra/ket swap."""
        m, n = self.orders
        d = self.grid.dim
        perm = list(range(m * d, (m + n) * d)) + list(range(m * d))
        return MomentKernel((n, m), self.grid,
                            np.conj(np.transpose(self.values, perm)), self.z)


def delta_diagonal_kernel(grid: FrequencyGrid, value: float = 1.0,
                          orders: tuple[int, int] = (1, 1)) -> MomentKernel:
    """Kernel proportional to a product of discrete deltas pairing bra and
    ket indices (the maximally mixed stationary point for (1,1))."""
    m, n = orders
    if m != n:
        raise ValueError("delta-diagonal kernel needs m == n")
    size = grid.n ** grid.dim
    eye = np.eye(size) * value * grid.delta_weight
    out = eye
    for _ in range(m - 1):
        out = np.multiply.outer(out, eye)
    # outer product layout is (bra, ket, bra, ket, ...): regroup to
    # (bra..., ket...)
    perm = []
    for i in range(m):
        perm.append(2 * i)
    for i in range(m):
        perm.append(2 * i + 1)
    out = np.transpose(out.reshape((size,) * (2 * m)), perm)
    shape = (grid.n,) * (grid.dim * 2 * m)
    return MomentKernel(orders, grid, out.reshape(shape))


def kernel_trace(kernel: MomentKernel) -> complex:
    """Full diagonal contraction of an (n, n) kernel with delta_a^(D*n);
    real to rounding for Hermitian input."""
    m, n = kernel.orders
    if m != n:
        raise ValueError("trace requires m == n")
    if m == 0:
        raise ValueError("trace undefined for the (0, 0) kernel")
    d = kernel.grid.dim
    # einsum subscript: each ket axis reuses its paired bra letter.
    letters = "abcdefghijkl"[: m * d]
    subscript = letters + letters + "->"
    value = np.einsum(subscript, kernel.values)
    return complex(value * kernel.grid.cell ** m)


def monitored_boundary_mass(kernel: MomentKernel,
                            model: TurbulenceModel) -> float:
    """The boundary-mass fraction evolve_kernel warns on.  Without
    scattering the equation is site-local, so the periodic wrap is exact
    and the fraction is 0 whatever the edge weight."""
    return boundary_mass_fraction(kernel) if model.cn2 != 0.0 else 0.0


def boundary_mass_fraction(kernel: MomentKernel) -> float:
    """|values| mass on the outermost lattice ring relative to the total."""
    total = float(np.sum(np.abs(kernel.values)))
    if total == 0.0:
        return 0.0
    n = kernel.grid.n
    interior = kernel.values
    sl = tuple(slice(1, n - 1) for _ in range(kernel.values.ndim))
    inner = float(np.sum(np.abs(interior[sl])))
    return (total - inner) / total


def _drift_factor(kernel: MomentKernel) -> np.ndarray:
    """sum_bra |a|^2 - sum_ket |a'|^2 broadcast over the kernel tensor."""
    m, n = kernel.orders
    asq = kernel.grid.freq_sq()
    d = kernel.grid.dim
    total = np.zeros(kernel.values.shape)
    for i in range(m):
        shape = [1] * kernel.values.ndim
        for j, ax in enumerate(kernel.bra_axes(i)):
            shape[ax] = kernel.grid.n
        total = total + asq.reshape(shape)
    for i in range(n):
        shape = [1] * kernel.values.ndim
        for j, ax in enumerate(kernel.ket_axes(i)):
            shape[ax] = kernel.grid.n
        total = total - asq.reshape(shape)
    return total


@dataclass(frozen=True)
class KernelGenerator:
    """The order-(m, n) right-hand side on one grid and model, built once:

        dH/dz = diag * H + ifftn(scatter * fftn(H))

    diag is the site-local factor i pi lambda (sum_bra |a|^2 - sum_ket
    |a'|^2) - (1/2) k^2 Lambda (m+n).  scatter is the Fourier multiplier of
    all pair sums, k^2 delta_a^D sum_pairs (+/-) c[(p_i +/- p_j) mod n]:
    same-group pairs shift oppositely and enter with -, bra-ket pairs
    co-move and enter with +.  Every pair term is diagonal in the DFT
    basis of the full tensor, so one forward and one inverse FFT apply
    them all.  scatter is None when nothing scatters (cn2 = 0, or fewer
    than two indices).
    """

    diag: np.ndarray = field(repr=False)
    scatter: np.ndarray | None = field(repr=False)

    @classmethod
    def build(cls, kernel: MomentKernel,
              model: TurbulenceModel) -> "KernelGenerator":
        m, n = kernel.orders
        if m + n > 4:
            raise ValueError(
                "kernel order m+n > 4 exceeds the desk-scale bound")
        if m + n >= 3 and kernel.grid.dim != 1:
            raise ValueError(
                "rank >= 3 kernels are supported on 1-D grids only")
        grid = kernel.grid
        k = grid.wavenumber
        diag = (1j * np.pi * grid.wavelength * _drift_factor(kernel)
                - 0.5 * k ** 2 * lambda_grid(model, grid) * (m + n))
        phi = psd_lattice(model, grid)
        pairs = list(combinations(range(m + n), 2))
        if not pairs or not np.any(phi):
            return cls(diag, None)
        # Pair sums run over every distinct index pair: the pairings are
        # distinct tensors even for symmetric kernels, so no multiplicity
        # shortcut applies.
        axes = ([kernel.bra_axes(i) for i in range(m)]
                + [kernel.ket_axes(j) for j in range(n)])
        c = shift_coefficients(phi)
        scatter = np.zeros(kernel.values.shape, dtype=np.complex128)
        for i, j in pairs:
            sign = -1 if (i < m) == (j < m) else 1
            scatter += sign * pair_multiplier(c, scatter.ndim, axes[i],
                                              axes[j], sign)
        scatter *= k ** 2 * grid.cell
        return cls(diag, scatter)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        out = self.diag * values
        if self.scatter is not None:
            out += np.fft.ifftn(self.scatter * np.fft.fftn(values))
        return out


def hierarchy_rhs(kernel: MomentKernel, model: TurbulenceModel) -> MomentKernel:
    """Right-hand side of the order-(m, n) equation, any m + n <= 4."""
    values = KernelGenerator.build(kernel, model)(kernel.values)
    return MomentKernel(kernel.orders, kernel.grid, values, kernel.z)


def h11_rhs(kernel: MomentKernel, model: TurbulenceModel) -> MomentKernel:
    """Right-hand side of the single-photon (mutual-coherence) equation."""
    if kernel.orders != (1, 1):
        raise ValueError(f"h11_rhs needs orders (1, 1), got {kernel.orders}")
    return hierarchy_rhs(kernel, model)


def _check_biphoton(kernel: MomentKernel) -> None:
    """Bounds of the (2, 2) kernel: a 1-D grid, n <= 16, and exchange
    symmetry within the bra pair and within the ket pair."""
    if kernel.grid.dim != 1:
        raise ValueError("bi-photon kernel is supported on 1-D grids only")
    if kernel.grid.n > 16:
        raise ValueError("bi-photon grid bound n <= 16 exceeded (rank-4 "
                         "tensor memory)")
    v = kernel.values
    scale = np.max(np.abs(v))
    if scale > 0:
        asym = max(np.max(np.abs(v - v.transpose(1, 0, 2, 3))),
                   np.max(np.abs(v - v.transpose(0, 1, 3, 2))))
        if asym > 1e-8 * scale:
            raise ValueError("bi-photon kernel lacks exchange symmetry")


def biphoton_rhs(kernel: MomentKernel, model: TurbulenceModel) -> MomentKernel:
    """Bi-photon equation (2, 2), bra axes (0, 1) and ket axes (2, 3)."""
    if kernel.orders != (2, 2):
        raise ValueError("biphoton_rhs needs orders (2, 2)")
    _check_biphoton(kernel)
    return hierarchy_rhs(kernel, model)


def evolve_h10(b10: Spectrum, model: TurbulenceModel, z: float) -> Spectrum:
    """Closed-form first-moment kernel H_{1,0}(a, z).

    Uses the lattice-sum Lambda of the grid, so the decay rate is the one
    the discrete (1, 0) equation and the split-step ensemble mean realize
    exactly; it converges to the continuum Lambda with grid refinement.
    """
    grid = b10.grid
    if model.kind is SpectrumKind.KOLMOGOROV and model.cn2 != 0.0:
        raise DivergentLambdaError("Lambda divergent for pure Kolmogorov")
    lam = lambda_grid(model, grid)
    phase = np.exp(1j * np.pi * grid.wavelength * z * grid.freq_sq())
    decay = np.exp(-0.5 * grid.wavenumber ** 2 * lam * z)
    return Spectrum(grid, b10.values * phase * decay)


def step_guard_values(grid: FrequencyGrid, model: TurbulenceModel,
                      dz: float) -> dict:
    """Per-step sampling phase pi*lambda*dz*a_max^2 and weak-scattering
    number k^2*Lambda*dz of a step dz on grid.  The split-step plan
    (PropagationPlan.guard_values) and the kernel integrator (step_guard)
    bound the same two numbers, each with its own bounds."""
    a_max_sq = float(np.max(grid.freq_sq()))
    return {
        "sampling": np.pi * grid.wavelength * dz * a_max_sq,
        "weak_scattering": (grid.wavenumber ** 2 * lambda_grid(model, grid)
                            * dz),
    }


def step_guard(grid: FrequencyGrid, model: TurbulenceModel, dz: float) -> None:
    guards = step_guard_values(grid, model, dz)
    phase, scatter = guards["sampling"], guards["weak_scattering"]
    if max(phase, scatter) >= _STEP_GUARD_BOUND:
        raise ValueError(
            f"step guard violated: max(pi*lambda*dz*a_max^2={phase:.3e}, "
            f"k^2*Lambda*dz={scatter:.3e}) >= {_STEP_GUARD_BOUND}")


def evolve_kernel(kernel: MomentKernel, model: TurbulenceModel,
                  z_total: float, n_steps: int) -> MomentKernel:
    """Fixed-step classic RK4 integration of the kernel's generator,
    built once for the whole integration.  A (2, 2) kernel must meet the
    bounds biphoton_rhs enforces."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if kernel.orders == (2, 2):
        _check_biphoton(kernel)
    dz = z_total / n_steps
    if z_total > 0.0:
        step_guard(kernel.grid, model, dz)
    rhs = KernelGenerator.build(kernel, model)
    v = kernel.values
    for _ in range(n_steps):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * dz * k1)
        k3 = rhs(v + 0.5 * dz * k2)
        k4 = rhs(v + dz * k3)
        v = v + (dz / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out = MomentKernel(kernel.orders, kernel.grid, v, kernel.z + z_total)
    frac = monitored_boundary_mass(out, model)
    if frac > BOUNDARY_MASS_TOLERANCE:
        warnings.warn(
            f"kernel boundary mass fraction {frac:.2e} exceeds "
            f"{BOUNDARY_MASS_TOLERANCE:.0e}; the periodic lattice no longer "
            "approximates the open-domain integral well", stacklevel=2)
    return out


def evolve_h11(h0: MomentKernel, model: TurbulenceModel, z_total: float,
               n_steps: int) -> MomentKernel:
    if h0.orders != (1, 1):
        raise ValueError("evolve_h11 needs orders (1, 1)")
    return evolve_kernel(h0, model, z_total, n_steps)


def hermiticity_residual(kernel: MomentKernel) -> float:
    """max |H - conj-transpose(H)| relative to max |H| (m == n only)."""
    if kernel.orders[0] != kernel.orders[1]:
        raise ValueError("Hermiticity defined for m == n kernels")
    scale = float(np.max(np.abs(kernel.values)))
    if scale == 0.0:
        return 0.0
    dual = kernel.conjugate_transpose()
    return float(np.max(np.abs(kernel.values - dual.values)) / scale)
