"""The paired shifted sum behind every scattering term, and its oracle.

Every diffusion term in the moment-kernel equations is a lattice sum

    out[..., i, ..., j, ...] = sum_s phi[s] * H[..., i+s, ..., j+sign*s, ...]

over the grid's own frequency lattice (s is the integer offset of a0, phi
is the PSD sampled there), with periodic index arithmetic.  The paired
circular shift is diagonal in the DFT basis of the tensor: its Fourier
multiplier is c[(p_i + sign*p_j) mod n] with c = n^D * ifftn(ifftshift(phi)).
``pair_multiplier`` builds that multiplier; the moment-kernel generator
sums it over every index pair of a total-frequency sector, and
``pair_shift_sum_fft`` applies it to one pair of a full tensor.
``pair_shift_sum_loop`` evaluates the same sum by rolling the tensor once
per offset and is kept as the test oracle only.
"""

from __future__ import annotations

import numpy as np


def shift_coefficients(phi: np.ndarray) -> np.ndarray:
    """c = n^D * ifftn(ifftshift(phi)): the Fourier symbol of one shift sum
    (phi in centred order, one axis per grid dimension)."""
    return phi.size * np.fft.ifftn(np.fft.ifftshift(phi))


def pair_multiplier(c: np.ndarray, ndim: int, axes_i, axes_j,
                    sign: int) -> np.ndarray:
    """Fourier multiplier c[(p_i + sign*p_j) mod n] of the paired shift sum
    on an ndim-axis tensor, broadcastable to it (length n on axes_i and
    axes_j, 1 elsewhere).  axes_j None puts index j at p_j = 0: the pair
    of a kept index with the index a moment-kernel sector does not store."""
    n = c.shape[0]

    def along(axis):
        if axis is None:
            return 0
        shape = [1] * ndim
        shape[axis] = n
        return np.arange(n).reshape(shape)

    if axes_j is None:
        axes_j = [None] * len(axes_i)
    return c[tuple((along(ai) + sign * along(aj)) % n
                   for ai, aj in zip(axes_i, axes_j))]


def pair_shift_sum_fft(values: np.ndarray, axes_i, axes_j,
                       phi: np.ndarray, sign: int) -> np.ndarray:
    """Paired shift sum (no delta_a^D weight applied), evaluated as one
    multiply between a forward and an inverse FFT of the tensor."""
    mult = pair_multiplier(shift_coefficients(phi), values.ndim, axes_i,
                           axes_j, sign)
    return np.fft.ifftn(mult * np.fft.fftn(values))


# The same function under the generic name.
pair_shift_sum = pair_shift_sum_fft


def pair_shift_sum_loop(values: np.ndarray, axes_i, axes_j,
                        phi: np.ndarray, sign: int) -> np.ndarray:
    """Naive roll-based evaluation (any dimension), the oracle of the
    spectral form: one roll of the whole tensor per lattice offset.  phi
    has one axis per grid dimension; axes_i/axes_j list the tensor axes of
    the two shifted kernel indices (one axis per grid dimension each)."""
    half = values.shape[axes_i[0]] // 2
    out = np.zeros_like(values)
    for flat in np.ndindex(phi.shape):
        w = phi[flat]
        if w == 0.0:
            continue
        back = [half - t for t in flat]
        shifted = np.roll(values, back + [sign * b for b in back],
                          tuple(axes_i) + tuple(axes_j))
        shifted *= w
        out += shifted
    return out
