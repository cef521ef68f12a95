"""Binary complex-tensor files with a JSON metadata sidecar.

Layout (all integers little-endian unsigned 32-bit):

    bytes 0..3   magic b"IPFE"
    bytes 4..7   format version (currently 1)
    bytes 8..11  rank
    then rank u32 axis lengths
    then the payload: little-endian float64 (real, imaginary) pairs in
    row-major order.

The format is bit-exact and trivially parseable from any language.  The
sidecar <path>.json carries grid metadata and units.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"IPFE"
FORMAT_VERSION = 1


class ArrayFormatError(ValueError):
    """Bad magic, unsupported version, or truncated payload."""


def write_array(path, values: np.ndarray, metadata: dict | None = None) -> None:
    """Write a complex tensor; metadata (if any) goes to <path>.json."""
    path = Path(path)
    # A little-endian complex128 array in row-major order is the payload:
    # its buffer holds the (real, imaginary) float64 pairs.
    values = np.asarray(values, dtype="<c16", order="C")
    header = MAGIC + struct.pack("<II", FORMAT_VERSION, values.ndim)
    header += struct.pack(f"<{values.ndim}I", *values.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(values.data)
    if metadata is not None:
        sidecar = path.with_suffix(path.suffix + ".json")
        with open(sidecar, "w") as fh:
            json.dump(metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")


def read_array(path):
    """Read a tensor written by write_array.

    Returns (values, metadata); metadata is None when no sidecar exists.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12 or head[:4] != MAGIC:
            raise ArrayFormatError(
                f"bad magic {head[:4]!r}, expected {MAGIC!r}")
        version, rank = struct.unpack("<II", head[4:12])
        if version != FORMAT_VERSION:
            raise ArrayFormatError(
                f"unsupported format version {version}, expected "
                f"{FORMAT_VERSION}")
        dim_bytes = fh.read(4 * rank)
        if len(dim_bytes) < 4 * rank:
            raise ArrayFormatError("truncated header: missing axis lengths")
        shape = struct.unpack(f"<{rank}I", dim_bytes)
        count = int(np.prod(shape, dtype=np.int64))
        payload = fh.read(count * 16)
        if len(payload) < count * 16:
            raise ArrayFormatError(
                f"truncated payload: {len(payload)} bytes, expected "
                f"{count * 16}")
    # The payload as written, converted once to native complex128: every
    # bit of both parts survives, signed zeros, infinities and NaNs too.
    values = np.frombuffer(payload, dtype="<c16", count=count).reshape(
        shape).astype(np.complex128)
    sidecar = path.with_suffix(path.suffix + ".json")
    metadata = None
    if sidecar.exists():
        with open(sidecar) as fh:
            metadata = json.load(fh)
    return values, metadata


def grid_metadata(grid, **extra) -> dict:
    """Standard sidecar payload for arrays living on a frequency grid."""
    meta = {
        "grid": {
            "dim": grid.dim,
            "n": grid.n,
            "delta_a": grid.delta_a,
            "wavelength": grid.wavelength,
        },
        "units": {"delta_a": "cycles/m", "wavelength": "m"},
    }
    meta.update(extra)
    return meta
