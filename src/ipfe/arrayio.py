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

Every file the package writes (tensors, sidecars, manifests, CSV tables
and reports) goes through write_in_place, which overwrites an existing
file in place instead of truncating it first.  The JSON ones are the
text of json.dumps(data, indent=2, sort_keys=True) and a final newline,
through write_json.  That trades durability for speed.  A write is not
crash-atomic, and a crash (of the machine, not of the process) before the
kernel writes the new bytes back to disk can leave the file holding the
previous run's bytes: all of them, a well-formed earlier tensor that
read_array accepts without complaint, or some of them mixed with new
ones.  A truncating rewrite, which ext4 flushes on close, could leave
only an empty or short file, which read_array rejects.  Write into a
fresh directory when stale results must not survive a crash.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"IPFE"
FORMAT_VERSION = 1

class ArrayFormatError(ValueError):
    """Bad magic, unsupported version, or truncated payload."""


def write_in_place(path, *parts) -> None:
    """Make the file at path (a symlink's target, if it is one) hold the
    bytes of parts, concatenated: open it without O_TRUNC, creating it if
    needed, write, then cut it to the new length.  Truncating an existing
    file to zero first makes ext4 (auto_da_alloc) flush it on close: about
    ten times the cost of the in-place write, for a 600-byte file and a
    1-MiB one alike."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        for part in parts:
            fh.write(part)
        fh.truncate()


def write_json(path, data) -> None:
    """json.dumps(data, indent=2, sort_keys=True) and a final newline,
    written in place in one piece (json.dump with indent writes it in
    hundreds): ASCII with escapes, NaN and Infinity as Python writes
    them."""
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    write_in_place(path, text.encode())


def write_array(path, values: np.ndarray, metadata: dict | None = None) -> None:
    """Write a complex tensor; metadata (if any) goes to <path>.json."""
    path = Path(path)
    # A little-endian complex128 array in row-major order is the payload:
    # its buffer holds the (real, imaginary) float64 pairs.
    values = np.asarray(values, dtype="<c16", order="C")
    header = MAGIC + struct.pack("<II", FORMAT_VERSION, values.ndim)
    header += struct.pack(f"<{values.ndim}I", *values.shape)
    write_in_place(path, header, values.data)
    if metadata is not None:
        write_json(path.with_suffix(path.suffix + ".json"), metadata)


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
        # The payload is read straight into the array's own buffer.
        values = np.empty(shape, dtype="<c16")
        got = fh.readinto(values.reshape(-1).view(np.uint8))
        if got < values.nbytes:
            raise ArrayFormatError(
                f"truncated payload: {got} bytes, expected {values.nbytes}")
    # The payload as written, as native complex128 (the same array on a
    # little-endian host): every bit of both parts survives, signed zeros,
    # infinities and NaNs too.
    values = values.astype(np.complex128, copy=False)
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
