"""Binary tensor format tests: roundtrip, header validation, sidecar."""

import struct

import numpy as np
import pytest

from ipfe.arrayio import (ArrayFormatError, FORMAT_VERSION, MAGIC,
                          grid_metadata, read_array, write_array)
from ipfe.grid import FrequencyGrid


def random_tensor(shape, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape)
            + 1j * rng.standard_normal(shape)).astype(np.complex128)


def test_roundtrip_bit_exact(tmp_path):
    # The last tensor pairs each of +0.0, -0.0, +inf, -inf and nan in the
    # real part with each of them in the imaginary part.
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    edges = np.empty((5, 5), dtype=np.complex128)
    edges.real, edges.imag = special[:, None], special[None, :]
    tensors = [random_tensor(shape)
               for shape in ((5,), (4, 6), (3, 3, 3), (2, 2, 2, 2))]
    for i, values in enumerate(tensors + [edges]):
        path = tmp_path / f"tensor{i}.bin"
        write_array(path, values)
        back, meta = read_array(path)
        assert back.dtype == np.complex128
        assert back.shape == values.shape
        assert np.array_equal(back.view(np.uint64), values.view(np.uint64))
        assert meta is None


def test_file_size_rank4(tmp_path):
    values = random_tensor((8, 8, 8, 8))
    path = tmp_path / "rank4.bin"
    write_array(path, values)
    # 12-byte fixed header + 4 axis lengths + 8**4 complex128 values
    assert path.stat().st_size == 12 + 16 + 65536


def test_sidecar_metadata_roundtrip(tmp_path):
    grid = FrequencyGrid(1, 8, 0.25, 1.55e-6)
    meta = grid_metadata(grid, quantity="mean_field", z=1000.0)
    path = tmp_path / "field.bin"
    write_array(path, random_tensor((8,)), meta)
    back, read_meta = read_array(path)
    assert read_meta == meta
    assert read_meta["grid"]["n"] == 8
    assert read_meta["units"]["delta_a"] == "cycles/m"


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ArrayFormatError, match="magic"):
        read_array(path)


def test_bad_version(tmp_path):
    path = tmp_path / "ver.bin"
    path.write_bytes(MAGIC + struct.pack("<II", FORMAT_VERSION + 1, 1)
                     + struct.pack("<I", 2) + b"\x00" * 32)
    with pytest.raises(ArrayFormatError, match="version"):
        read_array(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "hdr.bin"
    path.write_bytes(MAGIC + struct.pack("<II", FORMAT_VERSION, 3)
                     + struct.pack("<I", 2))  # only 1 of 3 axis lengths
    with pytest.raises(ArrayFormatError, match="axis lengths"):
        read_array(path)


def test_truncated_payload(tmp_path):
    values = random_tensor((6,))
    path = tmp_path / "cut.bin"
    write_array(path, values)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ArrayFormatError, match="truncated payload"):
        read_array(path)
