"""Binary tensor format tests: roundtrip, header validation, sidecar."""

import json
import struct

import numpy as np
import pytest

from ipfe.arrayio import (ArrayFormatError, FORMAT_VERSION, MAGIC,
                          grid_metadata, read_array, write_array,
                          write_in_place, write_json)
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
        assert back.flags.writeable and back.flags.c_contiguous
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


def test_rewrite_leaves_exactly_the_new_bytes(tmp_path):
    # A shorter tensor and sidecar written over longer ones: the files hold
    # what a write into a fresh directory holds, with no old tail.
    grid = FrequencyGrid(1, 8, 0.25, 1.55e-6)
    path = tmp_path / "old" / "field.bin"
    path.parent.mkdir()
    write_array(path, random_tensor((8, 8)),
                grid_metadata(grid, note="x" * 500))
    fresh = tmp_path / "fresh" / "field.bin"
    fresh.parent.mkdir()
    values, meta = random_tensor((8,), seed=1), grid_metadata(grid)
    for target in (path, fresh):
        write_array(target, values, meta)
    for suffix in ("", ".json"):
        old, new = (p.with_name(p.name + suffix) for p in (path, fresh))
        assert old.read_bytes() == new.read_bytes(), suffix
    back, read_meta = read_array(path)
    assert np.array_equal(back, values) and read_meta == meta


def test_write_in_place_pieces_and_symlinks(tmp_path):
    target = tmp_path / "target.txt"
    target.write_bytes(b"0123456789" * 10)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_in_place(link, b"ab", memoryview(b"cd"), b"")
    assert link.is_symlink()
    assert target.read_bytes() == b"abcd"
    write_in_place(tmp_path / "new.txt", b"new")
    assert (tmp_path / "new.txt").read_bytes() == b"new"
    write_in_place(target)
    assert target.read_bytes() == b""


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


def test_write_json_layout(tmp_path):
    # Two-space indent, sorted keys, ASCII escapes, NaN and Infinity, and
    # a final newline: the text of json.dumps(indent=2, sort_keys=True).
    value = {"b": [float("nan"), float("inf"), -float("inf"), -0.0, 2 ** 70,
                   np.float64(2.5), {}, [], ()],
             "a": {"caf\u00e9 \"q\"": "\\ \n \t \x01", "e": [[], {}]}}
    write_json(tmp_path / "v.json", value)
    assert (tmp_path / "v.json").read_text() == r'''{
  "a": {
    "caf\u00e9 \"q\"": "\\ \n \t \u0001",
    "e": [
      [],
      {}
    ]
  },
  "b": [
    NaN,
    Infinity,
    -Infinity,
    -0.0,
    1180591620717411303424,
    2.5,
    {},
    [],
    []
  ]
}
'''
    values = [
        {}, [], (), "", 0, -7, 2 ** 70, 0.0, -0.0, 1e-300, 1.55e-06,
        0.1 + 0.2, np.float64(2.5), float("nan"), float("inf"),
        -float("inf"), True, False, None, "caf\u00e9 \"q\" \\ \n \t \x01",
        {"b": [1, {"z": None, "a": []}], "a": {"y": {}, "x": (1.0, "s")},
         "\u00e9": True, "A": [[], [[]], {"k": [False]}]},
        [{"grid": {"n": 16, "delta_a": 0.25}}, [1, [2, [3]]]],
    ]
    write_json(tmp_path / "v.json", values)
    assert (tmp_path / "v.json").read_text() == json.dumps(
        values, indent=2, sort_keys=True) + "\n"
    for bad in (np.int64(3), [np.arange(2)], {"p": tmp_path}):
        with pytest.raises(TypeError):
            write_json(tmp_path / "bad.json", bad)
