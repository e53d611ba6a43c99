import struct

import numpy as np
import pytest

from oacal.archive import MAGIC, archive_read, archive_write
from oacal.errors import DuplicateName, MalformedArchive, NonFinite, UnsupportedDtype


def test_empty_archive_round_trip(tmp_path):
    path = tmp_path / "empty.oack"
    archive_write(path, {})
    assert archive_read(path) == {}


def test_single_tensor_round_trip(tmp_path):
    path = tmp_path / "one.oack"
    t = np.array([[1.5, -2.25], [0.0, 3.0]], dtype=np.float32)
    archive_write(path, {"w": t})
    out = archive_read(path)
    assert list(out) == ["w"]
    assert out["w"].dtype == np.float32
    assert np.array_equal(out["w"], t)


def test_round_trip_bit_exact_subnormals_and_zeros(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "normal": rng.standard_normal((7, 3)).astype(np.float32),
        "subnormal": np.array([1e-40, -1e-42, 5e-45], dtype=np.float32),
        "zeros": np.array([0.0, -0.0], dtype=np.float32),
        "scalar3d": rng.standard_normal((2, 2, 2)).astype(np.float32),
    }
    path = tmp_path / "mix.oack"
    archive_write(path, tensors)
    out = archive_read(path)
    for name, t in tensors.items():
        assert out[name].shape == t.shape
        assert out[name].tobytes() == t.tobytes()  # bit-exact, keeps -0.0

    # writing what was read reproduces the file byte for byte
    path2 = tmp_path / "mix2.oack"
    archive_write(path2, out)
    assert path.read_bytes() == path2.read_bytes()


def test_duplicate_name_rejected(tmp_path):
    path = tmp_path / "dup.oack"
    with pytest.raises(DuplicateName):
        archive_write(path, [("a", np.zeros(2)), ("a", np.ones(2))])


def test_nonfinite_rejected(tmp_path):
    with pytest.raises(NonFinite):
        archive_write(tmp_path / "bad.oack", {"a": np.array([np.nan])})


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.oack"
    path.write_bytes(b"NOPE" + struct.pack("<II", 1, 0))
    with pytest.raises(MalformedArchive):
        archive_read(path)


def test_bad_version(tmp_path):
    path = tmp_path / "bad.oack"
    path.write_bytes(MAGIC + struct.pack("<II", 99, 0))
    with pytest.raises(MalformedArchive):
        archive_read(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "ok.oack"
    archive_write(path, {"w": np.ones((2, 2), dtype=np.float32)})
    raw = path.read_bytes()
    bad = tmp_path / "cut.oack"
    bad.write_bytes(raw[:-3])  # payload shorter than dims imply
    with pytest.raises(MalformedArchive):
        archive_read(bad)


def test_trailing_bytes(tmp_path):
    path = tmp_path / "ok.oack"
    archive_write(path, {"w": np.ones(2, dtype=np.float32)})
    bad = tmp_path / "pad.oack"
    bad.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(MalformedArchive):
        archive_read(bad)


def test_float64_round_trip_bit_exact(tmp_path):
    path = tmp_path / "f64.oack"
    t = np.array([0.7, 1.0 / 3.0, 1e-300, 5e-324, -0.0, 1e300])
    archive_write(path, {"alphas": t, "w": t[:2].astype(np.float32)})
    out = archive_read(path)
    assert out["alphas"].dtype == np.float64
    assert out["alphas"].tobytes() == t.tobytes()
    assert out["w"].dtype == np.float32

    path2 = tmp_path / "f64b.oack"
    archive_write(path2, out)
    assert path.read_bytes() == path2.read_bytes()


def test_version1_still_reads(tmp_path):
    payload = np.array([[1.5, -2.0, 0.25]], dtype="<f4")
    raw = (
        MAGIC
        + struct.pack("<II", 1, 1)
        + struct.pack("<H", 1)
        + b"w"
        + struct.pack("<B", 2)
        + struct.pack("<QQ", 1, 3)
        + payload.tobytes()
    )
    path = tmp_path / "v1.oack"
    path.write_bytes(raw)
    out = archive_read(path)
    assert list(out) == ["w"]
    assert out["w"].dtype == np.float32
    assert out["w"].tobytes() == payload.tobytes()


def test_unknown_dtype_code(tmp_path):
    path = tmp_path / "ok.oack"
    archive_write(path, {"w": np.ones(2, dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    dtype_at = len(MAGIC) + 8 + 2 + len(b"w")
    assert raw[dtype_at] == 0  # float32
    raw[dtype_at] = 7
    bad = tmp_path / "dtype.oack"
    bad.write_bytes(bytes(raw))
    with pytest.raises(MalformedArchive):
        archive_read(bad)


def test_truncated_float64_payload(tmp_path):
    path = tmp_path / "ok.oack"
    archive_write(path, {"a": np.array([0.1, 0.2, 0.3])})
    bad = tmp_path / "cut.oack"
    bad.write_bytes(path.read_bytes()[:-4])  # whole float32 items, half a float64
    with pytest.raises(MalformedArchive):
        archive_read(bad)


def test_uint8_round_trip_stamps_version_3(tmp_path):
    path = tmp_path / "packed.oack"
    packed = np.array([0, 7, 255], dtype=np.uint8)
    archive_write(path, {"codes": packed, "w": np.ones(2, dtype=np.float32)})
    assert struct.unpack("<I", path.read_bytes()[4:8]) == (3,)
    out = archive_read(path)
    assert out["codes"].dtype == np.uint8
    assert out["codes"].tobytes() == packed.tobytes()
    path2 = tmp_path / "packed2.oack"
    archive_write(path2, out)
    assert path.read_bytes() == path2.read_bytes()


def test_float_only_archive_stays_version_2(tmp_path):
    path = tmp_path / "floats.oack"
    archive_write(path, {"w": np.ones(2, dtype=np.float32), "a": np.zeros(1)})
    assert struct.unpack("<I", path.read_bytes()[4:8]) == (2,)


def test_uint8_in_a_version_2_archive_is_malformed(tmp_path):
    path = tmp_path / "packed.oack"
    archive_write(path, {"p": np.zeros(3, dtype=np.uint8)})
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 2)
    bad = tmp_path / "v2.oack"
    bad.write_bytes(bytes(raw))
    with pytest.raises(MalformedArchive, match="dtype code 2"):
        archive_read(bad)


@pytest.mark.parametrize(
    "arr", [np.arange(3), np.arange(3, dtype=np.int8), np.ones(2, dtype=bool)],
    ids=["int64", "int8", "bool"],
)
def test_other_integer_arrays_are_refused(tmp_path, arr):
    with pytest.raises(UnsupportedDtype, match="uint8"):
        archive_write(tmp_path / "ints.oack", {"codes": arr})
    assert not (tmp_path / "ints.oack").exists()


def declare(path, dims, payload=b""):
    """A version-2 archive of one float32 entry that declares `dims`."""
    path.write_bytes(
        MAGIC + struct.pack("<IIH", 2, 1, 1) + b"w" + struct.pack("<BB", 0, len(dims))
        + struct.pack(f"<{len(dims)}Q", *dims) + payload
    )


@pytest.mark.parametrize(
    "dims, message",
    [((2**62,), "truncated"), ((2**32, 2**32), "truncated"), ((3,), "truncated"),
     ((0, 2**63), "cannot be indexed"), ((2**64 - 1,) * 255, "truncated")],
    ids=["overflowing", "overflowing-product", "past-the-end", "unindexable-empty",
         "product-too-long-to-print"],
)
def test_payload_larger_than_the_file_is_malformed(tmp_path, dims, message):
    # checked before any payload is read or allocated
    path = tmp_path / "big.oack"
    declare(path, dims, payload=b"\x00" * 8)
    with pytest.raises(MalformedArchive, match=message):
        archive_read(path)
