"""Bit-exact tensor archive: the checkpoint file format for every artifact.

Layout (all integers little-endian):

    magic   4 bytes  b"OACK"
    version u32      2, or 3 when an entry is uint8
    count   u32      number of entries
    entry   repeated:
        name_len u16, name UTF-8 bytes
        dtype    u8   0 = float32, 1 = float64 (version >= 2),
                      2 = uint8 (version 3; bit-packed integers)
        ndim     u8,  dims ndim x u64
        payload  prod(dims) x dtype, little-endian

Writing stores a float64 array as float64, a uint8 array as uint8 and every
other float array as float32; any other integer or bool array is refused
(`UnsupportedDtype`), since a float32 cast would change it silently. An
archive without uint8 entries is stamped version 2, so checkpoints stay
version-2 files. Reading returns each entry at its stored width, so write ->
read -> write round trips are bit-identical. Version 1 archives, whose
entries carry no dtype byte and are all float32, are still read.
"""
from __future__ import annotations

import math
import os
import struct
from collections.abc import Iterable, Mapping

import numpy as np

from .errors import DuplicateName, MalformedArchive, NonFinite, UnsupportedDtype

MAGIC = b"OACK"
VERSION = 3
_V1, _V2 = 1, 2
HEADER_NBYTES = len(MAGIC) + 8  # magic, version, count
# dtype byte -> little-endian payload dtype
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}
_UINT8 = 2

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER_NBYTES",
    "entry_header_nbytes",
    "entry_nbytes",
    "archive_write",
    "archive_read",
]


def _code(name: str, a: np.ndarray) -> int:
    if a.dtype.kind == "f":
        return 1 if a.dtype.itemsize == 8 else 0
    if a.dtype == np.uint8:
        return _UINT8
    raise UnsupportedDtype(
        f"tensor {name!r} is {a.dtype}; the archive holds floats and uint8 only"
    )


def _normalize(tensors) -> list[tuple[str, int, np.ndarray]]:
    if isinstance(tensors, Mapping):
        items: Iterable = tensors.items()
    else:
        items = tensors
    out = []
    for name, arr in items:
        a = np.asarray(arr)
        code = _code(name, a)
        if code != _UINT8 and a.size and not np.all(np.isfinite(a)):
            raise NonFinite(f"tensor {name!r} contains NaN or Inf")
        out.append((str(name), code, np.ascontiguousarray(a, dtype=_DTYPES[code])))
    return out


def entry_header_nbytes(name: str, ndim: int) -> int:
    """Bytes of one entry's header: name length, name, dtype, ndim, dims."""
    return 2 + len(name.encode("utf-8")) + 1 + 1 + 8 * ndim


def entry_nbytes(name: str, arr) -> int:
    """Bytes `archive_write` spends on one entry, header and payload."""
    a = np.asarray(arr)
    return entry_header_nbytes(name, a.ndim) + a.size * _DTYPES[_code(name, a)].itemsize


def archive_write(path, tensors) -> None:
    """Write named float or uint8 tensors to `path`.

    float64 arrays are stored as float64 and uint8 arrays as uint8; every
    other float payload is cast to float32.
    """
    entries = _normalize(tensors)
    seen = set()
    for name, _, _ in entries:
        if name in seen:
            raise DuplicateName(f"tensor name {name!r} appears twice")
        seen.add(name)
    version = VERSION if any(code == _UINT8 for _, code, _ in entries) else _V2
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", version, len(entries)))
        for name, code, arr in entries:
            raw_name = name.encode("utf-8")
            if len(raw_name) > 0xFFFF:
                raise MalformedArchive(f"tensor name too long: {len(raw_name)} bytes")
            fh.write(struct.pack("<H", len(raw_name)))
            fh.write(raw_name)
            fh.write(struct.pack("<B", code))
            dims = arr.shape
            if len(dims) > 0xFF:
                raise MalformedArchive(f"too many dims: {len(dims)}")
            fh.write(struct.pack("<B", len(dims)))
            for d in dims:
                fh.write(struct.pack("<Q", d))
            fh.write(arr.tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise MalformedArchive(f"truncated archive while reading {what}")
    return buf


def archive_read(path) -> dict[str, np.ndarray]:
    """Read an archive into an ordered {name: ndarray} mapping.

    Each array comes back as float32, float64 or uint8, whichever it was
    stored as. An entry whose dims declare more payload than the file has
    left, or a shape numpy cannot index, is malformed before anything is
    allocated for it.
    """
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise MalformedArchive("bad magic; not a tensor archive")
        version, count = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version not in (_V1, _V2, VERSION):
            raise MalformedArchive(f"unsupported archive version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            try:
                name = _read_exact(fh, name_len, "name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedArchive(f"invalid UTF-8 tensor name: {exc}") from exc
            if name in out:
                raise DuplicateName(f"tensor name {name!r} appears twice")
            dtype = _DTYPES[0]
            if version != _V1:
                (code,) = struct.unpack("<B", _read_exact(fh, 1, "dtype"))
                if code not in _DTYPES or (code == _UINT8 and version != VERSION):
                    raise MalformedArchive(
                        f"unknown dtype code {code} for {name!r} in a version {version} archive"
                    )
                dtype = _DTYPES[code]
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, "ndim"))
            dims = struct.unpack(
                "<" + "Q" * ndim, _read_exact(fh, 8 * ndim, "dims")
            )
            n_bytes, left = dtype.itemsize * math.prod(dims), size - fh.tell()
            if n_bytes > left:
                raise MalformedArchive(
                    f"truncated archive: {name!r} declares dims {dims}, "
                    f"{n_bytes} payload bytes, and {left} are left"
                )
            if dtype.itemsize * math.prod(max(d, 1) for d in dims) > np.iinfo(np.intp).max:
                raise MalformedArchive(f"dims {dims} of {name!r} cannot be indexed")
            payload = _read_exact(fh, n_bytes, f"payload of {name!r}")
            arr = np.frombuffer(payload, dtype=dtype).reshape(dims)
            out[name] = arr.copy()
        if fh.read(1):
            raise MalformedArchive("trailing bytes after the last entry")
    return out
