"""Binary tensor container.

Layout: magic "MGDT", 1-byte version (1), 1-byte dtype code (0 = real
float64, 1 = complex as little-endian float64 re/im pairs), 1-byte rank,
rank 8-byte little-endian unsigned dims, then the row-major little-endian
payload.  Malformed files raise TensorFormatError carrying the byte offset
of the violation.
"""

import io
import math
import os
import stat
import struct

import numpy as np

from .errors import TensorFormatError

MAGIC = b"MGDT"
VERSION = 1
DTYPE_REAL = 0
DTYPE_COMPLEX = 1

_HEADER = 7  # magic + version + dtype + rank


def write_tensor(path, arr):
    """Write arr as an MGDT file; the payload is written from arr's own
    buffer when arr is already C-contiguous little-endian float64 or
    complex128, and from one converted copy otherwise."""
    arr = np.asarray(arr)
    code = DTYPE_COMPLEX if np.iscomplexobj(arr) else DTYPE_REAL
    payload = np.asarray(arr, dtype="<c16" if code == DTYPE_COMPLEX else "<f8",
                         order="C")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION, code, arr.ndim]))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(payload)


def read_tensor(path):
    """The array an MGDT file holds.  The header is read and checked against
    the file's size before the payload is read straight into the returned
    array; a pipe or other non-regular file, which has no size, is read whole
    first."""
    with open(path, "rb") as raw:
        st = os.fstat(raw.fileno())
        fh = raw if stat.S_ISREG(st.st_mode) else io.BytesIO(raw.read())
        size = st.st_size if fh is raw else fh.getbuffer().nbytes
        if size < _HEADER:
            raise TensorFormatError(
                f"truncated header: {size} bytes, need {_HEADER}", offset=size)
        head = fh.read(_HEADER)
        if head[:4] != MAGIC:
            raise TensorFormatError(f"bad magic {head[:4]!r}", offset=0)
        if head[4] != VERSION:
            raise TensorFormatError(f"unsupported version {head[4]}", offset=4)
        code = head[5]
        if code not in (DTYPE_REAL, DTYPE_COMPLEX):
            raise TensorFormatError(f"unknown dtype code {code}", offset=5)
        rank = head[6]
        dims_end = _HEADER + 8 * rank
        if size < dims_end:
            raise TensorFormatError(
                f"truncated dims: rank {rank} needs {8 * rank} bytes", offset=size)
        dims = struct.unpack(f"<{rank}Q", fh.read(8 * rank))
        for i, d in enumerate(dims):
            if d == 0:
                raise TensorFormatError(f"dim {i} is zero", offset=_HEADER + 8 * i)
        dtype = "<c16" if code == DTYPE_COMPLEX else "<f8"
        expected = dims_end + math.prod(dims) * np.dtype(dtype).itemsize
        if size < expected:
            raise TensorFormatError(
                f"truncated payload: expected {expected} bytes total, got {size}",
                offset=size)
        if size > expected:
            raise TensorFormatError(
                f"{size - expected} trailing bytes after payload", offset=expected)
        out = np.empty(dims, dtype=dtype)
        got = dims_end + fh.readinto(out.reshape(-1).view(np.uint8))
    if got < expected:      # the file shrank after its size was read
        raise TensorFormatError(
            f"truncated payload: expected {expected} bytes total, got {got}",
            offset=got)
    if not np.all(np.isfinite(out)):    # a complex entry: both its parts
        raise TensorFormatError("payload contains non-finite values", offset=dims_end)
    return out
