"""Binary tensor container tests: lossless roundtrips plus one test per
malformed-file class, each checking the reported byte offset."""

import os
import struct
import threading

import numpy as np
import pytest

from mgdfis import mgdt
from mgdfis.errors import TensorFormatError
from mgdfis.rng import stream


@pytest.mark.parametrize("shape", [(), (5,), (3, 4), (2, 3, 4, 5)])
def test_real_roundtrip(shape, tmp_path):
    arr = stream(1, f"rt{len(shape)}").uniform(shape, -10, 10)
    path = tmp_path / "t.mgdt"
    mgdt.write_tensor(path, arr)
    back = mgdt.read_tensor(path)
    assert back.shape == np.asarray(arr).shape
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)


def test_complex_roundtrip(tmp_path):
    re = stream(2, "c.re").uniform((2, 3, 4), -1, 1)
    im = stream(2, "c.im").uniform((2, 3, 4), -1, 1)
    arr = re + 1j * im
    path = tmp_path / "c.mgdt"
    mgdt.write_tensor(path, arr)
    back = mgdt.read_tensor(path)
    assert back.dtype == np.complex128
    assert np.array_equal(back, arr)


def _valid_bytes(arr=None):
    if arr is None:
        arr = np.arange(6, dtype=np.float64).reshape(2, 3)
    import os, tempfile
    fd, path = tempfile.mkstemp()
    os.close(fd)
    try:
        mgdt.write_tensor(path, arr)
        with open(path, "rb") as fh:
            return fh.read()
    finally:
        os.unlink(path)


def _expect(tmp_path, raw, offset, fragment):
    path = tmp_path / "bad.mgdt"
    path.write_bytes(raw)
    with pytest.raises(TensorFormatError) as err:
        mgdt.read_tensor(path)
    assert err.value.offset == offset
    assert fragment in str(err.value)


def test_truncated_header(tmp_path):
    _expect(tmp_path, b"MGD", 3, "truncated header")


def test_bad_magic(tmp_path):
    raw = _valid_bytes()
    _expect(tmp_path, b"XXXX" + raw[4:], 0, "magic")


def test_unsupported_version(tmp_path):
    raw = bytearray(_valid_bytes())
    raw[4] = 2
    _expect(tmp_path, bytes(raw), 4, "version")


def test_unknown_dtype_code(tmp_path):
    raw = bytearray(_valid_bytes())
    raw[5] = 9
    _expect(tmp_path, bytes(raw), 5, "dtype")


def test_truncated_dims(tmp_path):
    raw = _valid_bytes()[:11]  # rank says 2, only half of dim 0 present
    _expect(tmp_path, raw, 11, "truncated dims")


def test_zero_dim(tmp_path):
    raw = bytearray(_valid_bytes())
    struct.pack_into("<Q", raw, 7 + 8, 0)  # zero out dim index 1
    _expect(tmp_path, bytes(raw), 15, "dim 1 is zero")


def test_truncated_payload(tmp_path):
    raw = _valid_bytes()
    _expect(tmp_path, raw[:-4], len(raw) - 4, "truncated payload")


def test_trailing_bytes(tmp_path):
    raw = _valid_bytes()
    _expect(tmp_path, raw + b"\x00\x01", len(raw), "trailing")


def test_non_finite_payload(tmp_path):
    arr = np.ones((2, 2))
    arr[1, 1] = np.nan
    raw = _valid_bytes(arr)
    _expect(tmp_path, raw, 7 + 16, "non-finite")


def _piped(raw):
    """The read end of a pipe that a writer thread fills with raw and closes."""
    r, w = os.pipe()

    def write():
        with os.fdopen(w, "wb") as fh:
            fh.write(raw)
    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return r, writer


def test_pipe_roundtrip():
    # a pipe has no size to check up front; this one carries more than a
    # pipe's 64 KiB buffer, so it takes several reads
    arr = stream(3, "pipe").uniform((3, 64, 64), -1, 1)
    r, writer = _piped(_valid_bytes(arr))
    back = mgdt.read_tensor(r)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert np.array_equal(back, arr)


def test_truncated_pipe():
    raw = _valid_bytes()
    r, writer = _piped(raw[:-4])
    with pytest.raises(TensorFormatError) as err:
        mgdt.read_tensor(r)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert err.value.offset == len(raw) - 4
    assert "truncated payload" in str(err.value)
