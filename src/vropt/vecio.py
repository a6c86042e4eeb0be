"""Flat binary vector files for reference solutions and per-example tables.

Layout: 16-byte header (8-byte magic "VROPTV01", uint32 rows, uint32 cols,
little-endian) followed by rows*cols little-endian float64 values, row-major.
A single vector is stored as rows=1.
"""

import os
import struct
import tempfile

import numpy as np

MAGIC = b"VROPTV01"
_HEADER = struct.Struct("<8sII")


def write_vectors(path, arr):
    """Write a (rows, cols) float64 array (1-d input becomes one row)."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError("expected a 1-d or 2-d array")
    payload = _HEADER.pack(MAGIC, arr.shape[0], arr.shape[1]) + arr.astype("<f8").tobytes()
    atomic_write_bytes(path, (payload,))


def read_vectors(path):
    """Read back a (rows, cols) float64 array; raises ValueError on bad files."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError("%s: truncated header" % path)
        magic, rows, cols = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ValueError("%s: not a vropt vector file" % path)
        body = fh.read()
    expect = rows * cols * 8
    if len(body) != expect:
        raise ValueError("%s: expected %d payload bytes, found %d" % (path, expect, len(body)))
    return np.frombuffer(body, dtype="<f8").reshape(rows, cols).astype(np.float64)


def read_vector(path):
    """Read a file holding exactly one row and return it 1-d."""
    arr = read_vectors(path)
    if arr.shape[0] != 1:
        raise ValueError("%s: expected a single row, found %d" % (path, arr.shape[0]))
    return arr[0]


def write_scalar_text(path, value):
    atomic_write_bytes(path, (("%.17g\n" % value).encode(),))


def read_scalar_text(path):
    with open(path) as fh:
        return float(fh.read().strip())


def atomic_write_bytes(path, chunks):
    """Write chunks (an iterable of bytes-like objects, consumed in order, so
    a generator streams) via temp file + rename so readers never see partial
    files."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".vropt-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    atomic_write_bytes(path, (text.encode(),))
