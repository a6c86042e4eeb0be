"""Flat binary vector files, the reference pair, and the cache that holds both.

Vector layout: 16-byte header (8-byte magic "VROPTV01", uint32 rows = 1,
uint32 cols, little-endian) followed by cols little-endian float64 values.
"""

import contextlib
import os
import struct
import tempfile

import numpy as np

MAGIC = b"VROPTV01"
_HEADER = struct.Struct("<8sII")


def write_vectors(path, x):
    """Write a 1-d float64 vector as a one-row file."""
    x = np.asarray(x, dtype="<f8")
    if x.ndim != 1:
        raise ValueError("expected a 1-d array")
    atomic_write_bytes(path, (_HEADER.pack(MAGIC, 1, x.size), x.tobytes()))


def read_vector(path):
    """Read back the vector write_vectors stored; raises ValueError on a file
    that does not hold exactly one."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError("%s: truncated header" % path)
    magic, rows, cols = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError("%s: not a vropt vector file" % path)
    if rows != 1:
        raise ValueError("%s: expected a single row, found %d" % (path, rows))
    body = len(raw) - _HEADER.size
    if body != 8 * cols:
        raise ValueError("%s: expected %d payload bytes, found %d" % (path, 8 * cols, body))
    return np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).astype(np.float64)


def write_scalar_text(path, value):
    atomic_write_bytes(path, (("%.17g\n" % value).encode(),))


def read_scalar_text(path):
    with open(path) as fh:
        return float(fh.read().strip())


def write_reference(prefix, ref):
    """Store a reference (x*, f*) as prefix.xstar.vec and prefix.fstar.txt,
    the f* file last."""
    x, f = ref
    write_vectors(prefix + ".xstar.vec", x)
    write_scalar_text(prefix + ".fstar.txt", f)


def read_reference(prefix):
    """The (x*, f*) pair write_reference stored at prefix. The f* file is
    read first: it is written last, so a missing pair raises
    FileNotFoundError before read_vector is called."""
    f = read_scalar_text(prefix + ".fstar.txt")
    return read_vector(prefix + ".xstar.vec"), f


def cache_dir():
    return os.environ.get("VROPT_CACHE") or os.path.join(os.path.expanduser("~"), ".cache", "vropt")


def cached(name, read, make, write):
    """The value of cache entry `name`: read(path) for the path under
    cache_dir(), or, when that raises OSError or ValueError (no entry, or
    one that does not read), make(), then write(path, value). A cache that
    cannot be written costs the next process the make, nothing more; make's
    own exceptions propagate."""
    cdir = cache_dir()
    path = os.path.join(cdir, name)
    try:
        return read(path)
    except (OSError, ValueError):
        pass
    value = make()
    with contextlib.suppress(OSError):
        os.makedirs(cdir, exist_ok=True)
        write(path, value)
    return value


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
