"""CSR datasets, LIBSVM text parsing, and the run's random source.

Datasets are immutable after construction and safe to share between runs.
Indices are stored 0-based; the on-disk LIBSVM convention is 1-based and
shifted at parse time.
"""

import hashlib
import importlib.machinery
import importlib.util
import math
import os
import struct
import sys
from array import array
from collections import namedtuple

import numpy as np

from . import vecio


class ParseError(ValueError):
    """Malformed LIBSVM text; the message names the offending line."""


RowView = namedtuple("RowView", "indices values")


def _load_sparsetools():
    """scipy's compiled sparse loops, the extension module behind
    csr_matrix @ x and csr.T @ s, loaded from its file beside scipy's
    package. That runs neither scipy's nor scipy.sparse's __init__, whose
    import costs a fresh process 0.14-0.20 s and 22 MB of peak RSS. A
    process that has loaded scipy.sparse already shares its copy."""
    loaded = sys.modules.get("scipy.sparse._sparsetools")
    if loaded is not None:
        return loaded
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        "_sparsetools", [os.path.join(p, "sparse") for p in scipy.submodule_search_locations or ()])
    if spec is None:
        raise ImportError("vropt's sparse products need scipy's compiled loops (scipy/sparse/_sparsetools)")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_sparsetools = _load_sparsetools()


class Dataset:
    """n sparse rows a_i plus labels b_i; the (a_i, b_i) pairs of one finite sum.

    Held as CSR only: row i is col_indices/col_values[indptr[i]:indptr[i+1]],
    indices strictly increasing within a row and in [0, d), no stored zeros
    (dropped here), values and labels finite. The products read
    x[col_indices[k]] with no bounds check, so no caller may write the
    arrays: each of indptr, col_indices, col_values and labels is a 1-d
    C-contiguous view of an immutable bytes object, whose memory no Python
    object can write and whose view numpy will not make writable. An array
    handed over as such a view (read_csr's, parse_libsvm's) is kept; any
    other is copied into bytes once, before it is checked.
    """

    def __init__(self, indptr, col_indices, col_values, labels, d):
        indptr = _frozen(indptr, np.int64)
        indices = _frozen(col_indices, np.int64)
        values = _frozen(col_values, np.float64)
        labels = _frozen(labels, np.float64)
        if indptr.ndim != 1 or indptr.size < 2:
            raise ValueError("empty dataset: indptr needs n+1 >= 2 entries in one dimension")
        n = indptr.size - 1
        if labels.shape != (n,):
            raise ValueError("labels length must equal row count")
        if indices.shape != values.shape or indices.ndim != 1:
            raise ValueError("indices and values must be 1-d and the same length")
        nnz = indices.size
        if indptr[0] != 0 or indptr[-1] != nnz or (np.diff(indptr) < 0).any():
            raise ValueError("indptr must rise monotonically from 0 to nnz=%d" % nnz)
        if nnz:
            # bool temporaries only: this check can set a large file's peak
            falls = indices[1:] <= indices[:-1]
            cuts = indptr[1:-1]
            falls[cuts[(cuts > 0) & (cuts < nnz)] - 1] = False  # steps into a new row
            if falls.any():
                raise ValueError("indices must be strictly increasing")
            del falls
            if indices.min() < 0 or indices.max() >= d:
                raise ValueError("index out of range for dim=%d" % d)
        if not (np.isfinite(values).all() and np.isfinite(labels).all()):
            raise ValueError("values and labels must be finite")
        keep = values != 0.0
        if not keep.all():
            indptr = _frozen(np.concatenate(([0], np.cumsum(keep)))[indptr], np.int64)
            indices = _frozen(indices[keep], np.int64)
            values = _frozen(values[keep], np.float64)
        self.indptr, self.col_indices, self.col_values, self.labels = indptr, indices, values, labels
        self.n = n
        self.d = int(d)
        self._hash = None

    def row(self, i):
        """(indices, values) of row i: read-only views, no copy."""
        if not 0 <= i < self.n:
            raise IndexError("row index %d out of range for n=%d" % (i, self.n))
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.col_indices[lo:hi], self.col_values[lo:hi]

    @property
    def rows(self):
        """Iterator of RowView(*row(i)) over all rows; kept for the benchmark
        tracer (perfbench/tracing.py), per-example loops call row(i)."""
        return (RowView(*self.row(i)) for i in range(self.n))

    def margins(self, x):
        """All a_i^T x as one vector of length n.

        Row i's terms a_ij x_j are summed left to right in column order,
        starting from 0.0: scipy's CSR loop (csr_matvec), the one
        csr_matrix @ x runs, here over the int64 arrays themselves.
        """
        out = np.zeros(self.n)
        _sparsetools.csr_matvec(self.n, self.d, self.indptr, self.col_indices, self.col_values,
                                _operand(x, self.d), out)
        return out

    def weighted_sum(self, s):
        """sum_i s_i a_i, i.e. A^T s, as one vector of length d.

        Coordinate j's terms s_i a_ij are summed left to right in row order,
        starting from 0.0: scipy's CSC loop (csc_matvec), the one csr.T @ s
        runs, reading the CSR arrays as those of A^T in CSC.
        """
        out = np.zeros(self.d)
        _sparsetools.csc_matvec(self.d, self.n, self.indptr, self.col_indices, self.col_values,
                                _operand(s, self.n), out)
        return out


def _frozen(a, dtype):
    """a as a 1-d array of dtype viewing an immutable bytes object: kept if
    it is a C-contiguous view of bytes, else copied into bytes. An a of
    another shape is returned as an array for the caller to refuse."""
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 1 or (type(a.base) is bytes and a.flags.c_contiguous):
        return a
    return np.frombuffer(a.tobytes(), dtype=dtype)


def _operand(v, size):
    """v as a C-contiguous 1-d float64 array of the given length."""
    v = np.asarray(v, dtype=np.float64, order="C")
    if v.shape != (size,):
        raise ValueError("dimension mismatch: operand of shape %s, want (%d,)" % (v.shape, size))
    return v


class RandomSource:
    """Deterministic 64-bit generator (numpy PCG64) owned by one run.

    Identical (seed, stream) pairs replay identical draw sequences; each
    stream k is seeded with SeedSequence([seed, k]).
    """

    def __init__(self, seed, stream=0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, self.stream]))
        )

    def integers(self, low, high=None, size=None):
        """One int, or an int64 array when size is given; a block of size k
        continues the stream exactly as k single draws would."""
        out = self._gen.integers(low, high, size)
        return int(out) if size is None else out

    def random(self, size=None):
        out = self._gen.random(size)
        return float(out) if size is None else out

    def normal(self, size=None):
        return self._gen.normal(size=size)


def parse_libsvm(source, dim=None):
    """Parse LIBSVM text ("label idx:val ...", 1-based indices) into a Dataset.

    Args:
        source: a string, an open text file, or any iterable of lines.
        dim: optional dimension override so related files share a d; must be
            at least the largest index seen.

    Returns:
        Dataset with 0-based indices. Labels are stored as given; any
        {0,1} -> {-1,+1} coercion happens when an objective is built.

    Raises:
        ParseError: malformed token, non-finite label or value, non-increasing
            or sub-1 index, an empty stream, or dim smaller than an observed
            index. Messages carry the 1-based line number.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source
    indptr = array("q", [0])
    col_indices = array("q")
    col_values = array("d")
    labels = []
    max_idx = 0
    isfinite = math.isfinite
    for ln, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        try:
            label = float(parts[0])
        except ValueError:
            raise ParseError("line %d: bad label %r" % (ln, parts[0]))
        if not isfinite(label):
            raise ParseError("line %d: non-finite label %r" % (ln, parts[0]))
        prev = 0
        for tok in parts[1:]:
            if tok.startswith("#"):
                break
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise ParseError("line %d: bad token %r" % (ln, tok))
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError("line %d: bad token %r" % (ln, tok))
            if not isfinite(val):
                raise ParseError("line %d: non-finite value %r" % (ln, tok))
            if idx < 1:
                raise ParseError("line %d: index %d < 1" % (ln, idx))
            if idx <= prev:
                raise ParseError("line %d: indices not strictly increasing" % ln)
            prev = idx
            col_indices.append(idx - 1)
            col_values.append(val)
        if prev > max_idx:
            max_idx = prev
        indptr.append(len(col_indices))
        labels.append(label)
    if not labels:
        raise ParseError("empty dataset")
    if dim is None:
        d = max_idx
    else:
        d = int(dim)
        if d < max_idx:
            raise ParseError("dim override %d smaller than max index %d" % (d, max_idx))
    if d < 1:
        raise ParseError("empty dataset")  # rows exist but carry no features
    # into bytes one at a time, so that only one array is ever held twice
    indptr = indptr.tobytes()
    col_indices = col_indices.tobytes()
    col_values = col_values.tobytes()
    return Dataset(np.frombuffer(indptr, dtype=np.int64), np.frombuffer(col_indices, dtype=np.int64),
                   np.frombuffer(col_values, dtype=np.float64), labels, d)


def write_libsvm(dataset):
    """Canonical LIBSVM text (17 significant digits, 1-based indices)."""
    lines = []
    for i, label in enumerate(dataset.labels.tolist()):
        idx, vals = dataset.row(i)
        parts = ["%.17g" % label]
        parts.extend("%d:%.17g" % (j + 1, v) for j, v in zip(idx.tolist(), vals.tolist()))
        lines.append(" ".join(parts) + "\n")
    return "".join(lines)


def _csr_chunks(dataset):
    """A little-endian (n, d, nnz) int64 header, then the raw indptr and
    col_indices (int64), col_values and labels (float64) arrays: the bytes
    dataset_hash digests and write_csr stores."""
    yield np.array([dataset.n, dataset.d, dataset.col_indices.size], dtype="<i8")
    for a, dtype in ((dataset.indptr, "<i8"), (dataset.col_indices, "<i8"),
                     (dataset.col_values, "<f8"), (dataset.labels, "<f8")):
        yield np.ascontiguousarray(a, dtype=dtype)


def dataset_hash(dataset):
    """sha256 of the header and raw arrays (_csr_chunks); keys the reference
    cache. Computed once per Dataset (it is immutable)."""
    if dataset._hash is None:
        h = hashlib.sha256()
        for chunk in _csr_chunks(dataset):
            h.update(chunk)
        dataset._hash = h.hexdigest()
    return dataset._hash


def write_csr(path, dataset):
    """Store a Dataset as its header and raw arrays (_csr_chunks), written
    to a temp file and renamed into place."""
    vecio.atomic_write_bytes(path, _csr_chunks(dataset))


def read_csr(path):
    """The Dataset write_csr stored, rebuilt through the validating
    constructor over views of the bytes read: Dataset keeps them, so no
    array is copied.

    Raises:
        OSError: the file cannot be read.
        ValueError: it is shorter or longer than its header says, or its
            arrays do not form a valid Dataset.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 24:
        raise ValueError("%s: truncated header" % path)
    n, d, nnz = struct.unpack_from("<3q", raw)
    if n < 0 or nnz < 0 or len(raw) != 8 * (4 + 2 * n + 2 * nnz):
        raise ValueError("%s: %d bytes do not hold (n, d, nnz) = (%d, %d, %d)" % (path, len(raw), n, d, nnz))
    arrays = []
    offset = 24
    for dtype, count in (("<i8", n + 1), ("<i8", nnz), ("<f8", nnz), ("<f8", n)):
        arrays.append(np.frombuffer(raw, dtype=dtype, count=count, offset=offset))
        offset += 8 * count
    return Dataset(*arrays, d)
