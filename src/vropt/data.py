"""CSR datasets, LIBSVM text parsing, and the run's random source.

Datasets are immutable after construction and safe to share between runs.
Indices are stored 0-based; the on-disk LIBSVM convention is 1-based and
shifted at parse time.
"""

import hashlib
import math
import struct
from array import array
from collections import namedtuple

import numpy as np

from . import vecio


class ParseError(ValueError):
    """Malformed LIBSVM text; the message names the offending line."""


RowView = namedtuple("RowView", "indices values")

# A Dataset takes its full products (margins, A x, and weighted_sum, A^T s)
# on numpy until they have pushed this many stored entries, then on
# scipy.sparse, imported at that point: the rent-or-buy rule. Loading
# scipy.sparse costs a fresh process 0.14-0.20 s and 22 MB of peak RSS (and
# int32 copies of the index arrays); numpy's products cost 2-5 ns more per
# entry. The budget is the traffic at which numpy's extra time equals the
# load, so a process pays at most about twice what the better engine in
# hindsight would cost it. Five sweeps of tools/engine_sweep.py --products
# on a 2-vCPU x86 VM put it at 49-64M entries. Most processes stay under it
# and never load scipy: at most 3.0M entries per dataset in a validate
# check on small data, 8.0M in a run on a 1M-nonzero file, 28.6M in a
# compare over the mushrooms table (179k nonzeros) with its reference
# cached. A cold reference solve on that table pushes 230M and loads it.
NUMPY_BUDGET_NNZ = 50_000_000
# Above this many stored entries numpy's products run in row-aligned chunks
# of about this size, so no nnz-sized temporary exists.
CHUNK_NNZ = 1 << 16


class Dataset:
    """n sparse rows a_i plus labels b_i; the (a_i, b_i) pairs of one finite sum.

    Held as CSR only: row i is col_indices/col_values[indptr[i]:indptr[i+1]],
    indices strictly increasing within a row and in [0, d), no stored zeros
    (dropped here), values and labels finite. The arrays are read-only views;
    the caller's stay writable.
    """

    def __init__(self, indptr, col_indices, col_values, labels, d):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(col_indices, dtype=np.int64)
        values = np.asarray(col_values, dtype=np.float64)
        if indptr.ndim != 1 or indptr.size < 2:
            raise ValueError("empty dataset: indptr needs n+1 >= 2 entries in one dimension")
        n = indptr.size - 1
        if len(labels) != n:
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
        labels = np.array(labels, dtype=np.float64)
        if not (np.isfinite(values).all() and np.isfinite(labels).all()):
            raise ValueError("values and labels must be finite")
        keep = values != 0.0
        if not keep.all():
            indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
            indices = indices[keep]
            values = values[keep]
        self.indptr, self.col_indices, self.col_values = indptr.view(), indices.view(), values.view()
        self.labels = labels
        for a in (self.indptr, self.col_indices, self.col_values, self.labels):
            a.setflags(write=False)
        self.n = n
        self.d = int(d)
        self._csr = None
        self._csr_t = None
        self._rows = None
        self._pushed = 0  # stored entries through numpy's products
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

    def to_csr(self):
        """scipy CSR matrix of shape (n, d) over the dataset's own arrays;
        built once, cached. Only products past NUMPY_BUDGET_NNZ build it."""
        if self._csr is None:
            from scipy import sparse

            self._csr = sparse.csr_matrix(
                (self.col_values, self.col_indices, self.indptr), shape=(self.n, self.d)
            )
        return self._csr

    def _on_numpy(self):
        """True while this dataset's products stay on numpy (and counts this
        one's entries); False once they have pushed NUMPY_BUDGET_NNZ."""
        if self._pushed >= NUMPY_BUDGET_NNZ:
            return False
        self._pushed += self.col_values.size
        return True

    def _entry_rows(self):
        """Row index of every stored entry, in CSR order; built once, for
        data of one chunk only."""
        if self._rows is None:
            self._rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        return self._rows

    def _chunks(self):
        """(first row, end row, first entry, end entry, row of each entry
        counted from the first row) of each row-aligned chunk of at most
        CHUNK_NNZ stored entries (a longer row is a chunk of its own), each
        chunk's rows built as it comes, so no nnz-sized array is made."""
        indptr = self.indptr
        r0 = 0
        while r0 < self.n:
            lo = int(indptr[r0])
            r1 = max(r0 + 1, int(np.searchsorted(indptr, lo + CHUNK_NNZ, "right")) - 1)
            hi = int(indptr[r1])
            yield r0, r1, lo, hi, np.repeat(np.arange(r1 - r0), np.diff(indptr[r0:r1 + 1]))
            r0 = r1

    def margins(self, x):
        """All a_i^T x as one vector of length n.

        Row i's terms a_ij x_j are summed left to right in column order,
        starting from 0.0, as scipy's CSR loop sums them, so both engines
        give the same bits: numpy's bincount (chunk by chunk above
        CHUNK_NNZ entries) until the dataset's products have pushed
        NUMPY_BUDGET_NNZ entries, then scipy.sparse.
        """
        x = _operand(x, self.d)
        if not self._on_numpy():
            return self.to_csr() @ x
        if self.col_values.size <= CHUNK_NNZ:
            return _bin_sums(self._entry_rows(), self.col_values * x[self.col_indices], self.n)
        out = np.empty(self.n)
        for r0, r1, lo, hi, rows in self._chunks():
            terms = x[self.col_indices[lo:hi]]
            terms *= self.col_values[lo:hi]
            out[r0:r1] = np.bincount(rows, weights=terms, minlength=r1 - r0)
            del rows, terms  # before the next chunk's are built
        return out

    def weighted_sum(self, s):
        """sum_i s_i a_i, i.e. A^T s, as one vector of length d.

        Coordinate j's terms s_i a_ij are summed left to right in row order,
        starting from 0.0, as scipy's CSC loop over A^T sums them (A^T is
        built once, as a CSC view over the CSR arrays); the engine is chosen
        as in margins. Above CHUNK_NNZ entries each chunk adds its terms to
        the running sums in entry order (np.add.at); a bincount per chunk
        added afterwards would round differently.
        """
        s = _operand(s, self.n)
        if not self._on_numpy():
            if self._csr_t is None:
                self._csr_t = self.to_csr().T
            return self._csr_t @ s
        if self.col_values.size <= CHUNK_NNZ:
            return _bin_sums(self.col_indices, self.col_values * s[self._entry_rows()], self.d)
        out = np.zeros(self.d)
        for r0, r1, lo, hi, rows in self._chunks():
            terms = s[r0:r1][rows]
            terms *= self.col_values[lo:hi]
            with np.errstate(over="ignore", invalid="ignore"):  # silent, as bincount and scipy are
                np.add.at(out, self.col_indices[lo:hi], terms)
            del rows, terms
        return out


def _bin_sums(bins, weights, size):
    """np.bincount's weighted sums, float64 also over no entries (where
    numpy gives int64 zeros)."""
    return np.bincount(bins, weights=weights, minlength=size).astype(np.float64, copy=False)


def _operand(v, size):
    """v as a 1-d float64 array of the given length."""
    v = np.asarray(v, dtype=np.float64)
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
    constructor (no copy of the index and value arrays).

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
        # one buffer per array: a view into one array holding them all would
        # look like a slice to scipy, which copies such slices
        arrays.append(np.frombuffer(raw, dtype=dtype, count=count, offset=offset))
        offset += 8 * count
    return Dataset(*arrays, d)
