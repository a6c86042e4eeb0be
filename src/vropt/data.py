"""Dataset containers, LIBSVM text parsing, and sparse row primitives.

Rows are immutable after construction and safe to share between runs.
Indices are stored 0-based; the on-disk LIBSVM convention is 1-based and
shifted at parse time.
"""

import hashlib

import numpy as np


class ParseError(ValueError):
    """Malformed LIBSVM text; the message names the offending line."""


class SparseRow:
    """One feature vector a_i: strictly increasing indices, no stored zeros."""

    __slots__ = ("indices", "values", "dim")

    def __init__(self, indices, values, dim):
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.shape != values.shape or indices.ndim != 1:
            raise ValueError("indices and values must be 1-d and the same length")
        if indices.size and (np.diff(indices) <= 0).any():
            raise ValueError("indices must be strictly increasing")
        if indices.size and (indices[0] < 0 or indices[-1] >= dim):
            raise ValueError("index out of range for dim=%d" % dim)
        keep = values != 0.0
        if not keep.all():
            indices = indices[keep]
            values = values[keep]
        self.indices = indices
        self.values = values
        self.dim = int(dim)
        self.indices.setflags(write=False)
        self.values.setflags(write=False)

    @property
    def nnz(self):
        return self.indices.size

    def __repr__(self):
        return "SparseRow(nnz=%d, dim=%d)" % (self.nnz, self.dim)


class Dataset:
    """n sparse rows plus labels; the (a_i, b_i) pairs of one finite sum.

    Also carries a CSR view (indptr/col_indices/col_values) used by the
    vectorized full-pass operations; per-example loops slice it directly.
    """

    def __init__(self, rows, labels):
        if len(rows) == 0:
            raise ValueError("empty dataset")
        if len(labels) != len(rows):
            raise ValueError("labels length must equal row count")
        d = rows[0].dim
        for r in rows:
            if r.dim != d:
                raise ValueError("all rows must share one dimension")
        self.rows = tuple(rows)
        self.labels = np.asarray(labels, dtype=np.float64).copy()
        self.labels.setflags(write=False)
        self.n = len(rows)
        self.d = d
        self.indptr = np.zeros(self.n + 1, dtype=np.int64)
        for i, r in enumerate(rows):
            self.indptr[i + 1] = self.indptr[i] + r.nnz
        self.col_indices = np.concatenate([r.indices for r in rows]) if self.indptr[-1] else np.zeros(0, np.int64)
        self.col_values = np.concatenate([r.values for r in rows]) if self.indptr[-1] else np.zeros(0, np.float64)
        self._csr = None

    def to_csr(self):
        """scipy CSR matrix of shape (n, d); built once, cached."""
        if self._csr is None:
            from scipy import sparse

            self._csr = sparse.csr_matrix(
                (self.col_values, self.col_indices, self.indptr), shape=(self.n, self.d)
            )
        return self._csr

    def margins(self, x):
        """All a_i^T x as one vector of length n."""
        return self.to_csr() @ x


class RandomSource:
    """Deterministic 64-bit generator (numpy PCG64) owned by one run.

    Identical (seed, stream) pairs replay identical draw sequences; derived
    independent streams come from ``child(k)`` which reseeds with
    SeedSequence([seed, k]).
    """

    def __init__(self, seed, stream=0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, self.stream]))
        )

    def child(self, stream):
        return RandomSource(self.seed, stream)

    def integers(self, low, high=None):
        return int(self._gen.integers(low, high))

    def random(self, size=None):
        out = self._gen.random(size)
        return float(out) if size is None else out

    def normal(self, size=None):
        return self._gen.normal(size=size)


def draw_index(rng, n):
    """Uniform index in {0..n-1}, advancing the generator."""
    if n < 1:
        raise ValueError("need n >= 1")
    return rng.integers(n)


def row_norm_sq(row):
    """||a_i||^2."""
    return float(np.dot(row.values, row.values))


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
        ParseError: malformed token, non-increasing or sub-1 index, an empty
            stream, or dim smaller than an observed index. Messages carry the
            1-based line number.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source
    rows_raw = []
    labels = []
    max_idx = 0
    for ln, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        try:
            label = float(parts[0])
        except ValueError:
            raise ParseError("line %d: bad label %r" % (ln, parts[0]))
        idxs = []
        vals = []
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
            if idx < 1:
                raise ParseError("line %d: index %d < 1" % (ln, idx))
            if idx <= prev:
                raise ParseError("line %d: indices not strictly increasing" % ln)
            prev = idx
            idxs.append(idx - 1)
            vals.append(val)
        if prev > max_idx:
            max_idx = prev
        rows_raw.append((idxs, vals))
        labels.append(label)
    if not rows_raw:
        raise ParseError("empty dataset")
    if dim is None:
        d = max_idx
    else:
        d = int(dim)
        if d < max_idx:
            raise ParseError("dim override %d smaller than max index %d" % (d, max_idx))
    if d < 1:
        raise ParseError("empty dataset")  # rows exist but carry no features
    rows = [SparseRow(idxs, vals, d) for idxs, vals in rows_raw]
    return Dataset(rows, labels)


def write_libsvm(dataset):
    """Canonical LIBSVM text (17 significant digits, 1-based indices)."""
    out = []
    for i in range(dataset.n):
        r = dataset.rows[i]
        parts = ["%.17g" % dataset.labels[i]]
        for j, v in zip(r.indices, r.values):
            parts.append("%d:%.17g" % (j + 1, v))
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def dataset_hash(dataset):
    """sha256 of the canonical serialization; keys the reference cache."""
    return hashlib.sha256(write_libsvm(dataset).encode()).hexdigest()
