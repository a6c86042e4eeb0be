"""Benchmark and toy problem generators.

Everything here is deterministic in the seed and returns a Dataset. The
categorical benchmark mirrors the shape of the classic mushroom table
(n=8124, d=112, 22 one-hot attribute groups, one of them constant); set
VROPT_MUSHROOMS to a LIBSVM-format file to use real data instead.
"""

import os

import numpy as np

from .data import Dataset, RandomSource, parse_libsvm

# attribute arities; they sum to 112 and include a single-valued attribute
ARITIES = (6, 4, 10, 2, 9, 2, 2, 2, 12, 2, 5, 4, 4, 9, 9, 1, 4, 3, 5, 9, 6, 2)


def _dense(a, labels):
    """Dataset whose rows are the rows of the dense (n, d) array a."""
    n, d = a.shape
    return Dataset(np.arange(0, n * d + 1, d), np.tile(np.arange(d), n), a.ravel(), labels, d)


def mushrooms_like(seed=0, scale=1.0, gap=0.8):
    """Categorical one-hot classification benchmark, n=8124, d=112.

    Rows are unit-normalized one-hot encodings of 22 attributes. Labels are
    the sign of a planted linear score, and category draws are rejection
    sampled until every example clears a score margin of `gap`: like the real
    table, the classes are cleanly separable, so per-example curvature
    collapses near the optimum and constant-step variance-reduced methods
    converge fast at the standard lambda = 1/n setting.
    """
    path = os.environ.get("VROPT_MUSHROOMS")
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_libsvm(fh)
    rng = RandomSource(seed, stream=77)
    n = 8124
    d = int(sum(ARITIES))
    groups = len(ARITIES)
    offsets = np.concatenate(([0], np.cumsum(ARITIES[:-1]))).astype(np.int64)
    x_true = rng.normal(d) * scale
    cum = []
    for r in ARITIES:
        p = rng.random(r) + 2.0
        cum.append(np.cumsum(p / p.sum()))
    w = 1.0 / np.sqrt(groups)
    cols = np.empty((n, groups), dtype=np.int64)  # row i's column in each attribute group

    def draw(rows_idx):
        for g in range(groups):
            u = rng.random(rows_idx.size)
            cols[rows_idx, g] = offsets[g] + np.searchsorted(cum[g], u, side="right").clip(0, ARITIES[g] - 1)

    margins = np.empty(n)  # each row's, from its last draw
    pending = np.arange(n)
    draw(pending)
    for _ in range(200):
        margins[pending] = m = w * x_true[cols[pending]].sum(axis=1)
        bad = pending[np.abs(m) < gap]
        if bad.size == 0:
            break
        draw(bad)
        pending = bad
    else:
        raise RuntimeError("margin rejection sampling did not converge")
    labels = np.where(margins >= 0, 1.0, -1.0)
    # handed over as views of bytes, which Dataset keeps without a copy
    indptr = np.frombuffer(np.arange(0, cols.size + 1, groups).tobytes(), dtype=np.int64)
    values = np.frombuffer(np.float64(w).tobytes() * cols.size, dtype=np.float64)
    return Dataset(indptr, np.frombuffer(cols.tobytes(), dtype=np.int64), values, labels, d)


def blobs_2d(seed=0, n=400, flip=0.08):
    """Two Gaussian classes in the plane; labels flipped at rate `flip`."""
    rng = RandomSource(seed, stream=21)
    half = n // 2
    pts = np.empty((n, 2))
    labels = np.empty(n)
    pts[:half] = np.array([1.5, 1.0]) + 0.9 * rng.normal(2 * half).reshape(half, 2)
    labels[:half] = 1.0
    pts[half:] = np.array([-1.3, -0.9]) + 0.9 * rng.normal(2 * (n - half)).reshape(n - half, 2)
    labels[half:] = -1.0
    flips = rng.random(n) < flip
    labels[flips] *= -1.0
    return _dense(pts, labels)


def sparse_gaussian(seed=0, n=500, d=200, density=0.02):
    """Sparse Gaussian design with planted logistic labels."""
    rng = RandomSource(seed, stream=13)
    x_true = rng.normal(d) / np.sqrt(max(1.0, d * density))
    col_indices, col_values = [], []
    margins = np.empty(n)
    for i in range(n):
        mask = rng.random(d) < density
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            idx = np.array([int(rng.integers(d))])
        vals = rng.normal(idx.size)
        col_indices.append(idx)
        col_values.append(vals)
        margins[i] = float(np.dot(vals, x_true[idx]))
    prob = 1.0 / (1.0 + np.exp(-margins))
    labels = np.where(rng.random(n) < prob, 1.0, -1.0)
    indptr = np.cumsum([0] + [idx.size for idx in col_indices])
    return Dataset(indptr, np.concatenate(col_indices), np.concatenate(col_values), labels, d)


def toy_classification(seed=0, n=50, d=10):
    """Dense Gaussian rows, labels from a planted logistic model."""
    rng = RandomSource(seed, stream=5)
    a = rng.normal(n * d).reshape(n, d) / np.sqrt(d)
    x_true = rng.normal(d) * 1.5
    margins = a @ x_true
    prob = 1.0 / (1.0 + np.exp(-margins))
    labels = np.where(rng.random(n) < prob, 1.0, -1.0)
    return _dense(a, labels)


def toy_regression(seed=0, n=40, d=12, k=4, noise=0.05):
    """Dense rows with a k-sparse planted coefficient vector."""
    rng = RandomSource(seed, stream=9)
    a = rng.normal(n * d).reshape(n, d) / np.sqrt(d)
    x_true = np.zeros(d)
    support = np.argsort(rng.random(d))[:k]
    x_true[support] = rng.normal(k) * 2.0
    y = a @ x_true + noise * rng.normal(n)
    return _dense(a, y)


def tiny(seed=0, n=6, d=5):
    """Minimal dense problem for exhaustive mini-batch enumeration."""
    rng = RandomSource(seed, stream=3)
    a = rng.normal(n * d).reshape(n, d)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return _dense(a, labels)


_SYNTH = {
    "mushrooms": mushrooms_like,
    "blobs2d": blobs_2d,
    "sparse": sparse_gaussian,
    "toyclass": toy_classification,
    "toyreg": toy_regression,
    "tiny": tiny,
}


def synth(name):
    """Resolve "synth:<name>[:seed]" pseudo-paths used by the CLI."""
    parts = name.split(":")
    key = parts[0]
    if key not in _SYNTH:
        raise ValueError("unknown synthetic dataset %r (valid: %s)" % (key, ", ".join(sorted(_SYNTH))))
    seed = int(parts[1]) if len(parts) > 1 else 0
    return _SYNTH[key](seed=seed)


def load_dataset(path, dim=None):
    """Load a LIBSVM file, or a synthetic problem via "synth:<name>[:seed]";
    dim overrides a file's feature count and is refused for synthetic data."""
    if path.startswith("synth:"):
        if dim is not None:
            raise ValueError("dim applies to LIBSVM files only, not to %s" % path)
        return synth(path[len("synth:"):])
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh, dim=dim)
