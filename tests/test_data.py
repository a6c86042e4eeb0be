import hashlib
import io
import os
import struct
import subprocess
import sys
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vropt import bench_data, data
from vropt.bench_data import load_dataset
from vropt.data import Dataset, ParseError, RandomSource, dataset_hash, parse_libsvm, write_libsvm


def test_dataset_validation():
    ds = Dataset([0, 2], [0, 3], [1.0, -2.0], [1.0], 5)
    assert (ds.n, ds.d) == (1, 5)
    # only steps inside a row must rise; rows may be empty
    ds = Dataset([0, 2, 2, 4], [1, 3, 0, 3], [1.0] * 4, [1.0, -1.0, 1.0], 5)
    assert np.diff(ds.indptr).tolist() == [2, 0, 2]
    bad = [
        ([0, 2], [3, 0], [1.0, 1.0]),  # not increasing
        ([0, 2], [0, 0], [1.0, 1.0]),  # duplicate
        ([0, 2], [0, 5], [1.0, 1.0]),  # out of range
        ([0, 2], [-1, 0], [1.0, 1.0]),  # negative index
        ([0, 1], [0], [1.0, 2.0]),  # length mismatch
        ([1, 2], [0, 1], [1.0, 1.0]),  # indptr does not start at 0
        ([0, 1], [0, 1], [1.0, 1.0]),  # indptr does not end at nnz
        ([0, 2, 1, 2], [0, 1], [1.0, 1.0]),  # indptr falls
        ([[0, 2]], [0, 1], [1.0, 1.0]),  # indptr not 1-d
    ]
    for indptr, idx, vals in bad:
        with pytest.raises(ValueError):
            Dataset(indptr, idx, vals, [1.0] * (len(indptr) - 1), 5)
    with pytest.raises(ValueError):
        Dataset([0], [], [], [], 5)  # no rows
    with pytest.raises(ValueError):
        Dataset([0, 1], [0], [1.0], [1.0, -1.0], 5)  # labels length


def test_stored_zeros_dropped():
    ds = parse_libsvm("1 1:0 2:3")
    assert (ds.n, ds.d) == (1, 2)
    assert ds.indptr.tolist() == [0, 1]
    assert ds.row(0)[0].tolist() == [1] and ds.row(0)[1].tolist() == [3.0]
    ds = Dataset([0, 2, 3, 4], [0, 2, 1, 0], [0.0, 2.0, -0.0, 5.0], [1.0, 1.0, -1.0], 3)
    assert ds.indptr.tolist() == [0, 1, 1, 2]
    assert ds.col_indices.tolist() == [2, 0] and ds.col_values.tolist() == [2.0, 5.0]


def test_row_views():
    ds = parse_libsvm("1 1:2 3:4\n-1 2:-1\n")
    idx, vals = ds.row(1)
    assert idx.tolist() == [1] and vals.tolist() == [-1.0]
    assert np.shares_memory(vals, ds.col_values) and not vals.flags.writeable
    for i in (-1, ds.n):
        with pytest.raises(IndexError):
            ds.row(i)
    assert [r.indices.tolist() for r in ds.rows] == [[0, 2], [1]]


def test_parse_basic():
    text = "+1 1:0.5 3:2\n-1 2:1\n"
    ds = parse_libsvm(io.StringIO(text))
    assert ds.n == 2 and ds.d == 3
    assert ds.labels.tolist() == [1.0, -1.0]
    # libsvm indices are 1-based
    assert ds.row(0)[0].tolist() == [0, 2]
    assert ds.row(0)[1].tolist() == [0.5, 2.0]


def test_parse_dim_override_and_errors():
    ds = parse_libsvm(io.StringIO("1 1:1\n"), dim=7)
    assert ds.d == 7
    with pytest.raises(ParseError):
        parse_libsvm(io.StringIO("1 0:1\n"))  # sub-1 index
    with pytest.raises(ParseError):
        parse_libsvm(io.StringIO("1 2:1 2:2\n"))  # non-increasing
    with pytest.raises(ParseError):
        parse_libsvm(io.StringIO("x 1:1\n"))  # bad label
    with pytest.raises(ParseError):
        parse_libsvm(io.StringIO("1 1:one\n"))  # bad value


@pytest.mark.parametrize("text, line", [
    ("1 1:0.5 2:nan\n-1 2:1\n1 1:inf\n", 1),
    ("1 1:0.5\n-1 2:1\n1 1:inf\n", 3),
    ("1 1:0.5\n# note\n-1 2:-Infinity\n", 3),
    ("nan 1:1\n", 1),
    ("1 1:1\n-inf 2:1\n", 2),
])
def test_parse_rejects_non_finite(text, line):
    with pytest.raises(ParseError, match="line %d: non-finite" % line):
        parse_libsvm(text)


def test_dataset_rejects_non_finite():
    for vals, labels in (([1.0, np.nan], [1.0]), ([np.inf, 1.0], [1.0]),
                         ([1.0, 1.0], [np.nan]), ([1.0, 1.0], [-np.inf])):
        with pytest.raises(ValueError, match="finite"):
            Dataset([0, 2], [0, 1], vals, labels, 2)


def test_csr_file_round_trip(tmp_path):
    ds = parse_libsvm("1 1:0.25 4:-3\n-1\n1 2:1.5\n", dim=6)
    path = str(tmp_path / "ds.csr")
    data.write_csr(path, ds)
    with open(path, "rb") as fh:  # the file holds the bytes dataset_hash digests
        assert hashlib.sha256(fh.read()).hexdigest() == dataset_hash(ds)
    again = data.read_csr(path)
    assert (again.n, again.d) == (ds.n, ds.d)
    for name in ("indptr", "col_indices", "col_values", "labels"):
        assert np.array_equal(getattr(again, name), getattr(ds, name)), name
    # the arrays are read-only views of the bytes read, taken without a copy
    assert all(isinstance(a.base, bytes) for a in (again.indptr, again.col_indices, again.col_values))
    raw = (tmp_path / "ds.csr").read_bytes()
    for bad in (raw[:-1], raw + b"\0" * 8, raw[:20], b""):
        (tmp_path / "bad.csr").write_bytes(bad)
        with pytest.raises(ValueError):
            data.read_csr(str(tmp_path / "bad.csr"))
    # a well-sized file whose arrays are no dataset fails validation
    (tmp_path / "bad.csr").write_bytes(raw[:24] + struct.pack("<q", 1) + raw[32:])
    with pytest.raises(ValueError, match="indptr"):
        data.read_csr(str(tmp_path / "bad.csr"))


def test_round_trip():
    text = "1 1:0.25 4:-3\n-1 2:1.5\n1\n"
    ds = parse_libsvm(io.StringIO(text))
    again = parse_libsvm(io.StringIO(write_libsvm(ds)))
    assert again.n == ds.n and again.d == ds.d
    assert again.indptr.tolist() == ds.indptr.tolist()
    assert again.col_indices.tolist() == ds.col_indices.tolist()
    assert again.col_values.tolist() == ds.col_values.tolist()


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from([-1.0, 1.0]),
        st.dictionaries(st.integers(0, 20), st.floats(-100, 100,
                        allow_nan=False, allow_infinity=False).filter(lambda v: v != 0),
                        max_size=6),
    ),
    min_size=1, max_size=8,
))
def test_round_trip_property(rows):
    d = 21
    indptr = np.cumsum([0] + [len(cols) for _, cols in rows])
    idx = [k for _, cols in rows for k in sorted(cols)]
    vals = [cols[k] for _, cols in rows for k in sorted(cols)]
    ds = Dataset(indptr, idx, vals, [lab for lab, _ in rows], d)
    again = parse_libsvm(io.StringIO(write_libsvm(ds)), dim=d)
    assert again.labels.tolist() == ds.labels.tolist()
    assert again.indptr.tolist() == ds.indptr.tolist()
    assert again.col_indices.tolist() == ds.col_indices.tolist()
    assert np.array_equal(again.col_values, ds.col_values)


def test_csr_matches_rows():
    ds = parse_libsvm(io.StringIO("1 1:2 3:4\n-1 2:-1\n1 1:1 2:1 3:1\n"))
    dense = np.zeros((3, 3))
    for i in range(ds.n):
        idx, vals = ds.row(i)
        dense[i, idx] = vals
    assert dense.tolist() == [[2.0, 0.0, 4.0], [0.0, -1.0, 0.0], [1.0, 1.0, 1.0]]
    x = np.array([1.0, -2.0, 0.5])
    s = np.array([0.5, -3.0, 2.0])
    assert np.allclose(ds.margins(x), dense @ x)
    assert np.allclose(ds.weighted_sum(s), dense.T @ s)
    with pytest.raises(ValueError, match="dimension mismatch"):
        ds.margins(np.ones(4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        ds.weighted_sum(np.ones((3, 1)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        ds.margins(1.0)


def _random_csr(seed, n, d, nnz):
    """CSR arrays of an n x d matrix with nnz nonzeros at random places, values
    spread over many magnitudes and both signs."""
    rng = np.random.default_rng(seed)
    flat = np.sort(rng.choice(n * d, size=nnz, replace=False))
    rows, cols = np.divmod(flat, d)
    vals = rng.choice([-1.0, 1.0], nnz) * 10.0 ** rng.uniform(-8, 8, nnz)
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n)))), cols, vals


def _layout(v, layout):
    """v (1-d float64) as the operand layout under test: the array itself,
    a reversed (negative-stride) view, a column of a 2-d array (stride 3
    elements), or a list."""
    if layout == "reversed":
        return v[::-1].copy()[::-1]
    if layout == "column":
        m = np.zeros((v.size, 3))
        m[:, 1] = v
        return m[:, 1]
    return v.tolist() if layout == "list" else v


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 30), st.floats(0.0, 1.0),
       st.booleans(), st.booleans(), st.sampled_from(["random", "zero", "signed_zero"]),
       st.sampled_from(["contiguous", "reversed", "column", "list"]))
def test_products_match_scipy_bit_for_bit(seed, n, d, density, big, gaps, operand, layout):
    # A x and A^T s are scipy.sparse's byte for byte (signs of zero
    # included), as float64 (also for nnz = 0): random small matrices, or
    # (big) 80 x 100 ones of 3,001 nonzeros, with unused columns and (gaps)
    # runs of empty rows; the operand contiguous, strided or a list
    from scipy import sparse

    n, d, nnz = (80, 100, 3001) if big else (n, d, int(density * n * d))
    indptr, cols, vals = _random_csr(seed, n, d, nnz)
    if gaps:
        lens = np.diff(indptr) * (np.random.default_rng(seed).random(n) < 0.5)
        keep = np.repeat(lens > 0, np.diff(indptr))
        indptr, cols, vals = np.concatenate(([0], np.cumsum(lens))), cols[keep], vals[keep]
    a = sparse.csr_matrix((vals, cols, indptr), shape=(n, d))
    rng = np.random.default_rng(seed + 1)
    x, s = rng.normal(size=d), rng.normal(size=n)
    if operand == "zero":
        x, s = np.zeros(d), np.zeros(n)
    elif operand == "signed_zero":
        x, s = np.where(rng.random(d) < 0.5, -0.0, x), -np.zeros(n)
    want = (a @ x).tobytes(), (a.T @ s).tobytes()
    ds = Dataset(indptr, cols, vals, np.ones(n), d)
    for _ in range(2):
        got = ds.margins(_layout(x, layout)), ds.weighted_sum(_layout(s, layout))
        assert [g.dtype for g in got] == [np.float64] * 2
        assert tuple(g.tobytes() for g in got) == want


def _base_chain(a):
    """a and every object under it, through ndarray.base and memoryview.obj."""
    chain = [a]
    while isinstance(chain[-1], (np.ndarray, memoryview)):
        under = chain[-1].base if isinstance(chain[-1], np.ndarray) else chain[-1].obj
        if under is None:
            break
        chain.append(under)
    return chain


def test_dataset_arrays_view_immutable_bytes_on_every_path(tmp_path):
    # the products read x[col_indices[k]] with no bounds check, so on every
    # path into a Dataset each array must end, down its base chain, in an
    # immutable bytes object, with nothing on the way that can be written
    # or made writable
    text = "1 1:0.5 3:-2e-8\n-1 2:1e8\n1\n1 1:3 2:0.25 3:7 4:0\n"
    path = str(tmp_path / "d.csr")
    data.write_csr(path, parse_libsvm(text))
    caller = [*_random_csr(5, 40, 30, 300), np.ones(40)]
    views = [a.view() for a in caller]
    for v in views:
        v.setflags(write=False)
    built = {"parse_libsvm": parse_libsvm(text), "read_csr": data.read_csr(path),
             "writable caller arrays": Dataset(*caller, 30), "read-only views of them": Dataset(*views, 30),
             "lists, a stored zero": Dataset([0, 2, 3], [0, 4, 1], [1.0, 0.0, 2.0], [1.0, -1.0], 5)}
    built.update((name, gen()) for name, gen in sorted(bench_data._SYNTH.items()))
    for name, ds in built.items():
        for a in (ds.indptr, ds.col_indices, ds.col_values, ds.labels):
            chain = _base_chain(a)
            assert type(chain[-1]) is bytes, (name, chain)
            for obj in chain:
                assert not isinstance(obj, (array, bytearray)), (name, obj)
                assert not (isinstance(obj, memoryview) and not obj.readonly), name
                if isinstance(obj, np.ndarray):
                    with pytest.raises(ValueError):
                        obj.setflags(write=True)
    # a cache hit copies nothing: all four arrays view the file's bytes
    csr = built["read_csr"]
    raw = csr.indptr.base
    assert len(raw) == os.path.getsize(path)
    assert all(a.base is raw for a in (csr.col_indices, csr.col_values, csr.labels))


def test_products_hold_after_the_caller_writes_its_arrays():
    # the products read x[col_indices[k]] with no bounds check, so the
    # constructor copies arrays handed over writable: an out-of-range index
    # written into the caller's col_indices, or a moved indptr entry, changes
    # neither product nor the digest; views of bytes are kept
    indptr, cols, vals = _random_csr(5, 40, 30, 300)
    ds = Dataset(indptr, cols, vals, np.ones(40), 30)
    rng = np.random.default_rng(6)
    x, s = rng.normal(size=30), rng.normal(size=40)
    before = ds.margins(x).tobytes(), ds.weighted_sum(s).tobytes(), dataset_hash(ds)
    for a in (ds.indptr, ds.col_indices, ds.col_values, ds.labels):
        assert not a.flags.writeable
    assert not any(np.shares_memory(a, b) for a, b in ((ds.indptr, indptr), (ds.col_indices, cols),
                                                       (ds.col_values, vals)))
    cols[0] = 30  # d: one past the end of x (further could fault rather than fail)
    indptr[5] = indptr[-1]
    vals[:] = np.nan
    ds._hash = None  # digest again, from the arrays
    assert (ds.margins(x).tobytes(), ds.weighted_sum(s).tobytes(), dataset_hash(ds)) == before
    # a read-only view of an array the caller can still write is copied too
    views = [a.view() for a in _random_csr(5, 40, 30, 300)]
    for v in views:
        v.setflags(write=False)
    ds = Dataset(*views, np.ones(40), 30)
    assert not any(np.shares_memory(a, v) for a, v in zip((ds.indptr, ds.col_indices, ds.col_values), views))
    kept = [np.frombuffer(a.tobytes(), dtype=a.dtype) for a in (*_random_csr(5, 40, 30, 300), np.ones(40))]
    ds = Dataset(*kept, 30)
    assert all(a is b for a, b in zip((ds.indptr, ds.col_indices, ds.col_values, ds.labels), kept))


def test_products_bit_equal_in_either_import_order():
    # the loops are loaded without importing scipy.sparse; a process that
    # imports scipy.sparse afterwards, or did before, gets scipy's bits
    code = """
import sys
import numpy as np
first = sys.argv[1] == "scipy"
if first:
    import scipy.sparse
from vropt import data
assert first == (data._sparsetools is sys.modules.get("scipy.sparse._sparsetools"))
ds = data.parse_libsvm("1 1:0.5 3:-2e-8\\n-1 2:1e8\\n1\\n1 1:3 2:0.25 3:7\\n")
rng = np.random.default_rng(0)
x, s = rng.normal(size=3), rng.normal(size=4)
got = ds.margins(x).tobytes(), ds.weighted_sum(s).tobytes()
from scipy import sparse
a = sparse.csr_matrix((ds.col_values, ds.col_indices, ds.indptr), shape=(ds.n, ds.d))
print(got == ((a @ x).tobytes(), (a.T @ s).tobytes()), ds.margins(x).tobytes() == got[0])
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (os.path.dirname(os.path.dirname(data.__file__)), os.environ.get("PYTHONPATH")))))
    for order in ("vropt", "scipy"):
        proc = subprocess.run([sys.executable, "-c", code, order], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (0, "True True\n"), (order, proc.stderr[-2000:])


def test_large_products_and_validation_make_no_nnz_sized_temporary():
    # 2^19 entries, rows of 32: the constructor checks index order with bool
    # temporaries, takes views of bytes without a copy and copies writable
    # arrays once, and each product allocates its output only, so neither
    # peaks near one nnz-sized int64 or float64 array (4 MiB) above what it
    # keeps; the products keep scipy's bits
    from scipy import sparse

    n, k, d = 1 << 14, 32, 1 << 12
    nnz = n * k
    rng = np.random.default_rng(0)
    # k strictly increasing columns in [0, d) per row
    cols = (np.sort(rng.integers(0, d - k + 1, size=(n, k)), axis=1) + np.arange(k)).ravel()
    vals = rng.normal(size=nnz)
    indptr = np.arange(n + 1) * k
    labels = np.ones(n)
    writable = indptr, cols, vals, labels
    kept = [np.frombuffer(a.tobytes(), dtype=a.dtype) for a in writable]
    tracemalloc.start()
    try:
        built = []
        for arrays in (writable, kept):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            ds = Dataset(*arrays, d)
            built.append(tracemalloc.get_traced_memory()[1] - base)
        x, s = rng.normal(size=d), rng.normal(size=n)
        peaks = []
        for product, v, size in ((ds.margins, x, n), (ds.weighted_sum, s, d)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            product(v)
            peaks.append(tracemalloc.get_traced_memory()[1] - base - 8 * size)
    finally:
        tracemalloc.stop()
    assert built[0] <= 18 * nnz + 16 * n + 64_000, built  # one copy of each array, two bool arrays
    assert built[1] <= 2 * nnz + 64_000, built  # two bool arrays
    assert max(peaks) <= 64_000, peaks
    a = sparse.csr_matrix((vals, cols, indptr), shape=(n, d))
    assert ds.margins(x).tobytes() == (a @ x).tobytes()
    assert ds.weighted_sum(s).tobytes() == (a.T @ s).tobytes()


def test_random_source_streams():
    a = RandomSource(7)
    b = RandomSource(7)
    assert [a.integers(100) for _ in range(5)] == [b.integers(100) for _ in range(5)]
    assert RandomSource(7, stream=1).integers(10**9) != RandomSource(7, stream=2).integers(10**9)


def test_dataset_hash_sensitivity():
    ds1 = parse_libsvm(io.StringIO("1 1:1\n-1 2:1\n"))
    ds2 = parse_libsvm(io.StringIO("1 1:1\n-1 2:1\n"))
    ds3 = parse_libsvm(io.StringIO("1 1:1\n-1 2:1.0000001\n"))
    assert dataset_hash(ds1) == dataset_hash(ds2)
    assert dataset_hash(ds1) != dataset_hash(ds3)


def test_dataset_hash_pinned():
    """dataset_hash keys VROPT_CACHE entries; these digests must not move."""
    pinned = {
        "synth:mushrooms:0": "8a66dbf0f2522406823dd4f77bfa8550cbdf8ce22f2ed9c81e6f946d1ccf9571",
        "synth:sparse:0": "765c53e0a01d648228766b18a93211855a307d9bee7b9b1d196d9a60c2883f8d",
        "synth:tiny": "d6a01eb61b940095c9024d98993e279ed90b3a5ed9e1c2765ae09f217b88e019",
    }
    for path, digest in pinned.items():
        assert dataset_hash(load_dataset(path)) == digest, path
    text = "# header\n+1 1:0.5 3:2 4:0\n-1 2:-1.25e-3 # tail\n0\n1 4:7\n"
    ds = parse_libsvm(io.StringIO(text))
    assert dataset_hash(ds) == (
        "236756b6fddc1fda6bd65f53155a530c13fa6f54164a41533e2bcb9d0d0735a9")
    # the digest is over (n, d, nnz) and the raw arrays, all little-endian
    raw = struct.pack("<3q", 4, 4, 4) + struct.pack("<5q", 0, 2, 3, 3, 4)
    raw += struct.pack("<4q", 0, 2, 1, 3) + struct.pack("<4d", 0.5, 2, -1.25e-3, 7)
    raw += struct.pack("<4d", 1, -1, 0, 1)
    assert dataset_hash(ds) == hashlib.sha256(raw).hexdigest()


def test_dataset_hash_once(monkeypatch):
    # a Dataset is immutable, so its digest is computed once and kept
    ds = load_dataset("synth:tiny")
    first = dataset_hash(ds)
    monkeypatch.setattr(data.hashlib, "sha256", lambda *a: pytest.fail("hashed twice"))
    assert dataset_hash(ds) == first


def test_mushrooms_env_file(tmp_path, monkeypatch):
    path = tmp_path / "mush.svm"
    path.write_text("1 1:1 3:0.5\n-1 2:2\n")
    monkeypatch.setenv("VROPT_MUSHROOMS", str(path))
    for ds in (bench_data.mushrooms_like(), load_dataset("synth:mushrooms")):
        assert (ds.n, ds.d) == (2, 3)
        assert ds.labels.tolist() == [1.0, -1.0]
        assert ds.col_indices.tolist() == [0, 2, 1]
