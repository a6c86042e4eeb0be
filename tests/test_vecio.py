import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vropt import vecio


def test_vector_round_trip(tmp_path):
    p = str(tmp_path / "a.vec")
    x = np.array([1.5, -2.25, 0.0, 1e-300])
    vecio.write_vectors(p, x)
    back = vecio.read_vector(p)
    assert np.array_equal(back, x)


@settings(max_examples=40, deadline=None)
@given(vals=st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=32))
def test_round_trip_exact_property(tmp_path_factory, vals):
    p = str(tmp_path_factory.mktemp("v") / "x.vec")
    x = np.array(vals)
    vecio.write_vectors(p, x)
    assert np.array_equal(vecio.read_vector(p), x)


def test_corrupt_files(tmp_path):
    p = str(tmp_path / "bad.vec")
    with open(p, "wb") as fh:
        fh.write(b"notavec")
    with pytest.raises(ValueError):
        vecio.read_vector(p)
    q = str(tmp_path / "trunc.vec")
    x = np.ones(8)
    vecio.write_vectors(q, x)
    with open(q, "rb") as fh:
        payload = fh.read()
    for bad in (payload[:-9], payload + b"\0" * 8,
                payload[:8] + (2).to_bytes(4, "little") + (4).to_bytes(4, "little") + payload[16:]):
        with open(q, "wb") as fh:
            fh.write(bad)  # short, long, and two rows of four
        with pytest.raises(ValueError):
            vecio.read_vector(q)
    with pytest.raises(ValueError):
        vecio.write_vectors(q, np.ones((2, 4)))


def test_scalar_text(tmp_path):
    p = str(tmp_path / "f.txt")
    vecio.write_scalar_text(p, 0.1 + 0.2)
    assert vecio.read_scalar_text(p) == 0.1 + 0.2


def test_atomic_write_leaves_no_temp(tmp_path):
    p = str(tmp_path / "out.txt")
    vecio.atomic_write_text(p, "hello\n")
    vecio.atomic_write_text(p, "world\n")  # overwrite in place
    with open(p) as fh:
        assert fh.read() == "world\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_reference_pair(tmp_path, monkeypatch):
    # one pair layout for solve-ref's --out and the cache; a missing pair
    # fails on its f* file, before read_vector is called
    prefix = str(tmp_path / "ref")
    x, f = np.array([0.25, -1.0 / 3.0]), 0.1 + 0.2
    vecio.write_reference(prefix, (x, f))
    assert sorted(os.listdir(tmp_path)) == ["ref.fstar.txt", "ref.xstar.vec"]
    back, f_back = vecio.read_reference(prefix)
    assert np.array_equal(back, x) and f_back == f
    assert (tmp_path / "ref.fstar.txt").read_text() == "%.17g\n" % f
    monkeypatch.setattr(vecio, "read_vector", lambda p: pytest.fail("read a vector of no pair"))
    with pytest.raises(FileNotFoundError):
        vecio.read_reference(str(tmp_path / "none"))


def test_cached(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("VROPT_CACHE", str(cache))
    made = []

    def make():
        made.append(1)
        return np.array([1.5, 2.5])

    def get():
        return vecio.cached("e.vec", vecio.read_vector, make, vecio.write_vectors)

    assert get().tolist() == [1.5, 2.5] and len(made) == 1  # a miss makes and writes
    assert get().tolist() == [1.5, 2.5] and len(made) == 1  # a hit reads
    (cache / "e.vec").write_bytes(b"garbage")
    assert get().tolist() == [1.5, 2.5] and len(made) == 2  # a bad entry is made again
    assert get().tolist() == [1.5, 2.5] and len(made) == 2  # and written again
    with pytest.raises(ZeroDivisionError):  # make's own errors propagate, and nothing is written
        vecio.cached("f.vec", vecio.read_vector, lambda: 1 / 0, vecio.write_vectors)
    assert os.listdir(cache) == ["e.vec"]
    monkeypatch.setenv("VROPT_CACHE", str(tmp_path / "file"))
    (tmp_path / "file").write_text("not a directory")
    assert get().tolist() == [1.5, 2.5] and len(made) == 3  # an unwritable cache costs the make
    assert (tmp_path / "file").read_text() == "not a directory"
