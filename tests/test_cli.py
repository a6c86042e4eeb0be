import os
import subprocess
import sys

import numpy as np
import pytest

from vropt import cli, diag, objectives
from vropt.bench_data import load_dataset, sparse_gaussian
from vropt.data import dataset_hash, parse_libsvm, write_libsvm
from vropt.diag import read_trace


def _run(*argv):
    return cli.main(list(argv))


def test_run_writes_deterministic_trace(tmp_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    base = ["run", "--data", "synth:toyclass", "--l2", "0.1",
            "--method", "saga", "--epochs", "3", "--seed", "1"]
    assert _run(*base, "--out", out1) == 0
    assert _run(*base, "--out", out2) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()
    recs, meta = read_trace(out1)
    assert meta["method"] == "saga"
    assert meta["gamma"]  # resolved default goes into the header
    assert len(recs) == 4
    assert all(r.time_s is None for r in recs)


def test_run_stdout_when_no_out(capsys):
    assert _run("run", "--data", "synth:tiny", "--l2", "0.1",
                "--method", "gd", "--epochs", "1") == 0
    text = capsys.readouterr().out
    recs, meta = read_trace(text)
    assert len(recs) == 2 and meta["method"] == "gd"


def test_run_times_flag(tmp_path):
    out = str(tmp_path / "t.csv")
    assert _run("run", "--data", "synth:tiny", "--l2", "0.1", "--method", "gd",
                "--epochs", "1", "--out", out, "--times") == 0
    recs, _ = read_trace(out)
    assert any(r.time_s is not None for r in recs)


def test_epochs_zero_row(tmp_path):
    out = str(tmp_path / "z.csv")
    assert _run("run", "--data", "synth:tiny", "--l2", "0.1",
                "--method", "saga", "--epochs", "0", "--out", out) == 0
    recs, _ = read_trace(out)
    assert len(recs) == 1 and recs[0].grad_evals == 0


def test_usage_exit_codes(capsys, tmp_path):
    assert _run("run", "--data", "synth:tiny", "--method", "sgd_star",
                "--gamma", "0.1") == 1  # no --xstar
    assert _run("run", "--data", "synth:nothere", "--method", "gd") == 1
    assert _run("run", "--data", "synth:tiny", "--method", "sgd",
                "--gamma", "0.1", "--stop", "loss:1") == 1
    assert _run("run", "--data", "synth:tiny", "--method", "sgd") == 1  # no gamma
    for flag, value in (("--epochs", "inf"), ("--epochs", "nan"), ("--warm-start-sgd-epochs", "inf")):
        out = tmp_path / "never.csv"
        assert _run("run", "--data", "synth:tiny", "--l2", "0.1", "--method", "saga",
                    flag, value, "--out", str(out)) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        _run("run", "--data", "synth:tiny", "--method", "nope")
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        _run("run", "--data", "synth:tiny", "--method", "sgd",
             "--gamma", "0.1", "--gamma-policy", "theory")
    assert exc.value.code == 1
    capsys.readouterr()


def test_io_exit_codes(tmp_path, capsys):
    assert _run("run", "--data", "/definitely/missing.libsvm", "--method", "gd") == 2
    err = capsys.readouterr().err
    assert "/definitely/missing.libsvm" in err
    out = str(tmp_path / "no" / "such" / "dir" / "t.csv")
    assert _run("run", "--data", "synth:tiny", "--l2", "0.1", "--method", "gd",
                "--epochs", "1", "--out", out) == 2


def test_divergence_exit_code(tmp_path, capsys):
    out = str(tmp_path / "d.csv")
    rc = _run("run", "--data", "synth:toyclass", "--l2", "0.1", "--method", "sgd",
              "--gamma", "1e6", "--epochs", "5", "--out", out)
    assert rc == 3
    recs, meta = read_trace(out)
    assert "diverged" in meta
    assert len(recs) >= 1


def test_solve_ref_idempotent(tmp_path, monkeypatch):
    monkeypatch.setenv("VROPT_CACHE", str(tmp_path / "cache"))
    prefix = str(tmp_path / "ref")
    args = ["solve-ref", "--data", "synth:toyclass", "--l2", "0.1", "--out", prefix]
    assert _run(*args) == 0
    with open(prefix + ".xstar.vec", "rb") as fh:
        first = fh.read()
    assert _run(*args) == 0  # cache hit, same bytes
    with open(prefix + ".xstar.vec", "rb") as fh:
        assert fh.read() == first
    assert os.path.exists(prefix + ".fstar.txt")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_solve_ref_bad_tol(tol, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VROPT_CACHE", str(tmp_path / "cache"))
    prefix = str(tmp_path / "ref")
    assert _run("solve-ref", "--data", "synth:tiny", "--l2", "0.1", "--tol", tol,
                "--out", prefix) == cli.EXIT_IO
    assert "reference solve failed" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_compare_grid(tmp_path):
    outdir = str(tmp_path / "grid")
    spec = tmp_path / "cmp.spec"
    spec.write_text(
        "data = synth:toyclass\nloss = logistic\nl2 = 0.1\nepochs = 3\n"
        "seeds = 0 1\nout = %s\n\n[method]\nname = gd\n\n[method]\nname = saga\n"
        % outdir
    )
    assert _run("compare", str(spec)) == 0
    names = sorted(os.listdir(outdir))
    assert names == ["gd_seed0.csv", "gd_seed1.csv", "saga_seed0.csv",
                     "saga_seed1.csv", "summary.csv"]
    with open(os.path.join(outdir, "summary.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("label,method,seed")
    assert len(lines) == 5
    # subopt column filled from the internal reference solve
    assert all(line.split(",")[4] for line in lines[1:])


def test_compare_spec_errors(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("data = synth:tiny\nout = o\n[method]\nname = nope\n")
    assert _run("compare", str(bad)) == 1
    assert "valid:" in capsys.readouterr().err
    empty = tmp_path / "empty.spec"
    empty.write_text("data = synth:tiny\nout = o\n")
    assert _run("compare", str(empty)) == 1
    assert _run("compare", str(tmp_path / "missing.spec")) == 2
    dup = tmp_path / "dup.spec"
    dup.write_text("data = synth:tiny\nout = o\n[method]\nname = gd\n[method]\nname = gd\n")
    assert _run("compare", str(dup)) == 1
    assert "label" in capsys.readouterr().err
    for key in ("batch", "inner_t"):
        zero = tmp_path / ("zero_%s.spec" % key)
        zero.write_text("data = synth:tiny\nout = %s\n[method]\nname = gd\n"
                        "[method]\nname = svrg\n%s = 0\n" % (tmp_path / "zero", key))
        assert _run("compare", str(zero)) == 1
        assert "positive integer" in capsys.readouterr().err
        assert not (tmp_path / "zero").exists()  # rejected before any run
    for line, entry, msg in (("seeds = 0 -1", "", "nonnegative"), ("checkpoint_every = 0", "", "positive"),
                             ("checkpoint_every = -1", "", "positive"),
                             ("checkpoint_every = inf", "", "finite"), ("epochs = inf", "", "finite"),
                             ("epochs = nan", "", "finite"), ("epochs = -1", "", "nonnegative"),
                             ("", "warm_start_sgd_epochs = inf", "finite"),
                             ("", "warm_start_sgd_epochs = nan", "finite")):
        spec = tmp_path / "neg.spec"
        spec.write_text("data = synth:tiny\nout = %s\n%s\n[method]\nname = saga\n%s\n"
                        % (tmp_path / "neg", line, entry))
        assert _run("compare", str(spec)) == 1
        assert msg in capsys.readouterr().err
        assert not (tmp_path / "neg").exists()  # no partial grid


def test_dim_rejected_for_synthetic_data(tmp_path, capsys):
    # a synthetic problem fixes its own d; a dim would only be echoed
    out = tmp_path / "t.csv"
    assert _run("run", "--data", "synth:tiny", "--dim", "50", "--l2", "0.1",
                "--method", "gd", "--epochs", "1", "--out", str(out)) == 1
    assert "dim" in capsys.readouterr().err
    assert not out.exists()
    prefix = tmp_path / "tr"
    assert _run("trace2d", "--data", "synth:blobs2d", "--dim", "2", "--l2", "0.1",
                "--method", "sag", "--gamma", "0.1", "--out", str(prefix)) == 1
    assert "dim" in capsys.readouterr().err
    assert not list(tmp_path.glob("tr*"))
    spec = tmp_path / "dim.spec"
    spec.write_text("data = synth:tiny\ndim = 50\nout = %s\n[method]\nname = gd\n"
                    % (tmp_path / "grid"))
    assert _run("compare", str(spec)) == 1
    assert "dim" in capsys.readouterr().err
    assert not (tmp_path / "grid").exists()
    # on a LIBSVM file dim still widens d and reaches the header
    data = tmp_path / "d.svm"
    data.write_text("1 1:1 2:-1\n-1 2:0.5\n")
    assert _run("run", "--data", str(data), "--dim", "7", "--l2", "0.1",
                "--method", "gd", "--epochs", "1", "--out", str(out)) == 0
    assert read_trace(str(out))[1]["dim"] == "7"


def test_trace2d(tmp_path, capsys):
    prefix = str(tmp_path / "tr")
    rc = _run("trace2d", "--data", "synth:blobs2d", "--l2", "0.1", "--method", "sag",
              "--gamma-policy", "theory", "--epochs", "2", "--out", prefix,
              "--grid", "11")
    assert rc == 0
    with open(prefix + ".iterates.csv") as fh:
        ilines = fh.read().splitlines()
    body = [l for l in ilines if not l.startswith("#")]
    assert body[0] == "k,x1,x2"
    # every iterate is recorded, which the lazy engine cannot do
    assert "# engine = eager" in ilines
    assert "# engine_reason = recording every iterate requires materializing every step" in ilines
    assert len(body) > 100
    with open(prefix + ".grid.csv") as fh:
        glines = [l for l in fh.read().splitlines() if not l.startswith("#")]
    assert glines[0] == "x1,x2,f"
    assert len(glines) == 1 + 11 * 11
    assert _run("trace2d", "--data", "synth:toyclass", "--l2", "0.1",
                "--method", "sag", "--gamma", "0.1", "--out", prefix) == 1
    capsys.readouterr()


def test_validate_only(capsys):
    assert _run("validate", "--only", "table_mean_identity") == 0
    out = capsys.readouterr().out
    assert "PASS table_mean_identity" in out
    assert "passed 1/1" in out
    assert _run("validate", "--only", "bogus_check") == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "vropt.cli", "run", "--data", "synth:tiny",
         "--l2", "0.1", "--method", "gd", "--epochs", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "epoch,grad_evals" in proc.stdout


NON_FINITE = "1 1:0.5 2:nan\n-1 2:1\n1 1:inf\n"


def test_non_finite_data_rejected(tmp_path, monkeypatch, capsys):
    # bad input exits 2 before any solve or run, and nothing is cached
    cache = tmp_path / "cache"
    monkeypatch.setenv("VROPT_CACHE", str(cache))
    data = tmp_path / "nan.svm"
    data.write_text(NON_FINITE)
    prefix = tmp_path / "ref"
    assert _run("solve-ref", "--data", str(data), "--l2", "0.1", "--out", str(prefix)) == cli.EXIT_IO
    assert "line 1: non-finite value" in capsys.readouterr().err
    out = tmp_path / "t.csv"
    assert _run("run", "--data", str(data), "--l2", "0.1", "--method", "saga",
                "--out", str(out)) == cli.EXIT_IO
    assert sorted(os.listdir(tmp_path)) == ["nan.svm"]


def _write_svm(tmp_path, name="d.svm", text="1 1:0.5 3:2\n-1 2:1.25\n1 1:-1 2:4 3:0.5\n"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _no_parse(monkeypatch):
    monkeypatch.setattr(cli, "load_dataset", lambda *a, **k: pytest.fail("parsed a cached file"))


def test_data_cache_hit_matches_parse(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("VROPT_CACHE", str(cache))
    path = _write_svm(tmp_path)
    for dim in (None, 9):
        fresh = cli._load_data(path, dim)
        with monkeypatch.context() as m:
            _no_parse(m)
            hit = cli._load_data(path, dim)
        assert (hit.n, hit.d) == (fresh.n, fresh.d)
        for name in ("indptr", "col_indices", "col_values", "labels"):
            assert np.array_equal(getattr(hit, name), getattr(fresh, name)), name
        with open(path) as fh:
            assert dataset_hash(hit) == dataset_hash(fresh) == dataset_hash(parse_libsvm(fh, dim))
    assert len(os.listdir(cache)) == 2  # dim is part of the key


def test_data_cache_misses_on_changed_bytes_or_dim(tmp_path, monkeypatch):
    monkeypatch.setenv("VROPT_CACHE", str(tmp_path / "cache"))
    path = _write_svm(tmp_path)
    cli._load_data(path)
    calls = []
    real = cli.load_dataset
    monkeypatch.setattr(cli, "load_dataset", lambda *a, **k: calls.append(a) or real(*a, **k))
    with open(path, "r+") as fh:  # one byte: 1.25 -> 1.35
        text = fh.read()
        fh.seek(text.index("1.25") + 2)
        fh.write("3")
    assert cli._load_data(path).col_values.tolist() == [0.5, 2.0, 1.35, -1.0, 4.0, 0.5]
    assert cli._load_data(path, 4).d == 4
    assert len(calls) == 2
    cli._load_data(path)
    cli._load_data(path, 4)
    assert len(calls) == 2


def test_data_cache_rewrites_bad_entry(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("VROPT_CACHE", str(cache))
    path = _write_svm(tmp_path)
    fresh = cli._load_data(path)
    (entry,) = cache.iterdir()
    good = entry.read_bytes()
    for bad in (good[:-8], good[:10], b""):
        entry.write_bytes(bad)
        assert dataset_hash(cli._load_data(path)) == dataset_hash(fresh)  # parsed again
        assert entry.read_bytes() == good  # and rewritten


def test_data_cache_failures_and_exclusions(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    monkeypatch.setenv("VROPT_CACHE", str(cache))
    out = str(tmp_path / "t.csv")
    # a malformed file still exits 2 and leaves no entry
    bad = _write_svm(tmp_path, "bad.svm", "1 1:1\n-1 2:x\n")
    assert _run("run", "--data", bad, "--l2", "0.1", "--method", "gd", "--out", out) == cli.EXIT_IO
    assert "line 2" in capsys.readouterr().err
    # synthetic data and the library loader never touch the cache
    assert _run("run", "--data", "synth:tiny", "--l2", "0.1", "--method", "gd",
                "--epochs", "1", "--out", out) == 0
    load_dataset(_write_svm(tmp_path))
    # nor does a stream, which is read once, by the parser
    proc = subprocess.run([sys.executable, "-m", "vropt.cli", "run", "--data", "/dev/stdin", "--l2", "0.1",
                           "--method", "gd", "--epochs", "1"], input="1 1:1\n-1 2:1\n",
                          capture_output=True, text=True)
    assert proc.returncode == 0 and "epoch,grad_evals" in proc.stdout
    assert not cache.exists()
    # a cache that cannot be written costs a parse, not the command
    cache.write_text("not a directory")
    assert _run("run", "--data", _write_svm(tmp_path), "--l2", "0.1", "--method", "gd",
                "--epochs", "1", "--out", out) == 0
    assert cache.read_text() == "not a directory"


def _no_power_iteration(monkeypatch):
    monkeypatch.setattr(objectives, "power_iteration_sq",
                        lambda *a, **k: pytest.fail("computed the global L"))


@pytest.mark.parametrize("method", ["sag", "saga", "svrg"])
def test_run_hit_needs_no_parse_and_no_global_l(method, tmp_path, monkeypatch):
    # batch-1 theory steps are 1/L_max: the global L is never computed, and
    # a cached file is never parsed; the trace is the same bytes either way
    monkeypatch.setenv("VROPT_CACHE", str(tmp_path / "cache"))
    path = str(tmp_path / "s.svm")
    with open(path, "w") as fh:
        fh.write(write_libsvm(sparse_gaussian(seed=2, n=80, d=40)))
    args = ["run", "--data", path, "--l2", "0.01", "--method", method, "--epochs", "2"]
    _no_power_iteration(monkeypatch)
    assert _run(*args, "--out", str(tmp_path / "a.csv")) == 0
    _no_parse(monkeypatch)
    assert _run(*args, "--out", str(tmp_path / "b.csv")) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert _run(*args, "--sampling", "lipschitz", "--out", str(tmp_path / "c.csv")) == 0


def test_global_l_computed_where_read(tmp_path, monkeypatch):
    # gd's 1/L, the mini-batch L(b) and the reference solver read the global L
    calls = []
    real = objectives.power_iteration_sq
    monkeypatch.setattr(objectives, "power_iteration_sq",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    base = ["--data", "synth:toyclass", "--l2", "0.1"]
    assert _run("run", *base, "--method", "gd", "--epochs", "1", "--out", str(tmp_path / "g.csv")) == 0
    assert len(calls) == 1
    assert _run("run", *base, "--method", "saga", "--batch", "4", "--gamma-policy", "minibatch",
                "--epochs", "1", "--out", str(tmp_path / "m.csv")) == 0
    assert len(calls) == 2
    monkeypatch.setattr(diag, "_REF_MEMO", {})  # solve, not recall
    assert _run("solve-ref", *base, "--out", str(tmp_path / "ref")) == 0
    assert len(calls) == 3


def test_header_names_engine(tmp_path):
    # the data's width picks the engine, and every header says which ran and why
    out = str(tmp_path / "m.csv")
    assert _run("run", "--data", "synth:mushrooms:0", "--l2", "1e-4", "--method", "saga",
                "--epochs", "0", "--out", out) == 0
    meta = read_trace(out)[1]
    assert "table" not in meta
    assert (meta["engine"], meta["jit"]) == ("eager", "auto")
    assert meta["engine_reason"].startswith("d = 112 < ")
    wide = _write_svm(tmp_path, "wide.svm", "1 1:0.5 100000:2\n-1 2:1.25\n1 1:-1 7:4\n")
    base = ["--data", wide, "--dim", "100000", "--l2", "0.1", "--epochs", "1"]
    for method, jit, engine in (("sag", "auto", "lazy"), ("saga", "auto", "lazy"),
                                ("saga", "off", "eager"), ("svrg", "auto", "eager")):
        assert _run("run", *base, "--method", method, "--jit", jit, "--out", out) == 0
        meta = read_trace(out)[1]
        assert meta["engine"] == engine, (method, jit, meta["engine_reason"])
    spec = tmp_path / "wide.spec"
    spec.write_text("data = %s\ndim = 100000\nl2 = 0.1\nepochs = 1\nout = %s\n"
                    "[method]\nname = saga\n[method]\nname = saga\nlabel = saga-off\njit = off\n"
                    % (wide, tmp_path / "grid"))
    assert _run("compare", str(spec)) == 0
    for label, engine in (("saga", "lazy"), ("saga-off", "eager")):
        meta = read_trace(str(tmp_path / "grid" / ("%s_seed0.csv" % label)))[1]
        assert (meta["engine"], meta["label"]) == (engine, label)


def test_compare_shares_one_global_l(tmp_path, monkeypatch):
    # the reference solve, gd's 1/L and svrg-b16's L(b) read one power iteration
    calls = []
    real = objectives.power_iteration_sq
    monkeypatch.setattr(objectives, "power_iteration_sq",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    monkeypatch.setattr(diag, "_REF_MEMO", {})
    spec = tmp_path / "g.spec"
    spec.write_text("data = synth:toyclass\nl2 = 0.1\nepochs = 2\nout = %s\n[method]\nname = gd\n"
                    "[method]\nname = svrg\nlabel = svrg-b16\nbatch = 16\ngamma_policy = minibatch\n"
                    % (tmp_path / "grid"))
    assert _run("compare", str(spec)) == 0
    assert len(calls) == 1
