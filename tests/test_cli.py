import hashlib
import io
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from vropt import cli, diag, objectives, optimizers, validate
from vropt.bench_data import load_dataset, sparse_gaussian, toy_classification
from vropt.data import dataset_hash, parse_libsvm, write_libsvm
from vropt.diag import read_trace
from vropt.objectives import GlmObjective
from vropt.optimizers import RunConfig, run


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
    recs, meta = read_trace(io.StringIO(capsys.readouterr().out))
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
    for grid in ("-1", "0"):  # -1 wrote iterates then failed in numpy; 0 wrote a 0x0 grid
        assert _run("trace2d", "--data", "synth:blobs2d", "--method", "gd", "--l2", "0.1",
                    "--grid", grid, "--out", str(tmp_path / "t")) == 1
        assert "positive integer" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
    capsys.readouterr()


def test_io_exit_codes(tmp_path, capsys):
    assert _run("run", "--data", "/definitely/missing.libsvm", "--method", "gd") == 2
    err = capsys.readouterr().err
    assert "/definitely/missing.libsvm" in err
    out = str(tmp_path / "no" / "such" / "dir" / "t.csv")
    assert _run("run", "--data", "synth:tiny", "--l2", "0.1", "--method", "gd",
                "--epochs", "1", "--out", out) == 2


def test_out_of_memory_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys):
    # a LIBSVM index of 10^12 parses, but its d-sized vectors do not fit; a
    # patched objective raises the MemoryError their allocation would, so no
    # d-sized array is ever asked for
    path = tmp_path / "huge.libsvm"
    path.write_text("1 1000000000000:1\n-1 1:1\n")
    out = tmp_path / "t.csv"
    for exc in (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"), MemoryError()):
        def objective(data, *args, **kwargs):
            assert data.d == 10**12
            raise exc
        monkeypatch.setattr(cli, "GlmObjective", objective)
        assert _run("run", "--data", str(path), "--l2", "0.1", "--method", "gd", "--epochs", "1",
                    "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: out of memory: %s\n" % (str(exc) or "MemoryError")
        assert not out.exists()


def test_divergence_exit_code(tmp_path, capsys):
    out = str(tmp_path / "d.csv")
    rc = _run("run", "--data", "synth:toyclass", "--l2", "0.1", "--method", "sgd",
              "--gamma", "1e6", "--epochs", "5", "--out", out)
    assert rc == 3
    recs, meta = read_trace(out)
    assert "diverged" in meta
    assert len(recs) >= 1


# main() in a fresh process that sees argv[1] CPUs
MAIN_AT_CPUS = ("import os, sys; from vropt import cli; os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1]))); "
                "sys.exit(cli.main(sys.argv[2:]))")


def test_divergence_prints_only_its_diverged_line(tmp_path):
    # f at a diverging checkpoint overflowed in numpy, which printed its
    # RuntimeWarning and source line before the diverged: line; a run and a
    # compare, fanned out or not, now print that line alone
    env = dict(_src_env(), VROPT_CACHE=str(tmp_path / "cache"))
    spec = tmp_path / "div.spec"
    spec.write_text(DIVERGING_SPEC % (tmp_path / "grid"))
    cases = [(1, ["run", "--data", "synth:toyclass", "--l2", "0.1", "--method", "sgd", "--gamma", "1e6",
                  "--epochs", "5", "--out", str(tmp_path / "d.csv")], "")]
    cases += [(cpus, ["compare", str(spec)], " (sag seed 0)") for cpus in (1, 2)]
    for cpus, argv, where in cases:
        proc = subprocess.run([sys.executable, "-c", MAIN_AT_CPUS, str(cpus), *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == cli.EXIT_DIVERGED, proc.stderr
        assert proc.stderr == "diverged: objective diverged (gamma=1000000.0)%s\n" % where, argv


@pytest.mark.parametrize("method", ["sag", "saga", "sgd"])
def test_kernel_overflow_prints_only_its_diverged_line(method, tmp_path, capsys):
    # at gamma = 1e200 the step itself overflows, before any checkpoint, and
    # numpy warned from the kernels' lines; a run now steps under one
    # errstate and says only diverged:, eager (logistic, l2 = 0.1, the decay
    # 1 - gamma*l2 overflowing) and lazy (half_squared, l2 = 0, so jit on applies)
    out = str(tmp_path / "d.csv")
    cases = [["--l2", "0.1", "--jit", "off"], ["--loss", "half_squared", "--l2", "0", "--jit", "off"],
             ["--loss", "half_squared", "--l2", "0", "--jit", "on"]]
    for extra in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = _run("run", "--data", "synth:toyclass", "--method", method, "--gamma", "1e200",
                      "--epochs", "3", "--out", out, *extra)
        assert (rc, [str(w.message) for w in caught]) == (cli.EXIT_DIVERGED, []), extra
        assert capsys.readouterr().err == "diverged: non-finite value encountered (gamma=1e+200)\n", extra
        assert read_trace(out)[1]["engine"] == ("lazy" if extra[-1] == "on" else "eager")


def test_run_imports_no_numpy_ma(tmp_path):
    # the label check once called np.unique, whose numpy 2.4 code imports
    # numpy.ma, a cost in time and memory that every process paid
    base = ["--data", "synth:toyclass", "--l2", "0.1"]
    argvs = [["run", *base, "--method", "saga", "--epochs", "1", "--out", str(tmp_path / "r.csv")],
             ["solve-ref", *base, "--out", str(tmp_path / "ref")]]
    code = "import sys; from vropt.cli import main; print([main(a) for a in %r], 'numpy.ma' in sys.modules)" % argvs
    env = dict(_src_env(), VROPT_CACHE=str(tmp_path / "cache"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.stdout.splitlines()[-1] == "[0, 0] False", proc.stderr


def test_solve_ref_idempotent(tmp_path, monkeypatch):
    # the cache entry a solve leaves is its --out pair, byte for byte, under
    # the reference key; a second solve-ref reads it and writes the same pair
    cache = tmp_path / "cache"
    monkeypatch.setenv("VROPT_CACHE", str(cache))
    prefix = str(tmp_path / "ref")
    args = ["solve-ref", "--data", "synth:toyclass", "--l2", "0.1", "--out", prefix]
    assert _run(*args) == 0
    key = diag._ref_key(GlmObjective(load_dataset("synth:toyclass"), "logistic", l2=0.1), 1e-12)
    pair = {ext: (tmp_path / ("ref" + ext)).read_bytes() for ext in (".fstar.txt", ".xstar.vec")}
    assert {name: (cache / name).read_bytes() for name in os.listdir(cache)} == {
        key + ext: data for ext, data in pair.items()}
    monkeypatch.setattr(diag, "_certified", lambda *a: pytest.fail("solved a cached reference"))
    assert _run(*args) == 0
    assert {ext: (tmp_path / ("ref" + ext)).read_bytes() for ext in pair} == pair


def _entries(cache):
    # what a rewrite changes: a file's mtime, and its inode (atomic_write_bytes renames a new file in)
    return {name: (os.stat(cache / name).st_mtime_ns, os.stat(cache / name).st_ino) for name in os.listdir(cache)}


def test_compare_after_solve_ref_rewrites_no_cache_entry(tmp_path, monkeypatch):
    # the benchmark's gate: solve-ref leaves the reference and the parsed
    # data in the cache, and a compare on the same data and l2 reads both,
    # neither solving, parsing nor writing an entry again
    cache = tmp_path / "cache"
    monkeypatch.setenv("VROPT_CACHE", str(cache))
    data = _write_svm(tmp_path, "d.svm", write_libsvm(toy_classification(seed=1, n=40, d=6)))
    assert _run("solve-ref", "--data", data, "--l2", "0.1", "--out", str(tmp_path / "ref")) == 0
    before = _entries(cache)
    assert sorted(os.path.splitext(name)[1] for name in before) == [".csr", ".txt", ".vec"]
    spec = tmp_path / "g.spec"
    spec.write_text("data = %s\nl2 = 0.1\nepochs = 2\nout = %s\n[method]\nname = saga\n[method]\nname = svrg\n"
                    % (data, tmp_path / "grid"))
    monkeypatch.setattr(diag, "_certified", lambda *a: pytest.fail("solved a cached reference"))
    _no_parse(monkeypatch)
    assert _run("compare", str(spec)) == 0
    assert _entries(cache) == before


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_solve_ref_bad_tol(tol, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VROPT_CACHE", str(tmp_path / "cache"))
    prefix = str(tmp_path / "ref")
    assert _run("solve-ref", "--data", "synth:tiny", "--l2", "0.1", "--tol", tol,
                "--out", prefix) == cli.EXIT_USAGE
    assert "tol must be positive and finite" in capsys.readouterr().err
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
    top = tmp_path / "top.spec"  # a top key's error names no block
    top.write_text("data = synth:tiny\nloss = bogus\nout = o\n[method]\nname = gd\n")
    assert _run("compare", str(top)) == 1
    err = capsys.readouterr().err
    assert "--loss" in err and "method gd" not in err
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


def test_compare_batch_above_n_fails_before_any_output(tmp_path, capsys):
    # a uniform batch larger than n is rejected with the other config
    # checks, so no block runs: no trace file and no summary.csv
    outdir = tmp_path / "grid"
    spec = tmp_path / "big.spec"
    spec.write_text("data = synth:tiny\nl2 = 0.1\nout = %s\n[method]\nname = saga\n"
                    "[method]\nname = gd\nbatch = 100\n" % outdir)
    assert _run("compare", str(spec)) == 1
    assert "batch 100 exceeds n=6 without replacement" in capsys.readouterr().err
    assert not (outdir / "saga_seed0.csv").exists()
    assert not (outdir / "summary.csv").exists()


@pytest.mark.parametrize("args, msg", [
    (["--gamma", "-1"], "gamma must be"), (["--gamma", "0"], "gamma must be"),
    (["--gamma", "nan"], "gamma must be"), (["--gamma", "inf"], "gamma must be"),
    (["--gamma-policy", "fixed:nan"], "gamma must be"), (["--gamma-policy", "fixed:inf"], "gamma must be"),
    (["--gamma-policy", "armijo:nan"], "gamma_max must be"), (["--gamma-policy", "armijo:inf"], "gamma_max must be"),
    (["--l2", "nan"], "regularization weights"), (["--l2", "inf"], "regularization weights"),
    (["--l1", "nan"], "regularization weights"),
    (["--method", "sdca", "--gamma", "7"], "takes no stepsize"),
    (["--method", "sdca", "--gamma-policy", "fixed:7"], "takes no stepsize"),
    (["--method", "sdca", "--gamma-policy", "armijo:5"], "takes no stepsize"),
    (["--batch", "4", "--gamma-policy", "armijo"], "needs batch 1"),
])
def test_bad_stepsize_or_regularization_exits_1_before_any_output(args, msg, tmp_path, capsys):
    # these ran (a negative gamma ascended; sdca dropped its stepsize, and
    # armijo searched on batch[0] alone), reported divergence (exit 3) or
    # died with a traceback; now each is a usage error and nothing is written
    out = tmp_path / "o.csv"
    assert _run("run", "--data", "synth:tiny", "--l2", "0.1", "--method", "sag", "--epochs", "2",
                "--out", str(out), *args) == 1
    assert msg in capsys.readouterr().err
    assert not out.exists()
    if args[0] in ("--l2", "--l1"):
        assert _run("solve-ref", "--data", "synth:tiny", *args, "--out", str(tmp_path / "ref")) == 1
        assert msg in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args, msg", [
    (["--fstar", "nan"], "--fstar must be finite"), (["--fstar", "inf"], "--fstar must be finite"),
    (["--fstar", "FILE"], "--fstar must be finite"),
    (["--stop", "grad:nan"], "bad stop rule"), (["--stop", "grad:-1"], "bad stop rule"),
    (["--stop", "gap:inf"], "bad stop rule"),
])
def test_bad_fstar_or_stop_rule_exits_1_before_any_output(args, msg, tmp_path, capsys):
    # a non-finite f* (literal or from a file) wrote nan subopt cells, and a
    # NaN, negative or infinite stop EPS never fired; both exited 0
    fstar = tmp_path / "f.txt"
    fstar.write_text("nan\n")
    out = tmp_path / "o.csv"
    args = [str(fstar) if a == "FILE" else a for a in args]
    assert _run("run", "--data", "synth:tiny", "--l2", "0.1", "--method", "sag", "--epochs", "2",
                "--out", str(out), *args) == 1
    assert msg in capsys.readouterr().err
    assert not out.exists()


# the probes outside each numeric input's domain, on data with n >= 2, where
# 1e308 epochs of n evaluations overflow; an integer input reads "1e308" as no
# integer at all
PROBES = ("nan", "inf", "-inf", "-1", "0", "1e308")
_NOT_0 = tuple(p for p in PROBES if p != "0")
_NOT_1E308 = PROBES[:-1]
OUTSIDE = {"epochs": _NOT_0, "warm_start_sgd_epochs": _NOT_0, "checkpoint_every": PROBES,
           "gamma": _NOT_1E308, "gamma_max": _NOT_1E308, "tol": _NOT_1E308, "beta": _NOT_0,
           "seed": _NOT_0, "inner_t": PROBES, "batch": PROBES, "dim": PROBES, "grid": PROBES}


def test_numeric_inputs_outside_their_domain_exit_1(tmp_path, monkeypatch, capsys):
    # walks optimizers.DOMAINS: every numeric flag of run, trace2d and
    # solve-ref and every numeric compare key, at each probe outside its
    # domain, exits 1 with an error line and writes nothing: no trace, no
    # reference files, no out directory. 1e308 epochs died with an
    # OverflowError, and a bad --tol exited 2
    assert set(OUTSIDE) == set(optimizers.DOMAINS)
    monkeypatch.setenv("VROPT_CACHE", str(tmp_path / "cache"))
    top_keys = ("dim", "epochs", "checkpoint_every", "seed")
    cases = 0
    for name, probes in OUTSIDE.items():
        for value in probes:
            text = "armijo:" + value if name == "gamma_max" else value
            flag = "--%s=%s" % ("gamma-policy" if name == "gamma_max" else name.replace("_", "-"), text)
            entry = "%s = %s" % ({"seed": "seeds", "gamma_max": "gamma_policy"}.get(name, name), text)
            commands = []
            if name not in ("grid", "tol"):
                commands.append(["run", "--data=synth:tiny", "--l2=0.1", "--method=saga", "--out=o.csv", flag])
                commands.append(["compare", "spec"])
            if name != "tol":
                commands.append(["trace2d", "--data=synth:blobs2d", "--l2=0.1", "--method=saga", "--out=t", flag])
            if name in ("dim", "tol"):
                commands.append(["solve-ref", "--data=synth:tiny", "--l2=0.1", "--out=ref", flag])
            for argv in commands:
                case = tmp_path / str(cases)
                case.mkdir()
                monkeypatch.chdir(case)
                if argv[0] == "compare":
                    top, block = (entry, "") if name in top_keys else ("", entry)
                    spec = "data = synth:tiny\nl2 = 0.1\nout = grid\n%s\n[method]\nname = saga\n%s\n"
                    (case / "spec").write_text(spec % (top, block))
                assert _run(*argv) == 1, argv
                assert "error:" in capsys.readouterr().err, argv
                assert os.listdir(case) == (["spec"] if argv[0] == "compare" else []), argv
                cases += 1
    assert not (tmp_path / "cache").exists()
    assert cases == 179


def test_reference_input_errors_exit_1(tmp_path, monkeypatch, capsys):
    # l2 <= 0 made solve-ref and compare's reference solve exit 2 (I/O)
    monkeypatch.setenv("VROPT_CACHE", str(tmp_path / "cache"))
    assert _run("solve-ref", "--data", "synth:tiny", "--out", str(tmp_path / "ref")) == cli.EXIT_USAGE
    assert "l2 > 0" in capsys.readouterr().err
    spec = tmp_path / "l2.spec"
    spec.write_text("data = synth:tiny\nl2 = 0\nout = %s\n[method]\nname = saga\n" % (tmp_path / "grid"))
    assert _run("compare", str(spec)) == cli.EXIT_USAGE
    assert "l2 > 0" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["l2.spec"]


@pytest.mark.parametrize("batch", ["1", "4"])
def test_policy_spellings_give_the_same_trace(batch, tmp_path):
    # theory and minibatch both name the default stepsize, and fixed:G is
    # --gamma G: the traces differ only in the gamma_policy header line
    base = ["run", "--data", "synth:tiny", "--l2", "0.1", "--method", "sag", "--batch", batch, "--epochs", "3"]

    def trace(name, *flags):
        out = tmp_path / name
        assert _run(*base, *flags, "--out", str(out)) == 0
        return [line for line in out.read_text().splitlines(True) if not line.startswith("# gamma_policy")]

    default = trace("default.csv")
    assert trace("theory.csv", "--gamma-policy", "theory") == default
    assert trace("minibatch.csv", "--gamma-policy", "minibatch") == default
    assert trace("fixed.csv", "--gamma-policy", "fixed:0.25") == trace("gamma.csv", "--gamma", "0.25") != default


def test_armijo_huge_gamma_max_ends_through_exit_codes(tmp_path, capsys):
    # the first trials from gamma_max = 1e300 overflow; they backtrack
    # instead of raising FloatingPointError out of main
    rc = _run("run", "--data", "synth:tiny", "--l2", "0.1", "--method", "sag", "--gamma-policy", "armijo:1e300",
              "--epochs", "3", "--out", str(tmp_path / "o.csv"))
    assert rc == 0 or (rc == 3 and "diverged:" in capsys.readouterr().err)


@pytest.mark.parametrize("top, block, msg", [
    ("", "name = saga\nstop = gap:1e-3", "gap stop rule"),
    ("", "name = sgd_momentum\nbeta = 1.5", "beta"),
    ("l1 = 0.001", "name = saga\njit = on", "jit mode unavailable"),
])
def test_compare_bad_later_block_leaves_no_output(top, block, msg, tmp_path, monkeypatch, capsys):
    # run()'s own checks reject the second block before the reference solve
    # and the output directory
    monkeypatch.setenv("VROPT_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(cli, "solve_reference", lambda *a, **k: pytest.fail("solved for a bad spec"))
    outdir = tmp_path / "grid"
    spec = tmp_path / "late.spec"
    spec.write_text("data = synth:tiny\nl2 = 0.1\n%s\nout = %s\n[method]\nname = gd\n[method]\n%s\n"
                    % (top, outdir, block))
    assert _run("compare", str(spec)) == 1
    assert msg in capsys.readouterr().err
    assert not outdir.exists()


def test_compare_block_equals_run(tmp_path):
    # a [method] block is the `vropt run` its keys spell as flags, with the
    # reference and the sgd baseline step compare supplies: the same trace
    # bytes but for the label line
    ref = str(tmp_path / "ref")
    data = load_dataset("synth:toyclass")
    l2 = 1.0 / data.n
    assert _run("solve-ref", "--data", "synth:toyclass", "--l2", repr(l2), "--out", ref) == 0
    l_max = objectives.smoothness(objectives.GlmObjective(data, "logistic", l2=l2)).l_max
    blocks = {  # label: (block keys, run flags)
        "gd": ("name = gd", ["--method", "gd"]),
        "saga": ("name = saga", ["--method", "saga"]),
        "saga-lip": ("name = saga\nsampling = lipschitz", ["--method", "saga", "--sampling", "lipschitz"]),
        "svrg-b16": ("name = svrg\nbatch = 16\ngamma_policy = minibatch",
                     ["--method", "svrg", "--batch", "16", "--gamma-policy", "minibatch"]),
        "sgd": ("name = sgd", ["--method", "sgd", "--gamma", repr(1.0 / l_max)]),
        "sgd_star": ("name = sgd_star", ["--method", "sgd_star"]),
        "sdca": ("name = sdca", ["--method", "sdca"]),
    }
    outdir = tmp_path / "grid"
    spec = tmp_path / "eq.spec"
    spec.write_text("data = synth:toyclass\nepochs = 2\nseeds = 0 2\nout = %s\n" % outdir + "".join(
        "[method]\nlabel = %s\n%s\n" % (label, keys) for label, (keys, _) in blocks.items()))
    assert _run("compare", str(spec)) == 0
    for label, (_, flags) in blocks.items():
        for seed in ("0", "2"):
            out = tmp_path / ("%s_%s.csv" % (label, seed))
            assert _run("run", "--data", "synth:toyclass", "--l2", repr(l2), "--epochs", "2", "--seed", seed,
                        "--fstar", ref + ".fstar.txt", "--xstar", ref + ".xstar.vec", *flags,
                        "--out", str(out)) == 0
            lines = (outdir / ("%s_seed%s.csv" % (label, seed))).read_text().splitlines(True)
            lines.remove("# label = %s\n" % label)
            assert "".join(lines) == out.read_text(), label
            assert read_trace(str(out))[1]["gamma"] or label == "sdca"


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
    for dim in ("0", "-3"):  # a usage error, as in a spec, not an I/O one
        assert _run("run", "--data", str(data), "--dim", dim, "--l2", "0.1", "--method", "gd") == cli.EXIT_USAGE
        assert "positive integer" in capsys.readouterr().err


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


def test_write_iterates_streams_blocks(tmp_path, monkeypatch):
    # rows cross two block boundaries; the file is the header and then
    # every row formatted on its own
    monkeypatch.setattr(cli, "ITERATE_BLOCK", 4)
    rng = np.random.default_rng(0)
    iterates = rng.normal(size=(11, 2)) * np.logspace(-300, 300, 11)[:, None]
    path = str(tmp_path / "it.csv")
    meta = {"method": "sag", "seed": "3"}
    cli._write_iterates(iterates, path, meta)
    want = ["# method = sag", "# seed = 3", "k,x1,x2"]
    want += ["%d,%s,%s" % (k, cli._fmt(float(x[0])), cli._fmt(float(x[1]))) for k, x in enumerate(iterates)]
    with open(path) as fh:
        assert fh.read() == "\n".join(want) + "\n"
    cli._write_iterates((), path, meta)  # a diverged run: the header only
    with open(path) as fh:
        assert fh.read() == "\n".join(want[:3]) + "\n"


def test_trace2d_sdca_records_every_step(tmp_path, capsys):
    # sdca steps its dual's w through the loop every method shares, so its
    # iterates are the start and every step, the last one the final w
    prefix = str(tmp_path / "tr")
    assert _run("trace2d", "--data", "synth:blobs2d", "--l2", "0.1", "--method", "sdca",
                "--epochs", "2", "--grid", "11", "--out", prefix) == 0
    with open(prefix + ".iterates.csv") as fh:
        body = [line for line in fh.read().splitlines() if not line.startswith("#")][1:]
    obj = GlmObjective(load_dataset("synth:blobs2d"), "logistic", l2=0.1)
    steps = 2 * obj.n
    assert [int(line.split(",")[0]) for line in body] == list(range(steps + 1))
    w = run(RunConfig(method="sdca", epochs=2.0, seed=0), obj).x
    assert body[-1] == "%d,%s,%s" % (steps, cli._fmt(float(w[0])), cli._fmt(float(w[1])))
    assert "(%d iterates)" % (steps + 1) in capsys.readouterr().out


def test_gd_draws_one_batch_per_step(tmp_path, capsys):
    # gd steps through the shared loop, which draws a batch per step that gd
    # does not read: a trace after a Lipschitz mini-batch warm phase keeps
    # its bytes, and a batch larger than n is a usage error, as for every method
    out = tmp_path / "gd.csv"
    assert _run("run", "--data", "synth:toyclass", "--l2", "0.1", "--epochs", "3", "--seed", "4",
                "--method", "gd", "--batch", "3", "--sampling", "lipschitz",
                "--warm-start-sgd-epochs", "1", "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "791f3a3a6e9ba2c21998dbaceed04b0fd756e9c3e13161396f41eea3e37c7ae9"
    big = tmp_path / "big.csv"
    assert _run("run", "--data", "synth:tiny", "--l2", "0.1", "--method", "gd",
                "--batch", "100", "--out", str(big)) == 1
    assert "batch 100 exceeds n=6" in capsys.readouterr().err
    assert not big.exists()


def test_validate_reports_a_raising_check(monkeypatch, capsys):
    # a check that raises prints a FAIL line naming the exception; the
    # checks after it still run and validate exits 1
    def broken():
        raise ValueError("need at least 5 positive-suboptimality records, found 2")

    checks = {"minibatch_smoothness_curve": validate.CHECKS["minibatch_smoothness_curve"],
              "broken": broken, "table_mean_identity": validate.CHECKS["table_mean_identity"]}
    monkeypatch.setattr(validate, "CHECKS", checks)
    assert _run("validate") == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("PASS minibatch_smoothness_curve ")
    assert lines[1].startswith("FAIL broken ")
    assert "ValueError: need at least 5 positive-suboptimality records, found 2" in lines[1]
    assert lines[2].startswith("PASS table_mean_identity ")
    assert all(float(line.rpartition(" seconds=")[2]) >= 0.0 for line in lines[:3])
    assert lines[3] == "passed 2/3"
    assert _run("validate", "--only", "broken") == 1
    assert capsys.readouterr().out.splitlines()[0].startswith("FAIL broken ")


def test_validate_only(capsys):
    assert _run("validate", "--only", "table_mean_identity") == 0
    out = capsys.readouterr().out
    assert "PASS table_mean_identity" in out
    assert "passed 1/1" in out
    # each check's line ends in the seconds it took
    head, _, seconds = out.splitlines()[0].rpartition(" seconds=")
    assert head.startswith("PASS table_mean_identity ") and float(seconds) >= 0.0
    assert _run("validate", "--only", "bogus_check") == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "vropt.cli", "run", "--data", "synth:tiny",
         "--l2", "0.1", "--method", "gd", "--epochs", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "epoch,grad_evals" in proc.stdout


def _src_env():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_import_cli_without_scipy():
    # importing the CLI loads no scipy module: the products' compiled loops
    # come from their extension file, without importing scipy.sparse
    code = "import sys, vropt.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_src_env())
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# the validate checks built on the mushrooms table (n = 8124, 178,728 nonzeros)
MUSHROOMS_CHECKS = ("benchmark_ordering", "variance_reduction", "sdca_certificates")


def test_logistic_processes_load_no_scipy_special(tmp_path):
    # no process loads a scipy module, scipy.sparse and scipy.special
    # included: every validate check but the mushrooms ones, then solve-ref,
    # run, compare and trace2d on small data, a run on a LIBSVM file of
    # 80,000 nonzeros, and a cold solve-ref on the mushrooms table
    tail = "print(rcs, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    spec = tmp_path / "cmp.spec"
    spec.write_text("data = synth:toyclass\nl2 = 0.1\nepochs = 2\nout = %s\n\n[method]\nname = saga\n"
                    "\n[method]\nname = svrg\n\n[method]\nname = gd\n" % (tmp_path / "grid"))
    objective = ["--data", "synth:toyclass", "--l2", "0.1"]
    svm = tmp_path / "wide.svm"
    svm.write_text(write_libsvm(sparse_gaussian(seed=3, n=4000, d=2000, density=0.01)))
    small = [["solve-ref", *objective, "--out", str(tmp_path / "ref")],
             ["run", *objective, "--method", "saga", "--epochs", "2", "--out", str(tmp_path / "saga.csv")],
             ["run", *objective, "--method", "svrg", "--epochs", "2", "--out", str(tmp_path / "svrg.csv")],
             ["compare", str(spec)],
             ["trace2d", "--data", "synth:blobs2d", "--l2", "0.1", "--method", "sag", "--epochs", "2",
              "--out", str(tmp_path / "fig")],
             ["run", "--data", str(svm), "--l2", "1e-3", "--method", "saga", "--epochs", "1",
              "--out", str(tmp_path / "wide.csv")]]
    checks = [name for name in validate.CHECKS if name not in MUSHROOMS_CHECKS]
    code = ("import sys; from vropt import validate; from vropt.cli import main; "
            "rcs = [bool(validate.CHECKS[c]().passed) for c in %r] + [main(a) for a in %r]; " % (checks, small) + tail)
    env = dict(_src_env(), VROPT_CACHE=str(tmp_path / "cache"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    want = "%s []" % ([True] * len(checks) + [0] * len(small))
    assert proc.stdout.splitlines()[-1] == want, (proc.stdout[-500:], proc.stderr[-2000:])
    code = ("import sys; from vropt.cli import main; rcs = main(sys.argv[1:]); " + tail)
    proc = subprocess.run([sys.executable, "-c", code, "solve-ref", "--data", "synth:mushrooms:0", "--l2", "1e-4",
                           "--out", str(tmp_path / "mref")], capture_output=True, text=True, env=env)
    assert proc.stdout.splitlines()[-1] == "0 []", (proc.stdout[-500:], proc.stderr[-2000:])


def test_unwritable_reference_cache_still_writes_out(tmp_path, monkeypatch, capsys):
    # a VROPT_CACHE that names a regular file cannot hold the reference: the
    # solve keeps x* in the process and solve-ref and compare still exit 0
    # with their outputs written
    cache = tmp_path / "cache"
    cache.write_text("not a directory\n")
    monkeypatch.setenv("VROPT_CACHE", str(cache))
    prefix = tmp_path / "ref"
    assert _run("solve-ref", "--data", "synth:tiny", "--l2", "0.1", "--out", str(prefix)) == 0
    assert os.path.exists(str(prefix) + ".xstar.vec") and os.path.exists(str(prefix) + ".fstar.txt")
    spec = tmp_path / "t.spec"
    spec.write_text("data = synth:tiny\nl2 = 0.1\nepochs = 1\nout = %s\n\n[method]\nname = saga\n"
                    % (tmp_path / "grid"))
    assert _run("compare", str(spec)) == 0
    assert sorted(os.listdir(tmp_path / "grid")) == ["saga_seed0.csv", "summary.csv"]
    assert cache.read_text() == "not a directory\n"
    assert "Traceback" not in capsys.readouterr().err


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
    # gd's 1/L, the mini-batch L(b) and the reference solver at l1 > 0 (its
    # FISTA step) read the global L; its Newton solve at l1 = 0 does not
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
    assert _run("solve-ref", *base, "--out", str(tmp_path / "ref")) == 0
    assert len(calls) == 2
    assert _run("solve-ref", *base, "--l1", "1e-3", "--out", str(tmp_path / "ref1")) == 0
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
    for method, jit, engine in (("sag", "auto", "lazy"), ("saga", "auto", "lazy"), ("saga", "off", "eager"),
                                ("svrg", "auto", "lazy"), ("sarah", "auto", "eager")):
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


def _cpus(monkeypatch, n):
    # compare fans its runs out to min(runs, CPUs) workers: pretend to n CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _log_pid(path, real):
    # wrap a function to append the calling process's pid to path: a forked
    # worker's calls are counted as well as this process's
    def wrapped(*a, **k):
        with open(path, "a") as fh:
            fh.write("%d\n" % os.getpid())
        return real(*a, **k)
    return wrapped


def _pids(path):
    return [int(line) for line in path.read_text().split()] if path.exists() else []


def test_compare_shares_one_global_l(tmp_path, monkeypatch):
    # the reference solve, gd's 1/L and svrg-b16's L(b) read one power
    # iteration, in this process: no worker runs it again
    calls = tmp_path / "power_calls"
    monkeypatch.setattr(objectives, "power_iteration_sq", _log_pid(calls, objectives.power_iteration_sq))
    monkeypatch.setattr(optimizers, "resolve", _log_pid(tmp_path / "run_calls", optimizers.resolve))
    _cpus(monkeypatch, 2)
    spec = tmp_path / "g.spec"
    spec.write_text("data = synth:toyclass\nl2 = 0.1\nepochs = 2\nout = %s\n[method]\nname = gd\n"
                    "[method]\nname = svrg\nlabel = svrg-b16\nbatch = 16\ngamma_policy = minibatch\n"
                    % (tmp_path / "grid"))
    assert _run("compare", str(spec)) == 0
    assert _pids(calls) == [os.getpid()]
    assert len(_pids(tmp_path / "run_calls")) == 2 and os.getpid() not in _pids(tmp_path / "run_calls")


# a grid of several blocks and two seeds, so two workers each take several runs
FAN_SPEC = ("data = synth:toyclass\nl2 = 0.1\nepochs = 3\nseeds = 0 1\nout = %s\n"
            "[method]\nname = gd\n[method]\nname = saga\n[method]\nname = saga\nlabel = saga-lip\n"
            "sampling = lipschitz\n[method]\nname = svrg\nlabel = svrg-b16\nbatch = 16\n"
            "gamma_policy = minibatch\n[method]\nname = sgd\n[method]\nname = sdca\n")

# saga, then sag at a step that diverges, then two runs a serial compare never starts
DIVERGING_SPEC = ("data = synth:toyclass\nl2 = 0.1\nepochs = 5\nout = %s\n[method]\nname = saga\n"
                  "[method]\nname = sag\ngamma = 1e6\n[method]\nname = svrg\n[method]\nname = sgd\n")


def _files(outdir):
    return {name: (outdir / name).read_bytes() for name in sorted(os.listdir(outdir))}


def test_compare_fanned_out_matches_serial(tmp_path, monkeypatch, capsys):
    # one CPU runs the grid in this process; two fan it out to two forked
    # workers. Traces, summary.csv and stdout are the same bytes. Every run()
    # starts with optimizers.resolve, which logs the process it runs in
    seen = {}
    real_resolve = optimizers.resolve
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        pids = tmp_path / ("pids%d" % cpus)
        monkeypatch.setattr(optimizers, "resolve", _log_pid(pids, real_resolve))
        outdir = tmp_path / ("grid%d" % cpus)
        spec = tmp_path / ("fan%d.spec" % cpus)
        spec.write_text(FAN_SPEC % "grid")
        monkeypatch.chdir(tmp_path)  # the same out = line in both specs
        assert _run("compare", str(spec)) == 0
        os.rename(tmp_path / "grid", outdir)
        seen[cpus] = _files(outdir), capsys.readouterr()
        assert len(_pids(pids)) == 12 and len(set(_pids(pids))) == cpus
        assert (os.getpid() in _pids(pids)) == (cpus == 1)
    assert len(seen[1][0]) == 13
    assert seen[1] == seen[2]


def test_compare_runs_in_process_beside_a_thread(tmp_path, monkeypatch):
    # fork copies only the calling thread, so a process running a second
    # thread runs its grid itself
    _cpus(monkeypatch, 2)
    pids = tmp_path / "pids"
    monkeypatch.setattr(optimizers, "resolve", _log_pid(pids, optimizers.resolve))
    spec = tmp_path / "fan.spec"
    spec.write_text(FAN_SPEC % (tmp_path / "grid"))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _run("compare", str(spec)) == 0
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert _pids(pids) == [os.getpid()] * 12


@pytest.mark.parametrize("cpus", [1, 2])
def test_compare_stops_at_the_first_divergence(cpus, tmp_path, monkeypatch, capsys):
    # fanned out or not, compare exits 3 after writing saga's trace and sag's
    # partial one: no later trace and no summary.csv, one diverged line
    _cpus(monkeypatch, cpus)
    outdir = tmp_path / "grid"
    spec = tmp_path / "div.spec"
    spec.write_text(DIVERGING_SPEC % outdir)
    assert _run("compare", str(spec)) == cli.EXIT_DIVERGED
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("diverged:")] == [
        "diverged: objective diverged (gamma=1000000.0) (sag seed 0)"]
    assert sorted(os.listdir(outdir)) == ["sag_seed0.csv", "saga_seed0.csv"]
    assert read_trace(str(outdir / "sag_seed0.csv"))[1]["diverged"] == "gamma=1000000"


# compare in a fresh process at two CPUs, then whether that process has a
# child left, live or unreaped. Every run() starts with optimizers.resolve,
# which appends its process's pid to the pid file; an svrg one misbehaves as
# the case says
CHILDREN_LEFT = """
import os, signal, sys, time
from vropt import cli, optimizers
os.sched_getaffinity = lambda pid: {0, 1}
case, spec, pids = sys.argv[1:]
compare = os.getpid()
real_resolve = optimizers.resolve
def resolve(config, obj):
    with open(pids, "a") as fh:
        fh.write("%d\\n" % os.getpid())
    if config.method == "svrg" and case == "dies" and config.seed == 1:
        os._exit(9)
    if config.method == "svrg" and case == "interrupt":
        os.killpg(0, signal.SIGINT)  # Ctrl-C at a terminal: the whole foreground group
        time.sleep(600)
    if config.method == "svrg" and case == "killed":
        os.kill(compare, signal.SIGKILL)
    if config.method == "svrg" and case == "worker interrupted":
        os.kill(os.getpid(), signal.SIGINT)
    return real_resolve(config, obj)
optimizers.resolve = resolve
try:
    rc = cli.main(["compare", spec])
except KeyboardInterrupt:
    rc = "interrupted"
try:
    os.waitpid(-1, os.WNOHANG)
    left = "child left"
except ChildProcessError:
    left = "no child"
print(rc, left)
"""


def _compare_case(case, spec, tmp_path):
    path = tmp_path / "case.spec"
    path.write_text(spec % (tmp_path / "grid"))
    return subprocess.run([sys.executable, "-c", CHILDREN_LEFT, case, str(path), str(tmp_path / "pids")],
                          capture_output=True, text=True, env=_src_env(), timeout=120, start_new_session=True)


@pytest.mark.parametrize("case, spec, rc", [
    ("ok", FAN_SPEC, "0"),
    ("diverges", DIVERGING_SPEC, "3"),
    ("dies", FAN_SPEC, "2"),
    ("interrupt", FAN_SPEC, "interrupted"),
    ("worker interrupted", FAN_SPEC, "0"),
], ids=["ok", "diverges", "dies", "interrupt", "worker-interrupted"])
def test_compare_leaves_no_process_running(case, spec, rc, tmp_path):
    # success, divergence, a worker that dies and Ctrl-C all end compare
    # promptly, with every worker ended and reaped. An interrupt is the
    # compare process's to take: one sent to a worker alone changes nothing
    proc = _compare_case(case, spec, tmp_path)
    assert proc.stdout.splitlines()[-1:] == ["%s no child" % rc], proc.stderr[-2000:]
    assert len(set(_pids(tmp_path / "pids"))) == 2  # two workers ran the grid
    if case == "dies":
        assert "error: the worker process running svrg-b16 seed 1 died\n" in proc.stderr
    if case in ("dies", "interrupt"):
        assert not (tmp_path / "grid" / "summary.csv").exists()
    if case in ("interrupt", "worker interrupted"):
        assert "Traceback" not in proc.stderr, proc.stderr[-2000:]


def _alive(pid):
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_compare_workers_exit_when_compare_is_killed(tmp_path):
    # a compare process killed outright ends no worker itself; each worker
    # sees its pipe close and exits quietly, rather than wait for an index
    # forever. Output is read to its end, so the workers have exited by then
    proc = _compare_case("killed", FAN_SPEC, tmp_path)
    assert proc.returncode == -signal.SIGKILL
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
    workers = set(_pids(tmp_path / "pids"))
    assert len(workers) == 2
    deadline = time.monotonic() + 60
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_alive, workers))


def test_import_cli_loads_no_process_machinery():
    # compare imports vropt.fanout, and that multiprocessing only when it
    # forks; importing the CLI (which every command pays) loads none of them
    # and no concurrent.futures
    code = ("import sys, vropt.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent') or m == 'vropt.fanout'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_src_env())
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
