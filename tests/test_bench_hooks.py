import os

import pytest

from vropt import cli, optimizers, sparse_jit, validate
from vropt.bench_data import load_dataset, sparse_gaussian
from vropt.objectives import GlmObjective, smoothness
from vropt.schedules import minibatch_smoothness

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_perfbench_tracer_finds_every_hook(monkeypatch):
    """The traced benchmark wraps package names by module (perfbench/tracing.py
    targets()); a refactor that drops or moves one must fail here, not in a
    traced benchmark run."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    run, run_jit = optimizers.run, sparse_jit.run_jit
    tracer = tracing.Tracer(0)
    try:
        tracer.install()
        assert optimizers.run is not run and sparse_jit.run_jit is not run_jit
    finally:
        tracer.uninstall()
    assert optimizers.run is run and sparse_jit.run_jit is run_jit


def test_perfbench_traces_every_compare_run(tmp_path, monkeypatch):
    """The traced benchmark reads each run's span from the compare process's
    own span file. With the tracer's cli.run installed, compare runs its grid
    in that process even where it has CPUs to fan out to."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    spec = tmp_path / "g.spec"
    spec.write_text("data = synth:toyclass\nl2 = 0.1\nepochs = 2\nseeds = 0 1\nout = %s\n"
                    "[method]\nname = saga\n[method]\nname = svrg\n" % (tmp_path / "grid"))
    tracer = tracing.Tracer(0)
    try:
        tracer.install()
        assert tracer.call(tracing.ROOT, cli.main, ["compare", str(spec)]) == 0
    finally:
        tracer.uninstall()
    tracer.dump(str(tmp_path / "spans.npz"))
    spans = tracing.SpanFile(str(tmp_path / "spans.npz"))
    assert [method for _, method, _, _ in tracing.run_spans(spans, None)] == ["saga", "saga", "svrg", "svrg"]


def test_perfbench_traces_every_validate_run(tmp_path, monkeypatch):
    """The traced oracle op reads each check's runs from its own span file.
    With the tracer installed, validate runs every unit in the calling
    process, as many runs as a serial pass makes, even where it has CPUs to
    fan out to. The untraced op replaces only validate.run, with an eval
    counter; that leaves the units to fan out."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    checks = ("iterate_capture_2d", "scalar_table_equivalence")
    real = validate.run
    pids = {}
    for cpus in (1, 2):  # a serial pass, then a fanned one, counting runs by the process they ran in
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        log = tmp_path / ("pids%d" % cpus)

        def counted(*args, log=log):
            with open(log, "a") as fh:
                fh.write("%d\n" % os.getpid())
            return real(*args)

        monkeypatch.setattr(validate, "run", counted)
        assert all(res.passed for name in checks for res in validate.run_checks(only=name))
        pids[cpus] = [int(line) for line in log.read_text().split()]
    monkeypatch.setattr(validate, "run", real)
    assert pids[1] == [os.getpid()] * 4
    assert len(pids[2]) == 4 and os.getpid() not in pids[2]
    tracer = tracing.Tracer(0)
    try:
        tracer.install()
        assert all(res.passed for name in checks for res in validate.run_checks(only=name))
    finally:
        tracer.uninstall()
    tracer.dump(str(tmp_path / "spans.npz"))
    spans = tracing.SpanFile(str(tmp_path / "spans.npz"))
    assert [method for _, method, _, _ in tracing.run_spans(spans, None)] == ["sag", "sgd", "saga", "saga"]


def test_perfbench_dataset_hooks(monkeypatch):
    """The tracer's result hooks read Dataset.indptr and iterate Dataset.rows
    for the byte count; the rows' payload is the CSR arrays, once more."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    data = load_dataset("synth:sparse:0")
    nnz = int(data.indptr[-1])
    payload = data.col_indices.nbytes + data.col_values.nbytes
    assert tracing.parse_result(None, data) == {"nnz": nnz}
    assert tracing.dataset_result(None, data) == {
        "n": data.n, "d": data.d, "nnz": nnz,
        "bytes": 2 * payload + data.indptr.nbytes + data.labels.nbytes,
    }


def test_perfbench_command_lines_still_parse(tmp_path, monkeypatch):
    """The benchmark's compare spec and run argv are frozen with it: they must
    keep parsing, `--table scalar` included, while --table accepts nothing else,
    and the spec's blocks must resolve to the settings they name."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import inputs

    top, blocks = cli.parse_compare_spec(inputs.grid_spec(0, str(tmp_path / "grid")))
    assert [b.label for b in blocks] == [label for label, _ in inputs.GRID]
    assert top["seeds"] == [0] and all(b.epochs == inputs.GRID_EPOCHS and b.l2 is None for b in blocks)
    obj = GlmObjective(load_dataset("synth:toyclass"), "logistic", l2=0.1)
    configs = {b.label: cli._build_config(b, obj) for b in blocks}
    b16, lip, svrg, jit = configs["svrg-b16"], configs["saga-lip"], configs["svrg"], configs["saga-jit"]
    assert (b16.method, b16.scheme.batch, b16.scheme.kind) == ("svrg", 16, "uniform")
    assert b16.gamma is None and b16.armijo is None
    assert (lip.method, lip.scheme.batch, lip.scheme.kind) == ("saga", 1, "lipschitz")
    assert (svrg.inner_t, jit.method, jit.jit, blocks[2].table) == (inputs.MUSHROOMS_N, "saga", "auto", "scalar")
    info = smoothness(obj)
    plan = optimizers.resolve(b16, obj)
    assert plan.gamma == 1.0 / minibatch_smoothness(info.l_max, info.l_full, obj.n, 16)
    assert optimizers.resolve(lip, obj).gamma == 1.0 / info.l_mean
    parser = cli.build_parser()
    for method in inputs.SPARSE_METHODS:
        ns = parser.parse_args(["run", "--data", "sparse.svm", "--loss", "logistic", "--l2", "2e-05",
                                "--method", method, "--table", "scalar", "--epochs", "1", "--seed", "0",
                                "--out", str(tmp_path / "t.csv"), "--times", "--inner-t", "10000"])
        assert (ns.method, ns.table, ns.jit) == (method, "scalar", "auto")
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["run", "--data", "synth:tiny", "--method", "saga", "--table", "dense"])
    assert exc.value.code == cli.EXIT_USAGE


def test_perfbench_reads_run_results(monkeypatch):
    """tracing.run_result reads the table's mode, s, gsum and seen and the
    lazy engine's prefix from a RunResult."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    obj = GlmObjective(sparse_gaussian(seed=0, n=60, d=40), "logistic", l2=0.01)
    for config, lazy in ((optimizers.RunConfig(method="sag", epochs=1.0), False),
                         (optimizers.RunConfig(method="saga", epochs=1.0, jit="on"), True)):
        res = optimizers.run(config, obj)
        got = tracing.run_result((config, obj), res)
        assert (got["method"], got["evals"], got["lazy"]) == (config.method, 60, lazy)
        assert got["table_bytes"] == 60 * 8 + 40 * 8 + 60
        assert (got["touched"] > 0) is lazy and got["prefix_bytes"] == 0  # the lazy engine holds no prefix


def test_perfbench_splits_cold_and_warm_reference_solves(tmp_path, monkeypatch):
    """The traced benchmark counts a reference solve as warm when a vecio.read
    span sits directly under it (tracing.layer_metrics). A cold solve-ref
    must read no vector, even on its way to a miss, and a warm one reads the
    entry's x* once."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    argv = ["solve-ref", "--data", "synth:toyclass", "--l2", "0.1", "--out", str(tmp_path / "ref")]
    tracer = tracing.Tracer(0)
    try:
        tracer.install()
        for _ in range(2):
            assert tracer.call(tracing.ROOT, cli.main, argv) == 0
    finally:
        tracer.uninstall()
    tracer.dump(str(tmp_path / "spans.npz"))
    spans = tracing.SpanFile(str(tmp_path / "spans.npz"))
    cold, warm = spans.outermost(tracing.REF)
    reads = [spans.parent[i] for i in spans.outermost("vecio.read")]
    assert reads == [warm]
    m = tracing.layer_metrics([spans], [[]], [], {})
    assert m["diag.solve_reference_cold_s"][0] == spans.dur[cold] > 0
    assert m["diag.solve_reference_warm_s"][0] == spans.dur[warm] > 0
