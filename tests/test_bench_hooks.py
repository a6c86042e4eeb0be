import os

from vropt import optimizers, sparse_jit
from vropt.bench_data import load_dataset

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
