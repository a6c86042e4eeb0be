import os

from vropt import optimizers, sparse_jit

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
