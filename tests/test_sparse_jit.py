import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vropt.bench_data import sparse_gaussian, toy_classification
from vropt.objectives import GlmObjective
from vropt.optimizers import ConfigError, RunConfig, run
from vropt.schedules import armijo_policy, uniform_scheme
from vropt.sparse_jit import LazyIterate, jit_compatible


@pytest.mark.parametrize("rho", [1.0, 0.97, 0.5])
def test_lazy_iterate_matches_dense(rho):
    """Protocol as in the run driver: push, catch the sampled support up
    through the new push, then mutate gsum on that support. The dense twin
    applies every push to every coordinate immediately."""
    rng = np.random.default_rng(0)
    d = 30
    x0 = rng.normal(size=d)
    lazy = LazyIterate(x0, rho)
    dense = x0.copy()
    gsum = np.zeros(d)
    for step in range(300):
        idx = np.unique(rng.integers(0, d, size=rng.integers(1, 5)))
        w = float(rng.normal() * 0.01)
        lazy.push_weight(w)
        lazy.catch_up(idx, gsum)
        dense = rho * dense - w * gsum
        delta = rng.normal(size=idx.size)
        gsum[idx] += delta
    out = lazy.materialize(gsum)
    scale = 1.0 + np.linalg.norm(dense)
    assert np.linalg.norm(out - dense) <= 1e-11 * scale


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1.0, 0.999, 0.97, 0.5]), st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_catch_up_one_is_catch_up(rho, seed, steps):
    # after a push, coordinates current through the previous step catch up
    # by one step: catch_up_one must give catch_up's bits
    rng = np.random.default_rng(seed)
    d = 12
    x0 = rng.normal(size=d)
    one, ref = LazyIterate(x0.copy(), rho), LazyIterate(x0.copy(), rho)
    gsum = rng.normal(size=d)
    for _ in range(steps):
        idx = np.flatnonzero(rng.random(d) < 0.4)  # others stay stale, some for many steps
        w = float(rng.normal() * 0.1)
        for lazy in (one, ref):
            lazy.catch_up(idx, gsum)
            lazy.push_weight(w)
        one.catch_up_one(idx, gsum)
        ref.catch_up(idx, gsum)
        assert one.x.tobytes() == ref.x.tobytes() and np.array_equal(one.c, ref.c)
        gsum[idx] += rng.normal(size=idx.size)


def test_lazy_iterate_exact_small():
    # hand-driven: one coordinate left stale across three pushes
    x0 = np.array([1.0, 2.0])
    rho = 0.5
    lazy = LazyIterate(x0, rho)
    gsum = np.array([0.0, 3.0])
    for w in (0.25, 0.125, 0.0625):
        lazy.push_weight(w)
    # x0 coord sees: x*rho^3 - sum_t w_t rho^(3-t) * gsum (gsum constant)
    lazy.catch_up(np.array([1]), gsum)
    expect = 2.0 * rho**3 - 3.0 * (0.25 * rho**2 + 0.125 * rho + 0.0625)
    assert lazy.x[1] == pytest.approx(expect, rel=1e-15)
    lazy.catch_up(np.array([], dtype=np.int64), gsum)  # an empty row is a no-op
    out = lazy.materialize(gsum)
    assert out[0] == pytest.approx(1.0 * rho**3 - 0.0, rel=1e-15)


def test_lazy_iterate_rho_one_long_run():
    # rho == 1 takes the compensated-summation path
    x0 = np.zeros(3)
    lazy = LazyIterate(x0, 1.0)
    gsum = np.array([1e-8, 1.0, 0.0])
    total = 0.0
    for k in range(10000):
        lazy.push_weight(1e-4)
        total += 1e-4
    out = lazy.materialize(gsum)
    assert out[0] == pytest.approx(-1e-8 * total, rel=1e-12)
    assert out[1] == pytest.approx(-total, rel=1e-12)
    assert out[2] == 0.0


def test_jit_compatibility_reasons():
    data = sparse_gaussian(seed=0, n=60, d=40)
    obj = GlmObjective(data, "logistic", l2=0.01)
    good = RunConfig(method="saga", table_mode="scalar", jit="on")
    assert jit_compatible(good, obj, 0.1) is None
    bad = [
        RunConfig(method="svrg", jit="on"),
        RunConfig(method="saga", table_mode="dense", jit="on"),
        RunConfig(method="saga", table_mode="scalar", jit="on",
                  scheme=uniform_scheme(batch=2)),
        RunConfig(method="saga", table_mode="scalar", jit="on", record_iterates=True),
        RunConfig(method="saga", table_mode="scalar", jit="on", warm_start_sgd_epochs=1.0),
        RunConfig(method="saga", table_mode="scalar", jit="on", policy=armijo_policy()),
    ]
    for config in bad:
        assert jit_compatible(config, obj, 0.1 if config.policy is None else None)
    l1 = GlmObjective(data, "logistic", l2=0.01, l1=0.05)
    assert jit_compatible(good, l1, 0.1)
    # 1 - gamma*l2 <= 0 breaks the decay recurrence
    assert jit_compatible(good, obj, 200.0)


def test_jit_on_raises_when_unavailable():
    data = toy_classification(seed=0, n=20, d=5)
    obj = GlmObjective(data, "logistic", l2=0.1)
    with pytest.raises(ConfigError):
        run(RunConfig(method="svrg", jit="on"), obj)


@pytest.mark.parametrize("method", ["sag", "saga"])
def test_jit_run_parity(method):
    data = sparse_gaussian(seed=3, n=120, d=80)
    obj = GlmObjective(data, "logistic", l2=0.01)
    base = dict(method=method, epochs=4.0, seed=3, table_mode="scalar", gamma=0.3,
                var_epochs=frozenset({1, 3}))
    plain = run(RunConfig(jit="off", **base), obj)
    lazy = run(RunConfig(jit="on", **base), obj)
    assert np.linalg.norm(lazy.x - plain.x) <= 1e-12 * (1 + np.linalg.norm(plain.x))
    assert [r.grad_evals for r in lazy.records] == [r.grad_evals for r in plain.records]
    assert [r.epoch for r in lazy.records if r.var_est is not None] == [1, 3]
    for rp, rl in zip(plain.records, lazy.records):
        assert rl.f == pytest.approx(rp.f, rel=1e-13)
        assert rl.grad_norm == pytest.approx(rp.grad_norm, rel=1e-10, abs=1e-14)
    assert lazy.aux.get("jit") is True
    assert lazy.aux["touched_coords"] > 0
    steps = 4 * data.n
    assert lazy.aux["touched_coords"] < 0.2 * steps * data.d  # sublinear in d


def test_jit_auto_falls_back():
    data = sparse_gaussian(seed=1, n=50, d=30)
    obj = GlmObjective(data, "logistic", l2=0.01)
    res = run(RunConfig(method="svrg", jit="auto", epochs=2.0, seed=0), obj)
    assert res.aux.get("jit") is not True
