import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vropt.bench_data import sparse_gaussian, toy_classification
from vropt.data import Dataset, RandomSource
from vropt.objectives import GlmObjective
from vropt.optimizers import ConfigError, RunConfig, run
from vropt.schedules import sample, uniform_scheme
from vropt.sparse_jit import LAZY_MIN_D, LazyIterate, choose_engine


@pytest.mark.parametrize("rho", [1.0, 0.97, 0.5])
def test_lazy_iterate_matches_dense(rho):
    """Protocol as in a sag step: read the sampled support, move it (decay,
    w*anchor and a row term), then change the anchor on that support. The
    dense twin applies every step to every coordinate immediately."""
    rng = np.random.default_rng(0)
    d = 30
    x0 = rng.normal(size=d)
    gsum = np.zeros(d)
    lazy = LazyIterate(x0, rho)
    lazy.anchor = gsum
    dense = x0.copy()
    for step in range(300):
        idx = np.unique(rng.integers(0, d, size=rng.integers(1, 5)))
        w = float(rng.normal() * 0.01)
        vec = rng.normal(size=idx.size) * 0.01
        lazy.read(idx)
        lazy.move(lazy.x, None, w, gsum, vec=vec)
        dense = rho * dense + w * gsum
        dense[idx] -= vec
        gsum[idx] += rng.normal(size=idx.size)
    out = lazy.materialize()
    scale = 1.0 + np.linalg.norm(dense)
    assert np.linalg.norm(out - dense) <= 1e-11 * scale
    assert lazy.k == 0 and not lazy.c.any()  # materialize rebases


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1.0, 0.999, 0.97, 0.5]), st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_dense_rows_step_as_eager(rho, seed, steps):
    # a row that covers every coordinate reads x as it is and moves it with
    # the eager move's arithmetic: rho*x + w*anchor, then -vec, bit for bit
    rng = np.random.default_rng(seed)
    d = 12
    x0 = rng.normal(size=d)
    gsum = rng.normal(size=d)
    lazy, eager = LazyIterate(x0.copy(), rho), x0.copy()
    lazy.anchor = gsum
    every = np.arange(d)
    for _ in range(steps):
        w = float(rng.normal() * 0.1)
        vec = rng.normal(size=d) * 0.1
        assert lazy.read(every).tobytes() == eager.tobytes()
        lazy.move(lazy.x, None, w, gsum, vec=vec)
        eager *= rho
        eager += w * gsum
        eager[every] -= vec
        assert lazy.x.tobytes() == eager.tobytes() and (lazy.c == lazy.k).all()
        gsum += rng.normal(size=d)


def test_lazy_iterate_exact_small():
    # hand-driven: coordinate 1 left stale across three steps on coordinate 0
    x0 = np.array([1.0, 2.0])
    rho = 0.5
    lazy = LazyIterate(x0, rho)
    gsum = np.array([0.0, 3.0])
    lazy.anchor = gsum
    for w in (-0.25, -0.125, -0.0625):
        lazy.read(np.array([0]))
        lazy.move(lazy.x, None, w, gsum)
    # coordinate 1 sees: x*rho^3 + sum_t w_t rho^(3-t) * gsum (gsum constant)
    expect = 2.0 * rho**3 - 3.0 * (0.25 * rho**2 + 0.125 * rho + 0.0625)
    assert lazy.read(np.array([1]))[0] == pytest.approx(expect, rel=1e-15)
    assert lazy.read(np.array([], dtype=np.int64)).size == 0  # an empty row is a no-op
    assert lazy.x[0] == rho**3
    out = lazy.materialize()
    assert out[1] == pytest.approx(expect, rel=1e-15)
    assert lazy.k == 0 and not lazy.c.any()


def test_lazy_iterate_rho_one_long_run():
    # rho == 1 takes the compensated-summation path; the steps touch only
    # coordinate 3, where the anchor is 0
    lazy = LazyIterate(np.zeros(4), 1.0)
    gsum = np.array([1e-8, 1.0, 0.0, 0.0])
    lazy.anchor = gsum
    total = 0.0
    for k in range(10000):
        lazy.read(np.array([3]))
        lazy.move(lazy.x, None, -1e-4, gsum)
        total += 1e-4
    out = lazy.materialize()
    assert out[0] == pytest.approx(-1e-8 * total, rel=1e-12)
    assert out[1] == pytest.approx(-total, rel=1e-12)
    assert out[2] == out[3] == 0.0
    # weights below half an ulp of G: a plain sum would stay at 1.0
    lazy.anchor = np.array([1.0, 0.0, 0.0, 0.0])
    for w in [1.0] + [1e-17] * 10000:
        lazy.read(np.array([3]))
        lazy.move(lazy.x, None, w, lazy.anchor)
    assert lazy.read(np.array([0]))[0] - out[0] - 1.0 == pytest.approx(1e-13, rel=1e-2, abs=0)


def test_jit_compatibility_reasons():
    data = sparse_gaussian(seed=0, n=60, d=40)
    obj = GlmObjective(data, "logistic", l2=0.01)
    good = RunConfig(method="saga", jit="on")
    assert choose_engine(good, obj, 0.1) == ("lazy", "jit = on")
    bad = [
        RunConfig(method="sarah", jit="on"),
        RunConfig(method="sgd_momentum", jit="on", beta=0.5),
        RunConfig(method="saga", jit="on", scheme=uniform_scheme(batch=2)),
        RunConfig(method="saga", jit="on", record_iterates=True),
        RunConfig(method="saga", jit="on", warm_start_sgd_epochs=1.0),
        RunConfig(method="saga", jit="on", armijo=1.0),
    ]
    for config in bad:
        engine, reason = choose_engine(config, obj, 0.1 if config.armijo is None else None)
        assert engine == "eager" and reason != "jit = on"
    l1 = GlmObjective(data, "logistic", l2=0.01, l1=0.05)
    assert choose_engine(good, l1, 0.1)[0] == "eager"
    # 1 - gamma*l2 <= 0 breaks the decay recurrence
    assert choose_engine(good, obj, 200.0)[0] == "eager"
    # the data's shape picks the engine under auto; off forces eager
    engine, reason = choose_engine(RunConfig(method="saga"), obj, 0.1)
    assert engine == "eager" and reason.startswith("d = 40 < %d" % LAZY_MIN_D)
    assert choose_engine(RunConfig(method="saga", jit="off"), obj, 0.1) == ("eager", "jit = off")
    for d, want in ((LAZY_MIN_D - 1, "eager"), (LAZY_MIN_D, "lazy")):
        wide = GlmObjective(Dataset([0, 1, 2], [0, d - 1], [1.0, 1.0], [1.0, -1.0], d), "logistic", l2=0.5)
        assert choose_engine(RunConfig(method="sag"), wide, 0.1)[0] == want
        assert choose_engine(RunConfig(method="sag", record_iterates=True), wide, 0.1)[0] == "eager"


def test_jit_on_raises_when_unavailable():
    data = toy_classification(seed=0, n=20, d=5)
    obj = GlmObjective(data, "logistic", l2=0.1)
    with pytest.raises(ConfigError, match="lazy updates"):
        run(RunConfig(method="sarah", jit="on"), obj)


@pytest.mark.parametrize("method", ["sag", "saga"])
def test_jit_run_parity(method):
    data = sparse_gaussian(seed=3, n=120, d=80)
    obj = GlmObjective(data, "logistic", l2=0.01)
    base = dict(method=method, epochs=4.0, seed=3, gamma=0.3,
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
    res = run(RunConfig(method="sarah", jit="auto", epochs=2.0, seed=0), obj)
    assert res.aux.get("jit") is not True
    assert res.aux["engine"] == "eager" and "lazy updates" in res.aux["engine_reason"]


def _equivalent(obj, **cfg):
    """Eager and lazy runs of one config: (x_rel, worst f_rel), after
    checking that both engines ran and checkpointed at the same counts."""
    plain = run(RunConfig(jit="off", **cfg), obj)
    lazy = run(RunConfig(jit="on", **cfg), obj)
    assert (plain.aux["engine"], lazy.aux["engine"]) == ("eager", "lazy")
    assert [r.grad_evals for r in lazy.records] == [r.grad_evals for r in plain.records]
    x_rel = float(np.linalg.norm(lazy.x - plain.x) / (1.0 + np.linalg.norm(plain.x)))
    f_rel = max(abs(rl.f - rp.f) / (1.0 + abs(rp.f)) for rp, rl in zip(plain.records, lazy.records))
    return x_rel, f_rel


@pytest.mark.parametrize("method", ["sag", "sgd", "sgd_star", "svrg"])
def test_lazy_matches_eager(method):
    # jit_equivalence's bounds (it runs saga) for every other lazy kernel:
    # sag's table, sgd without an anchor, sgd_star's l2*x* and svrg's stage
    # anchor, which changes at each refresh
    worst = (0.0, 0.0)
    for seed in range(10):
        obj = GlmObjective(sparse_gaussian(seed=seed), "logistic", l2=1e-3)
        cfg = dict(method=method, epochs=3.0, seed=seed, gamma=0.5 if method == "sgd" else None,
                   x_star=np.linspace(-0.5, 0.5, obj.d), inner_t=120)
        worst = tuple(map(max, worst, _equivalent(obj, **cfg)))
    assert worst[0] <= 1e-9 and worst[1] <= 1e-10, worst


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(["sag", "saga", "svrg"]), st.integers(0, 2**16), st.booleans())
def test_lazy_rho_one_long_runs(method, seed, one_checkpoint):
    # l2 = 0 makes rho = 1, where the prefix is a Kahan sum: 3000 steps,
    # with one checkpoint (no rebase until the end) or one per epoch
    obj = GlmObjective(sparse_gaussian(seed=seed % 7, n=60, d=40, density=0.1), "logistic", l2=0.0)
    epochs = 50.0
    x_rel, f_rel = _equivalent(obj, method=method, epochs=epochs, seed=seed, inner_t=30,
                               checkpoint_every=epochs if one_checkpoint else 1.0)
    assert x_rel <= 1e-9 and f_rel <= 1e-10, (x_rel, f_rel)


def test_svrg_touched_coords_recount():
    # touched_coords is the support sum of the rows the stages drew, replayed
    # from the seed; the refreshes, which bring all of x current, add none
    data = sparse_gaussian(seed=5, n=500, d=200)
    obj = GlmObjective(data, "logistic", l2=1e-3)
    t = 250
    res = run(RunConfig(method="svrg", epochs=3.0, seed=5, inner_t=t, jit="on"), obj)
    stages = math.ceil(3.0 * data.n / (data.n + 2 * t))
    assert res.grad_evals == stages * (data.n + 2 * t)
    rng, row_nnz = RandomSource(5), np.diff(data.indptr).tolist()
    recount = sum(row_nnz[int(sample(uniform_scheme(), rng, data.n)[0])] for _ in range(stages * t))
    assert res.aux["touched_coords"] == recount


def test_lazy_memory_bounded_by_data():
    # every checkpoint rebases the prefix, so a lazy run holds the same
    # memory at 1 and at 20 epochs (unrebased, the prefix grows with the run)
    obj = GlmObjective(sparse_gaussian(seed=0, n=600, d=20_000, density=0.001), "logistic", l2=1e-3)
    cfg = dict(method="saga", seed=0, jit="on")
    run(RunConfig(epochs=1.0, **cfg), obj)  # first-call caches
    peaks = []
    for epochs in (1.0, 20.0):
        tracemalloc.start()
        try:
            run(RunConfig(epochs=epochs, **cfg), obj)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks
