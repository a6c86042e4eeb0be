import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vropt.bench_data import toy_classification
from vropt.data import RandomSource
from vropt.objectives import GlmObjective, smoothness
from vropt.optimizers import ConfigError, RunConfig, run
from vropt.schedules import (
    armijo_stochastic,
    default_stepsize,
    lipschitz_scheme,
    minibatch_smoothness,
    sample,
    uniform_scheme,
)


def test_scheme_validation():
    uniform_scheme(batch=3)
    with pytest.raises(ValueError):
        uniform_scheme(batch=0)
    with pytest.raises(ValueError):
        lipschitz_scheme([1.0, -1.0])
    with pytest.raises(ValueError):
        lipschitz_scheme([0.0, 0.0])
    # an inf weight took every draw (probs [0, nan, 0]), a NaN weight made
    # every probability NaN and every draw index 0
    for weights in ([1.0, np.inf, 2.0], [1.0, np.nan, 2.0]):
        with pytest.raises(ValueError, match="positive and finite"):
            lipschitz_scheme(weights)


def test_sample_uniform_batches():
    scheme = uniform_scheme(batch=4)
    rng = RandomSource(0)
    for _ in range(50):
        batch = sample(scheme, rng, 10)
        assert len(batch) == 4
        assert len(set(int(i) for i in batch)) == 4  # without replacement
        assert all(0 <= int(i) < 10 for i in batch)
    with pytest.raises(ValueError):
        sample(uniform_scheme(batch=11), rng, 10)


def test_sample_uniform_batches_pinned():
    # three batches per (n, b, seed) and the draw after them, taken from the
    # O(n) pool shuffle this sampler replaced: same indices, same stream
    pinned = [
        (2, 2, 0, "bca9717af5ebb0430ac1154bce6e80f06e8f11cb0330304605503fdfa0df0fde", 269786713),
        (7, 3, 1, "4d2854d04794c44378ddbe2132efc1baac9f374bd21918247405ec9a61588cc8", 311831451),
        (8124, 16, 2, "e746ca1202fcfec5fe182354320a0131bf1503de445c94bc8766e469ba5f6011", 976606707),
        (50000, 64, 3, "1ac68bc3f9c2df1bd65d58b9cd762363d7560a2ed9a8b243fca21c53b42e9fd8", 304567239),
        (100, 100, 4, "3b78ed1bba7c323904da7d683de95609f1fcdc69253a8bb8f2d4f1b778ff19e1", 391786130),
    ]
    for n, b, seed, digest, after in pinned:
        rng = RandomSource(seed)
        batches = np.array([sample(uniform_scheme(b), rng, n) for _ in range(3)], dtype=np.int64)
        assert (hashlib.sha256(batches.tobytes()).hexdigest(), rng.integers(10**9)) == (digest, after)
    # a pool of 2**33 slots would take 64 GB; the batch needs only its own b
    batch = sample(uniform_scheme(16), RandomSource(0), 2**33)
    assert len(set(batch.tolist())) == 16 and 0 <= batch.min() and batch.max() < 2**33


def test_sample_deterministic():
    s1 = [int(sample(uniform_scheme(), RandomSource(5), 100)[0]) for _ in range(1)]
    s2 = [int(sample(uniform_scheme(), RandomSource(5), 100)[0]) for _ in range(1)]
    assert s1 == s2


def test_lipschitz_sampling_frequencies():
    # one heavy example should dominate the draw
    w = [10.0, 1.0, 1.0]
    scheme = lipschitz_scheme(w)
    rng = RandomSource(1)
    counts = np.zeros(3)
    for _ in range(6000):
        counts[int(sample(scheme, rng, 3)[0])] += 1
    freq = counts / counts.sum()
    assert freq[0] == pytest.approx(10.0 / 12.0, abs=0.02)


def test_policy_validation():
    # a run's stepsize is gamma, armijo's gamma_max, or the theory default;
    # run() rejects a gamma or gamma_max outside (0, inf) before any step
    obj = GlmObjective(toy_classification(seed=0, n=10, d=3), "logistic", l2=0.1)
    for kw in ({}, {"gamma": 0.5}, {"armijo": 1.0}):
        run(RunConfig(method="saga", epochs=1.0, **kw), obj)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="gamma must be positive and finite"):
            run(RunConfig(method="saga", gamma=bad), obj)
        with pytest.raises(ConfigError, match="gamma_max must be positive and finite"):
            run(RunConfig(method="saga", armijo=bad), obj)


def test_armijo_backtracks_past_non_finite_trials():
    # from gamma_max = 1e300 the first trials overflow to inf; they fail the
    # decrease test and halve like any other, without a warning
    obj = GlmObjective(toy_classification(seed=0, n=10, d=3), "half_squared", l2=0.1)
    x = np.ones(obj.d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma = armijo_stochastic(obj, 0, x, 1e300)
    assert 0 < gamma < 1e300
    gi = obj.grad_i(x, 0)
    assert obj.value_i(x - gamma * gi, 0) < obj.value_i(x, 0) - 0.5 * gamma * float(gi @ gi)


def test_minibatch_smoothness_endpoints():
    assert minibatch_smoothness(9.0, 2.0, 12, 1) == 9.0
    assert minibatch_smoothness(9.0, 2.0, 12, 12) == 2.0
    with pytest.raises(ValueError):
        minibatch_smoothness(9.0, 2.0, 12, 0)
    with pytest.raises(ValueError):
        minibatch_smoothness(9.0, 2.0, 12, 13)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 60), st.floats(0.01, 5.0), st.floats(1.0, 30.0))
def test_minibatch_smoothness_monotone(n, l_full, ratio):
    l_max = l_full * ratio
    vals = [minibatch_smoothness(l_max, l_full, n, b) for b in range(1, n + 1)]
    assert all(vals[k + 1] <= vals[k] + 1e-12 * l_max for k in range(n - 1))
    assert all(l_full - 1e-12 * l_max <= v <= l_max + 1e-12 * l_max for v in vals)


def test_default_stepsize_routing():
    ds = toy_classification(seed=2, n=20, d=5)
    obj = GlmObjective(ds, "logistic", l2=0.1)
    info = smoothness(obj)
    assert default_stepsize("sag", info) == pytest.approx(1.0 / info.l_max)
    assert default_stepsize("gd", info) == pytest.approx(1.0 / info.l_full)
    assert default_stepsize("svrg", info, lipschitz_scheme(info.per_example)) \
        == pytest.approx(1.0 / info.l_mean)
    b4 = default_stepsize("saga", info, uniform_scheme(batch=4))
    assert 1.0 / info.l_max < b4 <= 1.0 / info.l_full + 1e-12
    with pytest.raises(ValueError):
        default_stepsize("sgd", info)
    with pytest.raises(ValueError):
        default_stepsize("sdca", info)
