import hashlib
import tracemalloc

import numpy as np
import pytest

from vropt.bench_data import blobs_2d, sparse_gaussian, tiny, toy_classification, toy_regression
from vropt.data import Dataset, RandomSource
from vropt.diag import dual_objective, solve_reference
from vropt.objectives import GlmObjective, smoothness
from vropt.optimizers import (
    DRAW_BLOCK,
    ConfigError,
    DivergenceError,
    DualState,
    GradientTable,
    MomentumState,
    RunConfig,
    SarahState,
    SvrgState,
    index_batches,
    method_kernel,
    run,
    sarah_refresh,
    star_table,
    svrg_outer_refresh,
)
from vropt.schedules import lipschitz_scheme, sample, uniform_scheme
from vropt.validate import _dense_table_saga


def _one_example(a=2.0, b=1.0, l2=0.0):
    ds = Dataset([0, 1], [0], [a], [b], 1)
    return GlmObjective(ds, "half_squared", l2=l2)


def _two_example(l2=0.0):
    ds = Dataset([0, 1, 2], [0, 0], [2.0, 1.0], [1.0, 1.0], 1)
    return GlmObjective(ds, "half_squared", l2=l2)


def test_saga_stores_after_step():
    # With a zero table: x1 = 2*gamma; the fresh scalar only enters step 2.
    obj = _one_example()
    step = method_kernel("saga", obj, 1, GradientTable(obj))
    x = np.zeros(1)
    g = 0.1
    step(x, [0], g)
    assert x[0] == pytest.approx(2 * g, rel=1e-15)
    step(x, [0], g)
    assert x[0] == pytest.approx(4 * g - 8 * g * g, rel=1e-14)


def test_sag_refreshes_before_step():
    # SAG divides by n even with one example seen; SAGA subtracts the full
    # correction. Same draw, different update.
    g = 0.1
    obj = _two_example()
    x = np.zeros(1)
    method_kernel("sag", obj, 1, GradientTable(obj))(x, [0], g)
    assert x[0] == pytest.approx(g, rel=1e-15)  # gsum/2

    x2 = np.zeros(1)
    method_kernel("saga", obj, 1, GradientTable(obj))(x2, [0], g)
    assert x2[0] == pytest.approx(2 * g, rel=1e-15)


def test_saga_repeated_row_stored_once():
    # with-replacement batches can draw a row twice: the move counts both
    # draws, the table and its running sum take the row once
    obj = _two_example()
    table = GradientTable(obj)
    x = np.zeros(1)
    method_kernel("saga", obj, 2, table)(x, [0, 0], 0.1)
    assert x[0] == pytest.approx(0.2, rel=1e-15)  # (g/2)*(2 + 2)
    assert (table.s[0], table.gsum[0]) == (-1.0, -2.0)
    # a 20-epoch Lipschitz mini-batch run keeps the running sum exact
    ds = toy_classification(seed=0, n=20, d=5)
    obj = GlmObjective(ds, "logistic", l2=0.1)
    info = smoothness(obj)
    res = run(RunConfig(method="saga", epochs=20.0, seed=0, gamma=0.5 / info.l_max,
                        scheme=lipschitz_scheme(info.per_example, batch=4)), obj)
    assert res.aux["table"].mean_rel_error(obj) <= 1e-14
    assert res.records[-1].grad_norm <= 1e-4


def test_sgd_star_single_steps():
    # x+ = x - g*(grad f_B(x) - grad f_B(x*)), x* here any anchor point
    g, xs = 0.1, np.array([0.25])
    obj = _one_example(l2=0.5)  # grad f(x) = 2(2x - 1) + x/2
    star = star_table(obj, xs)
    x = np.ones(1)
    method_kernel("sgd_star", obj, 1, star)(x, [0], g)
    assert x[0] == pytest.approx(1.0 - g * (2.5 + 0.875), rel=1e-14)
    obj = _two_example()  # mean over the batch of a_j^2 (x - x*) = 2.5 (x - x*)
    star = star_table(obj, xs)
    x = np.ones(1)
    method_kernel("sgd_star", obj, 2, star)(x, [0, 1], g)
    assert x[0] == pytest.approx(1.0 - g * 2.5 * 0.75, rel=1e-14)


def test_svrg_inner_single_steps():
    # x+ = x - g*(grad f_B(x) - grad f_B(x_ref) + grad f(x_ref)), x_ref = 0
    g = 0.1
    for obj, batch, direction in (
        (_one_example(l2=0.5), [0], 2.5),  # one example: grad f(1)
        (_two_example(l2=0.5), [0], 2.5 + 2.0 - 1.5),
        (_two_example(l2=0.5), [0, 1], 1.5),  # the full batch: grad f(1)
    ):
        state = svrg_outer_refresh(SvrgState(t=1), obj, np.zeros(1))
        x = np.ones(1)
        method_kernel("svrg", obj, len(batch), state)(x, batch, g)
        assert x[0] == pytest.approx(1.0 - g * direction, rel=1e-14)


def test_sarah_single_steps():
    # g_k = g_{k-1} + grad f_B(x_k) - grad f_B(x_{k-1}); x+ = x - gamma*g_k
    g = 0.1
    obj = _one_example(l2=0.5)  # one example: plain gradient descent
    step = method_kernel("sarah", obj, 1, sarah_refresh(SarahState(t=2), obj, np.ones(1)))
    x = np.ones(1)
    step(x, [0], g)
    assert x[0] == pytest.approx(0.75, rel=1e-15)
    step(x, [0], g)
    assert x[0] == pytest.approx(0.75 - g * 1.375, rel=1e-14)
    obj = _two_example(l2=0.5)
    step = method_kernel("sarah", obj, 1, sarah_refresh(SarahState(t=2), obj, np.ones(1)))
    x = np.ones(1)
    step(x, [1], g)
    assert x[0] == pytest.approx(0.85, rel=1e-14)
    step(x, [0], g)  # g = 1.5 + grad f_0(0.85) - grad f_0(1)
    assert x[0] == pytest.approx(0.85 - g * (1.5 - 0.675), rel=1e-14)


def test_gd_one_step_quadratic():
    obj = _one_example(a=1.0, b=2.0)  # f(x) = 0.5 (x-2)^2, L = 1
    res = run(RunConfig(method="gd", gamma=1.0, epochs=1.0), obj)
    assert res.x[0] == pytest.approx(2.0, rel=1e-15)
    assert res.grad_evals == obj.n


def test_momentum_accumulation():
    obj = _one_example(a=1.0, b=1.0)
    x = np.zeros(1)
    step = method_kernel("sgd_momentum", obj, 1, MomentumState(np.zeros(1), beta=0.5))
    step(x, [0], 0.1)
    assert x[0] == pytest.approx(0.1, rel=1e-15)
    step(x, [0], 0.1)
    # m2 = 0.5*(-1) + (x1-1) = -1.4
    assert x[0] == pytest.approx(0.24, rel=1e-14)


def test_sgd_star_fixed_point():
    ds = toy_classification(seed=0, n=30, d=6)
    obj = GlmObjective(ds, "logistic", l2=0.1)
    x_star, _ = solve_reference(obj, tol=1e-13, cache=False)
    res = run(RunConfig(method="sgd_star", epochs=1.0, seed=1, gamma=0.5,
                        x_star=x_star), obj, x0=x_star)
    # the shifted estimator vanishes at the solution, so nothing moves
    assert np.allclose(res.x, x_star, rtol=0, atol=1e-13)


def test_svrg_eval_accounting():
    ds = toy_classification(seed=0, n=40, d=5)
    obj = GlmObjective(ds, "logistic", l2=0.1)
    res = run(RunConfig(method="svrg", epochs=3.0, seed=0, inner_t=40), obj)
    # every stage: n refresh evals + t inner steps at 2 evals each
    assert res.grad_evals == 3 * 40
    evals = [r.grad_evals for r in res.records]
    assert evals == sorted(evals)
    assert res.records[0].grad_evals == 0


def test_checkpoint_cadence():
    ds = toy_classification(seed=0, n=50, d=5)
    obj = GlmObjective(ds, "logistic", l2=0.1)
    res = run(RunConfig(method="saga", epochs=5.0, seed=0), obj)
    assert [r.epoch for r in res.records] == [0, 1, 2, 3, 4, 5]
    res2 = run(RunConfig(method="saga", epochs=5.0, seed=0, checkpoint_every=2.0), obj)
    assert [r.epoch for r in res2.records] == [0, 2, 4, 5]


def test_checkpoint_takes_one_product_pair():
    # a smooth checkpoint takes f and its gradient norm from one A x (and
    # one A^T s); a gbar checkpoint reads the table's sum, so A x alone
    obj = GlmObjective(toy_classification(seed=0, n=50, d=5), "logistic", l2=0.1)
    products = []
    for name in ("margins", "weighted_sum"):
        real = getattr(obj.data, name)
        setattr(obj.data, name, lambda v, real=real, name=name: products.append(name) or real(v))
    for stop, per_checkpoint in (("epochs", ["margins", "weighted_sum"]), ("gbar:0", ["margins"])):
        products.clear()
        res = run(RunConfig(method="sag", epochs=1.0, seed=0, gamma=0.1, stop=stop), obj)
        assert len(res.records) == 2 and res.records[1].grad_norm is not None
        assert products == 2 * per_checkpoint, stop


def test_epochs_zero_single_record():
    ds = tiny(seed=0)
    obj = GlmObjective(ds, "logistic", l2=0.1)
    res = run(RunConfig(method="saga", epochs=0.0), obj)
    assert len(res.records) == 1
    assert res.records[0].grad_evals == 0
    assert np.array_equal(res.x, np.zeros(obj.d))


def test_warm_start_prefix():
    ds = toy_classification(seed=0, n=50, d=5)
    obj = GlmObjective(ds, "logistic", l2=0.1)
    cold = run(RunConfig(method="sag", epochs=2.0, seed=3), obj)
    warm = run(RunConfig(method="sag", epochs=2.0, seed=3,
                         warm_start_sgd_epochs=1.0), obj)
    assert warm.grad_evals == cold.grad_evals + 50
    assert warm.records[-1].epoch == pytest.approx(3.0)
    assert not np.allclose(warm.x, cold.x)


def test_stop_rule_gbar():
    ds = toy_classification(seed=0, n=50, d=5)
    obj = GlmObjective(ds, "logistic", l2=0.1)
    for engine in ({}, {"jit": "on"}):
        res = run(RunConfig(method="saga", epochs=500.0, seed=0, stop="gbar:1e-6", **engine), obj)
        assert res.aux.get("jit", False) == bool(engine)
        assert res.records[-1].grad_norm <= 1e-6
        assert res.records[-1].epoch < 500.0


def test_stop_rule_gap():
    ds = toy_classification(seed=0, n=50, d=5)
    obj = GlmObjective(ds, "logistic", l2=0.1)
    res = run(RunConfig(method="sdca", epochs=500.0, seed=0, stop="gap:1e-10"), obj)
    assert res.records[-1].gap <= 1e-10
    assert res.records[-1].epoch < 500.0


def test_record_iterates_cadence():
    ds = tiny(seed=0)
    obj = GlmObjective(ds, "logistic", l2=0.1)
    res = run(RunConfig(method="sgd", gamma=0.1, epochs=5.0, seed=0,
                        record_iterates=True), obj)
    # the start, then every step: 5 epochs * n=6, one row each
    assert res.iterates.shape == (31, obj.d)
    assert np.array_equal(res.iterates[-1], res.x)
    assert run(RunConfig(method="sgd", gamma=0.1, epochs=5.0, seed=0), obj).iterates.shape == (0, obj.d)


def test_record_iterates_memory_is_one_array():
    # the iterates of validate's iterate_capture_2d sag run (24,000 steps)
    # live in one float64 array grown by doubling, so a recording run's
    # peak is at most 2.5 * 16 bytes per recorded row plus a constant (the
    # same run unrecorded peaks near 70 kB here)
    obj = GlmObjective(blobs_2d(seed=0), "logistic", l2=0.1)
    config = RunConfig(method="sag", epochs=60.0, seed=2, gamma=1.0 / smoothness(obj).l_max,
                       record_iterates=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = run(config, obj)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    rows = 60 * obj.n + 1
    assert peak <= 2.5 * 16 * rows + 256_000
    assert res.iterates.shape == (rows, 2) and res.iterates.dtype == np.float64


def test_sdca_rejects_x0():
    # sdca steps its dual's w from v = 0; an x0 would be silently ignored
    obj = GlmObjective(toy_classification(seed=1, n=40, d=6), "logistic", l2=0.2)
    with pytest.raises(ConfigError, match="x0"):
        run(RunConfig(method="sdca", epochs=1.0), obj, x0=np.ones(obj.d))


def test_uniform_batch_above_n_is_a_config_error():
    # resolve() rejects it before any step; lipschitz batches draw with
    # replacement, so any size is allowed there
    obj = GlmObjective(tiny(seed=0), "logistic", l2=0.1)
    for method in ("gd", "saga", "svrg"):
        with pytest.raises(ConfigError, match="batch 7 exceeds n=6 without replacement"):
            run(RunConfig(method=method, gamma=0.1, epochs=1.0, scheme=uniform_scheme(batch=7)), obj)
    assert run(RunConfig(method="saga", gamma=0.1, epochs=1.0,
                         scheme=uniform_scheme(batch=6)), obj).grad_evals == 6
    lip = lipschitz_scheme(smoothness(obj).per_example, batch=7)
    assert run(RunConfig(method="saga", gamma=0.1, epochs=2.0, scheme=lip), obj).grad_evals == 14


def test_sdca_dual_ascent_and_w_consistency():
    ds = toy_classification(seed=1, n=40, d=6)
    obj = GlmObjective(ds, "logistic", l2=0.2)
    dual = DualState(obj)
    step = method_kernel("sdca", obj, 1, dual)
    rng = np.random.default_rng(0)
    last = dual_objective(obj, dual)
    for _ in range(100):
        gain = step(dual.w, [int(rng.integers(obj.n))], None)
        now = dual_objective(obj, dual)
        assert gain >= -1e-12
        # reported gain is n * (dual increase)
        assert gain == pytest.approx(obj.n * (now - last), rel=1e-8, abs=1e-12)
        last = now
    assert dual.w_rel_error(obj) <= 1e-12


def test_divergence_carries_partial_trace():
    ds = toy_classification(seed=0, n=50, d=5)
    obj = GlmObjective(ds, "logistic", l2=0.1)
    with pytest.raises(DivergenceError) as exc:
        run(RunConfig(method="sgd", gamma=1e6, epochs=10.0, seed=0), obj)
    err = exc.value
    assert err.gamma == 1e6
    assert err.records and err.records[0].grad_evals == 0
    assert all(np.isfinite(r.f) for r in err.records)
    # the lazy engine shares the dense driver's recorder
    sq = GlmObjective(sparse_gaussian(seed=0), "half_squared", l2=1e-4)
    for jit in ("off", "on"):
        with pytest.raises(DivergenceError) as exc:
            run(RunConfig(method="saga", jit=jit, gamma=50.0,
                          epochs=10.0, seed=0), sq)
        assert exc.value.gamma == 50.0
        assert [r.grad_evals for r in exc.value.records] == [0, sq.n]


def test_config_validation():
    ds = toy_classification(seed=0, n=20, d=4)
    obj = GlmObjective(ds, "logistic", l2=0.1)
    hinge = GlmObjective(ds, "hinge", l2=0.1)
    reg = GlmObjective(toy_regression(seed=0), "half_squared", l2=0.1, l1=0.05)
    cases = [
        (RunConfig(method="adam"), obj),
        (RunConfig(method="sag"), hinge),
        (RunConfig(method="sgd_momentum", gamma=0.1), obj),  # beta unset
        (RunConfig(method="sgd_star", gamma=0.1), obj),
        (RunConfig(method="sdca", scheme=uniform_scheme(batch=2)), obj),
        (RunConfig(method="saga", epochs=-1.0), obj),
        (RunConfig(method="saga", epochs=float("inf")), obj),
        (RunConfig(method="saga", epochs=float("nan")), obj),
        (RunConfig(method="saga", gamma=0.1, warm_start_sgd_epochs=float("inf")), obj),
        (RunConfig(method="saga", gamma=0.1, warm_start_sgd_epochs=float("nan")), obj),
        (RunConfig(method="saga", gamma=0.1, warm_start_sgd_epochs=-1.0), obj),
        (RunConfig(method="svrg", inner_t=0), obj),
        (RunConfig(method="svrg", inner_t=-3), obj),
        (RunConfig(method="saga", checkpoint_every=0.0), obj),
        (RunConfig(method="saga", checkpoint_every=-1.0), obj),
        (RunConfig(method="saga", checkpoint_every=float("inf")), obj),
        (RunConfig(method="saga", seed=-1), obj),
        (RunConfig(method="sdca", warm_start_sgd_epochs=1.0), obj),
        (RunConfig(method="sag", stop="gap:1e-6", gamma=0.1), obj),
        (RunConfig(method="sgd", stop="gbar:1e-6", gamma=0.1), obj),
        (RunConfig(method="sdca", stop="grad:1e-6"), obj),
        (RunConfig(method="gd", armijo=1.0), obj),
        (RunConfig(method="saga", armijo=1.0, scheme=uniform_scheme(batch=2)), obj),
        (RunConfig(method="sdca", gamma=0.1), obj),
        (RunConfig(method="sdca", armijo=1.0), obj),
        (RunConfig(method="saga", epochs=1e308), obj),  # x*n overflows: run() rounded it to an int
        (RunConfig(method="saga", gamma=0.1, warm_start_sgd_epochs=1e308), obj),
        (RunConfig(method="saga", checkpoint_every=1e308), obj),
        (RunConfig(method="sgd_momentum", gamma=0.1, beta=1.0), obj),
        (RunConfig(method="saga", gamma=0.1, jit="of"), obj),
        # a negative gamma ran (and ascended), 0 ran without moving, and NaN
        # or inf surfaced as divergence at the first checkpoint
        *((RunConfig(method=m, gamma=g), obj) for m in ("sag", "svrg", "gd") for g in (-1.0, 0.0, np.nan, np.inf)),
    ]
    for config, o in cases:
        with pytest.raises(ConfigError):
            run(config, o)


def test_scalar_table_matches_dense_storage():
    # the scalar table against validate's replay with an explicit n x d
    # table: the same iterates and checkpoint values, bit for bit
    ds = toy_classification(seed=2, n=25, d=6)
    obj = GlmObjective(ds, "logistic", l2=0.1)
    g = 0.5 / smoothness(obj).l_max
    for seed in (0, 4):
        res = run(RunConfig(method="saga", epochs=4.0, seed=seed, gamma=g), obj)
        x, fs = _dense_table_saga(obj, g, seed, 4.0)
        assert res.aux["engine"] == "eager"
        assert np.array_equal(res.x, x)
        assert [r.f for r in res.records] == fs
        assert res.aux["table"].mean_rel_error(obj) <= 1e-14


def test_sarah_descends():
    ds = toy_classification(seed=0, n=50, d=8)
    obj = GlmObjective(ds, "logistic", l2=0.1)
    info = smoothness(obj)
    res = run(RunConfig(method="sarah", epochs=10.0, seed=0,
                        gamma=0.5 / info.l_max), obj)
    assert res.records[-1].f < res.records[0].f
    assert res.records[-1].grad_norm < 1e-3


def test_armijo_policy_runs():
    ds = toy_classification(seed=0, n=30, d=5)
    obj = GlmObjective(ds, "logistic", l2=0.1)
    res = run(RunConfig(method="saga", epochs=5.0, seed=0,
                        armijo=10.0), obj)
    assert res.records[-1].f < res.records[0].f


def test_prox_run_sparsifies():
    obj = GlmObjective(toy_regression(seed=3), "half_squared", l2=0.01, l1=0.05)
    info = smoothness(obj)
    res = run(RunConfig(method="saga", epochs=100.0, seed=0,
                        gamma=1.0 / (3 * info.l_max)), obj)
    assert (res.x == 0.0).any() and (res.x != 0.0).any()


def test_lipschitz_sampling_runs():
    ds = toy_classification(seed=5, n=40, d=6)
    obj = GlmObjective(ds, "logistic", l2=0.1)
    info = smoothness(obj)
    res = run(RunConfig(method="saga", epochs=20.0, seed=0,
                        scheme=lipschitz_scheme(info.per_example)), obj)
    assert res.records[-1].grad_norm < 1e-4


def test_minibatch_run():
    # batched inner steps charge 2b evals; stages stop at outer boundaries
    ds = toy_classification(seed=6, n=48, d=6)
    obj = GlmObjective(ds, "logistic", l2=0.1)
    res = run(RunConfig(method="svrg", epochs=12.0, seed=0,
                        scheme=uniform_scheme(batch=4)), obj)
    assert res.records[-1].f < res.records[0].f
    assert res.records[-1].grad_norm < 0.05
    assert res.grad_evals >= 12 * 48


def test_index_batches_match_sample():
    # block draws continue the stream exactly as one sample() call per draw,
    # across block boundaries (k batches span three blocks), mini-batches
    # (b = n included) as well as single draws
    k = 2 * DRAW_BLOCK + 5
    cases = [(uniform_scheme(), n) for n in (1, 7, 8124, 2**33)]
    cases += [(uniform_scheme(batch=3), 7), (uniform_scheme(batch=16), 8124), (uniform_scheme(batch=5), 5)]
    cases += [(lipschitz_scheme([1.0, 2.0, 3.0, 4.0], batch=2), 4),
              (lipschitz_scheme([5.0, 1.0, 0.5, 3.0, 2.0], batch=3), 5), (lipschitz_scheme([1.0, 9.0]), 2)]
    for scheme, n in cases:
        draws = index_batches(scheme, RandomSource(3), n)
        rng = RandomSource(3)
        for _ in range(k):
            assert next(draws) == sample(scheme, rng, n).tolist()
    # a weight vector of the wrong length fails as sample() does
    with pytest.raises(ValueError, match="weight vector length"):
        next(index_batches(lipschitz_scheme([1.0, 2.0]), RandomSource(0), 3))


def test_run_final_iterates_pinned():
    # sha256 of the final iterate and the eval count, pinned: block draws
    # must replay the one-draw-per-call index stream. Each run draws more
    # than DRAW_BLOCK indices, so leftovers cross the warm phase, svrg stages
    # (inner_t does not divide the block) and the sdca and lazy loops
    cls = GlmObjective(toy_classification(seed=0, n=300, d=8), "logistic", l2=0.01)
    sp = GlmObjective(sparse_gaussian(seed=0), "logistic", l2=1e-3)
    lip = lipschitz_scheme(smoothness(cls).per_example)
    lip4 = lipschitz_scheme(smoothness(cls).per_example, batch=4)
    cls_l1 = GlmObjective(toy_classification(seed=0, n=300, d=8), "logistic", l2=0.01, l1=0.02)
    cases = [
        (cls, dict(method="saga", epochs=3.0, warm_start_sgd_epochs=1.5, gamma=0.2, seed=1), 1350,
         "06628be951f6caafbf8f4b64474e72fcd6a02f7c2fd77198b1c478336a4a7c99"),
        (cls, dict(method="svrg", epochs=20.0, inner_t=300, seed=2), 6300,
         "8932a5a2afb7aae8705267199faf7a89f1269c0e9f22998d6a9eeec4fb5a6ab6"),
        (cls, dict(method="sdca", epochs=5.0, seed=3), 1500,
         "a586a3e9395927bdaf25ea65b565d6aed8c0cddf9ff4e7788866e986c8a33d12"),
        (sp, dict(method="saga", epochs=30.0, seed=4, jit="on", stop="grad:1e-3"),
         9000, "e508e4a99ef1d517ed09a36e4faa786af2919f2b59c22f545543878587efc4aa"),
        (cls, dict(method="saga", epochs=5.0, seed=5, scheme=uniform_scheme(batch=3)), 1500,
         "6104fdba9b10a284c6b919f4a68802f1b0bfe858e8ae7ada7b992ba8fa2820c6"),
        (cls, dict(method="sag", epochs=5.0, seed=6, scheme=lip), 1500,
         "74bf1b91a548012ed1374a9042187231ee7dae1ea64e75da8c9653e0de211173"),
        (cls, dict(method="svrg", epochs=120.0, seed=7, scheme=uniform_scheme(batch=16)), 39600,
         "6586803f824f77f474c8eaf9888f82e98b4a663d891fdcfb1056095714bab47e"),
        (cls, dict(method="sgd", epochs=5.0, seed=8, gamma=0.05), 1500,
         "eceebc4560ab3ef5db9d99a06b48a2b3664aa68c56db6c8cba12040472cf2a26"),
        (cls, dict(method="sgd_momentum", epochs=5.0, seed=9, gamma=0.02, beta=0.5), 1500,
         "87d25fcc138a12f298d4e5f434326c2aede4aa3bcf7d4484090328085c12706e"),
        (cls, dict(method="sgd_star", epochs=5.0, seed=10, x_star=np.linspace(-0.5, 0.5, 8)), 1500,
         "dd48d61b271322d214a06dea9257df0b61e7ca515a256a4a56fb397f22c23f5b"),
        (cls, dict(method="sarah", epochs=10.0, inner_t=200, seed=11), 3500,
         "b2585bfcf961b39780f5acdb0cde225700a85fb59853db1f09c8ca4a442791de"),
        (cls, dict(method="sarah", epochs=40.0, inner_t=100, seed=12, scheme=uniform_scheme(batch=3)), 12600,
         "a35c34ba37ada298da950accd58534146be9008b50d549e129997ea94009ba13"),
        (cls, dict(method="sag", epochs=12.0, seed=13, scheme=uniform_scheme(batch=3)), 3600,
         "0cc7ccdfcd26f0038994f0c565e84716457ceb6368b12315e29cfe847f12c2de"),
        (cls_l1, dict(method="saga", epochs=5.0, seed=14), 1500,
         "389c348839ea41ab3965ccd3710536cb148c85b108f523fcddc866f1a60f6f20"),
        (cls, dict(method="sgd", epochs=5.0, seed=15, armijo=10.0), 1500,
         "2b222e2fddf0053ceb6b03f9ac8ccf141b2ed9723d83a90df1bc2d3c068502c7"),
        (cls, dict(method="saga", epochs=15.0, seed=16, scheme=lip4), 4500,
         "e233eb767a3c40bf1c6deea85d0407e7d721d43cc23dcf2590ba015396820ac1"),
    ]
    for obj, kw, evals, digest in cases:
        res = run(RunConfig(**kw), obj)
        assert (res.grad_evals, hashlib.sha256(res.x.tobytes()).hexdigest()) == (evals, digest), kw
    # sdca under each loss: the iterate, every checkpoint gap and the
    # smallest dual gain, bit for bit
    reg = GlmObjective(toy_regression(seed=0), "half_squared", l2=0.05)
    hinge = GlmObjective(blobs_2d(seed=3, n=200, flip=0.05), "hinge", l2=0.1)
    sdca_cases = [
        (cls, dict(seed=3, epochs=5.0), 1500, "a586a3e9395927bdaf25ea65b565d6aed8c0cddf9ff4e7788866e986c8a33d12",
         "0c08757d02f6c8b7355d79512eab123a83f52ca26b127d9a4819bcc13ce73f55", 0.0),
        (reg, dict(seed=17, epochs=60.0), 2400, "56df8f0a93b5e8bceda70c7d3bf3cb088a19e1473c264d8ddaed25f7b3b103ae",
         "a58641bd9111bb2b04bdb30d7d845dcfa4293f5db647adf7b20f3c149156ab3b", -float.fromhex("0x1.0b373087ef508p-51")),
        (hinge, dict(seed=18, epochs=12.0), 2400, "98b56437d4bbd4c49b15b8c7dd90fc8cc1c78cb15dbf28716a9db7ae5fca1a93",
         "520bf0f9b9f6ecfbd9da30a0b9e7dbb7d7934d01be0003e67eeadadcbab60b25", 0.0),
    ]
    for obj, kw, evals, digest, gaps, min_gain in sdca_cases:
        res = run(RunConfig(method="sdca", **kw), obj)
        assert (res.grad_evals, hashlib.sha256(res.x.tobytes()).hexdigest()) == (evals, digest), kw
        gap_bytes = np.array([r.gap for r in res.records]).tobytes()
        assert hashlib.sha256(gap_bytes).hexdigest() == gaps, kw
        assert res.aux["min_dual_gain"] == min_gain, kw


@pytest.mark.parametrize("loss, l2", [("logistic", 0.1), ("half_squared", 0.15), ("hinge", 0.2)])
def test_sdca_gain_is_scaled_dual_increase(loss, l2):
    # every gain the sdca kernel returns is n * (D(v+) - D(v)), the
    # -rho dv^2 / 2 term included; dual_objective recomputes D from scratch
    obj = GlmObjective(toy_classification(seed=0, n=50, d=10), loss, l2=l2)
    dual = DualState(obj)
    step = method_kernel("sdca", obj, 1, dual)
    rng = np.random.default_rng(7)
    last = dual_objective(obj, dual)
    for _ in range(200):
        gain = step(dual.w, [int(rng.integers(obj.n))], None)
        now = dual_objective(obj, dual)
        want = obj.n * (now - last)
        assert abs(gain - want) <= 1e-10 * (1.0 + abs(want))
        last = now


def test_momentum_full_batch_is_heavy_ball():
    # a uniform batch of b = n draws every row once, so the run is Polyak's
    # heavy ball m <- beta m + grad f(x), x <- x - gamma m on the full gradient
    obj = GlmObjective(toy_classification(seed=0, n=50, d=10), "logistic", l2=0.1)
    gamma, beta = 1.0 / smoothness(obj).l_full, 0.6
    res = run(RunConfig(method="sgd_momentum", epochs=40.0, seed=3, gamma=gamma, beta=beta,
                        scheme=uniform_scheme(batch=obj.n), record_iterates=True), obj)
    x, m = np.zeros(obj.d), np.zeros(obj.d)
    assert res.iterates.shape == (41, obj.d)
    for xk in res.iterates[1:]:
        m = beta * m + obj.full_grad(x)
        x = x - gamma * m
        assert np.linalg.norm(xk - x) <= 1e-12 * (1.0 + np.linalg.norm(x))


@pytest.mark.parametrize("method, jit", [("saga", "off"), ("saga", "on"), ("sag", "off"), ("svrg", "off"),
                                         ("svrg", "on"), ("sgd_momentum", "off"), ("sgd_star", "off")])
def test_enumeration_leaves_run_unchanged(method, jit):
    # var_est steps the run's own kernel on a scratch iterate and puts its
    # state back: the run's iterate and objective values do not move
    obj = GlmObjective(toy_classification(seed=0, n=50, d=10), "logistic", l2=0.1)
    cfg = dict(method=method, jit=jit, epochs=4.0, seed=2, x_star=np.linspace(-0.5, 0.5, obj.d))
    if method == "sgd_momentum":
        cfg.update(beta=0.5, gamma=0.1)
    plain = run(RunConfig(**cfg), obj)
    probed = run(RunConfig(var_epochs=frozenset({1, 2, 3, 4}), **cfg), obj)
    assert probed.x.tobytes() == plain.x.tobytes()
    assert [r.f for r in probed.records] == [r.f for r in plain.records]
    assert [round(r.epoch) for r in probed.records if r.var_est is not None] == [1, 2, 3, 4]
    assert all(r.var_est > 0 for r in probed.records if r.var_est is not None)


def test_var_est_once_per_requested_epoch():
    # at half-epoch checkpoints each requested epoch is enumerated once, at
    # the first checkpoint at or past it (1.5 and 2.5 are neither 1 nor 2)
    obj = GlmObjective(toy_classification(seed=0, n=50, d=10), "logistic", l2=0.1)
    res = run(RunConfig(method="saga", epochs=3.0, seed=2, checkpoint_every=0.5,
                        var_epochs=frozenset({1, 2})), obj)
    assert [r.epoch for r in res.records if r.var_est is not None] == [1.0, 2.0]


def test_no_var_est_under_l1():
    # with l1 > 0 the kernel's step takes the prox, so its direction is not
    # the estimator's: var_est stays empty
    obj = GlmObjective(toy_classification(seed=0, n=50, d=10), "logistic", l2=0.1, l1=1e-3)
    res = run(RunConfig(method="saga", epochs=2.0, seed=2, var_epochs=frozenset({1, 2})), obj)
    assert res.records and all(r.var_est is None for r in res.records)
