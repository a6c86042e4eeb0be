import hashlib

import numpy as np
import pytest

from vropt.bench_data import sparse_gaussian, tiny, toy_classification, toy_regression
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
    momentum_step,
    run,
    sarah_refresh,
    sarah_step,
    sdca_step,
    shift_step,
    star_table,
    svrg_outer_refresh,
    table_step,
)
from vropt.schedules import armijo_policy, lipschitz_scheme, sample, uniform_scheme
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
    table = GradientTable(obj)
    x = np.zeros(1)
    g = 0.1
    table_step(table, obj, x, [0], g, saga=True)
    assert x[0] == pytest.approx(2 * g, rel=1e-15)
    table_step(table, obj, x, [0], g, saga=True)
    assert x[0] == pytest.approx(4 * g - 8 * g * g, rel=1e-14)


def test_sag_refreshes_before_step():
    # SAG divides by n even with one example seen; SAGA subtracts the full
    # correction. Same draw, different update.
    g = 0.1
    obj = _two_example()
    x = np.zeros(1)
    table = GradientTable(obj)
    table_step(table, obj, x, [0], g)
    assert x[0] == pytest.approx(g, rel=1e-15)  # gsum/2

    x2 = np.zeros(1)
    table2 = GradientTable(obj)
    table_step(table2, obj, x2, [0], g, saga=True)
    assert x2[0] == pytest.approx(2 * g, rel=1e-15)

    x3 = np.zeros(1)
    table3 = GradientTable(obj)
    table_step(table3, obj, x3, [0], g, seen_norm=True)
    assert x3[0] == pytest.approx(2 * g, rel=1e-15)  # gsum/seen


def test_saga_repeated_row_stored_once():
    # with-replacement batches can draw a row twice: the move counts both
    # draws, the table and its running sum take the row once
    obj = _two_example()
    table = GradientTable(obj)
    x = np.zeros(1)
    table_step(table, obj, x, [0, 0], 0.1, saga=True)
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
    shift_step(obj, x, [0], g, star.scalars, star.x_star, obj.l2)
    assert x[0] == pytest.approx(1.0 - g * (2.5 + 0.875), rel=1e-14)
    obj = _two_example()  # mean over the batch of a_j^2 (x - x*) = 2.5 (x - x*)
    star = star_table(obj, xs)
    x = np.ones(1)
    shift_step(obj, x, [0, 1], g, star.scalars, star.x_star, obj.l2)
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
        shift_step(obj, x, batch, g, state.s_ref, state.loss_ref, -1.0)
        assert x[0] == pytest.approx(1.0 - g * direction, rel=1e-14)


def test_sarah_single_steps():
    # g_k = g_{k-1} + grad f_B(x_k) - grad f_B(x_{k-1}); x+ = x - gamma*g_k
    g = 0.1
    obj = _one_example(l2=0.5)  # one example: plain gradient descent
    state = sarah_refresh(SarahState(t=2), obj, np.ones(1))
    x = np.ones(1)
    sarah_step(state, obj, x, [0], g)
    assert x[0] == pytest.approx(0.75, rel=1e-15)
    sarah_step(state, obj, x, [0], g)
    assert x[0] == pytest.approx(0.75 - g * 1.375, rel=1e-14)
    obj = _two_example(l2=0.5)
    state = sarah_refresh(SarahState(t=2), obj, np.ones(1))
    x = np.ones(1)
    sarah_step(state, obj, x, [1], g)
    assert x[0] == pytest.approx(0.85, rel=1e-14)
    sarah_step(state, obj, x, [0], g)  # g = 1.5 + grad f_0(0.85) - grad f_0(1)
    assert x[0] == pytest.approx(0.85 - g * (1.5 - 0.675), rel=1e-14)


def test_gd_one_step_quadratic():
    obj = _one_example(a=1.0, b=2.0)  # f(x) = 0.5 (x-2)^2, L = 1
    res = run(RunConfig(method="gd", gamma=1.0, epochs=1.0), obj)
    assert res.x[0] == pytest.approx(2.0, rel=1e-15)
    assert res.grad_evals == obj.n


def test_momentum_accumulation():
    obj = _one_example(a=1.0, b=1.0)
    x = np.zeros(1)
    mom = MomentumState(np.zeros(1), beta=0.5)
    momentum_step(mom, obj, x, [0], 0.1)
    assert x[0] == pytest.approx(0.1, rel=1e-15)
    momentum_step(mom, obj, x, [0], 0.1)
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
    # the start, then every step: 5 epochs * n=6
    assert [k for k, _ in res.iterates] == list(range(31))
    assert np.array_equal(res.iterates[-1][1], res.x)


def test_sdca_dual_ascent_and_w_consistency():
    ds = toy_classification(seed=1, n=40, d=6)
    obj = GlmObjective(ds, "logistic", l2=0.2)
    dual = DualState(obj)
    rng = np.random.default_rng(0)
    last = dual_objective(obj, dual)
    for _ in range(100):
        gain = sdca_step(dual, obj, int(rng.integers(obj.n)))
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
        (RunConfig(method="gd", policy=armijo_policy()), obj),
        (RunConfig(method="saga", gamma=0.1, jit="of"), obj),
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
                        policy=armijo_policy(gamma_max=10.0)), obj)
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
    # across block boundaries (k batches span three blocks); uniform
    # mini-batches are sample's batches as drawn
    k = 2 * DRAW_BLOCK + 5
    cases = [(uniform_scheme(), n) for n in (1, 7, 8124, 2**33)]
    cases += [(uniform_scheme(batch=3), 7), (lipschitz_scheme([1.0, 2.0, 3.0, 4.0], batch=2), 4),
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
    cases = [
        (cls, dict(method="saga", epochs=3.0, warm_start_sgd_epochs=1.5, gamma=0.2, seed=1), 1350,
         "06628be951f6caafbf8f4b64474e72fcd6a02f7c2fd77198b1c478336a4a7c99"),
        (cls, dict(method="svrg", epochs=20.0, inner_t=300, seed=2), 6300,
         "4918d58685c5445d8271cd907813ac2ff4969548f562507e659e87941b608af9"),
        (cls, dict(method="sdca", epochs=5.0, seed=3), 1500,
         "a586a3e9395927bdaf25ea65b565d6aed8c0cddf9ff4e7788866e986c8a33d12"),
        (sp, dict(method="saga", epochs=30.0, seed=4, jit="on", stop="grad:1e-3"),
         9000, "15159e29ac78141756379be61a9ddd4a308a06eac9f56971f406d771d4befe16"),
        (cls, dict(method="saga", epochs=5.0, seed=5, scheme=uniform_scheme(batch=3)), 1500,
         "6104fdba9b10a284c6b919f4a68802f1b0bfe858e8ae7ada7b992ba8fa2820c6"),
        (cls, dict(method="sag", epochs=5.0, seed=6, scheme=lip), 1500,
         "74bf1b91a548012ed1374a9042187231ee7dae1ea64e75da8c9653e0de211173"),
    ]
    for obj, kw, evals, digest in cases:
        res = run(RunConfig(**kw), obj)
        assert (res.grad_evals, hashlib.sha256(res.x.tobytes()).hexdigest()) == (evals, digest), kw
