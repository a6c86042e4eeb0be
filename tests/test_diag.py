import hashlib
import io
import os
import warnings

import numpy as np
import pytest

from vropt import diag, optimizers
from vropt.bench_data import load_dataset, tiny, toy_classification, toy_regression
from vropt.data import Dataset, dataset_hash, parse_libsvm
from vropt.diag import (
    StopRule,
    TraceRecord,
    check_contraction,
    check_lemma1,
    dual_objective,
    duality_gap,
    enum_stats,
    enum_stats_batches,
    fd_grad,
    fit_linear_rate,
    golden_section_max,
    read_trace,
    should_stop,
    solve_reference,
    write_trace,
)
from vropt.objectives import GlmObjective, NonSmoothError, smoothness
from vropt.optimizers import DualState, method_kernel


def _toy(l2=0.1):
    return GlmObjective(toy_classification(seed=0, n=25, d=6), "logistic", l2=l2)


def test_fd_grad_matches_analytic():
    obj = _toy()
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(size=obj.d)
        assert np.allclose(fd_grad(obj, x), obj.full_grad(x), rtol=1e-7, atol=1e-9)
    g0 = fd_grad(obj, np.zeros(obj.d), i=3)
    assert np.allclose(g0, obj.grad_i(np.zeros(obj.d), 3), rtol=1e-7, atol=1e-9)


def test_enum_stats_hand_case():
    # a step whose direction depends only on i: mean and variance by hand
    obj = GlmObjective(tiny(seed=0), "logistic", l2=0.1)
    vecs = np.zeros((obj.n, obj.d))
    vecs[0, 0] = 3.0
    vecs[1, 0] = -3.0

    def step(x, batch, gamma):
        x -= gamma * vecs[batch[0]]
        return x

    mean, var, raw = enum_stats(obj, step, np.zeros(obj.d))
    assert np.allclose(mean, np.zeros(obj.d))
    assert var == pytest.approx(18.0 / obj.n, rel=1e-15)
    assert raw == pytest.approx(18.0 / obj.n, rel=1e-15)


def test_enum_stats_batches_counts():
    obj = GlmObjective(tiny(seed=0), "logistic", l2=0.1)  # n = 6
    x = np.full(obj.d, 0.3)
    m1, v1, _ = enum_stats_batches(obj, optimizers.method_kernel("sgd", obj, 2), x, 2)  # C(6,2) = 15 subsets
    assert np.allclose(m1, obj.full_grad(x), rtol=1e-12, atol=1e-14)
    _, v_single, _ = enum_stats(obj, optimizers.method_kernel("sgd", obj, 1), x)
    # batch averaging shrinks variance: (n-b)/(b(n-1)) factor for b=2, n=6
    assert v1 == pytest.approx(v_single * 4.0 / 10.0, rel=1e-10)


def test_golden_section_parabola():
    arg = golden_section_max(lambda v: -(v - 1.3) ** 2, -10.0, 10.0, tol=1e-14)
    assert arg == pytest.approx(1.3, abs=1e-7)
    # boundary maximum
    arg = golden_section_max(lambda v: v, 0.0, 2.0, tol=1e-14)
    assert arg == pytest.approx(2.0, abs=1e-6)


def test_solve_reference_pinned():
    # x* bytes and f* must not move: every suboptimality figure is measured
    # against them; a cap one short of the iterations needed (Newton steps
    # at l1 = 0, full gradients at l1 > 0) raises
    sparse = load_dataset("synth:sparse:0")
    cases = [
        (GlmObjective(toy_classification(seed=0, n=30, d=6), "logistic", l2=0.1), 5,
         "73b5f8823ebe5b850f0299ba7cb0f41507bbab5179ddd252e959d711aa095338", 0.6336334678319743),
        (GlmObjective(toy_regression(seed=0), "half_squared", l2=0.1, l1=0.05), 20,
         "18ee339aa0ca0e6cf53d761a578119207ceaf118d01fe194cd1a33823fa7fb29", 0.5386007815911933),
        (GlmObjective(sparse, "logistic", l2=1.0 / sparse.n, l1=1e-3), 67,
         "b60dd2ba5e817f6ed3a03f315f9d36d686ba0753746b6e1b3dc9e5c72b5a337f", 0.5877601814450514),
    ]
    for obj, iters, digest, f_star in cases:
        for max_iter in (iters, 1_000_000):
            x, f = solve_reference(obj, tol=1e-12, cache=False, max_iter=max_iter)
            assert (hashlib.sha256(x.tobytes()).hexdigest(), f) == (digest, f_star)
        with pytest.raises(RuntimeError):
            solve_reference(obj, tol=1e-12, cache=False, max_iter=iters - 1)


def test_solve_reference_runs_no_method(monkeypatch):
    # the oracle must not certify the stochastic code it is used to test
    monkeypatch.setattr(optimizers, "run", lambda *a, **k: pytest.fail("solver ran a method"))
    x, _ = solve_reference(_toy(), tol=1e-12, cache=False)
    assert np.linalg.norm(_toy().full_grad(x)) <= 1e-12


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_solve_reference_rejects_bad_tol(tol, tmp_path, monkeypatch):
    monkeypatch.setenv("VROPT_CACHE", str(tmp_path))
    with pytest.raises(ValueError, match="tolerance"):
        solve_reference(_toy(), tol=tol)
    assert os.listdir(tmp_path) == []


def test_solve_reference_rejects_non_finite_residual(tmp_path, monkeypatch):
    # finite data whose gradient at 0 overflows: NaN must not pass for a
    # residual below tol (NaN > tol is false), nor be cached as f*
    monkeypatch.setenv("VROPT_CACHE", str(tmp_path))
    ds = Dataset([0, 1, 2], [0, 0], [1.0, 1.0], [1.7e308, 1.7e308], 1)
    obj = GlmObjective(ds, "half_squared", l2=0.1)
    with warnings.catch_warnings(), pytest.raises(RuntimeError, match="non-finite residual"):
        warnings.simplefilter("error")  # and no numpy warning on the way
        solve_reference(obj, tol=1e-12)
    assert os.listdir(tmp_path) == []


def _cross_check_cases():
    sparse = load_dataset("synth:sparse:0")
    return [GlmObjective(toy_classification(seed=0, n=30, d=6), "logistic", l2=0.1),
            GlmObjective(toy_regression(seed=0), "half_squared", l2=0.1),
            GlmObjective(sparse, "logistic", l2=1.0 / sparse.n)]


@pytest.mark.parametrize("tol", [1e-12, 1e-13])
def test_newton_cg_agrees_with_fista(tol):
    # two solvers, one problem: strong convexity puts each certified point
    # within tol/l2 of x*, and f there within a few ulp of f*
    for obj in _cross_check_cases():
        xn, fn = solve_reference(obj, tol=tol, cache=False)
        xf, ff = diag._fista(obj, tol, 1_000_000)
        for x in (xn, xf):
            assert np.linalg.norm(obj.full_grad(x)) <= tol
        assert np.linalg.norm(xn - xf) <= 2 * tol / obj.l2
        assert abs(fn - ff) <= 4 * np.spacing(ff)


def test_newton_cg_line_search_backtracks(monkeypatch):
    # logistic curvature peaks at margin 0 and half_squared is quadratic, so
    # Newton's unit step from 0 never raises f; a Hessian that under-reports
    # the loss curvature 10-fold makes it overshoot, the line search must cut
    # it, and the point returned is still certified
    obj = _cross_check_cases()[1]
    real = type(obj.loss).curv_vec
    monkeypatch.setattr(type(obj.loss), "curv_vec", staticmethod(lambda m, b: 0.1 * real(m, b)))
    values = []
    full_value = obj.full_value
    monkeypatch.setattr(obj, "full_value", lambda x, m=None: values.append(full_value(x, m)) or values[-1])
    x, f = solve_reference(obj, tol=1e-12, cache=False)
    assert values[1] > values[0] == obj.full_value(np.zeros(obj.d))  # f at 0, then at the unit step
    assert np.linalg.norm(obj.full_grad(x)) <= 1e-12
    assert np.linalg.norm(x - diag._fista(obj, 1e-12, 1_000_000)[0]) <= 2e-12 / obj.l2


def test_newton_cg_raises_where_no_step_descends(tmp_path, monkeypatch):
    # a derivative of the wrong sign makes every Newton direction climb f:
    # the line search gives up after its halvings, and nothing is cached
    # (half the derivative would not do: it is the gradient of f with 2 l2
    # in place of l2, whose minimizer both solvers certify)
    monkeypatch.setenv("VROPT_CACHE", str(tmp_path))
    obj = _cross_check_cases()[0]
    real = type(obj.loss).deriv_vec
    monkeypatch.setattr(type(obj.loss), "deriv_vec", staticmethod(lambda m, b: -real(m, b)))
    values = []
    full_value = obj.full_value
    monkeypatch.setattr(obj, "full_value", lambda x, m=None: values.append(full_value(x, m)) or values[-1])
    with pytest.raises(RuntimeError, match="line search found no decrease at Newton step 0"):
        solve_reference(obj, tol=1e-12)
    assert len(values) == 2 + diag.ARMIJO_HALVINGS  # f at 0, then one per trial step
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("l1", [0.0, 1e-3])
def test_cold_solve_trips_the_certificate_hook(l1, tmp_path, monkeypatch):
    # the hook the "nothing solved" tests patch is on both solvers' paths
    monkeypatch.setenv("VROPT_CACHE", str(tmp_path))
    monkeypatch.setattr(diag, "_certified", lambda *a: pytest.fail("solved"))
    with pytest.raises(pytest.fail.Exception, match="solved"):
        solve_reference(GlmObjective(toy_classification(seed=0, n=30, d=6), "logistic", l2=0.1, l1=l1))
    assert os.listdir(tmp_path) == []


def test_solve_reference_analytic():
    # f(x) = 0.5(x-2)^2 + 0.25 x^2 has the stationary point 4/3
    ds = Dataset([0, 1], [0], [1.0], [2.0], 1)
    obj = GlmObjective(ds, "half_squared", l2=0.5)
    x, f = solve_reference(obj, tol=1e-13, cache=False)
    assert x[0] == pytest.approx(4.0 / 3.0, rel=1e-10)
    assert f == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert np.linalg.norm(obj.full_grad(x)) <= 1e-12


def test_solve_reference_l1_analytic():
    # soft-thresholded stationarity: 1.5x - 2 + 0.4 = 0 on the positive branch
    ds = Dataset([0, 1], [0], [1.0], [2.0], 1)
    obj = GlmObjective(ds, "half_squared", l2=0.5, l1=0.4)
    x, f = solve_reference(obj, tol=1e-13, cache=False)
    assert x[0] == pytest.approx(1.6 / 1.5, rel=1e-10)
    assert f == pytest.approx(obj.objective_value(x), rel=1e-15)


def test_solve_reference_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("VROPT_CACHE", str(tmp_path))
    obj = _toy()
    x1, f1 = solve_reference(obj, tol=1e-12)
    files = sorted(os.listdir(tmp_path))
    key = diag._ref_key(obj, 1e-12)  # the entry is the pair solve-ref writes
    assert files == [key + ".fstar.txt", key + ".xstar.vec"]
    with monkeypatch.context() as m:
        m.setattr(diag, "_certified", lambda *a: pytest.fail("solved a cached reference"))
        x2, f2 = solve_reference(obj, tol=1e-12)
    assert np.array_equal(x1, x2) and f1 == f2
    # different l2 keys a different entry
    solve_reference(_toy(l2=0.2), tol=1e-12)
    assert len(os.listdir(tmp_path)) > len(files)


def test_solve_reference_solves_past_an_unreadable_entry(tmp_path, monkeypatch):
    # a corrupt entry raised ValueError, which solve_reference keeps for bad
    # inputs; it is now a miss, solved and written again
    monkeypatch.setenv("VROPT_CACHE", str(tmp_path))
    x1, f1 = solve_reference(_toy(), tol=1e-12)
    for name in os.listdir(tmp_path):
        (tmp_path / name).write_bytes(b"garbage")
    x2, f2 = solve_reference(_toy(), tol=1e-12)
    assert np.array_equal(x1, x2) and f1 == f2
    monkeypatch.setattr(diag, "_certified", lambda *a: pytest.fail("solved a readable entry"))
    assert solve_reference(_toy(), tol=1e-12)[1] == f1


def test_solve_reference_cache_keys_dim(tmp_path, monkeypatch):
    # the same rows padded to d=5 are a different problem with a length-5 x*
    monkeypatch.setenv("VROPT_CACHE", str(tmp_path))
    text = "1 1:0.5 2:1\n-1 2:-1\n1 1:2\n"
    narrow, wide = parse_libsvm(text), parse_libsvm(text, dim=5)
    assert dataset_hash(narrow) != dataset_hash(wide)
    solve_reference(GlmObjective(narrow, "logistic", l2=0.1), tol=1e-12)
    obj = GlmObjective(wide, "logistic", l2=0.1)
    assert solve_reference(obj, tol=1e-12)[0].shape == (5,)
    assert solve_reference(obj, tol=1e-12)[0].shape == (5,)


def test_trace_round_trip(tmp_path):
    recs = [
        TraceRecord(epoch=0.0, grad_evals=0, f=0.7, subopt=None, grad_norm=0.1),
        TraceRecord(epoch=1.0, grad_evals=50, f=0.5, subopt=1e-3,
                    grad_norm=None, var_est=2.5, gap=None, time_s=None),
    ]
    p = str(tmp_path / "t.csv")
    write_trace(recs, p, meta={"method": "saga", "gamma": "0.25"})
    back, meta = read_trace(p)
    assert meta == {"method": "saga", "gamma": "0.25"}
    assert len(back) == 2
    assert back[0].subopt is None and back[0].grad_norm == 0.1
    assert back[1].var_est == 2.5 and back[1].grad_evals == 50
    assert back[1].f == 0.5


def test_empty_trace_header_only():
    buf = io.StringIO()
    write_trace([], buf)
    text = buf.getvalue()
    assert text.splitlines() == ["epoch,grad_evals,f,subopt,grad_norm,var_est,gap,time_s"]
    back, meta = read_trace(io.StringIO(text))
    assert back == [] and meta == {}


def test_read_trace_rejects_garbage(tmp_path):
    with pytest.raises(ValueError):
        read_trace(io.StringIO("epoch,foo\n"))
    with pytest.raises(ValueError):
        read_trace(io.StringIO("epoch,grad_evals,f,subopt,grad_norm,var_est,gap,time_s\n1,2\n"))
    # a path that names no file is an error of its own, not trace text
    with pytest.raises(FileNotFoundError):
        read_trace(str(tmp_path / "missing.csv"))


def test_fit_linear_rate_planted():
    rho, c = 0.07, 1.3
    recs = [TraceRecord(epoch=float(k), grad_evals=k, f=0.0,
                        subopt=c * (1 - rho) ** k) for k in range(40)]
    fit = fit_linear_rate(recs)
    assert fit.rho_hat == pytest.approx(rho, abs=1e-12)
    assert fit.c_hat == pytest.approx(c, rel=1e-10)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_linear_rate(recs[:3])
    # floor records are dropped rather than skewing the fit
    floored = recs + [TraceRecord(epoch=99.0, grad_evals=99, f=0.0, subopt=1e-16)]
    fit2 = fit_linear_rate(floored)
    assert fit2.rho_hat == pytest.approx(rho, abs=1e-12)


def test_stop_rules():
    assert StopRule.parse("grad:1e-8").eps == 1e-8
    assert StopRule.parse(None).kind == "epochs"
    assert StopRule.parse("epochs").kind == "epochs"
    assert StopRule.parse("gap:0").eps == 0.0
    for bad in ("grad", "grad:", "loss:1e-3", "gap", "grad:nan", "grad:-1", "gbar:inf", "gap:-inf", "grad:x"):
        with pytest.raises(ValueError):
            StopRule.parse(bad)
    rec = TraceRecord(epoch=1.0, grad_evals=10, f=0.5, grad_norm=1e-9, gap=None)
    assert should_stop("grad:1e-8", rec)
    assert not should_stop("epochs", rec)
    with pytest.raises(ValueError):
        should_stop("gap:1e-8", rec)


def test_duality_helpers():
    obj = _toy(l2=0.3)
    dual = DualState(obj)
    d0 = dual_objective(obj, dual)
    gap0 = duality_gap(obj, dual)
    assert gap0 >= 0.0
    step = method_kernel("sdca", obj, 1, dual)
    rng = np.random.default_rng(2)
    for _ in range(200):
        step(dual.w, [int(rng.integers(obj.n))], None)
    assert dual_objective(obj, dual) >= d0
    assert 0.0 <= duality_gap(obj, dual) < gap0
    # one numpy pass, bit for bit the per-example loop it replaced, at n
    # large enough for a pairwise sum to differ from it; a v_i outside the
    # conjugate's domain makes the dual -inf (the gap +inf)
    for loss in ("logistic", "half_squared", "hinge"):
        obj = GlmObjective(toy_classification(seed=1, n=500, d=6), loss, l2=0.3)
        dual = DualState(obj)
        dual.v[:] = obj.labels * np.random.default_rng(3).uniform(0.0, 1.0, obj.n)
        dual.w[:] = obj.data.weighted_sum(dual.v) / (obj.l2 * obj.n)
        total = 0.0
        for i in range(obj.n):
            total -= obj.loss.conjugate(-dual.v[i], obj.labels[i])
        want = total / obj.n - 0.5 * obj.l2 * float(np.dot(dual.w, dual.w))
        assert dual_objective(obj, dual).tobytes() == np.float64(want).tobytes(), loss
        dual.v[3] = 2.0 * obj.labels[3]
        if loss != "half_squared":
            assert (dual_objective(obj, dual), duality_gap(obj, dual)) == (-np.inf, np.inf)


def test_contraction_refuses_bad_inputs():
    obj = _toy()
    info = smoothness(obj)
    x_star, _ = solve_reference(obj, tol=1e-12, cache=False)
    with pytest.raises(ValueError):
        check_contraction(obj, np.ones(obj.d), x_star, 2.0 / info.l_max)
    free = GlmObjective(toy_classification(seed=0, n=25, d=6), "logistic", l2=0.0)
    with pytest.raises(ValueError):
        check_contraction(free, np.ones(obj.d), x_star, 1e-3)


def test_lemma1_positive_slack_at_random_point():
    obj = _toy()
    x_star, _ = solve_reference(obj, tol=1e-12, cache=False)
    ok, slack = check_lemma1(obj, np.ones(obj.d), x_star)
    assert ok and slack >= -1e-12


# Reference sums for check_lemma1 and check_contraction: two dense
# gradients per example, one example at a time. Each returns (lhs, ok).


def _lemma1_loop(obj, x, x_star, info):
    lhs = 0.0
    for i in range(obj.n):
        diff = obj.grad_i(x, i) - obj.grad_i(x_star, i)
        lhs += float(np.dot(diff, diff))
    lhs /= obj.n
    rhs = 2.0 * info.l_max * (obj.full_value(x) - obj.full_value(x_star))
    return lhs, lhs <= rhs + 1e-12 * (1.0 + abs(rhs))


def _contraction_loop(obj, x, x_star, gamma):
    gstar = [obj.grad_i(x_star, i) for i in range(obj.n)]
    lhs = 0.0
    for i in range(obj.n):
        nxt = x - gamma * (obj.grad_i(x, i) - gstar[i])
        diff = nxt - x_star
        lhs += float(np.dot(diff, diff))
    lhs /= obj.n
    base = x - x_star
    rhs = (1.0 - gamma * obj.l2) * float(np.dot(base, base))
    return lhs, lhs <= rhs + 1e-12 * (1.0 + abs(rhs))


def _holey(seed=0, n=12, d=5):
    """Sparse rows with no entries in the first, a middle and the last row
    (Dataset drops the explicit zeros)."""
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.6)
    dense[[0, n // 2, n - 1]] = 0.0
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return Dataset(np.arange(0, n * d + 1, d), np.tile(np.arange(d), n), dense.ravel(), labels, d)


@pytest.mark.parametrize("l2", [0.0, 0.1])
@pytest.mark.parametrize("loss", ["logistic", "half_squared"])
@pytest.mark.parametrize("kind", ["toy", "holey"])
def test_vectorized_oracles_match_per_example_loops(kind, loss, l2):
    data = toy_classification(seed=0, n=25, d=6) if kind == "toy" else _holey()
    if kind == "holey":
        assert [data.row(i)[0].size for i in (0, 6, 11)] == [0, 0, 0]
    obj = GlmObjective(data, loss, l2=l2)
    info = smoothness(obj)
    rng = np.random.default_rng(7)
    if l2:
        x_star, _ = solve_reference(obj, tol=1e-12, cache=False)
    else:
        x_star = rng.normal(size=obj.d)  # no minimizer is needed to compare the two sums
    for _ in range(20):
        x = x_star + rng.normal(size=obj.d) * rng.uniform(1e-3, 3.0)
        want, want_ok = _lemma1_loop(obj, x, x_star, info)
        assert diag._mean_sq_shift(obj, x, x_star, l2, 1.0) == pytest.approx(want, rel=1e-12, abs=0)
        assert check_lemma1(obj, x, x_star, info)[0] == want_ok
        if not l2:
            continue
        for gamma in (1.0 / info.l_max, rng.uniform(0.0, 1.0) / info.l_max):
            want, want_ok = _contraction_loop(obj, x, x_star, gamma)
            got = diag._mean_sq_shift(obj, x, x_star, 1.0 - gamma * l2, -gamma)
            assert got == pytest.approx(want, rel=1e-12, abs=0)
            assert check_contraction(obj, x, x_star, gamma, info) == want_ok


def test_vectorized_oracles_refuse_hinge():
    data = toy_classification(seed=0, n=25, d=6)
    info = smoothness(GlmObjective(data, "logistic", l2=0.1))
    hinge = GlmObjective(data, "hinge", l2=0.1)
    x, y = np.ones(hinge.d), np.zeros(hinge.d)
    with pytest.raises(NonSmoothError):
        check_lemma1(hinge, x, y)
    with pytest.raises(NonSmoothError):
        check_lemma1(hinge, x, y, info)
    with pytest.raises(NonSmoothError):
        check_contraction(hinge, x, y, 1.0 / info.l_max, info)
