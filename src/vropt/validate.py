"""Verification suite: every check pits an implementation against an
independent oracle (enumeration, finite differences, extended-precision
golden section, from-scratch recomputation) and reports an observed value
against its tolerance. The registry backs both the CLI entry point and the
acceptance tests.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bench_data
from .data import RandomSource
from .diag import (
    TraceRecord,
    check_contraction,
    check_lemma1,
    check_lemma2,
    enum_stats,  # noqa: F401 -- perfbench/tracing.py wraps this name here
    enum_stats_batches,
    fd_grad,
    fit_linear_rate,
    golden_section_max,
    solve_reference,
)
from .objectives import GlmObjective, get_loss, smoothness
from .optimizers import (
    DualState,
    GradientTable,
    RunConfig,
    SarahState,
    SvrgState,
    _mover,
    _puller,
    index_batches,
    method_kernel,
    run,
    sarah_refresh,
    star_table,
    svrg_outer_refresh,
)
from .schedules import minibatch_smoothness, sample, uniform_scheme


@dataclass
class CheckResult:
    name: str
    passed: bool
    observed: str
    tolerance: str
    detail: str = ""
    seconds: float = 0.0

    def line(self):
        return "%-4s %-24s observed=%s tolerance=%s %s" % (
            "PASS" if self.passed else "FAIL",
            self.name,
            self.observed,
            self.tolerance,
            self.detail,
        )


_MEMO = {}


def _bench():
    """Benchmark objective, smoothness, and certified reference (shared)."""
    if "bench" not in _MEMO:
        data = bench_data.mushrooms_like()
        obj = GlmObjective(data, "logistic", l2=1.0 / data.n)
        info = smoothness(obj)
        x_star, f_star = solve_reference(obj, tol=1e-12)
        _MEMO["bench"] = (obj, info, x_star, f_star)
    return _MEMO["bench"]


def _bench_runs():
    """The comparison runs: 30 epochs, gamma = 1/L_max, t = n, seed 0."""
    if "bench_runs" not in _MEMO:
        obj, info, x_star, f_star = _bench()
        g = 1.0 / info.l_max
        n = obj.n
        var = {"var_epochs": frozenset({1, 30})}
        grid = {
            "sag": {"gamma": g},
            "svrg": {"gamma": g, "inner_t": n, **var},
            "saga": {"gamma": g, **var},
            "sgd": {"gamma": g, **var},
            "gd": {},
        }
        runs = {}
        walls = {}
        for method, kw in grid.items():
            t0 = time.perf_counter()
            runs[method] = run(RunConfig(method=method, epochs=30.0, seed=0, f_star=f_star, **kw), obj)
            walls[method] = time.perf_counter() - t0
        _MEMO["bench_runs"] = (runs, walls)
    return _MEMO["bench_runs"]


def _toy():
    if "toy" not in _MEMO:
        data = bench_data.toy_classification(seed=0, n=50, d=10)
        obj = GlmObjective(data, "logistic", l2=0.1)
        info = smoothness(obj)
        x_star, f_star = solve_reference(obj, tol=1e-12, cache=False)
        _MEMO["toy"] = (obj, info, x_star, f_star)
    return _MEMO["toy"]


# ---------------------------------------------------------------------------
# checks


def check_benchmark_ordering():
    """Constant-step table and snapshot methods beat both full-gradient and
    plain stochastic baselines by >= 100x and reach 1e-8 suboptimality; no
    method ends below the certified f* by more than 1e-10."""
    runs, walls = _bench_runs()
    finals = {m: runs[m].records[-1].subopt for m in ("sag", "svrg", "gd", "sgd")}
    worst_wall = max(walls.values())
    ok = (
        finals["sag"] <= 1e-8
        and finals["svrg"] <= 1e-8
        and all(finals[vr] <= 1e-2 * finals[base] for vr in ("sag", "svrg") for base in ("gd", "sgd"))
        and all(r.records[-1].subopt >= -1e-10 for r in runs.values())
        and worst_wall <= 60.0
    )
    obs = "sag=%.2e svrg=%.2e gd=%.2e sgd=%.2e wall<=%.1fs" % (
        finals["sag"], finals["svrg"], finals["gd"], finals["sgd"], worst_wall)
    return CheckResult("benchmark_ordering", ok, obs,
                       "sag,svrg<=1e-8 and <=1e-2*(gd,sgd); all>=-1e-10; wall<=60s")


def check_variance_reduction():
    """Estimator variance by exact enumeration collapses for the reduced
    methods between epoch 1 and epoch 30 and does not for plain stochastic."""
    runs, _ = _bench_runs()
    ratios = {}
    for m in ("saga", "svrg", "sgd"):
        vs = [r.var_est for r in runs[m].records if r.var_est is not None]
        ratios[m] = vs[-1] / vs[0]
    ok = ratios["saga"] <= 1e-3 and ratios["svrg"] <= 1e-3 and ratios["sgd"] >= 0.1
    obs = "saga=%.2e svrg=%.2e sgd=%.2e" % (ratios["saga"], ratios["svrg"], ratios["sgd"])
    return CheckResult("variance_reduction", ok, obs,
                       "saga,svrg ratio<=1e-3; sgd ratio>=0.1")


def check_iterate_capture_2d():
    """On a 2-feature problem at a shared constant stepsize, the averaged
    method lands on x* while plain stochastic keeps orbiting it."""
    data = bench_data.blobs_2d(seed=0)
    obj = GlmObjective(data, "logistic", l2=0.1)
    info = smoothness(obj)
    g = 1.0 / info.l_max
    x_star, _ = solve_reference(obj, tol=1e-12, cache=False)
    r_sag = run(RunConfig(method="sag", epochs=60.0, seed=2, gamma=g, record_iterates=True), obj)
    r_sgd = run(RunConfig(method="sgd", epochs=60.0, seed=2, gamma=g, record_iterates=True), obj)
    d_final = float(np.linalg.norm(r_sag.x - x_star))
    d_init = float(np.linalg.norm(x_star))  # runs start at zero
    sgd_last = [float(np.linalg.norm(x - x_star)) for x in r_sgd.iterates[-100:]]
    ok = d_final <= 1e-3 * d_init and min(sgd_last) >= 10.0 * d_final
    obs = "sag_final=%.2e init=%.2e sgd_min100=%.2e" % (d_final, d_init, min(sgd_last))
    return CheckResult("iterate_capture_2d", ok, obs,
                       "sag<=1e-3*init; sgd last-100 >= 10*sag")


def check_contraction_bound():
    """Exact conditional contraction of the reference-shifted step at
    gamma = 1/L_max: E||x+ - x*||^2 <= (1-gamma*mu)||x - x*||^2."""
    obj, info, x_star, _ = _toy()
    g = 1.0 / info.l_max
    res = run(RunConfig(method="sgd_star", epochs=2.0, seed=5, gamma=g,
                        x_star=x_star, record_iterates=True), obj)
    iters = res.iterates[:100]
    holds = sum(1 for x in iters if check_contraction(obj, x, x_star, g, info))
    ok = holds == len(iters) == 100
    return CheckResult("contraction_bound", ok, "%d/%d iterates" % (holds, len(iters)),
                       "all 100; relative slack 1e-12")


def check_smoothness_inequalities():
    """Mean squared gradient-difference bound at 1000 random points per loss,
    plus the variance<=second-moment identity on live estimator states."""
    worst = np.inf
    rng = np.random.default_rng(42)
    probs = []
    obj_log, info_log, xs_log, _ = _toy()
    probs.append((obj_log, info_log, xs_log))
    data = bench_data.toy_regression(seed=1)
    obj_hs = GlmObjective(data, "half_squared", l2=0.1)
    xs_hs, _ = solve_reference(obj_hs, tol=1e-12, cache=False)
    probs.append((obj_hs, smoothness(obj_hs), xs_hs))
    for obj, info, xs in probs:
        for _ in range(1000):
            x = rng.normal(size=obj.d) * rng.uniform(0.1, 3.0)
            ok, slack = check_lemma1(obj, x, xs, info)
            worst = min(worst, slack)
    # lemma 2 on evolving saga states, through the kernel run() ships
    lemma2_ok = True
    table = GradientTable(obj_log)
    step = method_kernel("saga", obj_log, 1, table)
    r = RandomSource(3)
    x = np.zeros(obj_log.d)
    for k in range(200):
        step(x, [int(r.integers(obj_log.n))], 1.0 / info_log.l_max)
        if k % 20 == 0:
            lemma2_ok = check_lemma2(obj_log, step, x)[0] and lemma2_ok
    ok = worst >= -1e-12 and lemma2_ok
    obs = "worst_slack=%.2e lemma2=%s" % (worst, lemma2_ok)
    return CheckResult("smoothness_inequalities", ok, obs,
                       "slack>=-1e-12 at 2x1000 points; var<=2nd moment")


def _flip_sign(obj, table, step):
    """The saga kernel with a covariate sign fault: s_i a_i added where the
    stored entry is subtracted, so its direction gains 2 s_i a_i."""
    def faulty(y, batch, gamma):
        (i,) = batch
        idx, vals = obj.data.row(i)
        fault = (2.0 * gamma * table.s[i]) * vals  # read before the step stores s_i
        step(y, batch, gamma)
        y[idx] -= fault
        return y
    faulty.written = step.written
    return faulty


def check_unbiasedness(flip_sign=False):
    """The enumerated mean of each shipped kernel's direction equals the
    full gradient at 10 live checkpoints per method, and sarah's equals its
    conditional mean v_{k-1} + grad f(x_k) - grad f(x_{k-1}) 25 steps into a
    stage; exhaustive subsets of the b-row shift kernel at n=6.

    flip_sign adds a covariate sign fault, 2 s_i a_i with s_i the stored
    table entry, to the enumerated saga direction; the check must then fail
    (exercised by the test suite).
    """
    obj, info, x_star, _ = _toy()
    g = 1.0 / (3.0 * info.l_max)
    rel_tol = 1e-12
    worst = 0.0
    detail = []
    for method in ("sgd", "sgd_star", "saga", "svrg", "sarah"):
        rng = RandomSource(11)
        x = np.zeros(obj.d)
        state = None
        if method == "sgd_star":
            state = star_table(obj, x_star)
        elif method == "saga":
            state = GradientTable(obj)
        elif method == "svrg":
            state = svrg_outer_refresh(SvrgState(t=obj.n), obj, x)
        elif method == "sarah":
            state = SarahState(t=obj.n)
        step = None if method == "sarah" else method_kernel(method, obj, 1, state)
        for cp in range(10):
            if method == "sarah":  # a new stage: the kernel binds its arrays
                step = method_kernel(method, obj, 1, sarah_refresh(state, obj, x))
            for _ in range(25):
                x_prev = x.copy()
                step(x, [int(rng.integers(obj.n))], g)
            probe = _flip_sign(obj, state, step) if flip_sign and method == "saga" else step
            ok2, mean, _, _ = check_lemma2(obj, probe, x)
            want = obj.full_grad(x)
            if method == "sarah":
                want = state.g + want - obj.full_grad(x_prev)
            worst = max(worst, float(np.linalg.norm(mean - want) / (1.0 + np.linalg.norm(want))))
            if not ok2:
                detail.append("lemma2 failed for %s" % method)
    # exhaustive mini-batch subsets
    td = bench_data.tiny(seed=1)
    tobj = GlmObjective(td, "logistic", l2=0.2)
    rng2 = np.random.default_rng(5)
    for b in (2, 3):
        step = method_kernel("sgd", tobj, b)
        for _ in range(5):
            x = rng2.normal(size=tobj.d)
            mean = enum_stats_batches(tobj, step, x, b)[0]
            grad = tobj.full_grad(x)
            rel = float(np.linalg.norm(mean - grad) / (1.0 + np.linalg.norm(grad)))
            worst = max(worst, rel)
    ok = worst <= rel_tol and not detail
    return CheckResult("unbiasedness", ok, "worst_rel=%.2e" % worst,
                       "<=1e-12*(1+||grad f||)", detail="; ".join(detail))


def check_table_mean_identity():
    """Running table average equals the from-scratch average along 1000-step
    sag and saga runs, probed every 100 steps."""
    data = bench_data.toy_classification(seed=4, n=60, d=8)
    obj = GlmObjective(data, "logistic", l2=0.05)
    info = smoothness(obj)
    g = 1.0 / info.l_max
    worst = 0.0
    for method in ("sag", "saga"):
        table = GradientTable(obj)
        step = method_kernel(method, obj, 1, table)
        rng = RandomSource(9)
        x = np.zeros(obj.d)
        for k in range(1, 1001):
            step(x, [int(rng.integers(obj.n))], g)
            if k % 100 == 0:
                worst = max(worst, table.mean_rel_error(obj))
    ok = worst <= 1e-10
    return CheckResult("table_mean_identity", ok, "worst_rel=%.2e" % worst, "<=1e-10")


def check_jit_equivalence():
    """Lazy sparse updates reproduce the eager-driver trajectory, and the
    touched-coordinate counter equals the exact support sum of the path."""
    worst_x = 0.0
    worst_f = 0.0
    counters_ok = True
    for seed in range(10):
        data = bench_data.sparse_gaussian(seed=seed)
        obj = GlmObjective(data, "logistic", l2=1e-3)
        cfg = dict(method="saga", epochs=3.0, seed=seed)
        plain = run(RunConfig(jit="off", **cfg), obj)
        lazy = run(RunConfig(jit="on", **cfg), obj)
        worst_x = max(worst_x, float(np.linalg.norm(lazy.x - plain.x) / (1.0 + np.linalg.norm(plain.x))))
        for rp, rl in zip(plain.records, lazy.records):
            worst_f = max(worst_f, abs(rl.f - rp.f) / (1.0 + abs(rp.f)))
        # independent replay of the sample path
        rng = RandomSource(seed)
        scheme = uniform_scheme()
        row_nnz = np.diff(data.indptr).tolist()
        nnz_sum = sum(row_nnz[int(sample(scheme, rng, data.n)[0])] for _ in range(int(3.0 * data.n)))
        counters_ok = counters_ok and (nnz_sum == lazy.aux["touched_coords"])
    ok = worst_x <= 1e-9 and worst_f <= 1e-10 and counters_ok
    obs = "x_rel=%.2e f_rel=%.2e counters=%s" % (worst_x, worst_f, counters_ok)
    return CheckResult("jit_equivalence", ok, obs,
                       "x<=1e-9, f<=1e-10, counter exact, 10 seeds")


def _dense_table_saga(obj, gamma, seed, epochs):
    """saga keeping each v^i = loss'_i a_i as a row of an n x d table, the
    storage the scalar table replaces: the table kernel's draws, pulls and moves
    at batch 1. Returns x and f at every epoch."""
    n = obj.n
    v, gsum, x = np.zeros((n, obj.d)), np.zeros(obj.d), np.zeros(obj.d)
    draws = index_batches(uniform_scheme(), RandomSource(seed), n)
    pull, move = _puller(obj, 1), _mover(obj, 1)
    fs = [obj.objective_value(x)]
    for k in range(1, int(epochs * n) + 1):
        (j,) = batch = next(draws)
        idx, vals, _, (m,) = pull(x, batch, gamma)
        s = obj.loss.deriv(m, obj.labels[j])
        delta = s * vals - v[j, idx]
        move(x, gamma, -(gamma / n), gsum, idx, gamma * delta)
        v[j, idx] = s * vals
        gsum[idx] += delta
        if k % n == 0:
            fs.append(obj.objective_value(x))
    return x, fs


def check_scalar_table_equivalence():
    """The scalar table's saga trajectory coincides with a replay that
    stores every v^i as a dense row, under matched seeds (they perform
    identical arithmetic)."""
    worst = 0.0
    for seed in (0, 1):
        data = bench_data.sparse_gaussian(seed=seed)
        obj = GlmObjective(data, "logistic", l2=1e-3)
        gamma = 1.0 / smoothness(obj).l_max  # the theory default
        scal = run(RunConfig(method="saga", epochs=3.0, seed=seed, gamma=gamma, jit="off"), obj)
        x, fs = _dense_table_saga(obj, gamma, seed, 3.0)
        worst = max(worst, float(np.linalg.norm(x - scal.x) / (1.0 + np.linalg.norm(x))))
        for f, rs in zip(fs, scal.records, strict=True):
            worst = max(worst, abs(f - rs.f) / (1.0 + abs(f)))
    ok = worst <= 1e-12
    return CheckResult("scalar_table_equivalence", ok, "worst_rel=%.2e" % worst, "<=1e-12")


def check_sdca_certificates():
    """Dual ascent never decreases the dual, certifies the benchmark by gap
    and by distance to the primal reference, matches an extended-precision
    golden-section oracle per coordinate, and closes the gap on hinge."""
    obj, info, x_star, f_star = _bench()
    if "sdca_bench" not in _MEMO:
        _MEMO["sdca_bench"] = run(RunConfig(method="sdca", epochs=100.0, seed=0, f_star=f_star), obj)
    res = _MEMO["sdca_bench"]
    gap = res.records[-1].gap
    min_gain = res.aux["min_dual_gain"]
    dist = float(np.linalg.norm(res.x - x_star))
    # per-coordinate oracle, logistic and half-squared states
    ld = np.longdouble
    worst_dv = 0.0
    for loss_name, l2 in (("logistic", 0.1), ("half_squared", 0.15), ("hinge", 0.2)):
        data = bench_data.toy_classification(seed=0, n=50, d=10)
        tob = GlmObjective(data, loss_name, l2=l2)
        dual = DualState(tob)
        step = method_kernel("sdca", tob, 1, dual)
        rs = np.random.default_rng(7)
        for _ in range(200):
            i = int(rs.integers(tob.n))
            v_old = ld(dual.v[i])
            idx, vals = tob.data.row(i)
            m = ld(np.dot(vals, dual.w[idx]))
            rho = ld(tob.row_sq[i]) / ld(tob.l2 * tob.n)
            mt = m - rho * v_old
            b_i = ld(tob.labels[i])
            step(dual.w, [i], None)
            v_new = dual.v[i]

            def h(v):  # the coordinate's dual objective, in long double
                return -tob.loss.conjugate_vec(-v, b_i) - mt * v - ld(0.5) * rho * v * v

            if loss_name == "half_squared":
                lo, hi = v_old - ld(8.0), v_old + ld(8.0)
            else:
                lo, hi = (ld(0.0), b_i) if b_i > 0 else (b_i, ld(0.0))
            v_gs = golden_section_max(h, lo, hi, tol=ld(1e-15), max_iter=300)
            worst_dv = max(worst_dv, abs(float(v_new - v_gs)))
    # hinge run certified purely by its gap
    hdata = bench_data.blobs_2d(seed=3, n=200, flip=0.05)
    hobj = GlmObjective(hdata, "hinge", l2=0.1)
    hres = run(RunConfig(method="sdca", epochs=200.0, seed=1), hobj)
    hgap = hres.records[-1].gap
    ok = (gap <= 1e-8 and math.isfinite(min_gain) and min_gain >= -1e-12 and dist <= 1e-4
          and worst_dv <= 1e-8 and hgap <= 1e-6)
    obs = "gap=%.2e min_gain=%.2e dist=%.2e dv=%.2e hinge_gap=%.2e" % (
        gap, min_gain, dist, worst_dv, hgap)
    return CheckResult("sdca_certificates", ok, obs,
                       "gap<=1e-8; gain finite, >=-1e-12; dist<=1e-4; dv<=1e-8; hinge<=1e-6")


def check_minibatch_smoothness_curve():
    """Batch smoothness interpolation: exact endpoints and monotone descent."""
    rng = np.random.default_rng(1)
    exact = monotone = True
    worst_jump = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 40))
        l_full = float(rng.uniform(0.1, 5.0))
        l_max = l_full * float(rng.uniform(1.0, 20.0))
        vals = [minibatch_smoothness(l_max, l_full, n, b) for b in range(1, n + 1)]
        exact = exact and vals[0] == l_max and vals[-1] == l_full
        jumps = np.diff(vals)
        worst_jump = max(worst_jump, float(jumps.max(initial=-np.inf)))
        monotone = monotone and (jumps <= 1e-15 * l_max).all()
    return CheckResult("minibatch_smoothness_curve", exact and monotone,
                       "endpoints %s; max_increase=%.2e" % ("exact" if exact else "off", worst_jump),
                       "L(1)==L_max, L(n)==L, non-increasing")


def check_prox_pipeline():
    """Sparse-regularized table method agrees with an independent proximal
    full-gradient fixed point, including the exact zero pattern."""
    data = bench_data.toy_regression(seed=2)
    obj = GlmObjective(data, "half_squared", l2=0.01, l1=0.02)
    info = smoothness(obj)
    # independent reference: proximal full-gradient iteration to fixed point
    g_ref = 1.0 / info.l_full
    x_ref = np.zeros(obj.d)
    for _ in range(200000):
        x_next = obj.prox(g_ref, x_ref - g_ref * obj.full_grad(x_ref))
        if np.linalg.norm(x_next - x_ref) <= 1e-14:
            x_ref = x_next
            break
        x_ref = x_next
    res = run(RunConfig(method="saga", epochs=400.0, seed=6, gamma=1.0 / (3.0 * info.l_max)), obj)
    err = float(np.linalg.norm(res.x - x_ref))
    pattern_ok = ((res.x == 0.0) == (x_ref == 0.0)).all()
    nz = int((x_ref != 0.0).sum())
    ok = err <= 1e-6 and pattern_ok and 0 < nz < obj.d
    obs = "err=%.2e pattern=%s nonzeros=%d/%d" % (err, pattern_ok, nz, obj.d)
    return CheckResult("prox_pipeline", ok, obs, "err<=1e-6; identical zero pattern")


def check_derivative_oracles():
    """Analytic derivatives vs central differences; closed-form conjugates
    vs numeric suprema over domain grids."""
    rng = np.random.default_rng(12)
    worst_fd = 0.0
    for loss_name in ("half_squared", "logistic"):
        loss = get_loss(loss_name)
        for _ in range(100):
            alpha = float(rng.normal() * 3.0)
            b = float(rng.choice([-1.0, 1.0])) if loss.classification else float(rng.normal())
            h = 1e-6
            num = (loss.value(alpha + h, b) - loss.value(alpha - h, b)) / (2.0 * h)
            ana = loss.deriv(alpha, b)
            worst_fd = max(worst_fd, abs(num - ana) / (1.0 + abs(ana)))
    # objective-level check too
    obj, _, _, _ = _toy()
    for _ in range(20):
        x = rng.normal(size=obj.d)
        num = fd_grad(obj, x)
        ana = obj.full_grad(x)
        worst_fd = max(worst_fd, float(np.linalg.norm(num - ana) / (1.0 + np.linalg.norm(ana))))
    # conjugates: numeric sup of u*a - l(a) over a
    ld = np.longdouble
    worst_cj = 0.0
    for loss_name, b in (("half_squared", 1.3), ("half_squared", -0.4),
                         ("logistic", 1.0), ("logistic", -1.0),
                         ("hinge", 1.0), ("hinge", -1.0)):
        loss = get_loss(loss_name)
        if loss_name == "half_squared":
            us = np.linspace(-3.0, 3.0, 25)
        else:
            ss = np.linspace(1e-4, 1.0 - 1e-4, 25)
            us = -b * ss  # b*u in (-1, 0)
        for u in us:
            def neg(a, u=ld(u), b=ld(b)):
                return u * a - ld(loss.value(float(a), float(b)))
            a_star = golden_section_max(neg, ld(-60.0), ld(60.0), tol=ld(1e-13), max_iter=400)
            sup = float(neg(a_star))
            worst_cj = max(worst_cj, abs(sup - loss.conjugate(float(u), b)))
    ok = worst_fd <= 1e-5 and worst_cj <= 1e-6
    obs = "fd=%.2e conj=%.2e" % (worst_fd, worst_cj)
    return CheckResult("derivative_oracles", ok, obs, "fd<=1e-5; conj<=1e-6")


def check_rate_fit_recovery():
    """Planted geometric traces are recovered exactly; a live table-method
    trace fits a positive rate with high explained variance."""
    worst = 0.0
    for rho, c in ((0.0123, 0.7), (0.35, 2.0), (1e-4, 0.05)):
        recs = [TraceRecord(epoch=k, grad_evals=k, f=0.0, subopt=c * (1.0 - rho) ** k)
                for k in range(60)]
        fit = fit_linear_rate(recs)
        worst = max(worst, abs(fit.rho_hat - rho), abs(fit.c_hat - c))
    obj, info, _, f_star = _toy()
    res = run(RunConfig(method="saga", epochs=15.0, seed=8, gamma=1.0 / (3.0 * info.l_max),
                        f_star=f_star, checkpoint_every=0.5), obj)
    fit = fit_linear_rate(res.records, burn_in=0.1)
    ok = worst <= 1e-8 and fit.rho_hat > 0.0 and fit.r2 >= 0.9
    obs = "planted_err=%.2e live_rho=%.2e r2=%.3f" % (worst, fit.rho_hat, fit.r2)
    return CheckResult("rate_fit_recovery", ok, obs,
                       "planted<=1e-8; live rho>0, r2>=0.9")


CHECKS = {
    "benchmark_ordering": check_benchmark_ordering,
    "variance_reduction": check_variance_reduction,
    "iterate_capture_2d": check_iterate_capture_2d,
    "contraction_bound": check_contraction_bound,
    "smoothness_inequalities": check_smoothness_inequalities,
    "unbiasedness": check_unbiasedness,
    "table_mean_identity": check_table_mean_identity,
    "jit_equivalence": check_jit_equivalence,
    "scalar_table_equivalence": check_scalar_table_equivalence,
    "sdca_certificates": check_sdca_certificates,
    "minibatch_smoothness_curve": check_minibatch_smoothness_curve,
    "prox_pipeline": check_prox_pipeline,
    "derivative_oracles": check_derivative_oracles,
    "rate_fit_recovery": check_rate_fit_recovery,
}


def _timed(name, check):
    """check()'s result with the seconds it took; an exception it raises
    becomes a failed result that names it."""
    t0 = time.perf_counter()
    try:
        res = check()
    except Exception as e:
        res = CheckResult(name, False, "raised", "no exception", "%s: %s" % (type(e).__name__, e))
    res.seconds = time.perf_counter() - t0
    return res


def run_checks(only=None):
    """Run the named check (or all), each timed, and return CheckResult list;
    a check that raises fails without stopping the others."""
    if only is not None:
        if only not in CHECKS:
            raise KeyError("unknown check %r (valid: %s)" % (only, ", ".join(CHECKS)))
        return [_timed(only, CHECKS[only])]
    return [_timed(name, check) for name, check in CHECKS.items()]
