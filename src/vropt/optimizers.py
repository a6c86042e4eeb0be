"""Iterative methods and the run driver.

Covers the full gradient baseline, plain/momentum/reference-shifted
stochastic gradient, the averaged-gradient table methods, snapshot-anchored
variance reduction (fixed-loop and continuous-correction variants), dual
coordinate ascent, and mini-batch forms of the per-example methods.

Convention used throughout: gradient tables and anchors store only the loss
part loss'(a_i^T x) a_i of each per-example gradient; the l2 term is applied
at the current iterate, so every table-method step has the shape
x <- (1 - gamma*l2) x - gamma * (covariate terms). The estimate whose
expectation matters is always (loss covariates) + l2*x, which averages to the
true full gradient.
"""

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import sparse_jit
from .data import RandomSource
from .diag import StopRule, TraceRecord, duality_gap, enum_stats, should_stop
from .objectives import NonSmoothError, smoothness
from .schedules import (
    SamplingScheme,
    StepsizePolicy,
    armijo_stochastic,
    default_stepsize,
    lipschitz_draws,
    sample,
    theory_policy,
    uniform_scheme,
)

METHODS = ("gd", "sgd", "sgd_momentum", "sgd_star", "sag", "saga", "svrg", "sarah", "sdca")
TABLE_METHODS = ("sag", "saga")
DRAW_BLOCK = 1024  # batches drawn per generator call (uniform b = 1, Lipschitz)


class DivergenceError(RuntimeError):
    """A run produced a non-finite value; carries the partial trace."""

    def __init__(self, message, gamma=None, records=None):
        super().__init__(message)
        self.gamma = gamma
        self.records = records if records is not None else []


class ConfigError(ValueError):
    """Inconsistent run configuration."""


def _check_finite(value, gamma):
    if not math.isfinite(value):
        raise DivergenceError("non-finite value encountered (gamma=%g)" % (gamma if gamma else 0.0), gamma=gamma)


# ---------------------------------------------------------------------------
# states


class GradientTable:
    """Per-example loss-gradient memory v^i plus the running sum.

    mode "dense" stores each v^i = loss'_i * a_i as a dense vector; mode
    "scalar" stores only the scalar loss'_i (valid because the loss gradient
    is a scalar multiple of a_i). Both modes perform identical arithmetic:
    the dense entries are exactly the products the scalar mode recomputes,
    so trajectories match bit for bit.
    """

    def __init__(self, obj, mode="dense"):
        if mode not in ("dense", "scalar"):
            raise ConfigError("table mode must be dense or scalar, not %r" % mode)
        self.mode = mode
        self.n = obj.n
        self.d = obj.d
        if mode == "scalar":
            self.s = np.zeros(self.n)
        else:
            self.v = np.zeros((self.n, self.d))
        self.gsum = np.zeros(self.d)
        self.seen = np.zeros(self.n, dtype=bool)
        self.seen_count = 0

    def cov_vals(self, i, idx, vals):
        """Stored v^i restricted to row i's support (idx, vals = data.row(i))."""
        if self.mode == "scalar":
            return self.s[i] * vals
        return self.v[i, idx]

    def store(self, i, idx, new_vals, new_scalar):
        if self.mode == "scalar":
            self.s[i] = new_scalar
        else:
            self.v[i, idx] = new_vals
        if not self.seen[i]:
            self.seen[i] = True
            self.seen_count += 1

    def mean(self):
        return self.gsum / self.n

    def mean_from_scratch(self, obj):
        """Recomputed (1/n) sum_i v^i, bypassing the running sum."""
        if self.mode == "scalar":
            total = obj.data.weighted_sum(self.s)
        else:
            total = self.v.sum(axis=0)
        return total / self.n

    def mean_rel_error(self, obj):
        ref = self.mean_from_scratch(obj)
        err = np.linalg.norm(self.mean() - ref)
        return float(err / (1.0 + np.linalg.norm(ref)))


@dataclass
class MomentumState:
    m: np.ndarray
    beta: float

    def __post_init__(self):
        if not 0 < self.beta < 1:
            raise ConfigError("momentum beta must lie in (0,1)")


@dataclass(frozen=True)
class StarTable:
    """Reference-point gradients: scalars loss'(a_i^T x*) plus x* itself."""

    x_star: np.ndarray
    scalars: np.ndarray


def star_table(obj, x_star):
    if not obj.loss.smooth:
        raise NonSmoothError("non-smooth loss: %s" % obj.loss.name)
    s = obj.loss.deriv_vec(obj.data.margins(x_star), obj.labels)
    return StarTable(x_star=np.array(x_star, dtype=np.float64), scalars=s)


class SvrgState:
    """Snapshot anchor: x_ref, its per-example loss scalars, and gradients."""

    def __init__(self, t):
        self.t = int(t)
        self.x_ref = None
        self.s_ref = None
        self.loss_ref = None  # loss part of grad f(x_ref)
        self.grad_ref = None  # full grad f(x_ref)


class SarahState:
    """Running estimate g_k plus the previous iterate it was formed at."""

    def __init__(self, t):
        self.t = int(t)
        self.g = None
        self.x_prev = None


class DualState:
    """Dual variables v plus the maintained primal image w = x(v)."""

    def __init__(self, obj):
        if obj.l2 <= 0:
            raise ConfigError("dual ascent requires l2 > 0")
        if obj.l1:
            raise ConfigError("dual ascent does not support an l1 term")
        self.v = np.zeros(obj.n)
        self.w = np.zeros(obj.d)

    def recompute_w(self, obj):
        return obj.data.weighted_sum(self.v) / (obj.l2 * obj.n)

    def w_rel_error(self, obj):
        ref = self.recompute_w(obj)
        return float(np.linalg.norm(self.w - ref) / (1.0 + np.linalg.norm(ref)))


# ---------------------------------------------------------------------------
# single steps (mutate x in place; batch is a sequence of int row indices)
#
# Every per-example method makes the same move (_move); each step below only
# works out its pieces: the anchor term, the per-row vectors, and whether x
# shrinks by the l2 factor.


def _pull(obj, x, batch, gamma):
    """(j, indices, values, loss'(a_j^T x, b_j)) per sampled j; every margin
    is checked before the caller changes any state."""
    indptr, labels, deriv = obj.py_indptr, obj.py_labels, obj.loss.deriv
    cols, values = obj.data.col_indices, obj.data.col_values
    pulls = []
    for j in batch:
        lo, hi = indptr[j], indptr[j + 1]
        idx, vals = cols[lo:hi], values[lo:hi]
        m = float(np.dot(vals, x[idx]))
        _check_finite(m, gamma)
        pulls.append((j, idx, vals, deriv(m, labels[j])))
    return pulls


def _move(obj, x, gamma, weight, anchor, rows, decay=True):
    """x <- (1 - gamma*l2) x + weight*anchor, then x[idx] -= vec for each
    (idx, vec) in rows, then the l1 prox. decay=False keeps x unshrunk (the
    direction already carries l2*x); anchor None drops that term."""
    if decay:
        x *= 1.0 - gamma * obj.l2
    if anchor is not None:
        x += weight * anchor
    for idx, vec in rows:
        x[idx] -= vec
    if obj.l1:
        x[:] = obj.prox(gamma, x)
    return x


def gd_step(obj, x, gamma):
    """Full-gradient step (returns a new iterate; prox applied when l1 > 0)."""
    x = x - gamma * obj.full_grad(x)
    if obj.l1:
        x = obj.prox(gamma, x)
    if not np.isfinite(x).all():
        raise DivergenceError("gd diverged (gamma=%g)" % gamma, gamma=gamma)
    return x


def shift_step(obj, x, batch, gamma, ref=None, anchor=None, anchor_scale=0.0):
    """Control-variate step
    x <- (1 - gamma*l2) x + gamma*anchor_scale*anchor - (gamma/b) sum_j (s_j - ref_j) a_j
    with s_j = loss'(a_j^T x). Plain sgd has no ref and no anchor; sgd_star
    shifts by ref = loss'(a_j^T x*) with anchor (l2, x*); the svrg inner step
    by the snapshot scalars with anchor (-1, loss part of grad f(x_ref))."""
    c = gamma / len(batch)
    rows = [(idx, (c * (s if ref is None else s - ref[j])) * vals)
            for j, idx, vals, s in _pull(obj, x, batch, gamma)]
    return _move(obj, x, gamma, gamma * anchor_scale, anchor if anchor_scale else None, rows)


def table_step(table, obj, x, batch, gamma, saga=False, seen_norm=False):
    """Averaged-gradient step. sag refreshes the sampled entries first, then
    moves along the refreshed average (gsum over n, or over the seen count
    when seen_norm). saga moves with the pre-step average plus (gamma/b)
    Delta_j per draw, Delta_j = fresh minus stored entry, and stores after
    the move. A row drawn twice is stored once: its second Delta is 0."""
    fresh = {}
    for j, idx, vals, s in _pull(obj, x, batch, gamma):
        if j not in fresh:
            new_vals = s * vals
            fresh[j] = (idx, new_vals, s, new_vals - table.cov_vals(j, idx, vals))
    if saga:
        c = gamma / len(batch)
        rows = [(fresh[j][0], c * fresh[j][3]) for j in batch]  # every draw, repeats too
        _move(obj, x, gamma, -(gamma / table.n), table.gsum, rows)
    for j, (idx, new_vals, s, delta) in fresh.items():
        table.store(j, idx, new_vals, s)
        table.gsum[idx] += delta
    if not saga:
        denom = table.seen_count if seen_norm else table.n
        _move(obj, x, gamma, -(gamma / denom), table.gsum, ())
    return x


def momentum_step(state, obj, x, batch, gamma):
    """Heavy ball: m <- beta*m + grad f_B(x), then x <- x - gamma*m."""
    b = len(batch)
    mv = state.m
    pulls = _pull(obj, x, batch, gamma)
    mv *= state.beta
    if obj.l2:
        mv += obj.l2 * x
    for _, idx, vals, s in pulls:
        mv[idx] += (s / b) * vals
    return _move(obj, x, gamma, -gamma, mv, (), decay=False)


def svrg_outer_refresh(state, obj, x):
    """Re-anchor at x: store the snapshot, its loss scalars, and gradients."""
    state.x_ref = x.copy()
    state.s_ref = obj.loss.deriv_vec(obj.data.margins(x), obj.labels)
    state.loss_ref = obj.data.weighted_sum(state.s_ref) / obj.n
    state.grad_ref = state.loss_ref + obj.l2 * state.x_ref
    return state


def sarah_refresh(state, obj, x):
    state.g = obj.full_grad(x)
    state.x_prev = x.copy()
    return state


def sarah_step(state, obj, x, batch, gamma):
    """Continuous correction g += grad f_B(x) - grad f_B(x_prev), then
    x <- x - gamma*g; biased."""
    if state.g is None:
        raise RuntimeError("inner step before any refresh")
    b = len(batch)
    lam = obj.l2
    pulls = []
    for j in batch:
        idx, vals = obj.data.row(j)
        m_now = float(np.dot(vals, x[idx]))
        m_prev = float(np.dot(vals, state.x_prev[idx]))
        _check_finite(m_now, gamma)
        ds = obj.loss.deriv(m_now, obj.labels[j]) - obj.loss.deriv(m_prev, obj.labels[j])
        pulls.append((idx, vals, ds))
    if lam:
        state.g += lam * (x - state.x_prev)
    for idx, vals, ds in pulls:
        state.g[idx] += (ds / b) * vals
    state.x_prev[:] = x
    return _move(obj, x, gamma, -gamma, state.g, (), decay=False)


# ---------------------------------------------------------------------------
# dual coordinate ascent


def _logistic_dual_root(rho, bmt, tol=1e-12, max_iter=100):
    """Root of g(s) = log(s/(1-s)) + rho*s + bmt on (0,1), safeguarded Newton."""
    lo, hi = 0.0, 1.0
    # the rho=0 solution is exact and an excellent start otherwise
    s = 1.0 / (1.0 + np.exp(min(max(bmt, -700.0), 700.0)))
    s = min(max(s, 1e-300), 1.0 - 1e-16)
    for _ in range(max_iter):
        g = np.log(s / (1.0 - s)) + rho * s + bmt
        if abs(g) <= tol:
            return s
        if g > 0:
            hi = s
        else:
            lo = s
        step = g / (1.0 / s + 1.0 / (1.0 - s) + rho)
        s_new = s - step
        if not lo < s_new < hi:
            s_new = 0.5 * (lo + hi)
        s = s_new
    raise RuntimeError("dual line search did not converge in %d iterations" % max_iter)


def sdca_step(dual, obj, i):
    """Exact coordinate maximization of the dual at index i.

    Updates v_i and w in place and returns the (scaled by n) increase of the
    dual objective, which is nonnegative up to solver tolerance.
    """
    idx, vals = obj.data.row(i)
    b = obj.labels[i]
    lam_n = obj.l2 * obj.n
    m = float(np.dot(vals, dual.w[idx]))
    rho = obj.row_sq[i] / lam_n
    v_old = float(dual.v[i])
    mt = m - rho * v_old  # margin excluding example i's own contribution
    kind = obj.loss.name
    if kind == "half_squared":
        v_new = (b - mt) / (1.0 + rho)
    elif kind == "hinge":
        if rho == 0.0:
            v_new = b if (1.0 - b * mt) > 0 else 0.0
        else:
            s = (1.0 - b * mt) / rho
            v_new = b * min(1.0, max(0.0, s))
    elif kind == "logistic":
        if rho == 0.0:
            s = 1.0 / (1.0 + np.exp(min(max(b * mt, -700.0), 700.0)))
        else:
            s = _logistic_dual_root(rho, b * mt)
        v_new = b * s
    else:
        raise ConfigError("dual ascent does not support loss %r" % kind)
    dv = v_new - v_old
    if dv != 0.0:
        dual.w[idx] += (dv / lam_n) * vals
        dual.v[i] = v_new
    gain = (
        obj.loss.conjugate(-v_old, b)
        - obj.loss.conjugate(-v_new, b)
        - dv * m
        - 0.5 * rho * dv * dv
    )
    return float(gain)


# ---------------------------------------------------------------------------
# estimators for the enumeration oracles


def sgd_estimator(obj):
    return lambda x, i: obj.grad_i(x, i)


def sgd_star_estimator(obj, star):
    def est(x, i):
        idx, vals = obj.data.row(i)
        g = obj.l2 * (x - star.x_star)
        s = obj.loss.deriv(float(np.dot(vals, x[idx])), obj.labels[i])
        g[idx] += (s - star.scalars[i]) * vals
        return g

    return est


def saga_estimator(obj, table):
    def est(x, i):
        idx, vals = obj.data.row(i)
        g = table.mean() + obj.l2 * x
        s = obj.loss.deriv(float(np.dot(vals, x[idx])), obj.labels[i])
        g[idx] += s * vals - table.cov_vals(i, idx, vals)
        return g

    return est


def sag_estimator(obj, table, seen_norm=False):
    """Direction the averaged-gradient method would move along after sampling
    i (biased: its mean is not the gradient until the table is current)."""

    def est(x, i):
        idx, vals = obj.data.row(i)
        s = obj.loss.deriv(float(np.dot(vals, x[idx])), obj.labels[i])
        seen = table.seen_count + (0 if table.seen[i] else 1)
        denom = seen if seen_norm else table.n
        num = table.gsum.copy()
        num[idx] += s * vals - table.cov_vals(i, idx, vals)
        return num / denom + obj.l2 * x

    return est


def svrg_estimator(obj, state):
    def est(x, i):
        if state.x_ref is None:
            return obj.grad_i(x, i)  # no anchor yet: plain stochastic gradient
        idx, vals = obj.data.row(i)
        g = state.loss_ref + obj.l2 * x
        s = obj.loss.deriv(float(np.dot(vals, x[idx])), obj.labels[i])
        g[idx] += (s - state.s_ref[i]) * vals
        return g

    return est


# ---------------------------------------------------------------------------
# run driver


def index_batches(scheme, rng, n):
    """Endless index batches (lists of ints) for one run, in the order
    sample() would draw them. Uniform single draws and Lipschitz batches come
    DRAW_BLOCK batches at a time from one generator call, which continues the
    stream exactly as that many sample() calls; uniform mini-batches call
    sample per batch."""
    b = scheme.batch
    if scheme.kind == "uniform" and b == 1:
        while True:
            for i in rng.integers(n, size=DRAW_BLOCK).tolist():
                yield [i]
    if scheme.kind == "lipschitz":
        while True:
            block = lipschitz_draws(scheme, rng, n, DRAW_BLOCK * b).tolist()
            for k in range(0, len(block), b):
                yield block[k:k + b]
    while True:
        yield sample(scheme, rng, n).tolist()


@dataclass
class RunConfig:
    """Everything one run needs besides the objective itself.

    gamma overrides the policy; policy defaults to the theory stepsize.
    epochs is a budget in units of n gradient evaluations. Checkpoints are
    emitted whenever the evaluation count crosses a multiple of
    checkpoint_every epochs (never inside a full-gradient refresh).
    """

    method: str
    epochs: float = 10.0
    seed: int = 0
    gamma: float | None = None
    policy: StepsizePolicy | None = None
    scheme: SamplingScheme | None = None
    beta: float = 0.0
    inner_t: int | None = None
    table_mode: str = "dense"
    seen_norm: bool = False
    jit: str = "off"  # "auto" | "on" | "off"
    x_star: np.ndarray | None = None
    warm_start_sgd_epochs: float = 0.0
    checkpoint_every: float = 1.0
    stop: str | None = None
    f_star: float | None = None
    record_iterates: bool = False
    var_epochs: frozenset | None = None  # record var_est at these epochs (None: never)


@dataclass
class RunResult:
    records: list
    x: np.ndarray
    grad_evals: int
    aux: dict = field(default_factory=dict)
    iterates: list = field(default_factory=list)


def _validate(config, obj):
    """Reject inconsistent configurations; returns the parsed stop rule."""
    if config.method not in METHODS:
        raise ConfigError("unknown method %r (valid: %s)" % (config.method, ", ".join(METHODS)))
    if config.method != "sdca" and not obj.loss.smooth:
        raise ConfigError("loss %s is only supported by sdca" % obj.loss.name)
    if config.method == "sgd_momentum" and not 0 < config.beta < 1:
        raise ConfigError("sgd_momentum needs beta in (0,1)")
    if config.method == "sgd_star" and config.x_star is None:
        raise ConfigError("sgd_star needs x_star")
    if config.method == "sdca":
        if (config.scheme or uniform_scheme()).batch != 1:
            raise ConfigError("sdca is a single-coordinate method (batch=1)")
        if (config.scheme or uniform_scheme()).kind != "uniform":
            raise ConfigError("sdca supports uniform sampling only")
    if config.method == "sdca" and config.warm_start_sgd_epochs:
        raise ConfigError("sdca has no primal step to warm-start with sgd")
    if not 0 <= config.epochs < np.inf:
        raise ConfigError("epochs must be nonnegative and finite")
    if not 0 <= config.warm_start_sgd_epochs < np.inf:
        raise ConfigError("warm_start_sgd_epochs must be nonnegative and finite")
    if not 0 < config.checkpoint_every < np.inf:
        raise ConfigError("checkpoint_every must be positive and finite")
    if config.seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    if config.inner_t is not None and config.inner_t < 1:
        raise ConfigError("inner_t must be a positive integer")
    rule = StopRule.parse(config.stop)
    if rule.kind == "gap" and config.method != "sdca":
        raise ConfigError("gap stop rule is only available for sdca")
    if rule.kind == "gbar" and config.method not in TABLE_METHODS:
        raise ConfigError("gbar stop rule needs a gradient table (sag/saga)")
    if rule.kind in ("grad", "gbar") and config.method == "sdca":
        raise ConfigError("sdca runs stop on the gap metric, not gradient norms")
    return rule


def _resolve_gamma(config, obj, scheme):
    """Constant stepsize, or None when the policy is per-step (armijo)."""
    policy = config.policy
    if config.gamma is not None:
        return float(config.gamma), None
    if policy is None:
        policy = theory_policy()
    if policy.kind == "fixed":
        return float(policy.gamma), None
    if policy.kind == "armijo":
        if config.method in ("gd", "sdca", "sgd_momentum"):
            raise ConfigError("armijo stepsizes are per-example; not valid for %s" % config.method)
        return None, policy
    info = smoothness(obj)
    return default_stepsize(config.method, info, scheme), None


class Recorder:
    """The checkpoints of one run, shared by the dense loops and the lazy
    engine: stride, record fields, stop test and closing record.

    A checkpoint is due whenever the evaluation count reaches the next
    multiple of the stride. sync, when set, runs before a checkpoint reads
    x; the lazy engine sets it to bring every coordinate current.
    """

    def __init__(self, config, obj, rule, gamma, estimator=None, table=None, dual=None):
        self.config = config
        self.obj = obj
        self.rule = rule
        self.gamma = gamma
        self.estimator = estimator
        self.table = table
        self.dual = dual
        self.sync = None
        self.records = []
        self.stride = max(1, int(round(config.checkpoint_every * obj.n)))
        self.next_cp = 0
        self.t0 = time.perf_counter()

    def checkpoint(self, x, evals, force=False):
        """Record a checkpoint if one is due (always when force); True when
        the new record meets the stop rule."""
        if not force and evals < self.next_cp:
            return False
        while self.next_cp <= evals:
            self.next_cp += self.stride
        if self.sync is not None:
            self.sync()
        config, obj, table, dual = self.config, self.obj, self.table, self.dual
        cur = dual.w if dual is not None else x
        f = obj.objective_value(cur)
        if not np.isfinite(f):
            raise DivergenceError("objective diverged (gamma=%s)" % self.gamma, gamma=self.gamma, records=self.records)
        rec = TraceRecord(epoch=evals / obj.n, grad_evals=evals, f=f)
        if config.f_star is not None:
            rec.subopt = f - config.f_star
        if dual is not None:
            rec.gap = duality_gap(obj, dual)
        elif self.rule.kind == "gbar":
            gbar = table.gsum / (table.seen_count if config.seen_norm and table.seen_count else table.n)
            rec.grad_norm = float(np.linalg.norm(gbar + obj.l2 * x))
        elif obj.loss.smooth:
            rec.grad_norm = float(np.linalg.norm(obj.full_grad(cur)))
        if config.var_epochs is not None and self.estimator is not None:
            if int(round(rec.epoch)) in config.var_epochs:
                _, rec.var_est = enum_stats(obj, self.estimator, cur)
        rec.time_s = time.perf_counter() - self.t0
        self.records.append(rec)
        return self.rule.kind != "epochs" and should_stop(self.rule, rec)

    def close(self, x, evals):
        """The closing record, unless the last checkpoint is already at evals."""
        if not self.records or self.records[-1].grad_evals != evals:
            self.checkpoint(x, evals, force=True)


def run(config, obj, x0=None):
    """Execute one configured run and return its trace and final iterate.

    The one driver for both engines: it validates the configuration,
    resolves the stepsize, builds the method state and hands sag/saga to the
    lazy engine (sparse_jit.run_jit) when config.jit allows and
    jit_compatible passes.

    Raises DivergenceError (carrying the partial trace) on non-finite values.
    """
    rule = _validate(config, obj)
    method = config.method
    n = obj.n
    scheme = config.scheme or uniform_scheme()
    draws = index_batches(scheme, RandomSource(config.seed), n)
    x = np.zeros(obj.d) if x0 is None else np.array(x0, dtype=np.float64)

    gamma = None
    armijo = None
    if method != "sdca":
        gamma, armijo = _resolve_gamma(config, obj, scheme)

    lazy = False
    if config.jit != "off":
        reason = sparse_jit.jit_compatible(config, obj, gamma)
        if reason is not None and config.jit == "on":
            raise ConfigError("jit mode unavailable: %s" % reason)
        lazy = reason is None

    warm_budget = int(round(config.warm_start_sgd_epochs * n))
    budget = warm_budget + int(round(config.epochs * n))
    iterates = []
    aux = {}
    evals = 0
    steps = 0

    # method state, and the per-example step step(x, batch, gamma)
    table = None
    svrg = None
    sarah = None
    dual = None
    estimator = None
    step = None
    if method in TABLE_METHODS:
        table = GradientTable(obj, config.table_mode)
        aux["table"] = table
        step = partial(table_step, table, obj, saga=method == "saga", seen_norm=config.seen_norm)
        if method == "saga":
            estimator = saga_estimator(obj, table)
        else:
            estimator = sag_estimator(obj, table, config.seen_norm)
    elif method == "sgd":
        step = partial(shift_step, obj)
        estimator = sgd_estimator(obj)
    elif method == "sgd_momentum":
        step = partial(momentum_step, MomentumState(m=np.zeros(obj.d), beta=config.beta), obj)
        estimator = sgd_estimator(obj)
    elif method == "sgd_star":
        star = star_table(obj, config.x_star)
        step = partial(shift_step, obj, ref=star.scalars, anchor=star.x_star, anchor_scale=obj.l2)
        estimator = sgd_star_estimator(obj, star)
        aux["star"] = star
    elif method == "svrg":
        svrg = SvrgState(config.inner_t or n)
        aux["svrg"] = svrg
        estimator = svrg_estimator(obj, svrg)

        def step(x, batch, g):
            return shift_step(obj, x, batch, g, svrg.s_ref, svrg.loss_ref, -1.0)
    elif method == "sarah":
        sarah = SarahState(config.inner_t or n)
        aux["sarah"] = sarah
        step = partial(sarah_step, sarah, obj)
    elif method == "sdca":
        dual = DualState(obj)
        aux["dual"] = dual
        aux["min_dual_gain"] = np.inf
    recorder = Recorder(config, obj, rule, gamma, estimator, table, dual)

    def note_iterate():
        if config.record_iterates:
            iterates.append((steps, x.copy()))

    def per_example(stepper, until):
        """Sampled steps until evals reaches until; True once the stop rule is met."""
        nonlocal evals, steps
        while evals < until:
            batch = next(draws)
            g = gamma if armijo is None else _armijo_gamma(obj, x, batch, armijo, aux)
            stepper(x, batch, g)
            evals += len(batch)
            steps += 1
            note_iterate()
            if recorder.checkpoint(x, evals):
                return True
        return False

    recorder.checkpoint(x, evals, force=True)
    note_iterate()
    try:
        # optional plain-SGD warm phase, charged to the same counters
        stopped = per_example(partial(shift_step, obj), warm_budget)
        if lazy:
            evals, lazy_x = sparse_jit.run_jit(recorder, x, draws, budget)
            aux.update(jit=True, lazy=lazy_x, touched_coords=lazy_x.touched)
        elif method == "gd":
            while evals < budget and not stopped:
                x = gd_step(obj, x, gamma)
                evals += n
                steps += 1
                note_iterate()
                stopped = recorder.checkpoint(x, evals)
        elif method in ("svrg", "sarah"):
            # the stop rule is tested only at outer boundaries, on the
            # full gradient the refresh computes
            state = svrg if method == "svrg" else sarah
            while evals < budget and not stopped:
                if method == "svrg":
                    svrg_outer_refresh(state, obj, x)
                else:
                    sarah_refresh(state, obj, x)
                evals += n
                if rule.kind == "grad":
                    ref_norm = float(np.linalg.norm(state.grad_ref if method == "svrg" else state.g))
                    if ref_norm <= rule.eps:
                        recorder.checkpoint(x, evals, force=True)
                        break
                for _ in range(state.t):
                    batch = next(draws)
                    g = gamma if armijo is None else _armijo_gamma(obj, x, batch, armijo, aux)
                    step(x, batch, g)
                    evals += 2 * len(batch)
                    steps += 1
                    note_iterate()
                    recorder.checkpoint(x, evals)
        elif method == "sdca":
            min_gain = np.inf
            while evals < budget and not stopped:
                gain = sdca_step(dual, obj, next(draws)[0])
                if gain < min_gain:
                    min_gain = gain
                evals += 1
                steps += 1
                stopped = recorder.checkpoint(x, evals)
            aux["min_dual_gain"] = min_gain
        elif not stopped:
            per_example(step, budget)
    except DivergenceError as err:
        err.records = recorder.records
        raise
    recorder.close(x, evals)
    xf = dual.w.copy() if method == "sdca" else x
    if config.record_iterates and (not iterates or iterates[-1][0] != steps):
        iterates.append((steps, xf.copy()))
    return RunResult(records=recorder.records, x=xf, grad_evals=evals, aux=aux, iterates=iterates)


def _armijo_gamma(obj, x, batch, policy, aux):
    """Backtracked stepsize on the sampled example along -grad f_i(x).

    Warm-started at twice the previously accepted value (capped at the
    policy maximum), which keeps the expected number of trial evaluations
    near one once the scale settles.
    """
    i = int(batch[0])
    warm = aux.get("armijo_last")
    start = None if warm is None else min(2.0 * warm, policy.gamma_max)
    g = armijo_stochastic(obj, i, x, -obj.grad_i(x, i), policy, gamma_start=start)
    aux["armijo_last"] = g
    return g
