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

import numpy as np

from . import sparse_jit
from .data import RandomSource
from .diag import StopRule, TraceRecord, duality_gap, enum_stats, should_stop
from .objectives import NonSmoothError, smoothness
from .schedules import (
    SamplingScheme,
    armijo_stochastic,
    check_batch,
    default_stepsize,
    draw_batches,
    uniform_scheme,
)
from .schedules import sample  # noqa: F401 -- perfbench/tracing.py wraps this name here

METHODS = ("gd", "sgd", "sgd_momentum", "sgd_star", "sag", "saga", "svrg", "sarah", "sdca")
TABLE_METHODS = ("sag", "saga")
DRAW_BLOCK = 1024  # batches drawn per generator call


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
    """Per-example loss-gradient memory v^i plus the running sum gsum.

    The loss gradient of example i is loss'_i * a_i, a scalar multiple of
    its row, so the table stores only the scalar s[i] = loss'_i (n floats,
    not an n x d array) and a step recomputes v^i = s[i] * a_i on the row's
    support. The steppers update gsum = sum_i v^i themselves.
    """

    mode = "scalar"  # kept with s, gsum and seen: perfbench/tracing.py run_result reads them

    def __init__(self, obj):
        self.n = obj.n
        self.s = np.zeros(obj.n)
        self.gsum = np.zeros(obj.d)
        self.seen = np.zeros(obj.n, dtype=bool)  # never written: perfbench/tracing.py counts its bytes

    def mean_rel_error(self, obj):
        """Relative gap between the running mean and (1/n) sum_i v^i
        recomputed from s."""
        ref = obj.data.weighted_sum(self.s) / self.n
        err = np.linalg.norm(self.gsum / self.n - ref)
        return float(err / (1.0 + np.linalg.norm(ref)))


@dataclass
class MomentumState:
    m: np.ndarray
    beta: float


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
    """Dual variables v, the maintained primal image w = x(v), and the
    smallest scaled dual gain a step has returned (min_gain)."""

    def __init__(self, obj):
        if obj.l2 <= 0:
            raise ConfigError("dual ascent requires l2 > 0")
        if obj.l1:
            raise ConfigError("dual ascent does not support an l1 term")
        self.v = np.zeros(obj.n)
        self.w = np.zeros(obj.d)
        self.min_gain = math.inf

    def w_rel_error(self, obj):
        """Relative gap between w and x(v) recomputed from v."""
        ref = obj.data.weighted_sum(self.v) / (obj.l2 * obj.n)
        return float(np.linalg.norm(self.w - ref) / (1.0 + np.linalg.norm(ref)))


# ---------------------------------------------------------------------------
# step kernels
#
# run() builds each method's step once, for batches of b rows (svrg and sarah
# once per stage): a closure over the run's constants and state arrays, with
# the one signature step(x, batch, gamma). Every per-example primal kernel
# makes the same move (_mover) and only works out its pieces: the anchor
# term, the per-row coefficients, and whether x shrinks by the l2 factor.


def _puller(obj, b):
    """pull(x, batch, gamma) -> (idx, vals, lens, ms): the rows' support and
    values (row j's slices when b = 1, lens None; else the rows gathered in
    batch order, lens their lengths) and margins a_j^T x, one ndarray.dot per
    row, all checked finite before the caller changes any state."""
    indptr, cols, values, isfinite = obj.py_indptr, obj.data.col_indices, obj.data.col_values, math.isfinite
    np_indptr = obj.data.indptr

    def pull(x, batch, gamma):
        if b == 1:
            lo, hi = indptr[batch[0]], indptr[batch[0] + 1]
            idx, vals = cols[lo:hi], values[lo:hi]
            m = float(vals.dot(x[idx]))
            _check_finite(m, gamma)
            return idx, vals, None, (m,)
        rows = np.array(batch)
        lo = np_indptr[rows]
        lens = np_indptr[rows + 1] - lo
        ends = lens.cumsum()
        starts = ends - lens
        pos = np.arange(ends[-1]) + (lo - starts).repeat(lens)
        idx, vals = cols[pos], values[pos]
        xg = x[idx]
        ms = [float(vals[a:e].dot(xg[a:e])) for a, e in zip(starts.tolist(), ends.tolist())]
        if not all(map(isfinite, ms)):
            _check_finite(math.nan, gamma)
        return idx, vals, lens, ms
    return pull


def _spread(coefs, lens, vals):
    """coefs[k] * a_k on each row's support: the rows' vectors, joined."""
    return coefs[0] * vals if lens is None else np.array(coefs).repeat(lens) * vals


def _mover(obj, b, decay=True):
    """move(x, gamma, weight, anchor, idx=None, vec=None): x <- (1 - gamma*l2) x
    + weight*anchor, then x[idx] -= vec row after row (np.subtract.at when b > 1:
    a batch's joined support may repeat an index), then the l1 prox. decay=False
    keeps x unshrunk (the direction carries l2*x); anchor None drops the term."""
    l2, l1, prox = obj.l2, obj.l1, obj.prox
    buf = np.empty(obj.d)

    def move(x, gamma, weight, anchor, idx=None, vec=None):
        if decay:
            x *= 1.0 - gamma * l2
        if anchor is not None:
            x += np.multiply(weight, anchor, out=buf)
        if idx is not None and b == 1:
            x[idx] -= vec
        elif idx is not None:
            np.subtract.at(x, idx, vec)
        if l1:
            x[:] = prox(gamma, x)
        return x
    return move


def gd_step(obj, x, gamma):
    """Full-gradient step (returns a new iterate; prox applied when l1 > 0)."""
    x = x - gamma * obj.full_grad(x)
    if obj.l1:
        x = obj.prox(gamma, x)
    if not np.isfinite(x).all():
        raise DivergenceError("gd diverged (gamma=%g)" % gamma, gamma=gamma)
    return x


def _shift_kernel(obj, b, ref=None, anchor=None, anchor_scale=0.0):
    """Control-variate step
    x <- (1 - gamma*l2) x + gamma*anchor_scale*anchor - (gamma/b) sum_j (s_j - ref_j) a_j
    with s_j = loss'(a_j^T x). Plain sgd has ref 0 (None; s - 0.0 is s) and no
    anchor; sgd_star has ref loss'(a_j^T x*), anchor (l2, x*); the svrg inner
    step the snapshot scalars, anchor (-1, loss part of grad f(x_ref))."""
    anchor = anchor if anchor_scale else None
    pull, move, deriv, labels = _puller(obj, b), _mover(obj, b), obj.loss.deriv, obj.py_labels
    ref = memoryview(np.zeros(obj.n)) if ref is None else ref

    def step(x, batch, gamma):
        idx, vals, lens, ms = pull(x, batch, gamma)
        c = gamma / b
        if lens is None:
            j = batch[0]
            vec = (c * (deriv(ms[0], labels[j]) - ref[j])) * vals
        else:
            vec = _spread([c * (deriv(m, labels[j]) - ref[j]) for j, m in zip(batch, ms)], lens, vals)
        return move(x, gamma, gamma * anchor_scale, anchor, idx, vec)
    return step


def _table_kernel(obj, b, table, saga):
    """Averaged-gradient step. sag refreshes the sampled entries first, then
    moves along the refreshed average gsum/n. saga moves with the pre-step
    average plus (gamma/b) Delta_j per draw, Delta_j = fresh minus stored
    entry (the move reads gsum, not the entries). A row drawn twice moves x
    twice but enters gsum once."""
    pull, move, deriv, labels = _puller(obj, b), _mover(obj, b), obj.loss.deriv, obj.py_labels
    tab, gsum, n = table.s, table.gsum, table.n

    def step(x, batch, gamma):
        idx, vals, lens, ms = pull(x, batch, gamma)
        if lens is None:
            j = batch[0]
            s = deriv(ms[0], labels[j])
            delta = s * vals - tab[j] * vals
            tab[j] = s
        else:
            s = [deriv(m, labels[j]) for j, m in zip(batch, ms)]
            delta = _spread(s, lens, vals) - _spread(tab[batch], lens, vals)
            tab[batch] = s  # a repeated row repeats its value
        if saga:
            move(x, gamma, -(gamma / n), gsum, idx, (gamma / b) * delta)
        if lens is None:
            gsum[idx] += delta
        else:  # a row drawn twice enters the table once
            first = np.repeat([j not in batch[:k] for k, j in enumerate(batch)], lens)
            np.add.at(gsum, idx[first], delta[first])
        if not saga:
            move(x, gamma, -(gamma / n), gsum)
        return x
    step.written = (tab, gsum)  # the arrays an enumeration (diag.enum_stats) puts back
    return step


def _momentum_kernel(obj, b, state):
    """Heavy ball: m <- beta*m + grad f_B(x), then x <- x - gamma*m."""
    pull, move, deriv, labels = _puller(obj, b), _mover(obj, b, decay=False), obj.loss.deriv, obj.py_labels
    beta, l2 = state.beta, obj.l2

    def step(x, batch, gamma):
        idx, vals, lens, ms = pull(x, batch, gamma)
        state.m *= beta
        if l2:
            state.m += l2 * x
        np.add.at(state.m, idx, _spread([deriv(m, labels[j]) / b for j, m in zip(batch, ms)], lens, vals))
        return move(x, gamma, -gamma, state.m)
    step.written = (state.m,)
    return step


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


def _sarah_kernel(obj, b, state):
    """Continuous correction g += grad f_B(x) - grad f_B(x_prev), then
    x <- x - gamma*g; biased."""
    if state.g is None:
        raise RuntimeError("inner step before any refresh")
    pull, move, deriv, labels = _puller(obj, b), _mover(obj, b, decay=False), obj.loss.deriv, obj.py_labels
    x_prev, l2 = state.x_prev, obj.l2

    def step(x, batch, gamma):
        idx, vals, lens, ms = pull(x, batch, gamma)
        ps = pull(x_prev, batch, gamma)[3]
        ds = [(deriv(m, labels[j]) - deriv(p, labels[j])) / b for j, m, p in zip(batch, ms, ps)]
        if l2:
            state.g += l2 * (x - x_prev)
        np.add.at(state.g, idx, _spread(ds, lens, vals))
        x_prev[:] = x
        return move(x, gamma, -gamma, state.g)
    step.written = (state.g, x_prev)
    return step


# ---------------------------------------------------------------------------
# dual coordinate ascent


def _logistic_dual_root(rho, bmt, tol=1e-12, max_iter=100):
    """Root of g(s) = log(s/(1-s)) + rho*s + bmt on (0,1), safeguarded Newton.
    numpy's exp and log, in Python floats (math's differ in the last bit)."""
    lo, hi = 0.0, 1.0
    # the rho=0 solution is exact and an excellent start otherwise
    s = 1.0 / (1.0 + float(np.exp(min(max(bmt, -700.0), 700.0))))
    s = min(max(s, 1e-300), 1.0 - 1e-16)
    for _ in range(max_iter):
        g = float(np.log(s / (1.0 - s))) + rho * s + bmt
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


def _sdca_kernel(obj, dual):
    """Exact coordinate maximization of the dual at the drawn index i.

    Updates v_i and x = dual.w in place and returns the (scaled by n)
    increase of the dual objective, which is nonnegative up to solver
    tolerance, lowering dual.min_gain to it. The kernel picks the loss's
    solver once and keeps each conj(-v_i, b_i) until v_i moves; gamma is
    not read."""
    # solve(b, mt, rho): the maximizing v_i for label b, margin mt without
    # example i, and rho = ||a_i||^2 / (l2 n)
    kind = obj.loss.name
    if kind == "half_squared":
        def solve(b, mt, rho):
            return (b - mt) / (1.0 + rho)
    elif kind == "hinge":
        def solve(b, mt, rho):
            if rho == 0.0:
                return b if (1.0 - b * mt) > 0 else 0.0
            return b * min(1.0, max(0.0, (1.0 - b * mt) / rho))
    elif kind == "logistic":
        def solve(b, mt, rho):
            if rho == 0.0:
                return b * (1.0 / (1.0 + np.exp(min(max(b * mt, -700.0), 700.0))))
            return b * _logistic_dual_root(rho, b * mt)
    else:
        raise ConfigError("dual ascent does not support loss %r" % kind)
    pull, conj, labels = _puller(obj, 1), obj.loss.conjugate, obj.py_labels
    lam_n, v, row_sq = obj.l2 * obj.n, memoryview(dual.v), memoryview(obj.row_sq)
    conj_v = memoryview(obj.loss.conjugate_vec(-dual.v, obj.labels))  # conj(-v_i, b_i)

    def step(x, batch, gamma):
        idx, vals, _, (m,) = pull(x, batch, gamma)
        i = batch[0]
        b = labels[i]
        rho = row_sq[i] / lam_n
        v_old = v[i]
        mt = m - rho * v_old  # margin excluding example i's own contribution
        v_new = solve(b, mt, rho)
        dv = v_new - v_old
        c_old, c_new = conj_v[i], conj(-v_new, b)
        if dv != 0.0:
            x[idx] += (dv / lam_n) * vals
            v[i] = v_new
            conj_v[i] = c_new
        gain = float(c_old - c_new - dv * m - 0.5 * rho * dv * dv)
        if gain < dual.min_gain:
            dual.min_gain = gain
        return gain
    return step


# ---------------------------------------------------------------------------
# a method's kernel over its state


def method_kernel(method, obj, b, state=None, lazy=None):
    """step(x, batch, gamma), the step run() builds for any method at batches
    of b rows, over the method's state (the GradientTable, MomentumState,
    StarTable, svrg/sarah stage or DualState; gd and sgd take none); given a
    sparse_jit.LazyIterate lazy, sparse_jit's table or shift step over it.
    svrg's binds the stage's anchor; before the first refresh, none. gd's
    moves on the full gradient; sdca's steps x = the DualState's w."""
    if method == "gd":
        def step(x, batch, gamma):
            x[:] = gd_step(obj, x, gamma)  # the name read per call: perfbench/tracing.py wraps it
            return x
        return step
    if method == "sdca":
        return _sdca_kernel(obj, state)
    if method in TABLE_METHODS:
        args = state, method == "saga"
        return _table_kernel(obj, b, *args) if lazy is None else sparse_jit.table_step(obj, lazy, *args)
    if method == "sgd_momentum":
        return _momentum_kernel(obj, b, state)
    if method == "sarah":
        return _sarah_kernel(obj, b, state)
    args = ()
    if method == "sgd_star":
        args = memoryview(state.scalars), state.x_star, obj.l2
    elif method == "svrg" and state.x_ref is not None:
        args = memoryview(state.s_ref), state.loss_ref, -1.0
    return _shift_kernel(obj, b, *args) if lazy is None else sparse_jit.shift_step(obj, lazy, *args)


# ---------------------------------------------------------------------------
# run driver


def index_batches(scheme, rng, n):
    """Endless index batches (lists of ints) for one run, in the order
    sample() would draw them, DRAW_BLOCK batches per generator call."""
    while True:
        yield from draw_batches(scheme, rng, n, DRAW_BLOCK)


@dataclass
class RunConfig:
    """Everything one run needs besides the objective itself.

    The stepsize is gamma when set; otherwise, when armijo is set, a
    backtracking search from gamma_max = armijo at each step; otherwise the
    theory default (schedules.default_stepsize) for the method and scheme.
    epochs is a budget in units of n gradient evaluations. Checkpoints are
    emitted whenever the evaluation count crosses a multiple of
    checkpoint_every epochs (never inside a full-gradient refresh).
    """

    method: str
    epochs: float = 10.0
    seed: int = 0
    gamma: float | None = None
    armijo: float | None = None
    scheme: SamplingScheme = field(default_factory=uniform_scheme)
    beta: float = 0.0
    inner_t: int | None = None
    jit: str = "auto"  # "auto" | "on" | "off": sparse_jit.choose_engine
    x_star: np.ndarray | None = None
    warm_start_sgd_epochs: float = 0.0
    checkpoint_every: float = 1.0
    stop: str | None = None
    f_star: float | None = None
    record_iterates: bool = False
    var_epochs: frozenset | None = None  # record var_est at these epochs (None: never)


# The domain of every numeric input, read by _validate and (at n = 1) by the CLI's flags:
# name -> (the kind a flag's text parses as, test(x, n), the phrase after "NAME must be").
# An epoch count x is a budget of x*n evaluations, which run() rounds to an int.
_EPOCHS = (float, lambda x, n: x >= 0 and math.isfinite(x * n), "nonnegative, and finite times n")
_POSITIVE_INT = (int, lambda x, n: x >= 1, "a positive integer")
_POSITIVE_FINITE = (float, lambda x, n: 0 < x < math.inf, "positive and finite")
DOMAINS = {
    "epochs": _EPOCHS, "warm_start_sgd_epochs": _EPOCHS,
    "checkpoint_every": (float, lambda x, n: x > 0 and math.isfinite(x * n), "positive, and finite times n"),
    "gamma": _POSITIVE_FINITE, "gamma_max": _POSITIVE_FINITE, "tol": _POSITIVE_FINITE,
    "beta": (float, lambda x, n: 0 <= x < 1, "in [0, 1)"),
    "seed": (int, lambda x, n: x >= 0, "a nonnegative integer"),
    "inner_t": _POSITIVE_INT, "batch": _POSITIVE_INT, "dim": _POSITIVE_INT, "grid": _POSITIVE_INT,
}


def check_domain(name, value, n=1, error=ConfigError):
    """value, or the number its text spells, if in DOMAINS[name] for n examples; else raises error."""
    kind, test, phrase = DOMAINS[name]
    try:
        x = kind(value) if isinstance(value, str) else value
    except ValueError:
        x = math.nan  # in no domain
    if not test(x, n):
        raise error("%s must be %s, got %r" % (name, phrase, value))
    return x


@dataclass
class RunResult:
    records: list
    x: np.ndarray
    grad_evals: int
    iterates: np.ndarray  # (steps + 1, d) float64 under record_iterates, else (0, d)
    aux: dict = field(default_factory=dict)


def _validate(config, obj):
    """Reject inconsistent configurations; returns the parsed stop rule."""
    if config.method not in METHODS:
        raise ConfigError("unknown method %r (valid: %s)" % (config.method, ", ".join(METHODS)))
    if config.method != "sdca" and not obj.loss.smooth:
        raise ConfigError("loss %s is only supported by sdca" % obj.loss.name)
    for name in DOMAINS:  # gamma_max is the armijo field; batch, dim, grid and tol read None
        value = getattr(config, "armijo" if name == "gamma_max" else name, None)
        if value is not None:
            check_domain(name, value, obj.n)
    if config.method == "sgd_momentum" and not config.beta:
        raise ConfigError("sgd_momentum needs a momentum beta > 0")
    if config.method == "sgd_star" and config.x_star is None:
        raise ConfigError("sgd_star needs x_star")
    try:
        check_batch(config.scheme, obj.n)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if config.method == "sdca":
        if config.scheme.batch != 1:
            raise ConfigError("sdca is a single-coordinate method (batch=1)")
        if config.scheme.kind != "uniform":
            raise ConfigError("sdca supports uniform sampling only")
        if config.warm_start_sgd_epochs:
            raise ConfigError("sdca has no primal step to warm-start with sgd")
        if config.gamma is not None or config.armijo is not None:
            raise ConfigError("sdca maximizes each coordinate exactly; it takes no stepsize")
    if config.jit not in sparse_jit.JIT_MODES:
        raise ConfigError("jit must be one of %s, not %r" % (", ".join(sparse_jit.JIT_MODES), config.jit))
    rule = StopRule.parse(config.stop)
    if rule.kind == "gap" and config.method != "sdca":
        raise ConfigError("gap stop rule is only available for sdca")
    if rule.kind == "gbar" and config.method not in TABLE_METHODS:
        raise ConfigError("gbar stop rule needs a gradient table (sag/saga)")
    if rule.kind in ("grad", "gbar") and config.method == "sdca":
        raise ConfigError("sdca runs stop on the gap metric, not gradient norms")
    return rule


@dataclass(frozen=True)
class Resolved:
    """What run() settles before its first step."""

    rule: StopRule
    gamma: float | None  # the constant stepsize; None for sdca and armijo
    armijo: float | None  # gamma_max of the per-step search, when armijo
    engine: str  # "lazy" or "eager"
    engine_reason: str


def resolve(config, obj):
    """Validate config and settle what run() will do with it: the stop rule,
    the stepsize and the engine (sparse_jit.choose_engine) with its reason.
    run() starts here, and the CLI calls it for the header it prints.
    Raises ConfigError, or ValueError where no theory stepsize exists."""
    rule = _validate(config, obj)
    gamma = armijo = None
    if config.gamma is not None:
        gamma = float(config.gamma)
    elif config.armijo is not None:
        if config.method in ("gd", "sgd_momentum"):
            raise ConfigError("armijo stepsizes are per-example; not valid for %s" % config.method)
        if config.scheme.batch != 1:  # the search reads one example, the step moves along all b
            raise ConfigError("armijo backtracks on one example; it needs batch 1, not %d" % config.scheme.batch)
        armijo = float(config.armijo)
    elif config.method != "sdca":  # sdca maximizes exactly: no stepsize
        gamma = default_stepsize(config.method, smoothness(obj), config.scheme)
    engine, reason = sparse_jit.choose_engine(config, obj, gamma)
    if config.jit == "on" and engine != "lazy":
        raise ConfigError("jit mode unavailable: %s" % reason)
    return Resolved(rule, gamma, armijo, engine, reason)


class Recorder:
    """The checkpoints of one run, shared by both engines: stride, record
    fields, stop test and closing record.

    A checkpoint is due whenever the evaluation count reaches the next
    multiple of the stride; a lazy run's sparse_jit.LazyIterate is
    materialized before it reads x. state is the method's (a gbar stop reads
    the table's sum, sdca's gap its DualState). At the first checkpoint at or past each
    of the config's var_epochs, var_est is the variance of the run's own
    kernel direction over every single index (diag.enum_stats), built from
    state at that checkpoint (svrg's at its current anchor); sarah, gd and
    sdca record none, nor does any method when l1 > 0, where the kernel's
    step takes the prox and its direction is no longer the estimator's.
    """

    def __init__(self, config, obj, rule, gamma, state=None, lazy=None):
        self.config = config
        self.obj = obj
        self.rule = rule
        self.gamma = gamma
        self.state = state
        self.lazy = lazy
        self.records = []
        self.stride = max(1, int(round(config.checkpoint_every * obj.n)))
        self.var_due = [] if config.method in ("gd", "sarah", "sdca") or obj.l1 else sorted(config.var_epochs or ())
        self.next_cp = 0
        self.t0 = time.perf_counter()

    def checkpoint(self, x, evals, force=False):
        """Record a checkpoint if one is due (always when force); True when
        the new record meets the stop rule."""
        if not force and evals < self.next_cp:
            return False
        while self.next_cp <= evals:
            self.next_cp += self.stride
        if self.lazy is not None:
            self.lazy.materialize()
        config, obj, state = self.config, self.obj, self.state
        m = obj.data.margins(x)  # one A x for f and the gradient norm
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite f raises just below
            f = obj.objective_value(x, m)
        if not np.isfinite(f):
            raise DivergenceError("objective diverged (gamma=%s)" % self.gamma, gamma=self.gamma, records=self.records)
        rec = TraceRecord(epoch=evals / obj.n, grad_evals=evals, f=f)
        if config.f_star is not None:
            rec.subopt = f - config.f_star
        if config.method == "sdca":  # x is the dual's w
            rec.gap = duality_gap(obj, state, f)  # l1 = 0 here: f is the smooth f
        elif self.rule.kind == "gbar":
            rec.grad_norm = float(np.linalg.norm(state.gsum / state.n + obj.l2 * x))
        elif obj.loss.smooth:
            rec.grad_norm = float(np.linalg.norm(obj.full_grad(x, m)))
        if self.var_due and self.var_due[0] <= rec.epoch:
            self.var_due = [e for e in self.var_due if e > rec.epoch]
            rec.var_est = enum_stats(obj, method_kernel(config.method, obj, 1, state), x)[1]
        rec.time_s = time.perf_counter() - self.t0
        self.records.append(rec)
        return self.rule.kind != "epochs" and should_stop(self.rule, rec)

    def close(self, x, evals):
        """The closing record, unless the last checkpoint is already at evals."""
        if not self.records or self.records[-1].grad_evals != evals:
            self.checkpoint(x, evals, force=True)


def run(config, obj, x0=None):
    """Execute one configured run and return its trace and final iterate.

    The one driver for both engines: it starts with resolve() (validation,
    stepsize, engine), builds the method state and its kernel, and steps it
    in one loop over the sampled batches; svrg and sarah wrap that loop in
    their stages. sdca steps its dual's w from v = 0, so x0 is a ConfigError
    there. Under record_iterates, RunResult.iterates row k is x after step k
    (row 0 the start), one float64 array; otherwise it has no rows. A lazy
    run's kernels step over a sparse_jit.LazyIterate, inside
    sparse_jit.run_jit. aux["engine"] and aux["engine_reason"] say which
    engine ran and why.

    Raises DivergenceError (carrying the partial trace) on non-finite values.
    """
    plan = resolve(config, obj)
    if x0 is not None and config.method == "sdca":
        raise ConfigError("sdca starts from its dual's v = 0; it takes no x0")
    rule, gamma, armijo, engine = plan.rule, plan.gamma, plan.armijo, plan.engine
    method = config.method
    n = obj.n
    draws = index_batches(config.scheme, RandomSource(config.seed), n)
    x = np.zeros(obj.d) if x0 is None else np.array(x0, dtype=np.float64)

    warm_budget = int(round(config.warm_start_sgd_epochs * n))
    budget = warm_budget + int(round(config.epochs * n))
    record = config.record_iterates
    iterates = np.empty((1 if record else 0, obj.d))  # row k: x after step k, grown by doubling
    aux = {"engine": engine, "engine_reason": plan.engine_reason}
    evals = steps = 0

    # method state, and the kernel step(x, batch, gamma)
    b = config.scheme.batch
    state = None
    if method in TABLE_METHODS:
        state = aux["table"] = GradientTable(obj)
    elif method == "sgd_momentum":
        state = MomentumState(m=np.zeros(obj.d), beta=config.beta)
    elif method == "sgd_star":
        state = aux["star"] = star_table(obj, config.x_star)
    elif method in ("svrg", "sarah"):  # the stage; its kernel is built at each refresh
        state = aux[method] = (SvrgState if method == "svrg" else SarahState)(config.inner_t or n)
    elif method == "sdca":
        state = aux["dual"] = DualState(obj)
        x = state.w
    lazy = None
    if engine == "lazy":
        lazy = aux["lazy"] = sparse_jit.LazyIterate(x, 1.0 - gamma * obj.l2)
    recorder = Recorder(config, obj, rule, gamma, state, lazy)

    def per_example(stepper, until, cost=b, stoppable=True):
        """Sampled steps, each charged cost evals, until evals reaches until;
        True once the stop rule is met (unless not stoppable)."""
        nonlocal evals, steps
        while evals < until:
            batch = next(draws)
            stepper(x, batch, gamma if armijo is None else _armijo_gamma(obj, x, batch, armijo, aux))
            evals += cost
            steps += 1
            if record:
                if steps == len(iterates):  # realloc by doubling: peak about 2x the final array
                    iterates.resize((2 * steps, obj.d), refcheck=False)
                iterates[steps] = x
            if evals >= recorder.next_cp and recorder.checkpoint(x, evals) and stoppable:
                return True
        return False

    def stepping():
        nonlocal evals
        # optional plain-SGD warm phase, charged to the same counters
        stopped = warm_budget > 0 and per_example(method_kernel("sgd", obj, b), warm_budget)
        if method in ("svrg", "sarah"):
            # the stop rule is tested only at outer boundaries, on the
            # full gradient the refresh computes; the kernel binds the
            # stage's anchor, so it is built after each refresh
            while evals < budget and not stopped:
                if lazy is not None:  # the refresh reads x, materialized under the old anchor
                    lazy.materialize()
                (svrg_outer_refresh if method == "svrg" else sarah_refresh)(state, obj, x)
                stage = method_kernel(method, obj, b, state, lazy)
                evals += n
                if rule.kind == "grad":
                    ref_norm = float(np.linalg.norm(state.grad_ref if method == "svrg" else state.g))
                    if ref_norm <= rule.eps:
                        recorder.checkpoint(x, evals, force=True)
                        break
                per_example(stage, evals + 2 * b * state.t, 2 * b, stoppable=False)  # the whole stage
        elif not stopped:
            per_example(method_kernel(method, obj, b, state, lazy), budget, n if method == "gd" else b)

    recorder.checkpoint(x, evals, force=True)
    if record:
        iterates[0] = x
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite step raises at its next margin or checkpoint
            sparse_jit.run_jit(stepping) if lazy is not None else stepping()
    except DivergenceError as err:
        err.records = recorder.records
        raise
    if method == "sdca":
        aux["min_dual_gain"] = state.min_gain
    if lazy is not None:
        aux.update(jit=True, touched_coords=lazy.touched)
    recorder.close(x, evals)
    if record:
        iterates.resize((steps + 1, obj.d), refcheck=False)
    xf = x.copy() if method == "sdca" else x  # not the dual's own w
    return RunResult(records=recorder.records, x=xf, grad_evals=evals, aux=aux, iterates=iterates)


def _armijo_gamma(obj, x, batch, gamma_max, aux):
    """Backtracked stepsize on the sampled example along -grad f_i(x).

    Warm-started at twice the previously accepted value (capped at
    gamma_max), which keeps the expected number of trial evaluations
    near one once the scale settles.
    """
    i = int(batch[0])
    warm = aux.get("armijo_last")
    start = None if warm is None else min(2.0 * warm, gamma_max)
    g = armijo_stochastic(obj, i, x, gamma_max, gamma_start=start)
    aux["armijo_last"] = g
    return g
