"""Metrics, termination, trace i/o, and the independent brute-force oracles.

Everything here either measures a run (traces, rate fits, duality gaps) or
checks an analytic claim by a dumb independent route (finite differences,
exhaustive enumeration over examples, golden-section maximization, a
deterministic Newton-CG or FISTA reference solver certified by its
residual). Oracles deliberately avoid the fast code paths they are used to
test, with one exception: the enumeration steps the kernel its caller hands
it, so its statistics are those of the step a run takes.
"""

import hashlib
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import dataset_hash
from .objectives import NonSmoothError, smoothness
from . import vecio

TRACE_COLUMNS = ("epoch", "grad_evals", "f", "subopt", "grad_norm", "var_est", "gap", "time_s")
ENUM_GUARD = 100_000


@dataclass
class TraceRecord:
    """One checkpoint of one run; optional fields are None when unavailable."""

    epoch: float
    grad_evals: int
    f: float
    subopt: float | None = None
    grad_norm: float | None = None
    var_est: float | None = None
    gap: float | None = None
    time_s: float | None = None


@dataclass(frozen=True)
class RateFit:
    rho_hat: float
    c_hat: float
    r2: float


@dataclass(frozen=True)
class StopRule:
    kind: str  # "grad", "gbar", "gap", "epochs"
    eps: float = 0.0

    @staticmethod
    def parse(text):
        if text is None or text == "epochs":
            return StopRule("epochs")
        kind, sep, eps = text.partition(":")
        try:
            eps = float(eps)
        except ValueError:
            eps = math.nan
        # a NaN, negative or infinite EPS would never (or always) fire
        if kind not in ("grad", "gbar", "gap") or not sep or not 0 <= eps < math.inf:
            raise ValueError("bad stop rule %r (grad:EPS, gbar:EPS, gap:EPS, epochs; EPS finite and >= 0)" % text)
        return StopRule(kind, eps)


def should_stop(rule, record):
    """True when the record satisfies the rule; epochs never stops early."""
    if isinstance(rule, str) or rule is None:
        rule = StopRule.parse(rule)
    if rule.kind == "epochs":
        return False
    if rule.kind in ("grad", "gbar"):
        if record.grad_norm is None:
            raise ValueError("stop rule %s needs a gradient norm in the record" % rule.kind)
        return record.grad_norm <= rule.eps
    if record.gap is None:
        raise ValueError("stop rule gap needs a duality gap in the record")
    return record.gap <= rule.eps


# ---------------------------------------------------------------------------
# finite differences


def fd_grad(obj, x, h=1e-6, i=None):
    """Central-difference gradient of f (or of f_i when i is given)."""
    fn = (lambda z: obj.value_i(z, i)) if i is not None else obj.full_value
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


# ---------------------------------------------------------------------------
# enumeration oracles


def enum_stats(obj, step, x, batches=None):
    """Exact mean, variance and raw second moment of the direction a step
    kernel moves along from the frozen state, over every batch (default:
    each single index, uniformly).

    step(x, batch, gamma) is a method's step kernel as run() builds it;
    step.written, when set, names the state arrays it writes. For each batch
    a scratch copy of x is stepped at gamma = 1, the direction read as
    x - x+, and those arrays put back, so the enumeration leaves x and the
    state as it found them. The direction is the method's estimator only
    when l1 = 0: otherwise the step takes the prox.
    One pass (Welford), no n x d storage. Returns (mean vector, trace
    variance E||g - E g||^2, E||g||^2).
    """
    batches = [(i,) for i in range(obj.n)] if batches is None else batches
    if len(batches) > ENUM_GUARD:
        raise ValueError("%d batches too many to enumerate" % len(batches))
    state = getattr(step, "written", ())
    saved = [a.copy() for a in state]
    y = np.empty_like(x)
    mean = np.zeros(obj.d)
    m2 = raw = 0.0
    for k, batch in enumerate(batches, 1):
        y[:] = x
        step(y, batch, 1.0)
        g = x - y
        for a, s in zip(state, saved):
            a[...] = s
        delta = g - mean
        mean += delta / k
        m2 += float(np.dot(delta, g - mean))
        raw += float(np.dot(g, g))
    return mean, m2 / len(batches), raw / len(batches)


def enum_stats_batches(obj, step, x, b):
    """enum_stats over all size-b subsets (without replacement, uniform);
    step is the kernel built for batches of b rows."""
    count = math.comb(obj.n, b)
    if count > ENUM_GUARD:
        raise ValueError("C(%d,%d)=%d too large to enumerate" % (obj.n, b, count))
    return enum_stats(obj, step, x, list(itertools.combinations(range(obj.n), b)))


def check_lemma2(obj, step, x):
    """Centered second moment never exceeds the raw one, from one
    enumeration; returns (ok, mean, var, raw)."""
    mean, var, raw = enum_stats(obj, step, x)
    return var <= raw + 1e-12 * (1.0 + raw), mean, var, raw


def _mean_sq_shift(obj, x, x_star, c, w):
    """E_i||c delta + w ds_i a_i||^2 over every i in O(nnz), with delta = x - x*
    and ds_i = loss'(a_i . x) - loss'(a_i . x*), from the closed form
    c^2 ||delta||^2 + 2 c w ds_i (a_i . delta) + w^2 ds_i^2 ||a_i||^2. ||a_i||^2
    comes from the CSR values (0 for an empty row), not from obj.row_sq behind
    L_max. Raises NonSmoothError on hinge."""
    data, delta = obj.data, x - x_star
    rows = np.repeat(np.arange(obj.n), np.diff(data.indptr))
    row_sq = np.bincount(rows, weights=data.col_values * data.col_values, minlength=obj.n)
    wds = w * (obj.loss_scalars(x) - obj.loss_scalars(x_star))
    terms = wds * (wds * row_sq + 2.0 * c * data.margins(delta))
    return c * c * float(np.dot(delta, delta)) + float(np.mean(terms))


def check_lemma1(obj, x, x_star, info=None):
    """E_i||grad f_i(x) - grad f_i(x*)||^2 <= 2 L_max (f(x) - f(x*)).

    The left side averages every i, in one pass, from the closed form of the
    difference, ds_i a_i + l2 (x - x*) (_mean_sq_shift). Holds for convex
    smooth f_i. Returns (ok, slack) with slack = rhs - lhs.
    """
    info = info or smoothness(obj)
    lhs = _mean_sq_shift(obj, x, x_star, obj.l2, 1.0)
    rhs = 2.0 * info.l_max * (obj.full_value(x) - obj.full_value(x_star))
    return lhs <= rhs + 1e-12 * (1.0 + abs(rhs)), rhs - lhs


def check_contraction(obj, x, x_star, gamma, info=None):
    """One-step contraction of the reference-shifted estimator in expectation.

    Tests E_i||x' - x*||^2 <= (1 - gamma*mu) ||x - x*||^2 with mu = l2 and
    x' = x - gamma (grad f_i(x) - grad f_i(x*)), averaging every i, in one
    pass, from the closed form x' - x* = (1 - gamma l2)(x - x*) - gamma ds_i a_i
    (_mean_sq_shift). Refuses gamma > 1/L_max, the hypothesis the bound needs.
    """
    info = info or smoothness(obj)
    if gamma > (1.0 / info.l_max) * (1 + 1e-12):
        raise ValueError("gamma=%g exceeds 1/L_max=%g" % (gamma, 1.0 / info.l_max))
    if obj.l2 <= 0:
        raise ValueError("contraction bound needs l2 > 0")
    lhs = _mean_sq_shift(obj, x, x_star, 1.0 - gamma * obj.l2, -gamma)
    base = x - x_star
    rhs = (1.0 - gamma * obj.l2) * float(np.dot(base, base))
    return lhs <= rhs + 1e-12 * (1.0 + abs(rhs))


# ---------------------------------------------------------------------------
# duality


def dual_objective(obj, dual):
    """D(v) = (1/n) sum_i -loss_i*(-v_i) - (l2/2)||w||^2 for the dual state."""
    if obj.l2 <= 0:
        raise ValueError("dual objective needs l2 > 0")
    c = obj.loss.conjugate_vec(-dual.v, obj.labels)
    if not np.isfinite(c).all():
        return -np.inf
    total = np.subtract.reduce(c, initial=0.0) / obj.n  # total -= c_i, in order
    return total - 0.5 * obj.l2 * float(np.dot(dual.w, dual.w))


def duality_gap(obj, dual, f=None):
    """f(x(v)) - D(v); +inf when v leaves the conjugate domain. f, when
    given, is f(x(v)) already computed by the caller."""
    return (obj.full_value(dual.w) if f is None else f) - dual_objective(obj, dual)


def golden_section_max(fn, lo, hi, tol=1e-12, max_iter=200):
    """Golden-section maximization of a unimodal fn on [lo, hi].

    Arithmetic stays in the dtype of the bounds, so passing np.longdouble
    endpoints (and an fn evaluated in that dtype) pushes the float-noise
    floor on the argmax below 1e-9 even for O(1)-curvature functions.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return (a + b) / 2.0


# ---------------------------------------------------------------------------
# reference solver


REF_SOLVER = "newton-cg|fista-restart"  # part of the cache key: a new solver never reads old entries
ARMIJO_HALVINGS = 30  # the shortest step the reference line search tries is 2^-30 of Newton's


def _ref_key(obj, tol):
    raw = "|".join([REF_SOLVER, dataset_hash(obj.data), "%d" % obj.d, obj.loss.name,
                    "%.17g" % obj.l2, "%.17g" % obj.l1, "%.17g" % tol])
    return hashlib.sha256(raw.encode()).hexdigest()[:24]


def _certified(res, tol, iters, max_iter):
    """res <= tol for the residual at a reference iterate, which both solvers
    test once per iterate; RuntimeError if res is not finite or iters reached max_iter."""
    if res <= tol:
        return True
    if not math.isfinite(res):
        raise RuntimeError("reference solve reached a non-finite residual (%r) at iteration %d" % (res, iters))
    if iters >= max_iter:
        raise RuntimeError("reference solve exceeded %d iterations" % max_iter)
    return False


def _prox_grad(obj, x, gamma):
    """(step, residual) from one full gradient g at x: the (prox-)gradient
    step prox(gamma, x - gamma*g) and the residual certifying x, ||g|| when
    l1=0, else the prox-gradient mapping norm ||x - step|| / gamma."""
    g = obj.full_grad(x)
    if not obj.l1:
        return x - gamma * g, float(np.linalg.norm(g))
    step = obj.prox(gamma, x - gamma * g)
    return step, float(np.linalg.norm(x - step) / gamma)


def solve_reference(obj, tol=1e-12, cache=True, max_iter=1_000_000):
    """Deterministic reference solution (x*, f*) certified by its residual.

    Truncated Newton at l1 = 0 (_newton_cg, max_iter Newton steps), else
    accelerated proximal gradient (_fista, max_iter full gradients), from 0
    until the residual (||grad f||, or the prox-gradient mapping norm when
    l1 > 0) is <= tol at the point returned; only that test certifies x*. No
    stochastic method is involved. Results are cached under $VROPT_CACHE
    (vecio.cached) as the pair solve-ref writes, <key>.xstar.vec and
    <key>.fstar.txt, the key a hash of solver, dataset hash, d and (loss, l2, l1, tol).

    Raises:
        ValueError: only for a non-smooth loss, l2 <= 0, or tol outside (0, inf).
        RuntimeError: more than max_iter iterations are needed, the
            residual is not finite, or the line search finds no decrease;
            nothing is cached then.
    """
    if not obj.loss.smooth:
        raise NonSmoothError("reference solver needs a smooth loss")
    if obj.l2 <= 0:
        raise ValueError("reference solver needs l2 > 0")
    if not 0 < tol < math.inf:
        raise ValueError("reference tolerance must lie in (0, inf), got %r" % tol)
    solve = _fista if obj.l1 else _newton_cg
    if not cache:
        return solve(obj, tol, max_iter)
    return vecio.cached(_ref_key(obj, tol), vecio.read_reference,
                        lambda: solve(obj, tol, max_iter), vecio.write_reference)


def _fista(obj, tol, max_iter):
    """FISTA (Beck & Teboulle 2009) at gamma = 1/L with gradient restart
    (O'Donoghue & Candes 2012): y is the extrapolated point, x the last
    step; the residual at y certifies y, the point returned with its f."""
    gamma = 1.0 / smoothness(obj).l_full
    x = y = np.zeros(obj.d)
    t = 1.0
    step, res = _prox_grad(obj, y, gamma)
    iters = 0
    while not _certified(res, tol, iters, max_iter):
        if np.dot(y - step, step - x) > 0:  # momentum points uphill: restart
            t = 1.0
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = step + ((t - 1.0) / t_next) * (step - x)
        x, t = step, t_next
        step, res = _prox_grad(obj, y, gamma)
        iters += 1
    return y, obj.objective_value(y)


def _newton_cg(obj, tol, max_iter):
    """Truncated Newton (Dembo, Eisenstat & Steihaug 1982) from 0: conjugate
    gradients solve H p = -g to min(0.5, sqrt(||g||)) ||g|| (or for 20 d steps);
    H v = A^T(loss''(A x) * A v) / n + l2 v is positive definite, so p descends.
    x + t p takes the first t in 1, 1/2, ..., 2^-ARMIJO_HALVINGS meeting Armijo's
    condition on f, or on ||g|| where the decrease it asks of f is within f's
    rounding (16 ulp), else raises RuntimeError. ||g|| at x certifies x."""
    data, l2 = obj.data, obj.l2
    x, m = np.zeros(obj.d), np.zeros(obj.n)  # m = A x
    for iters in itertools.count():
        g = obj.full_grad(x, m)
        res = float(np.linalg.norm(g))
        if _certified(res, tol, iters, max_iter):
            return x, obj.full_value(x, m)
        w = obj.loss.curv_vec(m, obj.labels) / obj.n
        p, r = np.zeros(obj.d), -g
        d, rr = r.copy(), float(np.dot(g, g))
        for _ in range(20 * obj.d):
            hd = data.weighted_sum(w * data.margins(d)) + l2 * d
            dhd = float(np.dot(d, hd))
            if not dhd > 0:  # only a non-finite product gets here
                break
            p += (rr / dhd) * d
            r -= (rr / dhd) * hd
            rr, rr_old = float(np.dot(r, r)), rr
            if math.sqrt(rr) <= min(0.5, math.sqrt(res)) * res:
                break
            d = r + (rr / rr_old) * d
        f, slope, t = obj.full_value(x, m), float(np.dot(g, p)), 1.0
        for _ in range(ARMIJO_HALVINGS + 1):
            x_t = x + t * p
            m_t = data.margins(x_t)
            if -1e-4 * t * slope > 16.0 * np.finfo(float).eps * abs(f):  # f can show Armijo's decrease
                if obj.full_value(x_t, m_t) <= f + 1e-4 * t * slope:
                    break
            elif slope < 0 and np.linalg.norm(obj.full_grad(x_t, m_t)) <= (1.0 - 1e-4 * t) * res:
                break
            t *= 0.5
        else:
            raise RuntimeError("reference line search found no decrease at Newton step %d" % iters)
        x, m = x_t, m_t


# ---------------------------------------------------------------------------
# rate fitting


def fit_linear_rate(trace, burn_in=0.0):
    """Least-squares fit of log(subopt) against gradient evaluations.

    Models subopt ~= C (1-rho)^k with k the grad_evals axis (equal to the
    iteration count for one-evaluation-per-step methods). Records past the
    first subopt <= 1e-15 are dropped (floating-point floor); needs at least
    5 usable records.
    """
    ks, ys = [], []
    for rec in trace:
        if rec.epoch < burn_in or rec.subopt is None:
            continue
        if rec.subopt <= 1e-15:
            break
        ks.append(float(rec.grad_evals))
        ys.append(math.log(rec.subopt))
    if len(ks) < 5:
        raise ValueError("need at least 5 positive-suboptimality records, found %d" % len(ks))
    ks = np.asarray(ks)
    ys = np.asarray(ys)
    slope, intercept = np.polyfit(ks, ys, 1)
    pred = slope * ks + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res <= 1e-24 else 1.0 - ss_res / ss_tot
    return RateFit(rho_hat=1.0 - math.exp(slope), c_hat=math.exp(intercept), r2=r2)


# ---------------------------------------------------------------------------
# trace i/o


def _fmt(v):
    """A value as every output file prints it: a float to 17 significant
    digits (it reads back exactly), None as an empty cell, else str(v)."""
    if v is None:
        return ""
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def write_trace(trace, sink, meta=None):
    """CSV with the fixed 8-column header; meta becomes '# key = value' lines."""
    own = isinstance(sink, str)
    buf = io.StringIO()
    if meta:
        for k in meta:
            buf.write("# %s = %s\n" % (k, meta[k]))
    buf.write(",".join(TRACE_COLUMNS) + "\n")
    for rec in trace:
        row = [
            _fmt(rec.epoch),
            "%d" % rec.grad_evals,
            _fmt(rec.f),
            _fmt(rec.subopt),
            _fmt(rec.grad_norm),
            _fmt(rec.var_est),
            _fmt(rec.gap),
            _fmt(rec.time_s),
        ]
        buf.write(",".join(row) + "\n")
    text = buf.getvalue()
    if own:
        vecio.atomic_write_text(sink, text)
    else:
        sink.write(text)
    return text


def read_trace(source):
    """Inverse of write_trace: source is a path or a text file object;
    returns (records, meta dict)."""
    if isinstance(source, str):
        with open(source) as fh:
            text = fh.read()
    else:
        text = source.read()
    meta = {}
    records = []
    header_seen = False
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            k, _, v = line[1:].partition("=")
            meta[k.strip()] = v.strip()
            continue
        if not header_seen:
            if line != ",".join(TRACE_COLUMNS):
                raise ValueError("unexpected trace header %r" % line)
            header_seen = True
            continue
        cells = line.split(",")
        if len(cells) != len(TRACE_COLUMNS):
            raise ValueError("bad trace row %r" % line)
        vals = [None if c == "" else float(c) for c in cells]
        records.append(TraceRecord(vals[0], int(vals[1]), *vals[2:]))
    if not header_seen:
        raise ValueError("no trace header found")
    return records, meta
