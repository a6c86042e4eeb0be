"""Just-in-time sparse updates for the batch-1 steps with a constant dense term.

Every step multiplies x by rho = 1 - gamma*l2, adds w_t * anchor and moves
the sampled row's support. The anchor is constant on coordinate j between
touches of j: sag/saga's table sum gsum changes only on the sampled support,
and the shift kernel's anchor is fixed (sgd: none; sgd_star: x*; svrg: the
stage's loss_ref). So x is held in scaled coordinates, as SAG's own
implementation does (Schmidt, Le Roux & Bach, arXiv 1309.2388):

    x = sigma_k (v + anchor S_k),  sigma_k = rho^k,  S_k = sum_{t<=k} w_t / sigma_t

with v in x's own array. Off the row a step leaves v as it is; the decay and
the dense term are two float updates. On the row, x keeps its value when a
step's vector vec folds in as v -= vec / sigma_{k+1}, and a change delta of
the anchor while S reads S_t as v -= delta S_t: sag (gsum changes before its
move) folds v -= delta S_k, saga (after; its vec is gamma delta) v -= delta
(gamma / sigma_{k+1} + S_{k+1}), the shift steps v -= vec / sigma_{k+1}. A
step gathers v and the anchor on its row only: O(nnz(a_i)), not O(d).

sigma_k v and sigma_k S_k are of the size of x and of the decayed weight sum
W_k = sum_t |w_t| rho^(k-t) since the last materialize, so each fold and read
of x_j adds an absolute error of order eps (|x_j| + |anchor_j| W_k). S is a
Kahan-compensated sum (at rho = 1, sigma stays 1 and S is the running sum of
the weights). A step that leaves sigma below SIGMA_FLOOR materializes (x =
sigma (v + anchor S), then sigma = 1, S = 0), so 1/sigma and S stay finite;
checkpoints and svrg refreshes materialize too.
"""

import numpy as np

from .diag import enum_stats  # noqa: F401 -- perfbench/tracing.py wraps this name here
from .schedules import sample  # noqa: F401 -- perfbench/tracing.py wraps this name here

JIT_MODES = ("auto", "on", "off")
LAZY_METHODS = ("sag", "saga", "sgd", "sgd_star", "svrg")
SIGMA_FLOOR = 1e-100  # a step that leaves sigma below this materializes

# auto picks the lazy engine from this many features up. An eager step costs
# O(d), a lazy one O(nnz(a_i)); the lazy steps are faster at every width
# tools/engine_sweep.py times (d = 100 up), but trace headers name this
# threshold and d < it keeps the eager step's bits (the paper's d = 112).
LAZY_MIN_D = 15_000


class LazyIterate:
    """Iterate x = sigma*(v + anchor*S) between materializations, with v
    held in x's own array. table_step and shift_step move it."""

    prefix = np.zeros(0)  # no catch-up prefix is held; perfbench/tracing.py reads its nbytes

    def __init__(self, x, rho):
        if rho <= 0:
            raise ValueError("decay factor must be positive, got %g" % rho)
        self.x = x
        self.rho = float(rho)
        self.anchor = None
        self.sigma, self.S, self._comp = 1.0, 0.0, 0.0  # _comp: S's Kahan compensation
        self.touched = 0

    def advance(self, w):
        """sigma and S through one more step of dense weight w; returns both."""
        sigma = self.sigma * self.rho
        y = w / sigma - self._comp
        S = self.S + y
        self._comp = (S - self.S) - y
        self.sigma, self.S = sigma, S
        return sigma, S

    def materialize(self):
        """x = sigma*(v + anchor*S) in place, then sigma = 1 and S = 0; returns x."""
        if self.S and self.anchor is not None:
            self.x += self.S * self.anchor
        if self.sigma != 1.0:
            self.x *= self.sigma
        self.sigma, self.S, self._comp = 1.0, 0.0, 0.0
        return self.x


def _bind(obj, lazy, anchor):
    """lazy materialized under its old anchor, then given anchor; returns what a step reads."""
    from .optimizers import _check_finite
    lazy.materialize()
    lazy.anchor = anchor
    data = obj.data
    return obj.py_indptr, data.col_indices, data.col_values, obj.loss.deriv, obj.py_labels, _check_finite, lazy.advance


def table_step(obj, lazy, table, saga):
    """optimizers._table_kernel's batch-1 step, up to rounding, on lazy (anchor: gsum)."""
    indptr, cols, values, deriv, labels, check, advance = _bind(obj, lazy, table.gsum)
    tab, gsum, n = memoryview(table.s), table.gsum, table.n

    def step(x, batch, gamma):
        j = batch[0]
        lo, hi = indptr[j], indptr[j + 1]
        idx, vals = cols[lo:hi], values[lo:hi]
        v, a = x[idx], gsum[idx]
        S = lazy.S
        m = lazy.sigma * (float(vals.dot(v)) + S * float(vals.dot(a)))
        check(m, gamma)
        s = deriv(m, labels[j])
        delta = (s - tab[j]) * vals
        tab[j] = s
        sigma, S1 = advance(-(gamma / n))
        x[idx] = v - ((gamma / sigma + S1) if saga else S) * delta
        gsum[idx] = a + delta
        lazy.touched += hi - lo
        if sigma < SIGMA_FLOOR:
            lazy.materialize()
        return x
    return step


def shift_step(obj, lazy, ref=None, anchor=None, anchor_scale=0.0):
    """optimizers._shift_kernel's batch-1 step, up to rounding, on lazy (anchor: anchor)."""
    anchor = anchor if anchor_scale else None
    indptr, cols, values, deriv, labels, check, advance = _bind(obj, lazy, anchor)
    ref = memoryview(np.zeros(obj.n)) if ref is None else ref

    def step(x, batch, gamma):
        j = batch[0]
        lo, hi = indptr[j], indptr[j + 1]
        idx, vals = cols[lo:hi], values[lo:hi]
        v = x[idx]
        m = float(vals.dot(v))
        if anchor is not None:
            m += lazy.S * float(vals.dot(anchor[idx]))
        m *= lazy.sigma
        check(m, gamma)
        sigma = advance(gamma * anchor_scale)[0]
        x[idx] = v - (gamma * (deriv(m, labels[j]) - ref[j]) / sigma) * vals
        lazy.touched += hi - lo
        if sigma < SIGMA_FLOOR:
            lazy.materialize()
        return x
    return step


def choose_engine(config, obj, gamma):
    """("lazy" or "eager", reason) for a run with this config and resolved
    stepsize. jit "off" forces eager; "on" forces lazy, and run() raises the
    reason when it cannot apply; "auto" picks lazy where it applies and
    d >= LAZY_MIN_D."""
    if config.jit == "off":
        return "eager", "jit = off"
    if config.method not in LAZY_METHODS:
        reason = "only the sag, saga, sgd, sgd_star and svrg steps have lazy updates"
    elif config.scheme.batch != 1:
        reason = "mini-batch steps touch too much support to stay lazy"
    elif obj.l1:
        reason = "the soft-threshold prox is dense; run with l1=0 or jit off"
    elif gamma is None:
        reason = "per-step (armijo) stepsizes change the decay each step"
    elif config.warm_start_sgd_epochs:
        reason = "warm-start phase is not lazy; run with jit off"
    elif config.record_iterates:
        reason = "recording every iterate requires materializing every step"
    elif 1.0 - gamma * obj.l2 <= 0.0:
        reason = "gamma*l2 >= 1 makes the decay nonpositive; run with jit off"
    elif config.jit == "on":
        return "lazy", "jit = on"
    elif obj.d < LAZY_MIN_D:
        reason = "d = %d < %d: auto keeps the eager step's arithmetic; jit = on runs faster" % (
            obj.d, LAZY_MIN_D)
    else:
        return "lazy", "d = %d >= %d: lazy steps cost O(nnz(a_i)), eager ones O(d)" % (obj.d, LAZY_MIN_D)
    return "eager", reason


def run_jit(loop):
    """Run loop(), optimizers.run's stepping over a LazyIterate: its own call
    so a profiler times the lazy steps apart from the run's set-up."""
    return loop()
