"""Just-in-time sparse updates for the gradient-table methods.

Between touches of coordinate j, the table sum gsum_j is constant (it only
changes when a sampled row has support there, and then j is touched). Every
step multiplies x_j by rho = 1 - gamma*l2 and subtracts w_t * gsum_j, where
w_t is gamma/n (or gamma/seen_t). Unrolling m such steps:

    x_j(k) = rho^m x_j(c) - gsum_j * sum_{t=c+1..k} rho^(k-t) w_t

With the decayed prefix G[t] = rho*G[t-1] + w_t (G[0] = 0) the sum collapses
to G[k] - rho^m G[c], so each coordinate catches up in O(1) regardless of how
long it slept. The per-step work is therefore O(nnz(a_i)), not O(d).

When rho == 1 the prefix is a plain running sum, accumulated with Kahan
compensation; catch-up differences then carry an absolute error of order
eps * |G[k]| * |gsum_j| per touch, far below trace tolerances at the scales
this engine targets.
"""

import numpy as np

from .diag import enum_stats  # noqa: F401 -- perfbench/tracing.py wraps this name here
from .schedules import sample  # noqa: F401 -- perfbench/tracing.py wraps this name here
from .schedules import uniform_scheme

JIT_MODES = ("auto", "on", "off")

# auto picks the lazy engine from this many features up. An eager step costs
# O(d) (it decays and shifts all of x), a lazy one O(nnz(a_i)) plus a fixed
# overhead; over 5-60 nonzeros per row, sag and saga cross near d = 15k
# (tools/engine_sweep.py).
LAZY_MIN_D = 15_000


class LazyIterate:
    """Iterate vector with per-coordinate staleness bookkeeping."""

    def __init__(self, x, rho, capacity=1024):
        if rho <= 0:
            raise ValueError("decay factor must be positive, got %g" % rho)
        self.x = x
        self.rho = float(rho)
        self.c = np.zeros(x.shape[0], dtype=np.int64)
        self.k = 0
        self._g = np.zeros(max(capacity, 16))
        self._comp = 0.0  # Kahan compensation, used when rho == 1
        self.touched = 0

    @property
    def prefix(self):
        return self._g[: self.k + 1]

    def push_weight(self, w):
        """Register step k+1 with per-step weight w."""
        if self.k + 1 >= self._g.shape[0]:
            grown = np.zeros(self._g.shape[0] * 2)
            grown[: self.k + 1] = self._g[: self.k + 1]
            self._g = grown
        if self.rho == 1.0:
            y = w - self._comp
            t = self._g[self.k] + y
            self._comp = (t - self._g[self.k]) - y
            self._g[self.k + 1] = t
        else:
            self._g[self.k + 1] = self.rho * self._g[self.k] + w
        self.k += 1

    def catch_up(self, idx, gsum):
        """Bring x[idx] current through step k, given the (constant-on-idx
        since their last touch) table sums."""
        ci = self.c[idx]
        if ci.min(initial=self.k) == self.k:  # all current (or idx empty)
            return
        pm = self.rho ** (self.k - ci)
        self.x[idx] = pm * self.x[idx] - gsum[idx] * (self._g[self.k] - pm * self._g[ci])
        self.c[idx] = self.k

    def catch_up_one(self, idx, gsum):
        """catch_up for indices all current through step k-1: m = 1 for
        each, so the update has one scalar coefficient (same arithmetic)."""
        rho = self.rho
        self.x[idx] = rho * self.x[idx] - gsum[idx] * (self._g[self.k] - rho * self._g[self.k - 1])
        self.c[idx] = self.k

    def materialize(self, gsum):
        """Catch every coordinate up (idempotent); returns the x array."""
        self.catch_up(np.arange(self.x.shape[0]), gsum)
        return self.x


def choose_engine(config, obj, gamma):
    """("lazy" or "eager", reason) for a run with this config and resolved
    stepsize. jit "off" forces eager; "on" forces lazy, and run() raises the
    reason when it cannot apply; "auto" picks lazy where it applies and
    d >= LAZY_MIN_D."""
    if config.jit == "off":
        return "eager", "jit = off"
    if config.method not in ("sag", "saga"):
        reason = "only the table methods (sag, saga) have lazy updates"
    elif (config.scheme or uniform_scheme()).batch != 1:
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
        reason = "d = %d < %d: eager steps are faster at this width" % (obj.d, LAZY_MIN_D)
    else:
        return "lazy", "d = %d >= %d: lazy steps cost O(nnz(a_i)), eager ones O(d)" % (obj.d, LAZY_MIN_D)
    return "eager", reason


def run_jit(recorder, x, draws, budget):
    """Lazy sag/saga loop over x in place, for optimizers.run.

    run() has validated the configuration, built the table and taken
    the first checkpoint; recorder carries them, draws is the run's
    optimizers.index_batches source. Returns (evals, the LazyIterate, whose
    touched counter is the work actually performed).
    """
    from .optimizers import _check_finite

    config, obj, gamma, table = recorder.config, recorder.obj, recorder.gamma, recorder.table
    method = config.method
    lazy = LazyIterate(x, 1.0 - gamma * obj.l2)
    gsum = table.gsum
    recorder.sync = lambda: lazy.materialize(gsum)
    indptr, labels, deriv = obj.py_indptr, obj.py_labels, obj.loss.deriv
    cols, values = obj.data.col_indices, obj.data.col_values
    evals = 0
    while evals < budget:
        i = next(draws)[0]
        lo, hi = indptr[i], indptr[i + 1]
        idx, vals = cols[lo:hi], values[lo:hi]
        lazy.catch_up(idx, gsum)
        m = float(np.dot(vals, x[idx]))
        _check_finite(m, gamma)
        s_new = deriv(m, labels[i])
        delta = s_new * vals - table.s[i] * vals
        # idx is current through step k here, so after the push below it is
        # one step behind: catch_up_one
        if method == "sag":
            table.store(i, s_new)
            gsum[idx] += delta
            denom = table.seen_count if config.seen_norm else table.n
            lazy.push_weight(gamma / denom)
            lazy.catch_up_one(idx, gsum)
        else:
            lazy.push_weight(gamma / table.n)
            lazy.catch_up_one(idx, gsum)
            x[idx] -= gamma * delta
            table.store(i, s_new)
            gsum[idx] += delta
        lazy.touched += idx.size
        evals += 1
        if recorder.checkpoint(x, evals):
            break
    return evals, lazy
