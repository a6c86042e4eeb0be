"""Just-in-time sparse updates for the batch-1 steps with a constant dense term.

Every step multiplies x by rho = 1 - gamma*l2, adds w_t * anchor_j and moves
the sampled row's support. The anchor is constant on coordinate j between
touches of j: sag/saga's table sum gsum changes only on the sampled support,
and the shift kernel's anchor is fixed (sgd: none; sgd_star: x*; svrg: the
stage's loss_ref). Unrolling m untouched steps:

    x_j(k) = rho^m x_j(c) + anchor_j * sum_{t=c+1..k} rho^(k-t) w_t

With the decayed prefix G[t] = rho*G[t-1] + w_t (G[0] = 0) the sum collapses
to G[k] - rho^m G[c], so each coordinate catches up in O(1) regardless of how
long it slept. The per-step work is therefore O(nnz(a_i)), not O(d).

When rho == 1 the prefix is a plain running sum, accumulated with Kahan
compensation; catch-up differences then carry an absolute error of order
eps * |G[k]| * |anchor_j| per touch, far below trace tolerances at the scales
this engine targets. Each materialize rebases the prefix (checkpoint to checkpoint).
"""

import numpy as np

from .diag import enum_stats  # noqa: F401 -- perfbench/tracing.py wraps this name here
from .schedules import sample  # noqa: F401 -- perfbench/tracing.py wraps this name here

JIT_MODES = ("auto", "on", "off")
LAZY_METHODS = ("sag", "saga", "sgd", "sgd_star", "svrg")

# auto picks the lazy engine from this many features up. An eager step costs
# O(d) (it decays and shifts all of x), a lazy one O(nnz(a_i)) plus a fixed
# overhead; over 5-60 nonzeros per row, the table and shift kernels cross
# between d = 3k and 20k (tools/engine_sweep.py).
LAZY_MIN_D = 15_000


class LazyIterate:
    """Iterate x with per-coordinate staleness: x[j] is current through step
    c[j]. A lazy step reads its row (read, or lazy[idx]), then moves it."""

    def __init__(self, x, rho, capacity=1024):
        if rho <= 0:
            raise ValueError("decay factor must be positive, got %g" % rho)
        self.x = x
        self.rho = float(rho)
        self.anchor = None
        self.c = np.zeros(x.shape[0], dtype=np.int64)
        self.k = 0
        self._g = np.zeros(max(capacity, 16))
        self._p = self.rho ** np.arange(self._g.shape[0])  # rho^m, the bits of rho ** m
        self._last = self._comp = 0.0  # G[k]; Kahan compensation, used when rho == 1
        self._row = None  # (idx, values) of the last read
        self.touched = 0

    @property
    def prefix(self):
        """The prefix array G as held; entries 0..k are live."""
        return self._g

    def read(self, idx):
        """x[idx] caught up through step k, not written back: the next move
        writes this row."""
        ci = self.c[idx]
        pm = self._p[self.k - ci]  # 1 where current, as rows rarely are where lazy pays
        xi = pm * self.x[idx]
        if self.anchor is not None:
            xi += self.anchor[idx] * (self._last - pm * self._g[ci])
        self._row = idx, xi
        return xi

    __getitem__ = read

    def move(self, x, gamma, w, anchor, idx=None, vec=None):
        """Step k+1 on the row read last, in one write, with the eager move's
        signature (optimizers._mover; x, gamma, anchor and idx are the
        iterate's own) and arithmetic: x[idx] = rho*x[idx] + w*anchor[idx] - vec."""
        idx, xi = self._row
        k, last = self.k + 1, self._last
        if k >= self._g.shape[0]:  # G doubles; materialize keeps k below the checkpoint stride
            self._g = np.concatenate([self._g, np.zeros(self._g.shape[0])])
            self._p = self.rho ** np.arange(self._g.shape[0])
        if self.rho == 1.0:
            y = w - self._comp
            t = last + y
            self._comp = (t - last) - y
        else:
            t = self.rho * last + w
        self._g[k] = self._last = t
        self.k = k
        new = self.rho * xi
        if self.anchor is not None:
            new += w * self.anchor[idx]
        if vec is not None:
            new -= vec
        self.x[idx] = new
        self.c[idx] = k
        self.touched += idx.size
        return self.x

    def materialize(self):
        """Catch every coordinate up and rebase (k, c, G[k], Kahan term to 0); returns x."""
        k, x, c = self.k, self.x, self.c
        if k:
            pm = self._p[k - c]
            x *= pm
            if self.anchor is not None:
                gc = self._g[c]
                gc *= pm
                np.subtract(self._last, gc, out=gc)
                gc *= self.anchor
                x += gc
            c[:] = 0
            self.k, self._last, self._comp = 0, 0.0, 0.0
        return x


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
        reason = "d = %d < %d: eager steps are faster at this width" % (obj.d, LAZY_MIN_D)
    else:
        return "lazy", "d = %d >= %d: lazy steps cost O(nnz(a_i)), eager ones O(d)" % (obj.d, LAZY_MIN_D)
    return "eager", reason


def run_jit(loop):
    """Run loop(), optimizers.run's stepping over a LazyIterate: its own call
    so a profiler times the lazy steps apart from the run's set-up."""
    return loop()
