"""Index sampling schemes and stepsizes.

Uniform batches are drawn without replacement (partial Fisher-Yates);
Lipschitz-weighted sampling draws with replacement, matching the analyses
those stepsizes come from.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

ARMIJO_C = 0.5  # sufficient-decrease constant c
ARMIJO_FACTOR = 0.5  # backtracking factor
ARMIJO_FLOOR = 1e-12
ARMIJO_SKIP_NORM = 1e-8


@dataclass(frozen=True)
class SamplingScheme:
    kind: str = "uniform"  # "uniform" or "lipschitz"
    batch: int = 1
    probs: np.ndarray | None = None
    cumprobs: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("uniform", "lipschitz"):
            raise ValueError("unknown sampling kind %r" % self.kind)
        if self.batch < 1:
            raise ValueError("batch size must be >= 1")
        if self.kind == "lipschitz":
            if self.probs is None:
                raise ValueError("lipschitz sampling needs weights")
            p = np.asarray(self.probs, dtype=np.float64)
            if not ((p > 0) & (p < np.inf)).all():
                raise ValueError("lipschitz weights must be positive and finite")
            p = p / p.sum()
            if abs(p.sum() - 1.0) > 1e-12:
                raise ValueError("weights failed to normalize")
            object.__setattr__(self, "probs", p)
            object.__setattr__(self, "cumprobs", np.cumsum(p))


def uniform_scheme(batch=1):
    return SamplingScheme("uniform", batch)


def lipschitz_scheme(weights, batch=1):
    """Weights p_i proportional to the given per-example constants."""
    return SamplingScheme("lipschitz", batch, probs=np.asarray(weights, dtype=np.float64))


def sample(scheme, rng, n):
    """Draw one index set B_k of size scheme.batch from {0..n-1}."""
    return np.array(next(draw_batches(scheme, rng, n, 1)), dtype=np.int64)


def check_batch(scheme, n):
    """Raise ValueError when scheme cannot draw from n examples: a uniform
    batch is drawn without replacement, so it needs batch <= n. Lipschitz
    sampling draws with replacement, so any batch is allowed."""
    if scheme.kind == "uniform" and scheme.batch > n:
        raise ValueError("batch %d exceeds n=%d without replacement" % (scheme.batch, n))


def draw_batches(scheme, rng, n, count):
    """Yields count index batches (lists of ints) drawn by one generator call:
    the batches, and the stream after them, of count sample() calls. A uniform
    batch is a partial Fisher-Yates over a virtual pool 0..n-1 that stores
    only the swapped slots, so it costs O(b) whatever n is."""
    check_batch(scheme, n)
    b = scheme.batch
    if scheme.kind == "lipschitz":
        if len(scheme.probs) != n:
            raise ValueError("weight vector length %d != n=%d" % (len(scheme.probs), n))
        flat = np.searchsorted(scheme.cumprobs, rng.random(count * b), side="right")
        flat = np.clip(flat, 0, n - 1, out=flat).tolist()  # u == 1.0 can round past the end
        for k in range(0, count * b, b):
            yield flat[k:k + b]
    elif b == 1:
        for i in rng.integers(n, size=count).tolist():
            yield [i]
    else:
        ts = np.arange(b)
        for row in ts + rng.integers(0, n - ts, (count, b)):
            pool = {}
            batch = []
            for t, j in enumerate(row.tolist()):
                batch.append(pool.get(j, j))
                pool[j] = pool.get(t, t)
            yield batch


def minibatch_smoothness(l_max, l_full, n, b):
    """The batch-size-b smoothness constant interpolating L_max down to L.

    L(b) = (1/b) (n-b)/(n-1) L_max + (n/b) (b-1)/(n-1) L, with L(1) = L_max
    and L(n) = L; n = 1 returns L_max.
    """
    if not 1 <= b <= n:
        raise ValueError("batch size %d out of range [1, %d]" % (b, n))
    if l_full > l_max:
        raise ValueError("l_full must not exceed l_max")
    if n == 1:
        return float(l_max)
    b = float(b)
    return float((n - b) / (b * (n - 1)) * l_max + n * (b - 1) / (b * (n - 1)) * l_full)


def default_stepsize(method, info, scheme=None):
    """Theory-default constant stepsize for a method under a sampling scheme.

    1/L_max for the variance-reduced methods at b=1 uniform, 1/L(b) for
    mini-batches, 1/L-bar under Lipschitz sampling, 1/L for gd. Plain sgd has
    no safe constant-step default and must be given gamma explicitly.
    """
    scheme = scheme or uniform_scheme()
    if method == "gd":
        if not info.l_full_exact:
            warnings.warn("global L is a fallback bound; using it anyway")
        return 1.0 / info.l_full
    if method in ("sgd", "sgd_momentum"):
        raise ValueError("no theory default stepsize for %s; set gamma explicitly" % method)
    if method == "sdca":
        raise ValueError("sdca uses exact line search, not a stepsize")
    if method not in ("sag", "saga", "svrg", "sarah", "sgd_star"):
        raise ValueError("unknown method %r" % method)
    if scheme.kind == "lipschitz":
        return 1.0 / info.l_mean
    if scheme.batch == 1:
        return 1.0 / info.l_max
    if not info.l_full_exact:
        warnings.warn("global L is a fallback bound; L(b) uses it anyway")
    n = len(info.per_example)
    return 1.0 / minibatch_smoothness(info.l_max, info.l_full, n, scheme.batch)


def armijo_stochastic(obj, i, x, gamma_max, gamma_start=None):
    """Backtracking stepsize on the sampled example alone.

    Finds the largest gamma in {start * ARMIJO_FACTOR^m}, start at most
    gamma_max, with
    f_i(x - gamma grad f_i(x)) < f_i(x) - ARMIJO_C gamma ||grad f_i(x)||^2.
    Skips (returns gamma_max) when ||grad f_i(x)|| <= 1e-8; returns the
    floor-level trial when nothing passes.
    """
    gi = obj.grad_i(x, i)
    gnorm_sq = float(np.dot(gi, gi))
    if gnorm_sq <= ARMIJO_SKIP_NORM**2:
        return gamma_max
    f0 = obj.value_i(x, i)
    gamma = gamma_max if gamma_start is None else min(gamma_start, gamma_max)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN trial fails the test
        while True:
            ft = obj.value_i(x - gamma * gi, i)
            if ft < f0 - ARMIJO_C * gamma * gnorm_sq:
                return gamma
            if gamma <= ARMIJO_FLOOR:
                return gamma
            gamma = max(gamma * ARMIJO_FACTOR, ARMIJO_FLOOR)
