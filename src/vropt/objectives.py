"""Linear-model objectives: losses, gradients, conjugates, prox, smoothness.

The smooth objective is f(x) = (1/n) sum_i loss(a_i^T x, b_i) + (l2/2)||x||^2.
An optional l1 term enters only through the proximal map, never through
gradients. Least squares uses the 1/2 convention, so L_i = ||a_i||^2 + l2.
"""

import math
from array import array
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import expit


class NonSmoothError(ValueError):
    """Raised when a gradient of the hinge loss is requested."""


class HalfSquaredLoss:
    name = "half_squared"
    smooth = True
    curvature_bound = 1.0  # sup of loss'' over margins
    classification = False

    @staticmethod
    def value(alpha, b):
        r = alpha - b
        return 0.5 * r * r

    @staticmethod
    def deriv(alpha, b):
        return alpha - b

    value_vec = staticmethod(lambda m, b: 0.5 * (m - b) ** 2)
    deriv_vec = staticmethod(lambda m, b: m - b)

    @staticmethod
    def conjugate(u, b):
        return 0.5 * u * u + u * b


class LogisticLoss:
    name = "logistic"
    smooth = True
    curvature_bound = 0.25
    classification = True

    @staticmethod
    def value(alpha, b):
        t = -b * alpha
        # log(1 + e^t) = max(t, 0) + log1p(e^{-|t|}), overflow-safe
        return max(t, 0.0) + np.log1p(np.exp(-abs(t)))

    @staticmethod
    def deriv(alpha, b):
        # -b * expit(-b*alpha) through libm's exp, as scipy's expit computes
        # it, without the ufunc call; exp overflowing is expit's 0
        try:
            return -b * (1.0 / (1.0 + math.exp(b * alpha)))
        except OverflowError:
            return -b * 0.0

    @staticmethod
    def value_vec(m, b):
        t = -b * m
        return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))

    @staticmethod
    def deriv_vec(m, b):
        return -b * expit(-b * m)

    @staticmethod
    def conjugate(u, b):
        # finite only for b*u in [-1, 0]; s ln s + (1-s) ln(1-s) with s = -b*u
        s = -b * u
        if s < 0.0 or s > 1.0:
            return np.inf
        ent = 0.0
        if s > 0.0:
            ent += s * np.log(s)
        if s < 1.0:
            ent += (1.0 - s) * np.log(1.0 - s)
        return ent


class HingeLoss:
    name = "hinge"
    smooth = False
    curvature_bound = None
    classification = True

    @staticmethod
    def value(alpha, b):
        return max(0.0, 1.0 - b * alpha)

    @staticmethod
    def deriv(alpha, b):
        raise NonSmoothError("non-smooth loss: hinge has no derivative")

    value_vec = staticmethod(lambda m, b: np.maximum(0.0, 1.0 - b * m))

    @staticmethod
    def conjugate(u, b):
        return b * u if -1.0 <= b * u <= 0.0 else np.inf


HALF_SQUARED = HalfSquaredLoss()
LOGISTIC = LogisticLoss()
HINGE = HingeLoss()
LOSSES = {l.name: l for l in (HALF_SQUARED, LOGISTIC, HINGE)}


def get_loss(loss):
    if isinstance(loss, str):
        try:
            return LOSSES[loss]
        except KeyError:
            raise ValueError("unknown loss %r (choose from %s)" % (loss, sorted(LOSSES)))
    return loss


class GlmObjective:
    """Immutable bundle of (dataset, loss, l2, l1).

    Labels in {0,1} are coerced to {-1,+1} here when the loss is a
    classification loss; the dataset itself is left untouched.
    """

    def __init__(self, data, loss, l2=0.0, l1=0.0):
        loss = get_loss(loss)
        if l2 < 0 or l1 < 0:
            raise ValueError("regularization weights must be nonnegative")
        if loss is HINGE and l2 <= 0:
            raise ValueError("hinge loss requires l2 > 0")
        labels = data.labels
        if loss.classification:
            vals = set(np.unique(labels))
            if vals <= {0.0, 1.0}:
                labels = np.where(labels > 0, 1.0, -1.0)
            elif not vals <= {-1.0, 1.0}:
                raise ValueError("classification labels must be in {-1,+1} (or {0,1})")
        self.data = data
        self.loss = loss
        self.l2 = float(l2)
        self.l1 = float(l1)
        self.labels = np.asarray(labels, dtype=np.float64)
        self.labels.setflags(write=False)
        self.n = data.n
        self.d = data.d
        # ||a_i||^2 one row at a time: np.dot per row fixes the summation
        # order, so L_max (and with it the default stepsize) is reproducible
        self.row_sq = np.array([float(np.dot(v, v)) for _, v in map(data.row, range(data.n))])
        self.row_sq.setflags(write=False)
        # indptr and labels as Python ints/floats for the per-example loops,
        # which read one row at a time (typed arrays: lists would cost ~4x the memory)
        self.py_indptr = array("q", data.indptr.tobytes())
        self.py_labels = array("d", self.labels.tobytes())
        self._smoothness = {}  # smoothness() results by (tol, max_iter)

    # -- per-example quantities ------------------------------------------

    def margin(self, x, i):
        idx, vals = self.data.row(i)
        return float(np.dot(vals, x[idx]))

    def grad_i_scalar(self, x, i):
        """loss'(a_i^T x, b_i); the scalar that spans the loss gradient."""
        return float(self.loss.deriv(self.margin(x, i), self.labels[i]))

    def grad_i(self, x, i):
        """Dense gradient of f_i(x) = loss_i(a_i^T x) + (l2/2)||x||^2."""
        if not 0 <= i < self.n:
            raise IndexError("example index %d out of range" % i)
        g = self.l2 * x if self.l2 else np.zeros(self.d)
        idx, vals = self.data.row(i)
        g[idx] += self.grad_i_scalar(x, i) * vals
        return g

    def value_i(self, x, i):
        v = self.loss.value(self.margin(x, i), self.labels[i])
        return float(v + 0.5 * self.l2 * np.dot(x, x))

    # -- full-pass quantities (vectorized over examples) ------------------

    def full_value(self, x):
        """Smooth objective f(x); excludes the l1 term."""
        m = self.data.margins(x)
        v = float(np.mean(self.loss.value_vec(m, self.labels)))
        return v + 0.5 * self.l2 * float(np.dot(x, x))

    def objective_value(self, x):
        """f(x) + l1*||x||_1, the quantity traces report."""
        v = self.full_value(x)
        if self.l1:
            v += self.l1 * float(np.abs(x).sum())
        return v

    def loss_scalars(self, x):
        """Vector of loss'(a_i^T x, b_i) for all i."""
        if not self.loss.smooth:
            raise NonSmoothError("non-smooth loss: %s" % self.loss.name)
        return self.loss.deriv_vec(self.data.margins(x), self.labels)

    def loss_grad_full(self, x):
        """(1/n) sum_i loss'_i a_i, the loss part of the full gradient."""
        s = self.loss_scalars(x)
        return self.data.weighted_sum(s) / self.n

    def full_grad(self, x):
        return self.loss_grad_full(x) + self.l2 * x

    def prox(self, gamma, z):
        """argmin_x 0.5||x-z||^2 + gamma*l1*||x||_1 (identity when l1=0)."""
        if gamma <= 0:
            raise ValueError("prox needs gamma > 0")
        if not self.l1:
            return np.array(z, dtype=np.float64)
        return prox_l1(z, gamma * self.l1)


def prox_l1(z, t):
    """Coordinate-wise soft threshold sign(z)*max(|z|-t, 0)."""
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    z = np.asarray(z, dtype=np.float64)
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


@dataclass(frozen=True)
class SmoothnessInfo:
    """L_i, L_max, L-bar, mu, and the global L (exact-to-tolerance or an
    upper bound, as l_full_exact says).

    global_l() returns (l_full, l_full_exact). It runs a power iteration
    that batch-1, Lipschitz-sampled and dual runs never read, so it is
    called on the first read of l_full or l_full_exact, and only once.
    """

    per_example: np.ndarray
    l_max: float
    l_mean: float
    mu_lower: float
    global_l: Callable = field(repr=False, compare=False)

    @cached_property
    def _global(self):
        l_full, exact = self.global_l()
        return float(l_full), bool(exact)

    @property
    def l_full(self):
        return self._global[0]

    @property
    def l_full_exact(self):
        return self._global[1]


def power_iteration_sq(A, tol=1e-10, max_iter=10_000, seed=12345):
    """Largest eigenvalue of (1/n) A A^T for sparse CSR A.

    Iterates in the smaller of the two spaces (the spectrum is shared with
    (1/n) A^T A). Returns (lam, converged); converged means the residual
    ||B v - lam v|| <= tol * max(lam, 1e-30).
    """
    n, d = A.shape
    rng = np.random.Generator(np.random.PCG64(seed))
    in_row_space = n <= d
    size = n if in_row_space else d

    def apply(v):
        if in_row_space:
            return A @ (A.T @ v) / n
        return A.T @ (A @ v) / n

    v = rng.standard_normal(size)
    nv = np.linalg.norm(v)
    if nv == 0:
        v[0] = 1.0
        nv = 1.0
    v /= nv
    lam = 0.0
    for _ in range(max_iter):
        w = apply(v)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0, True  # A has no nonzero singular value reachable
        lam = float(v @ w)
        v = w / nw
        res = np.linalg.norm(apply(v) - lam * v)
        if res <= tol * max(abs(lam), 1e-30):
            return float(v @ apply(v)), True
    return lam, False


def smoothness(obj, tol=1e-10, max_iter=10_000):
    """SmoothnessInfo for a smooth objective.

    L_i = M ||a_i||^2 + l2 with M the loss curvature bound; the global L is
    M * lam_max((1/n) A A^T) + l2 via power iteration (tol, max_iter), run on
    first read, falling back to the trace bound L-bar (flagged inexact) if
    the iteration fails to converge. The result is kept on obj, so every
    caller with the same (tol, max_iter) shares one power iteration.
    """
    if not obj.loss.smooth:
        raise NonSmoothError("non-smooth loss: %s" % obj.loss.name)
    key = (tol, max_iter)
    if key in obj._smoothness:
        return obj._smoothness[key]
    M = obj.loss.curvature_bound
    per = M * obj.row_sq + obj.l2
    per.setflags(write=False)  # shared by every caller of the kept result
    l_max = float(per.max())
    l_mean = float(per.mean())

    def global_l():
        lam, ok = power_iteration_sq(obj.data.to_csr(), tol=tol, max_iter=max_iter)
        if not ok:
            return l_mean, False  # trace bound: lam_max <= mean ||a_i||^2
        # L <= L_max holds mathematically; min() only strips float dust
        return min(M * lam + obj.l2, l_max), True

    info = obj._smoothness[key] = SmoothnessInfo(
        per_example=per, l_max=l_max, l_mean=l_mean, mu_lower=obj.l2, global_l=global_l)
    return info
