import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.special import expit

from vropt import objectives
from vropt.bench_data import load_dataset, tiny, toy_classification
from vropt.objectives import (
    LOGISTIC,
    LOSSES,
    GlmObjective,
    NonSmoothError,
    get_loss,
    prox_l1,
    smoothness,
)


def test_half_squared_values():
    loss = get_loss("half_squared")
    assert loss.value(3.0, 1.0) == 2.0
    assert loss.deriv(3.0, 1.0) == 2.0
    # conjugate of 0.5(a-b)^2 is 0.5u^2 + bu
    assert loss.conjugate(2.0, 1.0) == 4.0


def test_logistic_values():
    loss = get_loss("logistic")
    assert loss.value(0.0, 1.0) == pytest.approx(math.log(2.0), rel=1e-15)
    assert loss.deriv(0.0, 1.0) == pytest.approx(-0.5, rel=1e-15)
    # large margins must not overflow
    assert loss.value(1000.0, -1.0) == pytest.approx(1000.0, rel=1e-12)
    assert loss.value(1000.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert math.isfinite(loss.deriv(-1000.0, 1.0))


def test_hinge_not_smooth():
    loss = get_loss("hinge")
    assert loss.value(0.5, 1.0) == 0.5
    assert loss.value(2.0, 1.0) == 0.0
    assert not loss.smooth
    ds = tiny(seed=0)
    obj = GlmObjective(ds, "hinge", l2=0.1)
    with pytest.raises(NonSmoothError):
        obj.full_grad(np.zeros(obj.d))


def test_unknown_loss():
    with pytest.raises(ValueError):
        get_loss("l1_hinge")


def test_label_validation():
    ds = tiny(seed=0)
    labels = ds.labels.copy()
    labels[0] = 0.3
    from vropt.data import Dataset

    bad = Dataset(ds.indptr, ds.col_indices, ds.col_values, labels, ds.d)
    with pytest.raises(ValueError):
        GlmObjective(bad, "logistic", l2=0.1)
    # regression accepts arbitrary reals
    GlmObjective(bad, "half_squared", l2=0.1)


def test_regularization_must_be_nonnegative_and_finite():
    # a NaN weight passed `l2 < 0 or l1 < 0` and surfaced later as divergence
    ds = tiny(seed=0)
    for l2, l1 in ((np.nan, 0.0), (np.inf, 0.0), (-1.0, 0.0), (0.1, np.nan), (0.1, np.inf), (0.1, -1.0)):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            GlmObjective(ds, "logistic", l2=l2, l1=l1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["half_squared", "logistic"]),
       st.floats(-20, 20, allow_nan=False),
       st.sampled_from([-1.0, 1.0]))
def test_fenchel_young(name, alpha, b):
    """l(a) + l*(u) >= u*a with equality at u = l'(a)."""
    loss = get_loss(name)
    u = loss.deriv(alpha, b)
    lhs = loss.value(alpha, b) + loss.conjugate(u, b)
    assert lhs >= u * alpha - 1e-9 * (1.0 + abs(lhs))
    assert lhs == pytest.approx(u * alpha, rel=1e-8, abs=1e-10)


def test_prox_l1_cases():
    z = np.array([3.0, -0.5, 0.2, -4.0, 0.0])
    out = prox_l1(z, 1.0)
    assert out.tolist() == [2.0, 0.0, 0.0, -3.0, 0.0]
    assert prox_l1(z, 0.0).tolist() == z.tolist()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=8),
       st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=8),
       st.floats(0, 10, allow_nan=False))
def test_prox_l1_nonexpansive(a, b, t):
    n = min(len(a), len(b))
    xa, xb = np.array(a[:n]), np.array(b[:n])
    pa, pb = prox_l1(xa, t), prox_l1(xb, t)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(xa - xb) + 1e-12


def test_grad_consistency():
    ds = toy_classification(seed=3, n=20, d=6)
    obj = GlmObjective(ds, "logistic", l2=0.05)
    rng = np.random.default_rng(0)
    x = rng.normal(size=obj.d)
    per = sum(obj.grad_i(x, i) for i in range(obj.n)) / obj.n
    assert np.allclose(per, obj.full_grad(x), rtol=1e-12, atol=1e-14)
    assert obj.objective_value(x) == obj.full_value(x)  # l1 = 0
    obj2 = GlmObjective(ds, "logistic", l2=0.05, l1=0.3)
    assert obj2.objective_value(x) == pytest.approx(
        obj2.full_value(x) + 0.3 * np.abs(x).sum(), rel=1e-15)


def test_smoothness_constants():
    ds = toy_classification(seed=1, n=15, d=4)
    obj = GlmObjective(ds, "half_squared", l2=0.25)
    info = smoothness(obj)
    sq = [float(np.dot(ds.row(i)[1], ds.row(i)[1])) for i in range(ds.n)]
    assert info.l_max == pytest.approx(max(sq) + 0.25, rel=1e-15)
    assert info.l_mean == pytest.approx(np.mean(sq) + 0.25, rel=1e-15)
    # global L from the gram spectrum, so l_max >= l_full >= mu
    assert info.l_max >= info.l_full - 1e-12
    assert info.l_full_exact
    log_info = smoothness(GlmObjective(ds, "logistic", l2=0.25))
    assert log_info.l_max == pytest.approx(0.25 * max(sq) + 0.25, rel=1e-15)


def test_smoothness_pinned_on_mushrooms(monkeypatch):
    # the same constants as before the global L became lazy, bit for bit;
    # the power iteration runs on the first read of l_full, with the
    # call's tol and max_iter, and only once
    calls = []
    real = objectives.power_iteration_sq
    monkeypatch.setattr(objectives, "power_iteration_sq",
                        lambda *a, **k: calls.append(k) or real(*a, **k))
    data = load_dataset("synth:mushrooms:0")
    pinned = {
        "logistic": ("7ad3867544c47db2b244bce00e95a5e765b8847ccae2233772e361d71648d26e",
                     0.2501230920728704, 0.25012309207287053, 0.07866808382857493),
        "half_squared": ("3aa5a0366bea4b69ede7a06df03d964eaa6b7bfa73918bf920f58287c716a36c",
                         1.00012309207287, 1.0001230920728703, 0.31430305909568823),
    }
    for loss, (digest, l_max, l_mean, l_full) in pinned.items():
        info = smoothness(GlmObjective(data, loss, l2=1.0 / data.n))
        got = (hashlib.sha256(info.per_example.tobytes()).hexdigest(), info.l_max, info.l_mean)
        assert got == (digest, l_max, l_mean)
        assert not calls
        assert (info.l_full, info.l_full_exact, info.l_full) == (l_full, True, l_full)
        assert calls == [{"tol": 1e-10, "max_iter": 10_000}]
        calls.clear()
    # an iteration cut short falls back to the trace bound L-bar
    info = smoothness(GlmObjective(data, "logistic", l2=1.0 / data.n), tol=1e-9, max_iter=3)
    assert (info.l_full_exact, info.l_full) == (False, 0.25012309207287053)
    assert calls == [{"tol": 1e-9, "max_iter": 3}]


def _power_iteration_old(A, tol=1e-10, max_iter=10_000, seed=12345):
    """power_iteration_sq before it kept B v from the residual: B v taken
    twice per iteration, and once more on return."""
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
            return 0.0, True
        lam = float(v @ w)
        v = w / nw
        res = np.linalg.norm(apply(v) - lam * v)
        if res <= tol * max(abs(lam), 1e-30):
            return float(v @ apply(v)), True
    return lam, False


class _CountingMatrix:
    """A sparse matrix whose products (its transpose's included) are counted."""

    def __init__(self, a, products):
        self.a, self.products, self.shape = a, products, a.shape

    @property
    def T(self):
        return _CountingMatrix(self.a.T, self.products)

    def __matmul__(self, v):
        self.products.append(1)
        return self.a @ v


def _count_products(data, products):
    """Count data's margins and weighted_sum calls into products."""
    for name in ("margins", "weighted_sum"):
        real = getattr(data, name)
        setattr(data, name, lambda v, real=real: products.append(1) or real(v))


@pytest.mark.parametrize("name", ["toy", "toy_wide", "mushrooms"])
def test_power_iteration_takes_one_product_pair_per_iteration(name):
    # the same lambda bits as the loop that took B v twice per iteration on
    # a scipy matrix, with 2 Dataset products per iteration instead of 4
    # (plus 2 at the start, where the old loop paid 2 on return); converged
    # and cut-short runs
    load = {"toy": lambda: toy_classification(seed=0), "toy_wide": lambda: toy_classification(seed=1, n=5, d=20),
            "mushrooms": lambda: load_dataset("synth:mushrooms:0")}[name]
    for max_iter in (10_000, 3):
        data = load()
        A = sparse.csr_matrix((data.col_values, data.col_indices, data.indptr), shape=(data.n, data.d))
        new, old = [], []
        _count_products(data, new)
        got = objectives.power_iteration_sq(data, max_iter=max_iter)
        want = _power_iteration_old(_CountingMatrix(A, old), max_iter=max_iter)
        assert got == want and type(got[0]) is float
        iterations = (len(old) - 2) // 4 if want[1] else max_iter
        assert len(new) == 2 * iterations + 2
        assert len(old) == 4 * iterations + (2 if want[1] else 0)


# margins where exp overflows or underflows, and -0.0
DERIV_EDGES = [709.78, 709.79, -709.79, 745.0, -745.0, 746.0, -746.0, 1e308, -0.0]


@settings(max_examples=300, deadline=None)
@given(st.floats(-800.0, 800.0), st.sampled_from([-1.0, 1.0]))
def test_logistic_deriv_is_expit(alpha, b):
    # the scalar derivative matches scipy's expit bit for bit, sign of zero
    # included, at random margins and at the edges
    for a in [alpha] + DERIV_EDGES:
        got, want = LOGISTIC.deriv(a, b), -b * expit(-b * a)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (a, b)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(-800.0, 800.0), st.sampled_from([-1.0, 1.0])), min_size=1, max_size=40))
def test_logistic_deriv_vec_matches_deriv(pairs):
    # numpy's exp against libm's: elementwise within 4 ulp at random margins,
    # bit for bit (sign of zero included) at the edges under both labels, and
    # exp's overflow raises no warning
    edges = [(a, b) for b in (1.0, -1.0) for a in DERIV_EDGES]
    m, b = (np.array(v) for v in zip(*(pairs + edges)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = LOGISTIC.deriv_vec(m, b)
    want = np.array([LOGISTIC.deriv(a, bi) for a, bi in pairs + edges])
    k = len(pairs)
    assert np.all(np.abs(got[:k] - want[:k]) <= 4 * np.spacing(np.abs(want[:k]))), (got[:k], want[:k])
    assert got[k:].tobytes() == want[k:].tobytes()


EDGES = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1.0 - 2**-53, -(1.0 - 2**-53), 1.0 + 2**-52,
         -(1.0 + 2**-52), 0.5, 1e-300, np.inf, -np.inf]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(-3.0, 3.0), st.sampled_from(EDGES)), min_size=1, max_size=30),
       st.lists(st.sampled_from([-1.0, 1.0]), min_size=30, max_size=30))
def test_conjugate_vec_is_conjugate(us, bs):
    # elementwise and bit for bit, sign of zero and inf outside the domain
    # included, at random points and at the domain's edges (s = -b*u in
    # {0, 1} for logistic, b*u in {-1, 0} for hinge) and just past them
    u, b = np.array(us), np.array(bs[:len(us)])
    for loss in LOSSES.values():
        want = np.array([loss.conjugate(ui, bi) for ui, bi in zip(u.tolist(), b.tolist())], dtype=np.float64)
        with np.errstate(invalid="ignore"):  # half_squared at u = inf: inf - inf
            got = loss.conjugate_vec(u, b)
        assert got.tobytes() == want.tobytes(), loss.name
