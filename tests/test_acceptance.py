"""Acceptance criteria, one test per criterion.

Each test drives the corresponding registry check (the same code the
`vropt validate` command runs), prints its one-line pass/fail report with
the observed value against the pinned tolerance, and asserts the verdict.
"""

import math
from types import SimpleNamespace

import numpy as np

from vropt import validate
from vropt.diag import TraceRecord


def _check(name):
    result = validate.CHECKS[name]()
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_benchmark_ordering():
    # logistic benchmark, l2 = 1/n, gamma = 1/L_max, t = n, 30 epochs:
    # sag and svrg reach 1e-8 and beat gd and sgd by >= 100x, each under 60 s
    _check("benchmark_ordering")


def test_criterion_01b_ordering_rejects_beating_f_star(monkeypatch):
    # a method ending 5e-3 below the certified f* (a wrong reference) fails
    # the check, however far the others are ordered
    def result(subopt):
        return SimpleNamespace(records=[TraceRecord(epoch=30.0, grad_evals=0, f=0.0, subopt=subopt)])

    finals = {"sag": 1e-17, "svrg": 3e-10, "saga": 1e-16, "sgd": 3e-3, "gd": 8e-2}
    walls = dict.fromkeys(finals, 1.0)
    monkeypatch.setitem(validate._MEMO, "bench_runs", ({m: result(v) for m, v in finals.items()}, walls))
    assert validate.check_benchmark_ordering().passed
    for method in finals:
        wrong = dict(finals, **{method: -4.58e-3})
        runs = {m: result(v) for m, v in wrong.items()}
        monkeypatch.setitem(validate._MEMO, "bench_runs", (runs, walls))
        assert not validate.check_benchmark_ordering().passed, method


def test_criterion_02_variance_reduction():
    # enumerated estimator variance: epoch-30/epoch-1 ratio <= 1e-3 for the
    # reduced estimators, >= 0.1 for plain stochastic
    _check("variance_reduction")


def test_criterion_03_iterate_capture_2d():
    # shared constant step on the 2-feature problem: averaged method lands
    # within 1e-3 of the start-to-solution distance, sgd stays 10x further
    _check("iterate_capture_2d")


def test_criterion_04_contraction_bound():
    # exact conditional contraction at gamma = 1/L_max on all 100 iterates
    _check("contraction_bound")


def test_criterion_05_smoothness_inequalities():
    # gradient-difference bound at 1000 random points per loss, slack >= -1e-12
    _check("smoothness_inequalities")


def test_criterion_06_unbiasedness():
    # enumerated estimator means equal the full gradient at live checkpoints,
    # exhaustive mini-batch subsets included
    _check("unbiasedness")


def test_criterion_06b_fault_injection_detects_sign_flip():
    # flipping the covariate sign in the table estimator must break the check
    result = validate.check_unbiasedness(flip_sign=True)
    print(result.line())
    assert not result.passed, "sign-flip fault went undetected: " + result.line()


def test_criterion_07_table_mean_identity():
    # running table average equals the from-scratch average to 1e-10
    _check("table_mean_identity")


def test_criterion_08_jit_equivalence():
    # lazy sparse path matches the dense driver over 10 seeds and its touched
    # counter equals the exact support sum of an independent replay
    _check("jit_equivalence")


def test_criterion_09_scalar_table_equivalence():
    # scalar and dense table modes produce identical trajectories
    _check("scalar_table_equivalence")


def test_criterion_10_sdca_certificates():
    # monotone dual, gap <= 1e-8 in 100 epochs, x within 1e-4 of reference,
    # coordinate updates match the golden-section oracle, hinge gap <= 1e-6
    _check("sdca_certificates")


def test_criterion_10b_sdca_certificates_need_a_tracked_gain(monkeypatch):
    # a kernel that stops lowering DualState.min_gain leaves it at inf,
    # which passes the gain's lower bound; the check requires it finite
    x_star = np.zeros(3)
    monkeypatch.setitem(validate._MEMO, "bench", (None, None, x_star, 0.0))
    for min_gain, passed in ((0.0, True), (math.inf, False)):
        res = SimpleNamespace(records=[TraceRecord(epoch=100.0, grad_evals=0, f=0.0, gap=0.0)],
                              aux={"min_dual_gain": min_gain}, x=x_star)
        monkeypatch.setitem(validate._MEMO, "sdca_bench", res)
        result = validate.check_sdca_certificates()
        assert result.passed == passed, result.line()


def test_criterion_11_minibatch_smoothness_curve():
    # L(1) = L_max and L(n) = L exactly; non-increasing in between
    _check("minibatch_smoothness_curve")


def test_criterion_12_prox_pipeline():
    # prox table method matches the proximal full-gradient fixed point to
    # 1e-6 with the identical zero pattern
    _check("prox_pipeline")


def test_criterion_13_derivative_oracles():
    # analytic derivatives vs central differences; conjugates vs numeric sup
    _check("derivative_oracles")


def test_criterion_14_rate_fit_recovery():
    # planted geometric traces recovered to 1e-8; live fit positive with
    # r^2 >= 0.9
    _check("rate_fit_recovery")
