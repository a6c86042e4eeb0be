"""Seeded mutants against the oracle suite: which checks and tests catch each.

    PYTHONPATH=src python3 tools/mutants.py

Each mutant is one old -> new string replacement in one file of src/vropt,
a fault a plausible edit could make. For each, the script copies src/ and
tests/ into a temporary directory, applies the replacement there (the
working tree is never touched), runs `vropt validate` and the tier-1 tests
in TESTS against the copy, and prints the catch matrix: one row per mutant,
the checks and tests that fail, and whether any did. A first row runs the
unchanged copy, which must fail nothing. Rows run one after another: each
row's `vropt validate` already spreads its checks' units over every CPU
(vropt/fanout.py), and rows side by side would oversubscribe them.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, file under src/vropt, old, new); old occurs exactly once in the file
MUTANTS = (
    ("mover_decay_0.9", "optimizers.py",
     "x *= 1.0 - gamma * l2", "x *= 1.0 - 0.9 * gamma * l2"),
    ("saga_move_half", "optimizers.py",
     "move(x, gamma, -(gamma / n), gsum, idx, (gamma / b) * delta)",
     "move(x, gamma, -(gamma / n), gsum, idx, (0.5 * gamma / b) * delta)"),
    ("lazy_saga_fold_s_k", "sparse_jit.py",
     "((gamma / sigma + S1) if saga else S)", "((gamma / sigma + S) if saga else S)"),
    ("svrg_anchor_0.99", "optimizers.py",
     "memoryview(state.s_ref), state.loss_ref, -1.0", "memoryview(state.s_ref), state.loss_ref, -0.99"),
    ("sdca_gain_no_dv2", "optimizers.py",
     "- dv * m - 0.5 * rho * dv * dv)", "- dv * m)"),
    ("sarah_stale_x_prev", "optimizers.py",
     "        x_prev[:] = x\n", ""),
    ("momentum_half_beta", "optimizers.py",
     "state.m *= beta", "state.m *= 0.5 * beta"),
    ("minibatch_shift_0.9", "optimizers.py",
     "_spread([c * (deriv(m, labels[j]) - ref[j])", "_spread([0.9 * c * (deriv(m, labels[j]) - ref[j])"),
    ("logistic_deriv_half", "objectives.py",
     "return -b * (1.0 / (1.0 + math.exp(b * alpha)))", "return -b * (0.5 / (1.0 + math.exp(b * alpha)))"),
    ("logistic_deriv_vec_half", "objectives.py",
     "return -b * (1.0 / (1.0 + np.exp(b * m)))", "return -b * (0.5 / (1.0 + np.exp(b * m)))"),
    ("sdca_min_gain_stale", "optimizers.py",
     "dual.min_gain = gain", "pass"),
    ("minibatch_smoothness_lmax", "schedules.py",
     "n * (b - 1) / (b * (n - 1)) * l_full)", "n * (b - 1) / (b * (n - 1)) * l_max)"),
    ("table_gsum_no_subtract", "optimizers.py",
     "gsum[idx] += delta", "gsum[idx] += s * vals"),
    ("epoch_domain_drop_times_n", "optimizers.py",
     "x >= 0 and math.isfinite(x * n)", "x >= 0 and math.isfinite(x)"),
    ("checkpoint_second_product", "optimizers.py",
     "obj.full_grad(x, m)", "obj.full_grad(x)"),
    ("fstar_accepts_nan", "cli.py",
     "if not np.isfinite(f_star):", "if np.isinf(f_star):"),
    ("stop_rule_accepts_any_eps", "diag.py",
     "not 0 <= eps < math.inf", "False"),
    ("indptr_may_fall", "data.py",
     " or (np.diff(indptr) < 0).any()", ""),
    ("keep_any_view", "data.py",
     "type(a.base) is bytes", "a.base is not None"),
)

# tier-1 tests that target faults no validate check sees
TESTS = (
    "tests/test_optimizers.py::test_sdca_gain_is_scaled_dual_increase",
    "tests/test_optimizers.py::test_momentum_full_batch_is_heavy_ball",
    "tests/test_cli.py::test_numeric_inputs_outside_their_domain_exit_1",
    "tests/test_optimizers.py::test_checkpoint_takes_one_product_pair",
    "tests/test_cli.py::test_bad_fstar_or_stop_rule_exits_1_before_any_output",
    "tests/test_diag.py::test_stop_rules",
    "tests/test_data.py::test_dataset_validation",
    "tests/test_data.py::test_dataset_arrays_view_immutable_bytes_on_every_path",
)


def apply(root, mutant):
    """Apply one mutant to the source tree under root."""
    _, name, old, new = mutant
    path = os.path.join(root, "src", "vropt", name)
    with open(path) as fh:
        text = fh.read()
    if text.count(old) != 1:
        raise ValueError("%s: %r occurs %d times in %s" % (mutant[0], old, text.count(old), name))
    with open(path, "w") as fh:
        fh.write(text.replace(old, new))


def failures(root):
    """Names of the validate checks and TESTS that fail on the tree under root."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), VROPT_CACHE=os.path.join(root, "cache"))
    out = subprocess.run([sys.executable, "-c", "import sys; from vropt.cli import main; sys.exit(main())",
                          "validate"], cwd=root, env=env, capture_output=True, text=True).stdout
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
    if "passed" not in out:
        failed.append("validate-crashed")
    for test in TESTS:
        res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
                             cwd=root, env=env, capture_output=True, text=True)
        if res.returncode != 0:
            failed.append(test.rsplit("::", 1)[1])
    return failed


def main():
    rows = [("(none)", None)] + [(m[0], m) for m in MUTANTS]
    print("| mutant | caught | failing checks and tests |")
    print("| --- | --- | --- |")
    missed = 0
    for name, mutant in rows:
        with tempfile.TemporaryDirectory(prefix="vropt-mutant-") as tmp:
            for sub in ("src", "tests"):
                shutil.copytree(os.path.join(ROOT, sub), os.path.join(tmp, sub),
                                ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
            if mutant is not None:
                apply(tmp, mutant)
            failed = failures(tmp)
        caught = bool(failed)
        missed += caught != (mutant is not None)
        print("| %s | %s | %s |" % (name, "yes" if caught else "no", ", ".join(failed) or "-"), flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
