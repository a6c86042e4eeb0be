"""Calibration sweeps for the engine choices: sparse_jit.LAZY_MIN_D (eager
against lazy steps of the table kernels sag, saga and the shift kernel sgd,
svrg) and, with --products, data.NUMPY_BUDGET_NNZ (the stored entries a
Dataset pushes through numpy's full products before it loads scipy.sparse).

    PYTHONPATH=src python3 tools/engine_sweep.py [--n 2000] [--epochs 2] [--repeats 3]
    PYTHONPATH=src python3 tools/engine_sweep.py --products [--repeats 3]

For each width d and row length (nonzeros per row) it builds a random sparse
logistic problem (n rows, columns uniform without repeats, l2 = 1/n, step
1/L_max, sgd's too), times optimizers.run with jit forced off and on (best
of --repeats, engines alternating) and prints microseconds per gradient
evaluation, the engine jit = auto picks, and auto's time over the faster
forced engine's. A run's two checkpoints are inside the timing, and so are
svrg's refreshes (one full pass per stage of n steps, the same work in both
engines).

--products derives the budget by the rent-or-buy rule: what importing
scipy.sparse costs a fresh process (best of 3), over the extra time numpy
takes per stored entry. The extra is timed per size (A x and A^T s, best of
--repeats, engines alternating; rows of 20 nonzeros, d = 1000) and its
median over the sizes sets the budget. It then counts the entries each
process pushes through the products (Dataset.margins and weighted_sum) of
its busiest dataset, each process run fresh with an empty reference cache:
one oracle_suite cycle (every validate check but the three built on
mushrooms), `vropt validate`, per small synthetic set a solve-ref, a compare
over every method but sgd_star and (blobs2d) a trace2d, and the benchmark's
own processes (perfbench/inputs.py, seed 0): mushrooms_grid's cold
solve-ref, its compare (which reuses the solve-ref's cache, as in the
benchmark) and sparse_ingest's three runs. For each it prints
the time numpy's products cost beyond scipy's under the budget (the rent)
against the import (the purchase), and whether the process loads scipy.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from vropt import data as vdata
from vropt.data import Dataset
from vropt.objectives import GlmObjective, smoothness
from vropt.optimizers import RunConfig, run
from vropt.sparse_jit import choose_engine

WIDTHS = (100, 1000, 3000, 10_000, 15_000, 20_000, 30_000, 100_000)
ROW_NNZ = (5, 20, 60)
METHODS = ("sag", "saga", "sgd", "svrg")
PRODUCT_NNZ = (2000, 20_000, 200_000, 1_000_000)
MUSHROOMS_CHECKS = ("benchmark_ordering", "variance_reduction", "sdca_certificates")
SMALL_SETS = ("tiny", "toyclass", "toyreg", "blobs2d", "sparse")
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
# Runs the CLI on its arguments (none: one oracle_suite cycle) with counting
# wrappers on the two products; prints the exit code, the A x and A^T s
# calls, and the most entries one dataset pushed.
COUNT_PROBE = """
import contextlib, io, sys
from vropt import data, validate
from vropt.cli import main
counts, most = [0, 0], [0]
def counting(k, product):
    def wrapped(self, v):
        counts[k] += 1
        self.counted = getattr(self, "counted", 0) + self.col_values.size
        most[0] = max(most[0], self.counted)
        return product(self, v)
    return wrapped
data.Dataset.margins = counting(0, data.Dataset.margins)
data.Dataset.weighted_sum = counting(1, data.Dataset.weighted_sum)
with contextlib.redirect_stdout(io.StringIO()):
    if sys.argv[1:]:
        rc = main(sys.argv[1:])
    else:
        rc = [validate.CHECKS[c]() for c in validate.CHECKS if c not in %r] and 0
print(rc, *counts, most[0])
""" % (MUSHROOMS_CHECKS,)
# The import's time and the rise of the peak RSS (VmHWM, as ru_maxrss would
# carry over the forking parent's peak) in a fresh process.
IMPORT_PROBE = ("import time, numpy\n"
                "def hwm(): return next(int(l.split()[1]) for l in open('/proc/self/status') if l.startswith('VmHWM'))\n"
                "m0 = hwm(); t0 = time.perf_counter(); import scipy.sparse; t1 = time.perf_counter()\n"
                "print(t1 - t0, (hwm() - m0) / 1024)")


def problem(n, d, k, seed=0):
    rng = np.random.default_rng(seed)
    cols = np.concatenate([np.sort(rng.choice(d, size=k, replace=False)) for _ in range(n)])
    vals = rng.normal(size=n * k) / np.sqrt(k)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    data = Dataset(np.arange(n + 1) * k, cols, vals, labels, d)
    return GlmObjective(data, "logistic", l2=1.0 / n)


def us_per_eval(obj, method, jit, epochs, gamma):
    config = RunConfig(method=method, epochs=epochs, checkpoint_every=epochs, jit=jit, gamma=gamma)
    t0 = time.perf_counter()
    res = run(config, obj)
    return (time.perf_counter() - t0) / res.grad_evals * 1e6


def counted_processes(tmp):
    """(label, argv, cwd, cache) per counted process: CLI arguments, or
    None for the oracle_suite cycle; the name of its reference cache, the
    label's own unless it reuses another process's, as mushrooms_grid's
    compare reuses its solve-ref's."""
    procs = [("oracle_suite cycle", None, tmp, "oracle"), ("validate", ["validate"], tmp, "validate")]
    for name in SMALL_SETS:
        loss = "half_squared" if name == "toyreg" else "logistic"
        methods = ("gd", "sag", "saga", "svrg", "sarah") + (("sdca",) if loss == "logistic" else ())
        spec = os.path.join(tmp, name + ".spec")
        with open(spec, "w") as fh:
            fh.write("data = synth:%s\nloss = %s\nl2 = 0.01\nout = %s\n" % (name, loss, os.path.join(tmp, name)))
            fh.writelines("\n[method]\nname = %s\n" % m for m in methods)
            fh.write("\n[method]\nname = sgd\ngamma = 0.05\n\n[method]\nname = sgd_momentum\ngamma = 0.05\nbeta = 0.5\n")
        objective = ["--data", "synth:" + name, "--loss", loss, "--l2", "0.01"]
        procs.append(("solve-ref " + name, ["solve-ref", *objective, "--out", os.path.join(tmp, name)], tmp,
                      "ref-" + name))
        procs.append(("compare " + name, ["compare", spec], tmp, "compare-" + name))
        if name == "blobs2d":
            procs.append(("trace2d " + name, ["trace2d", *objective, "--method", "sag", "--out",
                                              os.path.join(tmp, "fig")], tmp, "trace2d"))
    sys.path.insert(0, PERFBENCH)
    import inputs

    grid = inputs.make("mushrooms_grid", 0, os.path.join(tmp, "grid"))
    procs.append(("mushrooms_grid solve-ref", ["solve-ref", "--data", grid["data"], "--l2", grid["l2"],
                                               "--out", os.path.join(tmp, "mref")], tmp, "grid"))
    procs.append(("mushrooms_grid compare", ["compare", grid["spec"]], tmp, "grid"))
    sparse_dir = os.path.join(tmp, "sparse")
    sparse = inputs.make("sparse_ingest", 0, sparse_dir)
    for method in sparse["labels"]:
        args = ["run", "--data", sparse["data"], "--loss", "logistic", "--l2", sparse["l2"], "--method", method,
                "--epochs", str(inputs.SPARSE_EPOCHS), "--out", method + ".csv"]
        if method == "svrg":
            args += ["--inner-t", str(inputs.SPARSE_INNER_T)]
        procs.append(("sparse_ingest run " + method, args, sparse_dir, "sparse-" + method))
    return procs


def count_products():
    """{label: (A x calls, A^T s calls, most entries one dataset pushed)},
    each process run fresh, with its own reference cache."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv, cwd, cache in counted_processes(tmp):
            env = dict(os.environ, VROPT_CACHE=os.path.join(tmp, "cache-" + cache), PYTHONPATH=os.pathsep.join(
                filter(None, (os.path.dirname(os.path.dirname(vdata.__file__)), os.environ.get("PYTHONPATH")))))
            proc = subprocess.run([sys.executable, "-c", COUNT_PROBE, *(argv or [])], env=env, cwd=cwd,
                                  capture_output=True, text=True)
            rc, m, w, entries = (proc.stdout.split() or ["?"] * 4)[-4:]
            if proc.returncode or rc not in ("0", "None"):
                raise RuntimeError("%s failed: %s" % (label, proc.stderr[-2000:]))
            out[label] = (int(m), int(w), int(entries))
    return out


def ns_per_entry(data, budget, reps):
    """Nanoseconds per stored entry of (margins, weighted_sum) calls with
    NUMPY_BUDGET_NNZ = budget."""
    x, s = np.ones(data.d), np.ones(data.n)
    default, vdata.NUMPY_BUDGET_NNZ = vdata.NUMPY_BUDGET_NNZ, budget
    try:
        data.weighted_sum(data.margins(x))  # scipy's import and A^T outside the timing
        t0 = time.perf_counter()
        for _ in range(reps):
            data.margins(x)
        t1 = time.perf_counter()
        for _ in range(reps):
            data.weighted_sum(s)
        return np.array([t1 - t0, time.perf_counter() - t1]) / reps / data.col_values.size * 1e9
    finally:
        vdata.NUMPY_BUDGET_NNZ = default


def products(repeats):
    probes = [subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                             check=True).stdout.split() for _ in range(3)]
    import_s = min(float(t) for t, _ in probes)
    import_mb = min(float(mb) for _, mb in probes)
    print("import scipy.sparse: %.3f s, %.1f MB RSS" % (import_s, import_mb))
    print("| nnz | numpy ns/entry (A x, A^T s) | scipy ns/entry (A x, A^T s) | extra ns/entry | budget |")
    print("| --- | --- | --- | --- | --- |")
    extras = []
    for nnz in PRODUCT_NNZ:
        data = problem(nnz // 20, 1000, 20).data
        reps = max(3, 2_000_000 // nnz)
        best = {"numpy": np.full(2, np.inf), "scipy": np.full(2, np.inf)}
        for r in range(repeats):
            for engine in (("numpy", "scipy") if r % 2 == 0 else ("scipy", "numpy")):
                t = ns_per_entry(data, np.inf if engine == "numpy" else 0, reps)
                best[engine] = np.minimum(best[engine], t)
        extra = float((best["numpy"] - best["scipy"]).mean())
        extras.append(extra)
        print("| %d | %.2f, %.2f | %.2f, %.2f | %.2f | %s |"
              % (nnz, *best["numpy"], *best["scipy"], extra,
                 "%.0fM" % (import_s / extra * 1e3) if extra > 0 else "none"), flush=True)
    extra = statistics.median(extras)
    budget = import_s / (extra * 1e-9) if extra > 0 else np.inf
    print("budget = import / median extra = %.3f s / %.2f ns = %.0fM entries (NUMPY_BUDGET_NNZ = %.0fM)"
          % (import_s, extra, budget / 1e6, vdata.NUMPY_BUDGET_NNZ / 1e6))
    print("| process | A x | A^T s | entries (busiest dataset) | numpy's extra s | scipy loaded |")
    print("| --- | --- | --- | --- | --- | --- |")
    for label, (m, w, entries) in count_products().items():
        rent = min(entries, vdata.NUMPY_BUDGET_NNZ) * extra * 1e-9
        print("| %s | %d | %d | %.1fM | %.3f | %s |" % (label, m, w, entries / 1e6, rent,
              "after %.0fM entries (+%.3f s)" % (vdata.NUMPY_BUDGET_NNZ / 1e6, import_s)
              if entries > vdata.NUMPY_BUDGET_NNZ else "no"), flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--epochs", type=float, default=2.0)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--products", action="store_true", help="derive data.NUMPY_BUDGET_NNZ instead")
    ns = p.parse_args()
    if ns.products:
        products(ns.repeats)
        return
    print("| method | d | nnz/row | eager us/eval | lazy us/eval | auto | auto / best |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    worst = 0.0
    for d in WIDTHS:
        for k in ROW_NNZ:
            obj = problem(ns.n, d, k)
            gamma = 1.0 / smoothness(obj).l_max
            for method in METHODS:
                best = {"off": np.inf, "on": np.inf}
                for r in range(ns.repeats):
                    for jit in (("off", "on") if r % 2 == 0 else ("on", "off")):
                        best[jit] = min(best[jit], us_per_eval(obj, method, jit, ns.epochs, gamma))
                auto = choose_engine(RunConfig(method=method), obj, gamma)[0]
                ratio = best["on" if auto == "lazy" else "off"] / min(best.values())
                worst = max(worst, ratio)
                print("| %s | %d | %d | %.1f | %.1f | %s | %.2f |"
                      % (method, d, k, best["off"], best["on"], auto, ratio), flush=True)
    print("worst auto / best: %.2f" % worst)


if __name__ == "__main__":
    main()
