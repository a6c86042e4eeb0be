"""Calibration sweeps for the engine limits: sparse_jit.LAZY_MIN_D (eager
against lazy steps of the table kernels sag, saga and the shift kernel sgd,
svrg) and, with --products, data.NUMPY_MAX_NNZ (numpy against scipy.sparse
full products).

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

--products measures what importing scipy.sparse costs a fresh process
(best of 3) and counts the full products (Dataset.margins, A x, and
Dataset.weighted_sum, A^T s) that each process on small data makes, each
in a fresh process: one oracle_suite cycle (every validate check but the
three built on mushrooms), `vropt validate`, and per small synthetic set a
solve-ref, a compare over every method but sgd_star at its 30 epochs and
(blobs2d) a trace2d. Only products on data of at most the current
NUMPY_MAX_NNZ nonzeros, the ones numpy takes, are counted. It then times
each product per nonzero count under each engine (best of --repeats,
engines alternating; rows of 20 nonzeros, d = 1000). For each size it
prints the wall time numpy would cost the worst of those processes, its
products taken on data of that size, against scipy with its import
(negative: numpy is faster). The limit is the largest size up to which no
counted process would lose time. A process that makes more products than
any counted one (a long gd run, say) can lose time at the limit; the last
line gives the pairs after which scipy repays its import there, with the
RSS that import costs.
"""

import argparse
import os
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
PRODUCT_NNZ = (500, 1000, 1500, 2000, 2500, 3000, 4000, 5000, 7000, 10_000, 20_000, 200_000)
MUSHROOMS_CHECKS = ("benchmark_ordering", "variance_reduction", "sdca_certificates")
SMALL_SETS = ("tiny", "toyclass", "toyreg", "blobs2d", "sparse")
# Runs the CLI on its arguments (none: one oracle_suite cycle) with counting
# wrappers on the two products; prints the exit code and the two counts.
COUNT_PROBE = """
import contextlib, io, sys
from vropt import data, validate
from vropt.cli import main
counts = [0, 0]
def counting(k, product):
    def wrapped(self, v):
        counts[k] += self.col_values.size <= data.NUMPY_MAX_NNZ
        return product(self, v)
    return wrapped
data.Dataset.margins = counting(0, data.Dataset.margins)
data.Dataset.weighted_sum = counting(1, data.Dataset.weighted_sum)
with contextlib.redirect_stdout(io.StringIO()):
    if sys.argv[1:]:
        rc = main(sys.argv[1:])
    else:
        rc = [validate.CHECKS[c]() for c in validate.CHECKS if c not in %r] and 0
print(rc, *counts)
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


def small_data_processes(tmp):
    """(label, argv) per counted process: CLI arguments, or None for the
    oracle_suite cycle."""
    procs = [("oracle_suite cycle", None), ("validate", ["validate"])]
    for name in SMALL_SETS:
        loss = "half_squared" if name == "toyreg" else "logistic"
        methods = ("gd", "sag", "saga", "svrg", "sarah") + (("sdca",) if loss == "logistic" else ())
        spec = os.path.join(tmp, name + ".spec")
        with open(spec, "w") as fh:
            fh.write("data = synth:%s\nloss = %s\nl2 = 0.01\nout = %s\n" % (name, loss, os.path.join(tmp, name)))
            fh.writelines("\n[method]\nname = %s\n" % m for m in methods)
            fh.write("\n[method]\nname = sgd\ngamma = 0.05\n\n[method]\nname = sgd_momentum\ngamma = 0.05\nbeta = 0.5\n")
        objective = ["--data", "synth:" + name, "--loss", loss, "--l2", "0.01"]
        procs.append(("solve-ref " + name, ["solve-ref", *objective, "--out", os.path.join(tmp, name)]))
        procs.append(("compare " + name, ["compare", spec]))
        if name == "blobs2d":
            procs.append(("trace2d " + name, ["trace2d", *objective, "--method", "sag", "--out", os.path.join(tmp, "fig")]))
    return procs


def count_products():
    """{label: (margins calls, weighted_sum calls)} on numpy-engine data,
    each process run fresh, with its own empty reference cache."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, argv) in enumerate(small_data_processes(tmp)):
            env = dict(os.environ, VROPT_CACHE=os.path.join(tmp, "cache%d" % i))
            proc = subprocess.run([sys.executable, "-c", COUNT_PROBE, *(argv or [])], env=env,
                                  capture_output=True, text=True)
            rc, m, w = (proc.stdout.split() or ["?"] * 3)[-3:]
            if proc.returncode or rc not in ("0", "None"):
                raise RuntimeError("%s failed: %s" % (label, proc.stderr[-2000:]))
            out[label] = (int(m), int(w))
    return out


def us_per_product(data, limit, reps):
    """Microseconds per (margins, weighted_sum) call with NUMPY_MAX_NNZ = limit."""
    x, s = np.ones(data.d), np.ones(data.n)
    default, vdata.NUMPY_MAX_NNZ = vdata.NUMPY_MAX_NNZ, limit
    try:
        data.weighted_sum(data.margins(x))  # scipy's import and A^T outside the timing
        t0 = time.perf_counter()
        for _ in range(reps):
            data.margins(x)
        t1 = time.perf_counter()
        for _ in range(reps):
            data.weighted_sum(s)
        return np.array([t1 - t0, time.perf_counter() - t1]) / reps * 1e6
    finally:
        vdata.NUMPY_MAX_NNZ = default


def products(repeats):
    probes = [subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                             check=True).stdout.split() for _ in range(3)]
    import_s = min(float(t) for t, _ in probes)
    import_mb = min(float(mb) for _, mb in probes)
    counts = count_products()
    print("| process | A x | A^T s |")
    print("| --- | --- | --- |")
    for label, (m, w) in counts.items():
        print("| %s | %d | %d |" % (label, m, w), flush=True)
    print("import scipy.sparse: %.3f s, %.1f MB RSS" % (import_s, import_mb))
    print("| nnz | numpy us (A x, A^T s) | scipy us (A x, A^T s) | worst process: numpy - scipy ms | engine |")
    print("| --- | --- | --- | --- | --- |")
    limit, lost, at_limit = 0, False, None
    for nnz in PRODUCT_NNZ:
        data = problem(nnz // 20, 1000, 20).data
        reps = max(10, 100_000 // nnz)
        best = {"numpy": np.full(2, np.inf), "scipy": np.full(2, np.inf)}
        for r in range(repeats):
            for engine in (("numpy", "scipy") if r % 2 == 0 else ("scipy", "numpy")):
                t = us_per_product(data, nnz if engine == "numpy" else -1, reps)
                best[engine] = np.minimum(best[engine], t)
        extra = best["numpy"] - best["scipy"]
        label, (m, w) = max(counts.items(), key=lambda kv: kv[1][0] * extra[0] + kv[1][1] * extra[1])
        cost_ms = (m * extra[0] + w * extra[1]) / 1e3 - import_s * 1e3
        lost = lost or cost_ms > 0
        if not lost:
            limit = nnz
        if nnz == vdata.NUMPY_MAX_NNZ:
            at_limit = extra.sum()
        print("| %d | %.1f, %.1f | %.1f, %.1f | %+.0f (%s) | %s |"
              % (nnz, *best["numpy"], *best["scipy"], cost_ms, label,
                 "numpy" if nnz <= vdata.NUMPY_MAX_NNZ else "scipy"), flush=True)
    print("largest size no counted process loses time at: %d (NUMPY_MAX_NNZ = %d)" % (limit, vdata.NUMPY_MAX_NNZ))
    if at_limit is not None:
        print("at NUMPY_MAX_NNZ numpy costs %.1f us more per pair; scipy repays its import (and %.1f MB RSS) "
              "after %s pairs" % (at_limit, import_mb, "%.0f" % (import_s * 1e6 / at_limit) if at_limit > 0 else "no"))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--epochs", type=float, default=2.0)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--products", action="store_true", help="sweep data.NUMPY_MAX_NNZ instead")
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
