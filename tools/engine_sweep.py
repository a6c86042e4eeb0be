"""Calibration sweep for sparse_jit.LAZY_MIN_D: eager against lazy sag/saga.

    PYTHONPATH=src python3 tools/engine_sweep.py [--n 2000] [--epochs 2] [--repeats 3]

For each width d and row length (nonzeros per row) it builds a random sparse
logistic problem (n rows, columns uniform without repeats, l2 = 1/n, the
default 1/L_max step), times optimizers.run with jit forced off and on (best
of --repeats, engines alternating) and prints microseconds per gradient
evaluation, the engine jit = auto picks, and auto's time over the faster
forced engine's. A run's two checkpoints are inside the timing.
"""

import argparse
import time

import numpy as np

from vropt.data import Dataset
from vropt.objectives import GlmObjective, smoothness
from vropt.optimizers import RunConfig, run
from vropt.sparse_jit import choose_engine

WIDTHS = (100, 1000, 3000, 10_000, 15_000, 20_000, 30_000, 100_000)
ROW_NNZ = (5, 20, 60)
METHODS = ("sag", "saga")


def problem(n, d, k, seed=0):
    rng = np.random.default_rng(seed)
    cols = np.concatenate([np.sort(rng.choice(d, size=k, replace=False)) for _ in range(n)])
    vals = rng.normal(size=n * k) / np.sqrt(k)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    data = Dataset(np.arange(n + 1) * k, cols, vals, labels, d)
    return GlmObjective(data, "logistic", l2=1.0 / n)


def us_per_eval(obj, method, jit, epochs):
    config = RunConfig(method=method, epochs=epochs, checkpoint_every=epochs, jit=jit)
    t0 = time.perf_counter()
    res = run(config, obj)
    return (time.perf_counter() - t0) / res.grad_evals * 1e6


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--epochs", type=float, default=2.0)
    p.add_argument("--repeats", type=int, default=3)
    ns = p.parse_args()
    print("| method | d | nnz/row | eager us/eval | lazy us/eval | auto | auto / best |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    worst = 0.0
    for d in WIDTHS:
        for k in ROW_NNZ:
            obj = problem(ns.n, d, k)
            for method in METHODS:
                best = {"off": np.inf, "on": np.inf}
                for r in range(ns.repeats):
                    for jit in (("off", "on") if r % 2 == 0 else ("on", "off")):
                        best[jit] = min(best[jit], us_per_eval(obj, method, jit, ns.epochs))
                auto = choose_engine(RunConfig(method=method), obj, 1.0 / smoothness(obj).l_max)[0]
                ratio = best["on" if auto == "lazy" else "off"] / min(best.values())
                worst = max(worst, ratio)
                print("| %s | %d | %d | %.1f | %.1f | %s | %.2f |"
                      % (method, d, k, best["off"], best["on"], auto, ratio), flush=True)
    print("worst auto / best: %.2f" % worst)


if __name__ == "__main__":
    main()
