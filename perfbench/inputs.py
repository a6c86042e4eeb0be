"""Seeded inputs for the perfbench workloads.

Run as a script, this is the timed set-up of one benchmark run: a fresh
interpreter imports the package (as every CLI invocation does) and writes
the workload's inputs into OUTDIR, plus OUTDIR/inputs.json describing them.

    python3 perfbench/inputs.py WORKLOAD SEED OUTDIR

Everything written depends only on (WORKLOAD, SEED).
"""

import json
import os
import sys

import numpy as np

# mushrooms_grid uses one table, synth:mushrooms:0 (n = 8124 by construction);
# the benchmark seed drives the methods' sampling. The table's seed is fixed
# because the cold reference solve's work depends on the data: over table
# seeds 0-9 its warm-phase chunk count (2-3) and polish iterations (9.5k-13.4k)
# varied, and so did its time, by up to 2x.
MUSHROOMS_DATA = "synth:mushrooms:0"
MUSHROOMS_N = 8124

# mushrooms_grid: the method grid run by one `vropt compare`, in spec order.
GRID = (
    ("sag", {}),
    ("saga", {}),
    ("saga-jit", {"name": "saga", "table": "scalar"}),
    ("saga-lip", {"name": "saga", "sampling": "lipschitz"}),
    ("svrg", {"inner_t": str(MUSHROOMS_N)}),
    ("svrg-b16", {"name": "svrg", "batch": "16", "gamma_policy": "minibatch"}),
    ("sgd", {}),
    ("gd", {}),
    ("sdca", {}),
)
GRID_EPOCHS = 3

# sparse_ingest: one `vropt run --table scalar` per method on the LIBSVM file.
SPARSE_METHODS = ("sag", "saga", "svrg")
SPARSE_EPOCHS = 1
SPARSE_INNER_T = 10_000  # svrg stage length: one stage per run
SPARSE_N = 50_000
SPARSE_D = 100_000
SPARSE_ROW_DRAWS = (11, 33)  # column draws per row, uniform; ~20 nnz/row after dedup
SPARSE_ZIPF = 1.0  # column popularity ~ 1/rank**SPARSE_ZIPF

# oracle_suite: validate.CHECKS minus the three built on the mushrooms
# fixture, which mushrooms_grid covers with a seed.
ORACLE_SKIP = ("benchmark_ordering", "variance_reduction", "sdca_certificates")


def grid_spec(seed, outdir):
    lines = [
        "data = %s" % MUSHROOMS_DATA,
        "loss = logistic",
        "l2 = 1/n",
        "epochs = %d" % GRID_EPOCHS,
        "seeds = %d" % seed,
        "out = %s" % outdir,
    ]
    for label, keys in GRID:
        lines.append("[method]")
        lines.append("name = %s" % keys.get("name", label))
        if "name" in keys:
            lines.append("label = %s" % label)
        lines.extend("%s = %s" % (k, v) for k, v in keys.items() if k != "name")
    return "\n".join(lines) + "\n"


def sparse_libsvm(seed, n=SPARSE_N, d=SPARSE_D):
    """LIBSVM text with Zipf-like column popularity and planted logistic labels.

    Returns (text, nnz). Rows are unit-normalized; every value is written
    with 6 significant digits and is nonzero, so a parser that keeps every
    token reports exactly (n, d, nnz). Column d-1 always occurs, so the
    parsed dimension is d.
    """
    rng = np.random.default_rng(seed)
    draws = rng.integers(SPARSE_ROW_DRAWS[0], SPARSE_ROW_DRAWS[1] + 1, size=n)
    popularity = 1.0 / np.arange(1, d + 1) ** SPARSE_ZIPF
    popularity /= popularity.sum()
    column_of_rank = rng.permutation(d)
    cols = column_of_rank[rng.choice(d, size=int(draws.sum()), p=popularity)]
    rows = np.repeat(np.arange(n, dtype=np.int64), draws)
    keys = np.sort(np.append(rows * d + cols, (n - 1) * d + (d - 1)))
    keys = keys[np.append(True, keys[1:] != keys[:-1])]  # row-major order, no repeats
    rows, cols = keys // d, keys % d
    g = rng.normal(size=keys.size)
    vals = np.sign(g) * (0.05 + np.abs(g))
    vals /= np.sqrt(np.bincount(rows, weights=vals * vals, minlength=n))[rows]
    x_true = rng.normal(size=d)
    margins = np.bincount(rows, weights=vals * x_true[cols], minlength=n)
    labels = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-4.0 * margins)), "1", "-1")
    indptr = np.searchsorted(rows, np.arange(n + 1))
    tokens = ["%d:%.6g" % t for t in zip((cols + 1).tolist(), vals.tolist())]
    lines = [labels[i] + " " + " ".join(tokens[indptr[i]:indptr[i + 1]]) for i in range(n)]
    return "\n".join(lines) + "\n", int(keys.size)


def make(workload, seed, outdir):
    from vropt.validate import CHECKS

    os.makedirs(outdir, exist_ok=True)
    # every workload names the checks: the traced run reports a time per check
    info = {"workload": workload, "seed": seed,
            "checks": [c for c in CHECKS if c not in ORACLE_SKIP]}
    if workload == "mushrooms_grid":
        spec = os.path.join(outdir, "grid.spec")
        with open(spec, "w") as fh:
            fh.write(grid_spec(seed, os.path.join(outdir, "grid")))
        info.update(spec=spec, data=MUSHROOMS_DATA, n=MUSHROOMS_N,
                    l2=repr(1.0 / MUSHROOMS_N), labels=[label for label, _ in GRID])
    elif workload == "sparse_ingest":
        text, nnz = sparse_libsvm(seed)
        with open(os.path.join(outdir, "sparse.svm"), "w") as fh:
            fh.write(text)
        # relative: ops run in OUTDIR, and the path is echoed into each trace
        info.update(data="sparse.svm", n=SPARSE_N, d=SPARSE_D, nnz=nnz, l2=repr(1.0 / SPARSE_N),
                    labels=list(SPARSE_METHODS))
    elif workload != "oracle_suite":
        raise ValueError("unknown workload %r" % workload)
    with open(os.path.join(outdir, "inputs.json"), "w") as fh:
        json.dump(info, fh)
    return info


if __name__ == "__main__":
    import vropt.cli  # noqa: F401  (import cost is part of set-up)

    make(sys.argv[1], int(sys.argv[2]), sys.argv[3])
