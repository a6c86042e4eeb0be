"""vropt benchmark: three seeded workloads driven through the public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is mushrooms_grid, sparse_ingest, oracle_suite, or `all` (each workload
in turn, in its own process). Run from a checkout: the package is imported
from ./src. The last line of standard output is one JSON object with keys
correct, attempted, failed and metrics; the lines before it are a readable
report. --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced cycles and reports the per-layer metrics of the traced
ones plus the tracing overhead. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("mushrooms_grid", "sparse_ingest", "oracle_suite")
SETUP_REPEATS = 5

# Correctness bounds on progress = last / first checkpoint value of a trace:
# 10x the worst progress seen at the seed commit over seeds 0-20, rounded up.
# mushrooms_grid: suboptimality per grid label (duality gap for sdca).
# sparse_ingest: gradient norm per method. Where the worst progress is
# above 0.1 (svrg, gd, and every sparse_ingest method after one epoch or
# stage) the bound only catches divergence.
GRID_BOUNDS = {
    "sag": 9.3e-3, "saga": 0.028, "saga-jit": 0.028, "saga-lip": 0.035, "svrg": 4.1,
    "svrg-b16": 0.71, "sgd": 0.13, "gd": 2.5, "sdca": 0.044,
}
SPARSE_BOUNDS = {"sag": 4.7, "saga": 9.1, "svrg": 12.0}


class Op:
    """One finished child process: wall seconds, exit code, peak RSS."""

    def __init__(self, argv, env, log, spans=None, cwd=ROOT):
        self.spans = spans  # span file a traced op writes
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT, cwd=cwd)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.seconds = time.perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss * 1024 / tracing.MB
        self.log = log


def child_env(cache):
    env = dict(os.environ)
    env.pop("VROPT_MUSHROOMS", None)
    env.update(PYTHONPATH=SRC, VROPT_CACHE=cache, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def mtimes(directory):
    return {f: os.stat(os.path.join(directory, f)).st_mtime_ns for f in os.listdir(directory)}


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_trace(path):
    """(digest of the trace with its time_s column blanked, first row, last row)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")][1:]
    stripped = [ln if ln.startswith("#") or ln.startswith("epoch,") else ln.rsplit(",", 1)[0] + ","
                for ln in lines]
    digest = hashlib.sha256(("\n".join(stripped) + "\n").encode()).hexdigest()
    return digest, body[0].split(","), body[-1].split(",")


def take_trace(cycle, key, path, col):
    """Record one trace's digest, evaluations, solver time and progress (last
    over first value of column `col`) in the cycle; returns (evals, progress)."""
    digest, first, last = read_trace(path)
    cycle["digests"][key] = digest
    cycle["evals"] += int(last[1])
    cycle["solver_s"] += float(last[7])
    cycle["progress"][key] = progress = float(last[col]) / float(first[col])
    return int(last[1]), progress


def keep_going(walls, started, seconds, need):
    """Closed-loop cycle rule: run at least `need` cycles, and start another
    only if a cycle as long as the median so far still ends by the deadline."""
    if len(walls) < need:
        return True
    return time.perf_counter() - started + statistics.median(walls) <= seconds


class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(STATE, "work-%s-%d-%d-%d" % (workload, seed, trace, os.getpid()))
        self.inputs_dir = os.path.join(self.work, "inputs")
        self.info = None

    # -- set-up --------------------------------------------------------

    def setup(self):
        """Time SETUP_REPEATS fresh set-up processes; the last one's inputs are used."""
        times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.inputs_dir, ignore_errors=True)
            op = Op([sys.executable, os.path.join(HERE, "inputs.py"), self.workload,
                     str(self.seed), self.inputs_dir],
                    child_env(os.path.join(self.work, "setup-cache")), os.path.join(self.work, "setup.log"))
            if op.code != 0:
                with open(op.log) as fh:
                    raise RuntimeError("set-up failed (exit %d):\n%s" % (op.code, fh.read()))
            times.append(op.seconds)
        with open(os.path.join(self.inputs_dir, "inputs.json")) as fh:
            self.info = json.load(fh)
        return times

    # -- cycles --------------------------------------------------------

    def cli(self, cycle_dir, k, args, traced, env):
        """Run one `vropt` invocation in the inputs directory; traced ones go
        through traced_cli.py."""
        log = os.path.join(cycle_dir, "op%d.log" % k)
        if traced:
            spans = os.path.join(cycle_dir, "spans-op%d.npz" % k)
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans, str(k)] + args
        else:
            spans = None
            argv = [sys.executable, "-m", "vropt.cli"] + args
        return Op(argv, env, log, spans, cwd=self.inputs_dir)

    def new_cycle(self, k):
        cycle_dir = os.path.join(self.work, "cycle%d" % k)
        os.makedirs(os.path.join(cycle_dir, "cache"))
        return cycle_dir, child_env(os.path.join(cycle_dir, "cache"))

    def mushrooms_cycle(self, k, traced):
        info = self.info
        cycle_dir, env = self.new_cycle(k)
        cache = env["VROPT_CACHE"]
        grid_out = os.path.join(self.inputs_dir, "grid")
        shutil.rmtree(grid_out, ignore_errors=True)
        ref = os.path.join(cycle_dir, "ref")
        solve = self.cli(cycle_dir, 0, ["solve-ref", "--data", info["data"], "--l2", info["l2"],
                                        "--out", ref], traced, env)
        cached = mtimes(cache)
        compare = self.cli(cycle_dir, 1, ["compare", info["spec"], "--times"], traced, env)
        labels = info["labels"]
        c = self.cycle_record(traced, [solve, compare], [[], labels])
        c["ref_solve_s"] = solve.seconds
        c["attempted"] = 1 + len(labels)
        reused = cached and cached == mtimes(cache)
        if solve.code == 0 and reused:
            c["digests"]["ref.xstar.vec"] = sha256_file(ref + ".xstar.vec")
            c["digests"]["ref.fstar.txt"] = sha256_file(ref + ".fstar.txt")
        else:
            c["failed"] += 1
            c["errors"].append("solve-ref exit %d, cache reused by compare: %s" % (solve.code, bool(reused)))
        if compare.code != 0:
            c["failed"] += len(labels)
            c["errors"].append("compare exit %d" % compare.code)
            return c
        c["digests"]["summary.csv"] = sha256_file(os.path.join(grid_out, "summary.csv"))
        for label in labels:
            col = 6 if label == "sdca" else 3  # gap, else subopt
            _, progress = take_trace(c, label, os.path.join(grid_out, "%s_seed%d.csv" % (label, self.seed)), col)
            if not progress <= GRID_BOUNDS[label]:
                c["failed"] += 1
                c["errors"].append("%s: progress %.3g past bound %.3g" % (label, progress, GRID_BOUNDS[label]))
        return c

    def sparse_cycle(self, k, traced):
        info = self.info
        cycle_dir, env = self.new_cycle(k)
        ops = []
        for j, method in enumerate(info["labels"]):
            args = ["run", "--data", info["data"], "--loss", "logistic", "--l2", info["l2"],
                    "--method", method, "--table", "scalar", "--epochs", str(inputs.SPARSE_EPOCHS),
                    "--seed", str(self.seed), "--out", os.path.join(cycle_dir, method + ".csv"), "--times"]
            if method == "svrg":
                args += ["--inner-t", str(inputs.SPARSE_INNER_T)]
            ops.append(self.cli(cycle_dir, j, args, traced, env))
        c = self.cycle_record(traced, ops, [[m] for m in info["labels"]])
        c["attempted"] = len(ops)
        n = info["n"]
        for method, op in zip(info["labels"], ops):
            if op.code != 0:
                c["failed"] += 1
                c["errors"].append("%s: exit %d" % (method, op.code))
                continue
            evals, progress = take_trace(c, method, os.path.join(cycle_dir, method + ".csv"), 4)
            want = n + 2 * inputs.SPARSE_INNER_T if method == "svrg" else inputs.SPARSE_EPOCHS * n
            if evals != want or not progress <= SPARSE_BOUNDS[method]:
                c["failed"] += 1
                c["errors"].append("%s: %d evals (want %d), grad-norm progress %.3g (bound %.3g)"
                                   % (method, evals, want, progress, SPARSE_BOUNDS[method]))
        return c

    def cycle_record(self, traced, ops, labels):
        return {"traced": traced, "wall_s": sum(op.seconds for op in ops),
                "rss_mb": max(op.rss_mb for op in ops), "evals": 0, "solver_s": 0.0,
                "failed": 0, "errors": [], "digests": {}, "progress": {},
                "spans": [op.spans for op in ops] if traced else [], "labels": labels}

    def oracle_cycle(self, k, traced):
        cycle_dir, env = self.new_cycle(k)
        spans = os.path.join(cycle_dir, "spans-op0.npz") if traced else None
        result = os.path.join(cycle_dir, "oracle.json")
        op = Op([sys.executable, os.path.join(HERE, "oracle_worker.py"), self.inputs_dir,
                 str(int(traced)), spans or "-", result], env, os.path.join(cycle_dir, "op0.log"), spans)
        c = self.cycle_record(traced, [op], [None])
        c["attempted"] = len(self.info["checks"])
        if op.code != 0:
            c["failed"] = c["attempted"]
            c["errors"].append("oracle worker exit %d" % op.code)
            return c
        with open(result) as fh:
            out = json.load(fh)
        for key in ("validate_s", "check_seconds", "evals", "solver_s", "failed", "digests"):
            c[key] = out[key]
        c["errors"] = [ln for ln in out["lines"] if not ln.startswith("PASS")]
        return c

    def cycles(self):
        step = {"mushrooms_grid": self.mushrooms_cycle, "sparse_ingest": self.sparse_cycle,
                "oracle_suite": self.oracle_cycle}[self.workload]
        out = []
        t0 = time.perf_counter()
        while keep_going([c["wall_s"] for c in out], t0, self.seconds, 1 + self.trace):
            out.append(step(len(out), self.trace and len(out) % 2 == 1))
        return out

    # -- checks that run once, untimed --------------------------------

    def verify_sparse_shape(self):
        """Parse the generated file once through the CLI's loader and compare
        (n, d, nnz) with the generator's."""
        sys.path.insert(0, SRC)
        from vropt.bench_data import load_dataset

        data = load_dataset(os.path.join(self.inputs_dir, self.info["data"]))
        got = (data.n, data.d, int(data.indptr[-1]))
        want = (self.info["n"], self.info["d"], self.info["nnz"])
        return None if got == want else "parsed (n, d, nnz) = %s, generated %s" % (got, want)


def machine():
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def summarize(run, setup_times, cycles):
    """Metrics, determinism and failure counts of one run."""
    plain = [c for c in cycles if not c["traced"]]
    traced = [c for c in cycles if c["traced"]]
    attempted = sum(c["attempted"] for c in cycles)
    failed = sum(c["failed"] for c in cycles)
    errors = [e for c in cycles for e in c["errors"]]
    first = cycles[0]["digests"]
    for k, c in enumerate(cycles[1:], 1):
        changed = sorted(key for key in first if c["digests"].get(key) != first[key])
        if changed:
            failed += len(changed)
            errors.append("cycle %d outputs differ from cycle 0: %s" % (k, ", ".join(changed)))
    if run.workload == "sparse_ingest":
        shape_error = run.verify_sparse_shape()
        if shape_error:
            failed = attempted
            errors.append(shape_error)
    failed = min(failed, attempted)
    wall = median([c["wall_s"] for c in plain])
    e2e = {
        "setup_s": median(setup_times),
        "wall_s": wall,
        "peak_rss_mb": max(c["rss_mb"] for c in plain),
    }
    report = dict(e2e)
    report["evals_per_s"] = median([c["evals"] / c["solver_s"] for c in plain if c["solver_s"] > 0])
    if run.workload == "mushrooms_grid":
        report["ref_solve_s"] = median([c["ref_solve_s"] for c in plain])
    if run.workload == "oracle_suite":
        report["validate_s"] = median([c.get("validate_s", 0.0) for c in plain])
    layers = {}
    if traced:
        checks = run.info["checks"]
        # a failed traced op may have left no spans; its failure is counted,
        # and its layers read 0 unless another traced cycle succeeded
        clean = [c for c in traced if c["failed"] == 0] or [
            {"spans": [], "labels": [], "check_seconds": {}}]
        per_cycle = []
        for c in clean:
            files = [tracing.SpanFile(p) for p in c["spans"]]
            per_cycle.append(tracing.layer_metrics(files, c["labels"], checks,
                                                   c.get("check_seconds", {})))
        for name, (_, unit) in per_cycle[0].items():
            pick = statistics.median_low if unit == "count" else statistics.median
            layers[name] = (pick([m[name][0] for m in per_cycle]), unit)
        traced_wall = median([c["wall_s"] for c in traced])
        layers["trace.overhead_s"] = (traced_wall - wall, "s")
        layers["trace.overhead_frac"] = ((traced_wall - wall) / wall, "1")
    return {"attempted": attempted, "failed": failed, "errors": errors, "e2e": e2e,
            "report": report, "layers": layers,
            "digests": first, "progress": cycles[0]["progress"], "cycles": len(cycles),
            "traced_cycles": len(traced)}


UNITS = {"setup_s": "s", "wall_s": "s", "evals_per_s": "1/s", "peak_rss_mb": "MB",
         "ref_solve_s": "s", "validate_s": "s"}


def run_one(ns):
    run = Run(ns.workload, ns.seed, ns.seconds, ns.trace)
    os.makedirs(run.work)
    try:
        setup_times = run.setup()
        cycles = run.cycles()
        s = summarize(run, setup_times, cycles)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    fail_ratio = s["failed"] / s["attempted"]
    print("%s seed=%d trace=%d: %d cycles (%d traced), set-up x%d"
          % (run.workload, run.seed, run.trace, s["cycles"], s["traced_cycles"], SETUP_REPEATS))
    for name, value in s["report"].items():
        print("  %-28s %14.6g %s" % (name, value, UNITS[name]))
    print("  %-28s %14.6g 1  (%d failed / %d attempted)"
          % ("fail_ratio", fail_ratio, s["failed"], s["attempted"]))
    for err in s["errors"]:
        print("  FAILED: %s" % err)
    for name, (value, unit) in s["layers"].items():
        print("  %-44s %14.6g %s" % (name, value, unit))
    if ns.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in s["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in s["e2e"].items()}
    record = {"workload": run.workload, "seed": run.seed, "trace": run.trace,
              "machine": machine(), "setup_times": setup_times, "fail_ratio": fail_ratio,
              "errors": s["errors"], "report": s["report"], "digests": s["digests"],
              "progress": s["progress"], "metrics": metrics}
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    with open(os.path.join(STATE, "results", "%s-seed%d-trace%d.json"
                           % (run.workload, run.seed, run.trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": s["failed"] == 0, "attempted": s["attempted"], "failed": s["failed"],
            "metrics": metrics}


def run_all(ns):
    """Every workload in its own process; metrics are prefixed by workload."""
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                               "--seed", str(ns.seed), "--seconds", str(ns.seconds),
                               "--trace", str(ns.trace)], stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise RuntimeError("workload %s failed (exit %d)" % (workload, proc.returncode))
        res = json.loads(lines[-1])
        out["correct"] = out["correct"] and res["correct"]
        out["attempted"] += res["attempted"]
        out["failed"] += res["failed"]
        out["metrics"].update({"%s.%s" % (workload, k): v for k, v in res["metrics"].items()})
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "vropt", "cli.py")):
        sys.stderr.write("perfbench: no vropt sources under %s; run from a checkout\n" % SRC)
        return 2
    result = run_all(ns) if ns.workload == "all" else run_one(ns)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
