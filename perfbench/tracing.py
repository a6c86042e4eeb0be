"""Span tracing for the traced benchmark run, and the per-layer metrics.

The benchmark never edits the package. It replaces the public names that
each calling module looks up (``cli.run``, ``optimizers.sample``,
``diag.dataset_hash``, ...) with wrappers that record a span: layer name,
start, end, parent span and op id. Spans stay in memory and are written to
one .npz file per traced process when it finishes. A span's self time is
its duration minus the time its child spans cover.

Counts and byte sizes come from public results only: RunResult.grad_evals,
aux["touched_coords"], aux["table"], aux["lazy"].prefix and the Dataset a
loader returns. Byte sizes are computed from array sizes (nbytes), not
measured.
"""

import functools
import json
import time
from array import array

import numpy as np

import inputs

ROOT = "cli.main"
RUN = "optimizers.run"
RUN_JIT = "sparse_jit.run_jit"
FULL_STEP = "optimizers.full_step"  # gd steps and snapshot refreshes
REF = "diag.solve_reference"
# checkpoint work inside a run: what emit() calls
CHECKPOINT = ("objectives.full_pass", "diag.duality_gap", "diag.enum_stats", "sparse_jit.materialize")

MB = 1e6

# run labels with per-label metrics: the grid labels, plus the methods the
# oracle checks run that the grid lacks; sparse_ingest labels by method
ALL_LABELS = tuple(label for label, _ in inputs.GRID) + ("sgd_star",)
TABLE_LABELS = ("sag", "saga", "saga-jit", "saga-lip")  # sparse_jit.lazy.<label>
LAZY_LABELS = ("sag", "saga", "saga-jit")  # sparse_jit.us_per_eval.<label>


class Tracer:
    """Records spans into flat arrays; one instance per traced process."""

    def __init__(self, op):
        self.op = op
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.results = []  # (span index, payload) from result hooks
        self._undo = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, on_result=None):
        nid = self._id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter
        results = self.results

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                results.append((idx, on_result(args, out)))
            return out

        return traced

    def patch(self, owner, attr, name, on_result=None):
        fn = getattr(owner, attr)
        setattr(owner, attr, self.wrap(fn, name, on_result))
        self._undo.append((owner, attr, fn))

    def install(self):
        for owner, attr, name, hook in targets():
            self.patch(owner, attr, name, hook)

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def call(self, name, fn, *args):
        return self.wrap(fn, name)(*args)

    def dump(self, path):
        meta = {"op": self.op, "names": self.names, "results": self.results}
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 meta=np.array(json.dumps(meta)))


# ---------------------------------------------------------------------------
# what gets wrapped


def run_result(args, res):
    """Counts and computed bytes of one RunResult."""
    aux = res.aux
    out = {"method": args[0].method, "evals": int(res.grad_evals),
           "lazy": bool(aux.get("jit")), "touched": int(aux.get("touched_coords", 0)),
           "table_bytes": 0, "prefix_bytes": 0}
    table = aux.get("table")
    if table is not None:
        cells = table.s if table.mode == "scalar" else table.v
        out["table_bytes"] = int(cells.nbytes + table.gsum.nbytes + table.seen.nbytes)
    if "lazy" in aux:
        out["prefix_bytes"] = int(aux["lazy"].prefix.nbytes)
    return out


def dataset_result(args, data):
    """Shape and computed bytes of a loaded Dataset: CSR arrays, labels and
    the per-row SparseRow arrays (array payloads only)."""
    rows = sum(r.indices.nbytes + r.values.nbytes for r in data.rows)
    csr = data.indptr.nbytes + data.col_indices.nbytes + data.col_values.nbytes
    return {"n": int(data.n), "d": int(data.d), "nnz": int(data.indptr[-1]),
            "bytes": int(rows + csr + data.labels.nbytes)}


def parse_result(args, data):
    return {"nnz": int(data.indptr[-1])}


def targets():
    """(owner, attribute, span name, result hook) for every wrapped name.

    Each entry is the name a caller looks up at call time, so the wrapper is
    seen by that caller only; the same function is wrapped once per caller.
    """
    from vropt import bench_data, cli, diag, objectives, optimizers, sparse_jit, validate, vecio

    t = [
        (cli, "load_dataset", "bench_data.load_dataset", dataset_result),
        (cli, "run", RUN, run_result),
        (cli, "solve_reference", REF, None),
        (cli, "write_trace", "diag.write_trace", None),
        (bench_data, "parse_libsvm", "data.parse_libsvm", parse_result),
        (bench_data, "synth", "bench_data.gen", None),
        (diag, "dataset_hash", "data.dataset_hash", None),
        (optimizers, "run", RUN, run_result),
        (optimizers, "sample", "schedules.sample", None),
        (optimizers, "duality_gap", "diag.duality_gap", None),
        (sparse_jit, "run_jit", RUN_JIT, None),
        (sparse_jit, "sample", "schedules.sample", None),
        (sparse_jit.LazyIterate, "materialize", "sparse_jit.materialize", None),
        (validate, "run", RUN, run_result),
        (validate, "solve_reference", REF, None),
        (validate, "sample", "schedules.sample", None),
        (vecio, "read_vector", "vecio.read", None),
    ]
    for gen in ("mushrooms_like", "blobs_2d", "sparse_gaussian", "toy_classification",
                "toy_regression", "tiny"):
        t.append((bench_data, gen, "bench_data.gen", None))
    for owner in (cli, diag, optimizers, validate):
        t.append((owner, "smoothness", "objectives.smoothness", None))
    for owner in (diag, optimizers, sparse_jit, validate):
        t.append((owner, "enum_stats", "diag.enum_stats", None))
    t.append((validate, "enum_stats_batches", "diag.enum_stats", None))
    for fn in ("gd_step", "svrg_outer_refresh", "sarah_refresh"):
        t.append((optimizers, fn, FULL_STEP, None))
    for method in ("full_value", "objective_value", "full_grad", "loss_grad_full", "loss_scalars"):
        t.append((objectives.GlmObjective, method, "objectives.full_pass", None))
    for fn in ("write_vectors", "write_scalar_text", "atomic_write_text", "atomic_write_bytes"):
        t.append((vecio, fn, "vecio.write", None))
    return t


# ---------------------------------------------------------------------------
# per-layer metrics from the span files of one cycle


class SpanFile:
    def __init__(self, path):
        with np.load(path) as z:
            self.meta = json.loads(str(z["meta"]))
            names = self.meta["names"]
            self.name = [names[i] for i in z["name"].tolist()]
            parent = z["parent"]
            dur = z["end"] - z["start"]
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        self.parent = parent.tolist()
        self.dur = dur.tolist()
        self.self_time = (dur - covered).tolist()
        self.results = {idx: payload for idx, payload in self.meta["results"]}

    def outermost(self, name):
        """Indices of spans called `name` whose parent is not also `name`."""
        n, p = self.name, self.parent
        return [i for i, s in enumerate(n) if s == name and (p[i] < 0 or n[p[i]] != name)]


def run_spans(sf, labels):
    """User-level runs of one span file: (run span, label, jit child span,
    checkpoint seconds). Runs inside the reference solver are excluded.
    `labels` names the user runs in call order; None labels them by method."""
    name, parent = sf.name, sf.parent
    ctx = [None] * len(name)  # ("run", i), "ref", "busy" or None
    cp = {}
    jit = {}
    runs = []
    for i, s in enumerate(name):
        up = ctx[parent[i]] if parent[i] >= 0 else None
        if s == REF:
            ctx[i] = "ref"
        elif s == RUN and up is None:
            ctx[i] = ("run", i)
            runs.append(i)
            cp[i] = 0.0
        elif isinstance(up, tuple) and s == RUN_JIT:
            jit[up[1]] = i
            ctx[i] = up
        elif isinstance(up, tuple) and s in CHECKPOINT:
            cp[up[1]] += sf.dur[i]
            ctx[i] = "busy"
        elif isinstance(up, tuple) and s == FULL_STEP:
            ctx[i] = "busy"
        else:
            ctx[i] = up
    if labels is not None and len(labels) != len(runs):
        raise ValueError("expected %d user runs, traced %d" % (len(labels), len(runs)))
    out = []
    for k, i in enumerate(runs):
        label = labels[k] if labels is not None else sf.results[i]["method"]
        out.append((i, label, jit.get(i), cp[i]))
    return out


def layer_metrics(files, labels_per_file, checks, check_seconds):
    """Per-layer metrics of one traced cycle, as {name: (value, unit)}.

    labels_per_file names each file's user runs (None: by method); checks
    and check_seconds give the validate.<check>_s metrics."""
    tot = {}

    def add(key, v):
        tot[key] = tot.get(key, 0) + v

    run_t = {}
    jit_t = {}
    jit_evals = {}
    evals = {}
    cp_t = {}
    lazy = {}
    touched = lazy_evals = 0
    table_bytes = prefix_bytes = dataset_bytes = 0
    for sf, labels in zip(files, labels_per_file):
        for i in sf.outermost(ROOT):
            add("cli.self", sf.self_time[i])
        for key in ("data.parse_libsvm", "data.dataset_hash", "bench_data.gen",
                    "objectives.smoothness", "objectives.full_pass", "schedules.sample",
                    "diag.duality_gap", "diag.enum_stats", "diag.write_trace", "vecio.write"):
            for i in sf.outermost(key):
                add(key + ".s", sf.dur[i])
                add(key + ".n", 1)
        for i in sf.outermost("data.parse_libsvm"):
            add("data.parse_libsvm.nnz", sf.results[i]["nnz"])
        for i in sf.outermost("bench_data.load_dataset"):
            dataset_bytes = max(dataset_bytes, sf.results[i]["bytes"])
        cache_hits = {sf.parent[j] for j in sf.outermost("vecio.read")}
        for i in sf.outermost(REF):
            add("ref.warm" if i in cache_hits else "ref.cold", sf.dur[i])
        for i, res in sf.results.items():
            if sf.name[i] == RUN:
                table_bytes = max(table_bytes, res["table_bytes"])
                prefix_bytes = max(prefix_bytes, res["prefix_bytes"])
                if res["lazy"]:
                    touched += res["touched"]
                    lazy_evals += res["evals"]
        for i, label, j, cp in run_spans(sf, labels):
            res = sf.results[i]
            run_t[label] = run_t.get(label, 0.0) + sf.dur[i]
            evals[label] = evals.get(label, 0) + res["evals"]
            cp_t[label] = cp_t.get(label, 0.0) + cp
            lazy[label] = lazy.get(label, False) or res["lazy"]
            if j is not None:
                jit_t[label] = jit_t.get(label, 0.0) + sf.dur[j]
                jit_evals[label] = jit_evals.get(label, 0) + res["evals"]

    def per(key, scale):
        n = tot.get(key + ".n", 0)
        return tot.get(key + ".s", 0.0) / n * scale if n else 0.0

    nnz = tot.get("data.parse_libsvm.nnz", 0)
    m = {
        "cli.self_s": (tot.get("cli.self", 0.0), "s"),
        "data.parse_us_per_nnz": (tot.get("data.parse_libsvm.s", 0.0) / nnz * 1e6 if nnz else 0.0, "us"),
        "data.dataset_mb": (dataset_bytes / MB, "MB"),
        "data.hash_s": (tot.get("data.dataset_hash.s", 0.0), "s"),
        "data.hash_calls": (tot.get("data.dataset_hash.n", 0), "count"),
        "bench_data.gen_s": (tot.get("bench_data.gen.s", 0.0), "s"),
        "objectives.smoothness_s": (tot.get("objectives.smoothness.s", 0.0), "s"),
        "objectives.smoothness_calls": (tot.get("objectives.smoothness.n", 0), "count"),
        "objectives.full_pass_ms": (per("objectives.full_pass", 1e3), "ms"),
        "objectives.full_pass_calls": (tot.get("objectives.full_pass.n", 0), "count"),
        "schedules.sample_us": (per("schedules.sample", 1e6), "us"),
        "schedules.sample_calls": (tot.get("schedules.sample.n", 0), "count"),
        "optimizers.table_mb": (table_bytes / MB, "MB"),
        "sparse_jit.touched_per_eval": (touched / lazy_evals if lazy_evals else 0.0, "count"),
        "sparse_jit.prefix_mb": (prefix_bytes / MB, "MB"),
        "diag.solve_reference_cold_s": (tot.get("ref.cold", 0.0), "s"),
        "diag.solve_reference_warm_s": (tot.get("ref.warm", 0.0), "s"),
        "vecio.write_ms": (per("vecio.write", 1e3), "ms"),
        "diag.duality_gap_ms": (per("diag.duality_gap", 1e3), "ms"),
        "diag.duality_gap_calls": (tot.get("diag.duality_gap.n", 0), "count"),
        "diag.enum_stats_s": (tot.get("diag.enum_stats.s", 0.0), "s"),
        "diag.write_trace_ms": (per("diag.write_trace", 1e3), "ms"),
    }
    for label in ALL_LABELS:
        e = evals.get(label, 0)
        m["optimizers.us_per_eval." + label] = (run_t.get(label, 0.0) / e * 1e6 if e else 0.0, "us")
        m["optimizers.evals." + label] = (e, "count")
        t = run_t.get(label, 0.0)
        m["optimizers.checkpoint_frac." + label] = (cp_t.get(label, 0.0) / t if t else 0.0, "1")
    for label in TABLE_LABELS:
        m["sparse_jit.lazy." + label] = (int(lazy.get(label, False)), "1")
    for label in LAZY_LABELS:
        e = jit_evals.get(label, 0)
        m["sparse_jit.us_per_eval." + label] = (jit_t[label] / e * 1e6 if e else 0.0, "us")
    for check in checks:
        m["validate.%s_s" % check] = (check_seconds.get(check, 0.0), "s")
    return m
