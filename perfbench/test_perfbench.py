"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest perfbench/test_perfbench.py

The determinism test runs each workload twice with the same seed, traced
(so every run has an untraced and a traced cycle), and takes a few minutes.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from vropt.data import parse_libsvm  # noqa: E402


def test_sparse_generator_shape_and_determinism():
    text, nnz = inputs.sparse_libsvm(3, n=400, d=900)
    assert inputs.sparse_libsvm(3, n=400, d=900) == (text, nnz)
    data = parse_libsvm(text)
    assert (data.n, data.d, int(data.indptr[-1])) == (400, 900, nnz)
    assert set(np.unique(data.labels)) == {-1.0, 1.0}


def test_trace_digest_ignores_only_time(tmp_path):
    head = "# method = sag\nepoch,grad_evals,f,subopt,grad_norm,var_est,gap,time_s\n"
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    a.write_text(head + "0,0,0.5,,0.1,,,0.25\n1,10,0.25,,0.05,,,1.5\n")
    b.write_text(head + "0,0,0.5,,0.1,,,\n1,10,0.25,,0.05,,,\n")
    c.write_text(head + "0,0,0.5,,0.1,,,\n1,10,0.26,,0.05,,,\n")
    da, first, last = run.read_trace(str(a))
    assert da == run.read_trace(str(b))[0] != run.read_trace(str(c))[0]
    assert first == ["0", "0", "0.5", "", "0.1", "", "", "0.25"]
    assert last == ["1", "10", "0.25", "", "0.05", "", "", "1.5"]


def test_self_time_and_outermost(tmp_path):
    tracer = tracing.Tracer(0)
    leaf = tracer.wrap(lambda: None, "leaf")
    inner = tracer.wrap(lambda: [leaf() for _ in range(3)], "leaf")
    tracer.call("root", lambda: (inner(), leaf()))
    tracer.dump(str(tmp_path / "spans.npz"))
    sf = tracing.SpanFile(str(tmp_path / "spans.npz"))
    assert sf.name == ["root", "leaf", "leaf", "leaf", "leaf", "leaf"]
    assert sf.outermost("leaf") == [1, 5]
    covered = sf.dur[1] + sf.dur[5]
    assert sf.self_time[0] == pytest.approx(sf.dur[0] - covered, abs=1e-12)


def _traced_run(workload, seed):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    with open(os.path.join(ROOT, ".perfbench", "results",
                           "%s-seed%d-trace1.json" % (workload, seed))) as fh:
        return result, json.load(fh)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_outputs_and_counts(workload):
    first, rec1 = _traced_run(workload, 5)
    second, rec2 = _traced_run(workload, 5)
    assert first["correct"] and second["correct"]
    assert rec1["digests"] and rec1["digests"] == rec2["digests"]
    counts = {k for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
