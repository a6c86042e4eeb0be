"""The validation suite on several CPUs: each check's independent units fan
out through vropt.fanout.in_order, and the verdicts stay the same."""

import os
import subprocess
import sys

from vropt import validate

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the checks that fan out and that run in about a second together; the
# benchmark's long runs are checked apart, on a small problem
FANNED = ("iterate_capture_2d", "smoothness_inequalities", "jit_equivalence",
          "scalar_table_equivalence", "sdca_certificates")


def _src_env(tmp_path):
    return dict(os.environ, PYTHONPATH=SRC, VROPT_CACHE=str(tmp_path / "cache"))


def _cpus(monkeypatch, n):
    # fanout.in_order forks min(units, CPUs) workers: pretend to n CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _log_pid(path, real):
    # wrap a function to append the calling process's pid to path: a forked
    # worker's calls are counted as well as this process's
    def wrapped(*a, **k):
        with open(path, "a") as fh:
            fh.write("%d\n" % os.getpid())
        return real(*a, **k)
    return wrapped


def _pids(path):
    return [int(line) for line in path.read_text().split()] if path.exists() else []


# the FANNED check lines in a fresh process, pinned to one CPU or not, and
# how many processes ran the runs. sdca_certificates reads a stand-in for the
# benchmark's long sdca run, so only its own units run
LINES = """
import os, sys
from types import SimpleNamespace
import numpy as np
from vropt import validate
from vropt.diag import TraceRecord
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
validate._MEMO["bench"] = (None, None, np.zeros(3), 0.0)
validate._MEMO["sdca_bench"] = SimpleNamespace(
    records=[TraceRecord(epoch=100.0, grad_evals=0, f=0.0, gap=0.0)], aux={"min_dual_gain": 0.0}, x=np.zeros(3))
real = validate.run
def run(config, obj):
    with open(sys.argv[2], "a") as fh:
        fh.write("%d\\n" % os.getpid())
    return real(config, obj)
validate.run = run
for name in sys.argv[3:]:
    print(validate.run_checks(only=name)[0].line())
"""


def test_fanned_checks_print_the_same_lines_pinned_to_one_cpu(tmp_path):
    # the setting acts only on the child it is made in; the pinned child runs
    # every unit itself, the other one fans out where it has CPUs to
    out = {}
    for case in ("pinned", "free"):
        pids = tmp_path / case
        proc = subprocess.run([sys.executable, "-c", LINES, case, str(pids), *FANNED],
                              capture_output=True, text=True, env=_src_env(tmp_path), timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        out[case] = proc.stdout
        fanned = case == "free" and len(os.sched_getaffinity(0)) > 1
        assert (len(set(_pids(pids))) > 1) == fanned
    assert len(out["pinned"].splitlines()) == len(FANNED)
    assert all(line.startswith("PASS") for line in out["pinned"].splitlines()), out["pinned"]
    assert out["pinned"] == out["free"]


# two cheap checks at two CPUs, with a run that kills its worker at seed 3;
# then whether this process has a child left, live or unreaped
DIES = """
import os
from vropt import validate
os.sched_getaffinity = lambda pid: {0, 1}
caller = os.getpid()
real = validate.run
def run(config, obj):
    if os.getpid() != caller and config.seed == 3:
        os._exit(9)
    return real(config, obj)
validate.run = run
validate.CHECKS = {name: validate.CHECKS[name] for name in ("jit_equivalence", "scalar_table_equivalence")}
for res in validate.run_checks():
    print(res.line())
try:
    os.waitpid(-1, os.WNOHANG)
    print("child left")
except ChildProcessError:
    print("no child")
"""


def test_a_dead_worker_fails_its_check_and_leaves_no_process(tmp_path):
    proc = subprocess.run([sys.executable, "-c", DIES], capture_output=True, text=True,
                          env=_src_env(tmp_path), timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    jit, scalar, left = proc.stdout.splitlines()
    assert jit.startswith("FAIL jit_equivalence ") and "observed=raised" in jit and "WorkerDied: 3" in jit
    assert scalar.startswith("PASS scalar_table_equivalence ")
    assert left == "no child"
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]


def test_long_runs_fanned_out_match_serial(tmp_path, monkeypatch):
    # the benchmark's long runs, on the toy problem in place of the mushrooms
    # one. A full run computes all six in the first check that reads them
    # (sdca first, then the five comparison runs): one CPU in this process,
    # two in forked workers, with the same results in _MEMO under the same
    # keys and each run's wall clocked where it ran. Run alone, a check
    # computes only the runs it reads
    toy = validate._toy()
    monkeypatch.setattr(validate, "CHECKS", {"benchmark_ordering": validate.check_benchmark_ordering})
    seen = {}
    real = validate.run
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        pids = tmp_path / ("pids%d" % cpus)
        monkeypatch.setattr(validate, "run", _log_pid(pids, real))
        monkeypatch.setattr(validate, "_MEMO", {"bench": toy})
        validate.run_checks()
        runs, walls = validate._MEMO["bench_runs"]
        sdca = validate._MEMO["sdca_bench"]
        assert list(runs) == list(walls) == ["sag", "svrg", "saga", "sgd", "gd"]
        assert all(0 < w < 60 for w in walls.values())
        assert len(_pids(pids)) == 6 and (os.getpid() in _pids(pids)) == (cpus == 1)
        seen[cpus] = [(r.x.tobytes(), [(rec.f, rec.subopt, rec.var_est, rec.gap) for rec in r.records])
                      for r in (sdca, *runs.values())]
    assert seen[1] == seen[2]
    monkeypatch.setattr(validate, "_MEMO", {"bench": toy})
    validate.run_checks(only="benchmark_ordering")
    assert "bench_runs" in validate._MEMO and "sdca_bench" not in validate._MEMO
