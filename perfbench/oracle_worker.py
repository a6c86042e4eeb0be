"""oracle_suite op: one cycle of validate.CHECKS in a fresh process.

    python3 perfbench/oracle_worker.py INPUTS_DIR TRACE SPANS.npz OUT.json

Calls every check listed in INPUTS_DIR/inputs.json once, as a fresh
`vropt validate` would, so every cycle pays the same first-call costs.
With TRACE=1 the tracing wrappers are installed and the spans are written
to SPANS.npz. Untraced cycles wrap only validate.run, to read grad_evals and
the solver time (the last checkpoint's time_s) from each RunResult; no clock
is read.
"""

import hashlib
import json
import os
import sys
import time
import traceback

import tracing
from vropt import validate


def run_cycle(checks, runs):
    seconds = {}
    lines = []
    passed = 0
    for name in checks:
        t0 = time.perf_counter()
        try:
            res = validate.CHECKS[name]()
        except Exception:  # a check that raises is a failed op, not a dead run
            lines.append("FAIL %s raised: %s" % (name, traceback.format_exc().strip()))
        else:
            lines.append(res.line())
            passed += bool(res.passed)
        seconds[name] = time.perf_counter() - t0
    return {
        "validate_s": sum(seconds.values()),
        "check_seconds": seconds,
        "lines": lines,
        "attempted": len(checks),
        "failed": len(checks) - passed,
        "evals": sum(e for e, _ in runs),
        "solver_s": sum(t for _, t in runs),
        "digests": {"checks": hashlib.sha256("\n".join(lines).encode()).hexdigest()},
    }


def main():
    indir, traced, spans, out = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4]
    with open(os.path.join(indir, "inputs.json")) as fh:
        checks = json.load(fh)["checks"]
    runs = []
    tracer = tracing.Tracer(0)
    if traced:
        tracer.install()
    else:
        solver = validate.run

        def counted(*args, **kwargs):
            res = solver(*args, **kwargs)
            runs.append((res.grad_evals, res.records[-1].time_s))
            return res

        validate.run = counted
    cycle = run_cycle(checks, runs)
    if traced:
        tracer.dump(spans)
    with open(out, "w") as fh:
        json.dump(cycle, fh)


if __name__ == "__main__":
    main()
