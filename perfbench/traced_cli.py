"""Run one `vropt` command with span tracing on, then write its spans.

    python3 perfbench/traced_cli.py SPANS.npz OP_ID ARGS...

ARGS are exactly what `python3 -m vropt.cli` would get; the exit code is the
CLI's own.
"""

import sys

import tracing
from vropt import cli


def main():
    path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer(op)
    tracer.install()
    code = tracer.call(tracing.ROOT, cli.main, argv)
    tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
