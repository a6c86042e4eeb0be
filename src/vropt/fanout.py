"""Map a function over indices on forked worker processes, results in order.

`vropt compare` runs its grid through in_order, and `vropt validate` each
check's units; both import this module only then: where Python writes no
bytecode, every command compiles the modules it imports, and the memory
that costs stays with the process.
"""

import contextlib
import os
import signal
import threading


class WorkerDied(ChildProcessError):
    """A worker process died before it answered; args[0] is the index it ran."""


def in_order(fn, count):
    """Yield fn(0), ..., fn(count - 1) in index order; what fn(i) raises
    comes out at index i. With CPUs to spare in this process's affinity
    mask, the fork start method and no second thread running, forked worker
    processes, min(count, CPUs) of them, compute the results, each taking
    the next index as it comes free. They fork at the first next(), so they
    inherit all the caller built before it; only indices, results and
    exceptions are pickled. Otherwise this is map(fn, range(count)). A
    worker that dies is a WorkerDied carrying the index it ran. The workers
    are ended and reaped when the iterator finishes, raises or is closed."""
    width = min(count, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1)
    if width > 1 and threading.active_count() == 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            yield from _forked(fn, count, multiprocessing.get_context("fork"), width)
            return
    yield from map(fn, range(count))


def _forked(fn, count, ctx, width):
    """in_order's worker path; see there."""
    from multiprocessing.connection import wait

    todo = iter(range(width, count))
    workers, ends, running, done = [], [], {}, {}  # running: a worker's pipe end -> the index it runs
    try:
        for i in range(width):
            end, child_end = ctx.Pipe()
            ends.append(end)
            worker = ctx.Process(target=_serve, args=(fn, child_end, ends), daemon=True)
            worker.start()
            workers.append(worker)
            child_end.close()
            end.send(i)
            running[end] = i
        for i in range(count):
            while i not in done:
                for end in wait(list(running)):
                    j = running.pop(end)
                    try:
                        done[j] = end.recv()
                    except (EOFError, OSError):
                        raise WorkerDied(j) from None
                    k = next(todo, None)
                    if k is not None:
                        running[end] = k
                        with contextlib.suppress(OSError):  # a worker dead by now shows as EOF above
                            end.send(k)
            ok, value = done.pop(i)
            if not ok:
                raise value
            yield value
    finally:
        for worker in workers:
            worker.terminate()
        for worker in workers:
            worker.join()
        for end in ends:
            end.close()


def _serve(fn, conn, parent_ends):
    """A worker: answer each index i the parent sends with (True, fn(i)),
    or (False, e) for the exception e it raised, until the parent closes its
    end or is gone. Ctrl-C is left to the parent, which ends the workers."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in parent_ends:  # inherited through fork; held open here, they would hide the parent's exit
        end.close()
    with contextlib.suppress(EOFError, ConnectionError):  # the parent is gone: exit quietly
        while True:
            i = conn.recv()
            try:
                out = True, fn(i)
            except Exception as e:
                out = False, e
            conn.send(out)
