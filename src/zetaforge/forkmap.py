"""Independent calls run across the CPUs of the process's affinity mask.

`forkmap(fn, items, weights)` is `[fn(*item) for item in items]`, with the
results in order and the exception a serial run raises.  The items are
split into one share per CPU, balanced by `weights`; this process runs the
first share and a forked worker each other one, sending its results back
over a pipe with marshal, so a result must be a value marshal writes (the
reports of `batch` are dicts of strings, integers, booleans and None).
"""

from __future__ import annotations

import marshal
import os
import threading

__all__ = ["forkmap"]


def _worker_count() -> int:
    """The CPUs of this process's affinity mask; 1 where the platform has
    no mask or no fork, or another thread is live (a forked child would
    hold only the calling thread)."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")) or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _shares(weights, count: int) -> list[list[int]]:
    """`count` shares of the item indices, each in order, balanced by
    `weights`: the heaviest item first, each to the lightest share so far.
    Empty shares are dropped, so there are at most as many as items."""
    loads, shares = [0] * count, [[] for _ in range(count)]
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += weights[i]
    return [sorted(share) for share in shares if share]


def _run_share(fn, items, share, results: dict) -> int:
    """Fill `results` with the items of `share`, in order, up to the first
    whose call raises: its index, or len(items) when none does."""
    for i in share:
        try:
            results[i] = fn(*items[i])
        except Exception:
            return i
    return len(items)


def _fork_share(fn, items, share):
    """(pid, read end of its pipe) of a forked worker that runs `share` and
    writes `(stop, results)` of `_run_share` down the pipe, exiting 0 only
    once all of it is written; None when none can start."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            results = {}
            stop = _run_share(fn, items, share, results)
            with open(write_fd, "wb", buffering=0) as pipe:
                data = memoryview(marshal.dumps((stop, results)))
                while data:  # a raw write may stop short
                    data = data[pipe.write(data):]
            status = 0
        finally:
            os._exit(status)  # no exit handlers, no flush of inherited buffers
    os.close(write_fd)
    # unbuffered: a buffered reader's code would be paged in for this alone
    return pid, open(read_fd, "rb", buffering=0)


def _run_shares(fn, items, shares, results: dict) -> int:
    """Run shares[0] here and every other share in a forked worker, filling
    `results`; the lowest index that raised or whose share sent nothing, or
    len(items).  Every worker is reaped before this returns or raises, and
    killed first when it raises."""
    first, workers = len(items), []
    try:
        for share in shares[1:]:
            worker = _fork_share(fn, items, share)
            if worker is None:
                first = min(first, share[0])
            else:
                workers.append((*worker, share))
        first = min(first, _run_share(fn, items, shares[0], results))
        while workers:
            pid, pipe, share = workers[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            workers.pop(0)
            if status == 0:
                stop, done = marshal.loads(data)
                results.update(done)
                first = min(first, stop)
            else:
                first = min(first, share[0])
    except BaseException:
        import signal  # here, not at the top: its import costs about 1 ms

        for pid, *_ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe, _ in workers:
            pipe.close()
            os.waitpid(pid, 0)
    return first


def forkmap(fn, items, weights) -> list:
    """`[fn(*item) for item in items]` across the CPUs of the affinity mask.

    The items are split into one share per CPU (`_worker_count`, `_shares`)
    and run by `_run_shares`.  From the lowest index that raised or went
    unreported on, the items without a result run here one by one, so the
    exception raised is the one a serial run raises; with one share, that
    is every item.
    """
    shares = _shares(weights, _worker_count())
    results = {}
    first = _run_shares(fn, items, shares, results) if len(shares) > 1 else 0
    for i in range(first, len(items)):
        if i not in results:
            results[i] = fn(*items[i])
    return [results[i] for i in range(len(items))]
