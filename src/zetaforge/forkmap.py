"""Independent calls run across the CPUs of the process's affinity mask.

`forkmap(fn, items, groups, weights)` is `[fn(*item) for item in items]`,
with the results in order and the exception a serial run raises.  The
items come in `groups`, which one process runs together and in order
(`batch` groups the entries of one expression, which share its parse and
normal form in the process that runs them).  The group indices wait in one
shared queue, heaviest first by `weights`; this process and a forked worker
per other CPU each take one group at a time until the queue is empty or
one of their own items raises, so the weights only order the work and no
process idles while another still has groups to take.  A worker sends its
results back over a pipe with marshal, so a result must be a value marshal
writes (`batch` sends each entry already rendered, a string, with its pass
bit).

The queue is an `os.memfd_create` file of fixed-width indices, opened again
by its /proc path.  The workers inherit that descriptor and with it one file
offset, which the kernel moves under a lock on each read of a file opened by
path (not on the memfd's own descriptor, where two readers can take one
index), so one read takes one index whatever the item count, and no process
waits for another to fill the queue.
"""

from __future__ import annotations

import marshal
import os

__all__ = ["forkmap"]

_INDEX_BYTES = 4  # one index of the queue, little-endian


def _worker_count() -> int:
    """The CPUs of this process's affinity mask; 1 where the platform has
    no mask, no fork or no memfd, or another thread is live (a forked child
    would hold only the calling thread)."""
    if not all(hasattr(os, name) for name in ("sched_getaffinity", "fork", "memfd_create")):
        return 1
    import threading  # here, not at the top: its import costs about 1 ms

    return 1 if threading.active_count() > 1 else len(os.sched_getaffinity(0))


def _write_all(fd: int, data: bytes) -> None:
    """Write all of `data` to `fd`: a write may stop short."""
    data = memoryview(data)
    while data:
        data = data[os.write(fd, data):]


def _queue(weights) -> int | None:
    """A read-only descriptor, at its start, of a memfd holding every group
    index once, heaviest first by `weights` (ties in index order); None
    when none can be made."""
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    try:
        fd = os.memfd_create("forkmap")
        try:
            _write_all(fd, b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in order))
            return os.open(f"/proc/self/fd/{fd}", os.O_RDONLY)
        finally:
            os.close(fd)
    except OSError:
        return None


def _take(fn, items, groups, queue: int, results: dict) -> None:
    """Fill `results` with the items of the groups whose indices this
    process takes from `queue`, one group at a time and its items in order,
    until the queue is empty or an item raises."""
    while index := os.read(queue, _INDEX_BYTES):
        for i in groups[int.from_bytes(index, "little")]:
            try:
                results[i] = fn(*items[i])
            except Exception:
                return


def _fork_worker(fn, items, groups, queue: int):
    """(pid, read end of its pipe) of a forked worker that takes groups from
    `queue` and writes its `results` of `_take` down the pipe with marshal,
    exiting 0 only once all of it is written; None when none can start."""
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
            _take(fn, items, groups, queue, results)
            _write_all(write_fd, marshal.dumps(results))
            status = 0
        finally:
            os._exit(status)  # no exit handlers, no flush of inherited buffers
    os.close(write_fd)
    # unbuffered: a buffered reader's code would be paged in for this alone
    return pid, open(read_fd, "rb", buffering=0)


def _run_queue(fn, items, groups, weights, workers: int, results: dict) -> None:
    """Take groups from one queue here and in up to `workers` forked
    workers, filling `results` with every item that returned and was
    reported.  Every worker is reaped before this returns or raises, and
    killed first when it raises: a worker still tearing down when this
    process exits would be a process left running, so its exit is waited
    out here, though it comes about 1.8 ms after its results on two cores."""
    queue = _queue(weights)
    if queue is None:
        return
    forked = []
    try:
        for _ in range(workers):
            worker = _fork_worker(fn, items, groups, queue)
            if worker is not None:
                forked.append(worker)
        _take(fn, items, groups, queue, results)
        while forked:
            pid, pipe = forked[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            forked.pop(0)
            if status == 0:
                results.update(marshal.loads(data))
    except BaseException:
        import signal  # here, not at the top: its import costs about 1 ms

        for pid, _ in forked:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        for pid, pipe in forked:
            pipe.close()
            os.waitpid(pid, 0)


def forkmap(fn, items, groups, weights) -> list:
    """`[fn(*item) for item in items]` across the CPUs of the affinity mask.

    `groups` partitions the item indices into lists in increasing order, and
    `weights` weighs each group.  With more than one CPU (`_worker_count`)
    and group, the groups run from one shared queue (`_run_queue`).  Then,
    from the lowest index that raised, went unreported (its worker died or
    sent nothing) or was never taken, the items without a result run here
    one by one, so the exception raised is the one a serial run raises.
    With one CPU or one group, or when no queue can be made, that loop runs
    every item.
    """
    results = {}
    workers = min(_worker_count(), len(groups)) - 1
    if workers > 0:
        _run_queue(fn, items, groups, weights, workers, results)
    return [results[i] if i in results else fn(*item) for i, item in enumerate(items)]
