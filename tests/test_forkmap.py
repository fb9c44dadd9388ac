"""forkmap: items taken one at a time from one shared queue, with the
results and the first error of a serial run."""

import os
import signal
import time

import pytest

from zetaforge.forkmap import forkmap

pytestmark = pytest.mark.skipif(
    not all(hasattr(os, name) for name in ("fork", "memfd_create", "sched_getaffinity")),
    reason="no fork, memfd or affinity mask",
)


def set_cpus(monkeypatch, count):
    """An affinity mask of `count` CPUs, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Log:
    """Lines `pid index` that every process appends to one file, one write
    each, so lines of different processes never interleave."""

    def __init__(self, path):
        self.path = path
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def add(self, i):
        os.write(self.fd, b"%d %d\n" % (os.getpid(), i))

    def entries(self):
        with open(self.path) as handle:
            return [tuple(map(int, line.split())) for line in handle]

    def wait_until(self, done, timeout=30):
        """Poll the entries until `done(entries)` holds; fail after `timeout` seconds."""
        deadline = time.monotonic() + timeout
        while not done(self.entries()):
            if time.monotonic() > deadline:
                pytest.fail("the worker never took its items")
            time.sleep(0.005)

    def close(self):
        os.close(self.fd)


@pytest.fixture
def log(tmp_path):
    log = Log(tmp_path / "taken.log")
    yield log
    log.close()


@pytest.mark.parametrize("cpus", [2, 8])
def test_more_items_than_a_pipe_holds_come_back_in_order_each_taken_once(monkeypatch, log, cpus):
    # 400 kB of queue and a worker's results in more than a 64 kB pipe
    # holds: no process waits on another, and no index is taken twice
    set_cpus(monkeypatch, cpus)
    count = 100_000

    def square(i):
        log.add(i)
        return i * i

    singletons = [[i] for i in range(count)]
    assert forkmap(square, [(i,) for i in range(count)], singletons, [i % 10 for i in range(count)]) == [
        i * i for i in range(count)
    ]
    taken = log.entries()
    assert sorted(i for _, i in taken) == list(range(count))
    assert len({pid for pid, _ in taken}) > 1
    assert_no_child_left()


def test_one_reader_takes_the_heaviest_item_first(monkeypatch, log):
    # a failing fork leaves the queue to this process, which shows its order
    def no_fork():
        raise OSError("fork refused")

    set_cpus(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", no_fork)
    out = forkmap(lambda i: log.add(i) or -i, [(i,) for i in range(6)], [[i] for i in range(6)], [3, 9, 1, 9, 5, 0])
    assert out == [0, -1, -2, -3, -4, -5]
    assert [i for _, i in log.entries()] == [1, 3, 4, 0, 2, 5]


@pytest.mark.parametrize("raising", [(8,), (5, 9)], ids=["late-in-a-worker", "in-both-processes"])
def test_the_serial_first_error_is_raised(monkeypatch, log, raising):
    # this process holds its first item until a worker has taken the lowest
    # raising item, late in the queue, and stopped there; with a second
    # raising item, this process takes and raises on it
    set_cpus(monkeypatch, 2)
    parent, held = os.getpid(), []

    def plain(i):
        if i in raising:
            raise ValueError(i)
        return i

    def item(i):
        if os.getpid() == parent and not held:
            held.append(i)
            log.wait_until(lambda taken: any(pid != parent and j == raising[0] for pid, j in taken))
        log.add(i)
        return plain(i)

    items = [(i,) for i in range(12)]
    with pytest.raises(ValueError) as serial:
        [plain(*item) for item in items]
    with pytest.raises(ValueError) as raised:
        forkmap(item, items, [[i] for i in range(12)], [1] * 12)
    assert raised.value.args == serial.value.args == (raising[0],)
    taken = log.entries()
    assert any(pid != parent and i == raising[0] for pid, i in taken)
    if len(raising) > 1:
        assert (parent, raising[1]) in taken
    assert_no_child_left()


def test_items_a_killed_worker_took_run_here(monkeypatch, log):
    # the worker dies after taking three items; they run here, in order
    set_cpus(monkeypatch, 2)
    parent, held, worker_took = os.getpid(), [], []

    def item(i):
        if os.getpid() == parent and not held:
            held.append(i)
            log.wait_until(lambda taken: sum(pid != parent for pid, _ in taken) == 3)
        log.add(i)
        if os.getpid() != parent:
            worker_took.append(i)
            if len(worker_took) == 3:
                os.kill(os.getpid(), signal.SIGKILL)
        return i + 100

    assert forkmap(item, [(i,) for i in range(10)], [[i] for i in range(10)], [1] * 10) == [i + 100 for i in range(10)]
    taken = log.entries()
    lost = [i for pid, i in taken if pid != parent]
    assert len(lost) == 3
    assert all((parent, i) in taken for i in lost)
    assert_no_child_left()


def test_a_group_runs_in_one_process_in_its_order(monkeypatch, log):
    # the groups interleave the items; each runs where it was taken, in order
    set_cpus(monkeypatch, 2)
    groups = [[0, 3, 6, 9], [1, 4, 7, 10], [2, 5, 8, 11]]

    def item(i):
        log.add(i)
        time.sleep(0.002)
        return -i

    assert forkmap(item, [(i,) for i in range(12)], groups, [3, 2, 1]) == [-i for i in range(12)]
    taken = log.entries()
    for group in groups:
        ran = [(pid, i) for pid, i in taken if i in group]
        assert [i for _, i in ran] == group and len({pid for pid, _ in ran}) == 1
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_serial_first_error_is_raised_across_groups(monkeypatch, log, cpus):
    # items 0, 2, 4 form the heavier group, which raises at 4; the other,
    # 1, 3, 5, raises at 3, which a serial run reaches first
    set_cpus(monkeypatch, cpus)

    def item(i):
        log.add(i)
        if i in (3, 4):
            raise ValueError(i)
        return i

    with pytest.raises(ValueError) as raised:
        forkmap(item, [(i,) for i in range(6)], [[0, 2, 4], [1, 3, 5]], [2, 1])
    assert raised.value.args == (3,)
    assert_no_child_left()
