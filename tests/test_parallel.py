"""Row-split GEMMs and the part runner: bitwise equal to one thread.
The forked-worker dispatcher: every worker reaped, every task run once."""
import multiprocessing
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import note_stops, record_parts
from driftbench import parallel

I, H1, H2 = 256, 4096, 512  # the paper widths the trainer runs at


def train_and_eval_gemms(rows, rng):
    """(a, b) of every GEMM a step of `rows` rows issues, as mlp passes them."""
    w1, w2 = rng.standard_normal((I, H1)), rng.standard_normal((H1, H2))
    x, d1 = rng.standard_normal((rows, I)), rng.standard_normal((rows, H1))
    dz1, dz2 = rng.standard_normal((rows, H1)), rng.standard_normal((rows, H2))
    d1[rng.random(d1.shape) < 0.9] = 0.0  # ReLU and dropout zeros
    return {"x@w1": (x, w1), "d1@w2": (d1, w2), "d1.T@dz2": (d1.T, dz2),
            "dz2@w2.T": (dz2, w2.T), "x.T@dz1": (x.T, dz1)}


# train steps: B=128 and the 20-row tail of 3,220 train rows; eval: EVAL_BATCH
# and the tails of the 980 val and 600 test rows, forward GEMMs only
SHAPES = [(128, None), (20, None), (512, ("x@w1", "d1@w2")),
          (468, ("x@w1", "d1@w2")), (88, ("x@w1", "d1@w2"))]


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("rows,names", SHAPES)
def test_row_split_matmul_is_bitwise_np_matmul(monkeypatch, parts, rows, names):
    rng = np.random.default_rng(rows)
    monkeypatch.setattr(parallel, "WORKERS", parts)
    monkeypatch.setattr(parallel, "GEMM_PART_FLOPS", 1)  # split whatever the size
    calls = record_parts(monkeypatch)
    for name, (a, b) in train_and_eval_gemms(rows, rng).items():
        if names and name not in names:
            continue
        want = np.matmul(a, b)
        got = parallel.matmul(a, b)
        assert calls[-1] == parts, name
        assert got.dtype == want.dtype and np.array_equal(got, want), (rows, name)
        out = np.full_like(want, np.nan)
        assert parallel.matmul(a, b, out=out) is out
        assert np.array_equal(out, want), (rows, name)


def test_matmul_splits_from_the_flop_gate_and_keeps_two_rows_a_part(monkeypatch):
    monkeypatch.setattr(parallel, "WORKERS", 8)
    calls = record_parts(monkeypatch)
    rng = np.random.default_rng(0)
    gemms = train_and_eval_gemms(20, rng)
    parallel.matmul(*gemms["x@w1"])  # 2*20*256*4096 flops: under 2**26, one part
    assert calls == [1]
    parallel.matmul(*gemms["d1@w2"])  # 2*20*4096*512 flops: 2.5 parts' worth
    parallel.matmul(rng.standard_normal((5, 4096)), rng.standard_normal((4096, 4096)))
    assert calls == [1, 2, 2]  # the last has flops for 8 parts but rows for 2
    # flops for 8 parts, but BLAS rounds the last 500 % 8 columns of a row cut differently
    a, b = rng.standard_normal((128, 4096)), rng.standard_normal((4096, 500))
    assert np.array_equal(parallel.matmul(a, b), np.matmul(a, b))
    assert calls == [1, 2, 2, 1]


def test_run_parts_runs_parts_the_pool_has_not_started_on_the_caller(monkeypatch):
    monkeypatch.setattr(parallel, "WORKERS", 4)
    release, started = threading.Event(), threading.Event()

    def hold():
        started.set()
        release.wait(30)

    blockers = [parallel.POOL.submit(hold) for _ in range(parallel.POOL._max_workers)]
    try:
        assert started.wait(30)
        ran_on = {}
        parallel.run_parts(lambda k, part: ran_on.setdefault(k, threading.get_ident()),
                           parallel.cuts(4, 4))
        assert ran_on == dict.fromkeys(range(4), threading.get_ident())
        assert not any(blocker.done() for blocker in blockers)  # did not wait for them
    finally:
        release.set()
        for blocker in blockers:
            blocker.result(timeout=30)


def test_run_parts_raises_only_once_no_part_is_running(monkeypatch):
    monkeypatch.setattr(parallel, "WORKERS", 2)
    started, finished = threading.Event(), []

    def task(k, part):
        if k == 0:
            assert started.wait(30)  # part 1 is running on the pool
            raise RuntimeError("part 0 failed")
        started.set()
        time.sleep(0.05)
        finished.append(k)

    with pytest.raises(RuntimeError, match="part 0 failed"):
        parallel.run_parts(task, parallel.cuts(2, 2))
    assert finished == [1]


def test_a_part_that_fails_in_the_pool_stops_every_part_not_yet_started(monkeypatch):
    # one pool thread: part 1 runs there while parts 2 and 3 queue behind it
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(parallel, "POOL", pool)
    started, failing, ran = threading.Event(), threading.Event(), []

    def task(k, part):
        ran.append(k)
        if k == 0:
            started.set()
            assert failing.wait(30)
            # the queue is in order: the pool thread takes this once it has
            # dequeued parts 2 and 3, after part 1 failed
            pool.submit(lambda: None).result(timeout=30)
        elif k == 1:
            assert started.wait(30)
            failing.set()
            raise RuntimeError("part 1 failed")

    try:
        with pytest.raises(RuntimeError, match="part 1 failed"):
            parallel.run_parts(task, parallel.cuts(4, 4))
    finally:
        pool.shutdown()
    assert sorted(ran) == [0, 1]


def test_run_parts_runs_each_part_at_most_once_and_returns_after_all(monkeypatch,
                                                                      fast_switching):
    # more pool threads than this host has CPUs, and 16 parts a call
    pool = ThreadPoolExecutor(4)
    monkeypatch.setattr(parallel, "POOL", pool)
    lock, running, ran = threading.Lock(), [0], []

    def task(k, part, fail):
        with lock:
            running[0] += 1
        ran.append(k)
        time.sleep(0.001)
        with lock:
            running[0] -= 1
        if k == fail:
            raise RuntimeError(f"part {k} failed")

    try:
        for fail in [None, 0, 1, 7, 15] * 4:
            ran.clear()
            if fail is None:
                parallel.run_parts(lambda k, part: task(k, part, fail), parallel.cuts(16, 16))
                assert sorted(ran) == list(range(16))
            else:
                with pytest.raises(RuntimeError, match=f"part {fail} failed"):
                    parallel.run_parts(lambda k, part: task(k, part, fail),
                                       parallel.cuts(16, 16))
                assert fail in ran and len(set(ran)) == len(ran)
            assert running == [0]
    finally:
        pool.shutdown()


def test_one_part_is_a_plain_call_on_the_caller(monkeypatch):
    def refuse(*args):
        raise AssertionError("one part went to the pool")

    monkeypatch.setattr(parallel.POOL, "submit", refuse)
    ran = []
    parallel.run_parts(lambda k, part: ran.append((k, part, threading.get_ident())),
                       parallel.cuts(5, 1))
    assert ran == [(0, slice(0, 5), threading.get_ident())]

    def fail(k, part):
        raise RuntimeError("the one part failed")

    with pytest.raises(RuntimeError, match="the one part failed"):
        parallel.run_parts(fail, parallel.cuts(5, 1))


def test_workers_follow_the_affinity_mask():
    assert parallel.WORKERS == len(os.sched_getaffinity(0))
    assert parallel.POOL._max_workers == max(1, parallel.WORKERS - 1)


def test_a_single_caller_keeps_at_most_workers_minus_one_helpers(monkeypatch, fast_switching):
    # a helper counts itself idle only after it has set its future's result,
    # so a caller's next submit often finds none idle: a pool of WORKERS
    # threads then starts a second helper, which one caller never needs
    monkeypatch.setattr(parallel, "WORKERS", 2)
    pool = parallel._pool()  # built as POOL is, at this WORKERS
    monkeypatch.setattr(parallel, "POOL", pool)
    before = set(threading.enumerate())
    try:
        for _ in range(500):
            parallel.run_parts(lambda k, part: None, parallel.cuts(2, 2))
        helpers = [thread for thread in threading.enumerate() if thread not in before
                   and thread.name.startswith("driftbench-part")]
    finally:
        pool.shutdown()
    assert len(helpers) == 1


def forked_run(tmp_path, n, workers, fail=None):
    """run_forked over n tasks that log "index pid" lines; returns (results, log lines)."""
    log = tmp_path / "calls.log"
    log.write_text("")

    def task(index):
        with open(log, "a") as fh:  # one short append per call
            fh.write(f"{index} {os.getpid()}\n")
        if index == fail:
            raise RuntimeError(f"task {index} failed")
        return index * index

    results = {}
    parallel.run_forked(task, n, workers, results.__setitem__)
    return results, log.read_text().splitlines()


def assert_reaped(lines):
    """No worker that logged a line is still running or unreaped, and none is this process."""
    pids = {int(line.split()[1]) for line in lines}
    assert os.getpid() not in pids
    for pid in pids:  # before active_children(), which would reap them itself
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n, workers", [(5, 2), (2, 3), (7, 3)])
def test_run_forked_runs_each_task_once_and_reaps_every_worker(tmp_path, n, workers):
    results, lines = forked_run(tmp_path, n, workers)
    assert results == {i: i * i for i in range(n)}
    assert sorted(int(line.split()[0]) for line in lines) == list(range(n))
    assert len({line.split()[1] for line in lines}) <= min(n, workers)
    assert_reaped(lines)


@pytest.mark.parametrize("fail", [0, 1, 4])
def test_run_forked_raises_a_workers_error_after_reaping_every_worker(tmp_path, fail):
    with pytest.raises(RuntimeError, match=f"^task {fail} failed$"):
        forked_run(tmp_path, 5, 2, fail=fail)
    lines = (tmp_path / "calls.log").read_text().splitlines()
    started = [int(line.split()[0]) for line in lines]
    assert fail in started and len(set(started)) == len(started)
    assert_reaped(lines)
    results, lines = forked_run(tmp_path, 3, 2)  # the dispatcher works again after a failure
    assert results == {0: 0, 1: 1, 2: 4}
    assert_reaped(lines)


def test_run_forked_stops_handing_out_after_a_failure(tmp_path, monkeypatch):
    # task 1 fails while task 0 runs; task 0 ends only once the caller has
    # taken in the failure and told task 1's worker to stop, and then the
    # caller starts nothing more
    context = multiprocessing.get_context("fork")
    started, stopped = context.Event(), context.Event()
    note_stops(monkeypatch, stopped)
    log = tmp_path / "calls.log"
    log.write_text("")

    def task(index):
        with open(log, "a") as fh:
            fh.write(f"{index}\n")
        if index == 1:
            assert started.wait(30)
            raise RuntimeError("task 1 failed")
        if index == 0:
            started.set()
            assert stopped.wait(30)
        return index

    done = []
    with pytest.raises(RuntimeError, match="^task 1 failed$"):
        parallel.run_forked(task, 4, 2, lambda i, value: done.append(i))
    assert done == [0]
    assert sorted(log.read_text().split()) == ["0", "1"]
    assert multiprocessing.active_children() == []


def test_run_forked_workers_train_off_their_main_thread_in_one_part(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "WORKERS", 4)

    def task(index):
        return (os.getpid(), threading.current_thread() is threading.main_thread(),
                parallel.WORKERS, threading.active_count())

    results = {}
    parallel.run_forked(task, 4, 2, results.__setitem__)
    assert parallel.WORKERS == 4
    assert sorted(results) == [0, 1, 2, 3]
    for pid, on_main, workers, threads in results.values():
        assert pid != os.getpid()
        assert (on_main, workers, threads) == (False, 1, 2)  # the main thread waits


def test_run_forked_lone_worker_keeps_workers_and_splits_on_a_pool_of_its_own(monkeypatch):
    # the executor a worker inherits counts the caller's threads as its own,
    # and they do not run there: on it, parts would wait for the caller alone
    monkeypatch.setattr(parallel, "WORKERS", 3)
    pool = parallel.POOL

    def task(index):
        together = threading.Barrier(3, timeout=10)  # breaks unless all three parts run at once
        parallel.run_parts(lambda k, part: together.wait(), parallel.cuts(3, 3))
        return parallel.WORKERS, parallel.POOL is not pool

    results = {}
    parallel.run_forked(task, 2, 1, results.__setitem__)
    assert results == {0: (3, True), 1: (3, True)}
    assert parallel.POOL is pool and parallel.WORKERS == 3


def test_run_forked_reports_a_worker_that_dies_and_kills_workers_when_the_caller_fails():
    def task(index):
        if index == 1:
            os._exit(3)  # no reply: the caller reads the end of the pipe
        return index

    with pytest.raises(RuntimeError, match="^a worker process ended before its task did$"):
        parallel.run_forked(task, 2, 2, lambda i, value: None)
    assert multiprocessing.active_children() == []

    def refuse(index, value):
        raise ValueError(f"result {index} refused")

    start = time.perf_counter()
    with pytest.raises(ValueError, match="^result 0 refused$"):
        parallel.run_forked(lambda i: i if i == 0 else time.sleep(60), 2, 2, refuse)
    assert time.perf_counter() - start < 30  # the sleeping worker was killed, not awaited
    assert multiprocessing.active_children() == []
