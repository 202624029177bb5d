"""Row-split GEMMs and the part runner: bitwise equal to one thread."""
import os
import threading
import time

import numpy as np
import pytest

from conftest import record_parts
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

    blockers = [parallel._POOL.submit(hold) for _ in range(parallel._POOL._max_workers)]
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


def test_one_part_is_a_plain_call_on_the_caller(monkeypatch):
    def refuse(*args):
        raise AssertionError("one part went to the pool")

    monkeypatch.setattr(parallel._POOL, "submit", refuse)
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

