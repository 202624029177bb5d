"""Split independent work across the CPUs this process may run on.

WORKERS is the number of CPUs in the process's affinity mask (`taskset`
narrows it). Every parallel stage is a task run over `cuts(n, parts)`,
the contiguous slices of its rows, columns or elements, by `run_parts`
on the one process-wide POOL of WORKERS - 1 helper threads. The caller
runs part 0 and any part the pool has not started by the time it is
free, so it never waits on a part nobody runs. Tasks run NumPy kernels
that release the GIL and write disjoint slices of preallocated arrays.

Tasks made of many small NumPy calls hold the GIL for most of their time,
so two of them on two threads barely overlap. `run_forked` runs such
tasks in forked worker processes instead, one per CPU: `train-all`
trains every hold-out there, one index at a time per worker.

`gemm_parts` is the one gate of a GEMM and of the layer work on its
parts, and `matmul` splits a GEMM by output rows; `gemm_blocks` also
cuts the row blocks in which training.adam_step computes a weight
gradient. Each row of a @ b comes from that row of a and all of b, but
its bits depend on the BLAS kernel, which BLAS picks by the shape of the
whole call. OpenBLAS (0.3.31, AVX-512) takes small-matrix kernels, whose
roundings differ, for products up to M*N*K = 10**6; the head's, whenever
its rows x C <= 1,200. GEMM_PART_FLOPS keeps every cut part above them
and GEMM_BLOCK_FLOPS every gradient block, so these match the unsplit
np.matmul bit for bit; tests pin this at every shape the trainer issues
at the paper widths. An eval chunk is a whole forward pass over fewer
rows and can fall below them (the 84-row tail of 980 val rows), so eval
logits are pinned within 1e-12 whatever the chunking, and predictions
exactly. With OpenBLAS on AVX-512 the last columns of an output width
that is not a multiple of 8 round differently, so such a GEMM runs in
one part and its gradient in one block. Splits by columns were measured
to differ at some widths, so they are not used.

Elementwise work rides on the same parts: mlp runs a hidden layer's
bias, layer norm, ReLU and dropout on the rows its part of the GEMM
wrote. Work that reduces over rows (a column sum) splits by columns
instead; either way each output element is computed by the same
operations, in the same order, as on one thread.
"""
from __future__ import annotations

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


WORKERS = _cpus()
# Fewest flops worth a thread: a GEMM splits from 2**26 flops up. Smaller
# parts lose more to the hand-off than they gain, and much smaller ones
# reach BLAS paths whose roundings differ (measured at 2**20 flops).
GEMM_PART_FLOPS = 1 << 25
# Fewest flops of a row block that keeps the bits of the whole product:
# M*N*K = 2**21. With OpenBLAS 0.3.31 on AVX-512 the largest product seen
# to round otherwise had M*N*K = 786,432 (its small-matrix kernels, up to 10**6).
GEMM_BLOCK_FLOPS = 1 << 22


def _pool() -> ThreadPoolExecutor:
    """WORKERS - 1 helper threads: the caller of run_parts runs parts too."""
    return ThreadPoolExecutor(max(1, WORKERS - 1), thread_name_prefix="driftbench-part")


POOL = _pool()


def parts_for(work: int, per_part: int, limit: int) -> int:
    """How many parts to cut work into: at least per_part each, at most limit, WORKERS."""
    return max(1, min(WORKERS, limit, work // per_part))


def gemm_blocks(m: int, k: int, n: int, flops: int) -> int:
    """Row blocks of an (m, k) @ (k, n) product that each give the bits of the whole.

    At least `flops` a block, and two rows and two columns: a
    one-row product takes NumPy's matrix-vector path, whose roundings
    differ, and NumPy sums a one-column slice pairwise. An output width
    that is not a multiple of 8 is one block, as BLAS rounds the last
    n % 8 columns of a row-cut product differently.
    """
    return max(1, min(2 * m * k * n // flops, min(m, n) // 2 if n % 8 == 0 else 1))


def gemm_parts(m: int, k: int, n: int) -> int:
    """Row parts of an (m, k) @ (k, n) product, and of the layer work that rides on them:
    its gemm_blocks, at most WORKERS."""
    return min(WORKERS, gemm_blocks(m, k, n, GEMM_PART_FLOPS))


def cuts(n: int, parts: int) -> list[slice]:
    """range(n) cut into `parts` contiguous slices, as even as they go, in order."""
    return [slice(n * p // parts, n * (p + 1) // parts) for p in range(parts)]


def run_parts(task, parts: list[slice]) -> None:
    """Call task(p, parts[p]) for every part; return once every call has finished.

    One part is a plain call on the calling thread. Otherwise part 0 runs
    on the calling thread, and so does any other part the pool has not
    started by then. Once a part has raised, on the caller or in the pool,
    no other part starts, and the exception propagates once none is running.
    """
    if len(parts) == 1:  # no closure or futures: 1.6 us less a call, 10 calls a small step
        task(0, parts[0])
        return
    errors = []  # what a part raised; once it holds one, no part starts

    def run(p: int) -> None:
        if not errors:
            try:
                task(p, parts[p])
            except BaseException as exc:
                errors.append(exc)

    futures = [POOL.submit(run, p) for p in range(1, len(parts))]
    run(0)
    for p, future in enumerate(futures, start=1):
        if future.cancel():
            run(p)
    # Wait for the parts the pool started, so that none writes after this returns.
    wait([future for future in futures if not future.cancelled()])
    # A pool thread may hold run a moment longer: a part it ran until it drops the
    # work item, a cancelled one until it dequeues it. Without task, run holds no arrays.
    del task
    if errors:
        raise errors[0]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D operands into a new array, bitwise equal to np.matmul; large ones
    split by rows."""
    m, k = a.shape
    n = b.shape[1]
    out = np.empty((m, n), dtype=np.result_type(a, b))
    run_parts(lambda p, rows: np.matmul(a[rows], b, out=out[rows]), cuts(m, gemm_parts(m, k, n)))
    return out


def run_forked(task, n: int, done) -> None:
    """Call task(i) for every i in range(n) in min(WORKERS, n) forked processes.

    Call it from the main thread while no other thread runs: the workers
    are forked at once, after stdout and stderr are flushed, so they share
    the caller's memory copy-on-write and import nothing. The caller hands
    each worker one index at a time over a pipe and calls done(i, result)
    as each result comes back, in completion order. A worker runs its
    tasks on a thread of its own in one part (WORKERS is 1 there), writes
    nothing to the streams, and ends in os._exit, past the caller's atexit
    handlers, also once the caller is gone. Once a task has raised, no
    index is handed out, and the first exception is raised once every
    worker has ended and been reaped. An exception in the caller (done's,
    or ^C) kills the workers and propagates once they are reaped.
    """
    import multiprocessing
    from multiprocessing.connection import wait as ready

    context = multiprocessing.get_context("fork")
    sys.stdout.flush()
    sys.stderr.flush()
    conns, procs, errors = [], [], []
    try:
        for _ in range(min(WORKERS, n)):
            here, there = context.Pipe()
            conns.append(here)  # before the fork: the worker closes every caller's end
            proc = context.Process(target=_serve, args=(task, there, conns))
            proc.start()
            there.close()
            procs.append(proc)
        todo, busy = iter(range(n)), set()

        def hand_out(conn) -> None:
            index = None if errors else next(todo, None)
            conn.send(index)  # None: nothing left, the worker ends
            if index is not None:
                busy.add(conn)

        for conn in conns:
            hand_out(conn)
        while busy:
            for conn in ready(busy):
                busy.remove(conn)
                try:
                    index, ok, value = conn.recv()
                except EOFError:
                    errors.append(RuntimeError("a worker process ended before its task did"))
                    continue
                if ok:
                    done(index, value)
                else:
                    errors.append(value)
                hand_out(conn)
    except BaseException:
        for proc in procs:
            proc.kill()
        raise
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()
    if errors:
        raise errors[0]


def _serve(task, conn, callers) -> None:
    """A forked worker's main thread: serve the caller's indices on another thread, in one part."""
    import signal

    global WORKERS
    for caller in callers:  # the caller's ends: once it is gone, our recv reads the end
        caller.close()
    WORKERS = 1
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C reaches the caller, which kills us
    thread = threading.Thread(target=_serve_on, args=(task, conn), name="driftbench-worker")
    thread.start()
    thread.join()


def _serve_on(task, conn) -> None:
    """Send back (i, True, task(i)) or (i, False, exception) for each index until None."""
    try:
        for index in iter(conn.recv, None):
            try:
                reply = (index, True, task(index))
            except BaseException as exc:
                reply = (index, False, exc)
            conn.send(reply)
    except (EOFError, OSError):  # the caller is gone: its end of the pipe is closed
        pass
