"""Split independent work across the CPUs this process may run on.

WORKERS is the number of CPUs in the process's affinity mask (`taskset`
narrows it). `run_parts` calls a task once per part: the caller runs part
0 itself and a process-wide pool of WORKERS - 1 threads takes the others.
A part the pool has not started by the time the caller is free runs on
the caller too, so a busy pool (say, shared by concurrent hold-outs)
never leaves a caller waiting idle. Tasks run NumPy kernels that release
the GIL and write disjoint slices of preallocated arrays.

`matmul` splits a GEMM by output rows. Each row of a @ b comes from that
row of a and all of b, so where BLAS runs it through the same kernel the
bits match the unsplit np.matmul; a test pins this at every shape the
trainer issues at the paper widths. With OpenBLAS on AVX-512 they do not
where the output width is not a multiple of 8: the last columns round
differently. Splits by columns were measured to differ at some widths,
so they are not used.

Elementwise work rides on the same parts: mlp runs a hidden layer's
bias, layer norm, ReLU and dropout on the rows its part of the GEMM
wrote, and `split_draws` lets those parts draw the dropout doubles of
one stream, each from where its rows start. Work that reduces over rows
(a column sum) splits by columns instead; either way each output element
is computed by the same operations, in the same order, as on one thread.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

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
_POOL = ThreadPoolExecutor(max_workers=max(1, WORKERS - 1),
                           thread_name_prefix="driftbench-part")


def parts_for(work: int, per_part: int, limit: int) -> int:
    """How many parts to cut work into: at least per_part each, at most limit, WORKERS."""
    return max(1, min(WORKERS, limit, work // per_part))


def run_parts(task, n_parts: int) -> None:
    """Call task(0), ..., task(n_parts - 1); return once every call has finished.

    Part 0 runs on the calling thread, and so does any other part the pool
    has not started by then. After an exception the parts not yet started
    are dropped, and it propagates once no part is running any more.
    """
    futures = [_POOL.submit(task, k) for k in range(1, n_parts)]
    try:
        task(0)
        for k, future in enumerate(futures, start=1):
            if future.cancel():
                task(k)
    finally:
        # Wait for the parts the pool started, after an error too, so that
        # none of them still writes once this returns.
        started = [future for future in futures if not future.cancel()]
        for future in started:
            future.exception()
    for future in started:
        future.result()


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for 2-D operands, bitwise equal to np.matmul; large ones split by rows.

    Every part gets at least two rows, because a one-row product takes
    NumPy's matrix-vector path, whose roundings differ.
    """
    m, k = a.shape
    n = b.shape[1]
    parts = parts_for(2 * m * k * n, GEMM_PART_FLOPS, m // 2)
    if parts == 1:  # the part machinery costs a small model's step about 2%
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty((m, n), dtype=np.result_type(a, b))
    bounds = [m * p // parts for p in range(parts + 1)]

    def part(p: int) -> None:
        lo, hi = bounds[p], bounds[p + 1]
        np.matmul(a[lo:hi], b, out=out[lo:hi])

    run_parts(part, parts)
    return out


def split_draws(rng: np.random.Generator, starts: list[int]) -> list[np.random.Generator]:
    """One generator per part: the stream of rng's doubles, cut at starts.

    starts[0] is 0 and starts rise; rng's bit generator is PCG64, which
    spends one 64-bit output per double. Generator p draws rng's doubles
    from the starts[p]-th on: a copy of rng advanced by starts[p], except
    the last, which is rng itself advanced in place. So one part draws
    from rng with no copy (a copy costs about 30 us), and once each part
    has drawn up to the next start and the last to the end, rng stands
    where one rng.random call over the whole would leave it, a buffered
    half of a 64-bit output included.
    """
    if len(starts) == 1:
        return [rng]
    bit_gen = rng.bit_generator
    state = bit_gen.state
    copies = []
    for start in starts[:-1]:
        copy = np.random.PCG64()
        copy.state = state
        copies.append(np.random.Generator(copy.advance(start)))
    bit_gen.advance(starts[-1])  # advance drops a buffered 32-bit output: put it back
    if state["has_uint32"]:
        bit_gen.state = {**bit_gen.state, "has_uint32": 1, "uinteger": state["uinteger"]}
    return copies + [rng]
