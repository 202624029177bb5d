"""Split independent work across the CPUs this process may run on.

WORKERS is the number of CPUs in the process's affinity mask (`taskset`
narrows it). Every parallel stage is a task run over `cuts(n, parts)`,
the contiguous slices of its rows, columns or elements, by `run_parts`
on the one process-wide POOL. The caller runs part 0 and any part the
pool has not started by the time it is free, so it never waits on a part
nobody runs and parts nest: `train-all` hands the pool one task whose
parts are hold-outs, and their row parts share the same WORKERS threads.
Tasks run NumPy kernels that release the GIL and write disjoint slices
of preallocated arrays.

`gemm_parts` is the one gate of a GEMM and of the layer work on its
parts, and `matmul` splits a GEMM by output rows. Each row of a @ b comes
from that row of a and all of b, so where BLAS runs it through the same
kernel the bits match the unsplit np.matmul; a test pins this at every
shape the trainer issues at the paper widths. With OpenBLAS on AVX-512
the last columns of an output width that is not a multiple of 8 round
differently, so such a GEMM runs in one part. Splits by columns were
measured to differ at some widths, so they are not used.

Elementwise work rides on the same parts: mlp runs a hidden layer's
bias, layer norm, ReLU and dropout on the rows its part of the GEMM
wrote. Work that reduces over rows (a column sum) splits by columns
instead; either way each output element is computed by the same
operations, in the same order, as on one thread.
"""
from __future__ import annotations

import os
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
POOL = ThreadPoolExecutor(max_workers=WORKERS, thread_name_prefix="driftbench-part")


def parts_for(work: int, per_part: int, limit: int) -> int:
    """How many parts to cut work into: at least per_part each, at most limit, WORKERS."""
    return max(1, min(WORKERS, limit, work // per_part))


def gemm_parts(m: int, k: int, n: int) -> int:
    """Row parts of an (m, k) @ (k, n) product, and of the layer work that rides on them.

    At least GEMM_PART_FLOPS a part, and two rows and two columns: a
    one-row product takes NumPy's matrix-vector path, whose roundings
    differ, and NumPy sums a one-column slice pairwise. An output width
    that is not a multiple of 8 runs in one part, as BLAS rounds the last
    n % 8 columns of a row-cut product differently.
    """
    return parts_for(2 * m * k * n, GEMM_PART_FLOPS, min(m, n) // 2 if n % 8 == 0 else 1)


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
    if len(parts) == 1:  # no closure or futures: 1.6 us less a call, 13 calls a small step
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
    if errors:
        raise errors[0]


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for 2-D operands, bitwise equal to np.matmul; large ones split by rows."""
    m, k = a.shape
    n = b.shape[1]
    if out is None:
        out = np.empty((m, n), dtype=np.result_type(a, b))
    run_parts(lambda p, rows: np.matmul(a[rows], b, out=out[rows]), cuts(m, gemm_parts(m, k, n)))
    return out

