"""Seeded k-means (k-means++ init, Lloyd iterations) and nearest-centroid assignment.

Implemented directly on numpy rather than wrapping a library so that the
tie rule (lowest centroid index wins), the empty-cluster repair rule, and
bitwise run-to-run determinism are all pinned down by this file alone.

float32 rows are read as given: every distance, norm and mean widens the
rows it reads into float64 first, one row block (or one cluster) at a
time. Widening is exact, so a float32 X fits bit for bit as its float64
copy would, without that copy being built. Any other input is converted
to float64 once.

A Lloyd iteration reads X twice: the M-step gathers each cluster's rows,
and the E-step ranks a block of rows against every centroid and, once
the block's labels are final, takes each row's explicit squared distance
to its centroid. Those distances serve the empty-cluster repair and sum
to the inertia.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dataset

MAX_ITER = 300
REL_TOL = 1e-6


@dataclass(frozen=True)
class ClusterModel:
    """Fitted k-means model: centroids, per-sample assignments, final inertia.

    inertia is float(((X - centroids[assignments]) ** 2).sum(axis=1).sum())
    bit for bit: each row's explicit squared distance to its centroid,
    summed by NumPy's pairwise sum over the rows in row order.
    """

    centroids: np.ndarray  # (K, D)
    assignments: np.ndarray  # (N,) int
    inertia: float
    iterations_run: int


def _pairwise_sq_dists(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances by explicit difference, shape (N, K).

    This is the form that defines assignment: `assign_nearest` returns
    exactly its row-wise argmin (lowest index on ties). Column j is
    `_sq_dists_to(X, centroids[j])`, so it equals
    ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2) bit for bit
    while building no (N, K, D) array, only one scratch of row blocks.
    """
    out = np.empty((len(X), len(centroids)))
    scratch = _scratch(len(X), X.shape[1])
    for j, point in enumerate(centroids):
        _sq_dists_to(X, point, scratch, out[:, j])
    return out


def assign_nearest(X: np.ndarray, centroids: np.ndarray,
                   x_sq: np.ndarray | None = None,
                   row_sq: np.ndarray | None = None) -> np.ndarray:
    """Index of the Euclidean-nearest centroid per row; ties -> lowest index.

    The result equals `_pairwise_sq_dists(X, centroids).argmin(axis=1)`
    bit for bit. Centroids are ranked through the expansion
    ||x||^2 - 2x.c + ||c||^2, one matrix product per block of rows
    (widened to float64 if X is float32). A row whose best-versus-second
    margin there is not above `_expansion_tol` (ties, cancellation, inf or
    NaN) is recomputed by the explicit form over all K columns, within its
    block. Labels are thus exact whatever the block size or the rounding
    of the expansion. x_sq, the rows' squared norms, may be passed in
    (`kmeans_fit` computes them once per fit); any rounding of them is
    covered by the tolerance. Given a length-N row_sq, each block, once
    its labels are final, also writes there its rows' explicit squared
    distances to their centroids, ((x - c) ** 2).sum() as `_sq_dists_to`
    forms them, while the widened block is still in cache.
    Memory is a few length-N vectors and one block's (rows, K) distances
    and (rows, D) differences: no (N, K), N x D or (rows, K, D) array is
    built.
    """
    X = _float_rows(X)
    centroids = np.asarray(centroids, dtype=np.float64)
    if X.ndim != 2 or centroids.ndim != 2 or X.shape[1] != centroids.shape[1]:
        raise ValueError(
            f"dimension mismatch: X has shape {X.shape}, centroids {centroids.shape}"
        )
    n, d = X.shape
    if x_sq is None:
        x_sq = _row_norms(X)
    labels = np.empty(n, dtype=np.intp)
    diffs = None
    # `~(margin > tol)` also sends NaN or inf margins, and rows whose tol
    # overflowed, to the recheck, which then warns as the explicit form
    # always has; hence the silenced errstate here.
    with np.errstate(over="ignore", invalid="ignore"):
        c_sq = np.einsum("ij,ij->i", centroids, centroids)
        # S = (||x|| + max||c||)^2 bounds every exact squared distance of a row
        tol = _expansion_tol(d, np.sqrt(x_sq) + np.sqrt(c_sq.max(initial=0.0)))
    for rows, block in _float64_blocks(X):
        with np.errstate(over="ignore", invalid="ignore"):
            dists = block @ centroids.T
            dists *= -2.0
            dists += x_sq[rows, None]
            dists += c_sq
            best = labels[rows] = dists.argmin(axis=1)
            at = np.arange(len(best))
            best_dist = dists[at, best]
            dists[at, best] = np.inf
            margin = dists.min(axis=1) - best_dist
        recheck = rows.start + np.flatnonzero(~(margin > tol[rows]))
        for part in dataset.row_blocks(recheck.size, d):
            again = recheck[part]
            labels[again] = _pairwise_sq_dists(X[again], centroids).argmin(axis=1)
        if row_sq is not None:
            if diffs is None:  # the first block is the largest
                diffs = np.empty(block.shape)
            _sq_dists_to(block, centroids, diffs, row_sq[rows], labels[rows])
    return labels


def _expansion_tol(d: int, norm_bound: np.ndarray) -> np.ndarray:
    """How far the expansion ||x||^2 - 2x.c + ||c||^2 may stray from the explicit form.

    norm_bound is ||x|| + ||c|| (or + max||c||), so S = norm_bound^2 bounds
    the exact squared distance. Let u = eps/2.
    - Expansion: each of ||x||^2, x.c and ||c||^2 is a D-term dot product,
      off by at most gamma_D = D*u/(1 - D*u) times its sum of |terms| in
      any summation order, FMA or not; together <= gamma_D*S. The two
      additions add <= 2u*S. Total about (D+2)*u*S.
    - Explicit form: D nonnegative terms of 3 roundings each, then D-1
      additions: <= gamma_{D+2} * exact <= about (D+2)*u*S.
    So both forms are within 2*(D+2)*u*S = (D+2)*eps*S of each other on
    every entry. A row whose margin between two columns exceeds twice that
    has the same unique argmin under the explicit form, and an expansion
    that exceeds a value by more than that has an explicit distance above
    it. The result doubles the larger again to cover the second-order
    terms and the rounding of the norms (computed in any block), of S and
    of tol; the eta term covers gradual underflow (<= eta/2 per product,
    eta the smallest subnormal).
    """
    eps = np.finfo(np.float64).eps
    eta = np.finfo(np.float64).smallest_subnormal
    return 4.0 * (d + 4) * (eps * norm_bound * norm_bound + eta)


def _float_rows(X) -> np.ndarray:
    """X as given if it is float32 (the feature pack's type), else as float64."""
    X = np.asarray(X)
    return X if X.dtype == np.float32 else X.astype(np.float64, copy=False)


def _wide_blocks(n: int, d: int):
    """The row blocks, 4 * dataset.BLOCK elements each, that products and gathers walk.

    Over blocks of dataset.BLOCK elements the E-step took 1.3-1.6 times as
    long (1920 x 128 to 8000 x 512 rows, one BLAS thread) and a widening
    gather 1.15 times; sixteen blocks gained little more, and four stay
    small beside X.
    """
    return dataset.row_blocks(n, d, 4 * dataset.BLOCK)


def _float64_blocks(X: np.ndarray):
    """(rows, X[rows] in float64) for each of the `_wide_blocks` of X, in order.

    A float64 X yields views. A float32 X is widened, exactly, into one
    buffer that every block reuses, so the caller must be done with a
    block before it asks for the next.
    """
    buffer = None
    for rows in _wide_blocks(*X.shape):
        if X.dtype == np.float64:
            yield rows, X[rows]
            continue
        if buffer is None:  # the first block is the largest
            buffer = np.empty((rows.stop - rows.start, X.shape[1]))
        block = buffer[:rows.stop - rows.start]
        np.copyto(block, X[rows])
        yield rows, block


def _row_norms(X: np.ndarray) -> np.ndarray:
    """||x||^2 per row of X, through `_float64_blocks`."""
    x_sq = np.empty(len(X))
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, block in _float64_blocks(X):
            np.einsum("ij,ij->i", block, block, out=x_sq[rows])
    return x_sq


def _scratch(n: int, d: int) -> np.ndarray:
    """One block of rows, dataset.BLOCK elements, for `_sq_dists_to` to walk X through."""
    return np.empty((min(n, dataset.block_rows(d)), d))


def _sq_dists_to(X: np.ndarray, points: np.ndarray, scratch: np.ndarray,
                 out: np.ndarray, labels: np.ndarray | None = None) -> np.ndarray:
    """((X - points) ** 2).sum(axis=1) into out, bit for bit, len(scratch) rows at a time.

    points is one float64 point, or the float64 centroids that labels
    picks per row; a float32 X is widened by the subtraction's cast, which
    is exact. Each row's D squares sum the same way in any block, so no bit
    depends on its size.
    """
    for rows in dataset.row_blocks(len(X), 1, len(scratch)):
        block = scratch[:rows.stop - rows.start]
        if labels is not None:
            np.take(points, labels[rows], axis=0, out=block, mode="clip")
        np.subtract(X[rows], points if labels is None else block, out=block)
        np.square(block, out=block)
        np.add.reduce(block, axis=1, out=out[rows])
    return out


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator,
                   scratch: np.ndarray, x_sq: np.ndarray | None = None) -> np.ndarray:
    """k-means++ seeding: first centroid uniform, rest D^2-weighted; float64 centroids.

    Arthur and Vassilvitskii, "k-means++" (SODA 2007). sq_d holds each
    row's explicit squared distance ((x - c) ** 2).sum() to its nearest
    centroid so far, and every draw reads it, so it must stay bitwise.
    A pass ranks the rows by the expansion ||x||^2 - 2x.c + ||c||^2 (x_sq
    holds the ||x||^2) and recomputes the explicit distance only where
    the expansion minus `_expansion_tol` does not exceed sq_d. Elsewhere
    the explicit distance exceeds sq_d, so the minimum is sq_d unchanged.
    Each new centroid is widened to float64 before any subtraction (a
    float32 difference would round). Rows go through `_float64_blocks`
    and scratch, so no pass builds an N x D array.
    """
    n, d = X.shape
    if x_sq is None:
        x_sq = _row_norms(X)
    x_norm = np.sqrt(x_sq)
    low = np.empty(n)
    indices = [int(rng.integers(n))]
    sq_d = _sq_dists_to(X, X[indices[0]].astype(np.float64), scratch, np.empty(n))
    for _ in range(1, k):
        total = sq_d.sum()
        if total > 0:
            probs = sq_d / total
            idx = int(rng.choice(n, p=probs))
        else:
            # All remaining mass sits on already-chosen points (duplicates).
            idx = int(rng.integers(n))
        indices.append(idx)
        point = X[idx].astype(np.float64)
        # a NaN or inf bound fails the test below, so its row is recomputed
        with np.errstate(over="ignore", invalid="ignore"):
            for rows, block in _float64_blocks(X):
                np.matmul(block, point, out=low[rows])
            low *= -2.0
            low += x_sq
            low += x_sq[idx]
            low -= _expansion_tol(d, x_norm + x_norm[idx])
        near = np.flatnonzero(~(low > sq_d))
        for block in dataset.row_blocks(near.size, d):
            rows = near[block]
            sq_d[rows] = np.minimum(
                sq_d[rows], _sq_dists_to(X[rows], point, scratch, np.empty(rows.size)))
    return np.asarray(X[indices], dtype=np.float64)


def _cluster_means(X: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Row j is X[labels == j].mean(axis=0), bit for bit, for each of k clusters.

    One stable argsort lists every cluster's rows in row order, so each
    gather by index holds the rows the boolean mask would, in the same
    order, and no mask or N x D array is built. A float32 gather is
    widened to float64 before its mean, so it sums as a float64 X would.
    """
    order = np.argsort(labels, kind="stable")
    means = np.empty((k, X.shape[1]))
    start = 0
    for j, end in enumerate(np.cumsum(np.bincount(labels, minlength=k)).tolist()):
        means[j] = _gathered(X, order[start:end]).mean(axis=0)
        start = end
    return means


def _gathered(X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """X[rows] in float64; a float32 X is widened a `_wide_blocks` block at a time.

    So no float32 copy of the rows is built beside their float64 one.
    """
    if X.dtype == np.float64:
        return X[rows]
    out = np.empty((len(rows), X.shape[1]))
    for part in _wide_blocks(len(rows), X.shape[1]):
        out[part] = X[rows[part]]
    return out


def _repair_empty(X: np.ndarray, labels: np.ndarray, centroids: np.ndarray,
                  k: int, row_sq: np.ndarray) -> np.ndarray:
    """Give each empty cluster the point currently farthest from its centroid.

    Donor points are only taken from clusters with >= 2 members so the
    repair never empties another cluster. row_sq holds each row's explicit
    squared distance to its centroid under labels, as `assign_nearest`
    writes it; it is kept so under the repaired labels, in place.
    """
    labels = labels.copy()
    counts = np.bincount(labels, minlength=k)
    for empty in np.flatnonzero(counts == 0):
        donors = counts[labels] >= 2
        mover = int(np.where(donors, row_sq, -1.0).argmax())
        counts[labels[mover]] -= 1
        labels[mover] = empty
        counts[empty] = 1
        centroids[empty] = X[mover]
        # The mover now sits on its own centroid; no other point's changed.
        row_sq[mover] = 0.0
    return labels


def kmeans_fit(X: np.ndarray, k_clusters: int, seed: int = 0) -> ClusterModel:
    """Lloyd's algorithm from a seeded k-means++ start.

    Stops when the labels stop changing, when the relative inertia
    improvement falls below REL_TOL, or after MAX_ITER iterations. The
    returned assignments are consistent with the returned centroids (final
    E-step), and no cluster is empty. The exception is a final E-step that
    needed an empty-cluster repair, as it always does when k exceeds the
    number of distinguishable rows: the repaired labels can then differ
    from assign_nearest.

    A float32 X is read in place, never copied to float64 (see the module
    docstring): the fit equals that of X.astype(np.float64) bit for bit.
    The row norms ||x||^2 are computed once and serve the seeding and
    every E-step. Each E-step also writes every row's explicit squared
    distance to its centroid into one length-N vector, which the repair
    reads and updates and whose sum is the inertia, so an iteration reads
    X once in the E-step and once in the M-step.
    """
    X = _float_rows(X)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    n = X.shape[0]
    if not (np.isfinite(X.min(initial=0.0)) and np.isfinite(X.max(initial=0.0))):
        raise ValueError("X contains non-finite values")
    if k_clusters < 1:
        raise ValueError(f"k_clusters must be >= 1, got {k_clusters}")
    if k_clusters > n:
        raise ValueError(f"k_clusters={k_clusters} exceeds sample count {n}")

    rng = np.random.default_rng(seed)
    x_sq = _row_norms(X)
    centroids = _kmeanspp_init(X, k_clusters, rng, _scratch(n, X.shape[1]), x_sq)
    row_sq = np.empty(n)
    labels = assign_nearest(X, centroids, x_sq, row_sq)
    labels = _repair_empty(X, labels, centroids, k_clusters, row_sq)

    prev_inertia = np.inf
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        # M-step: centroid = mean of members (repair guarantees none empty).
        centroids = _cluster_means(X, labels, k_clusters)
        # E-step against the fresh centroids.
        new_labels = assign_nearest(X, centroids, x_sq, row_sq)
        new_labels = _repair_empty(X, new_labels, centroids, k_clusters, row_sq)
        inertia = float(np.add.reduce(row_sq))
        if not inertia <= prev_inertia * (1 + 1e-12) + 1e-12:
            raise RuntimeError(
                f"inertia rose {prev_inertia} -> {inertia} at iteration {iterations}")
        converged = np.array_equal(new_labels, labels) or (
            np.isfinite(prev_inertia)
            and prev_inertia - inertia <= REL_TOL * max(prev_inertia, 1e-300)
        )
        labels = new_labels
        prev_inertia = inertia
        if converged:
            break

    return ClusterModel(
        centroids=centroids,
        assignments=labels,
        inertia=prev_inertia,
        iterations_run=iterations,
    )

