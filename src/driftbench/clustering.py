"""Seeded k-means (k-means++ init, Lloyd iterations) and nearest-centroid assignment.

Implemented directly on numpy rather than wrapping a library so that the
tie rule (lowest centroid index wins), the empty-cluster repair rule, and
bitwise run-to-run determinism are all pinned down by this file alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ITER = 300
REL_TOL = 1e-6


@dataclass(frozen=True)
class ClusterModel:
    """Fitted k-means model: centroids, per-sample assignments, final inertia."""

    k_clusters: int
    centroids: np.ndarray  # (K, D)
    assignments: np.ndarray  # (N,) int
    inertia: float
    seed: int
    iterations_run: int


def _pairwise_sq_dists(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (N, K).

    Computed by explicit difference rather than the ||x||^2 - 2x.c + ||c||^2
    expansion: slower but never negative, so argmin tie-breaking is exact.
    """
    return ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def assign_nearest(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the Euclidean-nearest centroid per row; ties -> lowest index."""
    X = np.asarray(X, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    if X.ndim != 2 or centroids.ndim != 2 or X.shape[1] != centroids.shape[1]:
        raise ValueError(
            f"dimension mismatch: X has shape {X.shape}, centroids {centroids.shape}"
        )
    return _pairwise_sq_dists(X, centroids).argmin(axis=1)


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first centroid uniform, rest D^2-weighted."""
    n = X.shape[0]
    indices = [int(rng.integers(n))]
    sq_d = ((X - X[indices[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = sq_d.sum()
        if total > 0:
            probs = sq_d / total
            idx = int(rng.choice(n, p=probs))
        else:
            # All remaining mass sits on already-chosen points (duplicates).
            idx = int(rng.integers(n))
        indices.append(idx)
        sq_d = np.minimum(sq_d, ((X - X[idx]) ** 2).sum(axis=1))
    return X[indices].copy()


def _repair_empty(X: np.ndarray, labels: np.ndarray, centroids: np.ndarray,
                  k: int) -> np.ndarray:
    """Give each empty cluster the point currently farthest from its centroid.

    Donor points are only taken from clusters with >= 2 members so the
    repair never empties another cluster.
    """
    labels = labels.copy()
    counts = np.bincount(labels, minlength=k)
    for empty in np.flatnonzero(counts == 0):
        dists = ((X - centroids[labels]) ** 2).sum(axis=1)
        donors = counts[labels] >= 2
        dists[~donors] = -1.0
        mover = int(dists.argmax())
        counts[labels[mover]] -= 1
        labels[mover] = empty
        counts[empty] = 1
        centroids[empty] = X[mover]
    return labels


def kmeans_fit(X: np.ndarray, k_clusters: int, seed: int = 0) -> ClusterModel:
    """Lloyd's algorithm from a seeded k-means++ start.

    Stops when the labels stop changing, when the relative inertia
    improvement falls below REL_TOL, or after MAX_ITER iterations. The
    returned assignments are consistent with the returned centroids (final
    E-step), and no cluster is empty.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    n = X.shape[0]
    if not np.isfinite(X).all():
        raise ValueError("X contains non-finite values")
    if k_clusters < 1:
        raise ValueError(f"k_clusters must be >= 1, got {k_clusters}")
    if k_clusters > n:
        raise ValueError(f"k_clusters={k_clusters} exceeds sample count {n}")

    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(X, k_clusters, rng)
    labels = assign_nearest(X, centroids)
    labels = _repair_empty(X, labels, centroids, k_clusters)

    prev_inertia = np.inf
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        # M-step: centroid = mean of members (repair guarantees none empty).
        new_centroids = np.empty_like(centroids)
        for j in range(k_clusters):
            new_centroids[j] = X[labels == j].mean(axis=0)
        centroids = new_centroids
        # E-step against the fresh centroids.
        new_labels = assign_nearest(X, centroids)
        new_labels = _repair_empty(X, new_labels, centroids, k_clusters)
        inertia = float(((X - centroids[new_labels]) ** 2).sum())
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
        k_clusters=k_clusters,
        centroids=centroids,
        assignments=labels,
        inertia=prev_inertia,
        seed=seed,
        iterations_run=iterations,
    )

